"""Dissipation coefficients alpha, alpha' against limits and pinned values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbrown.coefficients import alpha_arrays, alpha_pair, alpha_prime_free
from qbrown.core import PoleError, SystemParams, TemperatureError, xcothx
from qbrown.diffusion import diffusion_constants, positivity_delta
from qbrown.selftest import PINNED_ALPHA, PINNED_ALPHA_PRIME

# the pinned values round the 40-digit closed forms at gamma=1, omega0=2,
# kB*T=hbar*gamma, omega_c=inf: alpha = 0.97991337334597421156,
# alpha' = 0.077730261384691019992


def params(omega0, T, **kw):
    return SystemParams(omega0=omega0, T=T, **kw)


class TestAlphaPair:
    def test_pinned_underdamped_value(self):
        ab = alpha_pair(params(2.0, 1.0))
        assert ab.alpha == pytest.approx(PINNED_ALPHA, rel=1e-13)
        assert ab.alpha_prime == pytest.approx(PINNED_ALPHA_PRIME, rel=1e-13)
        assert ab.residual_imag < 1e-10

    def test_free_particle_limit(self):
        # omega0 -> 0: alpha -> 1, alpha' -> alpha'_0
        ab = alpha_pair(params(1e-8, 1.0))
        assert abs(ab.alpha - 1.0) < 1e-6
        assert ab.alpha_prime == pytest.approx(alpha_prime_free(1.0, 1.0), rel=1e-6)

    def test_high_t_alpha_prime(self):
        # hbar^2/(12 kB^2 T^2) from the high-T Dqq form, at the critical point
        ab = alpha_pair(params(1.0, 100.0))
        assert ab.alpha_prime == pytest.approx(1.0 / (12.0 * 100.0 ** 2), rel=1e-3)

    def test_zero_temperature_rejected(self):
        with pytest.raises(TemperatureError):
            alpha_pair(params(1.0, 0.0))
        with pytest.raises(TemperatureError):
            alpha_prime_free(1.0, 0.0)

    def test_underdamped_reality(self):
        # conjugate decay modes cancel to real coefficients
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            gamma = float(10.0 ** rng.uniform(-1.5, 1.5))
            omega0 = gamma * float(10.0 ** rng.uniform(0.05, 1.5))
            T = float(10.0 ** rng.uniform(-1, 2))
            ab = alpha_pair(SystemParams(omega0=omega0, T=T, gamma=gamma))
            assert ab.residual_imag < 1e-10

    def test_degenerate_continuity(self):
        # crossing the critical point changes nothing at the 1e-3 level
        lo = alpha_pair(params(1.0 * (1.0 - 1e-5), 1.0))
        hi = alpha_pair(params(1.0 * (1.0 + 1e-5), 1.0))
        at = alpha_pair(params(1.0, 1.0))
        for a, b in ((lo.alpha, hi.alpha), (lo.alpha_prime, hi.alpha_prime),
                     (lo.alpha, at.alpha), (lo.alpha_prime, at.alpha_prime)):
            assert abs(a / b - 1.0) < 1e-3

    def test_high_t_alpha_slope(self):
        # |alpha - 1| ~ T^-4: log-log slope in the high-T decade
        Ts = np.geomspace(30.0, 300.0, 12)
        gaps = np.array([abs(alpha_pair(params(1.3, float(T))).alpha - 1.0) for T in Ts])
        slope = np.polyfit(np.log(Ts), np.log(gaps), 1)[0]
        assert slope == pytest.approx(-4.0, abs=0.1)

    def test_high_t_alpha_fourth_order_coefficient(self):
        # alpha - 1 -> -(hbar*omega0/2 kB T)^4/45
        T = 50.0
        gap = alpha_pair(params(1.3, T)).alpha - 1.0
        assert gap == pytest.approx(-(1.3 / (2 * T)) ** 4 / 45.0, rel=1e-2)


class TestFiniteCutoff:
    def test_convergence_to_infinite(self):
        ref = alpha_pair(params(2.0, 1.0))
        gaps = []
        for wc in (200.0, 500.0, 2000.0, 10000.0):
            ab = alpha_pair(params(2.0, 1.0, omega_c=wc))
            gaps.append(max(abs(ab.alpha / ref.alpha - 1.0),
                            abs(ab.alpha_prime / ref.alpha_prime - 1.0)))
        # < 1% once omega_c >= 100*max(gamma, omega0, kB T/hbar), monotone after
        assert gaps[0] < 0.01
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]

    def test_middle_term_uses_omega0_over_cutoff(self):
        # the printed finite-cutoff bracket divides the sqrt(l1 l2) term by
        # 1 + omega0^2/omega_c^2; spot-check against a direct evaluation
        gamma, omega0, T, wc = 1.0, 2.0, 1.0, 30.0
        Om = complex(gamma ** 2 - omega0 ** 2) ** 0.5
        l1, l2 = -gamma + Om, -gamma - Om
        s = 0.5 / T

        def bracket(z, lam):
            return xcothx(z) / (1.0 + (lam / wc) ** 2) - 1.0

        b1 = bracket(l1 * s, l1)
        bm = bracket(omega0 * s, omega0)
        b2 = bracket(l2 * s, l2)
        alpha = 1.0 + (omega0 ** 4 / (l2 - l1) ** 2) * (
            b1 / l1 ** 2 - 2.0 * bm / omega0 ** 2 + b2 / l2 ** 2)
        alpha_prime = (b1 - 2.0 * bm + b2) / (l2 - l1) ** 2
        ab = alpha_pair(params(omega0, T, gamma=gamma, omega_c=wc))
        assert ab.alpha == pytest.approx(alpha.real, rel=1e-12)
        assert ab.alpha_prime == pytest.approx(alpha_prime.real, rel=1e-12)


class TestAlphaPrimeFree:
    def test_direct_value(self):
        # (coth(1) - 1)/4 with coth(1) = 1.3130352854993313
        assert alpha_prime_free(1.0, 1.0) == pytest.approx(0.07825882137483283, rel=1e-13)

    def test_high_t_series(self):
        # -> hbar^2/(12 kB^2 T^2) from x coth x = 1 + x^2/3 - ...
        T = 1e4
        assert alpha_prime_free(1.0, T) == pytest.approx(1.0 / (12.0 * T * T), rel=1e-7)

    def test_matches_oscillator_limit(self):
        for gamma, T in ((0.7, 0.9), (2.0, 5.0)):
            ab = alpha_pair(SystemParams(omega0=1e-8 * gamma, T=T, gamma=gamma))
            assert ab.alpha_prime == pytest.approx(alpha_prime_free(gamma, T), rel=1e-6)

    def test_units(self):
        # [x coth x - 1]/(4 gamma^2) with explicit hbar, kB
        v = alpha_prime_free(2.0, 3.0, hbar=7.0, kB=11.0)
        x = 7.0 * 2.0 / (11.0 * 3.0)
        ref = (x / math.tanh(x) - 1.0) / 16.0
        assert v == pytest.approx(ref, rel=1e-12)


class TestBatchedKernel:
    def test_reproduces_scalar_complex_arithmetic_bit_for_bit(self):
        # each element of a random batch against its scalar (one-system)
        # alpha_pair call, complex arithmetic in the lambda1 bracket included
        rng = np.random.default_rng(99)
        n = 400
        g = 10.0 ** rng.uniform(-1, 1, n)
        w = g * 10.0 ** rng.uniform(-3, 2, n)
        w[:20] = 0.0
        w[20:40] = g[20:40]                      # critical
        w[40:60] = np.geomspace(1e-300, 1e-60, 20)  # lambda1^2 underflows below ~1e-81
        T = 10.0 ** rng.uniform(-3, 3, n)
        wc = np.where(rng.uniform(size=n) < 0.5, 10.0 ** rng.uniform(0, 4, n), math.inf)
        hbar, kB = 10.0 ** rng.uniform(-1, 1, n), 10.0 ** rng.uniform(-1, 1, n)
        ab = alpha_arrays(SystemParams(omega0=w, T=T, gamma=g, omega_c=wc, hbar=hbar, kB=kB))
        assert np.all(np.isfinite(ab.alpha)) and np.all(np.isfinite(ab.alpha_prime))
        for i in range(n):
            one = alpha_pair(SystemParams(omega0=float(w[i]), T=float(T[i]), gamma=float(g[i]),
                                          omega_c=float(wc[i]), hbar=float(hbar[i]),
                                          kB=float(kB[i])))
            assert (one.alpha, one.alpha_prime, one.residual_imag) == (
                ab.alpha[i], ab.alpha_prime[i], ab.residual_imag[i]), i
            assert type(one.alpha) is float and one.residual_imag == 0.0

    def test_shapes_and_scalar_wrapper(self):
        p = SystemParams(omega0=np.array([0.5, 2.0]), T=np.array([[0.3], [3.0]]))
        ab = alpha_arrays(p)
        assert ab.alpha.shape == ab.alpha_prime.shape == ab.residual_imag.shape == (2, 2)
        one = alpha_pair(SystemParams(omega0=2.0, T=3.0))
        assert type(one.alpha) is float and (one.alpha, one.alpha_prime) == (
            ab.alpha[1, 1], ab.alpha_prime[1, 1])
        with pytest.raises(ValueError):
            alpha_pair(p)

    def test_zero_temperature_anywhere_rejected(self):
        with pytest.raises(TemperatureError):
            alpha_arrays(SystemParams(omega0=1.0, T=np.array([1.0, 0.0])))

    def test_pole_rejected_on_both_paths(self):
        # gamma = 1e-13 at omega0 = pi puts lambda1*hbar/(2 kB T) 1e-13 from i*pi
        with pytest.raises(PoleError):
            alpha_pair(SystemParams(omega0=math.pi, T=0.5, gamma=1e-13))
        with pytest.raises(PoleError):
            alpha_arrays(SystemParams(omega0=np.array([2.0, math.pi]), T=0.5, gamma=1e-13))


def _exp10(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0 ** e)


KINDS = ["overdamped", "underdamped", "critical", "near-critical", "zero", "lambda1-underflow"]


def _omega0(kind, g, u):
    """omega0 of each kind of system at gamma = g, from u in [0, 1]."""
    if kind == "overdamped":
        return g * 10.0 ** (-4.0 + 4.0 * u)
    if kind == "underdamped":
        return g * 10.0 ** (3.0 * u)
    if kind == "critical":               # inside CRITICAL_TOL: the nudged average
        return g * (1.0 + (2.0 * u - 1.0) * 1e-9)
    if kind == "near-critical":          # just outside it, either side
        return g * (1.0 + (1.0 if u < 0.5 else -1.0) * 10.0 ** (-8.0 + 12.0 * abs(u - 0.5)))
    if kind == "zero":
        return 0.0
    return 10.0 ** (-300.0 + 218.0 * u)  # lambda1^2 underflows


def _systems(T):
    """Lists of (omega0, T, gamma, omega_c, hbar, kB), every kind of system,
    finite and infinite cutoffs."""
    one = st.tuples(st.sampled_from(KINDS), _exp10(-3, 3), st.floats(0.0, 1.0), T,
                    st.one_of(st.just(math.inf), _exp10(-1, 4)), _exp10(-1, 1), _exp10(-1, 1))
    return st.lists(one, min_size=1, max_size=24).map(
        lambda rows: [(_omega0(k, g, u), T, g, wc, h, kB) for k, g, u, T, wc, h, kB in rows])


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _one(system, as_numpy) -> SystemParams:
    """One system from its six fields, as Python floats or np.float64 scalars."""
    w, T, g, wc, hbar, kB = (np.float64(v) if as_numpy else float(v) for v in system)
    return SystemParams(omega0=w, T=T, gamma=g, omega_c=wc, hbar=hbar, kB=kB)


class TestKernelIdentity:
    """A one-system ``alpha_pair`` call against its element of a batch: the
    one system runs the batch code on one-element arrays, so they agree bit
    for bit, whatever the batch's shape or the type of the one system's
    fields."""

    @given(_systems(_exp10(-6, 6)), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_flat_batch_equals_scalar_bit_for_bit(self, systems, as_numpy):
        w, T, g, wc, hbar, kB = (np.array(c) for c in zip(*systems))
        ab = alpha_arrays(SystemParams(omega0=w, T=T, gamma=g, omega_c=wc, hbar=hbar, kB=kB))
        for i, system in enumerate(systems):
            one = alpha_pair(_one(system, as_numpy))
            assert type(one.alpha) is type(one.alpha_prime) is float
            assert (_bits(one.alpha), _bits(one.alpha_prime)) == (
                _bits(ab.alpha[i]), _bits(ab.alpha_prime[i])), i
            assert one.residual_imag == ab.residual_imag[i] == 0.0

    @given(ratios=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
           kind=st.sampled_from(KINDS),
           g=_exp10(-3, 3), Ts=st.lists(_exp10(-6, 6), min_size=1, max_size=6),
           wc=st.one_of(st.just(math.inf), _exp10(-1, 4)), hbar=_exp10(-1, 1),
           as_numpy=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_broadcast_batch_equals_scalar_bit_for_bit(self, ratios, kind, g, Ts, wc, hbar,
                                                        as_numpy):
        # the shape the T_c scan passes: (n, 1) systems against (1, m) temperatures
        w = np.array([_omega0(kind, g, u) for u in ratios])[:, None]
        T = np.array(Ts)[None, :]
        ab = alpha_arrays(SystemParams(omega0=w, T=T, gamma=g, omega_c=wc, hbar=hbar))
        assert ab.alpha.shape == ab.residual_imag.shape == (len(ratios), len(Ts))
        assert ab.alpha.flags.c_contiguous and ab.alpha_prime.flags.c_contiguous
        for i, j in np.ndindex(ab.alpha.shape):
            one = alpha_pair(_one((w[i, 0], T[0, j], g, wc, hbar, 1.0), as_numpy))
            assert (_bits(one.alpha), _bits(one.alpha_prime)) == (
                _bits(ab.alpha[i, j]), _bits(ab.alpha_prime[i, j]))
            assert one.residual_imag == ab.residual_imag[i, j] == 0.0

    @given(st.lists(st.tuples(st.sampled_from(KINDS), st.floats(0.0, 1.0)), min_size=1,
                    max_size=3),
           st.lists(_exp10(-1, 1), min_size=1, max_size=3),
           st.lists(_exp10(-3, 3), min_size=1, max_size=3),
           st.lists(st.one_of(st.just(math.inf), _exp10(-1, 4)), min_size=1, max_size=3),
           st.permutations(range(4)))
    @settings(max_examples=100, deadline=None)
    def test_each_field_on_its_own_axis(self, kinds, gs, Ts, wcs, axes):
        # omega0, gamma, T and omega_c each vary along their own axis, in
        # any order, so every field may hold more axes than the others
        def along(values, axis):
            return np.array(values).reshape((-1,) + (1,) * axis)

        g = along(gs, axes[1])
        w = along([_omega0(k, 1.0, u) for k, u in kinds], axes[0]) * g
        T, wc = along(Ts, axes[2]), along(wcs, axes[3])
        ab = alpha_arrays(SystemParams(omega0=w, T=T, gamma=g, omega_c=wc))
        W, TT, G, WC = np.broadcast_arrays(w, T, g, wc)
        assert ab.alpha.shape == W.shape
        for i in np.ndindex(W.shape):
            one = alpha_pair(SystemParams(omega0=float(W[i]), T=float(TT[i]), gamma=float(G[i]),
                                          omega_c=float(WC[i])))
            assert (_bits(one.alpha), _bits(one.alpha_prime)) == (
                _bits(ab.alpha[i]), _bits(ab.alpha_prime[i])), i

    @given(_systems(_exp10(-321, -280)))
    @settings(max_examples=100, deadline=None)
    def test_subnormal_temperature_status_matches_scalar(self, systems):
        # near T = 0 the coth arguments overflow and the coefficients may be
        # inf or NaN; a one-system call is finite exactly where its batch
        # element is, and then equal to it
        w, T, g, wc, hbar, kB = (np.array(c) for c in zip(*systems))
        ab = alpha_arrays(SystemParams(omega0=w, T=T, gamma=g, omega_c=wc, hbar=hbar, kB=kB))
        for i, system in enumerate(systems):
            got = (ab.alpha[i], ab.alpha_prime[i])
            want = alpha_pair(_one(system, False))
            want = (want.alpha, want.alpha_prime)
            assert [math.isfinite(v) for v in got] == [math.isfinite(v) for v in want], i
            assert [_bits(v) for v in got if math.isfinite(v)] == [
                _bits(v) for v in want if math.isfinite(v)]
            assert (ab.residual_imag[i] == 0.0) == all(math.isfinite(v) for v in got)


def _mp_closed_forms(mp, w, T, g, wc):
    """alpha, alpha' and Delta/(hbar gamma)^2 from the three-bracket closed
    forms at 30 significant digits (hbar = kB = M = 1).  Critical damping is
    the removable singularity of the forms; it is taken at a 1e-20 offset,
    whose error is of that order."""
    with mp.workdps(60):
        w, T, g = mp.mpf(w), mp.mpf(T), mp.mpf(g)
        if w == g:
            w = w * (1 + mp.mpf("1e-20"))
        s = 1 / (2 * T)

        def bracket(lam):
            z = lam * s
            x = z * mp.coth(z) if z != 0 else mp.mpf(1)
            d = 0 if math.isinf(wc) else (lam / wc) ** 2
            return x / (1 + d) - 1

        Om = mp.sqrt(mp.mpc(g * g - w * w))
        l1, l2 = -g + Om, -g - Om
        d2 = (l2 - l1) ** 2
        if w == 0:
            alpha, alpha_p = mp.mpf(1), bracket(l2) / d2
        else:
            b1, bm, b2 = bracket(l1), bracket(w), bracket(l2)
            alpha = 1 + w ** 4 / d2 * (b1 / l1 ** 2 - 2 * bm / w ** 2 + b2 / l2 ** 2)
            alpha_p = (b1 - 2 * bm + b2) / d2
        alpha, alpha_p = mp.re(alpha), mp.re(alpha_p)
        delta = 4 * T * T * g * g * alpha * alpha_p - g * g / 4
        return float(alpha), float(alpha_p), float(delta)


class TestHighPrecisionReference:
    """The kernel, as a batch and as one-system calls, against a 30-digit
    evaluation of the closed forms: under-, over- and critically damped,
    omega0 = 0, finite cutoff, and kB*T/(hbar*gamma) from 1e-3 to 1e3."""

    def test_pinned_constants(self):
        mp = pytest.importorskip("mpmath")
        a_ref, ap_ref, _ = _mp_closed_forms(mp, 2.0, 1.0, 1.0, math.inf)
        assert PINNED_ALPHA == pytest.approx(a_ref, rel=1e-15)
        assert PINNED_ALPHA_PRIME == pytest.approx(ap_ref, rel=1e-15)

    def test_grid(self):
        mp = pytest.importorskip("mpmath")
        g = 1.3
        omegas = [0.0, 1e-3, 0.4, g, 2.5, 20.0]
        cutoffs = [math.inf, 60.0]
        Ts = np.geomspace(1e-3, 1e3, 7)
        W, WC, TT = (a.ravel() for a in np.meshgrid(omegas, cutoffs, Ts, indexing="ij"))
        p = SystemParams(omega0=W, T=TT, gamma=g, omega_c=WC)
        d = diffusion_constants(p)
        delta = positivity_delta(d).delta
        for i in range(W.size):
            a_ref, ap_ref, delta_ref = _mp_closed_forms(mp, W[i], TT[i], g, WC[i])
            # at critical damping the two-sided nudge amplifies the brackets'
            # rounding by its second difference.  On this grid the worst error
            # is 4.5e-7 (alpha' at kB*T ~ 10 hbar*gamma, omega_c = 60); between
            # its temperatures it reaches 1.2e-4 in alpha' and 1.7e-4 in Delta
            # (kB*T ~ 43 hbar*gamma, on a 25-point grid); see ROADMAP item 2
            tol = 2e-6 if W[i] == g else 1e-10
            one = SystemParams(omega0=float(W[i]), T=float(TT[i]), gamma=g, omega_c=float(WC[i]))
            ab = alpha_pair(one)
            for a, ap in ((d.source.alpha[i], d.source.alpha_prime[i]),
                          (ab.alpha, ab.alpha_prime)):
                assert a == pytest.approx(a_ref, rel=tol), i
                assert ap == pytest.approx(ap_ref, rel=tol), i
            # Delta is a difference of terms of size hbar^2 gamma^2/4 and up
            scale = max(abs(delta_ref), g * g / 4)
            for got in (delta[i], positivity_delta(diffusion_constants(one)).delta):
                assert abs(got - delta_ref) <= tol * scale, i
