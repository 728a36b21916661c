"""Dissipation coefficients alpha, alpha' against limits and pinned values."""

import math

import numpy as np
import pytest

from qbrown.coefficients import (
    alpha_arrays,
    alpha_pair,
    alpha_prime_free,
    alpha_scalar,
)
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
            want = alpha_scalar(w[i], T[i], g[i], wc[i], hbar[i], kB[i])
            assert (ab.alpha[i], ab.alpha_prime[i], ab.residual_imag[i]) == want, i
            assert type(want[0]) is float

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
    """The batched kernel against a 30-digit evaluation of the closed forms:
    under-, over- and critically damped, omega0 = 0, finite cutoff, and
    kB*T/(hbar*gamma) from 1e-3 to 1e3."""

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
            # the two-sided nudge is accurate to ~1e-6 at critical damping: its
            # second difference of brackets amplifies their rounding, worst
            # (1.04e-6 in alpha') where kB*T ~ 10 hbar*gamma puts the coth
            # arguments just past the series radius
            tol = 2e-6 if W[i] == g else 1e-10
            assert d.source.alpha[i] == pytest.approx(a_ref, rel=tol), i
            assert d.source.alpha_prime[i] == pytest.approx(ap_ref, rel=tol), i
            # Delta is a difference of terms of size hbar^2 gamma^2/4 and up
            scale = max(abs(delta_ref), g * g / 4)
            assert abs(delta[i] - delta_ref) <= tol * scale, i

            one = SystemParams(omega0=float(W[i]), T=float(TT[i]), gamma=g, omega_c=float(WC[i]))
            ab = alpha_pair(one)
            assert (ab.alpha, ab.alpha_prime, ab.residual_imag) == (
                d.source.alpha[i], d.source.alpha_prime[i], d.source.residual_imag[i])
            assert positivity_delta(diffusion_constants(one)).delta == delta[i]
