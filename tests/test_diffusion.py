"""Diffusion constants, the positivity functional, and the breakdown solver."""

import logging
import math
import statistics
import time

import numpy as np
import pytest

from qbrown.coefficients import alpha_prime_free
from qbrown.core import BracketError, SystemParams, TemperatureError
from qbrown.diffusion import (
    DiffusionConstants,
    breakdown_temperature,
    diffusion_constants,
    high_t_diffusion,
    positivity_delta,
    tc_curve,
)
from qbrown.selftest import PINNED_TC_RATIO_1

# 40-digit bisection of Delta(T) = 0 on the closed forms (PINNED_TC_RATIO_1
# is the one at omega0/gamma = 1, critical damping)
TC_SMALL_RATIO = 0.41677833375366017   # omega0/gamma = 1e-3
TC_FREE = 0.41677827980048235          # x coth x - 1 - x^2/4 = 0 root


def params(omega0, T, **kw):
    return SystemParams(omega0=omega0, T=T, **kw)


class TestDiffusionConstants:
    def test_algebraic_ties_bit_for_bit(self):
        p = params(2.0, 1.3)
        d = diffusion_constants(p)
        a, ap = d.source.alpha, d.source.alpha_prime
        kT, g = p.kB * p.T, p.gamma
        assert d.Dpq == 4.0 * kT * g * g * ap
        assert d.Dqq == 2.0 * kT * g * ap / p.M
        assert d.Dpp == 2.0 * kT * p.M * g * (a + 4.0 * g * g * ap)

    def test_high_t_anchors(self):
        # Dpp/(2 kB T M gamma) = 1 + hbar^2 gamma^2/(3 kB^2 T^2) etc. at kT = 100
        p = params(1.0, 100.0)
        d = diffusion_constants(p)
        assert d.Dpp / (2.0 * 100.0) == pytest.approx(1.0 + 1.0 / (3.0 * 100.0 ** 2), rel=1e-3)
        assert d.Dqq == pytest.approx(1.0 / (6.0 * 100.0), rel=1e-3)
        assert d.Dpq == pytest.approx(1.0 / (3.0 * 100.0), rel=1e-3)

    def test_free_particle_constants(self):
        # omega0 = 1e-8 gamma reproduces the vanishing-frequency closed set
        gamma, T = 1.0, 0.8
        d = diffusion_constants(SystemParams(omega0=1e-8, T=T, gamma=gamma))
        ap0 = alpha_prime_free(gamma, T)
        assert d.Dqq == pytest.approx(2.0 * T * gamma * ap0, rel=1e-6)
        assert d.Dpq == pytest.approx(4.0 * gamma ** 2 * T * ap0, rel=1e-6)
        assert d.Dpp == pytest.approx(2.0 * T * gamma * (1.0 + 4.0 * gamma ** 2 * ap0), rel=1e-6)

    def test_positive_for_positive_t(self):
        for T in (0.1, 1.0, 10.0):
            for w0 in (0.2, 1.0, 5.0):
                d = diffusion_constants(params(w0, T))
                assert d.Dpp > 0.0
                assert d.Dqq >= 0.0

    def test_ratio_reproducible_from_alphas(self):
        # Dpq^2/(Dqq*Dpp) = 4 gamma^2 a'/(a + 4 gamma^2 a') exactly
        p = params(0.6, 2.4, gamma=1.7)
        d = diffusion_constants(p)
        a, ap = d.source.alpha, d.source.alpha_prime
        got = d.Dpq ** 2 / (d.Dqq * d.Dpp)
        want = 4.0 * p.gamma ** 2 * ap / (a + 4.0 * p.gamma ** 2 * ap)
        assert got == pytest.approx(want, rel=1e-12)


class TestHighTDiffusion:
    def test_exact_by_construction(self):
        p = params(3.0, 7.0)
        h = high_t_diffusion(p)
        assert h.Dpp / (2.0 * 7.0) - 1.0 == pytest.approx(1.0 / (3.0 * 49.0), rel=1e-14)
        assert h.Dqq == 1.0 / (6.0 * 7.0)
        assert h.Dpq == 1.0 / (3.0 * 7.0)

    def test_matches_full_at_50(self):
        p = params(1.0, 50.0)
        d, h = diffusion_constants(p), high_t_diffusion(p)
        for a, b in ((d.Dpp, h.Dpp), (d.Dqq, h.Dqq), (d.Dpq, h.Dpq)):
            assert abs(a / b - 1.0) < 0.01

    def test_independent_of_omega0(self):
        h1 = high_t_diffusion(params(10.0, 42.0))
        h2 = high_t_diffusion(params(0.1, 42.0))
        assert (h1.Dpp, h1.Dqq, h1.Dpq) == (h2.Dpp, h2.Dqq, h2.Dpq)

    def test_batch_matches_scalar_calls(self):
        T, M, g = np.array([0.5, 7.0, 42.0]), np.array([1.0, 2.0, 0.3]), np.array([1.0, 0.4, 3.0])
        h = high_t_diffusion(SystemParams(omega0=1.0, T=T, M=M, gamma=g, hbar=2.0))
        for i in range(3):
            one = high_t_diffusion(SystemParams(omega0=1.0, T=float(T[i]), M=float(M[i]),
                                                gamma=float(g[i]), hbar=2.0))
            assert (h.Dpp[i], h.Dqq[i], h.Dpq[i]) == (one.Dpp, one.Dqq, one.Dpq)
        with pytest.raises(TemperatureError):
            high_t_diffusion(params(1.0, np.array([1.0, 0.0])))


class TestPositivityDelta:
    def test_high_t_constant(self):
        # Delta -> hbar^2 gamma^2/12
        rep = positivity_delta(diffusion_constants(params(1.0, 100.0)))
        assert rep.delta == pytest.approx(1.0 / 12.0, rel=0.02)
        assert rep.positive

    def test_negative_below_tc(self):
        tc = breakdown_temperature(0.5)
        rep = positivity_delta(diffusion_constants(params(0.5, 0.9 * tc)))
        assert rep.delta < 0.0 and not rep.positive

    def test_anomalous_constants_are_essential(self):
        # zeroing Dqq, Dpq leaves Delta = -hbar^2 gamma^2/4 < 0 at any T
        for T in (1.0, 100.0, 1e4):
            p = params(1.0, T)
            d = DiffusionConstants(Dpp=2.0 * p.M * p.gamma * p.kB * T, Dqq=0.0, Dpq=0.0,
                                   source=None, params=p)
            rep = positivity_delta(d)
            assert rep.delta == pytest.approx(-0.25, rel=1e-12)

    def test_matches_alpha_identity(self):
        # Delta = 4 kB^2 T^2 gamma^2 a a' - hbar^2 gamma^2/4
        p = params(0.7, 2.2, gamma=1.4)
        d = diffusion_constants(p)
        a, ap = d.source.alpha, d.source.alpha_prime
        want = 4.0 * (p.T * p.gamma) ** 2 * a * ap - 0.25 * p.gamma ** 2
        assert positivity_delta(d).delta == pytest.approx(want, rel=1e-10)

    def test_scalar_path_matches_batch(self):
        # one system is evaluated in Python floats, a batch in numpy; both
        # sides of the 1e6 factoring threshold give the same bits.  Elements
        # 2 (only Dpq^2 large) and 3 (both terms large) round differently on
        # the two sides of the threshold
        Dpp = np.array([0.5, 3.0, 3.3, 1.7e3, 1e-4])
        Dqq = np.array([0.6, 0.1, 0.77, 3.1e3, 1e5])
        Dpq = np.array([0.1, -0.4, 2345.678, 1.1e3, 1e2])
        hbar = np.array([1.0, 0.3, 1.3, 0.9, 5.0])
        batch = positivity_delta(DiffusionConstants(
            Dpp, Dqq, Dpq, params=SystemParams(omega0=1.0, T=1.0, hbar=hbar)))
        for i in range(5):
            one = positivity_delta(DiffusionConstants(
                float(Dpp[i]), float(Dqq[i]), float(Dpq[i]),
                params=SystemParams(omega0=1.0, T=1.0, hbar=float(hbar[i]))))
            assert type(one.delta) is float
            assert (one.delta, one.positive) == (batch.delta[i], batch.positive[i])

    def test_single_system_cost(self):
        # one system runs in Python floats, ~15 us a chain on a 2-core host;
        # the array kernel costs ~450 us for one system, so 100 us catches a
        # return to it even in the host's slow phase
        def per_call():
            t0 = time.process_time()
            for _ in range(200):
                positivity_delta(diffusion_constants(SystemParams(omega0=0.3, T=0.5)))
            return (time.process_time() - t0) / 200

        assert statistics.median(per_call() for _ in range(5)) < 100e-6

    def test_scale_covariance(self):
        # hbar -> s*hbar with T -> s*T leaves Delta/(hbar*gamma)^2 invariant
        base = positivity_delta(diffusion_constants(params(0.8, 1.7)))
        s = 3.7
        scaled = positivity_delta(diffusion_constants(
            SystemParams(omega0=0.8, T=s * 1.7, gamma=1.0, hbar=s)))
        assert scaled.delta / s ** 2 == pytest.approx(base.delta, rel=1e-12)

    def test_limit_at_extreme_t(self):
        rep = positivity_delta(diffusion_constants(params(1.3, 1e3)))
        assert abs(rep.delta * 12.0 - 1.0) < 1e-3


def brute_force_tc(ratio, n_grid=10_000):
    """Independent oracle: locate the sign change of Delta on a dense log grid
    (the grid is one batched Delta evaluation; the search is its own)."""
    thetas = np.geomspace(1e-3, 1e3, n_grid)
    rep = positivity_delta(diffusion_constants(params(ratio, thetas)))
    prev_sign = None
    crossings = []
    for th, sign in zip(thetas.tolist(), (rep.delta > 0.0).tolist()):
        if prev_sign is not None and sign != prev_sign:
            crossings.append(th)
        prev_sign = sign
    assert len(crossings) == 1
    return crossings[0]


class TestBreakdownTemperature:
    def test_small_ratio_anchor(self):
        # "of the order of 0.4" at vanishing frequency
        tc = breakdown_temperature(1e-3)
        assert tc == pytest.approx(0.4, abs=0.05)
        assert tc == pytest.approx(TC_SMALL_RATIO, rel=1e-9)

    def test_agrees_with_free_particle_solver(self):
        # free-particle positivity: Delta = 4 kB^2 T^2 gamma^2 a'_0 - 1/4
        lo, hi = 0.1, 10.0
        f = lambda T: 4.0 * T * T * alpha_prime_free(1.0, T) - 0.25
        assert f(lo) < 0 < f(hi)
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if f(mid) < 0:
                lo = mid
            else:
                hi = mid
        tc_free = math.sqrt(lo * hi)
        assert tc_free == pytest.approx(TC_FREE, rel=1e-12)
        assert breakdown_temperature(1e-3) == pytest.approx(tc_free, abs=1e-4)

    def test_ratio_one_vs_brute_force(self):
        got = breakdown_temperature(1.0)
        grid = brute_force_tc(1.0)
        assert abs(got - grid) < grid * 2.0 * math.log(1e6) / 10_000  # one grid cell
        assert got == pytest.approx(PINNED_TC_RATIO_1, rel=1e-9)

    def test_single_sign_change_across_ratios(self):
        for ratio in (1e-3, 1e-2, 1e-1, 1.0, 10.0):
            brute_force_tc(ratio, n_grid=2000)

    def test_no_sign_change_raises_with_scan(self):
        with pytest.raises(BracketError) as err:
            breakdown_temperature(1.0, bracket=(10.0, 1000.0))
        assert len(err.value.scan) == 200
        assert all(d > 0 for _, d in err.value.scan)

    def test_deterministic_under_precision_doubling(self):
        a = breakdown_temperature(0.3, rtol=1e-10)
        b = breakdown_temperature(0.3, rtol=1e-12)
        assert abs(a - b) <= 1e-8 * a


class TestTcCurve:
    def test_endpoints_and_continuity(self):
        pts = tc_curve(1e-3, 1e2, 60)
        assert pts[0][1] == pytest.approx(0.4, abs=0.05)
        ratios = [r for r, _ in pts]
        assert ratios == sorted(ratios)
        tcs = np.array([t for _, t in pts])
        assert np.all(np.abs(np.diff(tcs) / tcs[:-1]) < 0.30)  # 60-point grid

    def test_dense_grid_smoothness(self):
        # at large omega0/gamma the curve is proportional to omega0, so the
        # step ratio can never drop below the abscissa ratio: 200 points over
        # 4 decades (4.7%) and 300 over 5 decades (3.9%) keep 5% attainable
        pts = tc_curve(1e-3, 1e1, 200)
        tcs = np.array([t for _, t in pts])
        assert np.all(np.abs(np.diff(tcs) / tcs[:-1]) < 0.05)
        pts = tc_curve(1e-3, 1e2, 300)
        tcs = np.array([t for _, t in pts])
        assert np.all(np.abs(np.diff(tcs) / tcs[:-1]) < 0.05)

    def test_matches_single_ratio_solves(self):
        # the lockstep solve gives every ratio the T_c of its own solve, bit for bit
        pts = tc_curve(1e-2, 1e1, 8)
        ratios = np.geomspace(1e-2, 1e1, 8)
        assert [r for r, _ in pts] == ratios.tolist()
        assert [tc for _, tc in pts] == [breakdown_temperature(float(r)) for r in ratios]


class TestBatchedSolver:
    def test_array_in_array_out(self):
        ratios = np.array([[1e-3, 1.0], [0.3, 10.0]])
        tcs = breakdown_temperature(ratios)
        assert tcs.shape == (2, 2)
        assert tcs[0, 0] == pytest.approx(TC_SMALL_RATIO, rel=1e-9)
        assert tcs[0, 1] == pytest.approx(PINNED_TC_RATIO_1, rel=1e-9)
        assert type(breakdown_temperature(0.3)) is float
        assert tcs[1, 0] == breakdown_temperature(0.3)

    def test_bracket_error_names_the_failing_ratio(self):
        # T_c(1e-3) ~ 0.42 lies below the bracket, T_c(10) inside it
        with pytest.raises(BracketError) as err:
            breakdown_temperature(np.array([10.0, 1e-3]), bracket=(1.0, 1000.0))
        assert "omega0/gamma=0.001" in str(err.value)
        assert len(err.value.scan) == 200
        assert all(d > 0 for _, d in err.value.scan)

    def test_exact_zero_ends_only_that_ratios_search(self):
        # at this ratio a bisection midpoint has Delta == 0.0 exactly: the
        # midpoint is returned, while the other ratios keep bisecting
        r = 0.10215730584122548
        tc = breakdown_temperature(r)
        assert positivity_delta(diffusion_constants(params(r, tc))).delta == 0.0
        batch = breakdown_temperature(np.array([0.1, r, 0.11]))
        assert batch.tolist() == [breakdown_temperature(0.1), tc, breakdown_temperature(0.11)]

    def test_rejects_non_finite_ratio(self):
        for bad in (math.inf, math.nan, 0.0):
            with pytest.raises(ValueError):
                breakdown_temperature(np.array([0.5, bad]))

    def test_debug_log(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="qbrown.diffusion"):
            breakdown_temperature(np.array([0.5, 1.0]))
        (rec,) = [r for r in caplog.records if r.name == "qbrown.diffusion"]
        msg = rec.getMessage()
        assert "T_c of 2 ratios" in msg and "scan crossing index" in msg
        assert "bisection iterations" in msg
        # only omega0/gamma = 1 is critical: its 200 scan points and every
        # lockstep iteration went through the nudge
        lockstep = int(msg.split(" in lockstep")[0].split("(")[-1])
        assert lockstep > 20
        assert f"{200 + lockstep} critical-nudged elements" in msg
