"""Second-moment dynamics: exact solution vs RK4 and mpmath, equilibrium, free particle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbrown.coefficients import alpha_pair, alpha_prime_free
from qbrown.core import NoEquilibriumError, StepSizeError, SystemParams
from qbrown.diffusion import diffusion_constants
from qbrown.dynamics import (
    MomentState,
    analytic_coefficients,
    analytic_solution,
    c2_closed_form,
    equilibrium_moments,
    evolve_numeric,
    free_particle_longtime,
    moment_derivative,
)

REGIME_PARAMS = [
    SystemParams(omega0=10.0, T=1.0),            # strongly underdamped
    SystemParams(omega0=2.0, T=0.5),             # underdamped
    SystemParams(omega0=1.0 * (1 + 1e-5), T=1.0),  # just under critical
    SystemParams(omega0=1.0 * (1 - 1e-5), T=1.0),  # just over critical
    SystemParams(omega0=1.0, T=10.0),            # critical
    SystemParams(omega0=0.5, T=1.0),             # overdamped
]


def numpy_rk4(s0, p, d, t_end, dt, stride):
    """The RK4 integrator on 3-element numpy arrays that the float stepping
    replaced, kept as its reference."""
    A = np.array([
        [0.0, 0.0, 1.0 / p.M],
        [0.0, -4.0 * p.gamma, -p.M * p.omega0 ** 2],
        [-2.0 * p.M * p.omega0 ** 2, 2.0 / p.M, -2.0 * p.gamma],
    ])
    b = np.array([2.0 * d.Dqq, 2.0 * d.Dpp, -4.0 * d.Dpq])

    def rhs(y):
        return A @ y + b

    n_steps = max(1, int(round(t_end / dt)))
    y = np.array([s0.q2, s0.p2, s0.qp])
    ts, ys = [0.0], [y.copy()]
    for k in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (k + 1) % stride == 0 or k == n_steps - 1:
            ts.append((k + 1) * dt)
            ys.append(y.copy())
    return np.array(ts), np.array(ys)


def setup(p):
    d = diffusion_constants(p)
    eq = equilibrium_moments(p, d)
    s0 = MomentState(1.6 * eq.q2, 0.7 * eq.p2, eq.qp + 0.25 * math.sqrt(eq.q2 * eq.p2))
    return d, eq, s0


class TestMomentDerivative:
    def test_equilibrium_is_stationary(self):
        for p in REGIME_PARAMS:
            d = diffusion_constants(p)
            eq = equilibrium_moments(p, d)
            der = moment_derivative(eq, p, d)
            scale = max(abs(eq.q2), abs(eq.p2), abs(eq.qp), d.Dpp)
            assert max(abs(x) for x in der) < 1e-10 * scale

    def test_free_particle_q2_rate(self):
        # omega0 = 0 with qp = 0: d<q^2>/dt = 2 Dqq exactly
        p = SystemParams(omega0=1e-8, T=1.0)
        d = diffusion_constants(p)
        der = moment_derivative(MomentState(1.0, 1.0, 0.0), p, d)
        assert der[0] == 2.0 * d.Dqq

    def test_matches_finite_difference_of_integrator(self):
        # centered difference of the RK4 trajectory reproduces the derivative
        p = SystemParams(omega0=2.0, T=1.5)
        d, _, s0 = setup(p)
        dt = 1e-3
        traj = evolve_numeric(s0, p, d, 10 * dt, dt, stride=1)
        der = moment_derivative(traj.state(5), p, d)
        for got, series in zip(der, (traj.q2, traj.p2, traj.qp)):
            fd = (series[6] - series[4]) / (2.0 * dt)
            assert got == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestEvolveNumeric:
    def test_step_size_rejected(self):
        p = SystemParams(omega0=5.0, T=1.0)
        d = diffusion_constants(p)
        with pytest.raises(StepSizeError):
            evolve_numeric(MomentState(1, 1, 0), p, d, 1.0, dt=0.5 / 5.0)

    def test_equilibrium_stays_put_100_damping_times(self):
        p = SystemParams(omega0=2.0, T=1.0)
        d = diffusion_constants(p)
        eq = equilibrium_moments(p, d)
        traj = evolve_numeric(eq, p, d, 100.0, dt=0.005, stride=2000)
        for i in range(len(traj)):
            assert traj.q2[i] == pytest.approx(eq.q2, rel=1e-8)
            assert traj.p2[i] == pytest.approx(eq.p2, rel=1e-8)
            assert traj.qp[i] == pytest.approx(eq.qp, abs=1e-8 * max(abs(eq.qp), eq.q2))

    def test_converges_to_equilibrium(self):
        for p in (SystemParams(omega0=2.0, T=1.0), SystemParams(omega0=0.4, T=2.0)):
            d, eq, s0 = setup(p)
            eig_rate = 2.0 * p.gamma if p.omega0 >= p.gamma else \
                2.0 * (p.gamma - math.sqrt(p.gamma ** 2 - p.omega0 ** 2))
            t_end = 20.0 / min(eig_rate, 2.0 * p.gamma)
            dt = 0.009 / max(p.gamma, p.omega0)
            final = evolve_numeric(s0, p, d, t_end, dt, stride=10 ** 9).final
            scale = max(eq.q2, eq.p2)
            assert abs(final.q2 - eq.q2) < 1e-6 * scale
            assert abs(final.p2 - eq.p2) < 1e-6 * scale
            assert abs(final.qp - eq.qp) < 1e-6 * scale

    def test_fourth_order_richardson_ratio(self):
        p = SystemParams(omega0=2.0, T=1.0)
        d, _, s0 = setup(p)
        t = 2.0
        exact = analytic_solution(s0, p, d, t)

        def err(dt):
            f = evolve_numeric(s0, p, d, t, dt, stride=10 ** 9).final
            return math.sqrt((f.q2 - exact.q2) ** 2 + (f.p2 - exact.p2) ** 2
                             + (f.qp - exact.qp) ** 2)

        ratio = err(0.004) / err(0.002)
        assert 14.0 <= ratio <= 18.0

    def test_float_stepping_matches_numpy_reference(self):
        # the CLI's default moments run (critical damping, 2000 steps, every
        # 10th sampled) and an underdamped one with a correlated start
        for p, s0 in ((SystemParams(omega0=1.0, T=1.0), MomentState(1.0, 1.0, 0.0)),
                      (SystemParams(omega0=2.2, T=0.7), MomentState(1.5, 0.8, -0.05))):
            d = diffusion_constants(p)
            traj = evolve_numeric(s0, p, d, 10.0, 0.005 / max(p.gamma, p.omega0), stride=10)
            ts, ref = numpy_rk4(s0, p, d, 10.0, 0.005 / max(p.gamma, p.omega0), 10)
            assert traj.t.tolist() == ts.tolist()
            got = np.stack([traj.q2, traj.p2, traj.qp], axis=1)
            scale = np.abs(ref).max(axis=1, keepdims=True)
            assert np.all(np.abs(got - ref) <= 1e-14 * scale)

    def test_fixed_point_unique_from_20_starts(self):
        p = SystemParams(omega0=1.3, T=0.8)
        d = diffusion_constants(p)
        eq = equilibrium_moments(p, d)
        finals = []
        for i in range(20):
            # deterministic spread of physical initial states
            f1 = 0.3 + 0.2 * i
            f2 = 2.5 - 0.1 * i
            s0 = MomentState(f1 * eq.q2, f2 * eq.p2, (i - 10) * 0.05 * abs(eq.qp))
            finals.append(evolve_numeric(s0, p, d, 25.0, 0.0075, stride=10 ** 9).final)
        scale = max(eq.q2, eq.p2)
        for f in finals:
            for g in finals:
                assert abs(f.q2 - g.q2) < 1e-6 * scale
                assert abs(f.p2 - g.p2) < 1e-6 * scale
                assert abs(f.qp - g.qp) < 1e-6 * scale


class TestAnalyticSolution:
    def test_t0_reproduces_initial(self):
        for p in REGIME_PARAMS + [SystemParams(omega0=0.0, T=1.0)]:
            d = diffusion_constants(p)
            s0 = MomentState(1.3, 0.9, -0.2)
            got = analytic_solution(s0, p, d, 0.0)
            assert (got.q2, got.p2, got.qp) == (s0.q2, s0.p2, s0.qp)

    def test_long_time_is_equilibrium(self):
        for p in REGIME_PARAMS:
            d, eq, s0 = setup(p)
            got = analytic_solution(s0, p, d, 200.0 / p.gamma)
            assert got.q2 == pytest.approx(eq.q2, rel=1e-9)
            assert got.p2 == pytest.approx(eq.p2, rel=1e-9)

    def test_matches_integrator_across_regimes(self):
        # acceptance-grade: max relative gap < 1e-6 at 100 sampled times
        for p in REGIME_PARAMS:
            d, eq, s0 = setup(p)
            dt = 0.002 / max(p.gamma, p.omega0)
            t_end = 5.0 / p.gamma
            n = int(round(t_end / dt))
            traj = evolve_numeric(s0, p, d, t_end, dt, stride=max(1, n // 100))
            scale = max(eq.q2, eq.p2, s0.q2, s0.p2)
            # one solve for every sample time equals a solve per time
            batch = analytic_solution(s0, p, d, traj.t)
            assert batch.t.tolist() == traj.t.tolist()
            for i in range(len(traj)):
                a = analytic_solution(s0, p, d, float(traj.t[i]))
                assert abs(traj.q2[i] - a.q2) < 1e-6 * scale
                assert abs(traj.p2[i] - a.p2) < 1e-6 * scale
                assert abs(traj.qp[i] - a.qp) < 1e-6 * scale
                for got, want in ((batch.q2[i], a.q2), (batch.p2[i], a.p2), (batch.qp[i], a.qp)):
                    assert abs(got - want) <= 1e-15 * abs(want)

    def test_underdamped_outputs_real(self):
        p = SystemParams(omega0=7.0, T=0.6)
        d, eq, s0 = setup(p)
        co = analytic_coefficients(s0, p, d)
        # reconstruct the full complex solution and inspect the residue
        from qbrown.dynamics import _mode_matrix
        V, rates = _mode_matrix(p, co.Omega)
        C = np.array([co.C1, co.C2, co.C3])
        for t in (0.1, 1.0, 5.0):
            vec = np.array([co.equilibrium.q2, co.equilibrium.p2, co.equilibrium.qp],
                           dtype=complex) + V @ (C * np.exp(rates * t))
            assert np.max(np.abs(vec.imag)) < 1e-9 * max(eq.q2, eq.p2)


ORACLE_OMEGA0 = [0.0, 1e-8, 1e-3, 0.3, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-8, 1.0 + 1e-5,
                 2.0, 20.0]
ORACLE_TIMES = [0.0, 1e-3, 1e-2, 0.1, 0.5, 1.0, 3.0, 10.0, 100.0, 1e3, 1e4]


def expm_moments(s0, p, d, ts):
    """(q2, p2, qp) rows from a 50-digit mpmath expm of the augmented 4x4
    system (y, 1)' = [[A, b], [0, 0]] (y, 1): no modes, no limits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        M, g, w = (mp.mpf(x) for x in (p.M, p.gamma, p.omega0))
        aug = mp.matrix([[0, 0, 1 / M, 2 * mp.mpf(d.Dqq)],
                         [0, -4 * g, -M * w * w, 2 * mp.mpf(d.Dpp)],
                         [-2 * M * w * w, 2 / M, -2 * g, -4 * mp.mpf(d.Dpq)],
                         [0, 0, 0, 0]])
        y0 = mp.matrix([s0.q2, s0.p2, s0.qp, 1])
        return np.array([[float(x) for x in (mp.expm(aug * mp.mpf(t)) * y0)[:3]]
                         for t in ts])


class TestExpmOracle:
    @pytest.mark.parametrize("T", [0.7, 3.0])
    def test_grid_against_mpmath(self, T):
        # every regime, critical damping and omega0 = 0 included, to t = 1e4/gamma
        s0 = MomentState(1.3, 0.9, -0.2)
        ts = np.array(ORACLE_TIMES)
        for w in ORACLE_OMEGA0:
            p = SystemParams(omega0=w, T=T)
            d = diffusion_constants(p)
            got = analytic_solution(s0, p, d, ts)
            y = np.stack([got.q2, got.p2, got.qp], axis=1)
            assert y.dtype == float and np.all(np.isfinite(y))
            ref = expm_moments(s0, p, d, ts)
            err = np.abs(y - ref).max(axis=1) / np.abs(ref).max(axis=1)
            assert err.max() <= 1e-13, (w, ts[err.argmax()], err.max())

    def test_no_linear_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("analytic_solution called np.linalg.solve")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        for w in (0.0, 1.0, 3.0):
            p = SystemParams(omega0=w, T=1.0)
            analytic_solution(MomentState(1.0, 1.0, 0.0), p, diffusion_constants(p),
                              np.array([0.5, 1e4]))


class TestC2ClosedForm:
    def test_thousand_instances(self):
        # parameter/initial-state grid, Omega bounded away from zero
        gammas = np.array([0.31, 0.72, 1.21, 2.6, 5.1])
        ratios = np.array([0.25, 0.55, 1.45, 3.2])   # omega0/gamma
        Ts = np.array([0.4, 1.1, 3.0, 9.0, 27.0])
        states = [(1.3, 0.8, -0.4), (0.6, 2.0, 0.5), (2.2, 0.3, 0.0),
                  (0.9, 0.9, 0.9), (3.1, 1.7, -1.0), (0.2, 4.0, 0.3),
                  (1.0, 1.0, -0.2), (5.0, 0.6, 1.1), (0.45, 2.8, -0.7),
                  (1.8, 1.2, 0.8)]
        count = 0
        for g in gammas:
            for r in ratios:
                for T in Ts:
                    p = SystemParams(omega0=float(g * r), T=float(T), gamma=float(g))
                    d = diffusion_constants(p)
                    for q20, p20, qp0 in states:
                        s0 = MomentState(q20, p20, qp0)
                        co = analytic_coefficients(s0, p, d)
                        ref = c2_closed_form(s0, p, d)
                        assert co.c2_reference == ref
                        assert abs(co.C2 - ref) <= 1e-8 * max(abs(ref), 1e-12)
                        count += 1
        assert count == 1000

    @given(gamma=st.floats(0.2, 5.0), ratio=st.floats(0.1, 0.9), T=st.floats(0.3, 30.0),
           q20=st.floats(0.1, 3.0), p20=st.floats(0.1, 3.0), qp0=st.floats(-1.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_property_overdamped(self, gamma, ratio, T, q20, p20, qp0):
        p = SystemParams(omega0=gamma * ratio, T=T, gamma=gamma)
        d = diffusion_constants(p)
        co = analytic_coefficients(MomentState(q20, p20, qp0), p, d)
        assert abs(co.C2 - co.c2_reference) <= 1e-8 * max(abs(co.c2_reference), 1e-12)


class TestEquilibrium:
    def test_equipartition(self):
        # kB T = 100 hbar omega0, gamma = 0.01 omega0: each energy = kB T/2 to 1%
        p = SystemParams(omega0=1.0, T=100.0, gamma=0.01)
        eq = equilibrium_moments(p, diffusion_constants(p))
        kinetic = eq.p2 / (2.0 * p.M)
        potential = 0.5 * p.M * p.omega0 ** 2 * eq.q2
        assert kinetic == pytest.approx(50.0, rel=0.01)
        assert potential == pytest.approx(50.0, rel=0.01)

    def test_free_particle_has_no_equilibrium(self):
        p = SystemParams(omega0=1e-8, T=1.0)
        d = diffusion_constants(p)
        with pytest.raises(NoEquilibriumError):
            equilibrium_moments(SystemParams(omega0=0.0, T=1.0), d)

    @given(ratios=st.lists(st.one_of(st.floats(1e-3, 0.9), st.floats(1.1, 30.0),
                                     st.floats(-1e-9, 1e-9).map(lambda u: 1.0 + u)),
                           min_size=1, max_size=5),
           g=st.floats(0.1, 10.0), Ts=st.lists(st.floats(0.05, 50.0), min_size=1, max_size=3),
           M=st.floats(0.2, 5.0), wc=st.one_of(st.just(math.inf), st.floats(5.0, 1e3)),
           as_numpy=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_scalar_calls(self, ratios, g, Ts, M, wc, as_numpy):
        # under-, over- and critically damped systems against temperatures;
        # each element equals the call for its one system, whose fields may
        # be np.float64 scalars
        omega0 = g * np.array(ratios)
        T = np.array(Ts)[:, None]
        p = SystemParams(omega0=omega0, T=T, gamma=g, M=M, omega_c=wc)
        eq = equilibrium_moments(p, diffusion_constants(p))
        assert eq.q2.shape == eq.p2.shape == eq.qp.shape == (len(Ts), len(ratios))
        num = np.float64 if as_numpy else float
        for i, j in np.ndindex(eq.q2.shape):
            one = SystemParams(omega0=num(omega0[j]), T=num(T[i, 0]), gamma=num(g), M=num(M),
                               omega_c=num(wc))
            want = equilibrium_moments(one, diffusion_constants(one))
            assert (eq.q2[i, j], eq.p2[i, j], eq.qp[i, j]) == (want.q2, want.p2, want.qp)

    def test_zero_omega0_in_batch_rejected(self):
        with pytest.raises(NoEquilibriumError):
            q = SystemParams(omega0=np.array([1.0, 0.0]), T=1.0)
            equilibrium_moments(q, diffusion_constants(q))

    def test_uncertainty_above_tc(self):
        # equilibrium states above breakdown respect u >= hbar^2/4
        from qbrown.diffusion import breakdown_temperature
        for ratio in (0.3, 1.0, 3.0):
            tc = breakdown_temperature(ratio)
            p = SystemParams(omega0=ratio, T=1.3 * tc)
            eq = equilibrium_moments(p, diffusion_constants(p))
            assert eq.uncertainty() >= 0.25 * (1.0 - 1e-9)


class TestFreeParticle:
    def test_p2_longtime_value(self):
        # M hbar gamma coth(hbar gamma/kB T) at hbar gamma/kB T = 1
        s0 = MomentState(1.0, 1.0, 0.0)
        got = free_particle_longtime(s0, 1.0, 1.0, t=80.0)
        assert got.p2 == pytest.approx(1.3130352854993313, rel=1e-14)

    def test_p2_classical_limit(self):
        # T -> inf: <p^2> -> M kB T
        s0 = MomentState(1.0, 1.0, 0.0)
        got = free_particle_longtime(s0, 1.0, 1e4, t=60.0)
        assert got.p2 == pytest.approx(1e4, rel=1e-4)

    def test_q2_diffusive_slope(self):
        s0 = MomentState(1.0, 1.0, 0.0)
        ts = np.linspace(50.0, 100.0, 11)
        q2s = [free_particle_longtime(s0, 1.0, 1.0, float(t)).q2 for t in ts]
        # an array of times gives the per-time values
        batch = free_particle_longtime(s0, 1.0, 1.0, ts)
        assert batch.t.tolist() == ts.tolist()
        for got, want in zip(batch.q2, q2s):
            assert abs(got - want) <= 1e-15 * abs(want)
        slope = np.polyfit(ts, q2s, 1)[0]
        assert slope == pytest.approx(1.0, rel=1e-12)  # kB*T/(M*gamma)
        # late-time growth is genuinely linear
        r = np.corrcoef(ts, q2s)[0, 1]
        assert r ** 2 > 0.9999

    def test_units_carried(self):
        M, hbar, kB, gamma, T = 2.0, 3.0, 5.0, 0.7, 4.0
        s0 = MomentState(1.0, M * kB * T, 0.0)
        got = free_particle_longtime(s0, gamma, T, t=120.0 / gamma, M=M, hbar=hbar, kB=kB)
        x = hbar * gamma / (kB * T)
        assert got.p2 == pytest.approx(M * hbar * gamma / math.tanh(x), rel=1e-14)

