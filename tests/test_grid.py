"""Grid evolution of the full master equation vs the moment ODEs."""

import io
import math
import warnings

import numpy as np
import pytest

from qbrown.core import StabilityError, StateError, SystemParams
from qbrown.diffusion import DiffusionConstants, diffusion_constants
from qbrown.dynamics import MomentState, analytic_solution, equilibrium_moments, evolve_numeric
from qbrown import grid
from qbrown.grid import (
    BoundaryMassWarning,
    DensityGrid,
    _BandOperator,
    _radius_bound,
    evolve,
    gaussian_error,
    gaussian_state,
    moments_from_grid,
    plan_steps,
    stable_dt,
    step,
    suggested_half_width,
)

P = SystemParams(omega0=2.0, T=2.0)
D = diffusion_constants(P)
EQ = equilibrium_moments(P, D)


def displaced():
    return MomentState(1.4 * EQ.q2, 0.75 * EQ.p2, EQ.qp)


class TestGaussianState:
    def test_zero_correlation_is_real_symmetric(self):
        g = gaussian_state(MomentState(1.0, 1.0, 0.0), N=64)
        assert np.abs(g.values.imag).max() == 0.0
        assert np.abs(g.values - g.values.T).max() < 1e-15

    def test_normalized_and_hermitian(self):
        g = gaussian_state(MomentState(0.8, 1.1, 0.4), N=128)
        assert g.trace() == pytest.approx(1.0, abs=1e-14)
        assert g.hermiticity_residual() < 1e-15

    def test_moment_roundtrip_at_default_resolution(self):
        m = displaced()
        g = gaussian_state(m, N=256)
        got = moments_from_grid(g)
        assert got.q2 == pytest.approx(m.q2, rel=1e-3)
        assert got.p2 == pytest.approx(m.p2, rel=1e-3)
        assert got.qp == pytest.approx(m.qp, rel=1e-2, abs=1e-3 * math.sqrt(m.q2 * m.p2))

    def test_purity_identity_for_pure_state(self):
        # tr(rho^2) dx = hbar/(2 sqrt(<q^2> p2c)); pure state has u = hbar^2/4
        q2 = 0.7
        qp = 0.3
        p2c = 0.25 / q2            # u = q2*p2 - (qp/2)^2 = hbar^2/4
        p2 = p2c + (qp / 2.0) ** 2 / q2
        m = MomentState(q2, p2, qp)
        assert m.uncertainty() == pytest.approx(0.25, rel=1e-12)
        g = gaussian_state(m, N=256)
        purity = float(np.sum(np.abs(g.values) ** 2) * g.dx * g.dx)
        assert purity == pytest.approx(1.0, rel=0.01)
        assert purity == pytest.approx(1.0 / (2.0 * math.sqrt(q2 * p2c)), rel=0.01)

    def test_rejects_uncertainty_violation(self):
        with pytest.raises(StateError):
            gaussian_state(MomentState(0.1, 0.1, 0.0), N=64)

    def test_rejects_small_box(self):
        with pytest.raises(StateError):
            gaussian_state(MomentState(1.0, 1.0, 0.0), N=64, L=4.0)

    def test_default_box_is_8_sigma(self):
        g = gaussian_state(MomentState(1.0, 1.0, 0.0), N=64)
        assert g.L == pytest.approx(8.0)


class TestStep:
    def test_rejects_large_dt(self):
        g = gaussian_state(displaced(), N=64)
        with pytest.raises(StabilityError):
            step(g, P, D, 10.0 * stable_dt(g, P, D))

    def test_single_step_advances_time(self):
        g = gaussian_state(displaced(), N=64)
        dt = stable_dt(g, P, D)
        g2 = step(g, P, D, dt)
        assert g2.t == pytest.approx(dt)
        assert g2 is not g and g2.values is not g.values

    def test_last_sample_is_stamped_t_end(self):
        # 11 steps of 0.1/11 add up to 0.10000000000000002
        g = gaussian_state(displaced(), N=64)
        assert 11 * (0.1 / 11) != 0.1
        final, samples = evolve(g, P, D, 0.1, dt=0.1 / 11, sample_every=5)
        assert [s["t"] for s in samples][-1] == final.t == 0.1
        assert len(samples) == 4

    def test_unitary_oscillator_limit(self):
        # no diffusion, negligible friction: <q^2> oscillates at 2*omega0 and
        # the uncertainty product stays put
        p = SystemParams(omega0=2.0, T=1.0, gamma=1e-12)
        d0 = DiffusionConstants(0.0, 0.0, 0.0, None, p)
        m = MomentState(0.5, 0.5, 0.0)   # u = 0.25: pure state, squeezed vs omega0=2
        g = gaussian_state(m, N=128, L=8.0)
        period = math.pi / p.omega0      # 2*omega0 oscillation
        _, samples = evolve(g, p, d0, 2.0 * period, sample_every=20)
        ode = [analytic_q2_unitary(m, p, s["t"]) for s in samples]
        for s, ref in zip(samples, ode):
            assert s["q2"] == pytest.approx(ref, rel=2e-3)
            u = s["q2"] * s["p2"] - (s["qp"] / 2.0) ** 2
            assert u == pytest.approx(0.25, rel=5e-3)
        # full period returns to the start
        assert samples[-1]["q2"] == pytest.approx(m.q2, rel=2e-3)

    def test_equilibrium_is_stationary_on_grid(self):
        g = gaussian_state(EQ, N=128, L=suggested_half_width(1.1 * EQ.q2, P, D, N=128))
        _, samples = evolve(g, P, D, 1.0, sample_every=200)
        for s in samples:
            assert s["q2"] == pytest.approx(EQ.q2, rel=0.01)
            assert s["p2"] == pytest.approx(EQ.p2, rel=0.01)

    def test_displaced_tracks_moment_odes(self):
        m = displaced()
        g = gaussian_state(m, N=128, L=8.0 * math.sqrt(1.45 * EQ.q2))
        _, samples = evolve(g, P, D, 1.5, sample_every=100)
        for s in samples:
            a = analytic_solution(m, P, D, s["t"])
            assert s["q2"] == pytest.approx(a.q2, rel=0.01)
            assert s["p2"] == pytest.approx(a.p2, rel=0.01)
            assert abs(s["qp"] - a.qp) < 0.01 * math.sqrt(a.q2 * a.p2)

    def test_trace_and_hermiticity_preserved(self):
        g = gaussian_state(displaced(), N=128, L=8.0 * math.sqrt(1.45 * EQ.q2))
        final, samples = evolve(g, P, D, 1.0, sample_every=100)
        for s in samples:
            assert abs(s["trace"] - 1.0) < 1e-6
            assert s["herm"] < 1e-9
        # above breakdown the diagonal is a probability density
        diag = np.diagonal(final.values)
        assert np.abs(diag.imag).max() < 1e-12
        assert diag.real.min() >= -1e-9

    def test_boundary_mass_warning(self):
        # a box barely wider than the state leaks into the clamped border
        m = MomentState(1.0, 1.0, 0.0)
        g = gaussian_state(m, N=96, L=8.0)
        tiny = DensityGrid(g.x * 0.55, g.values.copy(), 0.0)  # squeeze the box
        p = SystemParams(omega0=0.1, T=4.0)
        d = diffusion_constants(p)
        with pytest.warns(BoundaryMassWarning):
            evolve(tiny, p, d, 0.8)

    def test_transient_edge_mass_warns(self):
        # on a coarse grid the first steps push 3e-10 of the peak one ring
        # inside the box; by t = 3 it is back to 2e-11, so only a check
        # after every step sees it
        m = displaced()
        g = gaussian_state(m, N=32, L=7.13)
        with pytest.warns(BoundaryMassWarning, match="no longer fits the box"):
            evolve(g, P, D, 3.0, sample_every=10 ** 6)

    def test_too_narrow_band_warns(self, monkeypatch):
        # a hot state relaxing in a cold bath: its coherence length grows, so
        # a band sized for the initial state alone leaks through its edge
        p = SystemParams(omega0=2.0, T=0.5)
        d = diffusion_constants(p)
        eq = equilibrium_moments(p, d)
        m = MomentState(eq.q2, 4.0 * eq.p2, eq.qp)
        g = gaussian_state(m, N=96, L=8.0 * math.sqrt(3.0 * eq.q2), hbar=p.hbar)
        with warnings.catch_warnings():
            warnings.simplefilter("error", BoundaryMassWarning)
            evolve(g, p, d, 1.5)
        planned = grid._band_width
        monkeypatch.setattr(grid, "_band_width",
                            lambda g, p, d, t_end: planned(g, p, d, 0.0))
        with pytest.warns(BoundaryMassWarning, match="no longer fits the band"):
            evolve(g, p, d, 1.5)
        # a band narrower than the initial state warns before the first step
        monkeypatch.setattr(grid, "_band_width", lambda g, p, d, t_end: 6)
        with pytest.warns(BoundaryMassWarning, match="beyond the band"):
            evolve(g, p, d, 0.01)


def pointwise_factor(x, p, d):
    """P(x, y) = -i (M omega0^2/2 hbar)(x^2 - y^2) - (Dpp/hbar^2)(x - y)^2."""
    X, Y = x[:, None], x[None, :]
    return (-1j * p.M * p.omega0 ** 2 / (2.0 * p.hbar)) * (X * X - Y * Y) \
        - (d.Dpp / p.hbar ** 2) * (X - Y) ** 2


def explicit_rk4(g, p, d, t_end):
    """Classical RK4 on the whole right-hand side (stencil terms + P rho) of
    the full grid (the band at K = N - 1) at the explicit step
    0.25*min(M dx^2/hbar, 1/gamma, hbar^2/(Dpp L^2))."""
    op = _BandOperator(g.x, p, d, g.N - 1)
    P = op.from_full(pointwise_factor(g.x, p, d))
    box = np.ones((g.N, g.N))
    box[1:-1, 1:-1] = 0.0
    ring = op.from_full(box) != 0.0

    def f(u):
        return op.rhs(u, op.buffer()) + P * u

    dt = 0.25 * min(p.M * g.dx ** 2 / p.hbar, 1.0 / p.gamma,
                    p.hbar ** 2 / (d.Dpp * g.L ** 2))
    n = math.ceil(t_end / dt)
    dt = t_end / n
    u = op.from_full(g.values)
    for _ in range(n):
        k1 = f(u)
        k2 = f(u + 0.5 * dt * k1)
        k3 = f(u + 0.5 * dt * k2)
        k4 = f(u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        u[ring] = 0.0
    return DensityGrid(g.x, op.to_full(u), g.t + t_end), n


def reference_rhs(u, x, p, d, K):
    """The stencil terms on the full N x N grid, written out term by term
    from zero-padded shifts: kinetic, friction + anomalous, and position
    diffusion as the first-derivative stencil composed with itself.  The
    inner derivative and the result are cut to the band |x - y| <= K dx,
    beyond which the band holds zeros; K = N - 1 cuts nothing."""
    n, dx = len(x), x[1] - x[0]
    band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= K

    def d1(f):
        fp = np.pad(f, 2)
        sx = [fp[2 + a:n + 2 + a, 2:n + 2] for a in range(-2, 3)]
        sy = [fp[2:n + 2, 2 + b:n + 2 + b] for b in range(-2, 3)]
        dx1 = (sx[0] - 8.0 * sx[1] + 8.0 * sx[3] - sx[4]) / (12.0 * dx)
        dy1 = (sy[0] - 8.0 * sy[1] + 8.0 * sy[3] - sy[4]) / (12.0 * dx)
        d2x = (-sx[0] + 16.0 * sx[1] - 30.0 * f + 16.0 * sx[3] - sx[4]) / (12.0 * dx * dx)
        d2y = (-sy[0] + 16.0 * sy[1] - 30.0 * f + 16.0 * sy[3] - sy[4]) / (12.0 * dx * dx)
        return dx1, dy1, d2x, d2y

    dx1, dy1, d2x, d2y = d1(u)
    xmy = x[:, None] - x[None, :]
    ca = 2j * d.Dpq / p.hbar - p.gamma
    cb = 2j * d.Dpq / p.hbar + p.gamma
    out = (1j * p.hbar / (2.0 * p.M)) * (d2x - d2y) + xmy * (ca * dx1 + cb * dy1)
    ddx, ddy, _, _ = d1(np.where(band, dx1 + dy1, 0.0))
    return np.where(band, out + d.Dqq * (ddx + ddy), 0.0)


def spectral_radius(op, iters=400, tail=100):
    """Growth rate (|A^tail v| / |v|)^(1/tail) of the band stencil operator
    A = op.rhs after iters - tail warm-up iterations from a fixed random
    hermitian start (a real diagonal)."""
    rng = np.random.default_rng(7)
    v, w = op.buffer(), op.buffer()
    band = op.band(v)
    band[...] = rng.standard_normal(band.shape) + 1j * rng.standard_normal(band.shape)
    band[:, 0] = band[:, 0].real
    log_growth = 0.0
    for i in range(iters):
        v_norm = np.linalg.norm(v)      # before rhs fills v's mirror columns
        op.rhs(v, w)
        norm = np.linalg.norm(w)
        if i >= iters - tail:
            log_growth += math.log(norm / v_norm)
        v, w = w / norm, v
    return math.exp(log_growth / tail)


def dense_band_operator(x, p, d, K):
    """reference_rhs as a dense matrix on the band cells |i - j| <= K, in
    row-major cell order, and two permutations of that order: the reflection
    through the centre (i, j) -> (N - 1 - i, N - 1 - j) and the transpose
    (i, j) -> (j, i)."""
    n = len(x)
    i, j = np.nonzero(np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= K)
    A = np.empty((len(i), len(i)), dtype=complex)
    for c, (a, b) in enumerate(zip(i, j)):
        e = np.zeros((n, n), dtype=complex)
        e[a, b] = 1.0
        A[:, c] = reference_rhs(e, x, p, d, K)[i, j]
    index = np.full((n, n), -1)
    index[i, j] = np.arange(len(i))
    return A, index[n - 1 - i, n - 1 - j], index[j, i]


def numerical_radius(A, mirror):
    """max |<v, A v>| over unit v, as the largest eigenvalue of the hermitian
    part H(theta) of e^{i theta} A over theta = 0, 1, ..., 359 degrees.

    H(theta + 180) = -H(theta), and, where A maps u^dagger to (A u)^dagger,
    H(-theta) is the complex conjugate of H(theta) with its cells transposed,
    so both ends of the spectra at theta = 0, 1, ..., 90 degrees cover every
    angle.  A commutes with the fixed-point-free involution mirror, so its
    even and odd parts under it are separate blocks, A[r, r'] +- A[r, mirror r']
    over one cell r of each pair."""
    reps = np.flatnonzero(np.arange(len(mirror)) < mirror)
    w = 0.0
    for sign in (1.0, -1.0):
        block = A[np.ix_(reps, reps)] + sign * A[np.ix_(reps, mirror[reps])]
        h1 = 0.5 * (block + block.conj().T)
        h2 = 0.5j * (block - block.conj().T)
        for theta in np.radians(np.arange(91)):
            ev = np.linalg.eigvalsh(math.cos(theta) * h1 + math.sin(theta) * h2)
            w = max(w, ev[-1], -ev[0])
    return w


BOUND_SYSTEMS = [
    (dict(omega0=2.0, T=2.0), 256),               # the benchmark system
    (dict(omega0=2.0, T=20.0), 64),               # decoherence-dominated
    (dict(omega0=0.3, T=0.5, gamma=3.0), 96),     # overdamped, below T_c
    (dict(omega0=5.0, T=1.0, M=2.0, hbar=0.5), 64),
]


def equilibrium_grid(kw, N):
    p = SystemParams(**kw)
    d = diffusion_constants(p)
    eq = equilibrium_moments(p, d)
    g = gaussian_state(eq, N=N, L=suggested_half_width(1.4 * eq.q2, p, d, N=N),
                       hbar=p.hbar)
    return g, p, d


class TestLawsonStep:
    @pytest.mark.parametrize("kw, N", BOUND_SYSTEMS)
    def test_bound_covers_spectral_radius(self, kw, N):
        g, p, d = equilibrium_grid(kw, N)
        # the equilibrium is stationary, so any horizon plans the same band
        n_steps, dt, K = plan_steps(g, p, d, 1.0)
        R = _radius_bound(g.dx, K, p, d)
        rho = spectral_radius(_BandOperator(g.x, p, d, K))
        assert rho <= R
        assert rho >= 0.4 * R       # the bound is not loose enough to waste steps
        assert dt <= 2.5 / R and (n_steps - 1) * 2.5 / R < 1.0
        assert stable_dt(g, p, d) == pytest.approx(2.5 / _radius_bound(g.dx, N - 1, p, d),
                                                   rel=1e-15)

    @pytest.mark.parametrize("kw", [kw for kw, _ in BOUND_SYSTEMS])
    def test_bound_covers_numerical_radius(self, kw):
        # R = hypot(kinetic, Dqq) + friction bounds the numerical radius, not
        # only the spectral radius, and is no looser than the sum of the
        # three operator norms it replaced
        g, p, d = equilibrium_grid(kw, 32)
        K = plan_steps(g, p, d, 1.0).K
        A, mirror, transpose = dense_band_operator(g.x, p, d, K)
        # the symmetries numerical_radius relies on
        scale = np.abs(A).max()
        assert np.abs(A[np.ix_(mirror, mirror)] - A).max() <= 1e-12 * scale
        assert np.abs(A[np.ix_(transpose, transpose)] - A.conj()).max() <= 1e-12 * scale
        w = numerical_radius(A, mirror)
        R = _radius_bound(g.dx, K, p, d)
        d1 = grid._D1_SYMBOL_MAX / (12.0 * g.dx)
        norm_sum = (p.hbar / (2.0 * p.M) * 64.0 / (12.0 * g.dx ** 2)
                    + K * g.dx * 2.0 * math.hypot(2.0 * d.Dpq / p.hbar, p.gamma) * d1
                    + abs(d.Dqq) * (2.0 * d1) ** 2)
        assert w <= R <= norm_sum

    @pytest.mark.parametrize("t_end, most", [
        (0.075, 30),    # the benchmark's grid-validate run
        (3.0, 1190),    # acceptance criterion 8
    ])
    def test_step_plan_pins(self, t_end, most):
        # the displaced state and the half-width grid-validate picks, at N = 256
        m = displaced()
        g = gaussian_state(m, N=256, L=suggested_half_width(1.05 * max(m.q2, EQ.q2), P, D))
        assert plan_steps(g, P, D, t_end).steps <= most

    def test_rhs_matches_full_grid_reference(self):
        # two rhs passes from a rough hermitian start, so any value left in
        # the cells off the grid or the pad, or a wrong mirror column, would
        # be read back; K = 5 is the narrowest buffer row (W = 10)
        g = gaussian_state(displaced(), N=48)
        rng = np.random.default_rng(3)
        u = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
        u += u.conj().T
        offset = np.abs(np.subtract.outer(np.arange(48), np.arange(48)))
        for K in (47, plan_steps(g, P, D, 1.0).K, grid._MIN_BAND):
            u_band = np.where(offset <= K, u, 0.0)
            want = reference_rhs(reference_rhs(u_band, g.x, P, D, K), g.x, P, D, K)
            op = _BandOperator(g.x, P, D, K)
            once = op.rhs(op.from_full(u_band), op.buffer())
            got = op.to_full(op.rhs(once, op.buffer()))
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            # 6 columns inside the band edge two passes of the uncut full
            # grid agree too
            full = reference_rhs(reference_rhs(u_band, g.x, P, D, 47), g.x, P, D, 47)
            inner = offset <= K - 6
            assert np.abs(got - full)[inner].max(initial=0.0) <= 1e-12 * np.abs(full).max()
            # the update maps a hermitian rho to a hermitian one
            assert np.abs(np.diagonal(got).imag).max() == 0.0

    def test_friction_factor_is_a_contiguous_operand(self):
        # rhs multiplies its N x W stage by x - y in place; a broadcast row,
        # or an F-ordered copy of one, runs that multiply at about half speed
        g = gaussian_state(displaced(), N=48)
        op = _BandOperator(g.x, P, D, 20)
        assert op.xmy.dtype == op._t1.dtype and op.xmy.shape == op._t1.shape
        assert op.xmy.flags.c_contiguous
        m = np.arange(op.w)
        want = np.where(m <= 20, -m * float(g.x[1] - g.x[0]), 0.0)
        assert np.array_equal(op.xmy, np.broadcast_to(want, op.xmy.shape))

    @pytest.mark.parametrize("K", [grid._MIN_BAND, 24, 47])
    def test_border_and_pad_stay_zero(self, K):
        # Lawson steps and one more rhs from a rough hermitian start: every
        # buffer cell that the stencil reads as border is exactly 0, that is
        # the box's border rows, the columns beyond the band edge, the cells
        # off the grid (i + m >= N) and the clamped outermost ring.  Only the
        # band and the mirror columns m = -1, -2 of rho (refilled by each
        # rhs) may hold values; an rhs output has no mirror values.
        g = gaussian_state(displaced(), N=48)
        rng = np.random.default_rng(5)
        u = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
        op = _BandOperator(g.x, P, D, K)
        rho = op.from_full(u + u.conj().T)
        for _ in range(4):
            op.lawson_inplace(rho, stable_dt(g, P, D))
        out = op.rhs(rho, op.buffer())
        i, m = np.nonzero(np.ones((48, K + 1), bool))
        j = i + m
        on_grid = j < 48
        edge = on_grid & ((i == 0) | (j == 0) | (i == 47) | (j == 47))
        live = np.zeros(rho.shape, bool)
        live.reshape(-1)[op.index(i[on_grid], m[on_grid])] = True
        rim = np.zeros(rho.shape, bool)
        rim.reshape(-1)[op.index(i[edge], m[edge])] = True
        assert np.all(out[~live] == 0.0)
        mirror = live.copy()
        for c in (1, 2):
            mirror[2 + c:50, 2 - c] = True
        assert np.all(rho[~mirror | rim] == 0.0)
        assert np.all(rho[live & ~rim] != 0.0)

    def test_matches_explicit_rk4(self):
        # Lawson RK4 at its own bound against classical RK4 on the whole
        # operator at the explicit bound, which takes ~10x the steps
        m = displaced()
        g = gaussian_state(m, N=64, L=8.0 * math.sqrt(1.45 * EQ.q2))
        ref_grid, n_ref = explicit_rk4(g, P, D, 1.0)
        final, samples = evolve(g, P, D, 1.0, sample_every=10 ** 6)
        n_steps, _, _ = plan_steps(g, P, D, 1.0)
        assert n_steps * 5 < n_ref
        ref = moments_from_grid(ref_grid)
        got = samples[-1]
        assert got["q2"] == pytest.approx(ref.q2, rel=1e-6)
        assert got["p2"] == pytest.approx(ref.p2, rel=1e-6)
        assert abs(got["qp"] - ref.qp) < 1e-6 * math.sqrt(ref.q2 * ref.p2)

    def test_factor_is_exact_on_diagonal_and_hermitian(self):
        g = gaussian_state(displaced(), N=64)
        K = plan_steps(g, P, D, 0.3).K
        assert K < g.N - 1
        op = _BandOperator(g.x, P, D, K)
        E = op.factor(0.01)
        assert np.all(op.band(E)[:, 0] == 1.0)
        # the mirrored lower half matches exp(P dt/2) computed there: E is
        # hermitian-symmetric, so the upper band determines it
        offset = np.abs(np.subtract.outer(np.arange(g.N), np.arange(g.N)))
        exact = np.where(offset <= K, np.exp(0.005 * pointwise_factor(g.x, P, D)), 0.0)
        assert np.allclose(op.to_full(E), exact, rtol=1e-14, atol=0.0)

    def test_plan_lands_on_t_end(self):
        g = gaussian_state(displaced(), N=64)
        n, dt, K = plan_steps(g, P, D, 0.3)
        limit = 2.5 / _radius_bound(g.dx, K, P, D)
        assert n * dt == pytest.approx(0.3, rel=1e-15)
        assert dt <= limit
        assert (n - 1) * limit < 0.3
        # the band's step is never below the full grid's
        assert stable_dt(g, P, D) <= limit
        # a given dt is kept, and checked against the band's bound
        assert plan_steps(g, P, D, 0.3, dt) == (n, dt, K)
        with pytest.raises(StabilityError):
            plan_steps(g, P, D, 0.3, 1.01 * limit)

    def test_band_matches_full_width(self, monkeypatch):
        # the criterion-8 system at N = 64 over three damping times: the band
        # the plan picks against the full grid (K = N - 1), at one dt
        g = gaussian_state(displaced(), N=64,
                           L=suggested_half_width(1.05 * displaced().q2, P, D, N=64))
        dt = stable_dt(g, P, D)
        assert plan_steps(g, P, D, 3.0).K < g.N - 1
        band, _ = evolve(g, P, D, 3.0, dt=dt, sample_every=10 ** 6)
        monkeypatch.setattr(grid, "_band_width", lambda g, p, d, t_end: g.N - 1)
        assert plan_steps(g, P, D, 3.0).K == g.N - 1
        full, _ = evolve(g, P, D, 3.0, dt=dt, sample_every=10 ** 6)
        assert np.abs(band.values - full.values).max() <= 1e-10 * np.abs(full.values).max()
        # the full-width band's buffer is the full grid's zero-padded one
        assert _BandOperator(g.x, P, D, g.N - 1)._k.shape == (g.N + 4, g.N + 4)

    def test_buffers_start_on_a_cache_line(self):
        # the stepping time must not follow where the allocator put the data
        g = gaussian_state(displaced(), N=48, L=8.0 * math.sqrt(3.0 * EQ.q2))
        op = _BandOperator(g.x, P, D, 20)
        for buf in (op.buffer(), op._acc, op._factor, op._b1, op._t2, op.from_full(g.values)):
            assert buf.ctypes.data % 64 == 0 and buf.flags.c_contiguous
            assert buf.dtype == complex
        assert not op.buffer().any()

    def test_band_plan_is_independent_of_sampling_chunks(self, monkeypatch):
        # an underdamped run over 60 periods samples ~2000 moment times
        p = SystemParams(omega0=2.0, T=2.0, gamma=0.05)
        d = diffusion_constants(p)
        g = gaussian_state(displaced(), N=64, L=8.0 * math.sqrt(3.0 * EQ.q2), hbar=p.hbar)
        K = plan_steps(g, p, d, 60.0).K
        monkeypatch.setattr(grid, "_SAMPLE_CHUNK", 7)
        assert plan_steps(g, p, d, 60.0).K == K


class TestGaussianOracle:
    def test_initial_state_is_exact(self):
        m = displaced()
        g = gaussian_state(m, N=64, L=7.13)
        assert gaussian_error(g, m, P, D) == 0.0

    def test_observed_order_is_four(self):
        # the exact Gaussian at t = 3/gamma on the acceptance-run system: the
        # pointwise error falls as dx^4 (the stencils' order; the time error
        # is far below it)
        m = displaced()
        errs, dxs = [], []
        for N in (32, 64, 128):
            g = gaussian_state(m, N=N, L=7.13)
            final, _ = evolve(g, P, D, 3.0 / P.gamma, sample_every=10 ** 6)
            errs.append(gaussian_error(final, m, P, D))
            dxs.append(g.dx)
        for i in range(2):
            order = math.log(errs[i] / errs[i + 1]) / math.log(dxs[i] / dxs[i + 1])
            assert 3.5 <= order <= 4.5, (errs, order)


def analytic_q2_unitary(m, p, t):
    """Closed-form <q^2>(t) for the undamped oscillator (rotation of moments)."""
    w = p.omega0
    c, s = math.cos(w * t), math.sin(w * t)
    # q(t) = q cos + (p/M w) sin
    return (m.q2 * c * c + m.p2 * s * s / (p.M * w) ** 2
            + m.qp * c * s / (p.M * w))


class TestMomentsFromGrid:
    def test_nan_rejected(self):
        g = gaussian_state(MomentState(1.0, 1.0, 0.0), N=64)
        g.values[3, 4] = float("nan")
        with pytest.raises(StateError):
            moments_from_grid(g)


class TestSnapshotCsv:
    def test_header_and_rows(self):
        g = gaussian_state(MomentState(1.0, 1.0, 0.2), N=16)
        buf = io.StringIO()
        g.write_csv(buf, params=P)
        lines = buf.getvalue().split("\r\n")
        assert lines[0].startswith("# N=16 L=8")
        assert "omega0=2" in lines[0] and "T=2" in lines[0]
        assert lines[1] == "x,y,re,im"
        assert len(lines) == 2 + 16 * 16 + 1  # header lines + rows + trailing
        x, y, re, im = (float(v) for v in lines[2].split(","))
        assert (x, y) == (g.x[0], g.x[0])
        assert re == g.values[0, 0].real and im == g.values[0, 0].imag

    def test_bytes_match_per_value_join(self):
        # the row template writes what one "%.17g" per value wrote, including
        # -0.0 and exponents near +-300 put into the grid by hand
        g = gaussian_state(MomentState(1.0, 1.0, 0.2), N=12)
        g.values[0, 1] = complex(-0.0, 1e-300)
        g.values[2, 3] = complex(5e-324, -0.0)
        g.values[4, 5] = complex(-1.7976931348623157e308, 2.5e300)
        g.t = 0.1
        buf = io.StringIO()
        g.write_csv(buf, params=P)
        rows = []
        for i, xi in enumerate(g.x):
            for j, xj in enumerate(g.x):
                v = g.values[i, j]
                rows.append(",".join("%.17g" % c for c in (xi, xj, v.real, v.imag)) + "\r\n")
        lines = buf.getvalue().split("\r\n")
        assert buf.getvalue() == "\r\n".join(lines[:2]) + "\r\n" + "".join(rows)
        assert lines[0] == ("# N=12 L=8 t=0.10000000000000001 M=1 omega0=2 gamma=1 T=2 "
                            "omega_c=inf hbar=1 kB=1")
