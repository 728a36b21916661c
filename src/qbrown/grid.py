"""Direct evolution of the master equation for rho(x, y, t) on an N x N grid.

End-to-end validation path: build a Gaussian state from target second
moments, step the full six-term PDE, and read the moments back off the grid.
Space uses 4th-order centered differences.  Time uses Lawson's
integrating-factor RK4 (Lawson, SIAM J. Numer. Anal. 4, 372 (1967); Hochbruck
& Ostermann, Acta Numerica 19, 209 (2010)): the stiff pointwise potential +
decoherence factor P(x, y) = -i(M omega0^2/2 hbar)(x^2 - y^2)
- (Dpp/hbar^2)(x - y)^2 is applied exactly as exp(P dt/2), and RK4 steps only
the stencil terms, so the step size is bounded by their spectrum alone.

The discretization is built so that the discrete trace is conserved exactly
(up to roundoff and boundary leakage): P and every multiplicative term vanish
on the diagonal, the kinetic term telescopes under the trace, and the
position-diffusion term uses the antisymmetric first-derivative stencil
composed with itself.  P is hermitian-symmetric, so exp(P dt/2) keeps
rho = rho^dagger.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, TextIO, Union

import numpy as np

from .core import StabilityError, StateError, SystemParams
from .diffusion import DiffusionConstants
from .dynamics import MomentState, analytic_solution

CSV_FLOAT_FMT = "%.17g"
_EDGE_FRACTION = 1e-10
# max_k |16 sin k - 2 sin 2k|, reached at cos k = 1 - sqrt(3/2)
_D1_SYMBOL_MAX = 4.0 * math.sqrt(1.0 - (1.0 - math.sqrt(1.5)) ** 2) * (3.0 + math.sqrt(1.5))
# dt * R, below the radius 2.61 of the left half-disk inside RK4's stability region
_LAWSON_CFL = 2.5


class BoundaryMassWarning(UserWarning):
    """|rho| at the grid edge exceeds 1e-10 of the peak; results are suspect."""


@dataclass
class DensityGrid:
    """rho(x_i, x_j) on a shared axis x of N points spanning [-L, L]."""

    x: np.ndarray
    values: np.ndarray
    t: float = 0.0

    @property
    def N(self) -> int:
        return len(self.x)

    @property
    def L(self) -> float:
        return float(self.x[-1])

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    def trace(self) -> float:
        return float(np.real(np.diagonal(self.values)).sum() * self.dx)

    def hermiticity_residual(self) -> float:
        """max |rho - rho^dagger| relative to the peak of |rho|."""
        peak = float(np.abs(self.values).max())
        if peak == 0.0:
            return 0.0
        return float(np.abs(self.values - self.values.conj().T).max()) / peak

    def write_csv(self, f: Union[str, TextIO], params: Optional[SystemParams] = None) -> None:
        """Snapshot rows ``x,y,re,im`` after one header line with N, L, t, params."""
        if isinstance(f, str):
            with open(f, "w", newline="") as fh:
                self.write_csv(fh, params)
            return
        meta = f"# N={self.N} L={CSV_FLOAT_FMT % self.L} t={CSV_FLOAT_FMT % self.t}"
        if params is not None:
            meta += (f" M={params.M:g} omega0={params.omega0:g} gamma={params.gamma:g}"
                     f" T={params.T:g} omega_c={params.omega_c:g}"
                     f" hbar={params.hbar:g} kB={params.kB:g}")
        f.write(meta + "\r\n")
        f.write("x,y,re,im\r\n")
        for i, xi in enumerate(self.x):
            row = self.values[i]
            for j, xj in enumerate(self.x):
                f.write(",".join(CSV_FLOAT_FMT % v
                                 for v in (xi, xj, row[j].real, row[j].imag)) + "\r\n")


def gaussian_state(m: MomentState, N: int = 256, L: float = 0.0,
                   hbar: float = 1.0) -> DensityGrid:
    """Gaussian rho(x,y) with the given second moments, trace-normalized.

    rho = exp[-(x+y)^2/(8<q^2>) - p2c (x-y)^2/(2 hbar^2)
              + i <qp+pq>(x^2-y^2)/(4 hbar <q^2>)]
    with p2c = <p^2> - (<qp+pq>/2)^2/<q^2>.  L defaults to 8*sqrt(<q^2>).
    Rejects states violating u >= hbar^2/4 and boxes below L = 8*sqrt(<q^2>).
    """
    if m.q2 <= 0.0 or m.p2 <= 0.0:
        raise StateError("need positive <q^2> and <p^2>")
    u = m.uncertainty()
    if u < 0.25 * hbar * hbar * (1.0 - 1e-12):
        raise StateError(
            f"uncertainty product u={u:g} violates hbar^2/4={0.25 * hbar * hbar:g}")
    L_min = 8.0 * math.sqrt(m.q2)
    if L == 0.0:
        L = L_min
    if L < L_min * (1.0 - 1e-12):
        raise StateError(f"grid half-width {L:g} below 8*sqrt(<q^2>)={L_min:g}")

    x = np.linspace(-L, L, N)
    p2c = m.p2 - (m.qp / 2.0) ** 2 / m.q2
    X = x[:, None]
    Y = x[None, :]
    phase = m.qp * (X * X - Y * Y) / (4.0 * hbar * m.q2)
    rho = np.exp(-(X + Y) ** 2 / (8.0 * m.q2) - p2c * (X - Y) ** 2 / (2.0 * hbar * hbar)
                 + 1j * phase)
    g = DensityGrid(x, rho, t=m.t)
    g.values /= g.trace()
    return g


def stencil_radius_bound(g: DensityGrid, p: SystemParams, d: DiffusionConstants) -> float:
    """R: an upper bound on the spectral radius of the stencil terms that
    Lawson RK4 steps explicitly, as the sum of their operator-norm bounds.

    With s = max_k |16 sin k - 2 sin 2k| (the symbol of the unscaled 4th-order
    first-derivative stencil) and |ca| = |cb| = |2i Dpq/hbar -+ gamma|:
      kinetic            (hbar/2M) * 64/(12 dx^2)
      friction+anomalous 2L (|ca| + |cb|) * s/(12 dx)
      position diffusion |Dqq| (2 s/(12 dx))^2
    """
    dx = g.dx
    c_kin = p.hbar / (2.0 * p.M) * 64.0 / (12.0 * dx * dx)
    d1 = _D1_SYMBOL_MAX / (12.0 * dx)
    c_fric = 2.0 * g.L * 2.0 * math.hypot(2.0 * d.Dpq / p.hbar, p.gamma) * d1
    c_dqq = abs(d.Dqq) * (2.0 * d1) ** 2
    return c_kin + c_fric + c_dqq


def stable_dt(g: DensityGrid, p: SystemParams, d: DiffusionConstants) -> float:
    """Largest allowed step, 2.5/R with R = stencil_radius_bound: dt*|lambda|
    <= 2.5 for every eigenvalue lambda of the explicitly stepped part, inside
    the radius 2.61 to which RK4's stability region fills the left half-plane
    (2.83 on the imaginary axis, 2.79 on the negative real one)."""
    return _LAWSON_CFL / stencil_radius_bound(g, p, d)


def suggested_half_width(q2_max: float, p: SystemParams, d: DiffusionConstants,
                         N: int = 256) -> float:
    """Half-width that fits the state (L >= 8*sqrt(q2_max)) and, where room
    allows (up to 1.5x that), the L at which the spacing scale M dx^2/hbar
    equals the decoherence scale hbar^2/(Dpp L^2).  That balance maximized
    the old explicit step; the Lawson step takes decoherence exactly, so it
    no longer sets dt, but the formula is kept so existing grids (and their
    CSV rows) stay as they are."""
    L_min = 8.0 * math.sqrt(q2_max)
    if d.Dpp <= 0.0:
        return L_min
    L_bal = (p.hbar ** 3 * (N - 1) ** 2 / (4.0 * p.M * d.Dpp)) ** 0.25
    return max(L_min, min(L_bal, 1.5 * L_min))


class _MasterOperator:
    """The six-term master equation split for Lawson RK4, tuned for repeated
    calls: ``rhs`` evaluates the stencil terms (kinetic, friction + anomalous,
    position diffusion), and the pointwise potential + decoherence factor P
    enters each step only through E = exp(P dt/2).

    One zero-bordered scratch buffer per field serves all stencil directions
    (the border is the clamped boundary condition), and every array operation
    writes into a preallocated work buffer: at N=256 the evolution is memory
    bound, so allocation-free passes are what the 2-minute budget buys.
    """

    def __init__(self, x: np.ndarray, p: SystemParams, d: DiffusionConstants):
        n = len(x)
        dx = float(x[1] - x[0])
        self.x = x
        self.xmy = x[:, None] - x[None, :]
        # P = -i c_pot (x^2 - y^2) - c_dec (x - y)^2
        self.c_pot = p.M * p.omega0 ** 2 / (2.0 * p.hbar)
        self.c_dec = d.Dpp / p.hbar ** 2
        c1 = 1.0 / (12.0 * dx)
        c2 = 1.0 / (12.0 * dx * dx)
        self.c_kin = (1j * p.hbar / (2.0 * p.M)) * c2
        # friction -gamma*(d1x - d1y) and anomalous c*(d1x + d1y) fold into
        # xmy * (ca*d1x + cb*d1y)
        self.ca = 2j * d.Dpq / p.hbar - p.gamma
        self.cb = 2j * d.Dpq / p.hbar + p.gamma
        self.c1 = c1
        self.cDqq = d.Dqq * c1
        shape = (n, n)
        self._fp = np.zeros((n + 4, n + 4), dtype=complex)
        self._gp = np.zeros((n + 4, n + 4), dtype=complex)
        self._b1 = np.empty(shape, dtype=complex)
        self._b2 = np.empty(shape, dtype=complex)
        self._t1 = np.empty(shape, dtype=complex)
        self._t2 = np.empty(shape, dtype=complex)
        self._stage = np.empty(shape, dtype=complex)
        self._acc = np.empty(shape, dtype=complex)
        self._k = np.empty(shape, dtype=complex)
        self._factor = np.empty(shape, dtype=complex)
        self._factor_dt: Optional[float] = None

    def factor(self, dt: float) -> np.ndarray:
        """E = exp(P dt/2), rebuilt in place only when dt changes.  P is
        exactly 0 on the diagonal, so E is exactly 1 there."""
        if dt != self._factor_dt:
            E = self._factor
            h = 0.5 * dt
            np.multiply(self.xmy, self.xmy, out=E.real)
            E.real *= -h * self.c_dec
            # x^2 - y^2 = (x + y)(x - y)
            np.add(self.x[:, None], self.x[None, :], out=E.imag)
            E.imag *= self.xmy
            E.imag *= -h * self.c_pot
            np.exp(E, out=E)
            self._factor_dt = dt
        return self._factor

    @staticmethod
    def _d1_pair(cx, cy, out, tmp, tmp2):
        """out = unscaled 4th-order (d/dx + d/dy) read from padded views."""
        np.subtract(cx[0:-4], cx[4:], out=out)
        np.subtract(cy[:, 0:-4], cy[:, 4:], out=tmp)
        out += tmp
        np.subtract(cx[3:-1], cx[1:-3], out=tmp)
        np.subtract(cy[:, 3:-1], cy[:, 1:-3], out=tmp2)
        tmp += tmp2
        tmp *= 8.0
        out += tmp

    def rhs(self, rho: np.ndarray, out: np.ndarray) -> np.ndarray:
        fp, gp = self._fp, self._gp
        b1, b2, t1, t2 = self._b1, self._b2, self._t1, self._t2
        fp[2:-2, 2:-2] = rho
        cx = fp[:, 2:-2]   # columns interior: x-direction neighbours
        cy = fp[2:-2, :]   # rows interior: y-direction neighbours

        # first derivatives (unscaled by c1 until used)
        np.subtract(cx[0:-4], cx[4:], out=b1)
        np.subtract(cx[3:-1], cx[1:-3], out=t1)
        t1 *= 8.0
        b1 += t1
        np.subtract(cy[:, 0:-4], cy[:, 4:], out=b2)
        np.subtract(cy[:, 3:-1], cy[:, 1:-3], out=t1)
        t1 *= 8.0
        b2 += t1

        # kinetic: (d2x - d2y); the -30*f/12dx^2 terms cancel between the axes
        np.add(cx[1:-3], cx[3:-1], out=out)
        np.add(cy[:, 1:-3], cy[:, 3:-1], out=t1)
        out -= t1
        out *= 16.0
        np.add(cx[0:-4], cx[4:], out=t1)
        out -= t1
        np.add(cy[:, 0:-4], cy[:, 4:], out=t1)
        out += t1
        out *= self.c_kin

        # friction + anomalous: xmy * (ca*d1x + cb*d1y) * c1
        np.multiply(b1, self.ca * self.c1, out=t1)
        np.multiply(b2, self.cb * self.c1, out=t2)
        t1 += t2
        t1 *= self.xmy
        out += t1

        if self.cDqq != 0.0:
            # position diffusion (d/dx + d/dy)^2 via composition of the
            # antisymmetric first-derivative stencil: conserves the discrete
            # trace exactly
            b1 += b2
            b1 *= self.c1
            gp[2:-2, 2:-2] = b1
            self._d1_pair(gp[:, 2:-2], gp[2:-2, :], t1, t2, b2)
            t1 *= self.cDqq
            out += t1
        return out

    def lawson_inplace(self, rho: np.ndarray, dt: float) -> None:
        """Advance rho by one Lawson RK4 step, reusing the operator's buffers.

        With N = rhs, h = dt and E = exp(P h/2):
          k1 = N(u), k2 = N(E(u + h/2 k1)), k3 = N(E u + h/2 k2),
          k4 = N(E(E u + h k3)),
          u' = E(E u + h/6 (E k1 + 2 k2 + 2 k3)) + h/6 k4.
        """
        E = self.factor(dt)
        acc, k, stage = self._acc, self._k, self._stage
        self.rhs(rho, acc)                       # k1
        rho *= E                                 # rho holds E u from here
        acc *= E
        np.multiply(acc, 0.5 * dt, out=stage)
        stage += rho
        self.rhs(stage, k)                       # k2
        acc += k
        acc += k
        np.multiply(k, 0.5 * dt, out=stage)
        stage += rho
        self.rhs(stage, k)                       # k3
        acc += k
        acc += k
        np.multiply(k, dt, out=stage)
        stage += rho
        stage *= E
        self.rhs(stage, k)                       # k4
        acc *= dt / 6.0
        rho += acc
        rho *= E
        k *= dt / 6.0
        rho += k
        # Dirichlet clamp: the outermost ring is pinned to zero
        rho[0] = 0.0
        rho[-1] = 0.0
        rho[:, 0] = 0.0
        rho[:, -1] = 0.0


def _check_boundary(values: np.ndarray) -> None:
    # the outermost ring is clamped to zero, so leakage shows up one ring in
    peak = float(np.abs(values).max())
    if peak == 0.0:
        return
    edge = max(float(np.abs(values[1]).max()), float(np.abs(values[-2]).max()),
               float(np.abs(values[:, 1]).max()), float(np.abs(values[:, -2]).max()))
    if edge > _EDGE_FRACTION * peak:
        warnings.warn(
            f"boundary |rho| reached {edge / peak:.1e} of the peak; "
            "the state no longer fits the box", BoundaryMassWarning)


def _check_dt(g: DensityGrid, p: SystemParams, d: DiffusionConstants, dt: float) -> None:
    limit = stable_dt(g, p, d)
    if dt > limit * (1.0 + 1e-12):
        raise StabilityError(f"dt={dt:g} exceeds the stability bound {limit:g}")


def step(g: DensityGrid, p: SystemParams, d: DiffusionConstants, dt: float) -> DensityGrid:
    """One Lawson RK4 step of the master equation; returns a new grid at t + dt."""
    _check_dt(g, p, d, dt)
    values = g.values.copy()
    _MasterOperator(g.x, p, d).lawson_inplace(values, dt)
    _check_boundary(values)
    return DensityGrid(g.x, values, g.t + dt)


def plan_steps(g: DensityGrid, p: SystemParams, d: DiffusionConstants, t_end: float,
               dt: Optional[float] = None) -> tuple[int, float]:
    """(steps, dt) that evolve() takes to t_end: dt defaults to the stability
    bound and is adjusted down so the steps land exactly on t_end."""
    if dt is None:
        dt = stable_dt(g, p, d)
    else:
        _check_dt(g, p, d, dt)
    n_steps = max(1, int(math.ceil(t_end / dt - 1e-12)))
    return n_steps, t_end / n_steps


def evolve(
    g: DensityGrid,
    p: SystemParams,
    d: DiffusionConstants,
    t_end: float,
    dt: Optional[float] = None,
    sample_every: int = 50,
) -> tuple[DensityGrid, list[dict]]:
    """Step to t_end, recording grid moments / trace / hermiticity samples.

    The step plan is plan_steps(g, p, d, t_end, dt).  Returns the final grid
    and a list of sample dicts with keys t, q2, p2, qp, trace, herm.
    """
    n_steps, dt = plan_steps(g, p, d, t_end, dt)

    op = _MasterOperator(g.x, p, d)
    values = g.values.copy()
    samples = [_sample(g.x, values, g.t, p.hbar)]
    for k in range(n_steps):
        op.lawson_inplace(values, dt)
        if (k + 1) % sample_every == 0 or k == n_steps - 1:
            samples.append(_sample(g.x, values, g.t + (k + 1) * dt, p.hbar))
    _check_boundary(values)
    return DensityGrid(g.x, values, g.t + t_end), samples


def _sample(x, values, t, hbar):
    g = DensityGrid(x, values, t)
    m = moments_from_grid(g, hbar=hbar)
    return {"t": t, "q2": m.q2, "p2": m.p2, "qp": m.qp,
            "trace": g.trace(), "herm": g.hermiticity_residual()}


def moments_from_grid(g: DensityGrid, hbar: float = 1.0) -> MomentState:
    """<q^2> from the diagonal; <p^2>, <qp+pq> from 4th-order stencils in the
    anti-diagonal direction u = x - y at y = x."""
    n = g.N
    dx = g.dx
    rho = g.values
    if not np.all(np.isfinite(rho)):
        raise StateError("grid contains non-finite values")

    diag = np.real(np.diagonal(rho))
    q2 = float((g.x * g.x * diag).sum() * dx)

    idx = np.arange(n)

    def antidiag(k: int) -> np.ndarray:
        # f_k(i) = rho(x_{i+k}, x_{i-k}); outside the grid rho is clamped to 0
        v = np.zeros(n, dtype=complex)
        ok = (idx + k >= 0) & (idx + k < n) & (idx - k >= 0) & (idx - k < n)
        v[ok] = rho[idx[ok] + k, idx[ok] - k]
        return v

    f0 = np.diagonal(rho)
    fp1, fm1, fp2, fm2 = antidiag(1), antidiag(-1), antidiag(2), antidiag(-2)
    du = 2.0 * dx
    dfdu = (fm2 - fp2 + 8.0 * (fp1 - fm1)) / (12.0 * du)
    d2fdu2 = (16.0 * (fp1 + fm1) - (fp2 + fm2) - 30.0 * f0) / (12.0 * du * du)

    p2 = float((-hbar * hbar) * np.real(d2fdu2.sum()) * dx)
    qp = float(np.real(-2j * hbar * (g.x * dfdu).sum() * dx))
    return MomentState(q2, p2, qp, t=g.t)


def gaussian_error(g: DensityGrid, s0: MomentState, p: SystemParams,
                   d: DiffusionConstants) -> float:
    """max |rho_grid - rho_exact| relative to the peak of |rho_exact|.

    Every term of the master equation is at most quadratic in x, y and their
    derivatives, so a Gaussian stays Gaussian: evolved from the zero-mean
    Gaussian of s0, the exact state at g.t is the Gaussian of the analytic
    moments, sampled on the grid's own axis.
    """
    m = analytic_solution(s0, p, d, g.t - s0.t)
    exact = gaussian_state(m, N=g.N, L=g.L, hbar=p.hbar).values
    return float(np.abs(g.values - exact).max() / np.abs(exact).max())
