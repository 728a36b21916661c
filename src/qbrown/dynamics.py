"""Second-moment dynamics of the master equation.

The three coupled ODEs for <q^2>, <p^2>, <qp+pq> close among themselves; this
module provides their exact solution for every omega0 >= 0 (decay rates
2*gamma, 2*(gamma -/+ Omega)), an independent fixed-step RK4 integrator, the
equilibrium fixed point, and the omega0 -> 0 free-particle limit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import (
    NoEquilibriumError,
    StateError,
    StepSizeError,
    SystemParams,
    _holds,
)
from .diffusion import DiffusionConstants, diffusion_constants


@dataclass(frozen=True)
class MomentState:
    """<q^2>, <p^2> and the symmetrized correlation <qp+pq> at time t.

    ``equilibrium_moments`` of a batch of systems gives array fields.
    """

    q2: float
    p2: float
    qp: float
    t: float = 0.0

    def uncertainty(self) -> float:
        """u = <q^2><p^2> - (<qp+pq>/2)^2; physical states have u >= hbar^2/4."""
        return self.q2 * self.p2 - (self.qp / 2.0) ** 2


@dataclass(frozen=True)
class MomentTrajectory:
    """Sampled moment evolution; arrays share one time grid."""

    t: np.ndarray
    q2: np.ndarray
    p2: np.ndarray
    qp: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def state(self, i: int) -> MomentState:
        return MomentState(float(self.q2[i]), float(self.p2[i]), float(self.qp[i]),
                           t=float(self.t[i]))

    @property
    def final(self) -> MomentState:
        return self.state(len(self) - 1)


@dataclass(frozen=True)
class AnalyticCoefficients:
    """Integration constants of the modal solution.

    The decay modes are exp(-2*gamma*t), exp(-2*(gamma-Omega)*t),
    exp(-2*(gamma+Omega)*t) with coefficients C1, C2, C3 fixed by the t=0
    moments.  ``c2_reference`` is the independent closed form of C2 (None
    where Omega = 0, since it divides by Omega^3).
    """

    C1: complex
    C2: complex
    C3: complex
    Omega: complex
    equilibrium: MomentState
    c2_reference: Optional[complex] = None


def moment_derivative(
    s: MomentState, p: SystemParams, d: DiffusionConstants
) -> tuple[float, float, float]:
    """(d<q^2>/dt, d<p^2>/dt, d<qp+pq>/dt)."""
    dq2 = s.qp / p.M + 2.0 * d.Dqq
    dp2 = -p.M * p.omega0 ** 2 * s.qp - 4.0 * p.gamma * s.p2 + 2.0 * d.Dpp
    dqp = (2.0 * s.p2 / p.M - 2.0 * p.M * p.omega0 ** 2 * s.q2
           - 2.0 * p.gamma * s.qp - 4.0 * d.Dpq)
    return dq2, dp2, dqp


def evolve_numeric(
    s0: MomentState,
    p: SystemParams,
    d: DiffusionConstants,
    t_end: float,
    dt: float,
    stride: int = 1,
) -> MomentTrajectory:
    """Classical fixed-step RK4 on the moment ODEs, sampled every ``stride`` steps.

    Requires dt <= 0.01/max(gamma, omega0); the trajectory ends at
    round(t_end/dt) steps, i.e. on the step grid closest to t_end.
    """
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    dt_max = 0.01 / max(p.gamma, p.omega0)
    if dt > dt_max * (1.0 + 1e-12):
        raise StepSizeError(f"dt={dt:g} exceeds accuracy bound 0.01/max(gamma, omega0)={dt_max:g}")
    if stride < 1:
        raise ValueError("stride must be >= 1")

    # y' = A y + b on three Python floats: numpy's fixed cost per call is
    # larger than the whole step
    a02 = 1.0 / p.M
    a11, a12 = -4.0 * p.gamma, -p.M * p.omega0 ** 2
    a20, a21, a22 = -2.0 * p.M * p.omega0 ** 2, 2.0 / p.M, -2.0 * p.gamma
    b0, b1, b2 = 2.0 * d.Dqq, 2.0 * d.Dpp, -4.0 * d.Dpq

    def rhs(q2, p2, qp):
        return a02 * qp + b0, a11 * p2 + a12 * qp + b1, a20 * q2 + a21 * p2 + a22 * qp + b2

    n_steps = max(1, int(round(t_end / dt)))
    h, h6 = 0.5 * dt, dt / 6.0
    y0, y1, y2 = float(s0.q2), float(s0.p2), float(s0.qp)
    ts, ys = [0.0], [(y0, y1, y2)]
    for k in range(n_steps):
        k10, k11, k12 = rhs(y0, y1, y2)
        k20, k21, k22 = rhs(y0 + h * k10, y1 + h * k11, y2 + h * k12)
        k30, k31, k32 = rhs(y0 + h * k20, y1 + h * k21, y2 + h * k22)
        k40, k41, k42 = rhs(y0 + dt * k30, y1 + dt * k31, y2 + dt * k32)
        y0 += h6 * (k10 + 2.0 * k20 + 2.0 * k30 + k40)
        y1 += h6 * (k11 + 2.0 * k21 + 2.0 * k31 + k41)
        y2 += h6 * (k12 + 2.0 * k22 + 2.0 * k32 + k42)
        if (k + 1) % stride == 0 or k == n_steps - 1:
            ts.append((k + 1) * dt)
            ys.append((y0, y1, y2))
    out = np.array(ys)
    return MomentTrajectory(np.array(ts), out[:, 0], out[:, 1], out[:, 2])


def equilibrium_moments(p: SystemParams, d: DiffusionConstants) -> MomentState:
    """Fixed point of the moment ODEs (finite omega0 only).

    For a batch of systems (array fields, see SystemParams) every field is
    an array, equal element by element to the calls for one system.
    """
    if not _holds(p.omega0 > 0.0):
        raise NoEquilibriumError(
            "the free particle has no equilibrium <q^2>; use free_particle_longtime")
    w2 = p.omega0 * p.omega0
    M, g = p.M, p.gamma
    p2 = (d.Dpp + M * M * w2 * d.Dqq) / (2.0 * g)
    q2 = (d.Dpp - 4.0 * M * g * d.Dpq + M * M * (4.0 * g * g + w2) * d.Dqq) / (
        2.0 * M * M * g * w2)
    qp = -2.0 * M * d.Dqq
    return MomentState(q2, p2, qp, t=math.inf)


def _mode_matrix(p: SystemParams, Omega: complex) -> tuple[np.ndarray, np.ndarray]:
    """Columns are the decay modes of (q2, p2, qp); returns (V, rates)."""
    M, g, w2 = p.M, p.gamma, p.omega0 ** 2
    V = np.array([
        [-1.0 / (2.0 * M * g), -(g + Omega) / (2.0 * M * w2), -(g - Omega) / (2.0 * M * w2)],
        [-M * w2 / (2.0 * g), -M * (g - Omega) / 2.0, -M * (g + Omega) / 2.0],
        [1.0, 1.0, 1.0],
    ], dtype=complex)
    rates = np.array([-2.0 * g, -2.0 * (g - Omega), -2.0 * (g + Omega)], dtype=complex)
    return V, rates


def c2_closed_form(s0: MomentState, p: SystemParams, d: DiffusionConstants) -> complex:
    """Closed form of the slow-mode integration constant C2.

    Divides by Omega^3; do not call at critical damping.
    """
    m, g, w2 = p.M, p.gamma, p.omega0 ** 2
    Om = cmath.sqrt(complex(g * g - w2))
    if Om == 0.0:
        raise StateError("C2 closed form is singular at critical damping")
    num = (d.Dpp * Om
           + (2.0 * m * m * g ** 3 - 2.0 * m * m * g * w2
              + 2.0 * m * m * g * g * Om - m * m * Om * w2) * d.Dqq
           - 2.0 * m * d.Dpq * (Om * Om + g * Om)
           + s0.p2 * (Om * Om - g * Om)
           - s0.q2 * m * m * w2 * (Om * Om + g * Om)
           - s0.qp * m * w2 * Om)
    return num / (2.0 * m * Om ** 3)


def analytic_coefficients(
    s0: MomentState, p: SystemParams, d: DiffusionConstants
) -> AnalyticCoefficients:
    """The paper's modal constants: the 3x3 linear system matching the modal
    solution to s0 at t=0 (``analytic_solution`` does not use them).

    C2 is cross-checked against its printed closed form away from critical
    damping (``c2_reference``; the caller decides what gap to tolerate).
    """
    if p.gamma <= 0.0 or p.omega0 <= 0.0:
        raise ValueError("analytic solution needs gamma > 0 and omega0 > 0")
    Omega = cmath.sqrt(complex(p.gamma ** 2 - p.omega0 ** 2))
    eq = equilibrium_moments(p, d)
    V, _ = _mode_matrix(p, Omega)
    rhs = np.array([s0.q2 - eq.q2, s0.p2 - eq.p2, s0.qp - eq.qp], dtype=complex)
    try:
        C = np.linalg.solve(V, rhs)
    except np.linalg.LinAlgError as exc:
        raise StateError(f"singular mode system at {p!r}: {exc}") from exc
    c2_ref = c2_closed_form(s0, p, d) if Omega else None
    return AnalyticCoefficients(C[0], C[1], C[2], Omega, eq, c2_ref)


def _shc(s):
    """sinh(sqrt(s))/sqrt(s) for real |s| <= 4 (sin(sqrt(-s))/sqrt(-s) for
    s < 0), summed as its Taylor series in s."""
    out = 1.0
    for k in range(12, 0, -1):
        out = 1.0 + s * out / (2 * k * (2 * k + 1))
    return out


def _expm1(z: np.ndarray) -> np.ndarray:
    """exp(z) - 1 of a complex array without the cancellation of exp(z) - 1."""
    a, b = z.real, z.imag
    return np.expm1(a) * np.cos(b) - 2.0 * np.sin(0.5 * b) ** 2 + 1j * (np.exp(a) * np.sin(b))


# an overflow (1/M near 1e300, say) leaves inf or nan in the result, which
# callers check; numpy need not warn about it as well
@np.errstate(over="ignore", invalid="ignore")
def analytic_solution(
    s0: MomentState, p: SystemParams, d: DiffusionConstants, t
) -> Union[MomentState, MomentTrajectory]:
    """Moments at time t from the exact solution, for every omega0 >= 0.

    With y = (q2, p2, qp) and y' = A y + b, y(t) = y0 + h(A)(A y0 + b) for
    h(x) = (e^{xt} - 1)/x.  B = A + 2*gamma*I has the spectrum
    {0, +/-2*Omega}, so B^3 = 4*Omega^2*B and h(A) = c0 + c1*B + c2*B^2 (Putzer,
    Amer. Math. Monthly 73, 2 (1966)), where c0, c1, c2 are the divided
    differences h[x0], h[x+, x-], h[x0, x+, x-] at x0 = -2*gamma and
    x+/- = x0 +/- 2*Omega.  The Leibniz rule for x*h(x) = e^{xt} - 1 divides
    each only by x0 or x-, which never vanish, so one real form covers
    critical damping and the free particle.  ``t`` may be an array of times:
    the result is then a MomentTrajectory on those times, each row equal to
    the call for its time alone.
    """
    ts = np.asarray(t, dtype=float).reshape(-1)
    M, g, w = p.M, p.gamma, p.omega0
    A = np.array([[0.0, 0.0, 1.0 / M], [0.0, -4.0 * g, -M * w ** 2],
                  [-2.0 * M * w ** 2, 2.0 / M, -2.0 * g]])
    y0 = np.array([s0.q2, s0.p2, s0.qp], dtype=float)
    v = A @ y0 + np.array([2.0 * d.Dqq, 2.0 * d.Dpp, -4.0 * d.Dpq])
    Bv = v @ A.T + 2.0 * g * v
    om2 = (g - w) * (g + w)  # Omega^2
    x0, Om = -2.0 * g, cmath.sqrt(om2)
    xp = -2.0 * w * w / (g + Om) if g >= w else x0 + 2.0 * Om
    xm = x0 - 2.0 * Om
    hp = ts + 0j if xp == 0.0 else _expm1(xp * ts) / xp  # h(0) = t: the free particle
    hm = _expm1(xm * ts) / xm
    # E1 = e^{x0 t} sinh(2 Omega t)/2 Omega, E2 = e^{x0 t}(cosh 2 Omega t - 1)/4 Omega^2:
    # series while |Omega t| < 1, then exponentials (e^{x0 t} sinh would be 0 * inf)
    s = om2 * ts * ts
    far = np.abs(s) >= 1.0
    sn = np.clip(s, -1.0, 1.0)
    e0, ep, em = np.exp(x0 * ts), np.exp(xp * ts), np.exp(xm * ts)
    den = Om or 1.0  # no time is far when Omega = 0
    E1 = np.where(far, ((ep - em) / (4.0 * den)).real, e0 * ts * _shc(4.0 * sn))
    E2 = np.where(far, ((ep + em - 2.0 * e0) / (8.0 * den * den)).real,
                  0.5 * e0 * ts * ts * _shc(sn) ** 2)
    c0 = np.expm1(x0 * ts) / x0
    c1 = (E1 - 0.5 * (hp + hm).real) / x0
    c2 = ((E2 - (E1 - hp) / xm) / x0).real
    BBv = Bv @ A.T + 2.0 * g * Bv
    y = y0 + c0[:, None] * v + c1[:, None] * Bv + c2[:, None] * BBv
    if np.ndim(t) == 0:
        return MomentState(float(y[0, 0]), float(y[0, 1]), float(y[0, 2]), t=t)
    return MomentTrajectory(ts, y[:, 0], y[:, 1], y[:, 2])


def free_particle_longtime(
    s0: MomentState,
    gamma: float,
    T: float,
    t,
    M: float = 1.0,
    hbar: float = 1.0,
    kB: float = 1.0,
) -> Union[MomentState, MomentTrajectory]:
    """Free-particle moments: ``analytic_solution`` at omega0 = 0.

    Long-time behaviour: <p^2> -> M hbar gamma coth(hbar gamma / kB T) and
    <q^2> grows diffusively with slope kB*T/(M*gamma).  ``t`` may be an array
    of times, as in ``analytic_solution``.
    """
    p = SystemParams(omega0=0.0, T=T, gamma=gamma, M=M, hbar=hbar, kB=kB)
    return analytic_solution(s0, p, diffusion_constants(p), t)
