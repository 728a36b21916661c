"""Second-moment dynamics of the master equation.

The three coupled ODEs for <q^2>, <p^2>, <qp+pq> close among themselves; this
module provides the exact modal solution (decay rates 2*gamma, 2*(gamma -/+
Omega)), an independent fixed-step RK4 integrator, the equilibrium fixed
point, and the omega0 -> 0 free-particle recovery.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Optional, TextIO, Union

import numpy as np

from .core import (
    CRITICAL_NUDGE,
    NoEquilibriumError,
    StateError,
    StepSizeError,
    SystemParams,
    _holds,
)
from .diffusion import DiffusionConstants, diffusion_constants

CSV_FLOAT_FMT = "%.17g"


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

    def write_csv(self, f: Union[str, TextIO]) -> None:
        """Header ``t,q2,p2,qp``, one row per sample, 17 significant digits."""
        if isinstance(f, str):
            with open(f, "w", newline="") as fh:
                self.write_csv(fh)
            return
        f.write("t,q2,p2,qp\r\n")
        for i in range(len(self)):
            row = (self.t[i], self.q2[i], self.p2[i], self.qp[i])
            f.write(",".join(CSV_FLOAT_FMT % v for v in row) + "\r\n")


@dataclass(frozen=True)
class AnalyticCoefficients:
    """Integration constants of the modal solution.

    The decay modes are exp(-2*gamma*t), exp(-2*(gamma-Omega)*t),
    exp(-2*(gamma+Omega)*t) with coefficients C1, C2, C3 fixed by the t=0
    moments.  ``c2_reference`` is the independent closed form of C2 (None at
    critical damping, where it divides by Omega^3).
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
    # np.float_power rounds as the float ** operator does (libm pow)
    w2 = np.float_power(p.omega0, 2) if p.shape else p.omega0 ** 2
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
    """Solve the 3x3 linear system matching the modal solution to s0 at t=0.

    C2 is cross-checked against its printed closed form away from critical
    damping (stored in ``c2_reference``; the caller decides what gap to
    tolerate).
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
    c2_ref = None if p.is_critical() else c2_closed_form(s0, p, d)
    return AnalyticCoefficients(C[0], C[1], C[2], Omega, eq, c2_ref)


def _modal_moments(s0: MomentState, p: SystemParams, d: DiffusionConstants,
                   t: np.ndarray) -> np.ndarray:
    """(len(t), 3) complex moments (q2, p2, qp) of the modal solution, from
    one coefficient solve.  Each row is V @ (C * exp(rates * t)), the same
    matrix-vector product per time, so a row does not depend on the other
    times in ``t``."""
    co = analytic_coefficients(s0, p, d)
    V, rates = _mode_matrix(p, co.Omega)
    C = np.array([co.C1, co.C2, co.C3])
    eq = np.array([co.equilibrium.q2, co.equilibrium.p2, co.equilibrium.qp], dtype=complex)
    modes = C * np.exp(rates * t[:, None])
    return eq + (V @ modes[:, :, None])[:, :, 0]


def analytic_solution(
    s0: MomentState, p: SystemParams, d: DiffusionConstants, t
) -> Union[MomentState, MomentTrajectory]:
    """Moments at time t from the exact modal solution.

    ``t`` may be an array of times: the result is then a MomentTrajectory
    on those times, from one coefficient solve, equal to the calls for one
    time at a time.  At critical damping (lambda2 - lambda1 = 0) the result
    is the two-sided average of evaluations at omega0*(1 +/- 1e-7);
    elsewhere the conjugate decay modes cancel to a real answer with residue
    below ~1e-9.
    """
    ts = np.asarray(t, dtype=float).reshape(-1)
    if p.is_critical():
        hi = _modal_moments(s0, replace(p, omega0=p.omega0 * (1.0 + CRITICAL_NUDGE)), d, ts)
        lo = _modal_moments(s0, replace(p, omega0=p.omega0 * (1.0 - CRITICAL_NUDGE)), d, ts)
        vec = 0.5 * (hi + lo)
    else:
        vec = _modal_moments(s0, p, d, ts)
    if np.ndim(t) == 0:
        return MomentState(vec[0, 0].real, vec[0, 1].real, vec[0, 2].real, t=t)
    return MomentTrajectory(ts, vec[:, 0].real, vec[:, 1].real, vec[:, 2].real)


def free_particle_longtime(
    s0: MomentState,
    gamma: float,
    T: float,
    t,
    M: float = 1.0,
    hbar: float = 1.0,
    kB: float = 1.0,
) -> Union[MomentState, MomentTrajectory]:
    """Free-particle moments via the omega0 -> 0 limit of the oscillator solution.

    Evaluates the full analytic solution at omega0 = 1e-6*gamma and
    1e-6*gamma/sqrt(2) and Richardson-extrapolates in omega0^2.  Long-time
    behaviour: <p^2> -> M hbar gamma coth(hbar gamma / kB T) and <q^2> grows
    diffusively with slope kB*T/(M*gamma).  ``t`` may be an array of times,
    as in ``analytic_solution``; the diffusion constants are then computed
    once per omega0, not once per time.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")

    def at(omega0: float):
        p = SystemParams(omega0=omega0, T=T, gamma=gamma, M=M, hbar=hbar, kB=kB)
        return analytic_solution(s0, p, diffusion_constants(p), t)

    w = 1e-6 * gamma
    f_h = at(w)                      # step h = w^2 in the omega0^2 expansion
    f_h2 = at(w / math.sqrt(2.0))    # step h/2
    q2, p2, qp = (2.0 * f_h2.q2 - f_h.q2, 2.0 * f_h2.p2 - f_h.p2, 2.0 * f_h2.qp - f_h.qp)
    if isinstance(f_h, MomentState):
        return MomentState(q2, p2, qp, t=t)
    return MomentTrajectory(f_h.t, q2, p2, qp)
