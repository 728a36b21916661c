"""Diffusion constants of the master equation, the positivity functional
Delta, and the breakdown-temperature solver.

The Dekker-Valsakumar condition Delta = Dpp*Dqq - Dpq^2 - hbar^2 gamma^2/4 > 0
holds only above a breakdown temperature T_c(omega0/gamma); below it the
derived master equation stops being positivity preserving.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coefficients import AlphaPair, alpha_arrays
from .core import BracketError, SystemParams, TemperatureError, _batch, _holds, _unbatch

logger = logging.getLogger(__name__)

DEFAULT_TC_BRACKET = (1e-3, 1e3)

# elements per Delta evaluation in the T_c solver.  The kernel holds ~360
# bytes of temporaries an element: on the benchmark's tc_curve workload
# blocks of 2048 kept peak RSS at the scalar solver's 33.4 MB, 4096 raised
# it by ~1 MB at the same speed, and 1024 was ~25% slower
_TC_BLOCK = 2048


@dataclass(frozen=True)
class DiffusionConstants:
    """Dpp (decoherence), Dqq (position diffusion), Dpq (anomalous) plus the
    coefficients and parameters they came from.

    The algebraic ties Dpq = 4 kB T gamma^2 a', Dqq = 2 kB T gamma a'/M,
    Dpp = 2 kB T M gamma (a + 4 gamma^2 a') are reproducible bit-for-bit from
    ``source``.  ``source``/``params`` are None for hand-built instances.
    For a batch of systems every field is an array.
    """

    Dpp: float
    Dqq: float
    Dpq: float
    source: Optional[AlphaPair] = None
    params: Optional[SystemParams] = None


@dataclass(frozen=True)
class PositivityReport:
    delta: float
    positive: bool
    T: float
    params: Optional[SystemParams]


def diffusion_constants(p: SystemParams) -> DiffusionConstants:
    """Full (non-perturbative) diffusion constants at temperature T > 0.

    For a batch of systems (array fields, see SystemParams) the constants
    are arrays, from one ``alpha_arrays`` evaluation.
    """
    ab = alpha_arrays(p)
    kT = p.kB * p.T
    g = p.gamma
    Dpq = 4.0 * kT * g * g * ab.alpha_prime
    Dqq = 2.0 * kT * g * ab.alpha_prime / p.M
    Dpp = 2.0 * kT * p.M * g * (ab.alpha + 4.0 * g * g * ab.alpha_prime)
    return DiffusionConstants(Dpp, Dqq, Dpq, ab, p)


def high_t_diffusion(p: SystemParams) -> DiffusionConstants:
    """Closed high-temperature forms, independent of omega0.

    Useful as an asymptotic oracle: the full constants converge to these to
    better than 1% once kB*T >~ 50 hbar*max(gamma, omega0).  A batch of
    systems gives array fields.
    """
    if not _holds(p.T > 0.0):
        raise TemperatureError("high-T diffusion constants need T > 0")
    kT = p.kB * p.T
    g = p.gamma
    h = p.hbar
    Dpp = 2.0 * kT * p.M * g * (1.0 + h * h * g * g / (3.0 * kT * kT))
    Dqq = h * h * g / (6.0 * p.M * kT)
    Dpq = h * h * g * g / (3.0 * kT)
    return DiffusionConstants(Dpp, Dqq, Dpq, None, p)


def positivity_delta(d: DiffusionConstants) -> PositivityReport:
    """Delta = Dpp*Dqq - Dpq^2 - hbar^2 gamma^2 / 4.

    Where all three contributions are within 1e6x of each other, hbar^2
    gamma^2 is factored out before subtracting so the high-temperature limit
    hbar^2 gamma^2 / 12 is not lost to cancellation.  Array-valued constants
    give array-valued ``delta`` and ``positive``.
    """
    if d.params is None:
        raise ValueError("positivity_delta needs DiffusionConstants with params attached")
    p = d.params
    # one system is evaluated as one-element arrays (see core)
    Dpp, Dqq, Dpq, hg = (_batch(v) for v in (d.Dpp, d.Dqq, d.Dpq, p.hbar * p.gamma))
    pq = Dpp * Dqq
    a = pq / (hg * hg)
    b = Dpq / hg
    b = b * b  # >= 0
    factored = np.maximum(np.abs(a), b) < 1e6
    delta = (a - b - 0.25) * hg * hg
    if np.count_nonzero(factored) < factored.size:
        delta = np.where(factored, delta, pq - Dpq * Dpq - 0.25 * hg * hg)
    delta = _unbatch(delta, p.shape)
    return PositivityReport(delta, delta > 0.0, p.T, p)


def _delta_dimensionless(ratio, theta, hbar: float, kB: float) -> np.ndarray:
    """Delta/(hbar*gamma)^2 at omega0/gamma = ratio, kB*T/(hbar*gamma) = theta,
    on arrays that broadcast against each other.  A (rows, 1) ratio against
    theta of shape (1, k) or (rows, k) computes the decay rates once per row."""
    p = SystemParams(omega0=ratio, T=theta * hbar / kB, gamma=1.0, M=1.0, hbar=hbar, kB=kB)
    return positivity_delta(diffusion_constants(p)).delta / (hbar * hbar)


def _delta_rows(ratio: np.ndarray, theta: np.ndarray, hbar: float, kB: float) -> np.ndarray:
    """_delta_dimensionless of each ratio (n,) against its row of theta (n, k),
    about _TC_BLOCK elements per evaluation."""
    out = np.empty(theta.shape)
    rows = max(1, _TC_BLOCK // theta.shape[1])
    for start in range(0, ratio.size, rows):
        block = slice(start, start + rows)
        out[block] = _delta_dimensionless(ratio[block, None], theta[block], hbar, kB)
    return out


def breakdown_temperature(
    omega0_over_gamma,
    hbar: float = 1.0,
    kB: float = 1.0,
    bracket: tuple[float, float] = DEFAULT_TC_BRACKET,
    scan_points: int = 200,
    rtol: float = 1e-10,
):
    """kB*T_c/(hbar*gamma) at which Delta crosses zero.

    Scans ``scan_points`` log-spaced temperatures over ``bracket`` first and
    requires exactly one sign change (BracketError, carrying the scan table,
    otherwise), then bisects in log-temperature to relative width ``rtol``.

    ``omega0_over_gamma`` may be an array of ratios; the result is then an
    array of the same shape, a scalar ratio gives a float.  All ratios share
    one blocked scan and one bisection that moves them in lockstep, each with
    its own stopping rule, so every T_c equals that of a solve on its own.
    Each Delta evaluation of the bisection serves two levels: it takes every
    ratio's midpoint and both midpoints the next level can reach.
    """
    ratios = np.asarray(omega0_over_gamma, dtype=float)
    if not np.all((ratios > 0.0) & (ratios < math.inf)):
        raise ValueError("omega0_over_gamma must be finite and positive")
    r = ratios.reshape(-1)
    thetas = np.geomspace(bracket[0], bracket[1], scan_points)
    # the scan goes a block of ratios at a time, so no (ratios x scan_points)
    # table is ever held: each ratio keeps its crossing index and Delta there
    i = np.empty(r.size, dtype=int)
    flo = np.empty(r.size)
    rows = max(1, _TC_BLOCK // scan_points)
    for start in range(0, r.size, rows):
        block = r[start:start + rows]
        deltas = _delta_dimensionless(block[:, None], thetas, hbar, kB)
        crosses = (deltas[:, :-1] == 0.0) | (deltas[:, :-1] * deltas[:, 1:] < 0.0)
        counts = np.count_nonzero(crosses, axis=1)
        bad = np.flatnonzero(counts != 1)
        if bad.size:
            j = bad[0]
            raise BracketError(
                f"expected exactly one sign change of Delta for omega0/gamma="
                f"{block[j]:g} in {bracket}, found {counts[j]}",
                scan=list(zip(thetas.tolist(), deltas[j].tolist())),
            )
        first = np.argmax(crosses, axis=1)
        i[start:start + rows] = first
        flo[start:start + rows] = deltas[np.arange(block.size), first]

    lo, hi = thetas[i], thetas[i + 1]
    # every level evaluates all ratios, finished ones included (they finish
    # within a level or two of each other), so the arrays keep one size; see
    # core.xcothx_m1 on numpy's small-buffer cache
    tc = np.zeros(r.size)
    exact = np.zeros(r.size, dtype=bool)    # Delta(mid) == 0 ended the search
    active = np.ones(r.size, dtype=bool)
    steps = np.zeros(r.size, dtype=int)
    calls = 0
    for level in range(200):
        active &= ~(hi - lo <= rtol * lo)
        if not active.any():
            break
        mid = np.sqrt(lo * hi)
        if level % 2 == 0:
            # the next level's midpoint is sqrt(lo*mid) or sqrt(mid*hi),
            # the very product it forms once lo or hi has moved to mid
            f = _delta_rows(r, np.stack((mid, np.sqrt(lo * mid), np.sqrt(mid * hi)), axis=1),
                            hbar, kB)
            calls += 1
            fmid = f[:, 0]
        else:
            fmid = np.where(right, f[:, 2], f[:, 1])
        steps += active
        hit = active & (fmid == 0.0)
        tc = np.where(hit, mid, tc)
        exact |= hit
        active &= ~hit
        same = (fmid < 0.0) == (flo < 0.0)
        right = active & same
        lo = np.where(right, mid, lo)
        flo = np.where(right, fmid, flo)
        hi = np.where(active & ~same, mid, hi)
    tc = np.where(exact, tc, np.sqrt(lo * hi))

    if logger.isEnabledFor(logging.DEBUG):
        # every ratio is evaluated at every scan point and at three
        # midpoints per bisection call
        lockstep = int(steps.max(initial=0))
        critical = np.count_nonzero(SystemParams(omega0=r, T=1.0).is_critical())
        logger.debug("T_c of %d ratios: scan crossing index %s, bisection iterations %s "
                     "(%d in lockstep, %d Delta calls), %d critical-nudged elements",
                     r.size, i.tolist(), steps.tolist(), lockstep, calls,
                     critical * (scan_points + 3 * calls))
    return float(tc[0]) if ratios.ndim == 0 else tc.reshape(ratios.shape)


def tc_curve(
    ratio_lo: float,
    ratio_hi: float,
    n_points: int,
    hbar: float = 1.0,
    kB: float = 1.0,
) -> list[tuple[float, float]]:
    """Breakdown-temperature curve (omega0/gamma, kB*T_c/hbar*gamma) at
    ``n_points`` log-spaced ratios, all solved in one batched
    ``breakdown_temperature`` call."""
    if not (0.0 < ratio_lo < ratio_hi):
        raise ValueError("need 0 < ratio_lo < ratio_hi")
    if n_points < 2:
        raise ValueError("need at least two points")
    ratios = np.geomspace(ratio_lo, ratio_hi, n_points)
    tcs = breakdown_temperature(ratios, hbar=hbar, kB=kB)
    return list(zip(ratios.tolist(), tcs.tolist()))
