"""Dimensionless dissipation coefficients alpha and alpha' (and the
free-particle limit alpha'_0) obtained from resumming the bath memory over
classical paths.

All diffusion constants downstream are products of kB*T*gamma with these two
numbers.  ``alpha`` is dimensionless; ``alpha_prime`` carries 1/frequency^2
from its (lambda2 - lambda1)^-2 prefactor.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .core import (
    CRITICAL_NUDGE,
    SystemParams,
    TemperatureError,
    cdiv,
    cmul,
    decay_rates,
    xcothx_m1,
)

logger = logging.getLogger(__name__)

_TINY = 1e-300


class CutoffMode(Enum):
    FINITE = "finite"
    INFINITE = "infinite"


@dataclass(frozen=True)
class AlphaPair:
    """alpha, alpha' and the size of the imaginary residue discarded.

    For underdamped systems the two complex decay modes enter as a conjugate
    pair, so both coefficients are real up to rounding; ``residual_imag`` is
    the larger relative imaginary part that was dropped.  ``alpha_arrays``
    returns the same record with array fields; its ``cutoff_mode`` is
    INFINITE only when no element has a finite cutoff.
    """

    alpha: float
    alpha_prime: float
    cutoff_mode: CutoffMode
    residual_imag: float


def _bracket(z: np.ndarray, lam: np.ndarray, omega_c: Optional[np.ndarray]) -> np.ndarray:
    """One coth bracket: xcothx(z) - 1, with the extra 1/(1 + lam^2/omega_c^2)
    denominator on the xcothx part at finite cutoff.  ``omega_c`` None means
    no element has a finite cutoff; at omega_c = inf the correction is
    exactly zero, so skipping it changes no bit."""
    x = xcothx_m1(z)
    if omega_c is None:
        return x
    q = cdiv(lam, omega_c.astype(complex))
    d = cmul(q, q)
    return cdiv(x - d, 1.0 + d)


def _alpha_raw(w, T, g, wc, hbar, kB) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the three-bracket closed forms on 1-D parameter arrays
    (``wc`` None when no element has a finite cutoff).

    sqrt(lambda1*lambda2) is resolved to +omega0 (principal value; the product
    is omega0^2 exactly, and evenness of xcothx makes the sign immaterial).
    At omega0 = 0, lambda1 = 0: the first and middle brackets vanish and
    alpha -> 1; only the lambda2 = -2*gamma bracket survives in alpha'.
    """
    l1, l2 = decay_rates(w, g)[:2]
    s = hbar / (2.0 * kB * T)
    b1 = _bracket(l1 * s, l1, wc)
    bm = _bracket(w * s, w.astype(complex), wc)
    b2 = _bracket(l2 * s, l2, wc)

    d2 = cmul(l2 - l1, l2 - l1)
    prod = w * w  # lambda1*lambda2
    # at omega0 = 0 these terms are 0/0; the branch below replaces them
    terms = (cdiv(b1, cmul(l1, l1)) - cdiv(2.0 * bm, prod.astype(complex))
             + cdiv(b2, cmul(l2, l2)))
    alpha = 1.0 + cmul(cdiv((prod * prod).astype(complex), d2), terms)
    alpha = np.where(w == 0.0, 1.0 + 0.0j, alpha)
    alpha_prime = cdiv(b1 - 2.0 * bm + b2, d2)
    return alpha, alpha_prime


def alpha_arrays(p: SystemParams) -> AlphaPair:
    """Dissipation coefficients of every system of a batch (see SystemParams),
    as an AlphaPair of arrays of shape ``p.shape``.

    Raises TemperatureError if any T = 0 (the coth arguments diverge) and
    PoleError if any coth argument meets a pole.  At critical damping the
    formulas divide by (lambda2 - lambda1); those elements, and only those,
    take the two-sided average at omega0*(1 +/- 1e-7), accurate to ~1e-6.
    """
    shape = p.shape
    w, T, g, wc, hbar, kB = (np.broadcast_to(np.asarray(v, dtype=float), shape).ravel()
                             for v in (p.omega0, p.T, p.gamma, p.omega_c, p.hbar, p.kB))
    if np.any(T <= 0.0):
        raise TemperatureError("alpha, alpha' are only defined for T > 0")

    infinite = bool(np.all(np.isinf(wc)))
    if infinite:
        wc = None
    crit = np.flatnonzero(np.broadcast_to(p.is_critical(), shape))
    w_hi = w.copy()
    w_hi[crit] *= 1.0 + CRITICAL_NUDGE
    # omega0 = 0 elements divide 0 by 0 on the way and are replaced; an
    # overflow is no error, as in Python's float arithmetic
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a, ap = _alpha_raw(w_hi, T, g, wc, hbar, kB)
        if crit.size:
            a_lo, ap_lo = _alpha_raw(w[crit] * (1.0 - CRITICAL_NUDGE), T[crit], g[crit],
                                     None if infinite else wc[crit], hbar[crit], kB[crit])
            a[crit] = 0.5 * (a[crit] + a_lo)
            ap[crit] = 0.5 * (ap[crit] + ap_lo)

    residual = np.maximum(np.abs(a.imag) / np.maximum(np.abs(a.real), _TINY),
                          np.abs(ap.imag) / np.maximum(np.abs(ap.real), _TINY))
    mode = CutoffMode.INFINITE if infinite else CutoffMode.FINITE
    if logger.isEnabledFor(logging.DEBUG):
        # routine below the breakdown temperature; the positivity module, not
        # this one, decides what negative coefficients mean physically
        bad = np.count_nonzero((a.real <= 0.0) | (ap.real < 0.0))
        if bad:
            logger.debug("non-positive coefficients at %d of %d points", bad, w.size)
    return AlphaPair(a.real.reshape(shape), ap.real.reshape(shape), mode,
                     residual.reshape(shape))


def alpha_pair(p: SystemParams) -> AlphaPair:
    """Dissipation coefficients of one system, as floats; ``alpha_arrays``
    evaluates a batch."""
    if p.shape:
        raise ValueError("alpha_pair takes one system; use alpha_arrays for a batch")
    ab = alpha_arrays(p)
    return AlphaPair(float(ab.alpha), float(ab.alpha_prime), ab.cutoff_mode,
                     float(ab.residual_imag))


def alpha_prime_free(gamma: float, T: float, hbar: float = 1.0, kB: float = 1.0) -> float:
    """Free-particle coefficient alpha'_0 = [x coth x - 1]/(4 gamma^2),
    x = hbar*gamma/(kB*T)."""
    if T <= 0.0:
        raise TemperatureError("alpha'_0 is only defined for T > 0")
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    x = hbar * gamma / (kB * T)
    return xcothx_m1(x).real / (4.0 * gamma * gamma)
