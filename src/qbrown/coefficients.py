"""Dimensionless dissipation coefficients alpha and alpha' (and the
free-particle limit alpha'_0) obtained from resumming the bath memory over
classical paths.

All diffusion constants downstream are products of kB*T*gamma with these two
numbers.  ``alpha`` is dimensionless; ``alpha_prime`` carries 1/frequency^2
from its (lambda2 - lambda1)^-2 prefactor.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    CRITICAL_TOL,
    SystemParams,
    TemperatureError,
    cdiv,
    cmul,
    decay_rates,
    xcothx_m1,
    xcothx_m1_scalar,
)

logger = logging.getLogger(__name__)

_TINY = 1e-300
# two-sided relative omega0 nudge used to evaluate formulas that divide by
# (lambda2 - lambda1) at critical damping
CRITICAL_NUDGE = 1e-7


@dataclass(frozen=True)
class AlphaPair:
    """alpha, alpha' and the size of the imaginary residue discarded.

    For underdamped systems the two complex decay modes enter as a conjugate
    pair, so both coefficients are real up to rounding; ``residual_imag`` is
    the larger relative imaginary part that was dropped.  ``alpha_arrays``
    returns the same record with array fields.
    """

    alpha: float
    alpha_prime: float
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
    alpha takes the value 1 wherever lambda1^2 is zero, which includes
    omega0 > 0 so small that lambda1^2 underflows (omega0 below
    ~1e-81*sqrt(2*gamma)): there the formula would divide 0 by 0, and its
    terms are far below one ulp of 1.
    """
    l1, l2 = decay_rates(w, g)[:2]
    s = hbar / (2.0 * kB * T)
    b1 = _bracket(l1 * s, l1, wc)
    bm = _bracket(w * s, w.astype(complex), wc)
    b2 = _bracket(l2 * s, l2, wc)

    d2 = cmul(l2 - l1, l2 - l1)
    l1sq = cmul(l1, l1)
    prod = w * w  # lambda1*lambda2
    # where lambda1^2 = 0 these terms are 0/0; the branch below replaces them
    terms = (cdiv(b1, l1sq) - cdiv(2.0 * bm, prod.astype(complex))
             + cdiv(b2, cmul(l2, l2)))
    alpha = 1.0 + cmul(cdiv((prod * prod).astype(complex), d2), terms)
    alpha = np.where(l1sq == 0.0, 1.0 + 0.0j, alpha)
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
    if logger.isEnabledFor(logging.DEBUG):
        # routine below the breakdown temperature; the positivity module, not
        # this one, decides what negative coefficients mean physically
        bad = np.count_nonzero((a.real <= 0.0) | (ap.real < 0.0))
        if bad:
            logger.debug("non-positive coefficients at %d of %d points", bad, w.size)
    return AlphaPair(a.real.reshape(shape), ap.real.reshape(shape), residual.reshape(shape))


def alpha_scalar(w: float, T: float, g: float, wc: float, hbar: float,
                 kB: float) -> tuple[float, float, float]:
    """alpha, alpha' and residual_imag of one system in Python ``complex``
    arithmetic: the same closed forms, branches and rounding as
    ``alpha_arrays``, without numpy's fixed cost per call."""
    w, T, g, wc, hbar, kB = float(w), float(T), float(g), float(wc), float(hbar), float(kB)
    if T <= 0.0:
        raise TemperatureError("alpha, alpha' are only defined for T > 0")
    finite = wc != math.inf

    def bracket(z: complex, lam: complex) -> complex:
        x = xcothx_m1_scalar(z)
        if not finite:
            return x
        d = (lam / wc) ** 2
        return (x - d) / (1.0 + d)

    def raw(w: float) -> tuple[complex, complex]:
        Om = cmath.sqrt(complex(g * g - w * w))
        l1 = -(w * w) / (g + Om) if g >= w else -g + Om
        l2 = -g - Om
        s = hbar / (2.0 * kB * T)
        b1, bm, b2 = bracket(l1 * s, l1), bracket(w * s, complex(w)), bracket(l2 * s, l2)
        d2 = (l2 - l1) ** 2
        alpha_prime = (b1 - 2.0 * bm + b2) / d2
        if l1 * l1 == 0.0:
            return 1.0 + 0.0j, alpha_prime
        prod = w * w
        alpha = 1.0 + (prod * prod / d2) * (b1 / (l1 * l1) - 2.0 * bm / prod + b2 / (l2 * l2))
        return alpha, alpha_prime

    if abs(g - w) <= CRITICAL_TOL * g:
        (a_hi, ap_hi), (a_lo, ap_lo) = (raw(w * (1.0 + CRITICAL_NUDGE)),
                                        raw(w * (1.0 - CRITICAL_NUDGE)))
        a, ap = 0.5 * (a_hi + a_lo), 0.5 * (ap_hi + ap_lo)
    else:
        a, ap = raw(w)
    residual = max(abs(a.imag) / max(abs(a.real), _TINY),
                   abs(ap.imag) / max(abs(ap.real), _TINY))
    if (a.real <= 0.0 or ap.real < 0.0) and logger.isEnabledFor(logging.DEBUG):
        logger.debug("non-positive coefficients at 1 of 1 points")
    return a.real, ap.real, residual


def alpha_pair(p: SystemParams) -> AlphaPair:
    """Dissipation coefficients of one system, as floats, from
    ``alpha_scalar``; ``alpha_arrays`` evaluates a batch to the same bits."""
    if p.shape:
        raise ValueError("alpha_pair takes one system; use alpha_arrays for a batch")
    a, ap, residual = alpha_scalar(p.omega0, p.T, p.gamma, p.omega_c, p.hbar, p.kB)
    return AlphaPair(a, ap, residual)


def alpha_prime_free(gamma: float, T: float, hbar: float = 1.0, kB: float = 1.0) -> float:
    """Free-particle coefficient alpha'_0 = [x coth x - 1]/(4 gamma^2),
    x = hbar*gamma/(kB*T)."""
    if T <= 0.0:
        raise TemperatureError("alpha'_0 is only defined for T > 0")
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    x = hbar * gamma / (kB * T)
    return xcothx_m1(x).real / (4.0 * gamma * gamma)
