"""Dimensionless dissipation coefficients alpha and alpha' (and the
free-particle limit alpha'_0) obtained from resumming the bath memory over
classical paths.

All diffusion constants downstream are products of kB*T*gamma with these two
numbers.  ``alpha`` is dimensionless; ``alpha_prime`` carries 1/frequency^2
from its (lambda2 - lambda1)^-2 prefactor.

``alpha_scalar`` evaluates the closed forms in Python ``complex`` arithmetic
and is the reference.  ``alpha_arrays`` reproduces its real parts bit for
bit while keeping complex arithmetic only where a value is complex: the
lambda1 bracket of an underdamped system.  Its conjugate, the lambda2
bracket, is read off the lambda1 bracket (see ``core`` on conjugate
symmetry), and everything else is real.
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
    _xcothx_m1_real,
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
    pair, so both coefficients are real; ``residual_imag`` is the larger
    relative imaginary part that was dropped.  The conjugate terms cancel
    exactly, so it is 0.0 for every finite element on both paths; the
    array path, which never forms the imaginary parts, gives 0.0 where
    alpha and alpha' are finite and NaN elsewhere.  ``alpha_arrays`` returns
    the same record with array fields.
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


def _bracket_real(x: np.ndarray, lam: np.ndarray, omega_c: Optional[np.ndarray]) -> np.ndarray:
    """``_bracket`` of a real argument and real lam, as the real part of the
    complex form: every imaginary part there is an exact zero."""
    b = _xcothx_m1_real(x)
    if omega_c is None:
        return b
    q = lam / omega_c
    d = q * q
    return (b - d) / (1.0 + d)


def _alpha_raw(w, T, g, wc, hbar, kB) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the three-bracket closed forms on parameter arrays that
    broadcast against each other (``wc`` None when no element has a finite
    cutoff).  The decay rates and every factor that depends on omega0 and
    gamma alone are computed once at the broadcast shape of ``w`` and ``g``.

    sqrt(lambda1*lambda2) is resolved to +omega0 (principal value; the product
    is omega0^2 exactly, and evenness of xcothx makes the sign immaterial).
    At omega0 = 0, lambda1 = 0: the first and middle brackets vanish and
    alpha -> 1; only the lambda2 = -2*gamma bracket survives in alpha'.
    alpha takes the value 1 wherever lambda1^2 is zero, which includes
    omega0 > 0 so small that lambda1^2 underflows (omega0 below
    ~1e-81*sqrt(2*gamma)): there the formula would divide 0 by 0, and its
    terms are far below one ulp of 1.

    Only b1 and b1/lambda1^2 are complex.  The omega0 bracket is real; so is
    the lambda2 bracket where gamma >= omega0.  Where gamma < omega0,
    lambda2 = conj(lambda1), and the emulated products and quotients and the
    complex exponential round a conjugate argument to the conjugate result,
    so b2 = conj(b1) and b2/lambda2^2 = conj(b1/lambda1^2) bit for bit.  The
    imaginary parts of ``terms`` and of the numerator of alpha' then cancel
    exactly, d2 = (lambda2 - lambda1)^2 is real, and alpha, alpha' are the
    real parts of the complex closed forms, in the same order of operations.
    """
    l1, l2 = decay_rates(w, g)[:2]
    pair = g < w  # lambda1,2 a conjugate pair
    s = hbar / (2.0 * kB * T)
    b1 = _bracket(l1 * s, l1, wc)
    bm = _bracket_real(w * s, w, wc)
    b2 = np.where(pair, b1.real, _bracket_real(l2.real * s, l2.real, wc))

    dr, di = l2.real - l1.real, l2.imag - l1.imag
    d2 = dr * dr - di * di
    l1sq = cmul(l1, l1)
    prod = w * w  # lambda1*lambda2
    t1 = cdiv(b1, l1sq).real
    # where lambda1^2 = 0 these terms are 0/0; alpha is 1 there instead
    terms = t1 - 2.0 * bm / prod + np.where(pair, t1, b2 / (l2.real * l2.real))
    alpha = np.where(l1sq == 0.0, 1.0, 1.0 + prod * prod / d2 * terms)
    alpha_prime = (b1.real - 2.0 * bm + b2) / d2
    return alpha, alpha_prime


def alpha_arrays(p: SystemParams) -> AlphaPair:
    """Dissipation coefficients of every system of a batch (see SystemParams),
    as an AlphaPair of contiguous arrays of shape ``p.shape``.

    The fields keep their own shapes and broadcast, so work that depends on
    omega0 and gamma alone is done once per (omega0, gamma) element: a
    (rows, 1) ratio against a (1, columns) temperature computes the decay
    rates for ``rows`` systems only.

    Raises TemperatureError if any T = 0 (the coth arguments diverge) and
    PoleError if any coth argument meets a pole.  At critical damping the
    formulas divide by (lambda2 - lambda1); those elements, and only those,
    take the two-sided average at omega0*(1 +/- 1e-7), accurate to ~1e-6.
    """
    shape = p.shape
    w, T, g, wc, hbar, kB = (np.asarray(v, dtype=float)
                             for v in (p.omega0, p.T, p.gamma, p.omega_c, p.hbar, p.kB))
    if np.any(T <= 0.0):
        raise TemperatureError("alpha, alpha' are only defined for T > 0")

    infinite = bool(np.all(np.isinf(wc)))
    if infinite:
        wc = None
    crit = np.asarray(p.is_critical())  # at the (omega0, gamma) shape
    # omega0 = 0 elements divide 0 by 0 on the way and are replaced; an
    # overflow is no error, as in Python's float arithmetic
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a, ap = map(np.asarray, _alpha_raw(np.where(crit, w * (1.0 + CRITICAL_NUDGE), w),
                                           T, g, wc, hbar, kB))
        if crit.any():
            at = np.broadcast_to(crit, a.shape)
            w_lo, T_lo, g_lo, wc_lo, hbar_lo, kB_lo = (
                None if v is None else np.broadcast_to(v, a.shape)[at]
                for v in (w, T, g, wc, hbar, kB))
            a_lo, ap_lo = _alpha_raw(w_lo * (1.0 - CRITICAL_NUDGE), T_lo, g_lo, wc_lo,
                                     hbar_lo, kB_lo)
            a[at] = 0.5 * (a[at] + a_lo)
            ap[at] = 0.5 * (ap[at] + ap_lo)

    # a field that takes no part here (M) may broadcast to a larger shape
    a, ap = (np.array(np.broadcast_to(v, shape), order="C", copy=None) for v in (a, ap))
    # alpha and alpha' are real expressions: nothing imaginary is dropped
    residual = np.where(np.isfinite(a) & np.isfinite(ap), 0.0, np.nan)
    if logger.isEnabledFor(logging.DEBUG):
        # routine below the breakdown temperature; the positivity module, not
        # this one, decides what negative coefficients mean physically
        bad = np.count_nonzero((a <= 0.0) | (ap < 0.0))
        if bad:
            logger.debug("non-positive coefficients at %d of %d points", bad, a.size)
    return AlphaPair(a, ap, residual)


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
