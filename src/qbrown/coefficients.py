"""Dimensionless dissipation coefficients alpha and alpha' (and the
free-particle limit alpha'_0) obtained from resumming the bath memory over
classical paths.

All diffusion constants downstream are products of kB*T*gamma with these two
numbers.  ``alpha`` is dimensionless; ``alpha_prime`` carries 1/frequency^2
from its (lambda2 - lambda1)^-2 prefactor.

``alpha_arrays`` is the one evaluation of the closed forms, for a batch of
systems or for one (``alpha_pair``), in numpy arithmetic.  It keeps complex
arithmetic only where a value is complex: the lambda1 bracket of an
underdamped system.  Its conjugate, the lambda2 bracket, is read off the
lambda1 bracket (see ``core`` on conjugate symmetry), and everything else is
real.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    SystemParams,
    TemperatureError,
    _batch,
    _complex,
    _holds,
    _rates,
    _unbatch,
    _xcothx_m1_real,
    xcothx_m1,
)

logger = logging.getLogger(__name__)

# two-sided relative omega0 nudge used to evaluate formulas that divide by
# (lambda2 - lambda1) at critical damping
CRITICAL_NUDGE = 1e-7

_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class AlphaPair:
    """alpha, alpha' and the size of the imaginary residue discarded.

    For underdamped systems the two complex decay modes enter as a conjugate
    pair, so both coefficients are real; ``residual_imag`` is the larger
    relative imaginary part that was dropped.  The conjugate terms cancel
    exactly and the kernel never forms them, so it is 0.0 where alpha and
    alpha' are finite and NaN elsewhere.  The fields are floats for one
    system and arrays for a batch (see ``alpha_arrays``).
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
    q = lam / omega_c
    d = q * q
    return (x - d) / (1.0 + d)


def _bracket_real(x: np.ndarray, lam: np.ndarray, omega_c: Optional[np.ndarray]) -> np.ndarray:
    """``_bracket`` of a real argument and real lam, in real arithmetic."""
    b = _xcothx_m1_real(x)
    if omega_c is None:
        return b
    q = lam / omega_c
    d = q * q
    return (b - d) / (1.0 + d)


def _alpha_raw(w, s, g, wc) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the three-bracket closed forms on arrays of omega0,
    s = hbar/(2 kB T), gamma and omega_c that broadcast against each other
    (``wc`` None when no element has a finite cutoff).  The decay rates and
    every factor that depends on omega0 and gamma alone are computed once at
    the broadcast shape of ``w`` and ``g``.

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
    lambda2 = conj(lambda1), and numpy's complex products, quotients and
    exponential round a conjugate argument to the conjugate result, so
    b2 = conj(b1) and b2/lambda2^2 = conj(b1/lambda1^2) bit for bit.  The
    imaginary parts of ``terms`` and of the numerator of alpha' then cancel
    exactly, d2 = (lambda2 - lambda1)^2 is real, and alpha, alpha' are the
    real parts of the complex closed forms.
    """
    l1_re, om_re, om_im = _rates(w, g)
    l1 = _complex(l1_re, om_im)
    l2_re = -g - om_re  # Re lambda2
    pair = g < w  # lambda1,2 a conjugate pair
    b1 = _bracket(l1 * s, l1, wc)
    bm = _bracket_real(w * s, w, wc)
    b2 = np.where(pair, b1.real, _bracket_real(l2_re * s, l2_re, wc))

    dr, di = l2_re - l1_re, -2.0 * om_im  # lambda2 - lambda1
    d2 = dr * dr - di * di
    l1sq = l1 * l1
    prod = w * w  # lambda1*lambda2 = |lambda1^2|
    # numpy divides by a complex number through its reciprocal, which
    # overflows where |lambda1^2| is subnormal: there a pair divides by
    # lambda1 twice, and a real lambda1 takes a real quotient
    q = b1 / l1sq
    tiny = prod < _TINY
    if np.count_nonzero(tiny):
        q = np.where(tiny, b1 / l1 / l1, q)
    t1 = np.where(pair, q.real, b1.real / l1sq.real)
    bm2 = 2.0 * bm
    # where lambda1^2 = 0 these terms are 0/0; alpha is 1 there instead
    terms = t1 - bm2 / prod + np.where(pair, t1, b2 / (l2_re * l2_re))
    alpha = np.where(l1sq == 0.0, 1.0, 1.0 + prod * prod / d2 * terms)
    alpha_prime = (b1.real - bm2 + b2) / d2
    return alpha, alpha_prime


def alpha_arrays(p: SystemParams) -> AlphaPair:
    """Dissipation coefficients of every system of a batch (see SystemParams),
    as an AlphaPair of contiguous arrays of shape ``p.shape``; of a single
    system, as floats.

    The fields keep their own shapes and broadcast, so work that depends on
    omega0 and gamma alone is done once per (omega0, gamma) element: a
    (rows, 1) ratio against a (1, columns) temperature computes the decay
    rates for ``rows`` systems only.  A single system is evaluated as
    one-element arrays (see ``core``), so it gets the bits it would get as
    an element of any batch.

    Raises TemperatureError if any T = 0 (the coth arguments diverge) and
    PoleError if any coth argument meets a pole.  At critical damping the
    formulas divide by (lambda2 - lambda1); those elements, and only those,
    take the two-sided average at omega0*(1 +/- 1e-7).  Its relative error
    is far above the 1e-10 of other elements: at gamma = 1.3 it reaches
    1.2e-4 in alpha' and 1.7e-4 in Delta near kB*T = 43 hbar*gamma (see
    ROADMAP item 2).
    """
    shape = p.shape
    if not _holds(p.T > 0.0):
        raise TemperatureError("alpha, alpha' are only defined for T > 0")
    w, T, g = (_batch(v) for v in (p.omega0, p.T, p.gamma))
    wc = None if _holds(p.omega_c == math.inf) else _batch(p.omega_c)
    crit = p.is_critical()  # at the (omega0, gamma) shape
    critical = crit.any() if isinstance(crit, np.ndarray) else crit
    # omega0 = 0 elements divide 0 by 0 on the way and are replaced; an
    # overflow is no error, as in Python's float arithmetic
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = p.hbar / (2.0 * p.kB * T)
        a, ap = _alpha_raw(np.where(crit, w * (1.0 + CRITICAL_NUDGE), w) if critical else w,
                           s, g, wc)
        if critical:
            at = np.broadcast_to(crit, a.shape)
            w_lo, s_lo, g_lo, wc_lo = (None if v is None else np.broadcast_to(v, a.shape)[at]
                                       for v in (w, s, g, wc))
            a_lo, ap_lo = _alpha_raw(w_lo * (1.0 - CRITICAL_NUDGE), s_lo, g_lo, wc_lo)
            a[at] = 0.5 * (a[at] + a_lo)
            ap[at] = 0.5 * (ap[at] + ap_lo)
        # alpha and alpha' are real expressions: nothing imaginary is dropped
        # (x - x is +0.0 for finite x and NaN otherwise)
        residual = (a - a) + (ap - ap)

    # a field that takes no part here (M) may broadcast to a larger shape
    if a.shape != (shape or (1,)):
        a, ap, residual = (np.broadcast_to(v, shape) for v in (a, ap, residual))
    a, ap, residual = (np.ascontiguousarray(v) for v in (a, ap, residual))
    if logger.isEnabledFor(logging.DEBUG):
        # routine below the breakdown temperature; the positivity module, not
        # this one, decides what negative coefficients mean physically
        bad = np.count_nonzero((a <= 0.0) | (ap < 0.0))
        if bad:
            logger.debug("non-positive coefficients at %d of %d points", bad, a.size)
    return AlphaPair(_unbatch(a, shape), _unbatch(ap, shape), _unbatch(residual, shape))


def alpha_pair(p: SystemParams) -> AlphaPair:
    """Dissipation coefficients of one system, as floats: its
    ``alpha_arrays`` evaluation, equal to its element of any batch."""
    if p.shape:
        raise ValueError("alpha_pair takes one system; use alpha_arrays for a batch")
    return alpha_arrays(p)


def alpha_prime_free(gamma: float, T: float, hbar: float = 1.0, kB: float = 1.0) -> float:
    """Free-particle coefficient alpha'_0 = [x coth x - 1]/(4 gamma^2),
    x = hbar*gamma/(kB*T)."""
    if T <= 0.0:
        raise TemperatureError("alpha'_0 is only defined for T > 0")
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        b = _xcothx_m1_real(hbar * gamma / _batch(kB * T)) / (4.0 * gamma * gamma)
    return _unbatch(b, ())
