"""Physical parameters, decay rates, and the x*coth(x) kernel.

Everything here is a pure function of its inputs; the dataclasses are frozen
and safe to share across threads.  The kernels take numpy arrays and work
element by element; their complex products and quotients are rounded exactly
as Python's ``complex`` rounds them, so a batch evaluation reproduces a
loop of scalar evaluations bit for bit.  A single value skips numpy and is
evaluated in Python ``complex`` arithmetic, which is what the batch path
reproduces.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

INFINITE_CUTOFF = math.inf

# relative |gamma - omega0|/gamma below which a system counts as critically damped
CRITICAL_TOL = 1e-9

_POLE_TOL = 1e-12
_SERIES_RADIUS = 1e-2


class QbmError(Exception):
    """Base class for numerical failures in this package."""


class PoleError(QbmError):
    """Argument too close to a nonzero pole i*k*pi of coth."""


class TemperatureError(QbmError):
    """Operation undefined at this temperature (coth arguments diverge at T=0)."""


class NoEquilibriumError(QbmError):
    """The free particle has no equilibrium <q^2>."""


class BracketError(QbmError):
    """Sign-change bracketing failed; carries the scan table in .scan."""

    def __init__(self, message, scan=None):
        super().__init__(message)
        self.scan = scan or []


class StepSizeError(QbmError):
    """Requested ODE step size violates the accuracy precondition."""


class StabilityError(QbmError):
    """Requested PDE step size violates the explicit-stepping stability bound."""


class StateError(QbmError):
    """Invalid physical state (uncertainty violation, grid too small, NaN)."""


@dataclass(frozen=True)
class SystemParams:
    """Parameters of the damped oscillator and its bath.

    ``gamma`` is half the momentum damping rate: the classical motion obeys
    q'' + 2*gamma*q' + omega0^2 q = 0, so <p^2> relaxes at rate 4*gamma.
    Defaults give the dimensionless convention hbar = kB = M = gamma = 1 in
    which temperatures read as kB*T/(hbar*gamma) and frequencies as
    omega0/gamma.  ``omega_c`` is the Drude cutoff; ``math.inf`` means the
    cutoff is removed.

    Any field may be a numpy array.  The fields then broadcast against each
    other to ``shape`` and describe a batch of systems, which
    ``alpha_arrays``, ``diffusion_constants`` and ``positivity_delta``
    evaluate in one pass.  Every element is validated.
    """

    omega0: float
    T: float
    gamma: float = 1.0
    M: float = 1.0
    omega_c: float = INFINITE_CUTOFF
    hbar: float = 1.0
    kB: float = 1.0

    def __post_init__(self):
        if not all(_holds((0.0 < v) & (v < math.inf))
                   for v in (self.M, self.gamma, self.hbar, self.kB)):
            raise ValueError("M, gamma, hbar, kB must be finite and strictly positive")
        if not _holds((0.0 <= self.omega0) & (self.omega0 < math.inf)):
            raise ValueError("omega0 must be finite and non-negative")
        if not _holds((0.0 <= self.T) & (self.T < math.inf)):
            raise ValueError("T must be finite and non-negative")
        if not _holds(self.omega_c > 0.0):
            raise ValueError("omega_c must be positive (math.inf removes the cutoff)")
        fields = (self.omega0, self.T, self.gamma, self.M, self.omega_c, self.hbar, self.kB)
        # all Python numbers is one system, which stays on the numpy-free paths
        scalar = all(isinstance(v, (float, int)) for v in fields)
        object.__setattr__(self, "_shape", () if scalar else np.broadcast(*fields).shape)

    @property
    def shape(self) -> tuple:
        """Broadcast shape of the fields; () for a single system."""
        return self._shape

    def is_critical(self) -> bool:
        return abs(self.gamma - self.omega0) <= CRITICAL_TOL * self.gamma


def _holds(cond) -> bool:
    """True when a comparison holds for every element (NaN never holds)."""
    return cond if cond.__class__ is bool else bool(np.all(cond))


def decay_rates(omega0, gamma) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """lambda1, lambda2 = -gamma +/- Omega and Omega = sqrt(gamma^2 - omega0^2)
    as complex arrays, element by element: the roots of
    lambda^2 + 2*gamma*lambda + omega0^2 = 0.

    lambda1 takes the '+' branch.  Where gamma >= omega0 it is computed in
    the rationalized form -omega0^2/(gamma + Omega), which is exact where
    -gamma + Omega would cancel catastrophically (deeply overdamped systems)
    and keeps lambda1*lambda2 = omega0^2 and lambda1 + lambda2 = -2*gamma to
    roundoff; where Omega is imaginary its parts are separate and there is
    no cancellation.
    """
    w = np.asarray(omega0, dtype=float)
    g = np.asarray(gamma, dtype=float)
    x = g * g - w * w
    om_re = np.sqrt(np.maximum(x, 0.0))
    om_im = np.sqrt(np.maximum(-x, 0.0))
    l1_re = np.where(g >= w, -(w * w) / (g + om_re), -g)
    l1_im = np.where(g >= w, 0.0, om_im)
    return (_complex(l1_re, l1_im), _complex(-g - om_re, -om_im), _complex(om_re, om_im))


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a*b as Python's complex product (numpy's may fuse a multiply-add)."""
    return _complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def cdiv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a/b by Smith's method in the form Python's complex quotient uses
    (numpy's multiplies by a reciprocal instead).  Divides through by the
    larger part of b; a zero b gives NaN, which callers mask."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    by_re = np.abs(br) >= np.abs(bi)
    big, small = np.where(by_re, br, bi), np.where(by_re, bi, br)
    x, y = np.where(by_re, ar, ai), np.where(by_re, ai, ar)
    ratio = small / big
    denom = big + small * ratio
    im = (y - x * ratio) / denom
    return _complex((x + y * ratio) / denom, np.where(by_re, im, -im))


def xcothx(z):
    """z*coth(z): even, analytic at z=0 (value 1), poles at nonzero i*k*pi.

    Uses the even power series 1 + z^2/3 - z^4/45 + 2 z^6/945 for
    |z| < 1e-2 and the overflow-safe exponential form otherwise.  Raises
    PoleError within 1e-12 of a nonzero pole.  Takes a scalar (returns a
    complex) or an array (returns a complex array).
    """
    return 1.0 + xcothx_m1(z)


def xcothx_m1(z):
    """xcothx(z) - 1, computed without cancellation for small |z|.

    The coefficient brackets of the dissipation formulas are differences of
    this quantity at O(z^2) scale; returning the series directly keeps their
    high-temperature cancellations at full precision.  Each element takes
    its own branch; a Python or numpy scalar returns a complex from
    ``xcothx_m1_scalar``.
    """
    if isinstance(z, (complex, float, int)):
        return xcothx_m1_scalar(complex(z))
    z = np.asarray(z, dtype=complex)
    small = np.hypot(z.real, z.imag) < _SERIES_RADIUS
    w = np.where(z.real < 0.0, -z, z)
    k = np.rint(w.imag / math.pi)
    pole = ~small & (k != 0.0) & (np.hypot(w.real, w.imag - k * math.pi) < _POLE_TOL)
    if pole.any():
        i = np.flatnonzero(pole)[0]
        raise PoleError(f"argument {complex(w.flat[i])} lies within {_POLE_TOL} of the "
                        f"pole {int(k.flat[i])}*i*pi")
    # both branches run on every element (index subsets of data-dependent
    # size would fill numpy's small-buffer cache with one size after
    # another); the branch not taken may divide by zero or overflow
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z2 = cmul(z, z)
        series = cmul(z2, 1.0 / 3.0 + cmul(z2, -1.0 / 45.0 + z2 * (2.0 / 945.0)))
        e = np.exp(-2.0 * w)  # |e| <= 1, never overflows
        out = np.where(small, series, cdiv(cmul(w, 1.0 + e), 1.0 - e) - 1.0)
    return complex(out) if out.ndim == 0 else out


def xcothx_m1_scalar(z: complex) -> complex:
    """xcothx_m1 of one complex number in Python ``complex`` arithmetic, with
    the same branches and rounding as the array path."""
    if abs(z) < _SERIES_RADIUS:
        z2 = z * z
        return z2 * (1.0 / 3.0 + z2 * (-1.0 / 45.0 + z2 * (2.0 / 945.0)))
    w = -z if z.real < 0.0 else z
    if not math.isfinite(w.imag):  # an overflowed argument; NaN, as in the array path
        return complex(math.nan, math.nan)
    k = round(w.imag / math.pi)
    if k != 0 and math.hypot(w.real, w.imag - k * math.pi) < _POLE_TOL:
        raise PoleError(f"argument {w} lies within {_POLE_TOL} of the pole {k}*i*pi")
    e = cmath.exp(-2.0 * w)  # |e| <= 1, never overflows
    return w * (1.0 + e) / (1.0 - e) - 1.0
