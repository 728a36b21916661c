"""Physical parameters, decay rates, and the x*coth(x) kernel.

Everything here is a pure function of its inputs; the dataclasses are frozen
and safe to share across threads.  The kernels take numpy arrays and work
element by element in numpy's own arithmetic.  A single value is evaluated
as a one-element array, never as a 0-d array: numpy rounds some 0-d
operations differently from the same element of an array, so only the
one-element form gives a batch element's bits.  ``_batch`` and ``_unbatch``
make that wrap and unwrap for every caller.

``_xcothx_m1_real`` is the kernel of a real argument in real arithmetic.
Where a value is complex its conjugate needs no second evaluation: numpy's
complex product, quotient and exponential map conjugate arguments to the
conjugate result, since each part is the same rounded expression with signs
flipped and rounding to nearest is odd-symmetric.
"""

from __future__ import annotations

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
        # all Python numbers is one system, evaluated as one-element arrays
        scalar = all(isinstance(v, (float, int)) for v in fields)
        object.__setattr__(self, "_shape", () if scalar else np.broadcast(*fields).shape)

    @property
    def shape(self) -> tuple:
        """Broadcast shape of the fields; () for a single system."""
        return self._shape

    def is_critical(self) -> bool:
        return abs(self.gamma - self.omega0) <= CRITICAL_TOL * self.gamma


def _batch(v, dtype=float) -> np.ndarray:
    """``v`` as an array of at least one dimension: a single value becomes a
    one-element array, never a 0-d one (see the module docstring)."""
    return np.array(v, dtype=dtype, ndmin=1, copy=None)


def _unbatch(a: np.ndarray, shape: tuple):
    """Undo ``_batch`` on a result for inputs of ``shape``: the Python number
    of a single value (shape ()), else ``a`` itself."""
    return a if shape else a.item()


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
    l1_re, om_re, om_im = _rates(w, g)
    return (_complex(l1_re, om_im), _complex(-g - om_re, -om_im), _complex(om_re, om_im))


def _rates(w: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Re lambda1 and the parts of Omega (see ``decay_rates``) as real
    arrays; Im lambda1 = Im Omega."""
    w2 = w * w
    x = g * g - w2
    om_re = np.sqrt(np.maximum(x, 0.0))
    om_im = np.sqrt(np.maximum(-x, 0.0))  # 0 where gamma >= omega0, as x >= 0 there
    return -np.where(g >= w, w2 / (g + om_re), g), om_re, om_im


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


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
    its own branch; a scalar returns a complex.
    """
    shape = np.shape(z)
    z = _batch(z, complex)
    # each element takes its branch through np.where, not through index
    # subsets (subsets of data-dependent size would fill numpy's small-buffer
    # cache with one size after another); a branch that no element takes is
    # skipped, and the branch not taken may divide by zero or overflow
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        small = np.abs(z) < _SERIES_RADIUS
        n_small = np.count_nonzero(small)
        if n_small == small.size:
            return _unbatch(_series(z * z), shape)
        w = np.where(z.real < 0.0, -z, z)
        e = np.exp(-2.0 * w)  # |e| <= 1, never overflows
        d = 1.0 - e
        # at w = i*k*pi + delta, 1 - e = 2*delta + O(delta^2): a pole for
        # k != 0; k = 0 lies in the series disk, which holds no pole
        pole = ~small & (np.abs(d) < 2.0 * _POLE_TOL)
        if np.count_nonzero(pole):
            v = complex(w[pole][0])
            raise PoleError(f"argument {v} lies within {_POLE_TOL} of the pole "
                            f"{round(v.imag / math.pi)}*i*pi")
        out = w * (1.0 + e) / d - 1.0
        if n_small:
            out = np.where(small, _series(z * z), out)
    return _unbatch(out, shape)


def _xcothx_m1_real(x: np.ndarray) -> np.ndarray:
    """xcothx_m1 of a real array, as a real array, for callers that ignore
    floating-point errors (branches as in ``xcothx_m1``).  A real argument
    has no pole; an infinite one gives inf."""
    w = np.abs(x)
    small = w < _SERIES_RADIUS
    n_small = np.count_nonzero(small)
    if n_small == small.size:
        return _series(x * x)
    e = np.exp(-2.0 * w)  # |e| <= 1
    out = w * (1.0 + e) / (1.0 - e) - 1.0
    return np.where(small, _series(x * x), out) if n_small else out


def _series(z2: np.ndarray) -> np.ndarray:
    """xcothx_m1 from its even power series in z^2, for |z| < 1e-2."""
    return z2 * (1.0 / 3.0 + z2 * (-1.0 / 45.0 + z2 * (2.0 / 945.0)))
