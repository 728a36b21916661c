"""Independent equilibrium reference: <q^2> and <p^2> of the Drude-damped
oscillator from its imaginary-time (Matsubara) sums, in closed form.

These are the standard partition-function results for the Ohmic bath with a
Drude rolloff, in the friction convention gamma_hat(0) = 2*gamma (classical
motion q'' + 2 gamma q' + omega0^2 q = 0).  They serve as the thermodynamic
circles against which the master-equation equilibrium is compared.

Folded to n >= 0, with nu_n = n*nu1, nu1 = 2 pi kB T/hbar, the sums are

    <q^2> = (kB T/M) [1/omega0^2 + 2 sum_{n>=1} (nu_n + wc)/P(nu_n)]
    <p^2> = M kB T [1 + 2 sum_{n>=1} (omega0^2 (nu_n + wc) + 2 gamma wc nu_n)/P(nu_n)]

with the cubic P(nu) = (nu + wc)(omega0^2 + nu^2) + 2 gamma wc nu.  Partial
fractions over P's roots nu_k (all in Re nu < 0) turn each sum over n >= 1
into -(1/nu1) sum_k Res_k psi(1 - nu_k/nu1) (Grabert, Schramm & Ingold,
Phys. Rep. 168, 115 (1988)).  The roots do not depend on T, so a batch of
temperatures costs one root solve and one digamma evaluation.

Accuracy against 30-digit mpmath is ~1e-13 relative.  It degrades where the
partial fractions are ill-conditioned: two real roots of P within a relative
1e-6 of each other (just on the overdamped side of the omega0 at which P has
a double root, near omega0 = gamma at large wc) or three roots close together
(near wc = 6.75 gamma, omega0 = 1.299 gamma).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import SystemParams, TemperatureError

_CUTOFF_RTOL = 1e-2
# digamma: recurrence up to Re z >= _PSI_SHIFT, then the asymptotic series
# with coefficients B_2k/(2k), k = 1..5; the first omitted term,
# (691/32760)|z|^-12, is below 2.5e-15 there
_PSI_SHIFT = 12.0
_PSI_SERIES = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0, 1.0 / 132.0)


class CutoffSensitivityWarning(UserWarning):
    """<p^2> changes by more than 1% when the Drude cutoff is doubled."""


@dataclass(frozen=True)
class MatsubaraConfig:
    """The Drude cutoff of the reference.

    ``drude_cutoff`` None means 1e3 * max(gamma, omega0); it must stay finite
    because <p^2> diverges logarithmically without it.
    """

    drude_cutoff: Optional[float] = None

    def __post_init__(self):
        if self.drude_cutoff is not None and not (
            self.drude_cutoff > 0.0 and math.isfinite(self.drude_cutoff)
        ):
            raise ValueError("drude_cutoff must be finite and positive")

    def cutoff_for(self, p: SystemParams) -> float:
        if self.drude_cutoff is not None:
            return self.drude_cutoff
        return 1e3 * max(p.gamma, p.omega0)


def drude_friction(nu: np.ndarray, gamma: float, omega_c: float) -> np.ndarray:
    """Laplace-transform friction gamma_hat(nu) = 2*gamma*omega_c/(nu + omega_c)."""
    return 2.0 * gamma * omega_c / (nu + omega_c)


def _digamma(z: np.ndarray) -> np.ndarray:
    """psi(z) element by element for a complex array with Re z > 0.

    Each element's value does not depend on the rest of the array.
    """
    shifts = np.clip(np.ceil(_PSI_SHIFT - z.real), 0.0, None)
    acc = np.zeros_like(z)
    for j in range(int(shifts.max(initial=0.0))):
        # psi(z) = psi(z + 1) - 1/z; the masked elements subtract an exact 0
        acc -= np.where(j < shifts, 1.0 / (z + j), 0.0)
    w = z + shifts
    y = 1.0 / (w * w)
    series = np.zeros_like(w)
    for c in reversed(_PSI_SERIES):
        series = (series + c) * y
    return acc + np.log(w) - 0.5 / w - series


def _closed_form_sum(p: SystemParams, wc: float,
                     numerator: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """sum_{n>=1} numerator(nu_n)/P(nu_n) over the broadcast temperatures of p."""
    if np.ndim(p.omega0) or np.ndim(p.gamma):
        raise ValueError("the Matsubara reference takes one omega0 and gamma; only T, M, "
                         "hbar and kB may be arrays")
    w2 = p.omega0 * p.omega0
    a1 = w2 + 2.0 * p.gamma * wc
    nu = np.roots([1.0, wc, a1, w2 * wc]).astype(complex)
    # P'(nu_k) as the product over the other roots, so that the residues sum
    # to zero to rounding even where two roots nearly coincide
    dP = (nu - nu[[1, 2, 0]]) * (nu - nu[[2, 0, 1]])
    res = numerator(nu) / dP
    nu1 = np.asarray(2.0 * math.pi * p.kB * p.T / p.hbar, dtype=float)
    terms = res[:, None] * _digamma(1.0 - nu[:, None] / nu1.reshape(1, -1))
    total = (terms[0] + terms[1] + terms[2]).real
    return (-total / nu1.ravel()).reshape(nu1.shape)


def _check_temperature(p: SystemParams) -> None:
    if not np.all(np.asarray(p.T) > 0.0):
        raise TemperatureError("Matsubara sums need T > 0")


def _value(x):
    return float(x) if np.ndim(x) == 0 else x


def _p2(p: SystemParams, wc: float) -> np.ndarray:
    w2, g = p.omega0 * p.omega0, p.gamma
    s = _closed_form_sum(p, wc, lambda nu: w2 * (nu + wc) + 2.0 * g * wc * nu)
    return p.M * p.kB * p.T * (1.0 + 2.0 * s)


def matsubara_q2(p: SystemParams, config: MatsubaraConfig = MatsubaraConfig()):
    """<q^2> = (kB T/M) sum_n 1/(omega0^2 + nu_n^2 + |nu_n| gamma_hat(|nu_n|)),
    nu_n = 2 pi n kB T/hbar, summed in closed form.

    T (and M, hbar, kB) may be arrays; the result then has their broadcast
    shape and each element equals the call for that element alone.
    """
    _check_temperature(p)
    if p.omega0 <= 0.0:
        raise ValueError("<q^2> diverges for the free particle (omega0 = 0)")
    wc = config.cutoff_for(p)
    s = _closed_form_sum(p, wc, lambda nu: nu + wc)
    return _value(p.kB * p.T / p.M * (1.0 / (p.omega0 * p.omega0) + 2.0 * s))


def matsubara_p2(p: SystemParams, config: MatsubaraConfig = MatsubaraConfig()):
    """<p^2> = M kB T sum_n (omega0^2 + |nu_n| gamma_hat)/(omega0^2 + nu_n^2 + |nu_n| gamma_hat),
    summed in closed form; array arguments as for ``matsubara_q2``.

    Also evaluates at twice the Drude cutoff and warns
    CutoffSensitivityWarning when the two differ by more than 1% at any
    temperature.
    """
    _check_temperature(p)
    wc = config.cutoff_for(p)
    v = _p2(p, wc)
    shift = np.max(np.abs(_p2(p, 2.0 * wc) / v - 1.0))
    if shift > _CUTOFF_RTOL:
        warnings.warn(
            f"matsubara_p2 cutoff-sensitive: doubling omega_c={wc:g} changes "
            f"<p^2> by up to {shift * 100:.1f}%", CutoffSensitivityWarning)
    return _value(v)
