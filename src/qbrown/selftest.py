"""Install check behind ``qbrown selftest``.

Four quick checks whose failure means a broken install: the pinned alpha,
alpha' and breakdown temperatures, the closed-form moment solution against
RK4, and the Matsubara reference in its high-temperature and weak-coupling
limits.  One line per check; exit 2 on any failure.  Needs no pytest.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .coefficients import alpha_pair
from .core import SystemParams
from .diffusion import breakdown_temperature, diffusion_constants
from .dynamics import MomentState, analytic_solution, equilibrium_moments, evolve_numeric
from .matsubara import matsubara_p2, matsubara_q2

# independently pinned reference values (40-digit evaluation of the closed
# forms, rounded to float); the tests import them from here
PINNED_ALPHA = 0.9799133733459742        # gamma=1, omega0=2, kB*T=hbar*gamma, omega_c=inf
PINNED_ALPHA_PRIME = 0.07773026138469102
PINNED_TC_RATIO_1 = 0.47604425738485145  # kB*Tc/(hbar*gamma) at omega0/gamma = 1


def _expect(ok, what: str) -> None:
    # an explicit raise, not ``assert``, so the checks survive ``python -O``
    if not ok:
        raise AssertionError(what)


def _check_alpha():
    ab = alpha_pair(SystemParams(omega0=2.0, T=1.0))
    _expect(abs(ab.alpha - PINNED_ALPHA) < 1e-12, f"alpha = {ab.alpha!r}, pinned {PINNED_ALPHA!r}")
    _expect(abs(ab.alpha_prime - PINNED_ALPHA_PRIME) < 1e-12,
            f"alpha' = {ab.alpha_prime!r}, pinned {PINNED_ALPHA_PRIME!r}")
    _expect(ab.residual_imag < 1e-10, f"residual_imag = {ab.residual_imag:.3e}")


def _check_breakdown():
    tc = breakdown_temperature(1e-3)
    _expect(abs(tc - 0.4) < 0.05, f"T_c at omega0/gamma = 1e-3 is {tc!r}, not ~0.4")
    tc = breakdown_temperature(1.0)
    _expect(abs(tc - PINNED_TC_RATIO_1) < 1e-6,
            f"T_c at omega0/gamma = 1 is {tc!r}, pinned {PINNED_TC_RATIO_1!r}")


def _check_moments():
    for go in (0.5, 2.0):
        p = SystemParams(omega0=1.0 / go, T=1.0)
        d = diffusion_constants(p)
        eq = equilibrium_moments(p, d)
        scale = max(abs(eq.q2), abs(eq.p2), abs(eq.qp))
        s0 = MomentState(1.7 * eq.q2, 0.6 * eq.p2, eq.qp + 0.2)
        dt = 0.002 / max(p.gamma, p.omega0)
        traj = evolve_numeric(s0, p, d, 4.0, dt, stride=100)
        a = analytic_solution(s0, p, d, traj.t)
        for name, got, want in (("q2", traj.q2, a.q2), ("p2", traj.p2, a.p2),
                                ("qp", traj.qp, a.qp)):
            _expect(np.all(np.abs(got - want) <= 1e-6 * np.maximum(np.abs(want), scale)),
                    f"gamma/omega0 = {go:g}: numeric {name} leaves analytic by > 1e-6")


def _check_matsubara():
    p = SystemParams(omega0=1.0, T=100.0, gamma=0.01)
    for name, got in (("q2", matsubara_q2(p)), ("p2", matsubara_p2(p))):
        _expect(abs(got / 100.0 - 1.0) < 0.01, f"high-T {name} = {got!r}, not ~kB T = 100")
    p = SystemParams(omega0=1.0, T=0.7, gamma=1e-6)
    iso = 0.5 / math.tanh(0.5 / 0.7)
    for name, got, tol in (("q2", matsubara_q2(p), 1e-4), ("p2", matsubara_p2(p), 1e-3)):
        _expect(abs(got / iso - 1.0) < tol, f"weak-coupling {name} = {got!r}, isolated {iso!r}")


CHECKS = [
    ("pinned alpha, alpha'", _check_alpha),
    ("breakdown temperature", _check_breakdown),
    ("analytic vs numeric moments", _check_moments),
    ("matsubara limits", _check_matsubara),
]


def run_selftest(out=None) -> int:
    out = out or sys.stdout
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # report every check, keep going
            failures += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}", file=out)
        else:
            print(f"ok   {name}", file=out)
    if failures:
        print(f"selftest: {failures}/{len(CHECKS)} checks failed", file=out)
        return 2
    print(f"selftest: all {len(CHECKS)} checks passed", file=out)
    return 0
