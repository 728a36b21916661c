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


def _check_alpha():
    ab = alpha_pair(SystemParams(omega0=2.0, T=1.0))
    assert abs(ab.alpha - PINNED_ALPHA) < 1e-12
    assert abs(ab.alpha_prime - PINNED_ALPHA_PRIME) < 1e-12
    assert ab.residual_imag < 1e-10


def _check_breakdown():
    assert abs(breakdown_temperature(1e-3) - 0.4) < 0.05
    assert abs(breakdown_temperature(1.0) - PINNED_TC_RATIO_1) < 1e-6


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
        for got, want in ((traj.q2, a.q2), (traj.p2, a.p2), (traj.qp, a.qp)):
            assert np.all(np.abs(got - want) <= 1e-6 * np.maximum(np.abs(want), scale))


def _check_matsubara():
    p = SystemParams(omega0=1.0, T=100.0, gamma=0.01)
    assert abs(matsubara_q2(p) / 100.0 - 1.0) < 0.01
    assert abs(matsubara_p2(p) / 100.0 - 1.0) < 0.01
    p = SystemParams(omega0=1.0, T=0.7, gamma=1e-6)
    iso = 0.5 / math.tanh(0.5 / 0.7)
    assert abs(matsubara_q2(p) / iso - 1.0) < 1e-4
    assert abs(matsubara_p2(p) / iso - 1.0) < 1e-3


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
