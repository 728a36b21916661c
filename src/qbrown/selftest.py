"""Built-in invariant suite behind ``qbrown selftest``.

Each check re-derives an independent prediction (closed form, limit, or
brute-force scan) and compares the library against it.  One line per check;
nonzero exit on any failure.  This mirrors the heavier pytest suite but is
self-contained in the installed package.
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np

from .coefficients import alpha_pair, alpha_prime_free
from .core import SystemParams, xcothx
from .diffusion import (
    breakdown_temperature,
    diffusion_constants,
    high_t_diffusion,
    positivity_delta,
)
from .dynamics import (
    MomentState,
    analytic_coefficients,
    analytic_solution,
    equilibrium_moments,
    evolve_numeric,
    free_particle_longtime,
    moment_derivative,
)
from .grid import evolve as grid_evolve
from .grid import gaussian_state, moments_from_grid
from .matsubara import matsubara_p2, matsubara_q2

# independently pinned reference values (40-digit evaluation of the closed
# forms, rounded to float; see tests for provenance)
PINNED_ALPHA = 0.9799133733459742        # gamma=1, omega0=2, kB*T=hbar*gamma, omega_c=inf
PINNED_ALPHA_PRIME = 0.07773026138469102
PINNED_TC_RATIO_1 = 0.47604425738485145  # kB*Tc/(hbar*gamma) at omega0/gamma = 1


def _check_eigen_identities():
    from .core import eigenvalues
    for g in np.geomspace(0.01, 100.0, 45):
        for w in np.geomspace(0.01, 100.0, 45):
            eig = eigenvalues(SystemParams(omega0=float(w), T=1.0, gamma=float(g)))
            assert abs(eig.lambda1 * eig.lambda2 - w * w) <= 1e-12 * w * w
            assert abs(eig.lambda1 + eig.lambda2 + 2 * g) <= 1e-12 * 2 * g


def _check_xcothx():
    assert xcothx(0.0) == 1.0
    assert abs(xcothx(1.0) - (math.e ** 2 + 1) / (math.e ** 2 - 1)) < 1e-15
    for z in (0.5 + 0.2j, -3.0, 2.0j + 0.1):
        assert abs(xcothx(z) - xcothx(-z)) < 1e-14
    # series/exponential agreement on the overlap annulus
    for r in np.linspace(5e-3, 5e-2, 20):
        for ph in np.linspace(0.0, 1.5, 7):
            z = r * complex(math.cos(ph), math.sin(ph))
            z2 = z * z
            series = 1.0 + z2 * (1 / 3 + z2 * (-1 / 45 + z2 * (2 / 945)))
            import cmath
            e = cmath.exp(-2.0 * z)
            expo = z * (1.0 + e) / (1.0 - e)
            assert abs(series - expo) / abs(expo) < 1e-13


def _check_alpha_limits():
    p = SystemParams(omega0=2.0, T=1.0)
    ab = alpha_pair(p)
    assert abs(ab.alpha - PINNED_ALPHA) < 1e-12
    assert abs(ab.alpha_prime - PINNED_ALPHA_PRIME) < 1e-12
    assert ab.residual_imag < 1e-10

    p = SystemParams(omega0=1e-8, T=1.0)
    ab = alpha_pair(p)
    assert abs(ab.alpha - 1.0) < 1e-6
    assert abs(ab.alpha_prime / alpha_prime_free(1.0, 1.0) - 1.0) < 1e-6

    p = SystemParams(omega0=1.0, T=100.0)
    ab = alpha_pair(p)
    assert abs(ab.alpha_prime / (1.0 / (12 * 100.0 ** 2)) - 1.0) < 1e-3


def _check_cutoff_convergence():
    ref = alpha_pair(SystemParams(omega0=2.0, T=1.0))
    gaps = []
    for wc in (200.0, 1000.0, 10000.0):
        ab = alpha_pair(SystemParams(omega0=2.0, T=1.0, omega_c=wc))
        gaps.append(max(abs(ab.alpha / ref.alpha - 1), abs(ab.alpha_prime / ref.alpha_prime - 1)))
    assert gaps[0] < 0.01
    assert gaps[0] > gaps[1] > gaps[2]


def _check_high_t_diffusion():
    for w0 in (0.1, 10.0):
        T = 50.0 * max(1.0, w0)
        p = SystemParams(omega0=w0, T=T)
        d = diffusion_constants(p)
        h = high_t_diffusion(p)
        for a, b in ((d.Dpp, h.Dpp), (d.Dqq, h.Dqq), (d.Dpq, h.Dpq)):
            assert abs(a / b - 1.0) < 0.01
    d1 = diffusion_constants(SystemParams(omega0=10.0, T=500.0))
    d2 = diffusion_constants(SystemParams(omega0=0.1, T=500.0))
    for a, b in ((d1.Dpp, d2.Dpp), (d1.Dqq, d2.Dqq), (d1.Dpq, d2.Dpq)):
        assert abs(a / b - 1.0) < 0.01


def _check_positivity_constant():
    for go in (0.5, 1.0, 2.0):
        p = SystemParams(omega0=1.0 / go, T=100.0)
        rep = positivity_delta(diffusion_constants(p))
        assert abs(rep.delta * 12.0 - 1.0) < 0.02


def _check_breakdown():
    tc = breakdown_temperature(1e-3)
    assert abs(tc - 0.4) < 0.05
    assert abs(breakdown_temperature(1.0) - PINNED_TC_RATIO_1) < 1e-6


def _check_moments():
    for go in (0.5, 2.0):
        p = SystemParams(omega0=1.0 / go, T=1.0)
        d = diffusion_constants(p)
        eq = equilibrium_moments(p, d)
        der = moment_derivative(eq, p, d)
        scale = max(abs(eq.q2), abs(eq.p2), abs(eq.qp))
        assert max(abs(x) for x in der) < 1e-10 * scale
        s0 = MomentState(1.7 * eq.q2, 0.6 * eq.p2, eq.qp + 0.2)
        dt = 0.002 / max(p.gamma, p.omega0)
        traj = evolve_numeric(s0, p, d, 4.0, dt, stride=100)
        for i in range(len(traj)):
            a = analytic_solution(s0, p, d, float(traj.t[i]))
            for got, want in ((traj.q2[i], a.q2), (traj.p2[i], a.p2), (traj.qp[i], a.qp)):
                assert abs(got - want) <= 1e-6 * max(abs(want), scale)


def _check_c2():
    grid = itertools.product((0.3, 0.9, 2.5), (0.5, 1.0, 7.0), (1.3, 0.8), (0.6, 1.9), (-0.4, 0.5))
    count = 0
    for g, T, q20, p20, qp0 in grid:
        for w0 in (0.4 * g, 1.6 * g):
            p = SystemParams(omega0=w0, T=T, gamma=g)
            d = diffusion_constants(p)
            co = analytic_coefficients(MomentState(q20, p20, qp0), p, d)
            assert abs(co.C2 - co.c2_reference) <= 1e-8 * max(abs(co.C2), 1e-12)
            count += 1
    assert count >= 100


def _check_free_particle():
    g, T = 1.0, 1.0
    s0 = MomentState(1.0, 1.0, 0.0)
    late = free_particle_longtime(s0, g, T, 80.0, M=1.0)
    ref = math.cosh(1.0) / math.sinh(1.0)
    assert abs(late.p2 / ref - 1.0) < 1e-3
    ts = np.linspace(50.0, 100.0, 6)
    q2s = [free_particle_longtime(s0, g, T, float(t)).q2 for t in ts]
    slope = float(np.polyfit(ts, q2s, 1)[0])
    assert abs(slope / (T / g) - 1.0) < 0.01


def _check_matsubara():
    p = SystemParams(omega0=1.0, T=100.0, gamma=0.01)
    assert abs(matsubara_q2(p) / 100.0 - 1.0) < 0.01
    assert abs(matsubara_p2(p) / 100.0 - 1.0) < 0.01
    p = SystemParams(omega0=1.0, T=0.7, gamma=1e-6)
    iso = 0.5 / math.tanh(0.5 / 0.7)
    assert abs(matsubara_q2(p) / iso - 1.0) < 1e-4
    assert abs(matsubara_p2(p) / iso - 1.0) < 1e-3
    # master-equation <q^2> matches the oracle just above breakdown
    for go in (0.01, 2.0):
        w0 = 1.0 / go
        tc = breakdown_temperature(w0)
        p = SystemParams(omega0=w0, T=1.2 * tc)
        eq = equilibrium_moments(p, diffusion_constants(p))
        assert abs(eq.q2 / matsubara_q2(p) - 1.0) < 0.05


def _check_grid():
    p = SystemParams(omega0=2.0, T=2.0)
    d = diffusion_constants(p)
    eq = equilibrium_moments(p, d)
    s0 = MomentState(1.4 * eq.q2, 0.75 * eq.p2, eq.qp)
    # stencil bias in the recovered <p^2> scales as N^-4; 0.3% is the N=128
    # equivalent of the 0.1% contract at the default N=256
    g0 = gaussian_state(s0, N=128, L=8.0 * math.sqrt(1.45 * eq.q2))
    m0 = moments_from_grid(g0)
    assert abs(m0.q2 / s0.q2 - 1.0) < 3e-3
    assert abs(m0.p2 / s0.p2 - 1.0) < 3e-3
    final, samples = grid_evolve(g0, p, d, 0.5, sample_every=100)
    for s in samples:
        a = analytic_solution(s0, p, d, s["t"])
        assert abs(s["q2"] / a.q2 - 1.0) < 0.01
        assert abs(s["p2"] / a.p2 - 1.0) < 0.01
        assert abs(s["trace"] - 1.0) < 1e-6
        assert s["herm"] < 1e-9


CHECKS = [
    ("eigenvalue identities", _check_eigen_identities),
    ("xcothx kernel", _check_xcothx),
    ("alpha limits and pinned values", _check_alpha_limits),
    ("finite-cutoff convergence", _check_cutoff_convergence),
    ("high-T diffusion forms", _check_high_t_diffusion),
    ("high-T positivity constant", _check_positivity_constant),
    ("breakdown temperature", _check_breakdown),
    ("analytic vs numeric moments", _check_moments),
    ("C2 closed form", _check_c2),
    ("free-particle recovery", _check_free_particle),
    ("matsubara oracle", _check_matsubara),
    ("grid evolution", _check_grid),
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
