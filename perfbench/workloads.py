"""The benchmark workloads: seeded CLI invocations and their output checks.

Each ``make`` draws one invocation's parameters from the run's random
generator, so no two invocations share inputs, while the work size (points,
grid size, step count) stays fixed.  Each ``check`` recomputes a reference
outside the timed region and returns the problems it found (empty when the
output is correct) plus any health figures the trace reports.

``equilibrium`` runs inside point_sweeps, at one temperature, rather than as
a workload of its own: a 50-point run spends ~40% of its time in the kernel
zeroing fresh pages for the Matsubara sums, and on a shared host its time
moved by 16-26% between runs, too close to the largest bound allowed, 0.25.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from qbrown import SystemParams, diffusion_constants, positivity_delta


@dataclass
class Invocation:
    """One timed unit: the CLI argument lists run back to back, and their CSVs."""

    argvs: list[list[str]]
    outs: list[Path]
    context: dict = field(default_factory=dict)


@dataclass
class Checked:
    problems: list[str]
    health: dict = field(default_factory=dict)


def read_csv(path: Path) -> tuple[str, list[str], list[list[str]]]:
    with open(path, newline="") as f:
        lines = [ln for ln in f.read().split("\r\n") if ln]
    rows = list(csv.reader(lines[1:]))
    return lines[0], rows[0], rows[1:]


def _f(x: float) -> str:
    return repr(float(x))


def _close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return math.isfinite(a) and abs(a - b) <= max(rel * abs(b), abs_)


def _table(path: Path, columns: list[str], n_rows: Optional[int], problems: list[str]):
    """The data rows of a CSV whose header and row count are as expected, else None."""
    _, header, rows = read_csv(path)
    if header != columns:
        problems.append(f"{path.name}: header {header} != {columns}")
        return None
    if n_rows is not None and len(rows) != n_rows:
        problems.append(f"{path.name}: {len(rows)} rows, expected {n_rows}")
        return None
    return rows


def delta(omega0: float, T: float) -> float:
    return positivity_delta(diffusion_constants(SystemParams(omega0=omega0, T=T))).delta


# --- tc_curve ----------------------------------------------------------------

TC_POINTS = 200
TC_WIDTH = 1e-6


def make_tc_curve(rng: random.Random, tmp: Path) -> Invocation:
    lo = 1e-3 * 10 ** rng.uniform(-0.05, 0.05)
    hi = 1e2 * 10 ** rng.uniform(-0.05, 0.05)
    out = tmp / "tc.csv"
    argv = ["tc-curve", "--omega0-over-gamma", f"{_f(lo)}:{_f(hi)}",
            "--points", str(TC_POINTS), "--out", str(out)]
    return Invocation([argv], [out])


def check_tc_curve(inv: Invocation) -> Checked:
    problems: list[str] = []
    rows = _table(inv.outs[0], ["omega0_over_gamma", "kBTc_over_hbar_gamma"],
                  TC_POINTS, problems)
    for r in rows or []:
        ratio, tc = float(r[0]), float(r[1])
        below = delta(ratio, tc * (1.0 - TC_WIDTH))
        above = delta(ratio, tc * (1.0 + TC_WIDTH))
        if not (below < 0.0 < above):
            problems.append(f"Delta does not change sign across T_c={tc!r} at "
                            f"omega0/gamma={ratio!r}: {below!r}, {above!r}")
    return Checked(problems)


# --- equilibrium, run inside point_sweeps ------------------------------------

def equilibrium_argv(rng: random.Random, out: Path) -> tuple[list[str], float]:
    """One-temperature equilibrium run (~80 ms of Matsubara sums); returns argv, omega0."""
    ratio = 2.0 * 10 ** rng.uniform(-0.02, 0.02)
    T = 0.5 * 40.0 ** rng.uniform(0.0, 1.0)
    argv = ["equilibrium", "--gamma-over-omega0", _f(ratio), "--T", f"{_f(T)}:{_f(2.0 * T)}",
            "--points", "1", "--out", str(out)]
    return argv, 1.0 / ratio


def matsubara_oracle(omega0: float, T: float, gamma: float = 1.0) -> tuple[float, float]:
    """<q^2>, <p^2> of the Drude-damped oscillator from digamma values (M = hbar = kB = 1).

    The folded Matsubara summands are (nu + wc)/P(nu) and
    (omega0^2 (nu + wc) + 2 gamma wc nu)/P(nu) with the cubic
    P(nu) = (nu + wc)(omega0^2 + nu^2) + 2 gamma wc nu.  Partial fractions
    over P's roots nu_k turn each sum over n >= 1 into
    -(1/nu1) sum_k Res_k psi(1 - nu_k/nu1), nu1 = 2 pi T.  The cutoff wc is
    the one the library uses by default, 1e3 * max(gamma, omega0).
    """
    import mpmath as mp

    with mp.workdps(30):
        w2, g, T = mp.mpf(omega0) ** 2, mp.mpf(gamma), mp.mpf(T)
        wc = 1000 * max(g, mp.mpf(omega0))
        nu1 = 2 * mp.pi * T
        roots = mp.polyroots([1, wc, w2 + 2 * g * wc, w2 * wc], maxsteps=200, extraprec=60)

        def folded(num):
            total = mp.mpf(0)
            for r in roots:
                dP = 3 * r * r + 2 * wc * r + w2 + 2 * g * wc
                total += num(r) / dP * mp.digamma(1 - r / nu1)
            return -mp.re(total) / nu1

        q2 = T * (1 / w2 + 2 * folded(lambda z: z + wc))
        p2 = T * (1 + 2 * folded(lambda z: w2 * (z + wc) + 2 * g * wc * z))
        return float(q2), float(p2)


def check_equilibrium(path: Path, omega0: float, problems: list[str]) -> None:
    rows = _table(path, ["T", "potential", "kinetic", "potential_oracle", "kinetic_oracle",
                         "potential_relgap", "kinetic_relgap"], 1, problems)
    for r in rows or []:
        T, pot, kin, pot_or, kin_or, pot_gap, kin_gap = map(float, r)
        q2, p2 = matsubara_oracle(omega0, T)
        pot_ref = 0.5 * omega0 * omega0 * q2
        if not (_close(pot_or, pot_ref, 1e-10) and _close(kin_or, 0.5 * p2, 1e-10)):
            problems.append(f"equilibrium: oracle columns at T={T!r}: {pot_or!r}, {kin_or!r} "
                            f"vs digamma {pot_ref!r}, {0.5 * p2!r}")
        if not (pot > 0.0 and kin > 0.0 and _close(pot_gap, pot / pot_or - 1.0, 0.0, 1e-15)
                and _close(kin_gap, kin / kin_or - 1.0, 0.0, 1e-15)):
            problems.append(f"equilibrium: energies or gap columns inconsistent at T={T!r}")


# --- grid_validate -----------------------------------------------------------

GRID_N = 256
GRID_HORIZON = 0.075  # ~80 RK4 steps at the default stability bound
GRID_SAMPLE_EVERY = 20
GRID_MOMENT_GAP = 1e-2
GRID_TRACE_DRIFT = 1e-6
GRID_HERMITICITY = 1e-9


def make_grid_validate(rng: random.Random, tmp: Path) -> Invocation:
    # T moves the stable step size, so it varies only by +-0.5% to keep the
    # step count fixed; omega0 barely moves it
    omega0 = 2.0 * rng.uniform(0.9, 1.1)
    T = 2.0 * rng.uniform(0.995, 1.005)
    out = tmp / "grid.csv"
    argv = ["grid-validate", "--omega0", _f(omega0), "--T", _f(T), "--N", str(GRID_N),
            "--t-end", _f(GRID_HORIZON), "--sample-every", str(GRID_SAMPLE_EVERY),
            "--out", str(out)]
    return Invocation([argv], [out], {"omega0": omega0, "T": T})


def moment_reference(p: SystemParams, ts: np.ndarray) -> np.ndarray:
    """(q2, p2, qp) rows at times ts from the eigen-decomposition of the linear
    moment ODE y' = A y + b, started from the grid-validate initial state
    (1.4 <q^2>_eq, 0.75 <p^2>_eq, <qp+pq>_eq)."""
    d = diffusion_constants(p)
    M, g, w2 = p.M, p.gamma, p.omega0 ** 2
    A = np.array([[0.0, 0.0, 1.0 / M],
                  [0.0, -4.0 * g, -M * w2],
                  [-2.0 * M * w2, 2.0 / M, -2.0 * g]])
    b = np.array([2.0 * d.Dqq, 2.0 * d.Dpp, -4.0 * d.Dpq])
    y_eq = np.linalg.solve(A, -b)
    y0 = y_eq * np.array([1.4, 0.75, 1.0])
    lam, V = np.linalg.eig(A)
    c = np.linalg.solve(V, (y0 - y_eq).astype(complex))
    modes = np.exp(np.outer(ts, lam)) * c
    return y_eq + np.real(modes @ V.T)


def check_grid_validate(inv: Invocation) -> Checked:
    problems: list[str] = []
    rows = _table(inv.outs[0], ["t", "q2_grid", "q2_ode", "p2_grid", "p2_ode", "qp_grid",
                                "qp_ode", "trace", "herm_residual"], None, problems)
    if not rows:
        return Checked(problems or ["no samples"])
    data = np.array(rows, dtype=float)
    p = SystemParams(omega0=inv.context["omega0"], T=inv.context["T"])
    ref = moment_reference(p, data[:, 0])
    ode = data[:, [2, 4, 6]]
    scale = np.abs(ref).max(axis=1, keepdims=True)
    if not np.all(np.abs(ode - ref) <= 1e-9 * scale):
        problems.append("ode columns differ from the independent moment solution")
    q2, p2, qp = ref[:, 0], ref[:, 1], ref[:, 2]
    gap = float(np.max(np.concatenate([
        np.abs(data[:, 1] / q2 - 1.0), np.abs(data[:, 3] / p2 - 1.0),
        np.abs(data[:, 5] - qp) / np.sqrt(q2 * p2)])))
    drift = float(np.max(np.abs(data[:, 7] - data[0, 7])))
    herm = float(np.max(data[:, 8]))
    if not _close(data[-1, 0], GRID_HORIZON, 1e-12):
        problems.append(f"last sample at t={data[-1, 0]!r}, not the horizon")
    if not gap < GRID_MOMENT_GAP:
        problems.append(f"moment gap {gap:.3e} >= {GRID_MOMENT_GAP}")
    if not drift < GRID_TRACE_DRIFT:
        problems.append(f"trace drift {drift:.3e} >= {GRID_TRACE_DRIFT}")
    if not herm < GRID_HERMITICITY:
        problems.append(f"hermiticity residual {herm:.3e} >= {GRID_HERMITICITY}")
    return Checked(problems, {"grid.moment_gap": gap, "grid.trace_drift": drift,
                              "grid.herm_residual": herm})


# --- point_sweeps ------------------------------------------------------------

SWEEP_POINTS = 1501          # odd, so a symmetric linear omega0 sweep hits omega0 = gamma
# a fixed RK4 step, inside the accuracy bound 0.01/max(gamma, omega0) for
# every drawn omega0 <= 2.2: 4000 steps over t_end = 10, sampled every 4th
MOMENT_T_END = 10.0
MOMENT_DT = 0.0025
MOMENT_POINTS = 1000
MOMENT_ROWS = MOMENT_POINTS + 1   # the initial state, then every stride-th step


def make_point_sweeps(rng: random.Random, tmp: Path) -> Invocation:
    w = 2.0 * rng.uniform(0.9, 1.1)
    half = rng.uniform(0.6, 0.8)
    sweeps = [
        ("T", ["--omega0", _f(w)], f"T={_f(0.1 * rng.uniform(0.9, 1.1))}:"
                                   f"{_f(100.0 * rng.uniform(0.9, 1.1))}:log"),
        ("omega0", ["--T", _f(rng.uniform(1.5, 2.5))], f"omega0={_f(1.0 - half)}:{_f(1.0 + half)}"),
        ("T", ["--omega0", _f(w), "--omega-c", _f(rng.uniform(20.0, 50.0))],
         f"T={_f(0.2 * rng.uniform(0.9, 1.1))}:{_f(50.0 * rng.uniform(0.9, 1.1))}:log"),
    ]
    argvs, outs, pairs = [], [], []
    for k, (var, flags, sweep) in enumerate(sweeps):
        pair = []
        for cmd in ("coeffs", "diffusion"):
            out = tmp / f"{cmd}{k}.csv"
            argvs.append([cmd, *flags, "--sweep", sweep, "--points", str(SWEEP_POINTS),
                          "--out", str(out)])
            outs.append(out)
            pair.append(out)
        fixed_T = float(flags[1]) if var == "omega0" else None
        pairs.append((pair[0], pair[1], fixed_T))

    mom = tmp / "moments.csv"
    argvs.append(["moments", "--omega0", _f(w), "--T", _f(rng.uniform(0.5, 2.0)),
                  "--q2", _f(rng.uniform(1.0, 2.0)), "--p2", _f(rng.uniform(0.5, 1.0)),
                  f"--qp={_f(rng.uniform(-0.1, 0.1))}",  # '=': '-5e-05' is no flag
                  "--t-end", _f(MOMENT_T_END), "--dt", _f(MOMENT_DT),
                  "--points", str(MOMENT_POINTS), "--out", str(mom)])
    free = tmp / "free.csv"
    g, T = rng.uniform(0.8, 1.2), rng.uniform(0.8, 1.2)
    argvs.append(["free-particle", "--gamma", _f(g), "--T", _f(T), "--out", str(free)])
    eq = tmp / "eq.csv"
    eq_argv, eq_omega0 = equilibrium_argv(rng, eq)
    argvs.append(eq_argv)
    outs += [mom, free, eq]
    return Invocation(argvs, outs, {"pairs": pairs, "moments": mom, "free": free,
                                    "gamma": g, "T": T, "eq": eq, "eq_omega0": eq_omega0})


def check_point_sweeps(inv: Invocation) -> Checked:
    problems: list[str] = []
    ctx = inv.context
    for coeffs_out, diff_out, fixed_T in ctx["pairs"]:
        a_rows = _table(coeffs_out, ["sweep_var", "sweep_value", "alpha", "alpha_prime",
                                     "residual_imag"], SWEEP_POINTS, problems)
        d_rows = _table(diff_out, ["sweep_var", "sweep_value", "Dpp", "Dqq", "Dpq", "delta",
                                   "positive"], SWEEP_POINTS, problems)
        for ra, rd in zip(a_rows or [], d_rows or []):
            kT = float(ra[1]) if fixed_T is None else fixed_T   # gamma = M = kB = 1
            a, ap = float(ra[2]), float(ra[3])
            Dpp, Dqq, Dpq, dl = map(float, rd[2:6])
            ties = (_close(Dpq, 4.0 * kT * ap, 1e-13) and _close(Dqq, 2.0 * kT * ap, 1e-13)
                    and _close(Dpp, 2.0 * kT * (a + 4.0 * ap), 1e-13))
            consistent = (_close(dl, Dpp * Dqq - Dpq * Dpq - 0.25, 0.0, 1e-12 * max(1.0, Dpp * Dqq))
                          and (rd[6] == "true") == (dl > 0.0) and ra[1] == rd[1])
            if not (ties and consistent):
                problems.append(f"{diff_out.name}: diffusion ties fail at "
                                f"{ra[0]}={ra[1]}")

    _, _, rows = read_csv(ctx["moments"])
    if len(rows) != MOMENT_ROWS:
        problems.append(f"moments: {len(rows)} rows, expected {MOMENT_ROWS}")
    for r in rows:
        v = list(map(float, r))
        scale = max(abs(v[1]), abs(v[2]), abs(v[3]))
        if not all(_close(v[i + 3], v[i], 0.0, 1e-6 * scale) for i in (1, 2, 3)):
            problems.append(f"moments: analytic and numeric differ at t={r[0]}")
            break

    table = {r[0]: tuple(map(float, r[1:])) for r in read_csv(ctx["free"])[2]}
    g, T = ctx["gamma"], ctx["T"]
    limits = {"p2_longtime": 1e-3, "q2_slope": 1e-2, "alpha_limit": 1e-6,
              "alpha_prime_limit": 1e-6}
    if set(table) != set(limits):
        problems.append(f"free-particle: quantities {sorted(table)}")
    else:
        for name, limit in limits.items():
            if not abs(table[name][2]) < limit:
                problems.append(f"free-particle: {name} gap {table[name][2]!r} >= {limit}")
        if not _close(table["p2_longtime"][1], g / math.tanh(g / T), 1e-13):
            problems.append("free-particle: <p^2> reference is off")
    check_equilibrium(ctx["eq"], ctx["eq_omega0"], problems)
    return Checked(problems)


@dataclass(frozen=True)
class Workload:
    make: Callable[[random.Random, Path], Invocation]
    check: Callable[[Invocation], Checked]


WORKLOADS = {
    "tc_curve": Workload(make_tc_curve, check_tc_curve),
    "grid_validate": Workload(make_grid_validate, check_grid_validate),
    "point_sweeps": Workload(make_point_sweeps, check_point_sweeps),
}
