"""The traced layers: which library functions get a span, and the per-layer
figures computed from one traced invocation.

Each figure should move one end-to-end metric on one workload:

- core / coefficients / diffusion: ``wall_ref`` and ``cpu_ref`` on tc_curve
  (``alpha_pair.us_per_call`` also on point_sweeps); no change on
  grid_validate.
- matsubara: ``wall_ref`` and ``peak_rss_mb`` on point_sweeps (its one
  equilibrium run) only.
- grid: ``wall_ref`` on grid_validate only.
- dynamics and cli: ``wall_ref`` on point_sweeps.
"""

from __future__ import annotations

import math
from collections import defaultdict

from spans import Tracer, self_times


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _alpha_hook(tracer: Tracer, args, kwargs, result) -> None:
    if _arg(args, kwargs, 0, "p").is_critical():
        tracer.count("coefficients.alpha_pair.critical_calls")
    tracer.maximum("coefficients.alpha_pair.max_residual_imag", result.residual_imag)


def _grid_hook(tracer: Tracer, args, kwargs, result) -> None:
    # the step count evolve() takes: the horizon over dt, where dt defaults
    # to the public stability bound
    from qbrown.grid import stable_dt

    g, p, d, t_end = (_arg(args, kwargs, i, n) for i, n in enumerate(("g", "p", "d", "t_end")))
    dt = _arg(args, kwargs, 4, "dt") or stable_dt(g, p, d)
    steps = max(1, math.ceil(t_end / dt - 1e-12))
    tracer.count("grid.steps", steps)
    tracer.count("grid.cells", steps * g.N * g.N)
    tracer.count("grid.horizon", t_end)


def _rk4_hook(tracer: Tracer, args, kwargs, result) -> None:
    t_end, dt = _arg(args, kwargs, 3, "t_end"), _arg(args, kwargs, 4, "dt")
    tracer.count("dynamics.rk4_steps", max(1, int(round(t_end / dt))))


# (defining module, function, span name, hook); every binding of the function
# in a loaded qbrown module is wrapped
TARGETS = [
    ("qbrown.core", "xcothx_m1", "core.xcothx_m1", None),
    ("qbrown.coefficients", "alpha_pair", "coefficients.alpha_pair", _alpha_hook),
    ("qbrown.diffusion", "diffusion_constants", "diffusion.diffusion_constants", None),
    ("qbrown.diffusion", "positivity_delta", "diffusion.positivity_delta", None),
    ("qbrown.diffusion", "breakdown_temperature", "diffusion.breakdown_temperature", None),
    ("qbrown.diffusion", "tc_curve", "diffusion.tc_curve", None),
    ("qbrown.matsubara", "matsubara_q2", "matsubara.matsubara_q2", None),
    ("qbrown.matsubara", "matsubara_p2", "matsubara.matsubara_p2", None),
    ("qbrown.grid", "gaussian_state", "grid.gaussian_state", None),
    ("qbrown.grid", "evolve", "grid.evolve", _grid_hook),
    ("qbrown.grid", "moments_from_grid", "grid.moments_from_grid", None),
    ("qbrown.dynamics", "evolve_numeric", "dynamics.evolve_numeric", _rk4_hook),
    ("qbrown.dynamics", "analytic_solution", "dynamics.analytic_solution", None),
    ("qbrown.dynamics", "free_particle_longtime", "dynamics.free_particle_longtime", None),
    ("qbrown.cli", "main", "cli.main", None),
]

WARNINGS = {
    "CutoffSensitivityWarning": "matsubara.cutoff_warnings",
    "ConvergenceWarning": "matsubara.convergence_warnings",
    "BoundaryMassWarning": "grid.boundary_warnings",
}

HEALTH = ("grid.moment_gap", "grid.trace_drift", "grid.herm_residual")

# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer
PER_LAYER: dict[str, tuple[str, str]] = {}
for _, _, _span, _ in TARGETS:
    PER_LAYER[_span + ".calls"] = ("count", "lower")
    PER_LAYER[_span + ".self_s"] = ("s", "lower")
PER_LAYER.update({
    "coefficients.alpha_pair.us_per_call": ("us", "lower"),
    "coefficients.alpha_pair.critical_calls": ("count", "lower"),
    "coefficients.alpha_pair.max_residual_imag": ("ratio", "lower"),
    "diffusion.delta_evals_per_tc": ("count", "lower"),
    "matsubara.matsubara_q2.ms_per_call": ("ms", "lower"),
    "matsubara.matsubara_p2.ms_per_call": ("ms", "lower"),
    "matsubara.cutoff_warnings": ("count", "lower"),
    "matsubara.convergence_warnings": ("count", "lower"),
    "grid.steps": ("count", "lower"),
    "grid.dt": ("s", "higher"),
    "grid.s_per_step": ("s", "lower"),
    "grid.cell_updates_per_s": ("1/s", "higher"),
    "grid.moment_gap": ("ratio", "lower"),
    "grid.trace_drift": ("ratio", "lower"),
    "grid.herm_residual": ("ratio", "lower"),
    "grid.boundary_warnings": ("count", "lower"),
    "dynamics.rk4_steps": ("count", "lower"),
    "cli.rows": ("count", "lower"),
    "cli.csv_bytes": ("bytes", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.span_cost_us": ("us", "lower"),
    "trace.wrapper_overhead_s": ("s", "lower"),
    "trace.accounted_share": ("ratio", "higher"),
    "error_rate": ("ratio", "lower"),
})


def figures(tracer: Tracer, invocation: int, spans: range, wall: float,
            warnings: dict[str, int], health: dict[str, float],
            rows: int, csv_bytes: int) -> dict[str, float]:
    """Per-layer figures of one traced invocation, keyed by metric name.

    Self times and per-call times leave out the wrappers' own cost
    (``Tracer.charges``); ``trace.wrapper_overhead_s`` is that cost, and
    ``trace.accounted_share`` counts it with the self times.
    ``trace.overhead_s`` and ``error_rate`` need the untraced invocations
    too, so the caller fills them in.
    """
    start, end, parent, name_id = tracer.start, tracer.end, tracer.parent, tracer.name_id
    names = tracer.names
    charge = tracer.charges(spans)
    selfs = self_times(start, end, parent, spans, charge)
    # wrapper time of every span nested below each span, so per-call times
    # leave out the tracing of their children
    inner: dict[int, float] = defaultdict(float)
    for i in reversed(spans):
        if parent[i] >= 0:
            inner[parent[i]] += charge[i] + inner[i]
    wrapper_s = sum(charge[i] for i in spans if parent[i] >= 0)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    # spans nested anywhere below a breakdown_temperature span
    under_tc: dict[int, bool] = {}
    delta_evals = 0
    for i in spans:
        name = names[name_id[i]]
        calls[name] += 1
        self_s[name] += selfs[i]
        total_s[name] += end[i] - start[i] - inner[i]
        p = parent[i]
        under_tc[i] = name == "diffusion.breakdown_temperature" or (p >= 0 and under_tc[p])
        if name == "diffusion.positivity_delta" and under_tc[i]:
            delta_evals += 1

    out: dict[str, float] = {}
    for _, _, span, _ in TARGETS:
        out[span + ".calls"] = calls[span]
        out[span + ".self_s"] = self_s[span]
    counters = tracer.counters[invocation]
    n_alpha = calls["coefficients.alpha_pair"]
    out["coefficients.alpha_pair.us_per_call"] = (
        1e6 * total_s["coefficients.alpha_pair"] / n_alpha if n_alpha else 0.0)
    for key in ("coefficients.alpha_pair.critical_calls",
                "coefficients.alpha_pair.max_residual_imag", "dynamics.rk4_steps"):
        out[key] = counters.get(key, 0.0)
    n_tc = calls["diffusion.breakdown_temperature"]
    out["diffusion.delta_evals_per_tc"] = delta_evals / n_tc if n_tc else 0.0
    for q in ("matsubara.matsubara_q2", "matsubara.matsubara_p2"):
        out[q + ".ms_per_call"] = 1e3 * total_s[q] / calls[q] if calls[q] else 0.0
    for category, key in WARNINGS.items():
        out[key] = warnings.get(category, 0)

    steps = counters.get("grid.steps", 0.0)
    evolve_s = self_s["grid.evolve"]
    out["grid.steps"] = steps
    out["grid.dt"] = counters["grid.horizon"] / steps if steps else 0.0
    out["grid.s_per_step"] = evolve_s / steps if steps else 0.0
    out["grid.cell_updates_per_s"] = counters["grid.cells"] / evolve_s if steps else 0.0
    for key in HEALTH:
        out[key] = health.get(key, 0.0)

    out["cli.rows"] = rows
    out["cli.csv_bytes"] = csv_bytes
    out["trace.wall_s"] = wall
    out["trace.span_cost_us"] = 1e6 * tracer.span_cost
    out["trace.wrapper_overhead_s"] = wrapper_s
    out["trace.accounted_share"] = (sum(selfs.values()) + wrapper_s) / wall
    return out
