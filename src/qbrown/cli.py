"""Command-line front end: parameter parsing, sweeps, CSV emission.

Everything is deterministic: identical invocations produce byte-identical
output (no RNG anywhere, fixed 17-significant-digit formatting, CRLF rows).
Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import selftest as _selftest
from .coefficients import alpha_arrays, alpha_pair, alpha_prime_free
from .core import QbmError, StepSizeError, SystemParams
from .diffusion import diffusion_constants, positivity_delta, tc_curve
from .dynamics import (
    MomentState,
    analytic_solution,
    equilibrium_moments,
    evolve_numeric,
    free_particle_longtime,
)
from .grid import BoundaryMassWarning, gaussian_state, plan_steps, suggested_half_width
from .grid import evolve as grid_evolve
from .matsubara import MatsubaraConfig, matsubara_p2, matsubara_q2

FLOAT_FMT = "%.17g"
# grid-validate exits 2 outside these (the acceptance run's bounds)
GRID_MOMENT_GAP = 1e-2
GRID_TRACE_DRIFT = 1e-6
GRID_HERMITICITY = 1e-9
# moments rejects a run of more RK4 steps: the default dt takes
# 2000*max(gamma, omega0)/gamma steps, 2e6 at omega0/gamma = 1000
MAX_MOMENT_STEPS = 10 ** 7

# single source of truth for emitted headers; --help text is built from this
COLUMNS = {
    "coeffs": ["sweep_var", "sweep_value", "alpha", "alpha_prime", "residual_imag"],
    "diffusion": ["sweep_var", "sweep_value", "Dpp", "Dqq", "Dpq", "delta", "positive"],
    "tc-curve": ["omega0_over_gamma", "kBTc_over_hbar_gamma"],
    "equilibrium": ["T", "potential", "kinetic", "potential_oracle", "kinetic_oracle",
                    "potential_relgap", "kinetic_relgap"],
    "moments": ["t", "q2_analytic", "p2_analytic", "qp_analytic",
                "q2_numeric", "p2_numeric", "qp_numeric"],
    "free-particle": ["quantity", "value", "reference", "rel_gap"],
    "grid-validate": ["t", "q2_grid", "q2_ode", "p2_grid", "p2_ode",
                      "qp_grid", "qp_ode", "trace", "herm_residual"],
}

_SWEEPABLE = ("T", "omega0", "gamma", "omega_c", "M")


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad flags, not argparse's default 2
        raise ConfigError(message)


@dataclass(frozen=True)
class Sweep:
    var: str
    lo: float
    hi: float
    log: bool

    def values(self, n: int) -> np.ndarray:
        if self.log:
            return np.geomspace(self.lo, self.hi, n)
        return np.linspace(self.lo, self.hi, n)


@dataclass(frozen=True)
class RunConfig:
    """Fully parsed, deterministic run description."""

    command: str
    M: float = 1.0
    omega0: float = 1.0
    gamma: float = 1.0
    T: float = 1.0
    omega_c: float = math.inf
    hbar: float = 1.0
    kB: float = 1.0
    points: int = 50
    out: Optional[str] = None
    sweep: Optional[Sweep] = None
    options: dict = field(default_factory=dict)

    def params(self, **overrides) -> SystemParams:
        kw = dict(omega0=self.omega0, T=self.T, gamma=self.gamma, M=self.M,
                  omega_c=self.omega_c, hbar=self.hbar, kB=self.kB)
        kw.update(overrides)
        try:
            return SystemParams(**kw)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def convention(self) -> str:
        return (f"M={self.M:g} omega0={self.omega0:g} gamma={self.gamma:g} "
                f"T={self.T:g} omega_c={self.omega_c:g} hbar={self.hbar:g} kB={self.kB:g}")


def _parse_range(text: str, what: str) -> tuple[float, float, bool]:
    parts = text.split(":")
    if len(parts) not in (2, 3) or (len(parts) == 3 and parts[2] != "log"):
        raise ConfigError(f"{what}: expected <lo>:<hi>[:log], got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"{what}: need finite lo and hi, got {text!r}")
    if not lo < hi:
        raise ConfigError(f"{what}: need lo < hi, got {text!r}")
    return lo, hi, len(parts) == 3


def _parse_sweep(text: str) -> Sweep:
    if "=" not in text:
        raise ConfigError(f"--sweep: expected <var>=<lo>:<hi>[:log], got {text!r}")
    var, rng = text.split("=", 1)
    if var not in _SWEEPABLE:
        raise ConfigError(f"--sweep: unknown variable {var!r} (choose from {_SWEEPABLE})")
    lo, hi, log = _parse_range(rng, "--sweep")
    if log and lo <= 0:
        raise ConfigError("--sweep: log spacing needs lo > 0")
    return Sweep(var, lo, hi, log)


def _add_param_flags(p: argparse.ArgumentParser, with_T: bool = True) -> None:
    p.add_argument("--M", type=float, default=1.0, help="mass (default 1)")
    p.add_argument("--omega0", type=float, default=1.0, help="oscillator frequency (default 1)")
    p.add_argument("--gamma", type=float, default=1.0,
                   help="half the momentum damping rate (default 1)")
    if with_T:
        p.add_argument("--T", type=float, default=1.0, help="temperature (default 1)")
    p.add_argument("--omega-c", type=float, default=math.inf,
                   help="Drude cutoff; inf removes it (default inf)")
    p.add_argument("--hbar", type=float, default=1.0, help="hbar (default 1)")
    p.add_argument("--kB", type=float, default=1.0, help="Boltzmann constant (default 1)")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="qbrown",
        description="Non-perturbative quantum Brownian motion of a damped oscillator: "
                    "dissipation coefficients, diffusion constants, positivity analysis, "
                    "moment dynamics, and validation suites.  All output is CSV with "
                    "17-significant-digit values; the default unit convention is "
                    "hbar = kB = M = gamma = 1.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def cols(cmd):
        return "columns: " + ",".join(COLUMNS[cmd])

    p = sub.add_parser("coeffs", help="alpha, alpha' table over a sweep",
                       description="Dissipation coefficients over a sweep. " + cols("coeffs"))
    _add_param_flags(p)
    p.add_argument("--sweep", type=str, default="T=0.1:100:log",
                   help="sweep as <var>=<lo>:<hi>[:log] (default T=0.1:100:log)")
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("diffusion", help="Dpp, Dqq, Dpq, Delta table over a sweep",
                       description="Diffusion constants and the positivity functional "
                                   "Delta over a sweep. " + cols("diffusion"))
    _add_param_flags(p)
    p.add_argument("--sweep", type=str, default="T=0.1:100:log")
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("tc-curve", help="breakdown-temperature curve",
                       description="Breakdown temperature kB*Tc/(hbar*gamma) vs "
                                   "omega0/gamma (log-spaced). " + cols("tc-curve"))
    p.add_argument("--omega0-over-gamma", type=str, default="1e-3:1e2",
                   help="ratio range <lo>:<hi> (default 1e-3:1e2)")
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--kB", type=float, default=1.0)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("equilibrium",
                       help="equilibrium energies vs the thermodynamic oracle",
                       description="Master-equation equilibrium potential/kinetic energies "
                                   "against the Matsubara oracle over a temperature range. "
                                   + cols("equilibrium"))
    p.add_argument("--gamma-over-omega0", type=float, default=2.0)
    p.add_argument("--T", type=str, default="0.5:20",
                   help="temperature range <lo>:<hi>[:log] (default 0.5:20)")
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--M", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--kB", type=float, default=1.0)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("moments", help="moment trajectory, analytic and numeric",
                       description="Second-moment evolution from given initial moments; "
                                   "exact closed-form solution and RK4 integration side "
                                   "by side. " + cols("moments"))
    _add_param_flags(p)
    p.add_argument("--q2", type=float, default=1.0, help="initial <q^2>")
    p.add_argument("--p2", type=float, default=1.0, help="initial <p^2>")
    p.add_argument("--qp", type=float, default=0.0, help="initial <qp+pq>")
    p.add_argument("--t-end", type=float, default=None, help="default 10/gamma")
    p.add_argument("--dt", type=float, default=None,
                   help="default 0.005/max(gamma, omega0)")
    p.add_argument("--points", type=int, default=200, help="rows to sample")
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("free-particle", help="vanishing-frequency limit table",
                       description="Free-particle recovery: long-time <p^2>, diffusive "
                                   "<q^2> slope, and the alpha, alpha' limits, each against "
                                   "its closed-form reference. " + cols("free-particle"))
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--M", type=float, default=1.0)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--kB", type=float, default=1.0)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("grid-validate", help="grid evolution vs moment ODEs",
                       description="Evolve the master equation on an (x, y) grid from a "
                                   "displaced Gaussian and compare grid moments with the "
                                   "analytic moment solution; exits 2 if the run leaves "
                                   f"the box or its tolerances (moment gap {GRID_MOMENT_GAP:g}, "
                                   f"trace drift {GRID_TRACE_DRIFT:g}, hermiticity "
                                   f"{GRID_HERMITICITY:g}). " + cols("grid-validate"))
    _add_param_flags(p)
    p.add_argument("--N", type=int, default=256,
                   help="grid points per axis, at least 5 (default 256)")
    p.add_argument("--L", type=float, default=0.0, help="grid half-width (0 = auto)")
    p.add_argument("--t-end", type=float, default=None, help="default 3/gamma")
    p.add_argument("--sample-every", type=int, default=50)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--snapshot-out", type=str, default=None,
                   help="write the final rho(x,y) snapshot CSV here")

    sub.add_parser("selftest", help="run the install checks",
                   description="Runs four install checks (no pytest needed); exits 2 "
                               "on any failure.")
    return parser


def parse_config(argv: Optional[Sequence[str]] = None) -> RunConfig:
    args = build_parser().parse_args(argv)
    kw = dict(command=args.command)
    for name in ("M", "omega0", "gamma", "T", "omega_c", "hbar", "kB", "points", "out"):
        if hasattr(args, name) and not (name == "T" and isinstance(getattr(args, name), str)):
            kw[name] = getattr(args, name)
    options = {k: v for k, v in vars(args).items()
               if k not in kw and k not in ("command", "sweep")}
    if getattr(args, "sweep", None):
        kw["sweep"] = _parse_sweep(args.sweep)
    if args.command == "equilibrium":
        options["T_range"] = _parse_range(args.T, "--T")
    kw["options"] = options
    if kw.get("points", 1) < 1:
        raise ConfigError("--points must be positive")
    return RunConfig(**kw)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return FLOAT_FMT % v
    return str(v)


_PLOT_BODIES = {
    "tc-curve": ('plt.loglog(cols["omega0_over_gamma"], cols["kBTc_over_hbar_gamma"], '
                 'label="kB*Tc/(hbar*gamma)")'),
    "equilibrium": ('plt.plot(cols["T"], cols["potential"], label="potential")\n'
                    'plt.plot(cols["T"], cols["kinetic"], label="kinetic")\n'
                    'plt.plot(cols["T"], cols["potential_oracle"], "o", ms=3, '
                    'label="potential (oracle)")\n'
                    'plt.plot(cols["T"], cols["kinetic_oracle"], "s", ms=3, '
                    'label="kinetic (oracle)")'),
    "moments": ('for k in ("q2_analytic", "p2_analytic", "qp_analytic"):\n'
                '    plt.plot(cols["t"], cols[k], label=k)'),
    "grid-validate": ('for k in ("q2_grid", "q2_ode", "p2_grid", "p2_ode"):\n'
                      '    plt.plot(cols["t"], cols[k], label=k)'),
}

_PLOT_TEMPLATE = '''#!/usr/bin/env python3
"""Plot companion for {csv} (auto-generated)."""
import csv
import matplotlib.pyplot as plt

with open({csv!r}, newline="") as fh:
    rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
head, data = rows[0], rows[1:]
cols = {{h: [float(r[i]) for r in data] for i, h in enumerate(head)}}

plt.figure()
{body}
plt.xlabel({xlabel!r})
plt.legend()
plt.tight_layout()
plt.savefig({png!r}, dpi=160)
print("wrote", {png!r})
'''


class NonFiniteOutputError(QbmError):
    """A result row holds nan or inf; the CSV is not written."""


class GridToleranceError(QbmError):
    """grid-validate left its accuracy tolerances or leaked into the boundary."""


def _check_finite(header: list[str], rows: list[tuple]) -> None:
    for i, row in enumerate(rows):
        for name, v in zip(header, row):
            if isinstance(v, (float, np.floating)) and not math.isfinite(v):
                raise NonFiniteOutputError(f"{name} = {_fmt(v)} in data row {i + 1}")


def _emit(cfg: RunConfig, meta: str, rows: list[tuple], xlabel: str = "") -> None:
    """Write the CSV, or raise NonFiniteOutputError if any value is nan/inf."""
    header = COLUMNS[cfg.command]
    body = "".join([",".join([_fmt(v) for v in row]) + "\r\n" for row in rows])
    # "%.17g" spells non-finite floats nan, inf or -inf: screening the text
    # costs one substring scan, and only a hit pays for the exact check
    if "nan" in body or "inf" in body:
        _check_finite(header, rows)
    text = f"# qbrown {cfg.command} {meta}\r\n" + ",".join(header) + "\r\n" + body
    if cfg.out:
        with open(cfg.out, "w", newline="") as f:
            f.write(text)
        if cfg.command in _PLOT_BODIES:
            with open(cfg.out + ".plot.py", "w") as f:
                f.write(_PLOT_TEMPLATE.format(csv=cfg.out, body=_PLOT_BODIES[cfg.command],
                                              xlabel=xlabel, png=cfg.out + ".png"))
    else:
        sys.stdout.write(text)


def _swept_params(cfg: RunConfig) -> tuple[str, np.ndarray, SystemParams]:
    """The sweep variable, its values, and the whole sweep as one batch of
    systems (every value validated)."""
    sweep = cfg.sweep or Sweep("T", 0.1, 100.0, True)
    values = sweep.values(cfg.points)
    return sweep.var, values, cfg.params(**{sweep.var: values})


def _columns(var: str, values: np.ndarray, *arrays) -> list[tuple]:
    return [(var, *row) for row in zip(values.tolist(), *(a.tolist() for a in arrays))]


def _run_coeffs(cfg: RunConfig) -> int:
    var, values, p = _swept_params(cfg)
    ab = alpha_arrays(p)
    rows = _columns(var, values, ab.alpha, ab.alpha_prime, ab.residual_imag)
    _emit(cfg, cfg.convention(), rows, xlabel=var)
    return 0


def _run_diffusion(cfg: RunConfig) -> int:
    var, values, p = _swept_params(cfg)
    d = diffusion_constants(p)
    rep = positivity_delta(d)
    rows = _columns(var, values, d.Dpp, d.Dqq, d.Dpq, rep.delta, rep.positive)
    _emit(cfg, cfg.convention(), rows, xlabel=var)
    return 0


def _run_tc_curve(cfg: RunConfig) -> int:
    lo, hi, _ = _parse_range(cfg.options["omega0_over_gamma"], "--omega0-over-gamma")
    if not lo > 0:
        raise ConfigError("--omega0-over-gamma: need lo > 0")
    if not (0 < cfg.hbar < math.inf and 0 < cfg.kB < math.inf):
        raise ConfigError("--hbar and --kB must be finite and positive")
    pts = tc_curve(lo, hi, cfg.points, hbar=cfg.hbar, kB=cfg.kB)
    _emit(cfg, f"hbar={cfg.hbar:g} kB={cfg.kB:g} (dimensionless axes)",
          [(r, tc) for r, tc in pts], xlabel="omega0/gamma")
    return 0


def _run_equilibrium(cfg: RunConfig) -> int:
    ratio = cfg.options["gamma_over_omega0"]
    if not 0 < ratio < math.inf:
        raise ConfigError("--gamma-over-omega0 must be finite and positive")
    omega0 = cfg.gamma / ratio
    lo, hi, log = cfg.options["T_range"]
    Ts = np.geomspace(lo, hi, cfg.points) if log else np.linspace(lo, hi, cfg.points)
    p = cfg.params(omega0=omega0, T=Ts)
    eq = equilibrium_moments(p, diffusion_constants(p))
    pot = 0.5 * p.M * p.omega0 ** 2 * eq.q2
    kin = eq.p2 / (2.0 * p.M)
    pot_or = 0.5 * p.M * p.omega0 ** 2 * matsubara_q2(p)
    kin_or = matsubara_p2(p) / (2.0 * p.M)
    rows = list(zip(*(v.tolist() for v in (Ts, pot, kin, pot_or, kin_or,
                                           pot / pot_or - 1.0, kin / kin_or - 1.0))))
    # the oracle's Drude cutoff, which kinetic_oracle depends on
    omega_c = MatsubaraConfig().cutoff_for(cfg.params(omega0=omega0))
    meta = (f"gamma_over_omega0={ratio:g} omega0={omega0:g} gamma={cfg.gamma:g} "
            f"M={cfg.M:g} hbar={cfg.hbar:g} kB={cfg.kB:g} omega_c={omega_c:g}")
    _emit(cfg, meta, rows, xlabel="T")
    return 0


def _time_option(cfg: RunConfig, name: str) -> Optional[float]:
    """A time option's value; None and 0 ask for the default."""
    v = cfg.options.get(name)
    if v is not None and not 0.0 <= v < math.inf:
        raise ConfigError(f"--{name.replace('_', '-')} must be finite and non-negative")
    return v


def _run_moments(cfg: RunConfig) -> int:
    t_end, dt = _time_option(cfg, "t_end"), _time_option(cfg, "dt")
    p = cfg.params()
    d = diffusion_constants(p)
    s0 = MomentState(cfg.options["q2"], cfg.options["p2"], cfg.options["qp"])
    t_end = t_end or 10.0 / p.gamma
    dt = dt or 0.005 / max(p.gamma, p.omega0)
    if t_end / dt > MAX_MOMENT_STEPS:
        raise ConfigError(f"--dt {dt:g} takes more than {MAX_MOMENT_STEPS} RK4 steps "
                          f"to --t-end {t_end:g}")
    n_steps = max(1, int(round(t_end / dt)))
    stride = max(1, n_steps // cfg.points)
    try:
        traj = evolve_numeric(s0, p, d, t_end, dt, stride=stride)
    except StepSizeError as exc:  # checked before the first step
        raise ConfigError(f"--dt: {exc}") from exc
    a = analytic_solution(s0, p, d, traj.t)
    rows = list(zip(*(v.tolist() for v in (traj.t, a.q2, a.p2, a.qp,
                                           traj.q2, traj.p2, traj.qp))))
    _emit(cfg, cfg.convention(), rows, xlabel="t")
    return 0


def _run_free_particle(cfg: RunConfig) -> int:
    g, T, M, hbar, kB = cfg.gamma, cfg.T, cfg.M, cfg.hbar, cfg.kB
    s0 = MomentState(q2=1.0, p2=M * kB * T, qp=0.0)
    t_late = 100.0 / g

    # the slope fit's times end at t_late, so one call gives both figures
    ts = np.linspace(50.0 / g, t_late, 11)
    fp = free_particle_longtime(s0, g, T, ts, M=M, hbar=hbar, kB=kB)
    p2_ref = M * hbar * g / math.tanh(hbar * g / (kB * T))
    p2_val = fp.p2[-1]
    slope = float(np.polyfit(ts, fp.q2, 1)[0])
    slope_ref = kB * T / (M * g)

    p_small = SystemParams(omega0=1e-6 * g, T=T, gamma=g, M=M, hbar=hbar, kB=kB)
    ab = alpha_pair(p_small)
    ap0 = alpha_prime_free(g, T, hbar=hbar, kB=kB)

    rows = [
        ("p2_longtime", p2_val, p2_ref, p2_val / p2_ref - 1.0),
        ("q2_slope", slope, slope_ref, slope / slope_ref - 1.0),
        ("alpha_limit", ab.alpha, 1.0, ab.alpha - 1.0),
        ("alpha_prime_limit", ab.alpha_prime, ap0, ab.alpha_prime / ap0 - 1.0),
    ]
    _emit(cfg, f"gamma={g:g} T={T:g} M={M:g} hbar={hbar:g} kB={kB:g}", rows)
    return 0


def _run_grid_validate(cfg: RunConfig) -> int:
    N = cfg.options.get("N", 256)
    every = cfg.options.get("sample_every", 50)
    if N < 5:
        raise ConfigError("--N must be at least 5, the stencil width")
    if every < 1:
        raise ConfigError("--sample-every must be at least 1")
    t_end = _time_option(cfg, "t_end")
    p = cfg.params()
    d = diffusion_constants(p)
    eq = equilibrium_moments(p, d)
    s0 = MomentState(1.4 * eq.q2, 0.75 * eq.p2, eq.qp)
    if s0.uncertainty() < 0.25 * p.hbar ** 2:
        raise ConfigError("displaced state violates the uncertainty bound; raise T")
    t_end = t_end or 3.0 / p.gamma
    L = cfg.options.get("L") or 0.0
    if L <= 0:
        L = suggested_half_width(1.05 * max(s0.q2, eq.q2), p, d, N=N)
    g0 = gaussian_state(s0, N=N, L=L, hbar=p.hbar)
    steps, dt = plan_steps(g0, p, d, t_end)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", BoundaryMassWarning)
        final, samples = grid_evolve(g0, p, d, t_end, sample_every=every)
    for w in caught:  # pass every warning on to the caller's filters
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    a = analytic_solution(s0, p, d, np.array([s["t"] for s in samples]))
    rows = []
    worst = 0.0
    for s, q2, p2, qp in zip(samples, a.q2.tolist(), a.p2.tolist(), a.qp.tolist()):
        rows.append((s["t"], s["q2"], q2, s["p2"], p2, s["qp"], qp, s["trace"], s["herm"]))
        worst = max(worst, abs(s["q2"] / q2 - 1.0), abs(s["p2"] / p2 - 1.0),
                    abs(s["qp"] - qp) / math.sqrt(q2 * p2))
    _emit(cfg, cfg.convention() + f" N={g0.N} L={g0.L:g}", rows, xlabel="t")
    if cfg.options.get("snapshot_out"):
        final.write_csv(cfg.options["snapshot_out"], params=p)
    drift = max(abs(s["trace"] - samples[0]["trace"]) for s in samples)
    herm = max(s["herm"] for s in samples)
    print(f"grid-validate: worst moment gap {worst:.3e}, trace drift {drift:.3e}, "
          f"hermiticity residual {herm:.3e}, steps={steps} dt={dt:.6e}", file=sys.stderr)
    problems = [f"{what} {value:.3e} >= {bound:g}" for what, value, bound in (
        ("moment gap", worst, GRID_MOMENT_GAP), ("trace drift", drift, GRID_TRACE_DRIFT),
        ("hermiticity residual", herm, GRID_HERMITICITY)) if not value < bound]
    if any(issubclass(w.category, BoundaryMassWarning) for w in caught):
        problems.append("the state reached the grid boundary")
    if problems:
        raise GridToleranceError("; ".join(problems))
    return 0


_RUNNERS = {
    "coeffs": _run_coeffs,
    "diffusion": _run_diffusion,
    "tc-curve": _run_tc_curve,
    "equilibrium": _run_equilibrium,
    "moments": _run_moments,
    "free-particle": _run_free_particle,
    "grid-validate": _run_grid_validate,
}


def run(cfg: RunConfig) -> int:
    if cfg.command == "selftest":
        return _selftest.run_selftest()
    return _RUNNERS[cfg.command](cfg)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        cfg = parse_config(argv)
        return run(cfg)
    except ConfigError as exc:
        print(f"qbrown: configuration error: {exc}", file=sys.stderr)
        return 1
    except (QbmError, ArithmeticError) as exc:
        # a bare ZeroDivisionError or OverflowError from a numeric step is a
        # numerical failure, not a configuration error
        print(f"qbrown: numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
