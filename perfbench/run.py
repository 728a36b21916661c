#!/usr/bin/env python3
"""qbrown benchmark: real CLI invocations, timed in-process.

Run from the repository root:

    python3 perfbench/run.py --workload tc_curve --seed 1 --seconds 10 --trace 0

One process per workload runs ``qbrown.cli.main(argv)`` in a closed loop
(one client, no extra threads), writing CSV to a temporary directory.  Every
invocation's output is checked against a reference computed outside the
timed region; a nonzero exit, an exception or a failed check counts as a
failed invocation.

``--trace 0`` prints the end-to-end metrics: the wall and CPU time of one
invocation after one untimed warm-up, peak RSS, and the set-up time of a
fresh interpreter that imports ``qbrown.cli`` and builds its parser.

Other machines on a shared host switch its speed between a fast and a ~1.6x
slower state for seconds to minutes at a time, longer than a run, so raw
times move by 20-40% from run to run.  The invocation times are therefore
reported in units of a fixed reference loop that does not touch qbrown,
timed just before and just after every invocation on the same CPU:
``wall_ref`` is the run's summed invocation wall time over the summed
reference wall time, ``cpu_ref`` the same for process CPU time.  A change
to qbrown moves them in proportion to its effect on the raw times, while a
slower host moves numerator and denominator alike.  The raw seconds (mean
and median of ``wall_s`` and ``cpu_s``), every sample and the reference
times are in the line before the result.  ``setup_s`` is the mean over 20
fresh interpreters spread across the run.

``--trace 1`` alternates untraced and traced invocations and prints the
per-layer metrics of the traced ones, plus the tracing overhead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
run environment and sample counts.  Spans and per-invocation figures go to
``.bench_out/`` in the repository root.
"""

import os

# pin before numpy is imported anywhere: single-threaded BLAS/OpenMP, and no
# thread pool in qbrown's tc_curve
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("QBROWN_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 20
END_TO_END = {"wall_ref": "ref", "cpu_ref": "ref", "peak_rss_mb": "MB", "setup_s": "s"}
REFERENCE_ITERATIONS = 100_000   # ~8-12 ms of scalar float work

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import qbrown.cli
qbrown.cli.build_parser()
print(repr(time.perf_counter() - t0))
"""


def summarize(values: list[float]) -> tuple[float, int]:
    """Median and sample count."""
    if not values:
        raise ValueError("no samples")
    return statistics.median(values), len(values)


def mean(values: list[float]) -> float:
    if not values:
        raise ValueError("no samples")
    return statistics.fmean(values)


def ratio(times: list[float], refs: list[float]) -> float:
    """Summed times in units of the summed reference times."""
    return mean(times) / mean(refs)


def load_cli():
    """Import qbrown.cli from this checkout's sources, never from elsewhere."""
    if not (SRC / "qbrown" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no qbrown sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import qbrown.cli

    if Path(qbrown.cli.__file__).resolve().parent != (SRC / "qbrown").resolve():
        raise SystemExit(f"perfbench: imported qbrown from {qbrown.cli.__file__}, not {SRC}")
    return qbrown.cli


def environment() -> dict:
    import numpy

    def first(path: str, prefix: str) -> str:
        with contextlib.suppress(OSError), open(path) as f:
            for line in f:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
        return "unknown"

    l3 = "unknown"
    with contextlib.suppress(OSError), open("/sys/devices/system/cpu/cpu0/cache/index3/size") as f:
        l3 = f.read().strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": first("/proc/cpuinfo", "model name"),
        "l3_cache": l3,
        "mem_total": first("/proc/meminfo", "MemTotal"),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "QBROWN_THREADS": os.environ.get("QBROWN_THREADS", "unset"),
        "roofline": ("bandwidth roofline ratio skipped: a valid bandwidth array must be at "
                     f"least 4x the last-level cache ({l3}; >= 1.2 GB for a 300 MiB L3), "
                     "too large for a shared machine of this memory size"),
    }


def reference() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed scalar loop: the host's current speed."""
    t0, c0 = time.perf_counter(), time.process_time()
    acc = 0.0
    for i in range(REFERENCE_ITERATIONS):
        acc += math.sqrt(i * 1.5)
    return time.perf_counter() - t0, time.process_time() - c0


def measure_setup() -> float:
    """Time for a fresh interpreter to import qbrown.cli and build the parser."""
    r = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                       capture_output=True, text=True, timeout=60, check=True)
    return float(r.stdout.split()[-1])


@dataclass
class Result:
    wall: float
    cpu: float
    error: str = ""
    ref_wall: float = 0.0   # reference loop around the invocation, mean of before and after
    ref_cpu: float = 0.0
    warnings: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    health: dict = field(default_factory=dict)
    rows: int = 0
    csv_bytes: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.error or self.problems)


def invoke(cli, inv) -> Result:
    """Run one invocation's CLI calls; only the calls themselves are timed."""
    sink = io.StringIO()
    error = ""
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        warnings.simplefilter("always")
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            for argv in inv.argvs:
                code = cli.main(argv)  # looked up per call, so a traced run hits the wrapper
                if code != 0:
                    error = f"{argv[0]} exited {code}: {sink.getvalue()[-2000:]}"
                    break
        except Exception:  # an exception is a failed invocation, not a crashed benchmark
            error = traceback.format_exc()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    counts: dict = {}
    for w in caught:
        counts[w.category.__name__] = counts.get(w.category.__name__, 0) + 1
    return Result(wall, cpu, error, counts)


def check(workload, inv, res: Result) -> None:
    """Check the outputs (outside the timed region) and delete them."""
    if not res.error:
        try:
            checked = workload.check(inv)
            res.problems, res.health = checked.problems, checked.health
            for out in inv.outs:
                text = out.read_bytes()
                res.csv_bytes += len(text)
                res.rows += max(0, text.count(b"\r\n") - 2)  # minus comment and header
        except Exception:  # unreadable output is a failed check
            res.problems = [traceback.format_exc()]
    for out in inv.outs:
        for path in (out, out.with_name(out.name + ".plot.py")):
            with contextlib.suppress(FileNotFoundError):
                path.unlink()
    if res.failed:
        print(f"perfbench: failed invocation {inv.argvs}: {res.error or res.problems[:3]}",
              file=sys.stderr)


def run(args, cli, workload) -> tuple[dict, dict, int, int]:
    from layers import PER_LAYER, TARGETS, figures
    from spans import Installed, Tracer, calibrate

    rng = random.Random(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    results: list[Result] = []
    untraced: list[Result] = []
    traced: list[tuple[Result, dict]] = []
    tracer = Tracer()
    if args.trace:
        tracer.span_cost = calibrate()
    hard_stop = time.monotonic() + 3 * args.seconds + 60

    def one(trace: bool) -> Result:
        inv = workload.make(rng, tmp)
        if trace:
            n = len(traced)
            tracer.begin(n)
            with Installed(tracer, TARGETS):
                res = invoke(cli, inv)
            idx = tracer.finish()
        else:
            before = reference()
            res = invoke(cli, inv)
            after = reference()
            res.ref_wall = (before[0] + after[0]) / 2
            res.ref_cpu = (before[1] + after[1]) / 2
        check(workload, inv, res)
        results.append(res)
        if trace:
            traced.append((res, figures(tracer, n, idx, res.wall, res.warnings, res.health,
                                        res.rows, res.csv_bytes)))
        return res

    setup: list[float] = []
    try:
        if not args.trace:
            measure_setup()  # may compile bytecode: untimed
        one(False)  # warm-up: caches, lazy imports, first-touch pages
        measured = 0.0
        while ((measured < args.seconds or (args.trace and not untraced))
               and time.monotonic() < hard_stop):
            trace = bool(args.trace) and len(traced) <= len(untraced)
            res = one(trace)
            if not trace:
                untraced.append(res)
            measured += res.wall
            # set-up samples spread over the run, so a burst of load on the
            # host cannot cover all of them
            while (not args.trace and len(setup) < SETUP_REPS
                   and measured >= len(setup) * args.seconds / SETUP_REPS):
                setup.append(measure_setup())
        while not args.trace and len(setup) < SETUP_REPS:
            setup.append(measure_setup())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = sum(r.failed for r in results)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "untraced_samples": len(untraced), "traced_samples": len(traced),
              "wall_s_samples": [r.wall for r in untraced],
              "cpu_s_samples": [r.cpu for r in untraced],
              "ref_wall_samples": [r.ref_wall for r in untraced],
              "ref_cpu_samples": [r.ref_cpu for r in untraced], "setup_s_samples": setup,
              "env": environment()}
    if not args.trace:
        metrics = {
            "wall_ref": ratio([r.wall for r in untraced], [r.ref_wall for r in untraced]),
            "cpu_ref": ratio([r.cpu for r in untraced], [r.ref_cpu for r in untraced]),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": mean(setup),
        }
        detail["raw_s"] = {
            "wall_s_mean": mean([r.wall for r in untraced]),
            "wall_s_median": summarize([r.wall for r in untraced])[0],
            "cpu_s_mean": mean([r.cpu for r in untraced]),
            "cpu_s_median": summarize([r.cpu for r in untraced])[0],
            "ref_wall_s_mean": mean([r.ref_wall for r in untraced]),
            "setup_s_median": summarize(setup)[0]}
        units = END_TO_END
    else:
        per_inv = [f for _, f in traced]
        metrics = {k: summarize([f[k] for f in per_inv])[0] for k in per_inv[0]}
        metrics["trace.overhead_s"] = (summarize([r.wall for r, _ in traced])[0]
                                       - summarize([r.wall for r in untraced])[0])
        metrics["error_rate"] = failed / len(results)
        units = {k: unit for k, (unit, _) in PER_LAYER.items()}
        detail["per_invocation"] = per_inv
        tracer.write(OUT_DIR / f"spans-{args.workload}.npz")
    with open(OUT_DIR / f"run-{args.workload}-trace{args.trace}.json", "w") as f:
        json.dump({**detail, "metrics": metrics}, f, indent=1)
    detail.pop("per_invocation", None)
    out = {k: {"value": float(metrics[k]), "unit": units[k]} for k in units}
    return out, detail, len(results), failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    cli = load_cli()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload: choose from {', '.join(WORKLOADS)}")
    metrics, detail, attempted, failed = run(args, cli, WORKLOADS[args.workload])
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
