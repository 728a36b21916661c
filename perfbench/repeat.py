#!/usr/bin/env python3
"""Run the benchmark over several seeds, in interleaved sets, and report each
end-to-end metric's spread and the agreement of the sets.

    python3 perfbench/repeat.py --workload tc_curve --seeds 1-10 --sets 2 [--seconds 10]

Every set runs the same seeds; the sets take turns seed by seed (seed 1 of
set A, seed 1 of set B, seed 2 of set A, ...), so a stretch of load on the
host falls on all of them alike.  For every metric and set it prints the
median of the per-run values and the interquartile range as a share of that
median (``statistics.quantiles`` with n=4); for every set after the first it
prints the ratio of its median to the first set's, minus one.  Both figures
are judged against the metric's bound in BENCHMARK.json.  The per-run result
lines are appended to ``.bench_out/repeat-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> tuple[float, float]:
    """Median and (Q3 - Q1) / median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("nan")


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    ap.add_argument("--sets", type=int, default=2, help="interleaved sets of the seeds")
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs: list[list[dict]] = [[] for _ in range(args.sets)]
    log = ROOT / ".bench_out" / f"repeat-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    for seed in args.seeds:
        for s in range(args.sets):
            cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            *_, detail, last = proc.stdout.splitlines()
            result = json.loads(last)
            runs[s].append(result)
            with open(log, "a") as f:
                f.write(json.dumps({**json.loads(detail), **result, "set": s}) + "\n")
            print(f"set {s} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)

    if len(args.seeds) < 2:
        return 0
    for name, bound in bounds.items():
        unit = runs[0][0]["metrics"][name]["unit"]
        first = None
        for s, set_runs in enumerate(runs):
            med, rel = spread([r["metrics"][name]["value"] for r in set_runs])
            line = (f"{name:12s} set {s} median {med:.6g} {unit:3s} "
                    f"IQR/median {rel:.4f} (bound {bound}, spread/bound {rel / bound:.2f})")
            if first is None:
                first = med
            else:
                line += f"  median/first - 1 {med / first - 1:+.4f}"
            print(line)
    return 0 if all(r["correct"] for set_runs in runs for r in set_runs) else 1


if __name__ == "__main__":
    sys.exit(main())
