"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import re
import subprocess
import sys
import time
import types
from array import array
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _self(intervals, parents):
    start = array("d", [a for a, _ in intervals])
    end = array("d", [b for _, b in intervals])
    return spans.self_times(start, end, array("i", parents), range(len(intervals)))


class TestSelfTime:
    def test_nested(self):
        # root [0,10] > A [1,4] > A1 [2,3]; root > B [5,9]
        st = _self([(0, 10), (1, 4), (2, 3), (5, 9)], [-1, 0, 1, 0])
        assert st == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
        assert sum(st.values()) == 10.0  # self times add up to the root span

    def test_children_union_and_clipping(self):
        # overlapping children count once; a child running past its parent is clipped
        st = _self([(0, 10), (1, 5), (3, 7), (9, 12)], [-1, 0, 0, 0])
        assert st[0] == pytest.approx(10 - 6 - 1)

    def test_charges_come_off_the_parent(self):
        # root [0,10] > A [1,4] > A1 [2,3]; root > B [5,9]; each wrapper costs 0.5
        intervals, parents = [(0, 10), (1, 4), (2, 3), (5, 9)], [-1, 0, 1, 0]
        start = array("d", [a for a, _ in intervals])
        end = array("d", [b for _, b in intervals])
        st = spans.self_times(start, end, array("i", parents), range(4),
                              {i: 0.5 for i in range(4)})
        assert st == {0: 2.0, 1: 1.5, 2: 1.0, 3: 4.0}

    def test_calibrated_cost_is_taken_off(self):
        cost = spans.calibrate(calls=2000, repeats=3)
        assert 0.0 < cost < 1e-4
        tracer = spans.Tracer()
        tracer.span_cost = cost
        leaf = spans._wrapper(tracer, "leaf", lambda: None, None)
        tracer.begin(0)
        outer = tracer.open("outer")
        for _ in range(2000):
            leaf()
        tracer.close(outer)
        idx = tracer.finish()
        st = spans.self_times(tracer.start, tracer.end, tracer.parent, idx, tracer.charges(idx))
        raw = spans.self_times(tracer.start, tracer.end, tracer.parent, idx)
        assert st[outer] == pytest.approx(raw[outer] - 2000 * cost)

    def test_hook_time_is_charged(self):
        tracer = spans.Tracer()
        leaf = spans._wrapper(tracer, "leaf", lambda: None,
                              lambda *_: time.sleep(0.01))
        tracer.begin(0)
        leaf()
        tracer.finish()
        assert tracer.hook_s[0] >= 0.01
        assert tracer.charges(range(1)) == {0: tracer.hook_s[0]}

    def test_tracer_records_nesting(self):
        tracer = spans.Tracer()
        tracer.begin(0)
        outer = tracer.open("outer")
        inner = tracer.open("inner")
        tracer.close(inner)
        tracer.close(outer)
        idx = tracer.finish()
        assert list(tracer.parent) == [-1, 0]
        assert list(tracer.invocation) == [0, 0]
        st = spans.self_times(tracer.start, tracer.end, tracer.parent, idx)
        assert st[0] + st[1] == pytest.approx(tracer.end[0] - tracer.start[0])


class TestWrappers:
    def test_every_binding_is_wrapped_and_restored(self, monkeypatch):
        core = types.ModuleType("fakepkg.core")
        exec("def f(x):\n    return 2 * x\n", core.__dict__)
        user = types.ModuleType("fakepkg.user")
        user.f = core.f           # from .core import f
        user.g = core.f           # from .core import f as g
        exec("def call(x):\n    return f(x) + g(x)\n", user.__dict__)
        for m in (core, user):
            monkeypatch.setitem(sys.modules, m.__name__, m)
        original = core.f
        tracer = spans.Tracer()
        tracer.begin(0)
        with spans.Installed(tracer, [("fakepkg.core", "f", "core.f", None)],
                             package="fakepkg") as inst:
            assert sorted(inst.bindings()) == ["fakepkg.core.f", "fakepkg.user.f",
                                               "fakepkg.user.g"]
            assert user.call(3) == 12
        tracer.finish()
        assert len(tracer.start) == 2 and tracer.names == ["core.f"]
        assert core.f is original and user.f is original and user.g is original


def test_median_and_sample_count():
    assert run.summarize([3.0, 1.0, 2.0]) == (2.0, 3)
    assert run.summarize([4.0, 1.0, 3.0, 2.0]) == (2.5, 4)
    with pytest.raises(ValueError):
        run.summarize([])


def test_mean_and_reference_ratio():
    assert run.mean([1.0, 1.0, 4.0]) == 2.0
    with pytest.raises(ValueError):
        run.mean([])
    # summed times over summed reference times: a host twice as slow for one
    # invocation doubles both its time and its reference, not the ratio
    assert run.ratio([1.0, 2.0], [0.01, 0.02]) == pytest.approx(100.0)
    wall, cpu = run.reference()
    assert wall > 0.0 and cpu > 0.0


class TestMetricNames:
    def test_names_are_valid_and_unique(self):
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in BENCH[key]]
        for name in names:
            assert NAME.fullmatch(name), name
        for key in ("workloads", "end_to_end", "per_layer"):
            group = [m["name"] for m in BENCH[key]]
            assert len(group) == len(set(group)), key

    def test_benchmark_json_matches_the_code(self):
        assert [m["name"] for m in BENCH["workloads"]] == list(workloads.WORKLOADS)
        assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
        assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == \
            [(k, u, b) for k, (u, b) in layers.PER_LAYER.items()]

    @pytest.mark.parametrize("trace", [0, 1])
    def test_run_prints_every_metric(self, trace):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "point_sweeps", "--seed", "7",
             "--seconds", "0.1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        expected = [m["name"] for m in BENCH["per_layer" if trace else "end_to_end"]]
        assert sorted(result["metrics"]) == sorted(expected)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_and_untraced_csv_identical(name, tmp_path):
    """The wrappers must not change results: same argv, byte-identical CSV."""
    cli = run.load_cli()
    workload = workloads.WORKLOADS[name]
    inv = workload.make(random.Random(3), tmp_path)

    res = run.invoke(cli, inv)
    assert not res.error, res.error
    plain = [p.read_bytes() for p in inv.outs]
    assert workload.check(inv).problems == []

    tracer = spans.Tracer()
    tracer.begin(0)
    with spans.Installed(tracer, layers.TARGETS):
        res = run.invoke(cli, inv)
    idx = tracer.finish()
    assert not res.error, res.error
    assert [p.read_bytes() for p in inv.outs] == plain

    fig = layers.figures(tracer, 0, idx, res.wall, res.warnings, {}, 0, 0)
    assert fig["cli.main.calls"] == len(inv.argvs)
    assert fig["trace.accounted_share"] == pytest.approx(1.0, abs=0.02)
    if name == "tc_curve":
        # tc-curve reaches xcothx_m1 only through qbrown.coefficients' own binding
        assert fig["core.xcothx_m1.calls"] > 0
        assert fig["diffusion.delta_evals_per_tc"] > 0
