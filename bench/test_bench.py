"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

Counts must repeat exactly for a fixed seed, the tracer must survive a
target the package no longer defines, and the command must refuse to run
without the package.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracer as tr  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result(out):
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_counts_repeat_for_a_fixed_seed(workload):
    runs = [result(run(workload, 11, 1)) for _ in range(2)]
    names = {m["name"] for m in SPEC["per_layer"]}
    counts = []
    for r in runs:
        assert r["correct"]
        assert set(r["metrics"]) == names
        counts.append({k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["trace.absent_layers"] == 0
    assert any(counts[0].values())


def test_end_to_end_metrics_are_named_and_nonzero():
    r = result(run("pointwise", 3, 0))
    assert r["correct"] and r["failed"] == 0 and r["attempted"] > 0
    assert set(r["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert r["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert r["metrics"][metric["name"]]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = run("pointwise", 1, 0, cwd=tmp_path)
    assert out.returncode != 0
    assert not out.stdout.strip()


def test_missing_target_is_absent_not_fatal():
    restore, absent = tr.patch(
        [("bessel.renamed", "janbessel.bessel", "no_such_function", None),
         ("gone.module", "janbessel.no_such_module", "f", None)],
        lambda name, fn, count: fn,
    )
    restore()
    assert absent == ["bessel.renamed", "gone.module"]


def test_patch_wraps_every_binding_and_restores():
    from janbessel import bessel, checks

    original = bessel.eval_u
    trace = tr.Tracer()
    restore, absent = tr.patch(tr.TARGETS, trace.wrap)
    try:
        assert checks.eval_u is bessel.eval_u and bessel.eval_u is not original
        checks.mccarty_bounds(0.0, 0.5j)
    finally:
        restore()
    assert absent == []
    assert bessel.eval_u is original and checks.eval_u is original
    assert [s[0] for s in trace.spans] == ["checks.mccarty_bounds", "bessel.eval_u", "trace.count"]
    assert trace.spans[1][3] == 0 and trace.spans[1][4]["terms"] > 0


def test_self_times_add_up_to_the_roots():
    spans = [
        ["root", 0, 100, -1, None],
        ["a", 10, 60, 0, {"points": 3}],
        ["b", 20, 30, 1, None],
        ["a", 70, 80, 0, {"points": 2}],
    ]
    summary = tr.summarize(spans)
    assert summary["root"] == {"calls": 1, "self_ns": 40}
    assert summary["a"] == {"calls": 2, "self_ns": 50, "points": 5}
    assert summary["b"] == {"calls": 1, "self_ns": 10}
    assert sum(entry["self_ns"] for entry in summary.values()) == 100


def test_meter_scales_each_op_by_its_nearest_units():
    import meter as mt

    units = iter([2.0, 2.0, 4.0, 4.0])
    meter = mt.Meter(lambda: next(units), nominal_ns=1.0, every_ns=10)
    for ns in (10, 10, 5, 5, 10, 5):  # a unit after ops 0, 1, 3 and 4
        meter.record(ns)
    assert meter.after == [0, 1, 2, 2, 3, 4]
    assert meter.units == [2.0, 2.0, 4.0, 4.0]
    # The unit before each op and the one after it; the first op has none
    # before it, the last none after it.
    assert mt.HALF_WINDOW == 1
    assert meter.local_ns() == [2.0, 2.0, 3.0, 3.0, 4.0, 4.0]
    assert meter.calibrated() == pytest.approx([5, 5, 5 / 3, 5 / 3, 2.5, 1.25])


def test_meter_leaves_ops_uncalibrated_without_finite_units():
    import math

    import meter as mt

    meter = mt.Meter(lambda: math.inf, nominal_ns=7.0, every_ns=0)
    meter.record(3)
    meter.record(4)
    assert meter.calibrated() == [3, 4]
    assert mt.Meter(lambda: 1.0, nominal_ns=7.0, every_ns=100).calibrated() == []


def test_meter_spreads_a_call_without_units():
    import meter as mt

    meter = mt.Meter(lambda: 1.0, nominal_ns=1.0, every_ns=10**9)
    meter.record(5)
    mark = meter.mark()
    meter.record(1)
    assert meter.recorded_since(mark) == 1
    meter.spread(mark, 4, 40)
    assert meter.ops == [5, 10, 10, 10, 10]
