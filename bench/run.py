"""Run one janbessel benchmark workload and print its metrics.

    python3 bench/run.py --workload {sweep,pointwise,dense,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its `src/`.
The workload's fixed batch repeats in a closed loop for about S seconds, and
at least MIN_BATCHES times, after one untimed warm-up batch.  Op times are
calibrated by reference units run between the ops (see meter.py).  With
--trace 0 the last line of stdout is
`{"correct", "attempted", "failed", "metrics"}` with the end-to-end metrics;
with --trace 1 untraced and traced batches alternate and the metrics are the
per-layer ones.  The line before it holds the details: machine facts, the
fail ratio, the tail percentile used, the calibration, check findings,
known defects and informational values.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# numpy, janbessel and the benchmark modules that import them are imported
# inside functions: a set-up probe times those imports as part of set-up.

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sweep", "pointwise", "dense", "cli")
# Set-up is measured this many times in fresh interpreters.
SETUP_PROBES = 8
# In-process reference units run before and after each set-up probe.
SETUP_UNITS = 9
MESSAGES_SHOWN = 8
# Untraced runs repeat the batch at least this often, however long it takes,
# so every op's median has at least this many repetitions.
MIN_BATCHES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time imports and input building, print it and exit")
    return parser.parse_args(argv)


def setup(name, seed):
    """Import the program and build the workload's inputs; (workload, seconds)."""
    start = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    return workload, time.perf_counter() - start


def probe_setup(name, seed):
    """Set-up time measured in a fresh interpreter, as every user pays it,
    with the median of the reference units run around it: (seconds, unit ns).
    """
    import meter as mt

    units = [mt.unit_ns() for _ in range(SETUP_UNITS)]
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    units += [mt.unit_ns() for _ in range(SETUP_UNITS)]
    return json.loads(out.stdout.splitlines()[-1])["setup_s"], statistics.median(units)


def tail(samples, level):
    """The nearest-rank `level` percentile of samples; level 100 is the largest."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(len(ordered) * level / 100.0) - 1)]


def peak_rss_mb(children):
    """Peak resident memory of this process, or of its largest waited-for child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(workload, seconds, probe, children):
    """Untraced run: warm up, then repeat the batch for `seconds` and at least
    MIN_BATCHES times.

    Keeps every batch's measured and calibrated op times and reference
    units, the first batch's outputs and every batch's digest.  The set-up
    probes are spread over the run, between batches, so that they sample
    the same load as the batches.
    """
    workload.run_batch(None)
    runs = {"walls": [], "raw": [], "calibrated": [], "units": [], "digests": [], "first": None,
            "setup": [], "peak_rss_mb": None}

    start = time.perf_counter()
    while True:
        meter = workload.make_meter()
        begin = time.perf_counter()
        out = workload.run_batch(meter)
        runs["walls"].append(time.perf_counter() - begin)
        runs["raw"].append(meter.ops)
        runs["calibrated"].append(meter.calibrated())
        runs["units"].append(meter.units)
        runs["digests"].append(workload.digest(out))
        if runs["first"] is None:
            runs["first"] = out
        del out
        if runs["peak_rss_mb"] is None:
            # After the first batch, before any set-up probe (a probe is a
            # child process too) and before the times kept from later
            # batches, whose number depends on the host's speed, add to it.
            runs["peak_rss_mb"] = peak_rss_mb(children)
        elapsed = time.perf_counter() - start
        if len(runs["setup"]) < SETUP_PROBES and elapsed >= len(runs["setup"]) * seconds / SETUP_PROBES:
            runs["setup"].append(probe())
            elapsed = time.perf_counter() - start
        if elapsed + runs["walls"][-1] > seconds and len(runs["walls"]) >= MIN_BATCHES:
            break
    while len(runs["setup"]) < SETUP_PROBES:
        runs["setup"].append(probe())
    return runs


def measure_traced(workload, seconds):
    """Traced run: alternate untraced and traced batches for `seconds`.

    Keeps both walls, one span summary per traced batch, the names found
    absent, the cli phase durations, the first outputs and every digest.
    """
    import tracer as tr

    workload.run_batch(None)
    runs = {"walls": [], "traced_walls": [], "summaries": [], "absent": set(), "digests": [],
            "first": None, "cli": {"cli.interpreter": [], "cli.import": [], "cli.run": []}}
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        out = workload.run_batch(None)
        runs["walls"].append(time.perf_counter() - begin)
        runs["digests"].append(workload.digest(out))
        if runs["first"] is None:
            runs["first"] = out
        trace = tr.Tracer()
        restore, absent = tr.patch(tr.TARGETS, trace.wrap)
        trace.absent.update(absent)
        try:
            begin = time.perf_counter()
            with trace.span("harness"):
                out = workload.run_batch(None, trace)
            runs["traced_walls"].append(time.perf_counter() - begin)
        finally:
            restore()
        runs["digests"].append(workload.digest(out))
        del out
        runs["summaries"].append(tr.summarize(trace.spans))
        runs["absent"] |= trace.absent
        for name in runs["cli"]:
            runs["cli"][name] += [e - s for n, s, e, _, _ in trace.spans if n == name]
        elapsed = time.perf_counter() - start
        if elapsed + runs["walls"][-1] + runs["traced_walls"][-1] > seconds:
            return runs


def end_to_end(runs, workload):
    """The end-to-end metrics of an untraced run.

    An op's time is the median over the run's batches of its calibrated
    time, and the batch wall is the sum of those op times.  Set-up is the
    median of its calibrated fresh-interpreter samples.
    """
    import numpy as np

    import meter as mt

    op_ms = np.median(np.array(runs["calibrated"]), axis=0) / 1e6
    raw_ms = np.median(np.array(runs["raw"]), axis=0) / 1e6
    setup_s = [s * mt.UNIT_NOMINAL_NS / ns if math.isfinite(ns) else s for s, ns in runs["setup"]]
    units = [ns for batch in runs["units"] for ns in batch]
    unit_ns = statistics.median(units) if units else math.nan
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (float(op_ms.sum()) / 1e3, "s"),
        "op_p50_ms": (float(np.median(op_ms)), "ms"),
        "op_tail_ms": (float(tail(op_ms, workload.tail_level)), "ms"),
        "peak_rss_mb": (runs["peak_rss_mb"], "MB"),
    }
    details = {
        "op_tail_percentile": workload.tail_level, "op_samples": len(op_ms),
        "repetitions_per_op": len(runs["walls"]),
        "slowest_ops_ms": {int(i): float(op_ms[i]) for i in np.argsort(op_ms)[::-1][:5]},
        "raw_setup_samples_s": [s for s, _ in runs["setup"]],
        "calibration": {
            "units_per_batch": statistics.median(len(b) for b in runs["units"]),
            "unit_median_ns": unit_ns,
            "unit_nominal_ns": workload.make_meter().nominal_ns,
            "units_inf": sum(not math.isfinite(ns) for ns in units),
            "raw_wall_s": float(raw_ms.sum()) / 1e3,
            "raw_op_p50_ms": float(np.median(raw_ms)),
        },
    }
    return metrics, details


def per_layer(runs, info):
    summaries = runs["summaries"]
    first = summaries[0]

    def count(name, key="calls"):
        return first.get(name, {}).get(key, 0)

    def self_ms(*names):
        return statistics.median(
            sum(s.get(n, {}).get("self_ns", 0) for n in names) / 1e6 for s in summaries
        )

    check_names = sorted({n for s in summaries for n in s if n.startswith("checks.")})
    point_terms = count("bessel.eval_u_many", "point_terms")
    verify_calls = count("verify.verify_membership")
    def cli_ms(name):
        durations = runs["cli"][name]
        return statistics.median(durations) / 1e6 if durations else 0.0

    overhead_s = statistics.median(runs["traced_walls"]) - statistics.median(runs["walls"])
    return {
        "bessel.eval_u_many.calls": (count("bessel.eval_u_many"), "count"),
        "bessel.eval_u_many.points": (count("bessel.eval_u_many", "points"), "count"),
        "bessel.eval_u_many.terms": (count("bessel.eval_u_many", "terms"), "count"),
        "bessel.eval_u_many.self_ms": (self_ms("bessel.eval_u_many"), "ms"),
        "bessel.eval_u_many.ns_per_point_term": (
            self_ms("bessel.eval_u_many") * 1e6 / point_terms if point_terms else 0.0, "ns"),
        "bessel.eval_u.calls": (count("bessel.eval_u"), "count"),
        "bessel.eval_u.terms": (count("bessel.eval_u", "terms"), "count"),
        "bessel.eval_u.self_ms": (self_ms("bessel.eval_u"), "ms"),
        "bessel.max_rel_err": (info.get("max_rel_err", 0.0), "ratio"),
        "geometry.region_margin_many.calls": (count("geometry.region_margin_many"), "count"),
        "geometry.region_margin_many.self_ms": (self_ms("geometry.region_margin_many"), "ms"),
        "checks.calls": (sum(count(n) for n in check_names), "count"),
        "checks.self_ms": (self_ms(*check_names), "ms"),
        "verify.verify_membership.calls": (verify_calls, "count"),
        "verify.verify_membership.points": (count("verify.verify_membership", "points"), "count"),
        "verify.verify_membership.self_ms": (self_ms("verify.verify_membership"), "ms"),
        "verify._functional_values.self_ms": (self_ms("verify._functional_values"), "ms"),
        "verify.refine_useful_ratio": (
            count("verify.verify_membership", "refined") / verify_calls if verify_calls else 0.0,
            "ratio"),
        "verify.property_radius.calls": (count("verify.property_radius"), "count"),
        "verify.property_radius.circles": (count("verify.property_radius", "circles"), "count"),
        "verify.property_radius.self_ms": (self_ms("verify.property_radius"), "ms"),
        "verify.admissibility_scan.calls": (count("verify.admissibility_scan"), "count"),
        "verify.admissibility_scan.self_ms": (self_ms("verify.admissibility_scan"), "ms"),
        "verify.region_scan.cells": (count("verify.region_scan", "cells"), "count"),
        "verify.region_scan.self_ms": (self_ms("verify.region_scan"), "ms"),
        "cli.interpreter_ms": (cli_ms("cli.interpreter"), "ms"),
        "cli.import_ms": (cli_ms("cli.import"), "ms"),
        "cli.run_ms": (cli_ms("cli.run"), "ms"),
        "harness.self_ms": (self_ms("harness", "cli.process", "trace.count"), "ms"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.absent_layers": (len(runs["absent"]), "count"),
    }


def counts_repeat(summaries):
    """True when every traced batch produced the same calls and counts."""
    def counts(summary):
        return {name: {k: v for k, v in entry.items() if k != "self_ns"}
                for name, entry in summary.items()}

    return all(counts(s) == counts(summaries[0]) for s in summaries[1:])


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "janbessel" / "__init__.py").is_file():
        print(f"error: no janbessel package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload, setup_s = setup(args.workload, args.seed)
    import janbessel

    if Path(janbessel.__file__).resolve().parent != (SRC / "janbessel").resolve():
        print(f"error: janbessel imported from {janbessel.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        runs = measure_traced(workload, args.seconds)
    else:
        # The setup probes repeat this run's own set-up in fresh interpreters.
        runs = measure(workload, args.seconds, lambda: probe_setup(args.workload, args.seed),
                       children=args.workload == "cli")

    found = workload.check(runs["first"])
    reference = runs["digests"][0]
    batches = len(runs["digests"])
    differing = sum(d != reference for d in runs["digests"])
    if differing:
        found.gate.append(f"{differing} of {batches} batches differ from the first")
    if args.trace and not counts_repeat(runs["summaries"]):
        found.gate.append("span counts differ between traced batches")
    failed = len(found.failed_ops) * (batches - differing) + found.attempted * differing
    attempted = found.attempted * batches
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "batches": batches, "ops_per_batch": found.attempted,
        "batch_walls_s": [round(w, 4) for w in runs["walls"]], "own_setup_s": setup_s,
        "fail_ratio": {"value": failed / attempted, "unit": "ratio"},
        "gate_failures": found.gate[:MESSAGES_SHOWN], "gate_failure_count": len(found.gate),
        "known_defects": found.known_defects[:MESSAGES_SHOWN],
        "known_defect_count": len(found.known_defects),
        "info": found.info,
    }
    if args.trace:
        metrics = per_layer(runs, found.info)
        details["absent_layers"] = sorted(runs["absent"])
        details["untraced_wall_s"] = statistics.median(runs["walls"])
        details["traced_wall_s"] = statistics.median(runs["traced_walls"])
    else:
        metrics, extra = end_to_end(runs, workload)
        details.update(extra)

    import machine

    details["machine"] = machine.facts(ROOT, args.seed)
    print(json.dumps(details, default=repr))
    print(json.dumps({
        "correct": not found.gate,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
