"""Run the benchmark on two checkouts in alternating pairs and compare their end-to-end metrics.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed S --pairs N

Each pair runs the benchmark command of BENCHMARK.json (`python3 bench/run.py`)
with `--workload W --seed S --seconds T --trace 0` once from each checkout,
one child at a time, where T is BENCHMARK.json's run_seconds.  The parent
runs first in odd-numbered pairs and the change first in even-numbered ones.

For every end-to-end metric named in BENCHMARK.json it prints each side's
median and quartiles, the change/parent ratio of the medians, and whether
that ratio stays within the metric's bound: "within" or "beyond", or
"unresolved" when the parent's interquartile range, relative to its median,
is wider than the bound and not every change run beats every parent run.
It then prints the change's wins out of N (a pair with equal values counts
for neither side) and whether a gain may be claimed: at least ten pairs
were run, the change wins at least nine tenths of them, its median is
better than the parent's by more than the parent's interquartile range,
every change run is correct, and in no pair does the change fail a larger
share of its operations than the parent.  Each run's `correct`, `failed` and `attempted` are printed too.
For information only, it also prints each side's median of the details
line's uncalibrated `raw_wall_s` and `raw_op_p50_ms` and of the reference
units run per batch (`units_per_batch`): a calibrated ratio rests on the
units, and a side that runs few of them is calibrated by few samples.
The script only reads what the harness prints; it changes nothing in either
checkout.  BENCHMARK.json is read from the checkout this script belongs to.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# A gain is claimed only over at least this many pairs, when the change wins
# at least this share of them.
CLAIM_MIN_PAIRS = 10
CLAIM_WIN_SHARE = 0.9
# Figures of the details line's `calibration` block printed per side.
RAW_FIELDS = ("raw_wall_s", "raw_op_p50_ms", "units_per_batch")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for side in (args.parent, args.change):
        if not (side / "bench" / "run.py").is_file():
            parser.error(f"no bench/run.py under {side}")
    return args


def run_once(command, checkout, workload, seed, seconds):
    """One untraced benchmark run from `checkout`; its summary line as a dict,
    with the details line's `calibration` block under "calibration"."""
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", "0"]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} in {checkout} exited {out.returncode}:\n{out.stderr}")
    *_, details, summary = out.stdout.splitlines()
    return {**json.loads(summary), "calibration": json.loads(details).get("calibration", {})}


def quartiles(values):
    """(first quartile, median, third quartile); a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def failure_share(run):
    return run["failed"] / max(run["attempted"], 1)


def operations_hold(parent_runs, change_runs):
    """Every change run is correct and fails no larger share than its paired parent run."""
    return all(
        c["correct"] and failure_share(c) <= failure_share(p)
        for p, c in zip(parent_runs, change_runs)
    )


def compare(metric, parent, change, ops_hold):
    """One report line for one metric: parent and change runs are paired by index."""
    lower = metric["better"] == "lower"
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    gain = (pm - cm) if lower else (cm - pm)
    ratio = cm / pm if pm else float("nan")
    worse = (ratio - 1.0) if lower else (1.0 - ratio)
    spread = (p3 - p1) / pm if pm else float("inf")
    separated = max(change) < min(parent) if lower else min(change) > max(parent)
    if spread > metric["bound"] and not separated:
        verdict = "unresolved"
    else:
        verdict = "within" if worse <= metric["bound"] else "beyond"
    claim = (
        ops_hold
        and len(parent) >= CLAIM_MIN_PAIRS
        and wins >= CLAIM_WIN_SHARE * len(parent)
        and gain > p3 - p1
    )
    return (
        f"{metric['name']:<12} parent {pm:.6g} [{p1:.6g}-{p3:.6g}]  "
        f"change {cm:.6g} [{c1:.6g}-{c3:.6g}] {metric['unit']}  ratio {ratio:.3f} "
        f"({verdict} bound {metric['bound']})  "
        f"wins {wins}/{len(parent)}  claim {'met' if claim else 'not met'}"
    )


def main(argv=None):
    args = parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            summary = run_once(benchmark["command"], sides[side], args.workload, args.seed, seconds)
            runs[side].append(summary)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in summary["metrics"].items())
            print(f"pair {pair + 1} {side}: correct={summary['correct']} "
                  f"failed={summary['failed']}/{summary['attempted']} {values}",
                  file=sys.stderr, flush=True)

    print(f"workload {args.workload}  seed {args.seed}  pairs {args.pairs}  seconds {seconds}")
    for side in ("parent", "change"):
        failed = " ".join(f"{r['failed']}/{r['attempted']}" for r in runs[side])
        print(f"{side:<6} correct {[r['correct'] for r in runs[side]]}  failed {failed}")
    for side in ("parent", "change"):
        raw = "  ".join(
            f"{field} {statistics.median(r['calibration'].get(field, math.nan) for r in runs[side]):.6g}"
            for field in RAW_FIELDS
        )
        print(f"{side:<6} raw medians (information only): {raw}")
    ops_hold = operations_hold(runs["parent"], runs["change"])
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        print(compare(metric, parent, change, ops_hold))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
