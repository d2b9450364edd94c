"""Print a digest of every benchmark workload's outputs, one line per seed and workload.

    python3 tools/output_digest.py 101 102 103

For each seed, runs one batch of the `Sweep`, `Pointwise`, `Dense` and `Cli`
workloads from `bench/workloads.py` and prints the workload's own digest of
it: scan rows, scalar values, checker outcomes, verification reports,
admissibility maxima and probes, and every CLI verb's exit code and output
apart from the timestamp.  Two checkouts that print the same lines produce
bit-identical outputs on those inputs, so a refactor that must not change
results is checked by running this on the parent commit and on the change.
Run from anywhere; the package is imported from this checkout's `src/`.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402

NAMES = ("Sweep", "Pointwise", "Dense", "Cli")


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    for seed in (int(arg) for arg in argv):
        for name in NAMES:
            workload = getattr(workloads, name)(seed)
            print(f"{seed} {name} {workload.digest(workload.run_batch(None))}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
