"""The benchmark's contract with the package, checked in-process.

bench/ reads janbessel by name (verify.SELECTORS, verify.region_scan,
SampleGrid(..., max_radius=), ...) and wraps the functions its tracer
lists.  One batch of each in-process workload at seed 101 must fail no
operation, and the tracer must find every layer it wraps, so a change that
drops or renames a name the benchmark reads fails here, not only in
bench/test_bench.py's child-process runs.
"""

import sys
from pathlib import Path

import pytest

from janbessel import verify

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["Sweep", "Pointwise", "Dense"])
def test_one_batch_fails_no_operation(name):
    workload = getattr(workloads, name)(101)
    found = workload.check(workload.run_batch(None))
    assert found.failed_ops == set(), found.gate[:3]


def test_the_tracer_finds_every_layer():
    restore, absent = tracer.patch(tracer.TARGETS, lambda name, fn, count: fn)
    restore()
    assert absent == []


def test_a_seed_141_sweep_batch_calls_verify_membership_18_times(monkeypatch):
    # The sweep meter times its cells through verify_membership's returns,
    # so the count of those calls per batch is part of what it measures.
    calls = []
    inner = verify.verify_membership

    def counted(*args, **kwargs):
        calls.append(args[2])
        return inner(*args, **kwargs)

    monkeypatch.setattr(verify, "verify_membership", counted)
    workloads.Sweep(141).run_batch(None)
    assert len(calls) == 18
