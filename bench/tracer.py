"""Span recorder for the traced benchmark run.

Layers are measured from the outside.  `patch` replaces a janbessel function
under every module-level name the package binds it to, so calls from one
layer into the next (for example `verify.eval_u_many`) pass through a
wrapper.  The wrapper records a span `[name, start_ns, end_ns, parent,
counts]`; self time and the per-layer counts are derived from the spans
afterwards by `summarize`.  A target that the package no longer defines is
returned as absent instead of raising, so the trace survives a later
rename or deletion.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from contextlib import contextmanager

# Prefix of the stderr line on which a traced child process reports its spans.
TRACE_MARK = "BENCH-TRACE "


def _count_eval_u_many(args, kwargs, result):
    zs = args[1] if len(args) > 1 else kwargs["zs"]
    terms = int(result[1])
    return {"points": len(zs), "terms": terms, "point_terms": len(zs) * terms}


def _count_eval_u(args, kwargs, result):
    return {"terms": int(result.terms_used)}


def _count_refine(args, kwargs, result):
    """1 when the witness lies off the base angles, i.e. refinement lowered the margin."""
    witness = getattr(result, "witness", None)
    grid = getattr(result, "grid", None)
    useful = 0
    if witness is not None and grid is not None:
        steps = (math.atan2(witness.imag, witness.real) / (2.0 * math.pi)) * grid.angles
        frac = steps - math.floor(steps)
        useful = int(min(frac, 1.0 - frac) > 1e-6)
    return {"refined": useful}


def _count_cells(args, kwargs, result):
    return {"cells": len(result)}


# (span name, defining module, attribute, count extractor)
TARGETS = [
    ("bessel.eval_u_many", "janbessel.bessel", "eval_u_many", _count_eval_u_many),
    ("bessel.eval_u", "janbessel.bessel", "eval_u", _count_eval_u),
    ("geometry.region_margin_many", "janbessel.geometry", "region_margin_many", None),
] + [
    (f"checks.{attr}", "janbessel.checks", attr, None)
    for attr in (
        "check_subordination_theorem",
        "check_derivative_theorem",
        "check_convexity_theorem",
        "check_starlike_theorem",
        "check_corollary",
        "mccarty_bounds",
        "eval_psi",
    )
] + [
    ("verify._functional_values", "janbessel.verify", "_functional_values", None),
    ("verify.verify_membership", "janbessel.verify", "verify_membership", _count_refine),
    ("verify.property_radius", "janbessel.verify", "property_radius", None),
    ("verify.admissibility_scan", "janbessel.verify", "admissibility_scan", None),
    ("verify.region_scan", "janbessel.verify", "region_scan", _count_cells),
]

# Counts rolled up from a span to its nearest ancestor of another name:
# (descendant, ancestor, key on the ancestor, key read from the descendant or
# None to count descendants).
ROLLUPS = [
    ("bessel.eval_u_many", "verify.verify_membership", "points", "points"),
    ("verify._functional_values", "verify.property_radius", "circles", None),
]


def patch(targets, make):
    """Rebind every janbessel name bound to a target function to make(name, fn, count).

    Returns (restore, absent): calling restore() puts the originals back;
    absent lists the span names whose function the package does not define.
    """
    replaced = []
    absent = []
    for name, module_name, attr, count in targets:
        try:
            home = importlib.import_module(module_name)
        except ImportError:
            absent.append(name)
            continue
        fn = getattr(home, attr, None)
        if not callable(fn):
            absent.append(name)
            continue
        wrapper = make(name, fn, count)
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "janbessel" or key.startswith("janbessel.")
        ]
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)
                    replaced.append((module, key, fn))

    def restore():
        for module, key, fn in reversed(replaced):
            setattr(module, key, fn)

    return restore, absent


class Tracer:
    """In-memory span list; spans nest by call order."""

    def __init__(self):
        self.spans = []
        self.absent = set()
        self._open = []

    def _begin(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, index):
        self.spans[index][2] = time.perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, name):
        index = self._begin(name)
        try:
            yield index
        finally:
            self._end(index)

    def wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            if count is not None:
                # Count extraction is trace overhead, not the caller's work.
                with self.span("trace.count"):
                    try:
                        self.spans[index][4] = count(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                        pass  # a changed signature or result loses the count, not the run
            return result

        return traced


def summarize(spans):
    """Per span name: calls, self_ns and summed counts (roll-ups included).

    A span's self time is its duration minus the durations of its direct
    children, so the self times of all spans add up to the roots' durations.
    """
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = {}
    for index, (name, start, end, _, counts) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["self_ns"] += end - start - child_ns[index]
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value
    for child, ancestor, key, source in ROLLUPS:
        if ancestor not in out:
            continue
        out[ancestor].setdefault(key, 0)
        for name, _, _, parent, counts in spans:
            if name != child:
                continue
            while parent >= 0 and spans[parent][0] != ancestor:
                parent = spans[parent][3]
            if parent >= 0:
                out[ancestor][key] += 1 if source is None else (counts or {}).get(source, 0)
    return out
