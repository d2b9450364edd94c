"""The four benchmark workloads: seeded inputs, one fixed batch, checks.

A workload builds every input from the seed in its constructor.
`run_batch(meter, tracer)` runs the fixed batch once in a closed loop (one
client, each op after the previous one), records each op's duration in
`meter` when given (a `meter.Meter` from `make_meter()`, which runs its
reference units between ops), and returns the outputs.  `digest(outputs)`
reduces a batch to a hash, so later batches are compared to the first
exactly; `check(outputs)` checks one batch and returns its `Findings`.
`tail_level` is the tail percentile reported over the batch's ops: p95,
which leaves at least 26 ops beyond it, or the slowest op for cli's 8.

Layers are always reached through module attributes looked up when the
batch starts, so wrappers installed by the tracer see every call.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from janbessel import bessel, checks, cli, geometry, verify

import meter as mt
import tracer as tr

ROOT = Path(__file__).resolve().parent.parent
CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"

# Scalar re-evaluation must agree with the batched path to this relative size.
REVERIFY_TOL = 1e-9
# Oracle thresholds (acceptance criteria 1 and 2, ROADMAP item 4).
CLOSED_FORM_TOL = 1e-12
MPMATH_TOL = 1e-12
MPMATH_C_LIMIT = 4.0
PINNED_MARGIN = 0.26541772621418214


# In-process workloads run a reference unit once this much op time has passed.
UNIT_EVERY_NS = 500_000


def _in_process_meter():
    return mt.Meter(mt.unit_ns, mt.UNIT_NOMINAL_NS, UNIT_EVERY_NS)


class Findings:
    """Check results for one batch.

    A failed op raised or failed a check, which breaks something the
    program promises today and makes the run incorrect.  A known defect is
    one the ROADMAP lists as open (a "radius" that does not hold on its
    disk): it is reported with the findings, and its op is not failed.
    """

    def __init__(self, attempted):
        self.attempted = attempted
        self.failed_ops = set()
        self.gate = []
        self.known_defects = []
        self.info = {}

    def fail(self, op, message):
        self.failed_ops.add(op)
        self.gate.append(message)


def _call(fn, *args, **kwargs):
    """One op: an exception is the op's output, not the end of the run."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the op loop is a boundary that keeps running
        return exc


def _exc_text(exc):
    return "".join(traceback.format_exception(exc))[-400:]


def _digest(items):
    return hashlib.sha256(repr(items).encode()).hexdigest()


def _strata(rng, n):
    """n draws in [0, 1), one from each of n equal strata, in seeded order."""
    return rng.permutation((np.arange(n) + rng.random(n)) / n)


def _lerp(lo, hi, u):
    return lo + (hi - lo) * u


def _nonzero(c):
    return c if abs(c) > 1e-3 else 1e-3


def _pairs(rng, n, b_hi=0.8, gap=0.05):
    """n Janowski pairs: a quarter of them half-planes (B = -1)."""
    bs = np.where(_strata(rng, n) < 0.25, -1.0, _lerp(-1.0, b_hi, _strata(rng, n)))
    return [geometry.JanowskiPair(_lerp(b + gap, 1.0, u), b) for b, u in zip(bs, _strata(rng, n))]


def _functional(selector, params, z):
    """The verifier's property functional at one point through scalar eval_u."""
    order = {"u": 0, "deriv-normalized": 1, "convexity": 2, "starlike-zu": 1}[selector]
    v = bessel.eval_u(params, z, order=order).values
    if selector == "u":
        return v[0]
    if selector == "deriv-normalized":
        return (-4.0 * params.kappa / params.c) * v[1]
    if selector == "convexity":
        return 1.0 + z * v[2] / v[1] if abs(v[1]) > verify.DEGENERACY_TOL else None
    return 1.0 + z * v[1] / v[0] if abs(v[0]) > verify.DEGENERACY_TOL else None


def reverify(report, zs):
    """Problems found re-evaluating a report's margins through scalar eval_u.

    The margin at the witness must equal min_margin, and no point of zs may
    have a smaller margin.  Reports with degeneracies are left to the verdict.
    """
    if report.degeneracy_hits or report.witness is None:
        return []
    region = geometry.target_region(report.pair)
    problems = []
    w = _functional(report.selector, report.params, report.witness)
    if w is None:
        return [f"witness {report.witness} is degenerate under scalar eval_u"]
    at_witness = geometry.region_margin(region, w)
    if abs(at_witness - report.min_margin) > REVERIFY_TOL * max(1.0, abs(w)):
        problems.append(f"witness margin {at_witness!r} != min_margin {report.min_margin!r}")
    for z in zs:
        w = _functional(report.selector, report.params, complex(z))
        if w is None:
            continue
        margin = geometry.region_margin(region, w)
        if margin < report.min_margin - REVERIFY_TOL * max(1.0, abs(w)):
            problems.append(f"margin {margin!r} at {complex(z)} below min_margin {report.min_margin!r}")
            break
    return problems


# ---------------------------------------------------------------- sweep

SWEEP_GRID = verify.SampleGrid(radii=tuple(np.geomspace(0.05, 0.999, 10)), angles=64)
# The six rectangles of acceptance criterion 7: selector, (A, B), kappa range, c range.
SWEEPS = [
    ("u", (0.5, -0.5), (1.0, 6.0, 25), (-3.0, 3.0, 21)),
    ("u", (0.8, 0.3), (1.0, 6.0, 25), (-3.0, 3.0, 21)),
    ("deriv-normalized", (0.5, -0.5), (0.5, 6.0, 25), (-3.0, -0.25, 21)),
    ("deriv-normalized", (0.8, 0.3), (0.5, 6.0, 25), (0.25, 3.0, 21)),
    ("convexity", (0.7, -0.3), (0.2, 6.0, 25), (-4.0, 4.0, 20)),
    ("starlike-zu", (0.6, -0.4), (0.2, 6.0, 25), (-4.0, 4.0, 20)),
]
REVERIFIED_PER_SCAN = 2


def _timed_cells(meter, last):
    """Wrappers that end a cell's time as its verify_membership returns.

    The next cell's time starts after the meter's reference unit, at last[0].
    """
    def make(name, fn, count):
        def timed(*args, **kwargs):
            result = fn(*args, **kwargs)
            meter.record(time.perf_counter_ns() - last[0])
            last[0] = time.perf_counter_ns()
            return result

        return timed

    return make


class Sweep:
    """Criterion-7 region scans; one op is one (kappa, c) cell."""

    tail_level = 95.0
    make_meter = staticmethod(_in_process_meter)

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 1])
        self.scans = []
        for selector, (a, b), (k_lo, k_hi, k_n), c_range in SWEEPS:
            # Shift the kappa axis by a seeded fraction of one step; c stays
            # fixed so the c = 0 exclusions of the criterion still hold.
            shift = rng.random() * (k_hi - k_lo) / (k_n - 1)
            k_range = (k_lo + shift, k_hi + shift, k_n)
            self.scans.append((selector, geometry.JanowskiPair(a, b), k_range, c_range))
        self.cells = [k[2] * c[2] for _, _, k, c in self.scans]
        self.reverified = {
            (s, int(i))
            for s, n in enumerate(self.cells)
            for i in rng.choice(n, REVERIFIED_PER_SCAN, replace=False)
        }
        self.ops = sum(self.cells)

    def run_batch(self, meter, tracer=None):
        last = [0]
        restore = None
        if meter is not None:
            restore, _ = tr.patch(
                [("verify.verify_membership", "janbessel.verify", "verify_membership", None)],
                _timed_cells(meter, last),
            )
        region_scan = verify.region_scan
        out = []
        try:
            for (selector, pair, k_range, c_range), n in zip(self.scans, self.cells):
                mark = meter.mark() if meter is not None else None
                last[0] = start = time.perf_counter_ns()
                out.append(_call(region_scan, selector, pair, k_range, c_range, SWEEP_GRID))
                end = time.perf_counter_ns()
                if meter is not None and meter.recorded_since(mark) != n:
                    # Cells not evaluated one by one: split the scan evenly.
                    meter.spread(mark, n, end - start)
        finally:
            if restore is not None:
                restore()
        return out

    def digest(self, out):
        return _digest([
            repr(rows) if isinstance(rows, Exception) else [
                (r.kappa, r.c, r.checker.satisfied, r.checker.branch, r.corollary_id,
                 None if r.corollary is None else r.corollary.satisfied,
                 r.report.verdict, r.report.min_margin, r.report.witness)
                for r in rows
            ]
            for rows in out
        ])

    def check(self, out):
        found = Findings(self.ops)
        first = 0
        conflicts = 0
        for s, (rows, n) in enumerate(zip(out, self.cells)):
            selector = self.scans[s][0]
            if isinstance(rows, Exception) or len(rows) != n:
                text = _exc_text(rows) if isinstance(rows, Exception) else f"{len(rows)} rows"
                for i in range(n):
                    found.fail(first + i, f"scan {s} ({selector}): {text}")
                first += n
                continue
            for i, row in enumerate(rows):
                if row.checker.satisfied and row.report.verdict == verify.VERDICT_COUNTEREXAMPLE:
                    conflicts += 1
                    found.fail(first + i, f"conflict {selector} kappa={row.kappa!r} c={row.c!r} "
                                          f"margin={row.report.min_margin!r}")
                if (s, i) in self.reverified:
                    for problem in reverify(row.report, SWEEP_GRID.points()):
                        found.fail(first + i, f"reverify {selector} kappa={row.kappa!r} "
                                              f"c={row.c!r}: {problem}")
            first += n
        found.info["conflicts"] = conflicts
        return found


# ------------------------------------------------------------ pointwise

POINTWISE_MIX = {  # ops per batch by kind
    "eval_u": 720,
    "closed_form": 80,
    "ode_residual": 150,
    "recurrence_residual": 150,
    "mccarty_bounds": 200,
    "check_subordination_theorem": 100,
    "check_derivative_theorem": 100,
    "check_convexity_theorem": 100,
    "check_starlike_theorem": 100,
    "check_corollary": 150,
    "eval_psi": 150,
}
WIDE_C_SHARE = 0.1  # share of series draws with 4 < |c| <= 150
HALF_PLANE = geometry.JanowskiPair(0.0, -1.0)
PSI_REFERENCE = checks.AdmissibilityProbe(rho=0.0, sigma=-0.5, mu=0.0, nu=0.0, z=0j)


def _kappa(u):
    """Map [0, 1) onto kappa in [-3, 10], kept 0.15 away from the poles 0, -1, -2, -3."""
    kappa = _lerp(-3.0, 10.0, u)
    if kappa < 0.15 and abs(kappa - round(kappa)) < 0.15:
        kappa += 0.3
    return kappa


def _disk(rng, n, r_max=0.999):
    r = _lerp(0.001, r_max, _strata(rng, n))
    return r * np.exp(2j * np.pi * rng.random(n))


def _series_draws(rng, n):
    """(params, z) with kappa in [-3, 10] and a fixed share of wide |c|."""
    n_wide = int(round(n * WIDE_C_SHARE))
    cs = np.concatenate([
        _lerp(-4.0, 4.0, _strata(rng, n - n_wide)),
        np.exp(_lerp(math.log(4.0), math.log(150.0), _strata(rng, n_wide)))
        * rng.permutation(np.resize([1.0, -1.0], n_wide)),
    ])[rng.permutation(n)]
    kappas = [_kappa(u) for u in _strata(rng, n)]
    bs = _lerp(0.0, 3.0, rng.random(n))
    zs = _disk(rng, n)
    return [
        (bessel.BesselParams(k - (b + 1.0) / 2.0, b, _nonzero(c)), complex(z))
        for k, b, c, z in zip(kappas, bs, cs, zs)
    ]


def _checker_draws(rng, n):
    pairs = _pairs(rng, n)
    kappas = _lerp(0.2, 8.0, _strata(rng, n))
    cs = _lerp(-4.0, 4.0, _strata(rng, n))
    return [(p, float(k), _nonzero(float(c))) for p, k, c in zip(pairs, kappas, cs)]


class Pointwise:
    """A seeded stream of scalar calls; one op is one call."""

    tail_level = 95.0
    make_meter = staticmethod(_in_process_meter)

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 2])
        ops = []  # (kind, function name, args, kwargs)
        for i, (params, z) in enumerate(_series_draws(rng, POINTWISE_MIX["eval_u"])):
            ops.append(("eval_u", "eval_u", (params, z), {"order": i % 4}))
        for i, z in enumerate(_disk(rng, POINTWISE_MIX["closed_form"])):
            params = bessel.BesselParams(0.0, 2.0, 1.0 if i % 2 else -1.0)
            ops.append(("closed_form", "eval_u", (params, complex(z)), {"order": 0}))
        for kind in ("ode_residual", "recurrence_residual"):
            for params, z in _series_draws(rng, POINTWISE_MIX[kind]):
                ops.append((kind, kind, (params, z), {}))
        ps = _lerp(-0.5, 3.0, _strata(rng, POINTWISE_MIX["mccarty_bounds"]))
        for p, z in zip(ps, _disk(rng, POINTWISE_MIX["mccarty_bounds"], r_max=0.99)):
            ops.append(("mccarty_bounds", "mccarty_bounds", (float(p), complex(z)), {}))
        for kind in ("check_subordination_theorem", "check_derivative_theorem"):
            for args in _checker_draws(rng, POINTWISE_MIX[kind]):
                ops.append((kind, kind, args, {}))
        for kind in ("check_convexity_theorem", "check_starlike_theorem"):
            for i, args in enumerate(_checker_draws(rng, POINTWISE_MIX[kind])):
                ops.append((kind, kind, args, {"mode": checks.MODES[i % 2]}))
        for i, (_, kappa, c) in enumerate(_checker_draws(rng, POINTWISE_MIX["check_corollary"])):
            which = checks.COROLLARY_IDS[i % len(checks.COROLLARY_IDS)]
            ops.append(("check_corollary", "check_corollary", (which, kappa, c), {}))
        n_psi = POINTWISE_MIX["eval_psi"] - 1
        for i, (pair, kappa, c) in enumerate(_checker_draws(rng, n_psi)):
            rho = _lerp(-8.0, 8.0, rng.random())
            sigma = -_lerp(1.0, 3.0, rng.random()) * (1.0 + rho * rho) / 2.0
            probe = checks.AdmissibilityProbe(
                rho=rho, sigma=sigma, mu=-rng.random() * sigma, nu=_lerp(-1.0, 1.0, rng.random()),
                z=complex(_disk(rng, 1, r_max=0.95)[0]),
            )
            ops.append(("eval_psi", "eval_psi", (checks.PSI_FORMS[i % 2], pair, kappa, c, probe), {}))
        ops.append(("psi_reference", "eval_psi",
                    (checks.PSI_SUBORDINATION, HALF_PLANE, 2.0, -1.0, PSI_REFERENCE), {}))
        self.ops = [ops[i] for i in rng.permutation(len(ops))]

    def run_batch(self, meter, tracer=None):
        fns = {name: getattr(bessel if hasattr(bessel, name) else checks, name)
               for name in {op[1] for op in self.ops}}
        out = []
        clock = time.perf_counter_ns
        for _, name, args, kwargs in self.ops:
            fn = fns[name]
            start = clock()
            result = _call(fn, *args, **kwargs)
            end = clock()
            out.append(result)
            if meter is not None:
                meter.record(end - start)
        return out

    def digest(self, out):
        def key(result):
            if isinstance(result, bessel.EvalResult):
                return (result.values, result.terms_used)
            if isinstance(result, checks.CheckOutcome):
                return (result.satisfied, result.branch, result.slacks)
            if isinstance(result, checks.McCartyBounds):
                return (result.modulus, result.real_part, result.derivative)
            return repr(result)

        return _digest([key(r) for r in out])

    def check(self, out):
        import mpmath

        mpmath.mp.dps = 50
        found = Findings(len(self.ops))
        worst = {"all": 0.0, "small_c": 0.0}
        worst_residual = {"ode": 0.0, "recurrence": 0.0}
        bounds_fail_below_0 = 0

        def exact(params, z, j):
            kappa = mpmath.mpf(params.kappa)
            arg = -mpmath.mpf(params.c) * mpmath.mpc(z) / 4
            scale = (-mpmath.mpf(params.c) / 4) ** j / mpmath.rf(kappa, j)
            return complex(scale * mpmath.hyp0f1(kappa + j, arg))

        for op, ((kind, _, args, kwargs), result) in enumerate(zip(self.ops, out)):
            if isinstance(result, Exception):
                found.fail(op, f"{kind}{args!r}: {_exc_text(result)}")
                continue
            if kind == "eval_u":
                params, z = args
                for j, value in enumerate(result.values):
                    ref = exact(params, z, j)
                    err = abs(value - ref) / max(1.0, abs(ref))
                    worst["all"] = max(worst["all"], err)
                    if abs(params.c) <= MPMATH_C_LIMIT:
                        worst["small_c"] = max(worst["small_c"], err)
                        if err >= MPMATH_TOL:
                            found.fail(op, f"eval_u order {j} at {params}, z={z}: rel err {err:.3g}")
            elif kind == "closed_form":
                params, z = args
                w = cmath.sqrt(z)
                ref = (cmath.sin(w) if params.c > 0 else cmath.sinh(w)) / w
                if abs(result.values[0] - ref) >= CLOSED_FORM_TOL:
                    found.fail(op, f"closed form c={params.c} z={z}: err {abs(result.values[0] - ref):.3g}")
            elif kind == "ode_residual":
                params, z = args
                scale = 1.0 + sum(abs(exact(params, z, j)) for j in range(3))
                ratio = abs(result) / scale
                worst_residual["ode"] = max(worst_residual["ode"], ratio)
                if ratio >= 1e-9:
                    found.fail(op, f"ode residual {abs(result):.3g} at {params}, z={z}")
            elif kind == "recurrence_residual":
                params, z = args
                ratio = abs(result) / (1.0 + abs(exact(params, z, 1)))
                worst_residual["recurrence"] = max(worst_residual["recurrence"], ratio)
                if ratio >= 1e-10:
                    found.fail(op, f"recurrence residual {abs(result):.3g} at {params}, z={z}")
            elif kind == "mccarty_bounds":
                p, z = args
                params = bessel.BesselParams(p, 2.0, -1.0)
                ip, dip = exact(params, z, 0), exact(params, z, 1)
                rows = (result.modulus, result.real_part, result.derivative)
                for row, ref in zip(rows, (abs(ip), ip.real, abs(dip))):
                    if abs(row.observed - ref) >= MPMATH_TOL * max(1.0, abs(ref)):
                        found.fail(op, f"{row.label} observed {row.observed!r}, mpmath {ref!r}")
                if result.all_hold():
                    continue
                if p >= 0.0:  # the range in which criterion 6 claims all three bounds
                    found.fail(op, f"pointwise bounds fail at p={p!r} z={z}")
                else:
                    bounds_fail_below_0 += 1
            elif kind.startswith("check_"):
                # CheckOutcome: satisfied exactly when every recorded slack is >= 0.
                expected = bool(result.slacks) and all(s >= 0.0 for _, s in result.slacks)
                if result.satisfied != expected:
                    found.fail(op, f"{kind}{args!r}: satisfied={result.satisfied} with slacks {result.slacks}")
            elif kind == "eval_psi":
                if not (cmath.isfinite(result)):
                    found.fail(op, f"eval_psi{args!r} = {result!r}")
            elif kind == "psi_reference":
                if abs(result - (-1.0)) >= 1e-14 or result.imag != 0.0:
                    found.fail(op, f"reference probe gives {result!r}, expected -1")
        found.info["max_rel_err"] = worst["all"]
        found.info["max_rel_err_c_le_4"] = worst["small_c"]
        found.info["max_scaled_residual"] = worst_residual
        # The real-part bound exceeds Re i_p(0) = 1 for p < 0, although
        # mccarty_bounds accepts p >= -1/2; counted here, not as failures.
        found.info["bounds_fail_p_below_0"] = bounds_fail_below_0
        return found


# ---------------------------------------------------------------- dense

DENSE_TUPLES = 128
PINNED_CELL = ("u", geometry.JanowskiPair(0.0, -1.0), bessel.BesselParams(-0.5, 2.0, -1.0))
DEFECT_TUPLE = ("starlike-zu", geometry.JanowskiPair(0.6, -0.4), bessel.BesselParams(-1.3, 2.0, -4.0))
DENSE_OPS = ("verify", "radius", "admissibility-subordination", "admissibility-convexity")


def _disk_grid(r):
    """The default 24x256 sampling grid scaled to the disk of radius r."""
    return verify.SampleGrid(radii=tuple(r * np.geomspace(0.05, 1.0, 24)), angles=256, max_radius=r)


class Dense:
    """Default-grid verification, radius bisection and admissibility per tuple."""

    tail_level = 95.0
    make_meter = staticmethod(_in_process_meter)

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 3])
        pairs = _pairs(rng, DENSE_TUPLES, b_hi=0.6, gap=0.1)
        kappas = _lerp(0.2, 6.0, _strata(rng, DENSE_TUPLES))
        cs = _lerp(-4.0, 4.0, _strata(rng, DENSE_TUPLES))
        seeded = [
            (verify.SELECTORS[i % 4], pair, bessel.BesselParams(float(k) - 1.5, 2.0, _nonzero(float(c))))
            for i, (pair, k, c) in enumerate(zip(pairs, kappas, cs))
        ]
        self.tuples = [PINNED_CELL, DEFECT_TUPLE] + [seeded[i] for i in rng.permutation(DENSE_TUPLES)]
        self.ops = len(self.tuples) * len(DENSE_OPS)

    def run_batch(self, meter, tracer=None):
        verify_membership = verify.verify_membership
        property_radius = verify.property_radius
        admissibility_scan = verify.admissibility_scan
        out = []
        clock = time.perf_counter_ns
        for selector, pair, params in self.tuples:
            for fn, args in (
                (verify_membership, (selector, pair, params)),
                (property_radius, (selector, pair, params)),
                (admissibility_scan, ("subordination", pair, params.kappa, params.c)),
                (admissibility_scan, ("convexity", pair, params.kappa, params.c)),
            ):
                start = clock()
                result = _call(fn, *args)
                end = clock()
                out.append(result)
                if meter is not None:
                    meter.record(end - start)
        return out

    def digest(self, out):
        def key(result):
            if isinstance(result, verify.VerificationReport):
                return (result.verdict, result.min_margin, result.witness, len(result.degeneracy_hits))
            if isinstance(result, tuple):
                return (result[0], result[1])
            return repr(result)

        return _digest([key(r) for r in out])

    def check(self, out):
        found = Findings(self.ops)
        unsound = 0
        for t, (selector, pair, params) in enumerate(self.tuples):
            label = f"{selector} A={pair.A!r} B={pair.B!r} kappa={params.kappa!r} c={params.c!r}"
            for k, op in enumerate(DENSE_OPS):
                index = t * len(DENSE_OPS) + k
                result = out[index]
                if isinstance(result, Exception):
                    found.fail(index, f"{op} {label}: {_exc_text(result)}")
                    continue
                if op == "verify":
                    if (selector, pair, params) == PINNED_CELL and (
                        result.verdict != verify.VERDICT_HOLDS
                        or abs(result.min_margin - PINNED_MARGIN) > 1e-14
                    ):
                        found.fail(index, f"pinned cell: {result.verdict} {result.min_margin!r}")
                    problems = reverify(result, [])
                    for problem in problems:
                        found.fail(index, f"reverify {label}: {problem}")
                elif op == "radius":
                    if result > 0.0:
                        report = verify.verify_membership(selector, pair, params, grid=_disk_grid(result))
                        if report.verdict != verify.VERDICT_HOLDS:
                            unsound += 1
                            found.known_defects.append(
                                f"radius {result!r} for {label} fails on its disk: "
                                f"margin {report.min_margin!r} at {report.witness}, "
                                f"{len(report.degeneracy_hits)} degeneracies")
                else:
                    max_re, probe = result
                    which = op.split("-", 1)[1]
                    at_probe = checks.eval_psi(which, pair, params.kappa, params.c, probe).real
                    if abs(at_probe - max_re) > 1e-12 * max(1.0, abs(max_re)):
                        found.fail(index, f"{op} {label}: max {max_re!r} but eval_psi {at_probe!r}")
                    if (which == "subordination" and max_re >= 0.0
                            and checks.check_subordination_theorem(pair, params.kappa, params.c).satisfied):
                        found.fail(index, f"{op} {label}: satisfied tuple has Re Psi max {max_re!r}")
        found.info["unsound_radii"] = unsound
        return found


# ------------------------------------------------------------------ cli

CLI_TIMEOUT_S = 60.0


def _g(x):
    return format(float(x), ".6g")


class Cli:
    """One fresh interpreter per criterion-10 argv list and per CSV scan."""

    tail_level = 100.0  # 8 ops: the slowest

    @staticmethod
    def make_meter():
        # A bare interpreter start after every op.
        return mt.Meter(lambda: mt.interpreter_ns(ROOT), mt.INTERPRETER_NOMINAL_NS, 0)

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 4])

        def u(lo, hi):
            return _g(_lerp(lo, hi, rng.random()))

        def point(r_lo, r_hi):
            z = _lerp(r_lo, r_hi, rng.random()) * cmath.exp(2j * math.pi * rng.random())
            return f"{_g(z.real)},{_g(z.imag)}"

        small = ["--radii", "6", "--angles", "16"]
        k_lo = float(u(1.0, 1.5))
        self.argvs = [
            ["eval", "--p", u(0.0, 0.6), "--b", u(1.0, 2.0), f"--c={u(-3.0, -1.0)}", f"--z={point(0.2, 0.7)}"],
            ["check", "--theorem", "subordination", "--A", "0", "--B=-1", "--kappa", u(1.5, 3.0),
             f"--c={u(-2.0, -0.5)}"],
            ["verify", "--selector", "u", "--A", "0", "--B=-1", f"--p={u(-0.5, 0.5)}", "--b", "2",
             f"--c={u(-2.0, -0.5)}"] + small,
            ["radius", "--selector", "u", "--A", "0.1", "--B=-1", "--p=-0.5", "--b", "2",
             "--c", u(5.5, 6.5), "--grid-density", "64"],
            ["scan", "--selector", "u", "--A", "0", "--B=-1", "--kappa-range", f"{_g(k_lo)}:{_g(k_lo + 1)}:3",
             "--c-range=-2:-1:3"] + small,
            ["admissibility", "--which", "subordination", "--A", "0", "--B=-1", "--kappa", u(1.5, 3.0),
             f"--c={u(-2.0, -0.5)}"],
            ["bounds", "--p", u(0.5, 1.5), f"--z={point(0.2, 0.7)}"],
            ["scan", "--selector", "u", "--A", "0", "--B=-1", "--kappa-range", f"{_g(k_lo)}:{_g(k_lo + 2)}:5",
             "--c-range=-2:-1:4", "--format", "csv"] + small,
        ]
        self.ops = len(self.argvs)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )

    def run_batch(self, meter, tracer=None):
        out = []
        for argv in self.argvs:
            start = time.perf_counter_ns()
            if tracer is None:
                result = _run([sys.executable, "-m", "janbessel.cli", *argv], self.env)
            else:
                with tracer.span("cli.process") as process:
                    result = _run([sys.executable, str(CLI_CHILD), *argv], self.env)
                if not isinstance(result, Exception):
                    _adopt_child_spans(tracer, process, result.stderr)
            end = time.perf_counter_ns()
            out.append(result if isinstance(result, Exception) else (result.returncode, result.stdout))
            if meter is not None:
                meter.record(end - start)
        return out

    def digest(self, out):
        return _digest([r if isinstance(r, Exception) else (r[0], _strip_timestamp(r[1])) for r in out])

    def check(self, out):
        found = Findings(self.ops)
        for op, (argv, result) in enumerate(zip(self.argvs, out)):
            if isinstance(result, Exception):
                found.fail(op, f"{argv[0]}: {_exc_text(result)}")
                continue
            code, text = result
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
                expected_code = cli.run(argv)
            if code != expected_code:
                found.fail(op, f"{argv[0]}: exit {code}, in-process run gives {expected_code}")
            if _strip_timestamp(text) != _strip_timestamp(sink.getvalue()):
                found.fail(op, f"{argv[0]}: output differs from in-process run")
        return found


def _run(command, env):
    try:
        return subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        return exc


def _adopt_child_spans(tracer, process, stderr):
    """Move the spans a traced child reported on stderr under its process span.

    Both processes read the same monotonic clock, so the child's spans slot
    into the parent's timeline; the stretch from the process span's start
    (the spawn) to the child's first statement becomes the cli.interpreter
    span.
    """
    lines = stderr.splitlines()
    if not lines or not lines[-1].startswith(tr.TRACE_MARK):
        return
    report = json.loads(lines[-1][len(tr.TRACE_MARK):])
    base = len(tracer.spans)
    spawn_ns = tracer.spans[process][1]
    tracer.spans.append(["cli.interpreter", spawn_ns, report["start_ns"], process, None])
    for name, start, end, parent, counts in report["spans"]:
        tracer.spans.append([name, start, end, process if parent < 0 else base + 1 + parent, counts])
    tracer.absent.update(report["absent"])


def _strip_timestamp(text):
    """A JSON envelope without its timestamp; any other text unchanged."""
    try:
        doc = json.loads(text)
    except ValueError:
        return text
    if isinstance(doc, dict):
        doc.pop("timestamp", None)
    return doc


WORKLOADS = {"sweep": Sweep, "pointwise": Pointwise, "dense": Dense, "cli": Cli}
