"""Acceptance gate: the package's headline claims, one test per criterion.

Run with `pytest -s tests/test_acceptance.py -v` to see one printed verdict
line per criterion alongside the pytest result lines.
"""

import cmath
import math
import time
from contextlib import contextmanager

import numpy as np

from janbessel import (
    BesselParams,
    AdmissibilityProbe,
    JanowskiPair,
    SampleGrid,
    admissibility_scan,
    check_corollary,
    check_subordination_theorem,
    eval_psi,
    eval_u,
    mccarty_bounds,
    ode_residual,
    recurrence_residual,
    region_scan,
    scan_conflicts,
    verify_membership,
)
from janbessel.cli import run

HALF_PAIR = JanowskiPair(0.0, -1.0)
SWEEP_GRID = SampleGrid(radii=tuple(np.geomspace(0.05, 0.999, 10)), angles=64)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL  {description}")
        raise
    else:
        print(f"[criterion {number:02d}] PASS  {description}")


def rand_disk(rng, n, r_min=0.001, r_max=0.999):
    r = rng.uniform(r_min, r_max, n)
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    return r * np.exp(1j * theta)


def test_criterion_01_closed_form_oracle():
    with criterion(1, "closed forms match the series at 100 disk points, err < 1e-12"):
        start = time.perf_counter()
        rng = np.random.default_rng(20260817)
        osc = BesselParams(0.0, 2.0, 1.0)
        hyp = BesselParams(0.0, 2.0, -1.0)
        worst = 0.0
        for z in rand_disk(rng, 100):
            z = complex(z)
            w = cmath.sqrt(z)
            worst = max(worst, abs(eval_u(osc, z).values[0] - cmath.sin(w) / w))
            worst = max(worst, abs(eval_u(hyp, z).values[0] - cmath.sinh(w) / w))
        elapsed = time.perf_counter() - start
        assert worst < 1e-12, f"worst closed-form error {worst}"
        assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"


def test_criterion_02_residual_identities():
    with criterion(2, "ODE and recurrence residuals vanish at 200 random points"):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        for _ in range(200):
            b = rng.uniform(0.0, 3.0)
            kappa = rng.uniform(0.5, 10.0)
            c = rng.uniform(-4.0, 4.0)
            params = BesselParams(kappa - (b + 1.0) / 2.0, b, c)
            z = complex(rand_disk(rng, 1, r_max=0.999)[0])
            v = eval_u(params, z, order=2).values
            ode_scale = 1.0 + abs(v[0]) + abs(v[1]) + abs(v[2])
            assert abs(ode_residual(params, z)) < 1e-9 * ode_scale
            assert abs(recurrence_residual(params, z)) < 1e-10 * (1.0 + abs(v[1]))
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"criterion 2 took {elapsed:.2f}s"


def test_criterion_03_spherical_specializations():
    with criterion(3, "Re > 1/2 on the default grid for the spherical families"):
        start = time.perf_counter()
        for c, orders in ((-1.0, (-0.5, 0.0, 1.0, 2.5)), (1.0, (0.0, 1.0, 3.0))):
            for p in orders:
                report = verify_membership("u", HALF_PAIR, BesselParams(p, 2.0, c))
                assert report.verdict == "holds-on-grid", (p, c, report.verdict)
                assert report.min_margin > 1e-6, (p, c, report.min_margin)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"criterion 3 took {elapsed:.2f}s"


def test_criterion_04_half_plane_corollary():
    with criterion(4, "Re u > c/(c-1) holds for the pinned (c, kappa) tuples"):
        start = time.perf_counter()
        for c, kappa in ((-1.0, 1.5), (-2.0, 3.0), (-0.5, 1.2)):
            assert 2.0 * kappa >= 2.0 + c * c
            outcome = check_corollary("halfplane-c-ratio", kappa, c)
            assert outcome.satisfied
            pair = outcome.implied_pair
            assert abs(pair.A - (-(c + 1.0) / (c - 1.0))) < 1e-15 and pair.B == -1.0
            report = verify_membership("u", pair, BesselParams(kappa - 1.5, 2.0, c))
            assert report.verdict == "holds-on-grid" and report.min_margin > 0.0
        elapsed = time.perf_counter() - start
        assert elapsed < 3.0, f"criterion 4 took {elapsed:.2f}s"


def test_criterion_05_derivative_corollary_equality_cases():
    with criterion(5, "Re (-4 kappa/c) u' > 1/2 at the kappa = |c|/2 equality tuples"):
        for c, kappa in ((1.0, 0.5), (-3.0, 1.5), (2.0, 1.0)):
            outcome = check_corollary("deriv-re-half", kappa, c)
            assert outcome.satisfied and outcome.slacks[0][1] == 0.0
            report = verify_membership(
                "deriv-normalized", HALF_PAIR, BesselParams(kappa - 1.5, 2.0, c)
            )
            assert report.verdict == "holds-on-grid" and report.min_margin > 0.0


def test_criterion_06_pointwise_bounds():
    with criterion(6, "all three pointwise bounds hold; z=0 equalities exact"):
        rng = np.random.default_rng(103)
        for p in (0.0, 1.0, 2.0):
            for z in rand_disk(rng, 50, r_max=0.99):
                assert mccarty_bounds(p, complex(z)).all_hold(), (p, z)
        at_zero = mccarty_bounds(0.0, 0j)
        assert abs(at_zero.modulus.bound - 1.0) < 1e-12
        assert abs(at_zero.modulus.observed - 1.0) < 1e-12
        assert abs(at_zero.real_part.bound - 1.0) < 1e-12
        assert abs(at_zero.real_part.observed - 1.0) < 1e-12


def test_criterion_07_soundness_sweeps():
    # One sweep per checker family and regime, always >= 500 cells.  The
    # convexity/starlike sweeps use an even c-step count, so c = 0 is not
    # sampled; there u' vanishes identically, every convexity sample is
    # degenerate and the convexity checker reports branch "c=0", not
    # satisfied, so that column would add no conflict.  The derivative
    # sweeps exclude c = 0, where the derivative checker raises ZeroC.
    sweeps = [
        ("membership low-B", "u", JanowskiPair(0.5, -0.5), (1.0, 6.0, 25), (-3.0, 3.0, 21)),
        ("membership high-B", "u", JanowskiPair(0.8, 0.3), (1.0, 6.0, 25), (-3.0, 3.0, 21)),
        ("derivative low-B", "deriv-normalized", JanowskiPair(0.5, -0.5), (0.5, 6.0, 25), (-3.0, -0.25, 21)),
        ("derivative high-B", "deriv-normalized", JanowskiPair(0.8, 0.3), (0.5, 6.0, 25), (0.25, 3.0, 21)),
        ("convexity", "convexity", JanowskiPair(0.7, -0.3), (0.2, 6.0, 25), (-4.0, 4.0, 20)),
        ("starlike", "starlike-zu", JanowskiPair(0.6, -0.4), (0.2, 6.0, 25), (-4.0, 4.0, 20)),
    ]
    with criterion(7, "six 500+-cell soundness sweeps report zero conflicts"):
        for name, selector, pair, kappa_range, c_range in sweeps:
            start = time.perf_counter()
            rows = region_scan(selector, pair, kappa_range, c_range, SWEEP_GRID)
            elapsed = time.perf_counter() - start
            assert len(rows) >= 500, name
            conflicts = scan_conflicts(rows)
            assert not conflicts, (
                name,
                [(r.kappa, r.c, r.report.min_margin) for r in conflicts[:5]],
            )
            assert elapsed < 60.0, f"sweep {name} took {elapsed:.1f}s"
            satisfied = sum(r.checker.satisfied for r in rows)
            print(f"    sweep {name}: {len(rows)} cells, {satisfied} satisfied, 0 conflicts")


def test_criterion_08_admissibility():
    with criterion(8, "satisfied tuples are Psi-admissible; reference probe exact"):
        probe = AdmissibilityProbe(rho=0.0, sigma=-0.5, mu=0.0, nu=0.0, z=0j)
        value = eval_psi("subordination", HALF_PAIR, 2.0, -1.0, probe)
        assert abs(value - (-1.0)) < 1e-14 and value.imag == 0.0
        rng = np.random.default_rng(107)
        found = 0
        attempts = 0
        while found < 100:
            attempts += 1
            assert attempts < 10000
            B = rng.uniform(-1.0, 0.8)
            A = rng.uniform(B + 0.05, 1.0)
            pair = JanowskiPair(A, B)
            kappa = rng.uniform(1.0, 8.0)
            c = rng.uniform(-3.0, 3.0)
            if not check_subordination_theorem(pair, kappa, c).satisfied:
                continue
            found += 1
            max_re, _ = admissibility_scan("subordination", pair, kappa, c)
            assert max_re < 0.0, (A, B, kappa, c, max_re)


def test_criterion_09_documented_discrepancy_cell():
    with criterion(9, "kappa=1, c=-1: corollary yes, theorem-literal no, sampling holds"):
        assert not check_subordination_theorem(HALF_PAIR, 1.0, -1.0).satisfied
        assert check_corollary("re-half", 1.0, -1.0).satisfied
        report = verify_membership("u", HALF_PAIR, BesselParams(-0.5, 2.0, -1.0))
        assert report.verdict == "holds-on-grid"
        assert abs(report.min_margin - 0.26541772621418214) < 1e-14


def test_criterion_10_cli_determinism(capsys):
    import json

    def payload_of(argv):
        code = run(argv)
        doc = json.loads(capsys.readouterr().out)
        doc.pop("timestamp")
        return code, json.dumps(doc, sort_keys=True)

    small = ["--radii", "6", "--angles", "16"]
    verbs = [
        ["eval", "--p", "0.3", "--b", "1.4", "--c=-2", "--z", "0.3,0.4"],
        ["check", "--theorem", "subordination", "--A", "0", "--B=-1", "--kappa", "2", "--c=-1"],
        ["verify", "--selector", "u", "--A", "0", "--B=-1", "--p", "0", "--b", "2", "--c=-1"] + small,
        ["radius", "--selector", "u", "--A", "0.1", "--B=-1", "--p=-0.5", "--b", "2", "--c", "6",
         "--grid-density", "64"],
        ["scan", "--selector", "u", "--A", "0", "--B=-1", "--kappa-range", "1:2:3",
         "--c-range=-2:-1:3"] + small,
        ["admissibility", "--which", "subordination", "--A", "0", "--B=-1", "--kappa", "2", "--c=-1"],
        ["bounds", "--p", "1", "--z", "0.5,0"],
    ]
    with criterion(10, "every verb is run-to-run deterministic; --workers changes nothing"):
        for argv in verbs:
            code_a, first = payload_of(argv)
            code_b, second = payload_of(argv)
            assert (code_a, first) == (code_b, second), argv[0]
        scan_argv = ["scan", "--selector", "u", "--A", "0", "--B=-1",
                     "--kappa-range", "1:3:5", "--c-range=-2:-1:4",
                     "--format", "csv"] + small
        run(scan_argv + ["--workers", "1"])
        serial = capsys.readouterr().out
        run(scan_argv + ["--workers", "4"])
        threaded = capsys.readouterr().out
        assert serial == threaded and serial.count("\n") == 21
