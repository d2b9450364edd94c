"""Disk-sampling verifier tests: membership, radii, admissibility, scans."""

import contextlib
import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, target
from hypothesis import strategies as st
from hypothesis.internal.conjecture import providers

from janbessel import (
    BesselParams,
    DEFAULT_CONFIG,
    SELECTORS,
    AdmissibilityProbe,
    CheckOutcome,
    JanowskiPair,
    SampleGrid,
    ScanRow,
    ZeroC,
    admissibility_scan,
    check_convexity_theorem,
    check_corollary,
    check_starlike_theorem,
    check_subordination_theorem,
    eval_psi,
    property_radius,
    region_margin_many,
    region_scan,
    scan_conflicts,
    target_region,
    verify_membership,
)
from janbessel import bessel, checks, verify
from janbessel.bessel import EvalConfig, InvalidKappa, NoConvergence, _PowerTable, zero_free_radius
from janbessel.checks import THEOREM_NAMES, check_theorem, _convexity_coefficients, _psi_formula, _subordination_coefficients

SRC = Path(__file__).resolve().parent.parent / "src"
HALF_PAIR = JanowskiPair(0.0, -1.0)
SMALL_GRID = SampleGrid(radii=tuple(np.geomspace(0.05, 0.999, 6)), angles=16)

# Frozen expectations for the pinned fixtures (values recorded from the
# first validated run and cross-checked against a 40-digit series oracle).
I0_MIN_MARGIN = 0.3416215769019355
CEX_MIN_MARGIN = -0.47324007523440137
CEX_WITNESS = 0.9485786524124437 + 0.3133680586584926j
# u = 0F1(; 1; -1.5 z) meets the edge Re w = 0.45 of the pair (0.1, -1) first at
# z = r = RADIUS_ROOT: mpmath findroot at 40 digits, rounded to a float.
RADIUS_ROOT = 0.431733090440526
GAP_CELL_MARGIN = 0.26541772621418214
UNSOUND_CELL_MARGIN = -0.12005867698433714


def test_default_grid_shape():
    grid = SampleGrid.default()
    assert len(grid.radii) == 24 and grid.angles == 256
    assert grid.radii[0] == 0.05 and grid.radii[-1] == 0.999
    assert all(b > a for a, b in zip(grid.radii, grid.radii[1:]))
    assert grid.max_radius == 0.999


def test_grid_validation():
    with pytest.raises(ValueError):
        SampleGrid(radii=(0.5, 0.3), angles=16)
    with pytest.raises(ValueError):
        SampleGrid(radii=(0.5, 1.0), angles=16)
    with pytest.raises(ValueError):
        SampleGrid(radii=(0.5,), angles=4)
    with pytest.raises(ValueError):
        SampleGrid(radii=(), angles=16)
    with pytest.raises(ValueError):
        SampleGrid(radii=(0.5,), angles=16, max_radius=1.0)
    with pytest.raises(ValueError):
        SampleGrid(radii=(0.5, 0.9995), angles=16)
    with pytest.raises(ValueError):
        SampleGrid(radii=(0.5, 0.9), angles=16, max_radius=0.8)
    assert SampleGrid(radii=(0.5, 0.9), angles=16, max_radius=0.9).radii[-1] == 0.9


def test_default_grid_is_built_once():
    assert SampleGrid.default() is SampleGrid.default()


def test_grid_points_are_radius_major():
    grid = SampleGrid(radii=(0.25, 0.75), angles=8)
    pts = grid.points()
    assert pts.shape == (16,)
    assert np.allclose(np.abs(pts[:8]), 0.25) and np.allclose(np.abs(pts[8:]), 0.75)
    assert pts[0] == 0.25 + 0j  # angle zero first


def _bits(values):
    return np.ascontiguousarray(values, dtype=complex).view(np.uint64)


@pytest.mark.parametrize("n", [8, 9, 16, 17, 64, 256])
def test_ring_is_mirror_exact(n):
    ring = verify._ring(n)
    assert ring.shape == (n,)
    assert np.allclose(ring, np.exp(2j * np.pi * np.arange(n) / n), rtol=0.0, atol=4e-15)
    assert ring[0] == 1.0 and ring[0].imag == 0.0
    if n % 2 == 0:
        assert ring[n // 2] == -1.0 and ring[n // 2].imag == 0.0
    k = np.arange(1, (n + 1) // 2)
    assert np.array_equal(_bits(ring[n - k]), _bits(np.conj(ring[k])))
    grid = SampleGrid(radii=(0.05, 0.3, 0.999), angles=n)
    rings = grid.points().reshape(3, n)
    assert np.all(rings[:, 0].imag == 0.0)
    assert np.array_equal(_bits(rings[:, n - k]), _bits(np.conj(rings[:, k])))


# The hit label of a zero functional denominator, per quotient selector.
DENOMINATOR_LABEL = {"convexity": "zero-derivative", "starlike-zu": "zero-value"}


def _one_cell_values(selector, params, radii, table):
    """verify._functional_values of one cell, 1-d: (w, degenerate_mask)."""
    rows = verify._kernel_rows(selector, params, DEFAULT_CONFIG)
    w, mask = verify._functional_values(selector, rows, [params], radii, table)
    return w[0], mask[0]


def _reference_margins(selector, pair, params, radii, units):
    """Margins at every radius * unit, radius-major (excluded ones +inf), and the hits.

    The series goes through the same kernel as verify's, on a power table
    of all the given unit points.
    """
    table = _PowerTable(units)
    zs = (np.asarray(radii)[:, None] * table.points).ravel()
    w, mask = _one_cell_values(selector, params, radii, table)
    proof = (np.abs((1.0 + pair.B) * w - (1.0 + pair.A)) < verify.DEGENERACY_TOL) & ~mask
    margins = np.where(mask | proof, np.inf, region_margin_many(target_region(pair), w))
    hits = [(complex(z), DENOMINATOR_LABEL.get(selector)) for z in zs[mask]]
    hits.extend((complex(z), "proof-map-pole") for z in zs[proof])
    return margins, hits


# Each quotient selector's denominator is a multiple of 0F1(; kappa + shift; -c z / 4).
DENOMINATOR_SHIFT = {"convexity": 1.0, "starlike-zu": 0.0}


def _zero_free(selector, params):
    if selector not in DENOMINATOR_SHIFT:
        return 0.0
    return zero_free_radius(params.kappa + DENOMINATOR_SHIFT[selector], params.c)


def _reference_real_axis(selector, pair, params, r):
    """Margins at r and -r, r first (an excluded one +inf), the two points and the hits among them."""
    margins, hits = _reference_margins(selector, pair, params, (r,), np.array([1.0, -1.0]))
    return margins, np.array([r, -r], dtype=complex), hits


# The two entire functionals: verify samples their grid's outer circle alone.
ENTIRE = ("u", "deriv-normalized")


def _reference_verify_membership(selector, pair, params, grid, rule=True, radii=None):
    # With the rule, a quotient cell whose denominator is certified zero-free
    # on the disk is decided at the two points r and -r: an excluded one is a
    # hit there, and the other gives the margin.  Otherwise, one pass over
    # every point of the given outermost radii of the grid, first minimum: by
    # default the outer circle alone for an entire functional, and every
    # radius for a quotient.
    if radii is None:
        radii = grid.radii[-1:] if selector in ENTIRE else grid.radii
    r = grid.radii[-1]
    if rule and r < _zero_free(selector, params):
        margins, points, hits = _reference_real_axis(selector, pair, params, r)
        method = "real-axis"
    else:
        margins, hits = _reference_margins(selector, pair, params, radii, verify._ring(grid.angles))
        points, method = grid.points()[-len(margins) :], "sampled"
    report = verify.VerificationReport(
        selector, pair, params, "counterexample", math.nan, None, grid, hits, method
    )
    if not np.isfinite(margins).any():
        return report
    idx = int(np.argmin(margins))
    report.min_margin, report.witness = float(margins[idx]), complex(points[idx])
    if not hits and report.min_margin > 0.0:
        report.verdict = "holds-on-grid"
    return report


def _assert_same_report(report, ref, where):
    assert report.method == ref.method, where
    assert report.verdict == ref.verdict, where
    assert np.float64(report.min_margin).view(np.uint64) == np.float64(ref.min_margin).view(
        np.uint64
    ), where
    assert (report.witness is None) == (ref.witness is None), where
    if ref.witness is not None:
        assert np.array_equal(_bits(report.witness), _bits(ref.witness)), where
    assert len(report.degeneracy_hits) == len(ref.degeneracy_hits), where
    for (z, reason), (z_ref, reason_ref) in zip(report.degeneracy_hits, ref.degeneracy_hits):
        assert reason == reason_ref and np.array_equal(_bits(z), _bits(z_ref)), where


MIRROR_GRIDS = [
    SampleGrid.default(),
    SampleGrid(radii=tuple(np.geomspace(0.05, 0.999, 10)), angles=64),
    SampleGrid(radii=(0.2, 0.6, 0.95), angles=9),
    SampleGrid(radii=tuple(np.geomspace(0.1, 0.999, 5)), angles=17),
    SampleGrid(radii=(0.5, 0.999), angles=8),
]


def _mirror_draws(seed, count):
    """Seeded (selector, pair, params): every selector, B = -1, |c| up to 150, c = 0, kappa < 0."""
    rng = np.random.default_rng(seed)
    draws = []
    for k in range(count):
        selector = verify.SELECTORS[k % 4]
        B = -1.0 if k % 3 == 0 else rng.uniform(-1.0, 0.9)
        pair = JanowskiPair(rng.uniform(B + 0.05, 1.0), B)
        kappa = rng.uniform(-2.9, 8.0)
        if abs(kappa - round(kappa)) < 0.05 and kappa < 0.5:
            kappa += 0.3
        c = (rng.uniform(-4.0, 4.0), rng.uniform(-150.0, 150.0), 0.0)[k % 7 % 3]
        if c == 0.0 and selector == "deriv-normalized":
            c = 1e-3
        draws.append((selector, pair, BesselParams(kappa - 1.5, 2.0, c)))
    return draws


def test_mirror_margins_are_bit_equal():
    # The margin at a point below the real axis and the degeneracy flags there
    # are those of its upper twin, to the bit, on every full grid.
    for g, grid in enumerate(MIRROR_GRIDS):
        n, rings = grid.angles, len(grid.radii)
        k = np.arange(1, (n + 1) // 2)
        for selector, pair, params in _mirror_draws(300 + g, 24):
            table = _PowerTable(verify._ring(n))
            w, mask = _one_cell_values(selector, params, grid.radii, table)
            # Each sample its own row: its least margin is its margin.
            margins, _, _, proof = verify._least_margins(pair, target_region(pair), w[:, None], mask[:, None])
            margins, proof = np.array(margins), proof[:, 0]
            where = (grid.angles, selector, pair, params)
            for values in (margins, mask, proof):
                values = values.reshape(rings, n)
                lower, upper = values[:, n - k], values[:, k]
                if values.dtype == float:
                    lower, upper = lower.copy().view(np.uint64), upper.copy().view(np.uint64)
                assert np.array_equal(lower, upper), where


def _assert_witness_on_grid(report, where):
    # A sampled report's witness is one of its grid's points, to the bit.
    points = _bits(report.grid.points()).reshape(-1, 2)
    assert (points == _bits(report.witness)).all(axis=1).any(), where


def _full_least_margins(pair, w, mask):
    """verify._least_margins with the proof-side test at every sample: the reference."""
    proof = (np.abs((1.0 + pair.B) * w - (1.0 + pair.A)) < verify.DEGENERACY_TOL) & ~mask
    excluded = mask | proof
    margins = np.where(excluded, np.inf, region_margin_many(target_region(pair), w))
    first = margins.argmin(axis=1)
    return margins[np.arange(len(margins)), first].tolist(), first, excluded.any(axis=1).tolist(), proof


# Pairs about the proof-side pole: B from 1e-15 (snapped to -1) to 1e-8 above
# -1, A - B down to 1e-14, and half-planes with 1 + A above and below the
# default tolerance.  At the first two (found by a seeded search), one ulp
# off m(1) is still a hit at the tolerance 1e-20, and lies farther from the
# edge than m(1) by about half an ulp of R + |C| + m(1).
POLE_PAIRS = [
    JanowskiPair(0.6257814420367299, -0.17068336778364268),
    JanowskiPair(-0.4446400999927922, -0.9999999999978423),
    JanowskiPair(0.5, -1.0 + 1e-15),
    JanowskiPair(0.5, -1.0 + 2e-12),
    JanowskiPair(-0.3, -1.0 + 1e-10),
    JanowskiPair(0.9, -1.0 + 1e-8),
    JanowskiPair(-1.0 + 3e-8, -1.0 + 1e-8),
    JanowskiPair(0.3 + 1e-14, 0.3),
    JanowskiPair(-0.5 + 1e-13, -0.5),
    JanowskiPair(0.8, 0.3),
    JanowskiPair(0.0, -1.0),
    JanowskiPair(-1.0 + 1e-14, -1.0),
]


def _pole_samples(pair, rng):
    """150 samples: about m(1) = (1+A)/(1+B) (a half-plane's edge where B = -1), then non-finite ones."""
    if pair.B == -1.0:
        m1, reach = (1.0 - pair.A) / 2.0, verify.DEGENERACY_TOL
    else:
        m1, reach = (1.0 + pair.A) / (1.0 + pair.B), verify.DEGENERACY_TOL / (1.0 + pair.B)
    offsets = reach * np.geomspace(1e-3, 2.0, 60) * np.exp(2j * np.pi * rng.random(60))
    steps = np.arange(-20, 21) * math.ulp(m1)
    odd = [math.nan, math.inf, -math.inf, complex(math.inf, math.nan), complex(1.0, math.inf), 1.0]
    return np.concatenate([m1 + offsets, m1 * (1.0 + np.array([-1e-15, 1e-15])), m1 + steps, m1 + 1j * steps, odd])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # the non-finite samples
def test_least_margins_is_the_full_proof_side_test(monkeypatch):
    # _least_margins runs the proof-side test only where a margin lies near
    # the edge; the skip never drops a hit.  Each sample goes alone, so a
    # hit must bring its own test, and then all of them as rows of 6, some
    # masked.  Some hits lie past 2 TOL/(1+B) + 1e-12 (1 + R + |C|) of the
    # edge (the computed disk misses m(1)), and some past 2 TOL/(1+B) +
    # |margin(m(1))| (by rounding alone, at the tiny tolerance).
    rng = np.random.default_rng(27)
    hits = off_edge = past_rounding = 0
    for tol in (verify.DEGENERACY_TOL, 0.9, 1e-20):
        monkeypatch.setattr(verify, "DEGENERACY_TOL", tol)
        for pair in POLE_PAIRS:
            region = target_region(pair)
            w = _pole_samples(pair, rng)
            mask = rng.random(len(w)) < 0.1
            blocks = [(w[i : i + 1, None], mask[i : i + 1, None]) for i in range(len(w))]
            for ws, ms in blocks + [(w.reshape(-1, 6), mask.reshape(-1, 6))]:
                got, want = verify._least_margins(pair, region, ws, ms), _full_least_margins(pair, ws, ms)
                assert np.array(got[0]).tobytes() == np.array(want[0]).tobytes(), (tol, pair, ws)
                assert np.array_equal(got[1], want[1]) and got[2] == want[2], (tol, pair, ws)
                assert np.array_equal(got[3], want[3]), (tol, pair, ws)
            hit = np.abs(region_margin_many(region, w[want[3].ravel()]))
            hits += len(hit)
            if pair.B > -1.0:
                m1 = (1.0 + pair.A) / (1.0 + pair.B)
                reach = 2.0 * tol / (1.0 + pair.B)
                off_edge += np.sum(hit >= reach + 1e-12 * (1.0 + region.radius + abs(region.center)))
                past_rounding += np.sum(hit > reach + abs(region_margin_many(region, m1)))
    assert hits >= 1000 and off_edge >= 100 and past_rounding >= 2, (hits, off_edge, past_rounding)


def test_verify_membership_equals_full_grid_reference():
    cases = [
        # Off-axis witness.
        ("u", JanowskiPair(0.1, -1.0), BesselParams(-0.5, 2.0, 6.0)),
        # Every sample degenerate: no witness.
        ("convexity", JanowskiPair(1.0, -1.0), BesselParams(1.5, 2.0, 0.0)),
        ("u", HALF_PAIR, BesselParams(0.0, 2.0, -1.0)),
        ("starlike-zu", JanowskiPair(0.6, -0.4), BesselParams(-1.3, 2.0, -4.0)),
    ]
    # On 8 angles the disk's least margins lie between these grids' points.
    eight = MIRROR_GRIDS[-1]
    pinned = [
        (eight, "u", JanowskiPair(0.0109, -0.3114), BesselParams(-3.319, 2.0, 0.7265)),
        (eight, "u", JanowskiPair(0.827, 0.2406), BesselParams(-3.068, 2.0, 2.797)),
    ]
    for g, grid in enumerate(MIRROR_GRIDS):
        draws = cases + _mirror_draws(500 + g, 40 if grid.angles < 256 else 12)
        pinned.extend((grid,) + draw for draw in draws)
    real_axis = ties = 0
    for grid, selector, pair, params in pinned:
        report = verify_membership(selector, pair, params, grid)
        ref = _reference_verify_membership(selector, pair, params, grid)
        where = (grid.angles, selector, pair, params)
        _assert_same_report(report, ref, where)
        if report.method == "sampled" and report.witness is not None:
            _assert_witness_on_grid(report, where)
        if report.method == "real-axis":
            real_axis += 1
            _assert_rule_keeps_the_sampled_report(report, selector, pair, params, grid, where)
        if selector in ENTIRE:
            # The outer circle decides as the whole grid does, to the bit; an
            # exact tie goes to the circle's first point attaining it.
            full = _reference_verify_membership(selector, pair, params, grid, radii=grid.radii)
            assert report.verdict == full.verdict and repr(report.min_margin) == repr(full.min_margin), where
            assert report.degeneracy_hits == full.degeneracy_hits == [], where
            circle = grid.points()[-grid.angles :].tolist()
            assert report.witness in circle, where
            ties += full.witness not in circle
    assert real_axis >= 30 and ties >= 5


def _assert_rule_keeps_the_sampled_report(report, selector, pair, params, grid, where):
    # On an even grid a real-axis report without hits is the sampled one, to
    # the bit, and one with hits has the sampled report's hits at r and -r,
    # in order.  An odd grid has no point at -r: there the rule's margin,
    # exact for the disk, is at most the sampled one.
    sampled = _reference_verify_membership(selector, pair, params, grid, rule=False)
    r = grid.radii[-1]
    if report.degeneracy_hits:
        axis = [hit for hit in sampled.degeneracy_hits if hit[0] in (r, -r)]
        if grid.angles % 2 == 0:
            assert report.degeneracy_hits == axis, where
        else:
            assert [hit for hit in report.degeneracy_hits if hit[0] == r] == axis, where
    elif grid.angles % 2 == 0:
        _assert_same_report(report, dataclasses.replace(sampled, method="real-axis"), where)
    else:
        assert report.min_margin <= sampled.min_margin + 1e-12 * max(1.0, abs(sampled.min_margin))


def test_verify_membership_mirrors_partial_degeneracies(monkeypatch):
    # A wide tolerance excludes some samples and keeps others, so the hits
    # rebuilt from the upper half must match the full grid's, in order.
    # An entire functional's hits are those of its grid's outer circle: the
    # full grid's hits on that circle, in the same order.
    # A real-axis cell's hits are those among r and -r, and the report stays
    # on those two points.
    monkeypatch.setattr(verify, "DEGENERACY_TOL", 0.6)
    partial = real_axis = axis_hits = entire = 0
    for g, grid in enumerate(MIRROR_GRIDS[1:]):
        for selector, pair, params in _mirror_draws(700 + g, 24):
            report = verify_membership(selector, pair, params, grid)
            ref = _reference_verify_membership(selector, pair, params, grid)
            where = (grid.angles, selector, pair, params)
            _assert_same_report(report, ref, where)
            hits = len(ref.degeneracy_hits)
            rings = 1 if selector in ENTIRE else len(grid.radii)
            partial += 0 < hits < rings * grid.angles
            if report.method == "real-axis":
                real_axis += 1
                _assert_rule_keeps_the_sampled_report(report, selector, pair, params, grid, where)
                r = grid.radii[-1]
                assert all(hit[0] in (r, -r) for hit in report.degeneracy_hits), where
                axis_hits += bool(report.degeneracy_hits)
            if selector in ENTIRE:
                full = _reference_verify_membership(selector, pair, params, grid, radii=grid.radii)
                circle = grid.points()[-grid.angles :].tolist()
                outer = [hit for hit in full.degeneracy_hits if hit[0] in circle]
                assert report.degeneracy_hits == outer, where
                entire += 0 < hits < grid.angles
    assert partial >= 10 and real_axis >= 3 and axis_hits >= 5 and entire >= 5


def test_entire_functionals_take_their_least_sampled_margin_on_the_outer_circle():
    # u and (-4 kappa / c) u' are entire, so a margin against a disk target is
    # superharmonic and against a half-plane harmonic: its least value on
    # |z| <= r lies on |z| = r.  On seeded cells, both grids, no inner-ring
    # sample of the full grid's reduction (its closed upper half: every other
    # margin is a twin's, to the bit) lies below the report's min_margin,
    # the full grid's least margin is min_margin to the bit, and its verdict
    # is the report's.
    rng = np.random.default_rng(3303)
    for grid in (SampleGrid.default(), CRITERION_7_GRID):
        table = verify._sampled_units(grid.angles)
        for k in range(1000):
            selector = ENTIRE[k % 2]
            pair, kappa, c = _draw_cell(rng)
            params = verify._params_for_kappa(kappa, c)
            report = verify_membership(selector, pair, params, grid)
            w, mask = _one_cell_values(selector, params, grid.radii, table)
            rings = (len(grid.radii), -1)
            least, _, excluded, _ = verify._least_margins(pair, target_region(pair), w.reshape(rings), mask.reshape(rings))
            where = (grid.angles, selector, pair, kappa, c)
            assert min(least[:-1]) >= report.min_margin, where
            assert repr(min(least)) == repr(report.min_margin), where
            verdict = "holds-on-grid" if min(least) > 0.0 and not any(excluded) else "counterexample"
            assert report.verdict == verdict, where


# Two deriv-normalized cells (A, B, kappa, c) that hold on the 0.999 grid but
# not on the open disk: on |z| = 1, at 256 points and at 30 digits, the least
# margin is negative, at z = 1 and at z = -1 respectively.  A verdict on the
# unit circle itself (ROADMAP item 2, step 4) makes both counterexamples.
GRID_MISSES = [
    ((0.4797066878720951, 0.47120510298350626, 7.034366389300467, -0.1853937362875584), 8.59e-7, -4.94e-6, 1.0),
    ((-0.4921737999504618, -0.5827765132681078, 6.3720143229218325, -1.7321714587441797), 5.33e-5, -2.51e-6, -1.0),
]


@pytest.mark.parametrize("cell, grid_margin, circle_margin, at", GRID_MISSES)
def test_the_grid_holds_two_cells_that_fail_on_the_unit_circle(cell, grid_margin, circle_margin, at):
    A, B, kappa, c = cell
    pair = JanowskiPair(A, B)
    report = verify_membership("deriv-normalized", pair, verify._params_for_kappa(kappa, c))
    assert report.verdict == "holds-on-grid" and report.degeneracy_hits == []
    assert report.min_margin == pytest.approx(grid_margin, rel=1e-2)
    # The functional is the series at kappa + 1 (the order-shift identity).
    zs = verify._ring(256)
    with mpmath.workdps(30):
        w = np.array([complex(mpmath.hyp0f1(kappa + 1.0, -c * z / 4.0)) for z in zs])
    margins = region_margin_many(target_region(pair), w)
    i = int(np.argmin(margins))
    assert margins[i] == pytest.approx(circle_margin, rel=1e-2) and zs[i] == at


def test_one_series_call_per_sampled_cell(monkeypatch):
    # Kernel-plus-functional calls as (rings, points per ring): a sampled cell
    # is one call over its grid's closed upper half, whatever its witness, and
    # an entire functional's over its grid's outer circle alone.
    calls = []
    kernel = verify._functional_values

    def counted(selector, rows, cells, radii, table):
        assert len(cells) == 1
        calls.append((len(radii), len(table.points)))
        return kernel(selector, rows, cells, radii, table)

    monkeypatch.setattr(verify, "_functional_values", counted)
    report = verify_membership("u", HALF_PAIR, BesselParams(0.0, 2.0, -1.0))
    assert report.witness.imag == 0.0
    assert calls == [(1, 129)]
    calls.clear()
    report = verify_membership("u", JanowskiPair(0.1, -1.0), BesselParams(-0.5, 2.0, 6.0))
    assert report.witness.imag != 0.0
    assert calls == [(1, 129)]
    # A quotient cell certified zero-free: the two points r and -r only.
    for selector in ("convexity", "starlike-zu"):
        calls.clear()
        report = verify_membership(selector, HALF_PAIR, BesselParams(0.5, 2.0, -1.0))
        assert report.method == "real-axis"
        assert calls == [(1, 2)]
    # Every seeded sampled cell, odd grids included: its one call is the
    # grid's upper half, and its witness is a grid point.
    sampled = odd = 0
    for g, grid in enumerate(MIRROR_GRIDS):
        for selector, pair, params in _mirror_draws(900 + g, 24):
            calls.clear()
            report = verify_membership(selector, pair, params, grid)
            if report.method != "sampled":
                continue
            where = (grid.angles, selector, pair, params)
            rings = 1 if selector in ENTIRE else len(grid.radii)
            assert calls == [(rings, grid.angles // 2 + 1)], where
            if report.witness is not None:
                _assert_witness_on_grid(report, where)
                sampled += 1
                odd += grid.angles % 2
    assert sampled >= 60 and odd >= 20


@pytest.mark.parametrize("selector, params", [
    ("u", BesselParams(0.0, 2.0, -1.0)),
    ("starlike-zu", BesselParams(0.5, 2.0, -1.0)),  # certified: the real-axis rule
])
def test_a_nan_least_margin_is_a_counterexample(monkeypatch, selector, params):
    # A NaN sample is no evidence of membership: argmin stops at it, and the
    # report keeps it as the least margin at its own point, a counterexample.
    # Sample 1 is the second point of u's outer circle, and -r on the axis.
    kernel = verify._functional_values

    def values(selector, rows, cells, radii, table):
        w, mask = kernel(selector, rows, cells, radii, table)
        w = w.copy()
        w[:, 1] = complex(math.nan, 0.0)
        return w, mask

    monkeypatch.setattr(verify, "_functional_values", values)
    report = verify_membership(selector, HALF_PAIR, params, SMALL_GRID)
    assert report.method == ("sampled" if selector == "u" else "real-axis")
    assert math.isnan(report.min_margin) and report.verdict == "counterexample"
    assert report.witness == (SMALL_GRID.points()[-16 + 1] if selector == "u" else -0.999)


def test_a_zero_least_margin_is_a_counterexample(monkeypatch):
    # Membership is strict, as in property_radius: w = 1/2 lies on the edge
    # Re w = 1/2 of the pair (0, -1), so a least margin of exactly 0 is no
    # evidence of membership.
    def on_the_edge(selector, rows, cells, radii, table):
        shape = (len(cells), len(radii) * len(table.points))
        return np.full(shape, 0.5 + 0j), np.zeros(shape, dtype=bool)

    monkeypatch.setattr(verify, "_functional_values", on_the_edge)
    params = BesselParams(0.0, 2.0, -1.0)
    report = verify_membership("u", HALF_PAIR, params, SMALL_GRID)
    assert report.min_margin == 0.0 and report.degeneracy_hits == []
    assert report.verdict == "counterexample"
    assert property_radius("u", HALF_PAIR, params) == 0.0


def test_modified_spherical_base_case_holds():
    report = verify_membership("u", HALF_PAIR, BesselParams(0.0, 2.0, -1.0))
    assert report.verdict == "holds-on-grid"
    assert abs(report.min_margin - I0_MIN_MARGIN) < 1e-14
    assert abs(report.witness.real - (-0.999)) < 1e-12
    assert abs(report.witness.imag) < 1e-12
    assert report.degeneracy_hits == []
    assert report.grid == SampleGrid.default()


def test_spherical_base_case_matches_modified_one():
    # sin(sqrt z)/sqrt z on +r equals sinh(sqrt z)/sqrt z on -r, so the two
    # grid minima coincide exactly (the grid is symmetric under negation).
    ri = verify_membership("u", HALF_PAIR, BesselParams(0.0, 2.0, -1.0))
    rj = verify_membership("u", HALF_PAIR, BesselParams(0.0, 2.0, 1.0))
    assert rj.verdict == "holds-on-grid"
    assert rj.min_margin == ri.min_margin
    assert abs(rj.witness.real - 0.999) < 1e-12


def test_constant_function_margin_is_margin_of_one():
    rep = verify_membership("u", JanowskiPair(1.0, -1.0), BesselParams(0.0, 2.0, 0.0))
    assert rep.verdict == "holds-on-grid" and rep.min_margin == 1.0
    rep2 = verify_membership("u", JanowskiPair(0.5, 0.0), BesselParams(0.0, 2.0, 0.0))
    assert rep2.min_margin == 0.5


def test_counterexample_detection_frozen_case():
    pair, params = JanowskiPair(0.1, -1.0), BesselParams(-0.5, 2.0, 6.0)
    report = verify_membership("u", pair, params)
    assert report.verdict == "counterexample"
    assert abs(report.min_margin - CEX_MIN_MARGIN) < 1e-14
    assert abs(report.witness - CEX_WITNESS) < 1e-12
    assert report.degeneracy_hits == []
    # Oracle: the half-plane margin Re u - (1 - A) / 2 at the witness, with u
    # from mpmath hyp0f1 at 40 digits.
    with mpmath.workdps(40):
        z = mpmath.mpc(report.witness.real, report.witness.imag)
        u = mpmath.hyp0f1(params.kappa, -mpmath.mpf(params.c) / 4 * z)
        margin = mpmath.re(u) - (1 - mpmath.mpf(pair.A)) / 2
        assert abs(report.min_margin - margin) < 1e-14


def test_report_invariant():
    for report in (
        verify_membership("u", HALF_PAIR, BesselParams(0.0, 2.0, -1.0), SMALL_GRID),
        verify_membership("u", JanowskiPair(0.1, -1.0), BesselParams(-0.5, 2.0, 6.0), SMALL_GRID),
        verify_membership("convexity", JanowskiPair(1.0, -1.0), BesselParams(1.5, 2.0, 0.0), SMALL_GRID),
    ):
        is_cex = report.verdict == "counterexample"
        assert is_cex == (not report.min_margin > 0.0 or bool(report.degeneracy_hits))


def test_corollary_conclusion_fails_at_strongly_negative_c():
    # Documented divergence: the printed shortcut condition (kappa >= 1 for
    # c <= 0) accepts this cell, the sampled conclusion Re u > 1/2 fails on
    # the disk, and the full theorem checker correctly rejects it.  Pinned
    # so the three verdicts cannot drift apart silently.
    assert check_corollary("re-half", 1.0, -3.0).satisfied
    assert not check_subordination_theorem(HALF_PAIR, 1.0, -3.0).satisfied
    report = verify_membership("u", HALF_PAIR, BesselParams(-0.5, 2.0, -3.0))
    assert report.verdict == "counterexample"
    assert abs(report.min_margin - UNSOUND_CELL_MARGIN) < 1e-14
    assert abs(report.witness.real - (-0.999)) < 1e-12


def test_documented_gap_cell_triple_verdict():
    # kappa=1, c=-1: corollary satisfied, theorem-literal not satisfied,
    # sampled membership holds.
    assert check_corollary("re-half", 1.0, -1.0).satisfied
    assert not check_subordination_theorem(HALF_PAIR, 1.0, -1.0).satisfied
    report = verify_membership("u", HALF_PAIR, BesselParams(-0.5, 2.0, -1.0))
    assert report.verdict == "holds-on-grid"
    assert abs(report.min_margin - GAP_CELL_MARGIN) < 1e-14


def test_convexity_selector_degenerates_wholesale_at_c_zero():
    # u' vanishes identically at c=0, so the convexity functional is
    # undefined at every sample: the report must show wall-to-wall
    # degeneracy hits and a counterexample verdict with no witness.
    report = verify_membership(
        "convexity", JanowskiPair(1.0, -1.0), BesselParams(1.5, 2.0, 0.0), SMALL_GRID
    )
    assert report.verdict == "counterexample"
    assert math.isnan(report.min_margin) and report.witness is None
    assert len(report.degeneracy_hits) == 6 * 16
    assert {reason for _, reason in report.degeneracy_hits} == {"zero-derivative"}


def test_deriv_selector_rejects_c_zero():
    with pytest.raises(ZeroC):
        verify_membership("deriv-normalized", HALF_PAIR, BesselParams(0.0, 2.0, 0.0), SMALL_GRID)


def test_c_zero_is_rejected_before_the_series_is_summed():
    # In 4 terms the series cannot converge at kappa = -50.5, and c = 0
    # voids the normalized derivative: its ZeroC comes first.
    cfg = EvalConfig(max_terms=4)
    with pytest.raises(NoConvergence):
        verify_membership("deriv-normalized", HALF_PAIR, BesselParams(-50.5, -1.0, 1.0), SMALL_GRID, cfg)
    params = BesselParams(-50.5, -1.0, 0.0)
    with pytest.raises(ZeroC):
        verify_membership("deriv-normalized", HALF_PAIR, params, SMALL_GRID, cfg)
    with pytest.raises(ZeroC):
        property_radius("deriv-normalized", HALF_PAIR, params, cfg=cfg)


def test_unknown_selector_rejected():
    with pytest.raises(ValueError):
        verify_membership("tangent", HALF_PAIR, BesselParams(0.0, 2.0, -1.0), SMALL_GRID)
    with pytest.raises(ValueError, match="unknown selector 'tangent'"):
        region_scan("tangent", HALF_PAIR, (1.0, 2.0, 2), (-1.0, 0.0, 2), SMALL_GRID)


def test_all_selectors_on_a_well_behaved_tuple():
    params = BesselParams(0.5, 2.0, -1.0)  # kappa 2
    for selector in ("u", "deriv-normalized", "convexity", "starlike-zu"):
        report = verify_membership(selector, HALF_PAIR, params, SMALL_GRID)
        assert report.verdict == "holds-on-grid"
        assert report.min_margin > 0.0


def _order_shift_draws(seed, count):
    """Seeded (pair, kappa, c) over _draw_cell's domain, c != 0, |c| log-uniform
    from 1e-300 to 30 on every other draw."""
    rng = np.random.default_rng(seed)
    draws = []
    for i in range(count):
        pair, kappa, c = _draw_cell(rng)
        if i % 2:
            c = math.copysign(10.0 ** rng.uniform(-300.0, math.log10(30.0)), c)
        draws.append((pair, kappa, c))
    return draws


# Each selector read one order up: the order-shift identity 4 kappa u' = -c u_{p+1}.
ORDER_SHIFTS = [("deriv-normalized", "u"), ("convexity", "starlike-zu")]


@pytest.mark.parametrize("selector, shifted", ORDER_SHIFTS)
def test_a_selector_at_kappa_is_its_shifted_selector_at_kappa_plus_1(selector, shifted):
    # deriv-normalized at kappa is the series u at kappa + 1, and convexity
    # 1 + z u''/u' is 1 + z u'/u there: the same report to the bit, hit
    # labels aside, however small |c| is.  With b = -1 both params carry
    # the float kappa + 1 verify forms itself.
    grid = SampleGrid(radii=tuple(np.geomspace(0.05, 0.999, 8)), angles=32)
    tiny = 0
    for pair, kappa, c in _order_shift_draws(2031, 300):
        report = verify_membership(selector, pair, BesselParams(kappa, -1.0, c), grid)
        ref = verify_membership(shifted, pair, BesselParams(kappa + 1.0, -1.0, c), grid)
        where = (pair, kappa, c)
        assert (report.verdict, report.method) == (ref.verdict, ref.method), where
        assert repr(report.min_margin) == repr(ref.min_margin), where
        assert repr(report.witness) == repr(ref.witness), where
        assert [z for z, _ in report.degeneracy_hits] == [z for z, _ in ref.degeneracy_hits], where
        tiny += abs(c) < 1e-13
    assert tiny >= 100


def test_margins_only_sharpen_on_denser_grids():
    base = SampleGrid(radii=tuple(np.geomspace(0.05, 0.999, 12)), angles=64)
    dense_angles = SampleGrid(radii=base.radii, angles=128)
    params = BesselParams(-0.5, 2.0, -1.0)
    for pair in (HALF_PAIR, JanowskiPair(0.1, -1.0)):
        m0 = verify_membership("u", pair, params, base).min_margin
        m1 = verify_membership("u", pair, params, dense_angles).min_margin
        assert m1 <= m0 + 1e-9
    # Radius refinement through a superset radius list.
    extra = tuple(sorted(set(base.radii) | {0.3, 0.6, 0.9}))
    dense_radii = SampleGrid(radii=extra, angles=64)
    m0 = verify_membership("u", HALF_PAIR, params, base).min_margin
    m1 = verify_membership("u", HALF_PAIR, params, dense_radii).min_margin
    assert m1 <= m0 + 1e-9


def test_verify_membership_is_deterministic():
    a = verify_membership("u", JanowskiPair(0.1, -1.0), BesselParams(-0.5, 2.0, 6.0))
    b = verify_membership("u", JanowskiPair(0.1, -1.0), BesselParams(-0.5, 2.0, 6.0))
    assert a == b


# -------------------------------------------------------------------- radius


def test_property_radius_interior_fixture():
    with mpmath.workdps(40):
        root = mpmath.findroot(lambda t: mpmath.hyp0f1(1, -1.5 * t) - mpmath.mpf(0.45), 0.43)
    assert float(root) == RADIUS_ROOT
    r = property_radius("u", JanowskiPair(0.1, -1.0), BesselParams(-0.5, 2.0, 6.0), tol=1e-4)
    assert RADIUS_ROOT - 1e-4 <= r < RADIUS_ROOT
    again = property_radius("u", JanowskiPair(0.1, -1.0), BesselParams(-0.5, 2.0, 6.0), tol=1e-4)
    assert again == r


def test_property_radius_cap_and_cap_monotonicity():
    params = BesselParams(0.0, 2.0, -1.0)
    assert property_radius("u", HALF_PAIR, params, tol=1e-4) == 0.999
    assert property_radius("u", HALF_PAIR, params, tol=1e-4, max_radius=0.9) == 0.9


def test_property_radius_zero_when_base_circle_fails():
    r = property_radius(
        "convexity", JanowskiPair(1.0, -1.0), BesselParams(0.5, 2.0, 0.0), grid_density=64, tol=1e-3
    )
    assert r == 0.0


PROPERTY_RADIUS_CHILD = """
from janbessel import BesselParams, JanowskiPair, property_radius
print(repr(property_radius("u", JanowskiPair(0.1, -1.0), BesselParams(-0.5, 2.0, 6.0), tol=1e-17)))
"""


def test_property_radius_tol_below_float_spacing_returns():
    # Near r = 0.43 the float spacing is 5.6e-17: once the bracket is one ulp
    # wide, its midpoint rounds to an end and the search must stop, at the
    # root to within an ulp.  Run in a child process so that a hang fails the
    # test instead of stalling it.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-c", PROPERTY_RADIUS_CHILD], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    radius = float(result.stdout)
    assert abs(radius - RADIUS_ROOT) <= math.ulp(RADIUS_ROOT)
    pair, params = JanowskiPair(0.1, -1.0), BesselParams(-0.5, 2.0, 6.0)
    assert property_radius("u", pair, params) == property_radius("u", pair, params, tol=1e-4)
    assert verify_membership("u", pair, params, grid=SampleGrid(radii=(radius,), angles=256)).min_margin > 0.0


def test_property_radius_denser_angles_never_grow_it():
    args = ("u", JanowskiPair(0.1, -1.0), BesselParams(-0.5, 2.0, 6.0))
    r256 = property_radius(*args, grid_density=256, tol=1e-4)
    r512 = property_radius(*args, grid_density=512, tol=1e-4)
    assert r512 <= r256 + 2e-4


def test_property_radius_rejects_non_integer_density():
    args = ("u", JanowskiPair(0.1, -1.0), BesselParams(-0.5, 2.0, 6.0))
    for density in (8.5, 256.25, math.nan, math.inf, "256"):
        with pytest.raises(ValueError):
            property_radius(*args, grid_density=density, tol=1e-2)
    assert property_radius(*args, grid_density=64.0, tol=1e-2) == property_radius(
        *args, grid_density=64, tol=1e-2
    )


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"grid_density": 7}, "need at least 8 angles per circle, got 7"),
        ({"grid_density": 4}, "need at least 8 angles per circle, got 4"),
        ({"tol": 0.0}, r"tol must lie in \(0, 1\), got 0.0"),
        ({"tol": 1.0}, r"tol must lie in \(0, 1\), got 1.0"),
        ({"tol": math.nan}, r"tol must lie in \(0, 1\), got nan"),
        ({"max_radius": 0.01}, r"max_radius must lie in \(0.01, 1\), got 0.01"),
        ({"max_radius": 0.005}, r"max_radius must lie in \(0.01, 1\), got 0.005"),
        ({"max_radius": 1.0}, r"max_radius must lie in \(0.01, 1\), got 1.0"),
    ],
)
def test_property_radius_rejects_out_of_range_arguments(kwargs, message):
    # At these parameters the radius is the cap, found without a search, so
    # each value would return a radius if its check were gone.
    args = ("u", HALF_PAIR, BesselParams(0.0, 2.0, -1.0))
    assert property_radius(*args) == 0.999
    with pytest.raises(ValueError, match=f"^{message}$"):
        property_radius(*args, **kwargs)


def _reference_feasible(selector, pair, params, grid_density, r, max_radius=0.999, rule=True):
    # Feasibility as property_radius defines it.  With the rule, a quotient
    # selector certified zero-free beyond 0.01 is judged below that radius
    # by the real-axis rule; otherwise on every point of the circle.
    cap = min(max_radius, _zero_free(selector, params)) if rule else 0.0
    if cap > 0.01:
        margins, _, hits = _reference_real_axis(selector, pair, params, r)
    else:
        margins, hits = _reference_margins(selector, pair, params, (r,), verify._ring(grid_density))
    return not hits and float(np.min(margins)) > 0.0


def _radius_search(monkeypatch, selector, pair, params, density, tol):
    """property_radius's radius and its kernel calls as (radii, points per circle)."""
    calls = []
    kernel = verify._functional_values

    def counted(selector, rows, cells, radii, units):
        assert len(cells) == 1
        calls.append((radii, len(units.points)))
        return kernel(selector, rows, cells, radii, units)

    with monkeypatch.context() as patch:
        patch.setattr(verify, "_functional_values", counted)
        r = property_radius(selector, pair, params, grid_density=density, tol=tol)
    return r, calls


def _assert_radius_contract(selector, pair, params, density, tol, r, calls):
    # The first call tests 0.01 and the cap, every later one a circle.  By the
    # reference, each radius tested (only 0.01 where r is 0.0) is feasible
    # exactly when it is at most r; 0.0 and the cap take one call, and
    # otherwise an infeasible radius was tested at most tol above r (or one
    # ulp above, where tol is finer).
    cap = min(0.999, _zero_free(selector, params))
    points = 2 if cap > 0.01 else density // 2 + 1
    cap = cap if cap > 0.01 else 0.999
    where = (selector, pair, params, density, tol, r)
    assert calls[0] == ((0.01, cap), points), where
    assert all(len(radii) == 1 and n == points for radii, n in calls[1:]), where
    tested = [t for radii, _ in calls for t in radii] if r > 0.0 else [0.01]
    for t in tested:
        assert _reference_feasible(selector, pair, params, density, t) == (0.0 < t <= r), (where, t)
    if r in (0.0, cap):
        assert len(calls) == 1, where
    else:
        above = min(t for t in tested if t > r)
        assert above - r <= tol or above == np.nextafter(r, 1.0), (where, above)


def test_property_radius_holds_under_the_full_ring_reference(monkeypatch):
    draws = [("u", JanowskiPair(0.1, -1.0), BesselParams(-0.5, 2.0, 6.0))] + _mirror_draws(911, 40)
    moved = []
    for k, (selector, pair, params) in enumerate(draws):
        density = (8, 9, 17, 64, 256)[k % 5]
        r, calls = _radius_search(monkeypatch, selector, pair, params, density, 1e-3)
        _assert_radius_contract(selector, pair, params, density, 1e-3, r, calls)
        with monkeypatch.context() as patch:  # the sampled circles alone
            patch.setattr(verify, "_certified_radius", lambda selector, params: 0.0)
            sampled = property_radius(selector, pair, params, grid_density=density, tol=1e-3)
        if r != sampled:
            moved.append(k)
            # Only where the zero-free cap binds, or on an odd circle (no -r).
            assert _zero_free(selector, params) < 0.999 or density % 2 == 1, (k, r)
    # Draw 4: u has a zero near 0.676, inside the sampled radius 0.999; the
    # radius is 0.118.  Draw 12: 17 angles, 0.0827 sampled against 0.0821.
    assert moved == [4, 12], moved


# Draws whose circle feasibility changes more than once on [0.01, 0.999]
# (kappa <= 0, sampled path).  Their radii lie past an infeasible band, the
# open kappa <= 0 defect, so they are checked against the reference only.
NON_MONOTONE_DRAWS = [
    (
        "starlike-zu",
        JanowskiPair(0.7029081810336331, -0.5489241301636754),
        BesselParams(-1.7292005307614278, 2.0, 8.620888187561114),
    ),
    (
        "convexity",
        JanowskiPair(-0.420292231018758, -0.978782334951477),
        BesselParams(-3.889131833233992, 2.0, -18.68240837517958),
    ),
]


@pytest.mark.parametrize("selector,pair,params", NON_MONOTONE_DRAWS)
@pytest.mark.parametrize("density", [17, 64, 256])
def test_property_radius_where_feasibility_is_not_monotone(monkeypatch, selector, pair, params, density):
    assert _zero_free(selector, params) == 0.0
    radii = tuple(np.linspace(0.01, 0.999, 200))
    margins, hits = _reference_margins(selector, pair, params, radii, verify._ring(density))
    assert not hits
    feasible = margins.reshape(len(radii), -1).min(axis=1) > 0.0
    assert np.count_nonzero(np.diff(feasible)) >= 2
    for tol in (1e-4, 1e-6):
        r, calls = _radius_search(monkeypatch, selector, pair, params, density, tol)
        _assert_radius_contract(selector, pair, params, density, tol, r, calls)


@pytest.mark.parametrize(
    "selector,pair,params,density,tol,count",
    [
        # Searches: sampled circles, then the two-point real-axis table.
        ("u", JanowskiPair(0.1, -1.0), BesselParams(-0.5, 2.0, 6.0), 256, 1e-4, 6),
        ("u", JanowskiPair(0.1, -1.0), BesselParams(-0.5, 2.0, 6.0), 256, 1e-6, 7),
        ("u", JanowskiPair(0.1, -1.0), BesselParams(-0.5, 2.0, 6.0), 256, 1e-17, 11),
        ("u", JanowskiPair(0.1, -1.0), BesselParams(-0.5, 2.0, 6.0), 9, 1e-6, 7),
        (*NON_MONOTONE_DRAWS[0], 64, 1e-6, 9),
        ("starlike-zu", JanowskiPair(0.6, -0.4), BesselParams(-1.3, 2.0, -4.0), 256, 1e-4, 6),
        ("starlike-zu", JanowskiPair(0.6, -0.4), BesselParams(-1.3, 2.0, -4.0), 256, 1e-17, 10),
        ("convexity", JanowskiPair(0.5, -1.0), BesselParams(-0.5, 2.0, 20.0), 256, 1e-6, 7),
        # 0.0 and the cap, on each table.
        ("convexity", JanowskiPair(1.0, -1.0), BesselParams(0.5, 2.0, 0.0), 64, 1e-3, 1),
        ("u", HALF_PAIR, BesselParams(0.0, 2.0, -1.0), 256, 1e-4, 1),
        ("convexity", HALF_PAIR, BesselParams(0.5, 2.0, -1.0), 256, 1e-4, 1),
    ],
)
def test_property_radius_kernel_calls(monkeypatch, selector, pair, params, density, tol, count):
    # Kernel-plus-functional calls: 0.01 and the cap in one, then one circle
    # per call while checks._root narrows the bracket.
    r, calls = _radius_search(monkeypatch, selector, pair, params, density, tol)
    _assert_radius_contract(selector, pair, params, density, tol, r, calls)
    assert len(calls) == count, (r, calls)


def test_property_radius_zero_margin_is_infeasible(monkeypatch):
    # Membership is strict.  On a functional whose least margin is exactly 0
    # from r = 0.5 on, the radius stays below 0.5, although checks._root
    # returns any point where its function is exactly 0.
    def values(selector, rows, cells, radii, table):
        w = np.repeat([0.5 + max(0.5 - r, 0.0) for r in radii], len(table.points))[None, :]
        return w.astype(complex), np.zeros(w.shape, dtype=bool)

    monkeypatch.setattr(verify, "_functional_values", values)
    for tol in (1e-4, 1e-17):
        r = property_radius("u", HALF_PAIR, BesselParams(0.0, 2.0, -1.0), tol=tol)
        assert 0.5 - max(tol, math.ulp(0.5)) <= r < 0.5, tol


def test_property_radius_holds_on_its_disk_despite_interior_zero():
    # u has a zero near z = -0.21940, where 1 + z u'/u has a pole.
    pair = JanowskiPair(0.6, -0.4)
    params = BesselParams(-1.3, 2.0, -4.0)
    r = property_radius("starlike-zu", pair, params)
    if r > 0.0:
        grid = SampleGrid(radii=tuple(r * np.geomspace(0.05, 1.0, 24)), angles=256, max_radius=r)
        report = verify_membership("starlike-zu", pair, params, grid=grid)
        assert report.verdict == "holds-on-grid", (r, report.min_margin, report.witness)


# ---------------------------------------------------------- real-axis rule


def _certified_draws(seed, count, max_radius=0.999):
    """Seeded quotient cells whose denominator is certified zero-free on |z| <= max_radius.

    Both selectors, half-plane (B = -1) and disk pairs, kappa in (0.05, 8)
    (convexity also in (-0.95, 0)), |c| up to 20.
    """
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < count:
        selector = ("convexity", "starlike-zu")[len(draws) % 2]
        B = -1.0 if len(draws) % 3 == 0 else rng.uniform(-1.0, 0.9)
        pair = JanowskiPair(rng.uniform(B + 0.05, 1.0), B)
        low = -0.95 if selector == "convexity" and len(draws) % 4 == 0 else 0.05
        params = BesselParams(rng.uniform(low, 8.0) - 1.5, 2.0, rng.uniform(-20.0, 20.0))
        if max_radius < _zero_free(selector, params):
            draws.append((selector, pair, params))
    return draws


def test_real_axis_margin_is_the_least_over_the_dense_grid():
    # The 24 x 256 grid through _least_margins never lies below the two-point
    # margin by more than rounding: the rule's margin is the disk's least.
    grid = SampleGrid.default()
    table = _PowerTable(verify._ring(grid.angles))
    half_planes = 0
    for selector, pair, params in _certified_draws(61, 40):
        report = verify_membership(selector, pair, params, grid)
        assert report.method == "real-axis" and report.degeneracy_hits == []
        assert report.witness in (0.999, -0.999)
        w, mask = _one_cell_values(selector, params, grid.radii, table)
        (least,), _, _, _ = verify._least_margins(pair, target_region(pair), w[None, :], mask[None, :])
        assert least >= report.min_margin - 1e-12 * max(1.0, abs(report.min_margin)), (
            selector, pair, params, least, report.min_margin,
        )
        half_planes += pair.B == -1.0
    assert 10 <= half_planes <= 30


@pytest.mark.parametrize("n", [8, 64, 256])
def test_real_axis_values_are_the_grid_values_at_angles_zero_and_pi(n):
    grid = SampleGrid(radii=tuple(np.geomspace(0.05, 0.999, 10)), angles=n)
    table = _PowerTable(verify._ring(n))
    axis = verify._sampled_units(2)
    assert np.array_equal(_bits(axis.points), _bits([1.0, -1.0]))
    for selector, pair, params in _certified_draws(62 + n, 12):
        w_axis, _ = _one_cell_values(selector, params, (0.999,), axis)
        w_grid, _ = _one_cell_values(selector, params, grid.radii, table)
        ring = w_grid.reshape(len(grid.radii), n)[-1]
        assert np.array_equal(_bits(w_axis), _bits(ring[[0, n // 2]])), (selector, pair, params)


def test_an_excluded_real_point_is_one_route_per_disk(monkeypatch):
    # A certified cell whose w(-r) (or both w(r) and w(-r)) is excluded, by a
    # zero denominator or, on a disk pair, by the proof-side pole m(1), is a
    # real-axis counterexample at that point: the hits are the excluded
    # points with their labels, min_margin and the witness are the other
    # point's (NaN and None if both are excluded), and no call reads a
    # radius below r.  property_radius reads the same circle as infeasible.
    r = SampleGrid.default().radii[-1]
    kernel = verify._functional_values
    calls, routes = [], {"denominator": 0, "pole": 0, "both": 0}
    for k, (selector, pair, params) in enumerate(_certified_draws(71, 24)):
        margins, points, hits = _reference_real_axis(selector, pair, params, r)
        assert hits == [] and np.isfinite(margins).all(), (selector, pair, params)
        route = ("denominator", "pole", "both")[k // 3 % 3] if pair.B > -1.0 else ("denominator", "both")[k // 3 % 2]
        routes[route] += 1
        columns = [0, 1] if route == "both" else [1]

        def values(selector, rows, cells, radii, table):
            calls.append(len(radii))
            w, mask = kernel(selector, rows, cells, radii, table)
            if len(table.points) == 2 and radii[-1] == r:
                w, mask = w.copy(), mask.copy()
                for j in columns:
                    if route == "pole":
                        w[:, -2 + j] = (1.0 + pair.A) / (1.0 + pair.B)
                    else:
                        w[:, -2 + j], mask[:, -2 + j] = 1.0, True
            return w, mask

        monkeypatch.setattr(verify, "_functional_values", values)
        calls.clear()
        report = verify_membership(selector, pair, params)
        where = (route, selector, pair, params)
        assert report.method == "real-axis" and report.verdict == "counterexample", where
        label = "proof-map-pole" if route == "pole" else DENOMINATOR_LABEL[selector]
        assert report.degeneracy_hits == [(complex(points[j]), label) for j in columns], where
        if route == "both":
            assert math.isnan(report.min_margin) and report.witness is None, where
        else:
            assert repr(report.min_margin) == repr(float(margins[0])) and report.witness == r, where
        assert calls == [1], where
        assert property_radius(selector, pair, params) < r, where
        monkeypatch.setattr(verify, "_functional_values", kernel)
    assert min(routes.values()) >= 5, routes


def _mp_margin(selector, pair, kappa, c, z):
    """The margin of w(z) for the pair, with u from mpmath hyp0f1 (D, D' as multiples of 0F1)."""
    k = mpmath.mpf(kappa) + DENOMINATOR_SHIFT[selector]
    x = -mpmath.mpf(c) / 4
    w = 1 + z * x / k * mpmath.hyp0f1(k + 1, x * z) / mpmath.hyp0f1(k, x * z)
    if pair.B == -1.0:
        return w - (1 - mpmath.mpf(pair.A)) / 2
    region = target_region(pair)
    return mpmath.mpf(region.radius) - abs(w - mpmath.mpf(region.center))


@pytest.mark.parametrize(
    "selector,pair,params,side",
    [
        # The defect tuple: u has a zero near -0.2194, and w(-r) leaves the disk region.
        ("starlike-zu", JanowskiPair(0.6, -0.4), BesselParams(-1.3, 2.0, -4.0), -1),
        # kappa 1, c 20: u' has a zero near 0.734, and w(r) leaves the half-plane.
        ("convexity", JanowskiPair(0.5, -1.0), BesselParams(-0.5, 2.0, 20.0), 1),
    ],
)
def test_property_radius_is_the_first_root_of_the_real_axis_margins(selector, pair, params, side):
    tol = 1e-4
    r = property_radius(selector, pair, params, tol=tol)
    assert 0.01 < r < verify._certified_radius(selector, params)
    with mpmath.workdps(30):
        kappa, c = params.kappa, params.c
        root = mpmath.findroot(lambda t: _mp_margin(selector, pair, kappa, c, side * t), r)
        # Both margins are positive below the root, so it is the first.
        below = mpmath.linspace(0.01, root, 200)[:-1]
        for t in below:
            assert _mp_margin(selector, pair, kappa, c, t) > 0
            assert _mp_margin(selector, pair, kappa, c, -t) > 0
    assert abs(r - float(root)) <= tol, (r, root)


# -------------------------------------------------------------- admissibility


def test_admissibility_scan_satisfied_tuple():
    # B = -1, kappa = 2, c = -1: at mu = -sigma, Re Psi = sigma - Re((1 + i rho) z) / 4,
    # whose sup over z is sigma + sqrt(1 + rho^2) / 4 <= -(1 + rho^2)/2 + sqrt(1 + rho^2) / 4:
    # largest at rho = 0, sigma = -1/2 and z -> -1, where it tends to -1/2 + 1/4.
    mx, arg = admissibility_scan("subordination", HALF_PAIR, 2.0, -1.0)
    assert abs(mx - (-0.25)) < 1e-15
    assert mx < 0.0
    assert arg.rho == 0.0 and arg.sigma == -0.5 and arg.mu == 0.5
    assert abs(arg.z.real - (-1.0)) < 1e-12 and abs(arg.z.imag) < 1e-12


def test_admissibility_scan_large_kappa():
    mx, _ = admissibility_scan("subordination", HALF_PAIR, 50.0, -1.0)
    assert mx < -20.0
    assert abs(mx - (-24.25)) < 1e-12


def test_admissibility_reference_probe_is_on_grid():
    # (rho=0, sigma=-1/2, mu=0, z=0) is admissible, and its Psi value is
    # exactly -1; the supremum can therefore never sit below -1.
    probe = AdmissibilityProbe(rho=0.0, sigma=-0.5, mu=0.0, nu=0.0, z=0j)
    assert eval_psi("subordination", HALF_PAIR, 2.0, -1.0, probe) == (-1 + 0j)
    mx, _ = admissibility_scan("subordination", HALF_PAIR, 2.0, -1.0)
    assert mx >= -1.0


def test_admissibility_scan_convexity_form():
    mx, arg = admissibility_scan("convexity", JanowskiPair(1.0, -1.0), 3.0, 0.0)
    assert mx == -2.5
    assert arg.rho == 0.0 and arg.sigma == -0.5 and arg.mu == 0.0 and arg.z == 0j


def test_admissibility_scan_maximum_is_eval_psi_at_its_probe():
    # A finite maximum is Re Psi at its probe, to the bit; an unbounded one
    # comes with a finite probe at which Re Psi is positive.
    rng = np.random.default_rng(103)
    unbounded = 0
    for _ in range(40):
        B = rng.uniform(-1.0, 0.8)
        pair = JanowskiPair(rng.uniform(B + 0.05, 1.0), B)
        kappa = rng.uniform(0.2, 6.0)
        c = rng.uniform(-4.0, 4.0)
        for which in ("subordination", "convexity"):
            mx, probe = admissibility_scan(which, pair, kappa, c)
            at_probe = eval_psi(which, pair, kappa, c, probe).real
            if mx == math.inf:
                unbounded += 1
                assert at_probe > 0.0, (which, pair, kappa, c)
            else:
                assert _same_bits(mx, at_probe), (which, pair, kappa, c)
    assert 0 < unbounded < 80


def _mirror_exact_rhos(rho_max):
    # The reference grid's 201 rows: rho_max k / 100 for k = 0..100 and their exact negations.
    half = rho_max * np.arange(101) / 100.0
    return np.concatenate([-half[:0:-1], half])


# The reference grid's 65 z samples: the origin, then radii 0.25/0.5/0.75/0.95
# with 16 angles each (radius-major).
REFERENCE_Z = np.concatenate(
    [np.zeros(1, dtype=complex), SampleGrid(radii=(0.25, 0.5, 0.75, 0.95), angles=16).points()]
)


def _reference_admissibility_scan(which, pair, kappa, c, rho_max=8.0, sigma_depth=4):
    # The full-grid loop: every (sigma, mu) slice over every (rho, z) pair of
    # the 201-row grid, strict ">" across slices, first flat argmax within one.
    # Returns the maximum, its first probe over all rows and its first probe
    # over the rows with rho >= 0.
    rhos = _mirror_exact_rhos(rho_max)
    zs = REFERENCE_Z
    R = 1j * rhos[:, None]
    Z = zs[None, :]
    s_factors = [1.0 + 0.5 * i for i in range(sigma_depth)]
    m_factors = [0.0, 0.5, 1.0] if which == "subordination" else [0.0]
    # Keyed by the first row searched: row 0 is rho = -rho_max, row 100 rho = 0.
    best = {0: -math.inf, 100: -math.inf}
    probes = {}
    for s_fac in s_factors:
        sigma = -s_fac * (1.0 + rhos**2) / 2.0
        S = sigma[:, None]
        for m_fac in m_factors:
            re = np.real(_psi_formula(which, pair.A, pair.B, kappa, c, R, S, (-m_fac) * S, Z))
            for first_row in best:
                flat = int(np.argmax(re[first_row:]))
                value = float(re[first_row:].flat[flat])
                if value > best[first_row]:
                    i, j = divmod(flat, re.shape[1])
                    i += first_row
                    best[first_row] = value
                    probes[first_row] = AdmissibilityProbe(
                        rho=float(rhos[i]),
                        sigma=float(sigma[i]),
                        mu=float(-m_fac * sigma[i]),
                        nu=0.0,
                        z=complex(zs[j]),
                    )
    assert _same_bits(best[0], best[100])
    return best[0], probes[0], probes[100]


def _same_bits(x, y):
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


@pytest.mark.parametrize("B", [-1.0, 0.999999, 0.3])
@pytest.mark.parametrize("c", [0.0, 200.0, -200.0])
def test_admissibility_psi_is_mirror_exact(B, c):
    # admissibility_scan works with t = rho^2 and returns rho >= 0.  That is
    # exact because Re Psi at (-rho, conj z) is bit-equal to Re Psi at
    # (rho, z): on the reference grid, origin included, signed zeros
    # included, and through eval_psi at the scan's own probe.
    Z = REFERENCE_Z
    twin = np.array([np.flatnonzero(Z == z.conjugate()) for z in Z]).ravel()
    assert twin[0] == 0 and np.array_equal(twin[twin], np.arange(Z.size))
    zs = Z[None, :]
    A = 1.0 if B == 0.999999 else 0.7
    pair = JanowskiPair(A, B)
    for kappa, rho_max in ((-2.5, 8.0), (-0.5, 7.3), (3.0, math.pi)):
        rhos = _mirror_exact_rhos(rho_max)[:, None]
        R = 1j * rhos
        assert np.array_equal(rhos[::-1], -rhos) and rhos[100] == 0.0

        def assert_mirror(values):
            assert np.array_equal(values[::-1][:, twin].view(np.uint64), values.view(np.uint64)), (
                B, c, kappa, rho_max,
            )

        for s_fac in (1.0, 2.5):
            S = -s_fac * (1.0 + rhos**2) / 2.0
            for m_fac in (0.0, 0.5, 1.0):
                T = (-m_fac) * S
                assert_mirror(np.real(_psi_formula("subordination", A, B, kappa, c, R, S, T, zs)))
            assert_mirror(np.real(_psi_formula("convexity", A, B, kappa, c, R, S, 0.0, zs)))
        for which in ("subordination", "convexity"):
            _, probe = admissibility_scan(which, pair, kappa, c)
            mirror = dataclasses.replace(probe, rho=-probe.rho, z=probe.z.conjugate())
            at_probe = eval_psi(which, pair, kappa, c, probe).real
            assert _same_bits(eval_psi(which, pair, kappa, c, mirror).real, at_probe), (which, kappa)


def test_admissibility_real_forms_equal_complex_forms():
    # The supremum rests on Re Psi in real form, at mu = -sigma and t = rho^2:
    #   subordination: -h d0 sigma^2 / D + (kappa - 1) sigma + Re(q z) / w,
    #     D = d0^2 + d1^2 t, q = (d0 + d1 r)(e0 + e1 r) c;
    #   convexity: sigma - a1 t + a3 + x (b3 - b1 t) - y b2 rho, with
    #     F_j = a_j + b_j z, z = x + i y, and b2^2 = 4 b1 b3, which makes the
    #     z-part a square.
    # Both must equal the real part of the complex formula to rounding.
    rng = np.random.default_rng(227)
    Z = REFERENCE_Z[None, :]
    for k in range(60):
        B = (-1.0, rng.uniform(-1.0, 0.95))[k % 2]
        A = rng.uniform(B + 0.01, 1.0)
        kappa = rng.uniform(-3.0, 60.0)
        c = (0.0, rng.uniform(-150.0, 150.0), rng.uniform(-4.0, 4.0))[k % 3]
        rhos = rng.uniform(0.0, 30.0, 50)[:, None]
        t = rhos * rhos
        S = -rng.uniform(1.0, 3.0, 50)[:, None] * (1.0 + t) / 2.0
        scale = 1e-13 * (1.0 + abs(kappa) + abs(c)) * (1.0 + t) ** 2
        d0, d1, e0, e1, h, w = _subordination_coefficients(A, B)
        q = (d0 + d1 * 1j * rhos) * (e0 + e1 * 1j * rhos) * c
        sub = np.real(_psi_formula("subordination", A, B, kappa, c, 1j * rhos, S, -S, Z))
        real_sub = -h * d0 * S * S / (d0 * d0 + d1 * d1 * t) + (kappa - 1.0) * S + np.real(q * Z) / w
        assert np.all(np.abs(sub - real_sub) <= scale), (A, B, kappa, c)
        f1, f2, f3 = _convexity_coefficients(A, B, kappa, c, 1j)
        (a1, b1), (b2,), (a3, b3) = (f1.real, f1.imag), (f2.imag,), (f3.real, f3.imag)
        assert abs(b2 * b2 - 4.0 * b1 * b3) <= 1e-14 * b2 * b2
        conv = np.real(_psi_formula("convexity", A, B, kappa, c, 1j * rhos, S, 0.0, Z))
        real_conv = S - a1 * t + a3 + Z.real * (b3 - b1 * t) - Z.imag * b2 * rhos
        assert np.all(np.abs(conv - real_conv) <= scale), (A, B, kappa, c)


def test_admissibility_scan_dominates_the_full_grid_reference():
    # Every point of the reference grid is admissible, so the supremum is at
    # least the grid maximum, less the few ulps of scale its probe loses to
    # rounding and to pulling z inside the circle.  The deep sigma grids
    # change nothing: deeper slices never beat the supremum either.
    rng = np.random.default_rng(211)
    cases = [
        (JanowskiPair(0.0, -1.0), 2.0, -1.0),
        (JanowskiPair(0.0, -1.0), 1.0, -1.0),
        (JanowskiPair(0.0, -1.0), 0.5, -1.0),
        (JanowskiPair(1.0, 0.999999), 60.0, 200.0),
    ]
    for k in range(24):
        B = (-1.0, 0.999999, rng.uniform(-1.0, 0.9))[k % 3]
        A = 1.0 if B == 0.999999 else rng.uniform(B + 0.01, 1.0)
        kappa = rng.uniform(0.0, 60.0)
        c = (0.0, rng.uniform(-200.0, 200.0), rng.uniform(-4.0, 4.0), -200.0)[k % 4]
        cases.append((JanowskiPair(A, B), kappa, c))
    depths = ({}, {"rho_max": 3.0, "sigma_depth": 2}, {"sigma_depth": 5})
    deep = ({"sigma_depth": 22}, {"rho_max": 3.0, "sigma_depth": 65})
    finite = 0
    for n, (pair, kappa, c) in enumerate(cases):
        for which in ("subordination", "convexity"):
            mx, _ = admissibility_scan(which, pair, kappa, c)
            finite += math.isfinite(mx)
            for kwargs in depths + (deep if n < 8 else ()):
                ref_mx, _, _ = _reference_admissibility_scan(which, pair, kappa, c, **kwargs)
                scale = max(1.0, abs(ref_mx), abs(kappa), abs(c))
                assert mx >= ref_mx - 8.0 * math.ulp(scale), (which, pair, kappa, c, kwargs, mx, ref_mx)
    assert finite >= 20


def _mp_sup_over_z(which, pair, kappa, c, rho, sigma):
    # 40-digit sup of Re Psi over |z| < 1 at mu = -sigma (subordination) or 0
    # (convexity): Psi = P0 + P1 z is affine in z, so the sup is Re P0 + |P1|,
    # approached as z nears the unit circle.
    A, B, kappa, c = (mpmath.mpf(x) for x in (pair.A, pair.B, kappa, c))
    r, mu = mpmath.mpc(0, rho), (-sigma if which == "subordination" else 0)
    p0, p1 = (_psi_formula(which, A, B, kappa, c, r, sigma, mu, z) for z in (0, 1))
    return mpmath.re(p0) + abs(p1 - p0)


def test_admissibility_supremum_against_mpmath():
    # On seeded bounded cells no admissible point, evaluated in 40 digits,
    # lies above the returned maximum by more than 1e-12 max(1, |max|).  rho
    # runs around and beyond the probe's rho*, sigma over both branches of
    # the subordination form (the bound -(1+t)/2 and the vertex, where
    # admissible) and deeper, and z near the unit circle.
    rng = np.random.default_rng(331)
    cells = []
    while len(cells) < 16:
        which = ("subordination", "convexity")[len(cells) % 2]
        # The third family (B near -1, kappa < 1) has a vertex sigma below the bound.
        B, kappa = ((-1.0, rng.uniform(-2.0, 12.0)), (rng.uniform(-1.0, 0.95), rng.uniform(-2.0, 12.0)),
                    (rng.uniform(-1.0, -0.7), rng.uniform(-2.0, 1.0)))[len(cells) % 3]
        A = rng.uniform(B + 0.01, 1.0)
        c = rng.uniform(-8.0, 8.0)
        mx, probe = admissibility_scan(which, JanowskiPair(A, B), kappa, c)
        if math.isfinite(mx) and (which == "convexity" or probe.rho > 0.0 or len(cells) % 4 == 2):
            cells.append((which, JanowskiPair(A, B), kappa, c, mx, probe.rho))
    assert sum(rho > 0.0 for *_, rho in cells) >= 4
    vertices = 0
    with mpmath.workdps(40):
        for which, pair, kappa, c, mx, rho_star in cells:
            rhos = {0.0, 10.0 * rho_star + 10.0, 1e3, 1e6}
            for d in (-0.5, -0.1, -1e-4, -1e-8, 1e-8, 1e-4, 0.1, 0.5, 1.0, 3.0):
                rhos.update({rho_star * (1.0 + d), max(0.0, rho_star + d)})
            best = -mpmath.inf
            for rho in map(mpmath.mpf, rhos):
                t = rho * rho
                bound = -(1 + t) / 2
                sigmas = [bound, bound * (1 + mpmath.mpf(1e-8)), 1.5 * bound]
                if which == "subordination" and pair.B > -1.0:
                    d0, d1 = 1 - mpmath.mpf(pair.B), 1 + mpmath.mpf(pair.B)
                    vertex = (kappa - 1) * (d0 * d0 + d1 * d1 * t) / (4 * d0 * d1)
                    below = [s for s in (vertex, vertex * (1 + mpmath.mpf(1e-6))) if s <= bound]
                    vertices += len(below)
                    sigmas += below
                for sigma in sigmas:
                    best = max(best, _mp_sup_over_z(which, pair, kappa, c, rho, sigma))
            assert best - mx <= 1e-12 * max(1.0, abs(mx)), (which, pair, kappa, c, mx, float(best))
    assert vertices > 0


@pytest.mark.parametrize(
    "which, pair, kappa, c",
    [
        ("subordination", HALF_PAIR, 0.5, -1.0),  # B = -1, kappa < 1: unbounded in sigma
        ("subordination", HALF_PAIR, 1.0, -1.0),  # B = -1, kappa = 1: grows like rho
        ("subordination", JanowskiPair(0.9, 0.5), 1.0, 8.0),  # positive slope in t
        ("convexity", JanowskiPair(0.9, 0.5), 1.0, 8.0),  # positive slope in t
    ],
)
def test_admissibility_unbounded_cells(which, pair, kappa, c):
    mx, probe = admissibility_scan(which, pair, kappa, c)
    assert mx == math.inf
    assert eval_psi(which, pair, kappa, c, probe).real > 0.0
    # Re Psi keeps growing along the unbounded direction.
    values = []
    for scale in (1.0, 1e3, 1e6):
        if pair.B == -1.0 and kappa < 1.0:
            sigma, rho = scale * probe.sigma, probe.rho
        else:
            rho = scale * max(probe.rho, 1.0)
            sigma = -(1.0 + rho * rho) / 2.0
        mu = -sigma if which == "subordination" else 0.0
        at = AdmissibilityProbe(rho, sigma, mu, 0.0, 0j)
        values.append(max(eval_psi(which, pair, kappa, c, dataclasses.replace(at, z=z)).real
                          for z in 0.999 * np.exp(2j * np.pi * np.arange(64) / 64)))
    assert values[0] < values[1] < values[2] and values[2] > 1e3


def test_admissibility_convexity_discrepancy_cell():
    # A cell where the product form of the convexity condition held, yet Re Psi
    # is positive at the returned probe: the supremum 0.0974 sits at rho = 0,
    # and the grid of the reference scan already read 0.0496.  The conservative
    # checker records the lemma's factor slack Y - y = -2 sup and rejects it.
    pair, kappa, c = JanowskiPair(0.7081027212070302, -0.7882805508179479), 1.2386056314269736, -3.5812843519437134
    out = check_convexity_theorem(pair, kappa, c)
    assert not out.satisfied and dict(out.slacks)["factor-positivity"] < 0.0
    mx, probe = admissibility_scan("convexity", pair, kappa, c)
    assert abs(mx - 0.0974077731785743) < 1e-12
    assert abs(mx + dict(out.slacks)["factor-positivity"] / 2.0) < 1e-12
    assert probe.rho == 0.0 and eval_psi("convexity", pair, kappa, c, probe).real > 0.0
    grid_mx, _, _ = _reference_admissibility_scan("convexity", pair, kappa, c)
    assert abs(grid_mx - 0.0496) < 1e-4 and 0.0 < grid_mx < mx


SOUNDNESS_GRID = SampleGrid(radii=tuple(np.linspace(0.1, 0.999, 12)), angles=96)


def _draw_cell(rng):
    """A seeded (pair, kappa, c): A - B log-uniform down to 1e-3, which takes in
    close pairs with A and B both negative, kappa in (-0.9, 12), |c| <= 30."""
    B = rng.uniform(-1.0, 0.999)
    A = min(1.0, B + 10.0 ** rng.uniform(-3.0, math.log10(1.0 - B)))
    return JanowskiPair(A, B), rng.uniform(-0.9, 12.0), rng.uniform(-30.0, 30.0)


def test_quotient_checkers_are_the_admissibility_lemma():
    # Conservative convexity holds exactly where the convexity supremum is
    # negative, and starlike exactly where it is at kappa - 1, on every pair:
    # the lemma has no -1 <= B <= 0 < A gate.  The satisfied cells outside
    # that gate hold under sampling too.
    rng = np.random.default_rng(2027)
    out_of_gate = []
    for _ in range(8000):
        pair, kappa, c = _draw_cell(rng)
        star = check_theorem("starlike", pair, kappa, c)
        assert star.satisfied == (admissibility_scan("convexity", pair, kappa - 1.0, c)[0] < 0.0)
        conv = check_convexity_theorem(pair, kappa, c)
        assert conv.satisfied == (admissibility_scan("convexity", pair, kappa, c)[0] < 0.0)
        if conv.satisfied and not pair.B <= 0.0 < pair.A:
            out_of_gate.append((pair, kappa, c))
    assert len(out_of_gate) == 328
    for pair, kappa, c in out_of_gate:
        report = verify_membership("convexity", pair, verify._params_for_kappa(kappa, c))
        assert report.verdict != "counterexample", (pair, kappa, c, report)


def test_out_of_gate_convexity_cells_hold_where_satisfied(monkeypatch):
    # A seeded pair with 0 < B, outside the paper's -1 <= B <= 0 < A: as
    # printed every cell is out of regime; conservative cells come from the
    # column pass alone (no c = 0 cell, so no scalar fallback), some are
    # satisfied, and sampling contradicts none.  So do the two cells of
    # test_checks.py::test_convexity_out_of_regime, on the real axis, which
    # is exact for them.
    rng = np.random.default_rng(2028)
    B = rng.uniform(0.0, 0.8)
    pair = JanowskiPair(rng.uniform(B + 0.1, 1.0), B)
    kappa_range, c_range = (0.05, 8.05, 17), (-12.0, 12.0, 12)
    printed = region_scan("convexity", pair, kappa_range, c_range, mode="as-printed")
    assert {row.checker.branch for row in printed} == {"out-of-regime"}

    def scalar(*args):
        raise AssertionError(f"scalar checker called for {args}")

    monkeypatch.setattr(verify, "check_theorem", scalar)
    rows = region_scan("convexity", pair, kappa_range, c_range)
    assert sum(row.checker.satisfied for row in rows) > 0
    assert scan_conflicts(rows) == []
    for row in rows:
        assert row.checker == check_convexity_theorem(pair, row.kappa, row.c)
    for pair, margin in ((JanowskiPair(0.5, 0.2), 0.2086), (JanowskiPair(-0.1, -0.5), 0.2248)):
        assert check_convexity_theorem(pair, 5.0, 1.0).satisfied
        report = verify_membership("convexity", pair, verify._params_for_kappa(5.0, 1.0))
        assert report.verdict == "holds-on-grid" and report.method == "real-axis"
        assert abs(report.min_margin - margin) < 1e-4


def _mp_selector_margin(selector, pair, kappa, c, z):
    """The selector's margin at z for the pair, with u from mpmath hyp0f1 at 40 digits.

    With x = -c / 4, u' is x / kappa 0F1(; kappa + 1; x z), so (-4 kappa / c) u'
    is 0F1(; kappa + 1; x z), and 1 + z D'/D with D = 0F1(; k; x z) is
    1 + z x / k 0F1(; k + 1; x z) / D: k = kappa + 1 for convexity.
    """
    with mpmath.workdps(40):
        A, B, k, x = mpmath.mpf(pair.A), mpmath.mpf(pair.B), mpmath.mpf(kappa), -mpmath.mpf(c) / 4
        z = mpmath.mpc(z.real, z.imag)
        k += selector in ("deriv-normalized", "convexity")
        w = mpmath.hyp0f1(k, x * z)
        if selector in ("convexity", "starlike-zu"):
            w = 1 + z * x / k * mpmath.hyp0f1(k + 1, x * z) / w
        if pair.B == -1.0:
            return float(mpmath.re(w) - (1 - A) / 2)
        return float((A - B) / (1 - B * B) - abs(w - (1 - A * B) / (1 - B * B)))


@pytest.mark.parametrize(
    "selector, pair, kappa, c, margin, witness",
    [
        ("convexity", JanowskiPair(0.1652216197650302, -0.9978360442676735),
         9.903497815876946, 29.35779006396718, -0.1328, 0.999),
        # A and B negative and close together.
        ("starlike-zu", JanowskiPair(-0.7050613009284448, -0.7446264148020816),
         2.117086198141246, -0.21223515150377992, -0.00256, -0.999),
        # X = 3.16 much larger than x = 0.09, Y = 18.34 below y = 20.39.
        ("convexity", JanowskiPair(0.0625, -0.875), 9.75, 21.75, -0.0289, 0.999),
    ],
)
def test_quotient_checkers_reject_certified_counterexamples(selector, pair, kappa, c, margin, witness):
    # The paper's product inequality (as-printed) holds on each cell; the
    # lemma's factor slack fails, and the real axis gives the exact margin.
    theorem = checks.PROPERTIES[selector][0]
    out = check_theorem(theorem, pair, kappa, c)
    assert not out.satisfied
    assert dict(out.slacks)["coefficient-positivity"] > 0.0 > dict(out.slacks)["factor-positivity"]
    assert check_theorem(theorem, pair, kappa, c, mode="as-printed").satisfied
    report = verify_membership(selector, pair, verify._params_for_kappa(kappa, c))
    assert report.verdict == "counterexample" and report.method == "real-axis"
    assert report.witness == witness and abs(report.min_margin - margin) < 1e-4
    assert abs(report.min_margin - _mp_selector_margin(selector, pair, kappa, c, report.witness)) < 1e-13


def test_default_mode_theorems_are_sound_on_seeded_draws():
    # Every cell a default-mode theorem accepts must hold on the sampled disk.
    rng = np.random.default_rng(2026)
    verified = dict.fromkeys(SELECTORS, 0)
    for _ in range(40000):
        pair, kappa, c = _draw_cell(rng)
        for selector, (theorem, *_) in checks.PROPERTIES.items():
            if check_theorem(theorem, pair, kappa, c).satisfied:
                report = verify_membership(selector, pair, verify._params_for_kappa(kappa, c), SOUNDNESS_GRID)
                assert report.verdict == "holds-on-grid", (selector, pair, kappa, c, report.min_margin)
                verified[selector] += 1
    assert min(verified.values()) > 1000


def test_corollaries_are_sound_on_seeded_draws():
    # Every satisfied corollary with an implied pair must hold on the sampled
    # disk for its selector.  re-half is literal by design
    # (test_corollary_conclusion_fails_at_strongly_negative_c): it is checked
    # too, and its misses must all lie on its c <= 0 branch.
    rng = np.random.default_rng(2026)
    verified, misses = {}, {}
    for i in range(5000):
        c = rng.uniform(-30.0, 30.0)
        kappa = rng.uniform(-0.9, 12.0 if i % 2 else 500.0)  # cc-order needs kappa >= c (c+1) / 2
        params = verify._params_for_kappa(kappa, c)
        for selector, (_, corollaries, *_) in checks.PROPERTIES.items():
            for which in corollaries:
                out = check_corollary(which, kappa, c)
                if out.satisfied and out.implied_pair is not None:
                    verified[which] = verified.get(which, 0) + 1
                    report = verify_membership(selector, out.implied_pair, params, SOUNDNESS_GRID)
                    if report.verdict != "holds-on-grid":
                        misses.setdefault(which, []).append((kappa, c, out.branch))
    assert set(misses) <= {"re-half"}, {k: v[:3] for k, v in misses.items()}
    assert {branch for _, _, branch in misses.get("re-half", [])} <= {"c<=0"}
    assert sorted(verified) == sorted(checks.COROLLARY_IDS) and min(verified.values()) > 500


# |c| is log-uniform over this exponent range on part of the steered draws.
STEERED_LOG_C = (math.log10(5e-324), math.log10(30.0))


@st.composite
def _steered_cells(draw, kappa_hi):
    """A (pair, kappa, c) over _draw_cell's domain, kappa up to kappa_hi; on part
    of the draws |c| is log-uniform from 5e-324 to 30 instead of uniform."""
    B = draw(st.floats(-1.0, 0.999, exclude_max=True))
    A = min(1.0, B + 10.0 ** (-3.0 + draw(st.floats(0.0, 1.0)) * (math.log10(1.0 - B) + 3.0)))
    kappa = draw(st.floats(-0.9, kappa_hi))
    if draw(st.booleans()):
        c = draw(st.floats(-30.0, 30.0))
    else:
        c = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(*STEERED_LOG_C))
    return JanowskiPair(A, B), kappa, c


# Every default-mode theorem and every corollary, with the selector it claims.
STEERED_CHECKS = [(selector, theorem, None) for selector, (theorem, *_) in checks.PROPERTIES.items()] + [
    (selector, None, which) for selector, (_, corollaries, *_) in checks.PROPERTIES.items() for which in corollaries
]


@contextlib.contextmanager
def _own_draws_only():
    """Hypothesis draws from its fixed constant pool only, inside the block.

    It otherwise mixes the literals of every loaded local non-test module into
    its draws (providers._get_local_constants), so a derandomized search would
    draw different cells alone, in the whole suite, and after any literal in
    the package changes.  The cache of permitted constants is cleared on entry
    and on exit, so the tests outside the block keep their usual pool.
    """
    with mock.patch.object(providers, "_get_local_constants", providers.Constants):
        providers.CONSTANTS_CACHE.cache.clear()
        try:
            yield
        finally:
            providers.CONSTANTS_CACHE.cache.clear()


def _steered_search(selector, theorem, corollary, examples):
    """A hypothesis search for counterexamples to one check, steered by target(-min_margin).

    Each satisfied draw (for a corollary, one with an implied pair, kappa
    up to 500 as in test_corollaries_are_sound_on_seeded_draws) is verified
    on SOUNDNESS_GRID.  A counterexample is certified when it is a
    real-axis report, which is exact, or when mpmath re-evaluates its sampled
    witness as negative.  Returns (verified, certified, unconfirmed): the
    count of verified draws and the counterexamples of each kind, as
    (pair, kappa, c, branch, min_margin).  derandomize and _own_draws_only
    fix the cells searched: the same for this file alone and the whole suite.
    """
    verified, certified, unconfirmed = [0], [], []

    @settings(max_examples=examples, derandomize=True, database=None, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(_steered_cells(12.0 if theorem else 500.0))  # cc-order needs kappa >= c (c+1) / 2
    def search(cell):
        pair, kappa, c = cell
        try:
            params = verify._params_for_kappa(kappa, c)
            out = check_theorem(theorem, pair, kappa, c) if theorem else check_corollary(corollary, kappa, c)
        except (InvalidKappa, ZeroC):
            return
        pair = pair if theorem else out.implied_pair
        if not out.satisfied or pair is None:
            return
        report = verify_membership(selector, pair, params, SOUNDNESS_GRID)
        margin = report.min_margin
        target(min(max(-margin, -1e3), 1e3) if margin == margin else 1e3)
        verified[0] += 1
        if report.verdict == "counterexample":
            found = (pair, kappa, c, out.branch, margin)
            if report.method == "real-axis" or (
                report.witness is not None and _mp_selector_margin(selector, pair, kappa, c, report.witness) < 0.0
            ):
                certified.append(found)
            else:
                unconfirmed.append(found)

    with _own_draws_only():
        search()
    return verified[0], certified, unconfirmed


def _assert_steered_search_sound(selector, theorem, corollary, examples):
    verified, certified, unconfirmed = _steered_search(selector, theorem, corollary, examples)
    # A counterexample that mpmath does not confirm is a false one of verify's.
    assert unconfirmed == [], unconfirmed[:3]
    if corollary == "re-half":  # literal by design: misses only on its c <= 0 branch, a figure
        assert {branch for *_, branch, _ in certified} <= {"c<=0"}
    else:
        assert certified == [], certified[:3]
    assert verified >= examples // 10


@pytest.mark.parametrize("selector, theorem, corollary", STEERED_CHECKS)
def test_steered_search_finds_no_counterexample(selector, theorem, corollary):
    _assert_steered_search_sound(selector, theorem, corollary, 100)


@pytest.mark.slow
@pytest.mark.parametrize("selector, theorem, corollary", STEERED_CHECKS)
def test_long_steered_search_finds_no_counterexample(selector, theorem, corollary):
    _assert_steered_search_sound(selector, theorem, corollary, 1500)


def test_starlike_at_c_zero_is_the_exact_margin():
    # z u = z at c = 0, so the functional is 1: the checker's one slack is the
    # exact margin of 1 in the pair's region, in both modes.
    rng = np.random.default_rng(2028)
    for _ in range(300):
        B = rng.uniform(-1.0, 0.8)
        A = rng.uniform(B + 0.05, 1.0)
        pair, kappa = JanowskiPair(A, B), rng.uniform(-0.9, 12.0)
        outs = [check_theorem("starlike", pair, kappa, 0.0, mode=mode) for mode in checks.MODES]
        assert outs[0] == outs[1] and outs[0].satisfied
        (label, slack), = outs[0].slacks
        report = verify_membership("starlike-zu", pair, verify._params_for_kappa(kappa, 0.0))
        assert label == "identity-margin" and report.verdict == "holds-on-grid"
        assert abs(slack - report.min_margin) <= 1e-12 * report.min_margin
    # On close pairs near B = -1 the sampled margin, radius - |1 - center|,
    # loses digits to cancellation (the radius grows as 1 / (1 - B^2)), so
    # there the slack is compared with the exact rational margin instead.
    for _ in range(2000):
        pair, _, _ = _draw_cell(rng)
        (_, slack), = check_starlike_theorem(pair, 1.0, 0.0).slacks
        exact = (Fraction(pair.A) - Fraction(pair.B)) / (1 + abs(Fraction(pair.B)))
        assert abs(Fraction(slack) - exact) <= 2.0**-51 * exact


def test_admissibility_scan_validation():
    with pytest.raises(ValueError):
        admissibility_scan("psi", HALF_PAIR, 2.0, -1.0)


@pytest.mark.parametrize("which", ["subordination", "convexity"])
@pytest.mark.parametrize("kappa, c", [(math.inf, -1.0), (2.0, math.nan)])
def test_admissibility_scan_rejects_non_finite(which, kappa, c):
    with pytest.raises(ValueError):
        admissibility_scan(which, HALF_PAIR, kappa, c)


@pytest.mark.parametrize("which", ["subordination", "convexity"])
@pytest.mark.parametrize("c", [1e-310, -1e-310, 5e-324, -5e-324, 2.0**-1022])
@pytest.mark.parametrize("pair", [JanowskiPair(1.0, 0.5), JanowskiPair(0.5, -0.5)])
def test_admissibility_scan_at_subnormal_c(which, c, pair):
    # The z direction is subnormal there; normalising it unscaled gave |z| > 1.
    value, probe = admissibility_scan(which, pair, 2.0, c)
    assert abs(probe.z) < 1.0
    assert value == eval_psi(which, pair, 2.0, c, probe).real
    # The z part is below one ulp there: the supremum is c = 0's, up to where t lands.
    assert abs(value - admissibility_scan(which, pair, 2.0, 0.0)[0]) <= 2.0**-52 * abs(value)


def test_satisfied_tuples_are_admissible():
    # The proof route behind the membership checker: whenever the closed-form
    # condition holds, the Psi functional must stay strictly negative.
    rng = np.random.default_rng(97)
    found = 0
    while found < 20:
        B = rng.uniform(-1.0, 0.8)
        A = rng.uniform(B + 0.05, 1.0)
        pair = JanowskiPair(A, B)
        kappa = rng.uniform(1.0, 8.0)
        c = rng.uniform(-3.0, 3.0)
        if not check_subordination_theorem(pair, kappa, c).satisfied:
            continue
        found += 1
        mx, _ = admissibility_scan("subordination", pair, kappa, c)
        assert mx < 0.0, (A, B, kappa, c, mx)


# --------------------------------------------------------------------- scans


def test_region_scan_cardinality_and_row_order():
    rows = region_scan("u", HALF_PAIR, (1.0, 2.0, 3), (-1.0, 0.0, 2), SMALL_GRID)
    assert [(r.kappa, r.c) for r in rows] == [
        (1.0, -1.0),
        (1.0, 0.0),
        (1.5, -1.0),
        (1.5, 0.0),
        (2.0, -1.0),
        (2.0, 0.0),
    ]
    assert scan_conflicts(rows) == []


def test_region_scan_headline_sweep():
    rows = region_scan("u", HALF_PAIR, (1.0, 5.0, 9), (-3.0, 0.0, 7), SMALL_GRID)
    assert len(rows) == 63
    assert scan_conflicts(rows) == []
    cell = next(r for r in rows if r.kappa == 1.0 and r.c == -1.0)
    assert not cell.checker.satisfied
    assert cell.corollary_id == "re-half" and cell.corollary.satisfied
    assert cell.report.verdict == "holds-on-grid"


def test_region_scan_corollary_matching():
    rows = region_scan(
        "deriv-normalized", HALF_PAIR, (0.5, 1.5, 2), (-2.0, -1.0, 2), SMALL_GRID
    )
    assert all(r.corollary_id == "deriv-re-half" for r in rows)
    rows2 = region_scan(
        "u", JanowskiPair(0.5, -0.5), (1.0, 2.0, 2), (-2.0, -1.0, 2), SMALL_GRID
    )
    assert all(r.corollary_id is None and r.corollary is None for r in rows2)


@pytest.mark.parametrize(
    "selector, c_range, corollary_id",
    [("u", (-3.0, 0.0, 4), "halfplane-c-ratio"), ("deriv-normalized", (-4.0, -1.0, 4), "cc-order")],
)
def test_region_scan_matches_a_c_dependent_corollary_by_its_implied_pair(selector, c_range, corollary_id):
    # A = -1/2 is the corollary's implied A at the range's first c only.
    pair, kappa_range = JanowskiPair(-0.5, -1.0), (1.0, 3.0, 2)
    rows = region_scan(selector, pair, kappa_range, c_range, SMALL_GRID)
    _assert_rows_bit_equal(rows, _scan_cell_by_cell(selector, pair, kappa_range, c_range, SMALL_GRID))
    assert [r.corollary_id for r in rows] == [corollary_id, None, None, None] * 2
    for row in rows[::4]:
        assert row.corollary == check_corollary(corollary_id, row.kappa, row.c)


@pytest.mark.parametrize("selector", ["u", "deriv-normalized"])
@pytest.mark.parametrize("A", [0.5, math.nextafter(-1.0, 0.0)])
def test_region_scan_from_c_minus_1e17_raises_no_convergence(selector, A):
    # Each c-dependent corollary is checked; none may raise for its A rounding to -1.
    with pytest.raises(NoConvergence):
        region_scan(selector, JanowskiPair(A, -1.0), (1.0, 2.0, 2), (-1e17, -1e16, 2), SMALL_GRID)


def test_region_scan_validates_steps():
    with pytest.raises(ValueError):
        region_scan("u", HALF_PAIR, (1.0, 2.0, 1), (-1.0, 0.0, 2), SMALL_GRID)
    for steps in (2.7, 3.5, math.nan, "3"):
        with pytest.raises(ValueError):
            region_scan("u", HALF_PAIR, (1.0, 2.0, steps), (-1.0, 0.0, 2), SMALL_GRID)
        with pytest.raises(ValueError):
            region_scan("u", HALF_PAIR, (1.0, 2.0, 2), (-1.0, 0.0, steps), SMALL_GRID)
    rows = region_scan("u", HALF_PAIR, (1.0, 2.0, 3.0), (-1.0, 0.0, 2.0), SMALL_GRID)
    assert [(r.kappa, r.c) for r in rows] == [(r.kappa, r.c) for r in region_scan(
        "u", HALF_PAIR, (1.0, 2.0, 3), (-1.0, 0.0, 2), SMALL_GRID
    )]


ODD_GRID = SampleGrid(radii=tuple(np.geomspace(0.05, 0.999, 5)), angles=15)


def _matching_corollary(selector, pair, c):
    """The corollary whose implied half-plane is the pair, by the printed formulas;
    the fixed-pair ones first."""
    if pair.B != -1.0:
        return None
    if selector == "u":
        if abs(pair.A) < 1e-12:
            return "re-half"
        if c <= 0.0 and abs(pair.A - (-(c + 1.0) / (c - 1.0))) < 1e-12:
            return "halfplane-c-ratio"
    elif selector == "deriv-normalized":
        if abs(pair.A) < 1e-12:
            return "deriv-re-half"
        if c <= -1.0 and abs(pair.A - (-(c + 2.0) / c)) < 1e-12:
            return "cc-order"
    return None


def _scan_cell_by_cell(selector, pair, kappa_range, c_range, grid, cfg=DEFAULT_CONFIG):
    """region_scan as a plain loop: checkers, then verify_membership, one cell at a time."""
    theorem = dict(zip(SELECTORS, THEOREM_NAMES))[selector]
    rows = []
    for k in np.linspace(float(kappa_range[0]), float(kappa_range[1]), kappa_range[2]):
        for c in np.linspace(float(c_range[0]), float(c_range[1]), c_range[2]):
            kappa, c = float(k), float(c)
            corollary_id = _matching_corollary(selector, pair, c)
            checker = check_theorem(theorem, pair, kappa, c)
            corollary = check_corollary(corollary_id, kappa, c) if corollary_id is not None else None
            report = verify_membership(selector, pair, verify._params_for_kappa(kappa, c), grid, cfg)
            rows.append(ScanRow(kappa, c, checker, corollary_id, corollary, report))
    return rows


def _outcome_bits(outcome):
    """Every field of a CheckOutcome, each slack by repr, which tells nan,
    -0.0 and 0.0 apart where == does not."""
    if outcome is None:
        return None
    slacks = [(label, repr(value)) for label, value in outcome.slacks]
    return outcome.branch, slacks, outcome.notes, outcome.implied_pair, repr(outcome.conclusion_bound)


def _assert_rows_bit_equal(rows, expected):
    assert len(rows) == len(expected)
    assert len({id(row.checker.notes) for row in rows}) == len(rows)  # no row shares another's notes
    for row, ref in zip(rows, expected):
        assert (row.kappa, row.c) == (ref.kappa, ref.c)
        assert _outcome_bits(row.checker) == _outcome_bits(ref.checker), (row.kappa, row.c)
        assert row.corollary_id == ref.corollary_id
        assert _outcome_bits(row.corollary) == _outcome_bits(ref.corollary), (row.kappa, row.c)
        got, want = row.report, ref.report
        # repr round-trips a float exactly and tells nan, -0.0 and 0.0 apart.
        assert repr(got.min_margin) == repr(want.min_margin), (row.kappa, row.c)
        assert repr(got.witness) == repr(want.witness), (row.kappa, row.c)
        assert (got.verdict, got.method, got.params, got.grid) == (
            want.verdict, want.method, want.params, want.grid
        )
        assert got.degeneracy_hits == want.degeneracy_hits


# Rectangles of 20 to 25 cells: more than one 4-cell chunk, not a multiple of it.
CHUNKED_SCANS = [
    ("u", HALF_PAIR, (1.0, 5.0, 5), (-3.0, 3.0, 5)),
    ("u", JanowskiPair(0.8, 0.3), (1.0, 6.0, 5), (-3.0, 3.0, 5)),
    ("deriv-normalized", JanowskiPair(0.5, -0.5), (0.5, 6.0, 5), (-3.0, -0.25, 5)),
    # c = 0 is the middle column: every sample degenerate, no real-axis rule.
    ("convexity", JanowskiPair(0.7, -0.3), (-1.5, 6.0, 5), (-4.0, 4.0, 5)),
    # kappa <= 0 rows take the sampled fallback.
    ("starlike-zu", JanowskiPair(0.6, -0.4), (-0.8, 6.0, 5), (-4.0, 4.0, 4)),
    ("starlike-zu", HALF_PAIR, (-1.7, 2.0, 5), (-30.0, 30.0, 5)),
]


@pytest.mark.parametrize("grid", [SMALL_GRID, ODD_GRID], ids=["16-angles", "15-angles"])
@pytest.mark.parametrize("selector, pair, kappa_range, c_range", CHUNKED_SCANS)
def test_region_scan_is_the_cell_by_cell_loop_bit_for_bit(
    monkeypatch, grid, selector, pair, kappa_range, c_range
):
    expected = _scan_cell_by_cell(selector, pair, kappa_range, c_range, grid)
    # 4 cells a chunk: an entire functional's outer circle, or w(r) and w(-r).
    monkeypatch.setattr(verify, "SCAN_CHUNK_POINTS", 4 * (grid.angles // 2 + 1 if selector in ENTIRE else 2))
    _assert_rows_bit_equal(region_scan(selector, pair, kappa_range, c_range, grid), expected)


@pytest.mark.parametrize("selector, pair, kappa_range, c_range", CHUNKED_SCANS[3:5])
def test_region_scan_takes_the_route_of_verify_membership(monkeypatch, selector, pair, kappa_range, c_range):
    # With _certified_radius patched to 0, verify_membership samples every
    # quotient cell.  The scan asks the same function for the real-axis rule,
    # so its rows are still the cell-by-cell loop's, every one sampled.
    monkeypatch.setattr(verify, "_certified_radius", lambda selector, params: 0.0)
    expected = _scan_cell_by_cell(selector, pair, kappa_range, c_range, SMALL_GRID)
    rows = region_scan(selector, pair, kappa_range, c_range, SMALL_GRID)
    _assert_rows_bit_equal(rows, expected)
    assert {row.report.method for row in rows} == {"sampled"}


@pytest.mark.parametrize("tol", [0.9, 10.0])
def test_region_scan_is_the_cell_by_cell_loop_on_degenerate_chunks(monkeypatch, tol):
    # Tolerances this wide mask some samples of many cells (0.9), or every
    # sample of every cell (10.0), and w(r) or w(-r) of real-axis cells,
    # which stay on those two points with their hits there.
    monkeypatch.setattr(verify, "DEGENERACY_TOL", tol)
    hit_cells = axis_hits = unmarked = 0
    r = SMALL_GRID.radii[-1]
    for selector, pair, kappa_range, c_range in CHUNKED_SCANS:
        # 3 cells a chunk: 9 points of an outer circle, or w(r) and w(-r).
        monkeypatch.setattr(verify, "SCAN_CHUNK_POINTS", 3 * (9 if selector in ENTIRE else 2))
        expected = _scan_cell_by_cell(selector, pair, kappa_range, c_range, SMALL_GRID)
        _assert_rows_bit_equal(region_scan(selector, pair, kappa_range, c_range, SMALL_GRID), expected)
        hit_cells += sum(bool(row.report.degeneracy_hits) for row in expected)
        unmarked += sum(math.isnan(row.report.min_margin) for row in expected)
        for row in expected:
            certified = r < verify._certified_radius(selector, row.report.params)
            assert (row.report.method == "real-axis") == certified, (selector, row.kappa, row.c)
            if certified and row.report.degeneracy_hits:
                assert all(z in (r, -r) for z, _ in row.report.degeneracy_hits), (selector, row.kappa, row.c)
                assert row.report.verdict == "counterexample", (selector, row.kappa, row.c)
                axis_hits += 1
    assert hit_cells >= 50 and axis_hits >= 10
    assert (unmarked == hit_cells) == (tol == 10.0)


@pytest.mark.parametrize("selector, pair, kappa_range, c_range", [CHUNKED_SCANS[1], CHUNKED_SCANS[4]])
def test_a_pole_sample_in_a_chunk_is_the_one_cells_hit(monkeypatch, selector, pair, kappa_range, c_range):
    # One cell's sample 3 reads m(1) = (1+A)/(1+B), the proof-side pole, on
    # every kernel call for that cell.  Its report carries the hits of
    # verify_membership (an entire functional: sample 3 of its outer circle
    # and its mirror twin; a real-axis cell, whose two samples are r and -r:
    # -r alone), and the rest of its chunk, whose margins lie far from the
    # edge, stays bit-equal to the cell-by-cell loop.
    kernel = verify._functional_values
    kappa, c = float(np.linspace(*kappa_range)[2]), float(np.linspace(*c_range)[1])
    pole = (1.0 + pair.A) / (1.0 + pair.B)

    def values(selector, rows, cells, radii, table):
        w, mask = kernel(selector, rows, cells, radii, table)
        w = w.copy()
        for i, params in enumerate(cells):
            if (params.kappa, params.c) == (kappa, c):
                w[i, 3 % w.shape[1]] = pole
        return w, mask

    monkeypatch.setattr(verify, "_functional_values", values)
    monkeypatch.setattr(verify, "SCAN_CHUNK_POINTS", 8 * 9)
    expected = _scan_cell_by_cell(selector, pair, kappa_range, c_range, SMALL_GRID)
    rows = region_scan(selector, pair, kappa_range, c_range, SMALL_GRID)
    _assert_rows_bit_equal(rows, expected)
    hit = [row for row in rows if row.report.degeneracy_hits]
    assert [(row.kappa, row.c) for row in hit] == [(kappa, c)]
    report = hit[0].report
    assert report.verdict == "counterexample"
    if selector in ENTIRE:
        ring = SMALL_GRID.points().reshape(6, 16)[-1]
        assert report.degeneracy_hits == [(complex(ring[3]), "proof-map-pole"), (complex(ring[13]), "proof-map-pole")]
        assert report.method == "sampled"
    else:
        r = SMALL_GRID.radii[-1]
        assert report.degeneracy_hits == [(complex(-r), "proof-map-pole")]
        assert report.method == "real-axis" and report.witness == r
        margins, _, _ = _reference_real_axis(selector, pair, report.params, r)
        assert repr(report.min_margin) == repr(float(margins[0]))


def _counted_verify_membership(monkeypatch):
    """Patch verify.verify_membership to record each call's params; returns the list."""
    calls = []
    inner = verify.verify_membership

    def counted(selector, pair, params, grid=None, cfg=DEFAULT_CONFIG):
        calls.append(params)
        return inner(selector, pair, params, grid, cfg)

    monkeypatch.setattr(verify, "verify_membership", counted)
    return calls


# The criterion-7 rectangles, on the 10 x 64 grid of their scans.
CRITERION_7_GRID = SampleGrid(radii=tuple(np.geomspace(0.05, 0.999, 10)), angles=64)
CRITERION_7_SCANS = [
    ("u", JanowskiPair(0.5, -0.5), (1.0, 6.0, 25), (-3.0, 3.0, 21)),
    ("u", JanowskiPair(0.8, 0.3), (1.0, 6.0, 25), (-3.0, 3.0, 21)),
    ("deriv-normalized", JanowskiPair(0.5, -0.5), (0.5, 6.0, 25), (-3.0, -0.25, 21)),
    ("deriv-normalized", JanowskiPair(0.8, 0.3), (0.5, 6.0, 25), (0.25, 3.0, 21)),
    ("convexity", JanowskiPair(0.7, -0.3), (0.2, 6.0, 25), (-4.0, 4.0, 20)),
    ("starlike-zu", JanowskiPair(0.6, -0.4), (0.2, 6.0, 25), (-4.0, 4.0, 20)),
]


def test_region_scan_calls_verify_membership_once_per_uncertified_quotient_cell(monkeypatch):
    # Exactly the convexity and starlike-zu cells whose disk the zero-free
    # radius does not certify go through verify_membership, once each and in
    # order; no other cell does.
    calls = _counted_verify_membership(monkeypatch)
    scans = [(CRITERION_7_GRID,) + scan for scan in CRITERION_7_SCANS]
    scans += [(SMALL_GRID,) + scan for scan in CHUNKED_SCANS]
    per_scan = []
    for grid, selector, pair, kappa_range, c_range in scans:
        calls.clear()
        rows = region_scan(selector, pair, kappa_range, c_range, grid)
        expected = [
            row.report.params for row in rows
            if selector in DENOMINATOR_SHIFT and not grid.radii[-1] < _zero_free(selector, row.report.params)
        ]
        assert calls == expected, (selector, pair, kappa_range, c_range)
        per_scan.append(len(calls))
    # Criterion 7: only starlike-zu's lowest kappa rows are uncertified.
    assert per_scan == [0, 0, 0, 0, 0, 28] + [0, 0, 0, 9, 4, 25]


def test_a_degenerate_real_axis_cell_makes_no_verify_membership_call(monkeypatch):
    # Widened as in the chunk test, the tolerance excludes w(r) or w(-r) of
    # some certified cells; each stays a real-axis report with its hits there,
    # inside the scan's own step, bit for bit the cell-by-cell loop's report,
    # with no call of its own.
    monkeypatch.setattr(verify, "DEGENERACY_TOL", 0.9)
    monkeypatch.setattr(verify, "SCAN_CHUNK_POINTS", 3 * 2)
    calls = _counted_verify_membership(monkeypatch)
    axis_hits = 0
    for selector, pair, kappa_range, c_range in CHUNKED_SCANS[3:]:
        expected = _scan_cell_by_cell(selector, pair, kappa_range, c_range, SMALL_GRID)
        calls.clear()
        _assert_rows_bit_equal(region_scan(selector, pair, kappa_range, c_range, SMALL_GRID), expected)
        certified = [SMALL_GRID.radii[-1] < _zero_free(selector, row.report.params) for row in expected]
        assert calls == [row.report.params for row, ok in zip(expected, certified) if not ok]
        axis_hits += sum(
            ok and row.report.method == "real-axis" and bool(row.report.degeneracy_hits)
            for row, ok in zip(expected, certified)
        )
    assert axis_hits >= 10


def test_region_scan_cells_evaluate_the_series_at_the_grid_kappa():
    # Every report's params carry the row's kappa to the bit, sampled,
    # real-axis and fallback cells alike, where p = kappa - 1.5 with b = 2
    # would miss it by an ulp on some rows.
    missed = 0
    for selector, pair, kappa_range, c_range in CHUNKED_SCANS + [("u", HALF_PAIR, (0.1, 3.0, 10), (-3.0, 3.0, 3))]:
        for row in region_scan(selector, pair, kappa_range, c_range, SMALL_GRID):
            assert row.report.params.kappa == row.kappa, (selector, row.kappa, row.report.params)
            missed += (row.kappa - 1.5) + 1.5 != row.kappa
    assert missed >= 10


def test_region_scan_checks_each_kappa_row_once(monkeypatch):
    # InvalidKappa depends on kappa alone: one validated BesselParams a row,
    # which the row's other cells share; each cell's params still equal
    # BesselParams(kappa, -1, c) (_assert_rows_bit_equal compares them).
    args = ("starlike-zu", HALF_PAIR, (-1.7, 2.0, 5), (-30.0, 30.0, 5), SMALL_GRID)
    expected = _scan_cell_by_cell(*args)
    built = []
    inner = verify._params_for_kappa

    def counted(kappa, c):
        built.append((kappa, c))
        return inner(kappa, c)

    monkeypatch.setattr(verify, "_params_for_kappa", counted)
    rows = region_scan(*args)
    assert built == [(row.kappa, row.c) for row in rows[::5]]
    _assert_rows_bit_equal(rows, expected)


def test_region_scan_contracts_a_chunk_of_cells_per_kernel_call(monkeypatch):
    args = ("u", HALF_PAIR, (1.0, 6.0, 20), (-3.0, 3.0, 10), SMALL_GRID)
    expected = _scan_cell_by_cell(*args)
    cells_per_call, one_cell_calls = [], []
    contract = verify._contract

    def counted(rows, radii, table):
        cells_per_call.append(rows.shape[0])
        return contract(rows, radii, table)

    monkeypatch.setattr(verify, "_contract", counted)
    monkeypatch.setattr(verify, "verify_membership", lambda *args: one_cell_calls.append(args))
    # Cache hits and misses count every bessel._series_rows call, by any name:
    # the one-cell cache property_radius relies on is neither filled nor evicted.
    series_rows_calls = bessel._series_rows.cache_info()[:2]
    rows = region_scan(*args)
    # u samples 9 points of SMALL_GRID's outer circle per cell: 8192 // 9 = 910
    # cells a call, so the 200 cells take one.
    assert verify.SCAN_CHUNK_POINTS == 8192
    assert len(rows) == 200 and cells_per_call == [200] and one_cell_calls == []
    assert bessel._series_rows.cache_info()[:2] == series_rows_calls
    _assert_rows_bit_equal(rows, expected)
    # On the 10 x 64 grid, 33 points per cell: 8192 // 33 = 248 cells a call.
    cells_per_call.clear()
    rows = region_scan(*CRITERION_7_SCANS[0], CRITERION_7_GRID)
    assert len(rows) == 525 and cells_per_call == [248, 248, 29] and one_cell_calls == []


def _raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize(
    "selector, kappa_range, c_range, cfg, expected",
    [
        # The derivative checker raises at c = 0 before verify_membership's
        # own ZeroC could.
        ("deriv-normalized", (1.0, 2.0, 2), (-1.0, 1.0, 3), DEFAULT_CONFIG,
         (ZeroC, "the normalized derivative (-4 kappa / c) u' is undefined at c = 0")),
        ("deriv-normalized", (-0.5, 0.5, 3), (1.0, 2.0, 2), DEFAULT_CONFIG,
         (InvalidKappa, "kappa = 0.0 is within 1e-09 of the excluded value 0")),
        ("u", (-0.5, 0.5, 3), (-1.0, 1.0, 2), DEFAULT_CONFIG,
         (InvalidKappa, "kappa = 0.0 is within 1e-09 of the excluded value 0")),
        # The second cell's series fails before the third row's kappa does.
        ("u", (-0.5, 0.5, 3), (0.0, 90.0, 2), EvalConfig(max_terms=8),
         (NoConvergence, "no tail bound within 8 terms (kappa=-0.5, c=90.0)")),
        # The first cell raises: no cell reaches the verifier.
        ("u", (0.0, 1.0, 2), (-1.0, 1.0, 2), DEFAULT_CONFIG,
         (InvalidKappa, "kappa = 0.0 is within 1e-09 of the excluded value 0")),
        ("deriv-normalized", (1.0, 2.0, 2), (0.0, 1.0, 2), DEFAULT_CONFIG,
         (ZeroC, "the normalized derivative (-4 kappa / c) u' is undefined at c = 0")),
        # The kappa = 2 cells take the real-axis rule and stop within 14
        # terms; both kappa = -0.5 cells are sampled fallbacks needing 15.
        ("starlike-zu", (2.0, -0.5, 2), (-8.0, 6.0, 2), EvalConfig(max_terms=14),
         (NoConvergence, "no tail bound within 14 terms (kappa=-0.5, c=-8.0)")),
    ],
)
def test_region_scan_raises_what_the_cell_by_cell_loop_raises_first(
    selector, kappa_range, c_range, cfg, expected
):
    args = (selector, HALF_PAIR, kappa_range, c_range, SMALL_GRID)
    assert _raised(lambda: _scan_cell_by_cell(*args, cfg=cfg)) == expected
    assert _raised(lambda: region_scan(*args, cfg=cfg)) == expected


@pytest.mark.parametrize("kappa_range", [(0.0, 1.0, 2), (1.0, 0.0, 2)])
def test_region_scan_raises_a_cells_theorem_error_before_its_kappa_error(kappa_range):
    # Kappa is validated once a row, at the row's first cell, and after that
    # cell's checker: where kappa = 0 meets c = 0, ZeroC comes first.
    args = ("deriv-normalized", HALF_PAIR, kappa_range, (0.0, 1.0, 2), SMALL_GRID)
    expected = (ZeroC, "the normalized derivative (-4 kappa / c) u' is undefined at c = 0")
    assert _raised(lambda: _scan_cell_by_cell(*args)) == expected
    assert _raised(lambda: region_scan(*args)) == expected


@pytest.mark.parametrize("selector", SELECTORS)
def test_region_scan_rejects_an_unknown_mode(selector):
    # Every theorem checker rejects it, including the two that ignore mode.
    theorem = dict(zip(SELECTORS, THEOREM_NAMES))[selector]
    with pytest.raises(ValueError, match="mode must be one of"):
        check_theorem(theorem, HALF_PAIR, 2.0, -1.0, "bogus")
    with pytest.raises(ValueError, match="mode must be one of"):
        region_scan(selector, HALF_PAIR, (1.0, 2.0, 2), (-1.0, -0.5, 2), SMALL_GRID, mode="bogus")


def test_scan_conflicts_flags_satisfied_counterexamples():
    rows = region_scan("u", HALF_PAIR, (1.0, 2.0, 2), (-3.0, -1.0, 2), SMALL_GRID)
    assert scan_conflicts(rows) == []  # checker is honest on these cells
    fake = ScanRow(
        kappa=1.0,
        c=-3.0,
        checker=CheckOutcome(branch="synthetic", slacks=[("synthetic", 0.0)]),
        corollary_id=None,
        corollary=None,
        report=next(r for r in rows if r.c == -3.0 and r.kappa == 1.0).report,
    )
    assert scan_conflicts(rows + [fake]) == [fake]
