"""Sampling-based ground truth for the membership claims.

The checkers in `checks` assert sufficient conditions; this module tests the
conclusions themselves by brute force.  Four property functionals of the
series u are supported (checks.SELECTORS, in this order), all normalized
to 1 at z = 0:

    u               the function itself,
    deriv-normalized  (-4 kappa / c) u',
    convexity       1 + z u'' / u',
    starlike-zu     z (z u)' / (z u) = 1 + z u' / u.

By the order-shift identity 4 kappa u_p' = -c u_{p+1}, (-4 kappa / c) u' is
the series at kappa + 1 and 1 + z u'' / u' is 1 + z u' / u there.  So each
functional is one series D = 0F1(; k; -c z / 4), k = kappa + shift
(checks.PROPERTIES, read into _KERNEL_ROWS), or 1 + z D' / D, and none
scales u' or divides by it, which overflows or degenerates at small |c|.
At c = 0 deriv-normalized raises ZeroC and, u' vanishing identically,
every convexity sample is a hit.

verify_membership samples a polar grid of the unit disk, maps every sample
through the functional, and reports the minimum signed margin against the
pair's target region together with the witness point attaining it.  u and
deriv-normalized are entire: their margin, superharmonic (disk target) or
harmonic (half-plane), is least over |z| <= r on |z| = r, so they sample the
grid's outer circle alone.  Points where a quotient's denominator D falls
below DEGENERACY_TOL, or where the proof-side denominator (1+B) w - (1+A)
does, are recorded as degeneracy hits and excluded from the margin; any hit
makes the verdict "counterexample" because a nondegeneracy hypothesis failed.

Real-axis rule: convexity and starlike-zu are w = 1 + z D'/D.  For k > 0
the zeros z_j of D are real, of the sign of c, and none lies in |z| <= r
for r below bessel.zero_free_radius.  There w = 1 - sum_j z / (z_j - z)
(Hadamard's product), and each term maps the disk onto a disk centred on
the real axis with a diameter from its value at -r to its value at r.  So
w maps it into the disk on the diameter [w(-r), w(r)], attaining both
ends, and every target region is a disk centred on the real axis or a
half-plane: the least margin on |z| <= r is exactly min(margin(w(r)),
margin(w(-r))) (Baricz, Kupan and Szasz, Proc. AMS 2014).  Wherever the
certificate covers the disk asked about, verify_membership and
property_radius use this rule, so the zero-free precondition below is
checked for these selectors when kappa > 0 (convexity: kappa > -1).

property_radius otherwise searches for a sampled radius on which
membership holds, judging each radius by its circle alone, one circle to a
kernel call after the first.  That suffices only when the functional's
denominator has no zero inside the circle: w is then analytic on the closed
sub-disk, where Re w is harmonic and |w - center| subharmonic, so the
margin's minimum lies on the circle.  This precondition is not checked
there (a known defect).

Every report comes from one step, _cell_reports: a stack of cells' kernel
rows goes through one contraction (bessel._contract) and the functional,
and _least_margins, the one reduction of samples (property_radius's too, a
circle a row), gives each cell's least margin, first sample attaining it
and exclusion flag, testing the proof-side pole only where a hit can be
(near the disk's edge point m(1); 1 + A < DEGENERACY_TOL on a half-plane).
One pass builds the reports from its columns; a cell with an excluded
sample then has its hits mirrored onto its sampled rings, the real-axis
route's two points r and -r included.  verify_membership is the step on
one cell's rows (bessel._series_rows).  region_scan sweeps a (kappa, c)
rectangle and pairs, for each cell, the checker verdict, any matching
corollary verdict and the sampled verdict.  One checks._check_columns pass
evaluates the theorem over the whole rectangle as numpy columns, bit for
bit check_theorem's outcomes, and each kappa row's parameters are
validated once.  Where B = -1 the row keeps the selector's first corollary
in checks.PROPERTIES (fixed-pair ones first) whose check_corollary
implied_pair has the pair's A to within 1e-12.  One vectorized pass builds
the series coefficients of all its cells (bessel._coefficient_matrix, at
the same float kappa + shift as the one-cell path), and the step runs a
chunk of cells at a time, on one gather from those coefficients
zero-padded to one length.
Each coefficient is bit for bit the one-cell path's, a kernel value
depends only on its row, radius and point, and the rest is elementwise or
row-wise, so every report is bit for bit verify_membership's for its cell.

Mirror symmetry: A, B, p, b and c are real, so u has real Taylor
coefficients, every target region is symmetric about the real axis, and in
exact arithmetic the margin at conj z equals the margin at z.  The sample
circles are built so that this holds to the bit: each ring (_ring) starts
at angle 0, its points at angles 0 and pi are exactly real, and each point
below the real axis is the exact conj of its upper twin.  IEEE negation is
exact, and numpy's complex multiply, divide and abs treat sign flips
symmetrically, so twins get conj unit powers, conj series values (the
coefficients are real), bit-equal margins and equal degeneracy flags.
verify_membership and property_radius therefore evaluate only the closed
upper half of each circle (angles 0..angles//2): a sampled cell is one
series call over its grid's upper half, and the first minimum of that half
in radius-major order is the full grid's first minimum, because each lower
point comes after its upper twin.  Every sample is radius * unit; each
angle count has one cached power table of its upper-half unit points
(_sampled_units).

Determinism: grids are fixed by their parameters, so identical inputs give
bit-identical results.  Exact ties go to the first sample in radius-major
order, which is never a point below the real axis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bessel import BesselParams, EvalConfig, DEFAULT_CONFIG, _count, _PowerTable
from .bessel import _coefficient_matrix, _contract, _kernel_layout, _series_rows
from .bessel import zero_free_radius
from .checks import (
    MODE_CONSERVATIVE,
    PROPERTIES,
    PSI_CONVEXITY,
    SELECTOR_CONVEXITY,
    SELECTOR_DERIV,
    SELECTOR_STARLIKE,
    SELECTORS,
    CheckOutcome,
    ZeroC,
    _check_columns,
    _root,
    admissibility_scan,  # defined in checks; also importable from here
    check_corollary,
    check_theorem,
)
from .geometry import JanowskiPair, TargetRegion, region_margin_many, target_region

# (order, shift, label): each selector's functional reads rows 0..order of
# the series at kappa + shift (checks.PROPERTIES), one row for the
# subordination form and two for the convexity form's quotient, and label is
# the hit recorded where the quotient's denominator vanishes ("" for the two
# that are not quotients).
_QUOTIENT_LABELS = {SELECTOR_CONVEXITY: "zero-derivative", SELECTOR_STARLIKE: "zero-value"}
_KERNEL_ROWS = {
    selector: (int(prop.form == PSI_CONVEXITY), prop.shift, _QUOTIENT_LABELS.get(selector, ""))
    for selector, prop in PROPERTIES.items()
}

VERDICT_HOLDS = "holds-on-grid"
VERDICT_COUNTEREXAMPLE = "counterexample"

# How a report was obtained: from w(r) and w(-r) alone, or from the grid.
METHOD_REAL_AXIS = "real-axis"
METHOD_SAMPLED = "sampled"

# Denominators (functional or proof-side) below this are degeneracies.
DEGENERACY_TOL = 1e-13


def _lower_twins(upper: np.ndarray, n: int) -> np.ndarray:
    """Given values at angle indices 0..n//2 (last axis), those at n//2+1..n-1.

    Angle index k > n/2 is the mirror of index n - k.
    """
    return upper[..., (n - 1) // 2 : 0 : -1]


def _ring(n: int) -> np.ndarray:
    """n unit points at the angles 2 pi k / n, k = 0..n-1, mirror-exact.

    The points at angles 0 and pi (pi only for even n) are exactly real, and
    each point below the real axis is the exact conj of its upper twin.
    """
    upper = np.exp(1j * (2.0 * np.pi * np.arange(n // 2 + 1) / n))
    if n % 2 == 0:
        upper[n // 2] = -1.0
    return np.concatenate([upper, np.conj(_lower_twins(upper, n))])


@dataclass(frozen=True)
class SampleGrid:
    """Polar sampling grid: every radius crossed with equispaced angles."""

    radii: tuple[float, ...]
    angles: int
    max_radius: float = 0.999

    def __post_init__(self) -> None:
        radii = tuple(float(r) for r in self.radii)
        if not radii:
            raise ValueError("grid needs at least one radius")
        if any(not (0.0 < r < 1.0) for r in radii):
            raise ValueError("grid radii must lie strictly inside (0, 1)")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError("grid radii must be strictly increasing")
        angles = _count("angles", self.angles)
        if angles < 8:
            raise ValueError(f"need at least 8 angles, got {angles}")
        if not (0.0 < self.max_radius < 1.0):
            raise ValueError(f"max_radius must lie in (0, 1), got {self.max_radius}")
        if radii[-1] > self.max_radius:
            raise ValueError(f"grid radius {radii[-1]} exceeds max_radius {self.max_radius}")
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "max_radius", float(self.max_radius))

    @staticmethod
    def default() -> "SampleGrid":
        """The shared 24 x 256 grid on radii geomspace(0.05, 0.999, 24)."""
        return _DEFAULT_GRID

    def points(self) -> np.ndarray:
        """All grid points, radius-major (all angles of radii[0] first).

        Each ring is radius * _ring(angles): it starts at angle 0, its points
        at angles 0 and pi are real, and each point below the real axis is the
        exact conj of its upper twin.
        """
        return (np.asarray(self.radii)[:, None] * _ring(self.angles)[None, :]).ravel()


_DEFAULT_GRID = SampleGrid(radii=tuple(np.geomspace(0.05, 0.999, 24)), angles=256)


@functools.lru_cache(maxsize=8)
def _sampled_units(n: int) -> _PowerTable:
    """The closed upper half of _ring(n): the unit points sampled on each ring."""
    return _PowerTable(_ring(n)[: n // 2 + 1])


def _certified_radius(selector: str, params: BesselParams) -> float:
    """Radius below which a quotient selector's denominator, the series at
    kappa + shift, has no zero; 0.0 for the other selectors."""
    _, shift, reason = _KERNEL_ROWS[selector]
    return zero_free_radius(params.kappa + shift, params.c) if reason else 0.0


@dataclass
class VerificationReport:
    """Outcome of one membership test.

    verdict is "holds-on-grid" exactly when no degeneracy was hit and
    min_margin > 0, as membership of the target region is strict; a zero,
    negative or NaN min_margin is a "counterexample".
    witness is the sample attaining min_margin (None, with min_margin NaN,
    only if no sample has a margin below +inf, as where every sample was
    degenerate): a grid point, or r or -r under the real-axis rule.
    method is "real-axis" when min_margin is the exact least margin of the
    closed disk, taken at r or -r, and "sampled" when it is the grid's (the
    outer circle's for u and deriv-normalized, a tie going to its first point).
    An excluded w(r) or w(-r) is a hit, and a counterexample, at that point.
    grid: only convexity and starlike-zu cells without a certified zero-free
    disk read its inner circles.
    """

    selector: str
    pair: JanowskiPair
    params: BesselParams
    verdict: str
    min_margin: float
    witness: complex | None
    grid: SampleGrid
    degeneracy_hits: list[tuple[complex, str]]
    method: str = METHOD_SAMPLED


def _kernel_rows(selector: str, params: BesselParams, cfg: EvalConfig) -> np.ndarray:
    """Rows 0..order of the selector's series, at params.kappa + shift: one cell's stacked rows.

    Raises ValueError for an unknown selector, then ZeroC for
    deriv-normalized at c = 0, before any series is summed.
    """
    try:
        order, shift, _ = _KERNEL_ROWS[selector]
    except KeyError:
        raise ValueError(f"unknown selector {selector!r}; expected one of {SELECTORS}") from None
    if selector == SELECTOR_DERIV and params.c == 0.0:
        raise ZeroC("the deriv-normalized functional is undefined at c = 0")
    return _series_rows(params.kappa + shift, params.c, order, cfg.rel_tol, cfg.max_terms)


def _functional_values(
    selector: str,
    rows: np.ndarray,
    cells: list[BesselParams],
    radii: tuple[float, ...],
    table: _PowerTable,
) -> tuple[np.ndarray, np.ndarray]:
    """Map the samples radius * unit through the selected functional, a row per cell.

    rows stacks the cells' _KERNEL_ROWS in turn, one row a cell or a
    quotient's two, and one _contract sums them all.  Returns (w,
    degenerate_mask), shape (cells, samples), radius-major over radii and
    table.points.  Degenerate entries of w carry the placeholder 1 and must
    be ignored by the caller.
    """
    sums = _contract(rows, radii, table).reshape(len(rows), -1)
    if not _KERNEL_ROWS[selector][2]:
        return sums, np.zeros(sums.shape, dtype=bool)
    den, num = sums[0::2], sums[1::2]
    zs = (np.asarray(radii)[:, None] * table.points).ravel()
    mask = np.abs(den) < DEGENERACY_TOL
    if selector == SELECTOR_CONVEXITY:  # u' = -c u_{p+1} / (4 kappa) vanishes identically at c = 0
        mask |= np.array([params.c == 0.0 for params in cells])[:, None]
    if not mask.any():
        return 1.0 + zs * num / den, mask
    safe = np.where(mask, 1.0, den)
    return np.where(mask, 1.0, 1.0 + zs * num / safe), mask


def _least_margins(
    pair: JanowskiPair, region: TargetRegion, w: np.ndarray, mask: np.ndarray
) -> tuple[list[float], np.ndarray, list[bool], np.ndarray]:
    """Each row's least margin, the first sample attaining it, and whether any sample is excluded.

    w and mask are (rows, samples), as _functional_values returns them: a
    row is a cell, or one circle where the caller reshapes.  A sample is
    excluded where mask marks a zero functional denominator, or where the
    proof-side denominator (1+B) w - (1+A) falls below DEGENERACY_TOL: a
    zero there would void the nondegeneracy hypothesis behind the checkers.
    An excluded sample's margin reads +inf, so a row whose least margin is
    +inf has no usable sample.  Returns (least, first, excluded, proof):
    the first three per row, proof the (rows, samples) proof-side flags
    outside mask.

    A disk pair (B > -1) runs the proof-side test only if some |margin|
    (masked samples' too) is below bound.  m1 = (1+A)/(1+B) lies on the
    exact disk's edge and margins are 1-Lipschitz, so at a hit (w finite)
        |margin(w)| <= |margin(m1)| + |(1+B) w - (1+A)| / (1+B) < |margin(m1)| + TOL / (1+B).
    Computed, margin(m1) is about 0.5 from 0 at B = -1 + 1e-8 (1 - B^2
    rounds), doubling TOL / (1+B) covers the test's relative rounding, and
    8 ulps of R + |C| + m1 the absolute rounding of both margins, of m1 and
    of (1+B) w: bound = 2 TOL / (1+B) + |margin(m1)| + 8 ulp(R + |C| + m1).
    A half-plane (B = -1) runs it only if 1 + A < TOL: there (1+B) w - (1+A)
    is -(1+A) at every finite w, and NaN elsewhere.  Otherwise the flags
    are all False.
    """
    margins = region_margin_many(region, w)
    if pair.B == -1.0:
        near = 1.0 + pair.A < DEGENERACY_TOL
    else:
        m1 = (1.0 + pair.A) / (1.0 + pair.B)
        bound = 2.0 * DEGENERACY_TOL / (1.0 + pair.B) + abs(region.radius - abs(m1 - region.center))
        near = (np.abs(margins) < bound + 8.0 * math.ulp(region.radius + abs(region.center) + m1)).any()
    proof, excluded = np.zeros(w.shape, bool), mask
    if near:
        proof = (np.abs((1.0 + pair.B) * w - (1.0 + pair.A)) < DEGENERACY_TOL) & ~mask
        excluded = mask | proof
    if excluded.any():
        np.copyto(margins, np.inf, where=excluded)
    first = margins.argmin(axis=1)
    least = margins[np.arange(len(margins)), first].tolist()
    return least, first, excluded.any(axis=1).tolist(), proof


def _cell_reports(
    selector: str,
    pair: JanowskiPair,
    grid: SampleGrid,
    cells: list[BesselParams],
    rows: np.ndarray,
    axis: bool,
) -> list[VerificationReport]:
    """Each cell's report on the grid from its stacked kernel rows, as _functional_values takes them.

    With axis, the real-axis report: the grid's outer radius r at angles 0
    and pi (_sampled_units(2)), w(r) and w(-r), witness r or -r (r on a
    tie).  Without: the sampled report from the closed upper half of the
    grid (_sampled_units; its outer circle's alone for an entire functional),
    witness the first least-margin sample.  Either way excluded samples are
    hits, mirrored onto the full circles (_ring(2) = [1, -1] has no lower
    twins), and the verdict is "holds-on-grid" exactly when nothing is
    excluded and the least margin is > 0, which NaN is not; a cell with no
    usable sample reports min_margin NaN and no witness.  _least_margins
    reduces all the cells at once; only a cell with an excluded sample runs
    Python of its own.
    """
    n = 2 if axis else grid.angles
    radii = grid.radii[-1:] if axis or not _KERNEL_ROWS[selector][2] else grid.radii
    table = _sampled_units(n)
    w, mask = _functional_values(selector, rows, cells, radii, table)
    least, first, excluded, proof = _least_margins(pair, target_region(pair), w, mask)
    half = len(table.points)
    witnesses = (np.asarray(radii)[first // half] * table.points[first % half]).tolist()
    method, inf = METHOD_REAL_AXIS if axis else METHOD_SAMPLED, math.inf
    reports = [
        VerificationReport(
            selector, pair, params, VERDICT_HOLDS if 0.0 < m < inf and not x else VERDICT_COUNTEREXAMPLE,
            m if m != inf else math.nan, z if m != inf else None, grid, [], method,
        )
        for params, m, x, z in zip(cells, least, excluded, witnesses)
    ]
    hit_cells = [c for c, x in enumerate(excluded) if x]
    full = (np.asarray(radii)[:, None] * _ring(n)).ravel() if hit_cells else None
    for c in hit_cells:
        # Mirror the flags onto the full circles, radius-major.
        for flags, label in ((mask[c], _KERNEL_ROWS[selector][2]), (proof[c], "proof-map-pole")):
            upper = flags.reshape(len(radii), half)
            whole = np.concatenate([upper, _lower_twins(upper, n)], axis=1).ravel()
            reports[c].degeneracy_hits.extend((complex(z), label) for z in full[whole])
    return reports


def verify_membership(
    selector: str,
    pair: JanowskiPair,
    params: BesselParams,
    grid: SampleGrid | None = None,
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> VerificationReport:
    """Test the functional's region membership on the disk |z| <= grid.radii[-1].

    Convexity and starlike-zu cells with r = radii[-1] below _certified_radius
    take the module's real-axis rule (method "real-axis"): the exact least
    margin on |z| <= r, witness r or -r (r on a tie).  These are the outer
    ring's values at angles 0 and pi, to the bit; an odd grid has no -r, so
    sampling it could miss this margin.  An excluded w(r) or w(-r) is a hit
    at that point and makes the cell a counterexample; min_margin and the
    witness are then the other point's (NaN and None if both are excluded).

    Otherwise (method "sampled") min_margin is the least margin of the grid,
    of its outer circle for u and deriv-normalized, and the witness the first
    point attaining it, in radius-major order, never below the real axis.

    The margin at conj z is bit-equal to the margin at z, so only the closed
    upper half of each ring sampled (angles 0..angles//2) is evaluated, in one
    series call: the report is the whole rings' through the same kernel
    (bessel._contract), to the bit.  It is one _cell_reports call.
    """
    if grid is None:
        grid = _DEFAULT_GRID
    rows = _kernel_rows(selector, params, cfg)
    axis = grid.radii[-1] < _certified_radius(selector, params)
    return _cell_reports(selector, pair, grid, [params], rows, axis)[0]


def property_radius(
    selector: str,
    pair: JanowskiPair,
    params: BesselParams,
    grid_density: int = 256,
    tol: float = 1e-4,
    max_radius: float = 0.999,
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> float:
    """Radius on which membership holds: a radius from 0.01 up tested
    feasible, with one tested infeasible at most tol above it (one ulp above
    where tol is finer).

    Returns 0.0 when even r = 0.01 fails and the cap when the cap is feasible.
    Where a quotient selector's cap min(max_radius, _certified_radius) is
    above 0.01, r is feasible when w(r) and w(-r) are non-degenerate with
    positive margins: membership on all of |z| <= r by the module's
    real-axis rule.  The disk's image grows with r, so the radius is sound.

    Otherwise the cap is max_radius and r is feasible when no sample of the
    circle r * _ring(grid_density) is degenerate and every margin is
    positive.  Only its closed upper half is evaluated: each other point is
    the exact conj of one evaluated, with its twin's margin and degeneracy.
    Precondition, not checked there: the functional's denominator has no
    zero inside the circles tested; past one the radius can be unsound.

    One kernel call tests 0.01 and the cap together.  Between them
    checks._root narrows (lo, hi), one circle a call, on the circle's least
    margin m read as m / (1 + |m|): the sign is kept, and a huge margin near
    a pole of w pulls the Illinois steps no further than a margin of 1.  A
    degenerate circle, or one whose least margin is 0 or NaN, reads -1, so
    membership stays strict.  Where feasibility is not monotone in r, the
    radius ends one sign change, not necessarily the first.
    """
    grid_density = _count("grid_density", grid_density)
    if grid_density < 8:
        raise ValueError(f"need at least 8 angles per circle, got {grid_density}")
    if not (0.0 < tol < 1.0):
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    if not (0.01 < max_radius < 1.0):
        raise ValueError(f"max_radius must lie in (0.01, 1), got {max_radius}")
    region = target_region(pair)
    cap = min(max_radius, _certified_radius(selector, params))
    table, cap = (_sampled_units(2), cap) if cap > 0.01 else (_sampled_units(grid_density), max_radius)
    rows = _kernel_rows(selector, params, cfg)

    def least(*radii: float) -> list[float]:
        w, mask = _functional_values(selector, rows, [params], radii, table)
        shape = (len(radii), -1)
        lows, _, hits, _ = _least_margins(pair, region, w.reshape(shape), mask.reshape(shape))
        return [m / (1.0 + abs(m)) if abs(m) > 0.0 and not hit else -1.0 for hit, m in zip(hits, lows)]

    f_lo, f_hi = least(0.01, cap)
    if not f_lo > 0.0:
        return 0.0
    if f_hi > 0.0:
        return cap
    return _root(lambda r: least(r)[0], 0.01, cap, f_lo, f_hi, tol)


@dataclass
class ScanRow:
    """One cell of a region scan: checker vs corollary vs sampled verdict."""

    kappa: float
    c: float
    checker: CheckOutcome
    corollary_id: str | None
    corollary: CheckOutcome | None
    report: VerificationReport


def _params_for_kappa(kappa: float, c: float) -> BesselParams:
    """b enters the series only through kappa = p + (b+1)/2, and b = -1 makes it p exactly."""
    return BesselParams(p=kappa, b=-1.0, c=c)


# region_scan contracts at most this many sample points (cells times points
# per cell) in one kernel call: 248 u cells of a 10 x 64 grid (33 points of
# its outer circle), 63 of the default grid.  On the criterion-7 rectangles
# 2**12 to 2**15 take the same time; 2**15 adds about 1 MB of peak RSS.
SCAN_CHUNK_POINTS = 1 << 13


def _verify_cells(
    selector: str, pair: JanowskiPair, cells: list[BesselParams], grid: SampleGrid, cfg: EvalConfig
) -> list[VerificationReport]:
    """[verify_membership(selector, pair, params, grid, cfg) for params in cells], bit for bit.

    u and deriv-normalized cells are sampled, and convexity and starlike-zu
    cells whose disk lies below _certified_radius take the real-axis rule on
    w(r) and w(-r), a chunk of cells per kernel call; the other convexity
    and starlike-zu cells call verify_membership.  One
    bessel._coefficient_matrix pass builds every cell's coefficients; a
    chunk's kernel rows are one gather from it (bessel._kernel_layout),
    zero-padded to the chunk's longest cell, and _cell_reports turns them
    into the chunk's reports.
    The pass covers every cell in order, fallbacks too, so it raises the
    NoConvergence of the first cell whose series fails: the first exception
    verify_membership raises cell by cell (for deriv-normalized cells given
    c != 0, which region_scan's checker enforces).
    """
    order, shift, quotient = _KERNEL_ROWS[selector]
    axis = bool(quotient)
    points = len(_sampled_units(2 if axis else grid.angles).points)
    size = max(1, SCAN_CHUNK_POINTS // points)
    a, terms = _coefficient_matrix(
        [params.kappa + shift for params in cells], [params.c for params in cells], order, cfg.rel_tol, cfg.max_terms
    )
    certified = [not axis or grid.radii[-1] < _certified_radius(selector, params) for params in cells]
    reports = {i: verify_membership(selector, pair, cells[i], grid, cfg) for i, ok in enumerate(certified) if not ok}
    chunked = [i for i, ok in enumerate(certified) if ok]
    for start in range(0, len(chunked), size):
        chunk = chunked[start : start + size]
        n = int(terms[chunk].max())
        rows = _kernel_layout(a[chunk], order, n).reshape(-1, n)
        found = _cell_reports(selector, pair, grid, [cells[i] for i in chunk], rows, axis)
        reports.update(zip(chunk, found))
    return [reports[i] for i in range(len(cells))]


def _axis(name: str, lo: float, hi: float, steps: int) -> list[float]:
    """numpy.linspace(lo, hi, steps) as floats; ValueError unless lo, hi and hi - lo are finite."""
    lo, hi = float(lo), float(hi)
    if not math.isfinite(hi - lo):  # NaN or inf wherever an endpoint is, inf where the span overflows
        raise ValueError(f"{name} range {lo!r}:{hi!r} needs finite endpoints and a finite span")
    return np.linspace(lo, hi, steps).tolist()


def region_scan(
    selector: str,
    pair: JanowskiPair,
    kappa_range: tuple[float, float, int],
    c_range: tuple[float, float, int],
    grid: SampleGrid | None = None,
    cfg: EvalConfig = DEFAULT_CONFIG,
    mode: str = MODE_CONSERVATIVE,
) -> list[ScanRow]:
    """Sweep a (kappa, c) rectangle; rows are row-major (kappa outer, c inner).

    Each range is (lo, hi, steps) mapped to numpy.linspace; ValueError
    names a range whose endpoints or span are not finite.  One
    checks._check_columns pass gives every cell's theorem outcome, bit for
    bit check_theorem's, which itself decides the cells where the condition
    set does not apply.  Any matching corollary (module docstring) is
    checked cell by cell.  Parameters are validated once per kappa row,
    InvalidKappa depending on kappa alone, and the row's other cells share
    them (BesselParams._with_c).  The reports come from _verify_cells, a
    chunk of cells per kernel call, bit for bit those of verify_membership
    cell by cell.
    A cell whose checker, corollary or parameters raise, in that order, ends
    the scan with that exception after the cells before it are verified, so
    a rectangle raises what a cell-by-cell loop would raise first.
    """
    if grid is None:
        grid = _DEFAULT_GRID
    k_lo, k_hi, k_steps = kappa_range
    c_lo, c_hi, c_steps = c_range
    k_steps, c_steps = _count("kappa steps", k_steps), _count("c steps", c_steps)
    if k_steps < 2 or c_steps < 2:
        raise ValueError("ranges need at least two steps per axis")
    if selector not in PROPERTIES:
        raise ValueError(f"unknown selector {selector!r}; expected one of {SELECTORS}")
    theorem = PROPERTIES[selector].theorem
    corollaries = PROPERTIES[selector].corollaries if pair.B == -1.0 else ()
    kappas, cs = _axis("kappa", k_lo, k_hi, k_steps), _axis("c", c_lo, c_hi, c_steps)
    outcomes = iter(_check_columns(theorem, pair, kappas, cs, mode))
    judged, cells, failure = [], [], None
    try:
        for kappa in kappas:
            for j, c in enumerate(cs):
                checker = next(outcomes) or check_theorem(theorem, pair, kappa, c, mode)
                corollary_id = corollary = None
                for candidate in corollaries:
                    outcome = check_corollary(candidate, kappa, c)
                    if outcome.implied_pair is not None and abs(pair.A - outcome.implied_pair.A) < 1e-12:
                        corollary_id, corollary = candidate, outcome
                        break
                if j == 0:  # InvalidKappa depends on kappa alone: one check a row
                    row = _params_for_kappa(kappa, c)
                judged.append((kappa, c, checker, corollary_id, corollary))
                cells.append(row._with_c(c) if j else row)
    except Exception as exc:  # raised once the cells before it are verified
        failure = exc
    reports = _verify_cells(selector, pair, cells, grid, cfg)
    if failure is not None:
        raise failure
    return [ScanRow(*cell, report) for cell, report in zip(judged, reports)]


def scan_conflicts(rows: list[ScanRow]) -> list[ScanRow]:
    """Rows where a satisfied checker met a sampled counterexample (unsound)."""
    return [
        row
        for row in rows
        if row.checker.satisfied and row.report.verdict == VERDICT_COUNTEREXAMPLE
    ]
