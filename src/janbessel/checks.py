"""Closed-form sufficient conditions for Janowski membership of the series.

Every checker here evaluates finitely many inequalities in (A, B, kappa, c)
and reports a per-inequality slack (>= 0 means the inequality holds), the
branch of the condition set that applied, and free-form notes.  The verdict
is not stored: CheckOutcome.satisfied is derived from the slacks, True
exactly when there is at least one and every one is >= 0.  Checkers are
sufficient conditions: `satisfied` guarantees the geometric conclusion, while
`not satisfied` is silent, and the sampling verifier is the ground truth on
the other side.  Every checker raises ValueError for a non-finite kappa or c.

Condition families
------------------
* Membership of u itself (check_subordination_theorem) and of the normalized
  derivative (-4 kappa / c) u' (check_derivative_theorem) share one condition
  set, the derivative's at kappa in place of kappa - 1 (the order shift of
  differentiation).  The paper prints it as two regimes split at
  B* = 3 - 2*sqrt(2); they differ in one coefficient r(B), continuous at B*,
  and in the positive scale of the guard that picks an endpoint or a vertex
  bound for the same quadratic minimum (_two_regime_conditions).
* Janowski convexity of u (check_convexity_theorem) and starlikeness of
  z * u (check_starlike_theorem) share one condition set, starlike at kappa - 1
  (z (z u_p)' / (z u_p) = 1 + z u''_{p-1} / u'_{p-1}).  Both accept a `mode`:
  "conservative" (default) is the admissibility lemma's exact condition on every
  pair, two factor slacks; "as-printed" keeps the paper's statement, product
  inequalities and convexity's gate -1 <= B <= 0 < A, which sampling refutes.
* check_corollary evaluates four ready-made half-plane specializations.
* PROPERTIES maps each selector (SELECTORS: u, deriv-normalized, convexity,
  starlike-zu) to its theorem (THEOREM_NAMES), its corollaries, its Psi form
  and its series shift: the one table of which condition set a theorem
  applies at which kappa (kappa + shift - 1), read by the checkers and by
  `verify`'s kernel rows alike.
* mccarty_bounds evaluates three classical pointwise bounds for the modified
  spherical case (b = 2, c = -1).

Cells and columns
-----------------
The two condition sets (_two_regime_conditions, _convexity_conditions) are
written once with plain operators, as _psi_formula is, and choose their
branches through a `where` argument: a scalar checker passes Python floats
and _pick, and a region scan passes numpy columns of kappa and c and
numpy.where (_check_columns).  The elementwise IEEE operations are the same
in the same order, so a column cell's slacks are the scalar checker's bits.
Where a theorem's condition set does not apply (_off_set: c = 0, or the
as-printed convexity gate) the scalar checker alone decides.  numpy is
imported only by _check_columns, when first called.

The admissibility functional
----------------------------
eval_psi exposes the functional Psi whose negativity on the admissible set
{ (i rho, sigma, mu + i nu; z) : sigma <= -(1 + rho^2)/2, sigma + mu <= 0 }
is the engine behind the membership conditions: if Re Psi < 0 there, the
transformed function has positive real part, which is membership (Miller
and Mocanu's admissibility lemma).  admissibility_scan returns the exact
supremum of Re Psi over the whole set, or +inf, in closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .bessel import BesselParams, EvalConfig, DEFAULT_CONFIG, eval_u
from .geometry import DegenerateDenominator, JanowskiPair

# The two condition regimes meet here; the boundary itself is served by the
# low-B branch (the high-B set covers it as well).
REGIME_SPLIT_B = 3.0 - 2.0 * math.sqrt(2.0)

# |observed - bound| within this counts as (boundary) equality for the
# pointwise bounds.
BOUNDARY_EQUALITY_TOL = 1e-12

# Probe invariants are checked with this much slack so probes built from
# rounded arithmetic are not rejected at the constraint boundary.
PROBE_SLACK = 1e-12

MODE_CONSERVATIVE = "conservative"
MODE_AS_PRINTED = "as-printed"
MODES = (MODE_CONSERVATIVE, MODE_AS_PRINTED)

PSI_SUBORDINATION = "subordination"
PSI_CONVEXITY = "convexity"
PSI_FORMS = (PSI_SUBORDINATION, PSI_CONVEXITY)

COROLLARY_HALFPLANE_C_RATIO = "halfplane-c-ratio"
COROLLARY_RE_HALF = "re-half"
COROLLARY_CC_ORDER = "cc-order"
COROLLARY_DERIV_RE_HALF = "deriv-re-half"
COROLLARY_IDS = (
    COROLLARY_HALFPLANE_C_RATIO,
    COROLLARY_RE_HALF,
    COROLLARY_CC_ORDER,
    COROLLARY_DERIV_RE_HALF,
)

# The property functionals the sampling verifier tests (see `verify`).
SELECTOR_U = "u"
SELECTOR_DERIV = "deriv-normalized"
SELECTOR_CONVEXITY = "convexity"
SELECTOR_STARLIKE = "starlike-zu"


class Property(NamedTuple):
    """A selector's theorem, its half-plane corollaries (fixed-pair ones first),
    its Psi form and its series shift.  The selector samples the form's
    functional of the series at kappa + shift (`verify`), and the theorem is
    the form's condition set one order down, at kappa + shift - 1.
    """

    theorem: str
    corollaries: tuple[str, ...]
    form: str
    shift: int


PROPERTIES = {
    SELECTOR_U: Property(
        "subordination", (COROLLARY_RE_HALF, COROLLARY_HALFPLANE_C_RATIO), PSI_SUBORDINATION, 0
    ),
    SELECTOR_DERIV: Property(
        "derivative", (COROLLARY_DERIV_RE_HALF, COROLLARY_CC_ORDER), PSI_SUBORDINATION, 1
    ),
    SELECTOR_CONVEXITY: Property("convexity", (), PSI_CONVEXITY, 1),
    SELECTOR_STARLIKE: Property("starlike", (), PSI_CONVEXITY, 0),
}
SELECTORS = tuple(PROPERTIES)
_THEOREMS = {prop.theorem: prop for prop in PROPERTIES.values()}
THEOREM_NAMES = tuple(_THEOREMS)
# The theorems whose checkers read `mode`, the convexity form's; the others ignore it.
MODE_THEOREMS = tuple(name for name, prop in _THEOREMS.items() if prop.form == PSI_CONVEXITY)


class ZeroC(ValueError):
    """The derivative-side conditions are undefined at c = 0."""


class UnknownCorollary(ValueError):
    """Corollary identifier outside COROLLARY_IDS."""


@dataclass
class CheckOutcome:
    """Result of one condition checker.

    branch names the condition branch that applied (for the two-regime
    family, "<regime>/<endpoint|vertex>").  implied_pair and
    conclusion_bound are filled by corollaries that fix their own region.
    The verdict `satisfied` is a read-only property of the slacks, not a
    field: True exactly when the branch recorded at least one slack and
    every slack is >= 0.  An empty list (a branch where the condition set
    does not apply) is not satisfied, and neither is a NaN slack, since
    NaN is not >= 0.
    """

    branch: str
    slacks: list[tuple[str, float]]
    notes: list[str] = field(default_factory=list)
    implied_pair: JanowskiPair | None = None
    conclusion_bound: float | None = None

    @property
    def satisfied(self) -> bool:
        return bool(self.slacks) and all(s >= 0.0 for _, s in self.slacks)


@dataclass(frozen=True)
class AdmissibilityProbe:
    """A point of the admissible set for eval_psi.

    Invariants (checked with PROBE_SLACK): sigma <= -(1 + rho^2)/2,
    sigma + mu <= 0, |z| < 1.  nu is unconstrained; Re Psi never depends
    on it.
    """

    rho: float
    sigma: float
    mu: float
    nu: float
    z: complex

    def __post_init__(self) -> None:
        for name in ("rho", "sigma", "mu", "nu"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"probe field {name} must be finite")
            object.__setattr__(self, name, value)
        z = complex(self.z)
        if not abs(z) < 1.0:
            raise ValueError(f"probe point z must satisfy |z| < 1, got |z| = {abs(z)}")
        object.__setattr__(self, "z", z)
        if self.sigma > -(1.0 + self.rho**2) / 2.0 + PROBE_SLACK:
            raise ValueError(
                f"probe violates sigma <= -(1 + rho^2)/2: sigma = {self.sigma}, rho = {self.rho}"
            )
        if self.sigma + self.mu > PROBE_SLACK:
            raise ValueError(
                f"probe violates sigma + mu <= 0: sigma = {self.sigma}, mu = {self.mu}"
            )


def _finite_kappa_c(kappa: float, c: float) -> tuple[float, float]:
    """(kappa, c) as floats; ValueError unless both are finite."""
    kappa = float(kappa)
    c = float(c)
    if not (math.isfinite(kappa) and math.isfinite(c)):
        raise ValueError(f"kappa and c must be finite, got kappa = {kappa}, c = {c}")
    return kappa, c


def _pick(cond, a, b):
    """numpy.where for one cell."""
    return a if cond else b


def _two_regime_conditions(A: float, B: float, k, c, where):
    """The subordination condition set at k = kappa_eff: kappa - 1 for u, kappa for the derivative.

    The paper's low-B (B <= B* = REGIME_SPLIT_B) and high-B regimes differ in one
    coefficient r of quad = k^2 + r k: (1+B)/(1-B) and 16 B (1-B)/(1+B)^3, both
    sqrt(2) at B*.  With mixed = (k (A+B)/2 + r (1+B)(1+A)/4) c / (A-B), the guard
    |mixed| >= c^2/8 picks the endpoint over the vertex bound of one quadratic
    minimum; its sides keep the regime's printed positive scale, 4 (1-B) or
    2 (1+B)^3, times A - B.  Returns (branch, slacks, notes); the slacks are base,
    guard and main.  The guard slack is |guard_lhs - guard_rhs|, the distance to
    the branch boundary: >= 0 unless it is NaN, as where both sides overflow.
    """
    notes: list[str] = []
    # The pair's recurring factors, each computed once.
    gap, plus_a, plus_b, minus_b = A - B, 1.0 + A, 1.0 + B, 1.0 - B
    square = 16.0 * gap ** 2
    base = k - plus_b * plus_a * abs(c) / (4.0 * gap)
    if B <= REGIME_SPLIT_B:
        regime, r, scale = "low-B", plus_b / minus_b, 4.0 * minus_b
        if B == REGIME_SPLIT_B:
            notes.append("B sits exactly on the regime split; the low-B condition set is applied")
    else:
        regime, r, scale = "high-B", 16.0 * B * minus_b / plus_b ** 3, 2.0 * plus_b ** 3
    # (A - B) mixed, so that the guard's sides need no division by A - B.
    lead = (k * (A + B) / 2.0 + r * plus_b * plus_a / 4.0) * c
    mixed = lead / gap
    quad = k * k + k * r
    guard_lhs, guard_rhs = scale * abs(lead), scale * gap * c * c / 8.0
    if square:
        envelope = (1.0 - A * A) * (1.0 - B * B) * c * c / square
        vertex = (1.0 - A * B) ** 2 * c * c / square
    else:
        # 16 (A-B)^2 underflows to 0 below A - B ~ 1.5e-162.  A term over it
        # is then its limit: 0 where its numerator is (c = 0), else +inf,
        # which leaves the main slack -inf or NaN, never satisfied.
        envelope = vertex = where(c == 0.0, 0.0, math.inf)
    endpoint = guard_lhs >= guard_rhs
    branch = where(endpoint, f"{regime}/endpoint", f"{regime}/vertex")
    main = where(endpoint, quad - abs(mixed) - envelope, 0.25 * c * c * (quad - vertex) - mixed * mixed)
    return branch, [("base", base), ("guard", abs(guard_lhs - guard_rhs)), ("main", main)], notes


def _convexity_conditions(A: float, B: float, k, c, mode: str, starlike: bool):
    """The convexity condition set at k = kappa_eff, shared by both quotient checkers.

    X = 1 + A - B + k (1+B), x = (1+B)^2 |c| / (4 (A-B)), Y = 1 - A + B + k (1-B) and
    y = (1-B)^2 |c| / (4 (A-B)).  "conservative" records X - x and Y - y: the convexity
    Re Psi's supremum is that of g(t) = -(Y - y + (X - x) t) / 2 on t >= 0 (_convexity_g).
    Both may be 0: the checkers apply this only at c != 0, where the z-part
    c den(r)^2 / (8 (A-B)) never vanishes, so Re Psi < g(t) <= 0 on |z| < 1.
    "as-printed" records X Y - (x y - |coupling|), starlike X Y - (x y (A-B) + |coupling|).
    Returns (branch, slacks, notes) as _two_regime_conditions does.
    """
    X = 1.0 + A - B + k * (1.0 + B)
    x = (1.0 + B) ** 2 * abs(c) / (4.0 * (A - B))
    Y = 1.0 - A + B + k * (1.0 - B)
    y = (1.0 - B) ** 2 * abs(c) / (4.0 * (A - B))
    if mode == MODE_CONSERVATIVE:
        second = ("factor-positivity", Y - y)
    else:
        coupling = abs(
            (B - (A - B) * (1.0 + B * B) + (1.0 - B * B) * B * k) * c / (2.0 * (A - B))
        )
        rhs = x * y * (A - B) + coupling if starlike else x * y - coupling
        second = ("product-domination", X * Y - rhs)
    return mode, [("coefficient-positivity", X - x), second], []


def _conditions(theorem: str, pair: JanowskiPair, kappa, c, mode: str, where):
    """(branch, slacks, notes) of the theorem's condition set at (kappa, c).

    The set is the one of the theorem's Psi form (PROPERTIES), at kappa_eff =
    kappa + shift - 1, written kappa - (1 - shift) so that kappa = -0.0 stays
    -0.0.  Written with plain operators only: kappa and c are Python floats
    with where = _pick, or numpy arrays that broadcast together with where =
    numpy.where, whose branch and slacks are then arrays of the cells'.
    """
    prop = _THEOREMS[theorem]
    k = kappa - (1 - prop.shift)
    if prop.form == PSI_SUBORDINATION:
        return _two_regime_conditions(pair.A, pair.B, k, c, where)
    return _convexity_conditions(pair.A, pair.B, k, c, mode, theorem == "starlike")


def _off_set(theorem: str, pair: JanowskiPair, c: float, mode: str) -> CheckOutcome | None:
    """The theorem's outcome where its condition set does not apply, else None.

    The derivative raises ZeroC at c = 0; convexity reports "c=0" at c = 0
    and, as printed, "out-of-regime" off -1 <= B <= 0 < A, both never
    satisfied; starlike at c = 0 records its exact margin.
    """
    if theorem == "convexity" and mode == MODE_AS_PRINTED and not (pair.B <= 0.0 < pair.A):
        notes = [f"condition set requires -1 <= B <= 0 < A <= 1, got A={pair.A}, B={pair.B}"]
        return CheckOutcome(branch="out-of-regime", slacks=[], notes=notes)
    if c != 0.0 or theorem == "subordination":
        return None
    if theorem == "derivative":
        raise ZeroC("the normalized derivative (-4 kappa / c) u' is undefined at c = 0")
    if theorem == "convexity":
        notes = ["u' vanishes identically at c = 0, so 1 + z u''/u' is undefined"]
        return CheckOutcome(branch="c=0", slacks=[], notes=notes)
    margin = (pair.A - pair.B) / (1.0 + abs(pair.B))
    return CheckOutcome(branch="c=0", slacks=[("identity-margin", margin)])


def _mode_guard(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def _check(theorem: str, pair: JanowskiPair, kappa: float, c: float, mode: str) -> CheckOutcome:
    """One cell: _off_set's outcome where the condition set does not apply, else the set's."""
    _mode_guard(mode)
    kappa, c = _finite_kappa_c(kappa, c)
    return _off_set(theorem, pair, c, mode) or CheckOutcome(*_conditions(theorem, pair, kappa, c, mode, _pick))


def check_subordination_theorem(
    pair: JanowskiPair, kappa: float, c: float
) -> CheckOutcome:
    """Sufficient condition for u itself to map the disk into the pair's region."""
    return _check("subordination", pair, kappa, c, MODE_CONSERVATIVE)


def check_derivative_theorem(
    pair: JanowskiPair, kappa: float, c: float
) -> CheckOutcome:
    """Sufficient condition for (-4 kappa / c) u' to map the disk into the region.

    Same condition family as check_subordination_theorem with kappa in place
    of kappa - 1: the normalized derivative is itself a series of the same
    family with order raised by one, which shifts kappa up accordingly.
    Raises ZeroC at c = 0.
    """
    return _check("derivative", pair, kappa, c, MODE_CONSERVATIVE)


def check_convexity_theorem(
    pair: JanowskiPair, kappa: float, c: float, mode: str = MODE_CONSERVATIVE
) -> CheckOutcome:
    """Sufficient condition for 1 + z u''/u' to map the disk into the region.

    At c = 0, u' vanishes identically and 1 + z u''/u' is undefined, so
    branch "c=0" is never satisfied.  Elsewhere the condition set is
    _convexity_conditions at kappa: in "conservative" mode, on every pair,
    the admissibility lemma's own condition (supremum of the convexity
    Re Psi below 0).  "as-printed" keeps the paper's -1 <= B <= 0 < A:
    other pairs report branch "out-of-regime", never satisfied.
    """
    return _check("convexity", pair, kappa, c, mode)


def check_starlike_theorem(
    pair: JanowskiPair, kappa: float, c: float, mode: str = MODE_CONSERVATIVE
) -> CheckOutcome:
    """Sufficient condition for z * u to be Janowski starlike for the pair.

    The convexity condition set at kappa - 1, through
    z (z u_p)'/(z u_p) = 1 + z u''_{p-1}/u'_{p-1}, valid for every admissible
    pair.  "as-printed" keeps the paper's literal variant: an added coupling
    and the unsquared envelope denominator 16 (A - B).  At c = 0, in both
    modes, z u = z and the functional is the constant 1: branch "c=0" records
    the exact margin of 1 in the pair's region, (A - B) / (1 + |B|), which
    is positive for every admissible pair.
    """
    return _check("starlike", pair, kappa, c, mode)


def check_theorem(
    name: str, pair: JanowskiPair, kappa: float, c: float, mode: str = MODE_CONSERVATIVE
) -> CheckOutcome:
    """Run the theorem checker `name` (one of THEOREM_NAMES).

    mode must be one of MODES for every theorem; only those in
    MODE_THEOREMS read it.
    """
    if name not in _THEOREMS:
        raise ValueError(f"unknown theorem {name!r}; expected one of {THEOREM_NAMES}")
    return _check(name, pair, kappa, c, mode)


def _check_columns(
    theorem: str, pair: JanowskiPair, kappas: list[float], cs: list[float], mode: str
) -> list[CheckOutcome | None]:
    """check_theorem over the rectangle kappas x cs of finite floats, row-major (kappa outer).

    One _conditions call evaluates every cell as numpy columns, under
    errstate, as Python floats overflow silently; each cell's outcome is
    built from .tolist() values, so its slacks are the scalar path's bits,
    and gets its own notes list.  A cell where the condition set does not
    apply (_off_set) is None: check_theorem gives its outcome or raises.
    Raises check_theorem's ValueError for an unknown mode.
    """
    import numpy as np

    _mode_guard(mode)
    applies = []
    for c in cs:
        try:
            applies.append(_off_set(theorem, pair, c, mode) is None)
        except ZeroC:
            applies.append(False)
    shape = (len(kappas), len(cs))
    with np.errstate(all="ignore"):
        branch, slacks, notes = _conditions(
            theorem, pair, np.array(kappas)[:, None], np.array(cs), mode, np.where
        )
    values = [branch] + [value for _, value in slacks]
    branches, *columns = (np.broadcast_to(v, shape).ravel().tolist() for v in values)
    labelled = (zip(itertools.repeat(label), column) for (label, _), column in zip(slacks, columns))
    return [
        CheckOutcome(b, cell, notes[:]) if ok else None
        for b, cell, ok in zip(branches, map(list, zip(*labelled)), itertools.cycle(applies))
    ]


def _half_plane(A: float, bound: float, c: float, notes: list[str]):
    """(JanowskiPair(A, -1), bound), or (None, None) and a note where A rounds to -1."""
    if A > -1.0:
        return JanowskiPair(A=A, B=-1.0), bound
    notes.append(f"implied half-plane undefined at c = {c}: its A rounds to -1")
    return None, None


def check_corollary(which: str, kappa: float, c: float) -> CheckOutcome:
    """Evaluate one of the four ready-made half-plane specializations.

    halfplane-c-ratio: c <= 0 and 2 kappa >= 2 + c^2  gives  Re u > c/(c-1).
    re-half:           kappa >= 1 (c <= 0) or kappa >= 1 + c/2 (c >= 0)
                       gives  Re u > 1/2.
    cc-order:          c <= -1 and kappa >= max{c(c+1)/2, c/(2(c+1))} gives
                       close-to-convexity of order (c+1)/c for the shifted
                       primitive, i.e. Re (-4 kappa/c) u' > (c+1)/c.
    deriv-re-half:     c != 0 and kappa >= |c|/2  gives  Re (-4 kappa/c) u' > 1/2.

    The implied half-plane is reported as implied_pair / conclusion_bound
    whenever it is well defined: not where the c-dependent A rounds to -1.
    """
    kappa, c = _finite_kappa_c(kappa, c)
    notes: list[str] = []
    implied, bound = JanowskiPair(A=0.0, B=-1.0), 0.5
    if which == COROLLARY_HALFPLANE_C_RATIO:
        branch = "direct"
        slacks = [("c-sign", -c), ("kappa-margin", 2.0 * kappa - (2.0 + c * c))]
        implied, bound = None, None
        if c == 1.0:
            notes.append("implied half-plane undefined at c = 1 (bound c/(c-1) degenerates)")
        elif c <= 0.0:
            implied, bound = _half_plane(-(c + 1.0) / (c - 1.0), c / (c - 1.0), c, notes)
        else:
            notes.append("implied half-plane reported only for c <= 0")
    elif which == COROLLARY_RE_HALF:
        if c <= 0.0:
            branch = "c<=0"
            slacks = [("kappa-margin", kappa - 1.0)]
        else:
            branch = "c>=0"
            slacks = [("kappa-margin", kappa - (1.0 + c / 2.0))]
    elif which == COROLLARY_CC_ORDER:
        if c > -1.0:
            return CheckOutcome(
                branch="out-of-range", slacks=[("c-range", -1.0 - c)], notes=["requires c <= -1"]
            )
        if c == -1.0:
            branch = "c=-1"
            threshold = c * (c + 1.0) / 2.0
            notes.append(
                "kappa threshold term c/(2(c+1)) is undefined at c = -1 and was skipped"
            )
        else:
            branch = "c<-1"
            threshold = max(c * (c + 1.0) / 2.0, c / (2.0 * (c + 1.0)))
        slacks = [("kappa-margin", kappa - threshold)]
        implied, bound = _half_plane(-(c + 2.0) / c, (c + 1.0) / c, c, notes)
    elif which == COROLLARY_DERIV_RE_HALF:
        if c == 0.0:
            return CheckOutcome(branch="out-of-range", slacks=[], notes=["requires c != 0"])
        branch = "direct"
        slacks = [("kappa-margin", kappa - abs(c) / 2.0)]
    else:
        raise UnknownCorollary(f"unknown corollary {which!r}; expected one of {COROLLARY_IDS}")
    return CheckOutcome(
        branch=branch, slacks=slacks, notes=notes, implied_pair=implied, conclusion_bound=bound
    )


@dataclass(frozen=True)
class BoundCheck:
    """One pointwise inequality: observed side vs closed-form bound."""

    label: str
    bound: float
    observed: float
    holds: bool


@dataclass
class McCartyBounds:
    """The three classical pointwise bounds for i_p = u_{p,2,-1}."""

    modulus: BoundCheck
    real_part: BoundCheck
    derivative: BoundCheck
    notes: list[str]

    def all_hold(self) -> bool:
        return self.modulus.holds and self.real_part.holds and self.derivative.holds


def mccarty_bounds(
    p: float, z: complex, cfg: EvalConfig = DEFAULT_CONFIG
) -> McCartyBounds:
    """Evaluate the three pointwise bounds for i_p at a disk point.

    With r = |z| and s = 2p + 3 the bounds are

        |i_p(z)|   <=  (4p + 6 + r) / (2 s (1 - r^2)),
        Re i_p(z)  >=  (p + 6 + r) / (4p + 6 + 2r + 2 s r^2),
        |i_p'(z)|  <=  (2 Re i_p(z) - 1) / (2 (1 - r^2))
                       * (r^2 + 4 s r + 1) / (s r^2 + r + s).

    The first numerator of the derivative bound is read as the balanced
    expression (2 Re i_p(z) - 1); it is positive because Re i_p > 1/2 on the
    disk for p >= -1/2.  Equality within BOUNDARY_EQUALITY_TOL counts as
    holding (all three are equalities at z = 0 when p = 0).

    The bounds are claimed for p >= 0.  For -1/2 <= p < 0 the real-part
    bound exceeds Re i_p(0) = 1, so a note says it is not claimed there;
    `holds` still reports what was observed.
    """
    p = float(p)
    if p < -0.5:
        raise ValueError(f"bounds require p >= -1/2, got p = {p}")
    z = complex(z)
    r = abs(z)
    if not r < 1.0:
        raise ValueError(f"bounds require |z| < 1, got |z| = {r}")
    params = BesselParams(p=p, b=2.0, c=-1.0)
    values = eval_u(params, z, order=1, cfg=cfg).values
    ip, dip = values[0], values[1]
    s = 2.0 * p + 3.0

    bound1 = (4.0 * p + 6.0 + r) / (2.0 * s * (1.0 - r * r))
    obs1 = abs(ip)
    bound2 = (p + 6.0 + r) / (4.0 * p + 6.0 + 2.0 * r + 2.0 * s * r * r)
    obs2 = ip.real
    bound3 = (
        (2.0 * ip.real - 1.0)
        / (2.0 * (1.0 - r * r))
        * (r * r + 4.0 * s * r + 1.0)
        / (s * r * r + r + s)
    )
    obs3 = abs(dip)

    notes = ["derivative bound numerator read as the balanced (2 Re i_p(z) - 1)"]
    if p < 0.0:
        notes.append(
            "real-part bound exceeds Re i_p(0) = 1 for -1/2 <= p < 0 and is not claimed there"
        )
    return McCartyBounds(
        modulus=BoundCheck("modulus-upper", bound1, obs1, obs1 <= bound1 + BOUNDARY_EQUALITY_TOL),
        real_part=BoundCheck("real-part-lower", bound2, obs2, obs2 >= bound2 - BOUNDARY_EQUALITY_TOL),
        derivative=BoundCheck("derivative-upper", bound3, obs3, obs3 <= bound3 + BOUNDARY_EQUALITY_TOL),
        notes=notes,
    )


def _subordination_coefficients(A: float, B: float):
    """(d0, d1, e0, e1, h, w) = (1-B, 1+B, 1-A, 1+A, 2(1+B), 8(A-B)), the real
    constants of the subordination Psi = t - h s^2 / den + kappa s + den (e0 + e1 r) c z / w,
    den = d0 + d1 r, read by _psi_formula and admissibility_scan alike."""
    return 1.0 - B, 1.0 + B, 1.0 - A, 1.0 + A, 2.0 * (1.0 + B), 8.0 * (A - B)


def _convexity_coefficients(A: float, B: float, kappa: float, c: float, z):
    """(F1, F2, F3) of the convexity Psi = s + F1 r^2 + F2 r + F3 at the disk point z."""
    f1 = (A - B) / 2.0 + kappa * (1.0 + B) / 2.0 + c * z * (1.0 + B) ** 2 / (8.0 * (A - B))
    f2 = -(A - B) - kappa * B + c * (1.0 - B * B) * z / (4.0 * (A - B))
    f3 = (A - B) / 2.0 - kappa * (1.0 - B) / 2.0 + c * z * (1.0 - B) ** 2 / (8.0 * (A - B))
    return f1, f2, f3


def _psi_formula(which: str, A: float, B: float, kappa: float, c: float, r, s, t, z):
    """Psi at r = i rho, s = sigma, t = mu + i nu and the disk point z.

    Written with plain arithmetic operators only, so the same expression
    serves Python scalars, numpy arrays that broadcast together and mpmath
    numbers.  The convexity form ignores t.  Callers validate `which`.
    """
    if which == PSI_SUBORDINATION:
        d0, d1, e0, e1, h, w = _subordination_coefficients(A, B)
        den = d0 + d1 * r
        return (t - h * s * s / den + kappa * s) + den * (e0 + e1 * r) * c * z / w
    f1, f2, f3 = _convexity_coefficients(A, B, kappa, c, z)
    return s + f1 * r * r + f2 * r + f3


def eval_psi(
    which: str,
    pair: JanowskiPair,
    kappa: float,
    c: float,
    probe: AdmissibilityProbe,
) -> complex:
    """Evaluate the admissibility functional Psi at one probe.

    which = "subordination": the three-slot form

        Psi = t - 2(1+B) s^2 / ((1-B) + (1+B) r) + kappa s
              + ((1-B) + (1+B) r)((1-A) + (1+A) r) c z / (8 (A-B))

    at r = i rho, s = sigma, t = mu + i nu.  which = "convexity": the
    two-slot form

        Psi = s + F1 r^2 + F2 r + F3,
        F1 = (A-B)/2 + kappa (1+B)/2 + c z (1+B)^2 / (8 (A-B)),
        F2 = -(A-B) - kappa B + c (1-B^2) z / (4 (A-B)),
        F3 = (A-B)/2 - kappa (1-B)/2 + c z (1-B)^2 / (8 (A-B)),

    at r = i rho, s = sigma (mu and nu unused).  Membership conclusions rest
    on Re Psi < 0 across the whole admissible set.  kappa and c must be finite.
    """
    if which not in PSI_FORMS:
        raise ValueError(f"unknown functional {which!r}; expected one of {PSI_FORMS}")
    kappa, c = _finite_kappa_c(kappa, c)
    A, B = pair.A, pair.B
    r = 1j * probe.rho
    if which == PSI_SUBORDINATION and abs((1.0 - B) + (1.0 + B) * r) < 1e-14:
        raise DegenerateDenominator(
            f"subordination form has a pole at rho = {probe.rho} for B = {B}"
        )
    t = probe.mu + 1j * probe.nu
    return _psi_formula(which, A, B, kappa, c, r, probe.sigma, t, probe.z)


# Re Psi is linear in z, so its sup over the disk lies on the circle: probes sit this far inside.
_INSIDE = 1.0 - 2.0**-50


def _root(f, lo: float, hi: float, f_lo: float, f_hi: float, width: float = 0.0) -> float:
    """A root of f in [lo, hi], given f(lo) > 0 >= f(hi): an exact zero if one is met,
    else lo once the bracket is at most width, or one ulp, wide.  Illinois steps; one
    that would leave the open bracket, or a NaN one, bisects instead.  f(t) > 0 moves
    lo to t and anything else, NaN included, moves hi."""
    side = 0
    for _ in range(200):
        if hi - lo <= width:
            break
        t = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
            if not lo < t < hi:
                break
        f_t = f(t)
        if f_t == 0.0:
            return t
        if f_t > 0.0:
            lo, f_lo, f_hi, side = t, f_t, (f_hi / 2.0 if side > 0 else f_hi), 1
        else:
            hi, f_hi, f_lo, side = t, f_t, (f_lo / 2.0 if side < 0 else f_lo), -1
    return lo


def _subordination_g(A: float, B: float, kappa: float, c: float):
    """(g', slope of g at infinity, z direction at rho) of the subordination form.

    At mu = -sigma, Re Psi = -a sigma^2 + beta sigma + Re(q z) / w with a = h d0 / D,
    beta = kappa - 1, D = |den|^2 = d0^2 + d1^2 t; sup over z: |q| / w = k sqrt(D E),
    k = |c| / w, E = e0^2 + e1^2 t.  Where the vertex in sigma lies below s = -(1+t)/2,
    the sup over sigma rises with t (slope >= beta^2 d1^2 / (4 h d0) > 0), so no
    maximiser lies there: the supremum is that of g(t) = -a s^2 + beta s + k sqrt(D E),
    which is concave, as -s^2 / D and sqrt(D E) are.
    """
    d0, d1, e0, e1, h, w = _subordination_coefficients(A, B)
    beta, k = kappa - 1.0, abs(c) / w

    def slope(t):
        D, E = d0 * d0 + d1 * d1 * t, e0 * e0 + e1 * e1 * t
        a, s = h * d0 / D, -(1.0 + t) / 2.0
        head = a * d1 * d1 * s * s / D + a * s - beta / 2.0
        if k == 0.0:
            return head
        root = math.sqrt(D * E)  # zero only at t = 0 with A = 1, where the z-part's slope is +inf
        return head + (k * (d1 * d1 * E + e1 * e1 * D) / (2.0 * root) if root > 0.0 else math.inf)

    def direction(rho):
        q = (d0 + d1 * 1j * rho) * (e0 + e1 * 1j * rho) * c
        return q.real, -q.imag

    if d1 > 0.0:
        lim = k * d1 * e1 - h * d0 / (4.0 * d1 * d1) - beta / 2.0
    else:  # B = -1: g = -beta (1+t)/2 + k d0 sqrt(E), unbounded also when beta = 0 < k
        lim = math.inf if beta == 0.0 and k > 0.0 else -beta / 2.0
    return slope, lim, direction


def _convexity_g(A: float, B: float, kappa: float, c: float):
    """(g', slope of g at infinity, z direction at rho) of the convexity form.

    With F_j = a_j + b_j z (at z = 1j, F_j = a_j + i b_j), sigma = -(1+t)/2 and
    z = x + i y, Re Psi = -(1+t)/2 - a1 t + a3 + x (b3 - b1 t) - y b2 rho.  The z-part
    b1 r^2 + b2 r + b3 is the square c den(r)^2 / (8 (A-B)), of modulus |b1| t + |b3|
    at r = i rho (b1, b3 have the sign of c), so g = a3 - 1/2 + |b3| + (|b1| - 1/2 - a1) t.
    """
    f1, f2, f3 = _convexity_coefficients(A, B, kappa, c, 1j)
    lim = abs(f1.imag) - 0.5 - f1.real
    return (lambda t: lim), lim, lambda rho: (f3.imag - f1.imag * rho * rho, -f2.imag * rho)


def admissibility_scan(
    which: str, pair: JanowskiPair, kappa: float, c: float
) -> tuple[float, AdmissibilityProbe]:
    """The supremum of Re Psi over the whole admissible set, and a probe.

    Re Psi has slope +1 in mu and none in nu, so mu = -sigma (the convexity
    form ignores mu; its probe has mu = 0) and nu = 0.  It is linear in z, so
    its sup over the disk is a modulus, approached on the circle: the probe's
    z is pulled just inside.  It depends on rho through t = rho^2 only (the
    probe has rho >= 0), and the supremum is that of a concave or linear
    g(t), t >= 0, at sigma = -(1+t)/2 (_subordination_g, _convexity_g): at
    t = 0 or at the one root of g'.

    A finite maximum is eval_psi at the returned probe, bit for bit.  Where
    g's slope at infinity is positive (for the subordination form this takes
    in B = -1 with kappa < 1, unbounded in sigma too), returns (+inf, probe)
    with Re Psi > 0 at the finite probe.  Where that slope is exactly zero and
    g still rises, the supremum is only approached as rho grows; the value
    returned, at t = 2^63, lies below it.  Raises ValueError for an unknown
    form, a non-finite kappa or c, or a non-finite Re Psi at the maximiser.
    """
    if which not in PSI_FORMS:
        raise ValueError(f"unknown functional {which!r}; expected one of {PSI_FORMS}")
    kappa, c = _finite_kappa_c(kappa, c)
    g = _subordination_g if which == PSI_SUBORDINATION else _convexity_g
    slope, lim, direction = g(pair.A, pair.B, kappa, c)

    def probe(t):
        rho = math.sqrt(t)
        sigma = -(1.0 + rho * rho) / 2.0  # from rho, as AdmissibilityProbe checks it
        x, y = direction(rho)
        if max(abs(x), abs(y)) < 2.0**-900:  # x / hypot(x, y) is inexact where x, y are subnormal
            x, y = x * 2.0**900, y * 2.0**900
        m = math.hypot(x, y)
        if not m < math.inf:
            raise ValueError(f"Re Psi is not finite at rho = {rho}")
        z = 0j if m == 0.0 else complex(x / m * _INSIDE, y / m * _INSIDE)
        return AdmissibilityProbe(rho, sigma, -sigma if which == PSI_SUBORDINATION else 0.0, 0.0, z)

    t, f_t, hi = 0.0, slope(0.0), 1.0
    while lim <= 0.0 and f_t > 0.0 and hi < 2.0**64:  # g rises at t: bracket g's peak by doubling
        f_hi = slope(hi)
        if f_hi <= 0.0:
            t = _root(slope, t, hi, f_t, f_hi)
            break
        t, f_t, hi = hi, f_hi, 2.0 * hi
    for _ in range(64):  # unbounded: g(t) >= g(0) + lim t, so double t from where that turns positive
        at = probe(t)
        value = eval_psi(which, pair, kappa, c, at).real
        if lim <= 0.0 or value > 0.0:
            break
        t = 2.0 * t if t > 0.0 else 1.0 - 2.0 * value / lim
    else:
        raise ValueError("Re Psi is unbounded above, yet no probe with Re Psi > 0 was found")
    if lim > 0.0:
        return math.inf, at
    if not math.isfinite(value):
        raise ValueError(f"Re Psi is not finite at its maximiser: {value}")
    return value, at
