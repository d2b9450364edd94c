"""Extreme-value robustness: at extreme magnitudes every entry point returns or
raises a documented exception, and the CLI exits with a documented code.

The draws cross pairs whose A - B runs from 5e-324 up with kappa and c in
{0, +-5e-324, +-1e-300, +-1e155, +-1e300}.  The documented exceptions are the
ValueError family (InvalidKappa, ZeroC, UnknownCorollary and the rest),
NoConvergence and DegenerateDenominator; the CLI exits 0-3.  On the same
values, region scans' column pass gives the scalar checkers' outcomes bit
for bit.
"""

import contextlib
import io
import itertools
import math
import warnings

import pytest

from janbessel.bessel import NoConvergence
from janbessel.checks import (
    COROLLARY_IDS,
    MODE_AS_PRINTED,
    MODES,
    PSI_FORMS,
    REGIME_SPLIT_B,
    THEOREM_NAMES,
    ZeroC,
    _check_columns,
    admissibility_scan,
    check_corollary,
    check_theorem,
)
from janbessel.cli import run
from janbessel.geometry import DegenerateDenominator, JanowskiPair

DOCUMENTED = (ValueError, NoConvergence, DegenerateDenominator)

MAGNITUDES = [0.0] + [s * m for m in (5e-324, 1e-300, 1e155, 1e300) for s in (1.0, -1.0)]

# A - B from the least subnormal up, on both sides of the regime split.
PAIRS = [
    (5e-324, 0.0),
    (0.0, -5e-324),
    (1e-300, -1e-300),
    (1e-170, 0.0),
    (math.nextafter(REGIME_SPLIT_B, 1.0), REGIME_SPLIT_B),
    (1.0, math.nextafter(1.0, 0.0)),
    (math.nextafter(-1.0, 0.0), -1.0),
    (-0.5, -1.0),
    (1.0, -1.0),
]


def _outcome(call):
    """'ok', or the documented exception's class name; anything else fails the test."""
    try:
        call()
    except DOCUMENTED as exc:
        return type(exc).__name__
    return "ok"


def test_library_entry_points_raise_only_documented_exceptions():
    seen = set()
    for kappa, c in itertools.product(MAGNITUDES, MAGNITUDES):
        for corollary in COROLLARY_IDS:
            seen.add(_outcome(lambda: check_corollary(corollary, kappa, c)))
        for A, B in PAIRS:
            pair = JanowskiPair(A, B)
            for theorem, mode in itertools.product(THEOREM_NAMES, MODES):
                outcome = _outcome(lambda: check_theorem(theorem, pair, kappa, c, mode))
                seen.add(outcome)
            for which in PSI_FORMS:
                seen.add(_outcome(lambda: admissibility_scan(which, pair, kappa, c)))
    assert "ok" in seen


def test_tiny_a_minus_b_is_never_satisfied_for_nonzero_c():
    # 16 (A - B)^2 underflows to 0: the envelope and vertex terms are +inf.
    for theorem in ("subordination", "derivative"):
        for A, B in PAIRS[:4]:
            for c in (-1.0, 5e-324, 1e300):
                outcome = check_theorem(theorem, JanowskiPair(A, B), 2.0, c)
                assert not outcome.satisfied, (theorem, A, B, c, outcome)
                assert outcome.slacks[2][0] == "main" and not outcome.slacks[2][1] >= 0.0


def _bits(outcome):
    """Every field of a CheckOutcome, each slack by repr (tells nan, -0.0 and 0.0 apart)."""
    slacks = [(label, repr(value)) for label, value in outcome.slacks]
    return outcome.branch, slacks, outcome.notes, outcome.implied_pair, outcome.conclusion_bound


# Each theorem's branches, and ZeroC, that the column test must meet; the
# quotient theorems also meet their mode's branch, and only as-printed
# convexity keeps the -1 <= B <= 0 < A gate ("out-of-regime").
COLUMN_BRANCHES = {
    "subordination": {"low-B/endpoint", "low-B/vertex", "high-B/endpoint", "high-B/vertex"},
    "derivative": {"low-B/endpoint", "low-B/vertex", "high-B/endpoint", "high-B/vertex", "ZeroC"},
    "convexity": {"c=0"},
    "starlike": {"c=0"},
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("theorem", THEOREM_NAMES)
def test_column_outcomes_are_the_scalar_checkers_bit_for_bit(theorem, mode):
    # The rectangle MAGNITUDES x MAGNITUDES (with kappa = -0.0, whose sign
    # kappa - (1 - shift) keeps) on every pair: overflow at 1e300, subnormal
    # c, 16 (A - B)^2 underflowing to 0 on the first four pairs, B exactly
    # at the regime split (a note) and pairs outside convexity's printed
    # regime.  Each cell is None where check_theorem leaves the condition set
    # (as-printed out-of-regime, c=0, ZeroC), and otherwise every field of its
    # outcome.
    kappas = MAGNITUDES + [-0.0, 0.5, 3.0]
    cs = MAGNITUDES + [-0.0, -2.0, 2.0]
    seen, split_notes, non_finite = set(), 0, 0
    for A, B in PAIRS + [(0.5, -0.5), (0.8, 0.3)]:
        pair = JanowskiPair(A, B)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # overflow is silent, as it is for Python floats
            column = _check_columns(theorem, pair, kappas, cs, mode)
        assert len(column) == len(kappas) * len(cs)
        for (kappa, c), got in zip(itertools.product(kappas, cs), column):
            try:
                want = check_theorem(theorem, pair, kappa, c, mode)
            except ZeroC:
                assert got is None
                seen.add("ZeroC")
                continue
            seen.add(want.branch)
            assert (got is None) == (want.branch in ("out-of-regime", "c=0")), (pair, kappa, c, want)
            if got is not None:
                assert _bits(got) == _bits(want), (pair, kappa, c)
                split_notes += bool(got.notes)
                non_finite += not all(math.isfinite(value) for _, value in got.slacks)
        outcomes = [outcome for outcome in column if outcome is not None]
        assert len({id(outcome.notes) for outcome in outcomes}) == len(outcomes)
    assert COLUMN_BRANCHES[theorem] | ({mode} if theorem in ("convexity", "starlike") else set()) <= seen
    assert ("out-of-regime" in seen) == (theorem == "convexity" and mode == MODE_AS_PRINTED)
    assert non_finite > 0
    assert (split_notes > 0) == (theorem in ("subordination", "derivative"))


def _exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run(argv)


def test_cli_scalar_verbs_exit_with_documented_codes():
    values = [repr(v) for v in MAGNITUDES]
    codes = set()
    for kappa, c in itertools.product(values, values):
        for A, B in PAIRS[:3] + PAIRS[-1:]:
            pair = [f"--A={A!r}", f"--B={B!r}"]
            codes.add(_exit_code(["check", "--theorem", "subordination", *pair, f"--kappa={kappa}", f"--c={c}"]))
        codes.add(_exit_code(["check", "--corollary", "cc-order", f"--kappa={kappa}", f"--c={c}"]))
    for value in values:
        pair = [f"--A={PAIRS[0][0]!r}", f"--B={PAIRS[0][1]!r}"]
        codes.add(_exit_code(["check", "--theorem", "starlike", *pair, "--kappa=2", f"--c={value}",
                              "--mode", "as-printed"]))
        codes.add(_exit_code(["admissibility", "--which", "subordination", *pair, f"--kappa={value}", "--c=-1"]))
        codes.add(_exit_code(["admissibility", "--which", "convexity", *pair, "--kappa=2", f"--c={value}"]))
        codes.add(_exit_code(["eval", f"--p={value}", "--b=2", f"--c={value}", "--z=0.5,0.5", "--order=2"]))
        codes.add(_exit_code(["bounds", f"--p={value}", "--z=0.5,0"]))
    assert codes <= {0, 1, 2, 3} and {0, 1} <= codes, codes
