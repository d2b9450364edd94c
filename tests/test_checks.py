"""Condition checker tests: branch arithmetic, slacks, corollaries, Psi."""

import math

import numpy as np
import pytest

from janbessel import (
    DEFAULT_CONFIG,
    AdmissibilityProbe,
    CheckOutcome,
    DegenerateDenominator,
    JanowskiPair,
    MODE_AS_PRINTED,
    MODE_CONSERVATIVE,
    REGIME_SPLIT_B,
    COROLLARY_IDS,
    UnknownCorollary,
    ZeroC,
    check_convexity_theorem,
    check_corollary,
    check_derivative_theorem,
    check_starlike_theorem,
    check_subordination_theorem,
    eval_psi,
    mccarty_bounds,
)
from janbessel.checks import MODES, PSI_FORMS, THEOREM_NAMES, _root, check_theorem


def slack_map(outcome):
    return dict(outcome.slacks)


def rand_pair(rng):
    B = rng.uniform(-1.0, 0.9)
    A = rng.uniform(B + 0.05, 1.0)
    return JanowskiPair(A, B)


def test_regime_split_constant():
    assert abs(REGIME_SPLIT_B - (3.0 - 2.0 * math.sqrt(2.0))) == 0.0
    assert abs(REGIME_SPLIT_B - 0.171573) < 1e-6


# ---------------------------------------------------------------- membership


def test_subordination_satisfied_case():
    out = check_subordination_theorem(JanowskiPair(0.0, -1.0), 2.0, -1.0)
    assert out.satisfied
    assert out.branch == "low-B/endpoint"
    s = slack_map(out)
    assert s["base"] == 1.0
    assert s["guard"] == 3.0  # |4| vs 1
    assert s["main"] == 0.5


def test_subordination_vertex_failure_case():
    out = check_subordination_theorem(JanowskiPair(0.0, -1.0), 1.0, -1.0)
    assert not out.satisfied
    assert out.branch == "low-B/vertex"
    s = slack_map(out)
    assert s["base"] == 0.0
    assert s["main"] == -1.0 / 64.0


def test_subordination_c_zero_high_b():
    out = check_subordination_theorem(JanowskiPair(1.0, 0.5), 5.0, 0.0)
    assert out.satisfied
    assert out.branch == "high-B/endpoint"
    assert slack_map(out)["base"] == 4.0


def test_subordination_high_b_frozen_case():
    out = check_subordination_theorem(JanowskiPair(0.8, 0.3), 4.0, 1.0)
    assert out.satisfied
    assert out.branch == "high-B/endpoint"
    s = slack_map(out)
    assert abs(s["base"] - 1.83) < 1e-14
    assert abs(s["guard"] - 10.906675) < 1e-12
    assert abs(s["main"] - 8.41682553482021) < 1e-12


def test_regime_boundary_goes_to_low_b_with_note():
    out = check_subordination_theorem(JanowskiPair(0.5, REGIME_SPLIT_B), 3.0, 1.0)
    assert out.branch.startswith("low-B/")
    assert any("regime split" in note for note in out.notes)
    # A hair above goes high-B without the note.
    out2 = check_subordination_theorem(
        JanowskiPair(0.5, REGIME_SPLIT_B + 1e-9), 3.0, 1.0
    )
    assert out2.branch.startswith("high-B/")
    assert not out2.notes


def test_derivative_is_kappa_shift_of_membership():
    out = check_derivative_theorem(JanowskiPair(0.0, -1.0), 1.0, -1.0)
    assert out.satisfied
    s = slack_map(out)
    assert (s["base"], s["guard"], s["main"]) == (1.0, 3.0, 0.5)
    rng = np.random.default_rng(67)
    for _ in range(25):
        pair = rand_pair(rng)
        kappa = rng.uniform(0.2, 6.0)
        c = rng.uniform(-3.0, 3.0) or 0.5
        a = check_derivative_theorem(pair, kappa, c)
        b = check_subordination_theorem(pair, kappa + 1.0, c)
        assert a.branch == b.branch and a.satisfied == b.satisfied
        # (kappa + 1.0) - 1.0 need not round-trip, so allow ulp noise
        sa, sb = slack_map(a), slack_map(b)
        assert sa.keys() == sb.keys()
        for label in sa:
            assert abs(sa[label] - sb[label]) < 1e-12 * max(1.0, abs(sa[label]))


def test_derivative_failure_case():
    out = check_derivative_theorem(JanowskiPair(0.0, -1.0), 0.1, -2.0)
    assert not out.satisfied
    assert out.branch == "low-B/vertex"
    s = slack_map(out)
    assert abs(s["base"] - 0.1) < 1e-15
    assert abs(s["main"] - (-0.25)) < 1e-15


def test_derivative_rejects_c_zero():
    with pytest.raises(ZeroC):
        check_derivative_theorem(JanowskiPair(0.0, -1.0), 2.0, 0.0)


# Both sides of the two-regime guard overflow to +inf here, so the guard
# slack is inf - inf = NaN while base and main are positive.
OVERFLOW_PAIR = JanowskiPair(1.0, -0.9907585133468555)


@pytest.mark.parametrize("checker", [check_subordination_theorem, check_derivative_theorem])
def test_nan_guard_slack_is_not_satisfied(checker):
    out = checker(OVERFLOW_PAIR, 1e155, 1e155)
    s = slack_map(out)
    assert math.isnan(s["guard"]) and s["base"] > 0.0 and s["main"] > 0.0
    assert not out.satisfied


def test_outcome_verdict_follows_from_slacks():
    assert CheckOutcome(branch="b", slacks=[("x", 0.0), ("y", 2.0)]).satisfied
    assert not CheckOutcome(branch="b", slacks=[("x", 0.0), ("y", -1e-300)]).satisfied
    assert not CheckOutcome(branch="b", slacks=[("x", 1.0), ("y", math.nan)]).satisfied
    assert not CheckOutcome(branch="b", slacks=[]).satisfied
    with pytest.raises(TypeError):
        CheckOutcome(satisfied=True, branch="b", slacks=[])


def test_branch_exclusivity_property():
    rng = np.random.default_rng(71)
    labels = {"low-B/endpoint", "low-B/vertex", "high-B/endpoint", "high-B/vertex"}
    for _ in range(200):
        pair = rand_pair(rng)
        out = check_subordination_theorem(
            pair, rng.uniform(-1.0, 8.0), rng.uniform(-4.0, 4.0)
        )
        assert out.branch in labels
        # The guard slack measures distance to the branch boundary and is
        # nonnegative whichever side was taken.
        assert slack_map(out)["guard"] >= 0.0
        regime = "low-B" if pair.B <= REGIME_SPLIT_B else "high-B"
        assert out.branch.startswith(regime)


def test_slack_flip_is_metamorphic():
    # Crossing the binding inequality flips the verdict while the branch and
    # the other slacks stay put.
    good = check_subordination_theorem(JanowskiPair(0.0, -1.0), 2.0, -1.8)
    bad = check_subordination_theorem(JanowskiPair(0.0, -1.0), 2.0, -2.2)
    assert good.satisfied and not bad.satisfied
    assert good.branch == bad.branch == "low-B/endpoint"
    assert abs(slack_map(good)["main"] - 0.1) < 1e-14
    assert abs(slack_map(bad)["main"] - (-0.1)) < 1e-14
    assert slack_map(good)["base"] == slack_map(bad)["base"] == 1.0


def test_c_zero_always_satisfied_at_kappa_one():
    rng = np.random.default_rng(73)
    for _ in range(40):
        pair = rand_pair(rng)
        kappa = rng.uniform(1.0, 9.0)
        assert check_subordination_theorem(pair, kappa, 0.0).satisfied
        assert check_starlike_theorem(pair, kappa, 0.0).satisfied
        # 1 + z u''/u' is undefined at c = 0, where u' vanishes identically.
        assert not check_convexity_theorem(pair, kappa, 0.0).satisfied


# ----------------------------------------------------------- convexity family


def test_convexity_c_zero_case():
    # u' vanishes identically at c = 0: the functional, and the condition
    # set, are undefined there, in both modes.
    for mode in (MODE_CONSERVATIVE, MODE_AS_PRINTED):
        out = check_convexity_theorem(JanowskiPair(1.0, -1.0), 3.0, 0.0, mode=mode)
        assert not out.satisfied
        assert out.branch == "c=0" and out.slacks == []
        assert out.notes == ["u' vanishes identically at c = 0, so 1 + z u''/u' is undefined"]
    # As printed, out of regime takes precedence; conservative mode has no gate.
    pair = JanowskiPair(0.5, 0.2)
    assert check_convexity_theorem(pair, 3.0, 0.0, mode=MODE_AS_PRINTED).branch == "out-of-regime"
    assert check_convexity_theorem(pair, 3.0, 0.0).branch == "c=0"


def test_convexity_literal_case_both_modes():
    pair = JanowskiPair(1.0, 0.0)
    cons = check_convexity_theorem(pair, 2.0, 1.0)
    prnt = check_convexity_theorem(pair, 2.0, 1.0, mode=MODE_AS_PRINTED)
    assert cons.satisfied and prnt.satisfied
    # X = 4, x = 1/4, Y = 2, y = 1/4; the literal product 8 - (1/16 - 1/2).
    assert cons.slacks == [("coefficient-positivity", 3.75), ("factor-positivity", 1.75)]
    assert prnt.slacks == [("coefficient-positivity", 3.75), ("product-domination", 8.4375)]


def test_convexity_modes_disagree_where_coupling_dominates():
    # Here the coefficient condition holds (slack 1.5); the second condition
    # decides.  The factor Y - y = 0 - 9/2 fails, while the literal product
    # 0 - (9/4 - 7) holds because it subtracts the coupling term.
    pair = JanowskiPair(0.5, -0.5)
    cons = check_convexity_theorem(pair, 0.0, 8.0)
    prnt = check_convexity_theorem(pair, 0.0, 8.0, mode=MODE_AS_PRINTED)
    assert not cons.satisfied and prnt.satisfied
    assert cons.slacks == [("coefficient-positivity", 1.5), ("factor-positivity", -4.5)]
    assert slack_map(prnt)["product-domination"] == 4.75


def test_convexity_out_of_regime():
    # The paper states convexity for -1 <= B <= 0 < A only, and as-printed
    # keeps that gate.  The admissibility lemma needs no gate: conservative
    # mode applies the same two factor slacks as on any other pair.
    cells = {
        JanowskiPair(0.5, 0.2): [("coefficient-positivity", 6.1), ("factor-positivity", 25.0 / 6.0)],
        JanowskiPair(-0.1, -0.5): [("coefficient-positivity", 3.74375), ("factor-positivity", 6.69375)],
    }
    for pair, slacks in cells.items():
        out = check_convexity_theorem(pair, 5.0, 1.0, mode=MODE_AS_PRINTED)
        assert not out.satisfied and out.branch == "out-of-regime" and out.slacks == []
        assert out.notes == [f"condition set requires -1 <= B <= 0 < A <= 1, got A={pair.A}, B={pair.B}"]
        out = check_convexity_theorem(pair, 5.0, 1.0)
        assert out.satisfied and out.branch == MODE_CONSERVATIVE and out.notes == []
        assert out.slacks == slacks


def test_convexity_mode_validation():
    with pytest.raises(ValueError):
        check_convexity_theorem(JanowskiPair(1.0, -1.0), 2.0, 1.0, mode="loose")


def test_starlike_c_zero_case():
    # z u = z at c = 0: the functional is 1, whose margin in the pair's
    # region is (A - B) / (1 + |B|), for a half-plane and a disk alike.
    for mode in MODES:
        out = check_starlike_theorem(JanowskiPair(1.0, -1.0), 2.0, 0.0, mode=mode)
        assert out.satisfied and out.branch == "c=0"
        assert out.slacks == [("identity-margin", 1.0)]
        # Y = kappa - 1 + 1 - A + B = -0.3 < 0 here, which the c != 0 set rejects.
        out = check_starlike_theorem(JanowskiPair(0.5, 0.0), 0.2, 0.0, mode=mode)
        assert out.satisfied and out.slacks == [("identity-margin", 0.5)]
        out = check_starlike_theorem(JanowskiPair(0.5, -0.5), -0.5, -0.0, mode=mode)
        assert out.satisfied and out.slacks == [("identity-margin", 1.0 / 1.5)]


def test_starlike_literal_case():
    # Y = y = 1: the factor slack is exactly 0, which is satisfied (c != 0).
    out = check_starlike_theorem(JanowskiPair(0.0, -1.0), 1.5, -1.0)
    assert out.satisfied
    assert out.slacks == [("coefficient-positivity", 2.0), ("factor-positivity", 0.0)]
    prnt = check_starlike_theorem(JanowskiPair(0.0, -1.0), 1.5, -1.0, mode=MODE_AS_PRINTED)
    assert prnt.satisfied and slack_map(prnt)["product-domination"] == 0.5


def test_starlike_failure_case():
    out = check_starlike_theorem(JanowskiPair(1.0, 0.0), 0.0, 10.0)
    assert not out.satisfied
    assert slack_map(out)["coefficient-positivity"] == -1.5


def test_starlike_modes_use_different_envelopes():
    # kappa - 1 = 2: X = 7/2, x = 1, Y = 5/2, y = 1.  The literal product
    # 35/4 - (x y (A - B) + |coupling|) = 35/4 - (1/2 + 1).
    pair = JanowskiPair(0.5, 0.0)
    cons = check_starlike_theorem(pair, 3.0, 2.0)
    prnt = check_starlike_theorem(pair, 3.0, 2.0, mode=MODE_AS_PRINTED)
    assert cons.satisfied and prnt.satisfied
    assert cons.slacks == [("coefficient-positivity", 2.5), ("factor-positivity", 1.5)]
    assert slack_map(prnt)["product-domination"] == 7.25


# ------------------------------------------------------------------ corollaries


def test_halfplane_c_ratio_corollary():
    out = check_corollary("halfplane-c-ratio", 1.5, -1.0)
    assert out.satisfied and out.branch == "direct"
    assert out.conclusion_bound == 0.5
    assert out.implied_pair == JanowskiPair(0.0, -1.0)
    s = slack_map(out)
    assert s["c-sign"] == 1.0 and s["kappa-margin"] == 0.0


def test_halfplane_c_ratio_rejections():
    assert not check_corollary("halfplane-c-ratio", 1.4, -1.0).satisfied
    out = check_corollary("halfplane-c-ratio", 9.0, 2.0)
    assert not out.satisfied  # c > 0
    assert out.implied_pair is None


def test_halfplane_c_ratio_degenerate_bound_note():
    out = check_corollary("halfplane-c-ratio", 9.0, 1.0)
    assert out.conclusion_bound is None
    assert any("c = 1" in n for n in out.notes)


def test_re_half_corollary():
    out = check_corollary("re-half", 1.0, -1.0)
    assert out.satisfied and out.branch == "c<=0"
    assert slack_map(out)["kappa-margin"] == 0.0
    assert out.implied_pair == JanowskiPair(0.0, -1.0)
    assert out.conclusion_bound == 0.5
    pos = check_corollary("re-half", 2.0, 1.5)
    assert pos.satisfied and pos.branch == "c>=0"
    assert abs(slack_map(pos)["kappa-margin"] - 0.25) < 1e-15
    assert not check_corollary("re-half", 1.5, 1.5).satisfied


def test_re_half_stays_literal_for_strongly_negative_c():
    # The printed condition (kappa >= 1 for c <= 0) holds here even though
    # the conclusion is numerically false on the disk; the checker reports
    # the printed condition and the sampling verifier reports the failure
    # (see test_verify.py::test_corollary_conclusion_fails_at_strongly_negative_c).
    assert check_corollary("re-half", 1.0, -3.0).satisfied


def test_cc_order_corollary():
    out = check_corollary("cc-order", 1.0, -2.0)
    assert out.satisfied and out.branch == "c<-1"
    assert slack_map(out)["kappa-margin"] == 0.0
    assert out.implied_pair == JanowskiPair(0.0, -1.0)
    assert out.conclusion_bound == 0.5


def test_cc_order_at_minus_one_skips_undefined_term():
    out = check_corollary("cc-order", 0.5, -1.0)
    assert out.satisfied and out.branch == "c=-1"
    assert any("undefined at c = -1" in n for n in out.notes)
    assert out.implied_pair == JanowskiPair(1.0, -1.0)
    assert out.conclusion_bound == 0.0


def test_cc_order_out_of_range():
    out = check_corollary("cc-order", 5.0, -0.5)
    assert not out.satisfied and out.branch == "out-of-range"


def test_deriv_re_half_corollary():
    out = check_corollary("deriv-re-half", 0.4, 1.0)
    assert not out.satisfied
    assert abs(slack_map(out)["kappa-margin"] - (-0.1)) < 1e-15
    assert check_corollary("deriv-re-half", 0.5, 1.0).satisfied
    zero = check_corollary("deriv-re-half", 5.0, 0.0)
    assert not zero.satisfied and zero.branch == "out-of-range"


def test_check_theorem_dispatches_to_each_checker():
    direct = {
        "subordination": lambda pair, kappa, c, mode: check_subordination_theorem(pair, kappa, c),
        "derivative": lambda pair, kappa, c, mode: check_derivative_theorem(pair, kappa, c),
        "convexity": lambda pair, kappa, c, mode: check_convexity_theorem(pair, kappa, c, mode=mode),
        "starlike": lambda pair, kappa, c, mode: check_starlike_theorem(pair, kappa, c, mode=mode),
    }
    assert tuple(direct) == THEOREM_NAMES
    rng = np.random.default_rng(97)
    for _ in range(40):
        pair = rand_pair(rng)
        kappa = rng.uniform(-0.5, 6.0)
        c = rng.uniform(-4.0, 4.0)
        for name, checker in direct.items():
            for mode in MODES:
                assert check_theorem(name, pair, kappa, c, mode) == checker(pair, kappa, c, mode)


def test_check_theorem_unknown_name():
    with pytest.raises(ValueError):
        check_theorem("starlike-zu", JanowskiPair(0.0, -1.0), 2.0, -1.0)


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("name", THEOREM_NAMES)
@pytest.mark.parametrize("bad", NON_FINITE)
def test_theorem_checkers_reject_non_finite_kappa_and_c(name, bad):
    pair = JanowskiPair(0.5, -0.5)
    with pytest.raises(ValueError, match="must be finite"):
        check_theorem(name, pair, bad, -1.0)
    with pytest.raises(ValueError, match="must be finite"):
        check_theorem(name, pair, 2.0, bad)


@pytest.mark.parametrize("which", COROLLARY_IDS)
@pytest.mark.parametrize("bad", NON_FINITE)
def test_corollaries_reject_non_finite_kappa_and_c(which, bad):
    with pytest.raises(ValueError, match="must be finite"):
        check_corollary(which, bad, -1.0)
    with pytest.raises(ValueError, match="must be finite"):
        check_corollary(which, 2.0, bad)


@pytest.mark.parametrize("c", [-1e16, -1e17, -1e300])
@pytest.mark.parametrize("which", ["halfplane-c-ratio", "cc-order"])
def test_c_dependent_corollary_at_large_negative_c_has_no_implied_pair_once_a_rounds_to_minus_one(which, c):
    # halfplane-c-ratio's A = -(c+1)/(c-1) rounds to -1 from c = -1e16 on,
    # cc-order's A = -(c+2)/c from c = -1e17 on; -1 is no Janowski A for B = -1.
    out = check_corollary(which, 1e40, c)
    if which == "cc-order" and c == -1e16:
        assert -1.0 < out.implied_pair.A < -0.999 and out.implied_pair.B == -1.0
        assert out.conclusion_bound == (c + 1.0) / c
        return
    assert out.implied_pair is None and out.conclusion_bound is None
    assert any("rounds to -1" in note for note in out.notes)
    assert out.satisfied == (c > -1e300)  # c^2 overflows at -1e300


def test_unknown_corollary():
    with pytest.raises(UnknownCorollary):
        check_corollary("re-quarter", 1.0, 1.0)


# ------------------------------------------------------------------- McCarty


def test_mccarty_equalities_at_origin():
    mb = mccarty_bounds(0.0, 0j, DEFAULT_CONFIG)
    assert abs(mb.modulus.bound - 1.0) < 1e-12
    assert abs(mb.modulus.observed - 1.0) < 1e-12
    assert abs(mb.real_part.bound - 1.0) < 1e-12
    assert abs(mb.real_part.observed - 1.0) < 1e-12
    assert abs(mb.derivative.bound - 1.0 / 6.0) < 1e-12
    assert abs(mb.derivative.observed - 1.0 / 6.0) < 1e-12
    assert mb.all_hold()
    assert any("2 Re i_p(z) - 1" in n for n in mb.notes)


def test_mccarty_frozen_interior_case():
    mb = mccarty_bounds(1.0, 0.5 + 0j, DEFAULT_CONFIG)
    assert abs(mb.modulus.bound - 1.4) < 1e-12
    assert abs(mb.modulus.observed - 1.050901171492495) < 1e-12
    assert abs(mb.real_part.bound - (5.0 / 9.0)) < 1e-12
    assert abs(mb.real_part.observed - 1.050901171492495) < 1e-12
    assert abs(mb.derivative.bound - 1.2242248255388777) < 1e-12
    assert abs(mb.derivative.observed - 0.1036214093403369) < 1e-12
    assert mb.all_hold()


def test_mccarty_random_property():
    rng = np.random.default_rng(83)
    for _ in range(60):
        p = rng.uniform(0.0, 4.0)
        r = rng.uniform(0.0, 0.99)
        z = r * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        assert mccarty_bounds(p, complex(z), DEFAULT_CONFIG).all_hold()


def test_mccarty_lower_bound_fails_as_printed_for_negative_orders():
    # The real-part lower bound is evaluated exactly as printed.  Its
    # numerator grows like p + 6 while the denominator grows like 4p + 6,
    # so at z = 0 the bound is (p+6)/(4p+6) > 1 for any p < 0 while the
    # function value is exactly 1.  The checker reports that honestly.
    mb = mccarty_bounds(-0.25, 0j, DEFAULT_CONFIG)
    assert mb.real_part.bound > 1.0
    assert abs(mb.real_part.observed - 1.0) < 1e-15
    assert not mb.real_part.holds
    assert not mb.all_hold()
    assert mb.modulus.holds


def test_mccarty_negative_order_note():
    note = "real-part bound exceeds Re i_p(0) = 1 for -1/2 <= p < 0 and is not claimed there"
    negative = mccarty_bounds(-0.25, 0j, DEFAULT_CONFIG)
    assert note in negative.notes
    assert abs(negative.real_part.bound - 1.15) < 1e-12
    assert negative.real_part.observed == 1.0
    assert not negative.real_part.holds
    assert note not in mccarty_bounds(0.0, 0j, DEFAULT_CONFIG).notes


def test_mccarty_preconditions():
    with pytest.raises(ValueError):
        mccarty_bounds(-0.6, 0.5 + 0j, DEFAULT_CONFIG)
    with pytest.raises(ValueError):
        mccarty_bounds(0.0, 1.0 + 0j, DEFAULT_CONFIG)
    for z in (complex(math.nan, 0.0), complex(0.0, math.nan)):
        with pytest.raises(ValueError):
            mccarty_bounds(1.0, z, DEFAULT_CONFIG)


# ------------------------------------------------------------------------ Psi


def probe(rho=0.0, sigma=-0.5, mu=0.0, nu=0.0, z=0j):
    return AdmissibilityProbe(rho=rho, sigma=sigma, mu=mu, nu=nu, z=z)


def test_psi_reference_probe_is_minus_one_exactly():
    v = eval_psi("subordination", JanowskiPair(0.0, -1.0), 2.0, -1.0, probe())
    assert v == (-1.0 + 0.0j)


def test_psi_c_zero_reductions():
    v = eval_psi("subordination", JanowskiPair(0.5, 0.0), 2.0, 0.0, probe())
    assert v == (-1.5 + 0j)  # -kappa/2 - (1+B)/(2(1-B))
    v2 = eval_psi("subordination", JanowskiPair(0.3, -1.0), 3.0, 0.0, probe())
    assert v2 == (-1.5 + 0j)  # B = -1 leaves only kappa sigma


def test_psi_convexity_reference_probe():
    v = eval_psi("convexity", JanowskiPair(1.0, -1.0), 1.0, 0.0, probe())
    assert v == (-0.5 + 0j)


def test_psi_real_part_ignores_nu():
    rng = np.random.default_rng(89)
    for _ in range(20):
        pair = rand_pair(rng)
        kappa = rng.uniform(0.5, 5.0)
        c = rng.uniform(-3.0, 3.0)
        rho = rng.uniform(-2.0, 2.0)
        sigma = -(1.0 + rho * rho) / 2.0 - rng.uniform(0.0, 1.0)
        z = complex(0.3 * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
        base = eval_psi("subordination", pair, kappa, c, probe(rho, sigma, 0.1, 0.0, z))
        bent = eval_psi("subordination", pair, kappa, c, probe(rho, sigma, 0.1, 3.7, z))
        assert base.real == bent.real
        assert abs(bent.imag - (base.imag + 3.7)) < 1e-12


def test_psi_degenerate_denominator():
    pair = JanowskiPair(1.0, 1.0 - 1e-15)
    with pytest.raises(DegenerateDenominator):
        eval_psi("subordination", pair, 2.0, 1.0, probe())


@pytest.mark.parametrize("form", PSI_FORMS)
@pytest.mark.parametrize("bad", NON_FINITE)
def test_psi_rejects_non_finite_kappa_and_c(form, bad):
    # As the checkers and admissibility_scan do: no silent NaN or -inf.
    pair = JanowskiPair(0.5, -0.5)
    for kappa, c in ((bad, 1.0), (bad, 0.0), (2.0, bad)):
        with pytest.raises(ValueError, match="must be finite"):
            eval_psi(form, pair, kappa, c, probe())


def test_psi_unknown_form():
    with pytest.raises(ValueError):
        eval_psi("starlike", JanowskiPair(0.0, -1.0), 2.0, -1.0, probe())


def test_probe_invariants_enforced():
    with pytest.raises(ValueError):
        probe(rho=0.0, sigma=-0.3)  # needs sigma <= -1/2
    with pytest.raises(ValueError):
        probe(sigma=-0.5, mu=0.6)  # sigma + mu > 0
    with pytest.raises(ValueError):
        probe(z=1.0 + 0j)  # |z| >= 1
    with pytest.raises(ValueError):
        probe(z=complex(math.nan, 0.0))
    for name in ("rho", "sigma", "mu", "nu"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^probe field {name} must be finite$"):
                probe(**{name: value})
    # Boundary values are allowed.
    probe(rho=1.0, sigma=-1.0, mu=1.0)


def test_root_stops_once_the_bracket_is_width_wide():
    # f falls through 0 at 0.2^(1/3).  With width 0 the steps run to an exact
    # zero or a one-ulp bracket; with width w they stop at the first bracket
    # at most w wide, whose ends were both evaluated (or given).
    root = 0.2 ** (1.0 / 3.0)

    def run(width):
        seen = []

        def f(t):
            seen.append(t)
            return 0.2 - t**3

        return _root(f, 0.0, 1.0, 0.2, -0.8, width), seen

    exact, steps = run(0.0)
    assert exact == _root(lambda t: 0.2 - t**3, 0.0, 1.0, 0.2, -0.8)
    assert abs(exact - root) <= 2.0 * math.ulp(root)
    for width in (1e-2, 1e-6, 1e-12):
        lo, seen = run(width)
        assert lo in seen and 0.2 - lo**3 > 0.0
        hi = min(t for t in seen + [1.0] if t > lo)
        assert hi - lo <= width and 0.2 - hi**3 <= 0.0, width
        assert len(seen) <= len(steps)
    assert len(run(1e-2)[1]) < len(steps)
    assert run(1.0) == (0.0, [])  # the bracket is already that narrow
    # An exact zero ends the search whatever the width; a NaN moves hi.
    assert _root(lambda t: 0.5 - t, 0.0, 1.0, 0.5, -0.5, 1e-3) == 0.5
    lo = _root(lambda t: 0.2 - t**3 if t < 0.7 else math.nan, 0.0, 1.0, 0.2, math.nan, 1e-9)
    assert root - 1e-9 <= lo < root
