"""Symbolic and reference checks of the subordination condition set and the series.

checks._two_regime_conditions writes the paper's two printed regimes as one
set that differs only in the coefficient r(B) and the guard's scale.  These
tests hold it to the regimes as the paper prints them: exactly, with sympy
symbols for A, k and c, and numerically at extreme magnitudes.  The
order-shift identity 4 kappa u_p' = -c u_{p+1} is checked coefficient by
coefficient: exactly in sympy, and on the coefficients bessel sums.
"""

import math

import numpy as np
import pytest
import sympy as sp

from janbessel import JanowskiPair
from janbessel.bessel import _coefficients
from janbessel.checks import REGIME_SPLIT_B, _two_regime_conditions, check_theorem

A, K, C = sp.symbols("A k c", real=True)
B_STAR = 3 - 2 * sp.sqrt(2)


def _printed(A, B, k, c, regime=None):
    """The paper's condition set as printed, in B's regime unless one is given.

    Returns a dict of regime, guard_lhs, guard_rhs, mixed, quad, base,
    main_endpoint and main_vertex.  The operations are the printed ones in the
    printed order, with integer literals: exact for sympy values, and for
    floats the IEEE results of the same formulas with float literals.
    """
    gap, plus_a, plus_b, minus_b = A - B, 1 + A, 1 + B, 1 - B
    square = 16 * gap ** 2
    if regime is None:
        regime = "low-B" if B <= REGIME_SPLIT_B else "high-B"
    if regime == "low-B":
        guard_lhs = abs(2 * k * minus_b * (A + B) * c + plus_b ** 2 * plus_a * c)
        guard_rhs = gap / 2 * minus_b * c * c
        mixed = k * (A + B) * c / (2 * gap) + plus_b ** 2 * plus_a * c / (4 * minus_b * gap)
        quad = k * k + k * plus_b / minus_b
    else:
        guard_lhs = abs(k * plus_b ** 3 * (A + B) * c + 8 * B * (1 - B * B) * plus_a * c)
        guard_rhs = c / 4 * c * gap * plus_b ** 3
        mixed = k * (A + B) * c / (2 * gap) + 4 * B * (1 - B * B) * plus_a * c / (plus_b ** 3 * gap)
        quad = k * k + 16 * k * B * minus_b / plus_b ** 3
    envelope = (1 - A * A) * (1 - B * B) * c * c / square
    vertex = (1 - A * B) ** 2 * c * c / square
    return dict(
        regime=regime, guard_lhs=guard_lhs, guard_rhs=guard_rhs, mixed=mixed, quad=quad,
        base=k - plus_b * plus_a * abs(c) / (4 * gap),
        main_endpoint=quad - abs(mixed) - envelope,
        main_vertex=c / 4 * c * (quad - vertex) - mixed * mixed,
    )


def _record(cond, a, b):
    """A `where` that keeps both branches: the symbolic set's choice is left open."""
    return cond, a, b


def _exact(expr):
    """expr with its float literals, all dyadic here, as the rationals they are."""
    expr = expr.xreplace({f: sp.Rational(f) for f in expr.atoms(sp.Float)})
    return expr.replace(sp.Abs, lambda arg: sp.Abs(sp.factor(arg)))


def _same(got, printed):
    return sp.cancel(_exact(got) - _exact(sp.sympify(printed))) == 0


# Rational B on both sides of the split, B = -1 (the half-planes), and the
# split itself as the float the checkers compare with.
SYMBOLIC_B = [sp.Integer(-1), sp.Rational(-1, 2), sp.Rational(1, 8), sp.Float(REGIME_SPLIT_B),
              sp.Rational(1, 4), sp.Rational(3, 4)]


@pytest.mark.parametrize("B", SYMBOLIC_B, ids=str)
def test_one_condition_set_is_the_printed_regime(B):
    with sp.evaluate(False):
        (cond, *labels), slacks, notes = _two_regime_conditions(A, B, K, C, _record)
    want = _printed(A, sp.Rational(B), K, C)
    assert want["regime"] == ("low-B" if B < sp.Rational(1, 4) else "high-B")
    assert labels == [f"{want['regime']}/endpoint", f"{want['regime']}/vertex"]
    assert bool(notes) == (B == REGIME_SPLIT_B)
    # The guard's two sides, each with the printed scale of the regime.
    assert isinstance(cond, sp.GreaterThan)
    assert _same(cond.lhs, want["guard_lhs"]) and _same(cond.rhs, want["guard_rhs"])
    (_, base), (_, guard), (_, (main_cond, main_endpoint, main_vertex)) = slacks
    assert main_cond is cond and _same(base, want["base"])
    assert _same(guard, abs(want["guard_lhs"] - want["guard_rhs"]))
    assert _same(main_endpoint, want["main_endpoint"]) and _same(main_vertex, want["main_vertex"])


def test_the_printed_regimes_meet_at_the_split():
    # quad = k^2 + r k: both printed values of r are sqrt(2) at B* = 3 - 2 sqrt(2),
    # so mixed and quad agree there.  The float split lies 1.9e-16 below B*;
    # B between the two takes the high-B set, which equals the low-B set there.
    low, high = (_printed(A, B_STAR, K, C, regime) for regime in ("low-B", "high-B"))
    for side in (low, high):
        assert sp.radsimp(sp.expand(sp.diff(side["quad"], K).subs(K, 0))) == sp.sqrt(2)
    assert sp.radsimp(sp.expand(sp.together(low["mixed"] - high["mixed"]))) == 0
    assert 0 < B_STAR - sp.Rational(REGIME_SPLIT_B) < sp.Rational(1, 10**15)


def _extreme_cells(rng, n):
    """Seeded (A, B, kappa, c): B = -1 on a fifth, within 1e-16..1e-3 of the
    split on a tenth, A - B down to 1e-12, |kappa| 1e-8..1e8, |c| 1e-300..1e150."""
    u = rng.uniform(size=n)
    B = rng.uniform(-1.0, 1.0, n)
    B[u < 0.2] = -1.0
    near = (u >= 0.2) & (u < 0.3)
    B[near] = REGIME_SPLIT_B + rng.choice([-1.0, 1.0], n)[near] * 10.0 ** rng.uniform(-16.0, -3.0, n)[near]
    gap = 10.0 ** (-12.0 + rng.uniform(size=n) * (np.log10(1.0 - B) + 12.0))
    A = np.minimum(1.0, B + gap)
    kappa = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
    c = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300.0, 150.0, n)
    return zip(A.tolist(), B.tolist(), kappa.tolist(), c.tolist())


def _class(x):
    return "nan" if x != x else ("inf" if math.isinf(x) else "finite")


def test_checkers_match_the_printed_regimes_at_extreme_magnitudes():
    compared = 0
    for a, b, kappa, c in _extreme_cells(np.random.default_rng(29), 6000):
        if not b < a:  # A rounds onto B
            continue
        pair = JanowskiPair(a, b)
        for theorem, k in (("subordination", kappa - 1.0), ("derivative", kappa)):
            out = check_theorem(theorem, pair, kappa, c)
            want = _printed(a, b, k, c)
            lhs, rhs = want["guard_lhs"], want["guard_rhs"]
            side = "endpoint" if lhs >= rhs else "vertex"
            printed = [want["base"], abs(lhs - rhs), want[f"main_{side}"]]
            assert out.branch == f"{want['regime']}/{side}", (a, b, kappa, c)
            assert out.satisfied == all(s >= 0.0 for s in printed), (a, b, kappa, c)
            for (label, got), want in zip(out.slacks, printed):
                assert _class(got) == _class(want), (a, b, kappa, c, label)
                if _class(want) == "finite":
                    assert abs(got - want) <= 1e-9 * max(abs(got), abs(want)), (a, b, kappa, c, label)
            compared += 1
    assert compared > 10000


def _coefficient(m, kappa, c):
    """a_m(kappa) = (-c/4)^m / ((kappa)_m m!), the coefficient of z^m in u."""
    return (-c / 4) ** m / (sp.rf(kappa, m) * sp.factorial(m))


@pytest.mark.parametrize("m", range(9))
def test_the_order_shift_identity_holds_coefficient_by_coefficient(m):
    # The coefficient of z^m in 4 kappa u_p' = -c u_{p+1}, where u_{p+1} is
    # the series at kappa + 1.
    lhs = 4 * K * (m + 1) * _coefficient(m + 1, K, C)
    assert sp.simplify(lhs + C * _coefficient(m, K + 1, C)) == 0


def test_summed_coefficients_satisfy_the_order_shift_identity():
    rng = np.random.default_rng(31)
    compared = 0
    for _ in range(40):
        kappa = float(rng.uniform(0.1, 12.0))
        if rng.uniform() < 0.3:  # negative kappa, at least 0.1 from the poles
            kappa = -float(rng.integers(3)) - float(rng.uniform(0.1, 0.9))
        c = float(rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(-3.0, math.log10(150.0)))
        a, _ = _coefficients(kappa, c, 1, 1e-14, 300)
        shifted, _ = _coefficients(kappa + 1.0, c, 0, 1e-14, 300)
        for m in range(min(len(a) - 1, len(shifted))):
            lhs, rhs = 4.0 * kappa * (m + 1) * a[m + 1], -c * shifted[m]
            assert abs(lhs - rhs) <= 1e-13 * abs(rhs), (kappa, c, m)
            compared += 1
    assert compared > 300
