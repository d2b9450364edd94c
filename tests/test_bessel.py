"""Series evaluator tests: construction, closed forms, residual identities."""

import cmath
import math
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from janbessel import (
    DEFAULT_CONFIG,
    BesselParams,
    EvalConfig,
    InvalidKappa,
    NoConvergence,
    eval_u,
    eval_u_many,
    ode_residual,
    recurrence_residual,
)
from janbessel.bessel import DISK_SLACK, zero_free_radius

SIN_AT_ONE = 0.841470984807897
SINH_AT_ONE = 1.175201193643801

# Residual of the order-2 evaluation pushed through the equation with kappa
# replaced by kappa + 0.5 (p=0, b=2, c=1, z=0.5); frozen from a 40-digit
# independent evaluation of the hypergeometric form.
PERTURBED_RESIDUAL = -0.15848077278993828653


def rand_disk(rng, n, r_min=0.01, r_max=0.999):
    r = rng.uniform(r_min, r_max, n)
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    return r * np.exp(1j * theta)


def rand_params(rng):
    b = rng.uniform(0.0, 3.0)
    kappa = rng.uniform(0.5, 10.0)
    c = rng.uniform(-4.0, 4.0)
    return BesselParams(kappa - (b + 1.0) / 2.0, b, c)


@pytest.mark.parametrize(
    "p,b,expected",
    [(0.0, 2.0, 1.5), (-0.5, 2.0, 1.0), (1.0, 1.0, 2.0), (2.5, 0.0, 3.0)],
)
def test_kappa_formula(p, b, expected):
    params = BesselParams(p, b, 1.0)
    assert params.kappa == expected
    assert params.kappa == p + (b + 1.0) / 2.0


@pytest.mark.parametrize("p,b", [(-1.5, 2.0), (-2.5, 2.0), (-3.5, 2.0), (-2.0, 1.0)])
def test_excluded_kappa_rejected(p, b):
    with pytest.raises(InvalidKappa):
        BesselParams(p, b, 1.0)


def test_excluded_kappa_tolerance_band():
    # Within 1e-9 of an excluded integer: rejected; outside: accepted.
    with pytest.raises(InvalidKappa):
        BesselParams(-1.5 + 5e-10, 2.0, 1.0)
    params = BesselParams(-1.5 + 2e-9, 2.0, 1.0)
    assert abs(params.kappa - 2e-9) < 1e-15
    # Positive integers are fine.
    assert BesselParams(0.5, 2.0, 1.0).kappa == 2.0


def test_params_input_validation():
    with pytest.raises(ValueError):
        BesselParams(float("nan"), 2.0, 1.0)
    with pytest.raises(ValueError):
        BesselParams(0.0, float("inf"), 1.0)
    with pytest.raises(TypeError):
        BesselParams(1j, 2.0, 1.0)


def test_shifted_moves_order_only():
    params = BesselParams(0.0, 2.0, -1.0)
    up = params.shifted(1.0)
    assert (up.p, up.b, up.c) == (1.0, 2.0, -1.0)
    assert up.kappa == params.kappa + 1.0
    with pytest.raises(InvalidKappa):
        BesselParams(-0.5, 2.0, 1.0).shifted(-1.0)  # kappa 1 -> 0


def test_eval_config_validation():
    with pytest.raises(ValueError):
        EvalConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        EvalConfig(rel_tol=1.0)
    with pytest.raises(ValueError):
        EvalConfig(max_terms=3)
    for max_terms in (300.5, math.inf, "300"):
        with pytest.raises(ValueError):
            EvalConfig(max_terms=max_terms)
    assert EvalConfig(max_terms=300.0).max_terms == 300
    cfg = EvalConfig(rel_tol=1e-10, max_terms=50)
    assert cfg.rel_tol == 1e-10 and cfg.max_terms == 50


def test_c_zero_is_constant_one():
    params = BesselParams(0.0, 2.0, 0.0)
    res = eval_u(params, 0.3 + 0.4j, order=3)
    assert res.values[0] == 1.0
    assert res.values[1] == 0.0 and res.values[2] == 0.0 and res.values[3] == 0.0
    zs = np.array([0.0, 0.3 + 0.4j, -0.999, 1j])
    for kappa in (0.2, 1.5, -0.5, -2.7):
        values, _ = eval_u_many(BesselParams(kappa - 1.5, 2.0, 0.0), zs, order=3)
        assert np.all(values[0] == 1.0) and np.all(values[1:] == 0.0)


def test_normalization_at_origin():
    rng = np.random.default_rng(7)
    for _ in range(20):
        params = rand_params(rng)
        assert eval_u(params, 0.0, order=0).values[0] == 1.0


@pytest.mark.parametrize(
    "c,expected", [(1.0, SIN_AT_ONE), (-1.0, SINH_AT_ONE)]
)
def test_closed_form_value_at_one(c, expected):
    res = eval_u(BesselParams(0.0, 2.0, c), 1.0, order=0)
    assert abs(res.values[0] - expected) < 1e-13


@pytest.mark.parametrize("p", [-0.5, 0.0, 1.0, 2.5])
def test_derivative_at_origin(p):
    # For c=-1 the derivative at 0 is 1/(4p+6).
    res = eval_u(BesselParams(p, 2.0, -1.0), 0.0, order=1)
    assert abs(res.values[1] - 1.0 / (4.0 * p + 6.0)) < 1e-15


def test_derivative_at_origin_general():
    rng = np.random.default_rng(11)
    for _ in range(20):
        params = rand_params(rng)
        res = eval_u(params, 0.0, order=1)
        assert abs(res.values[1] - (-params.c / (4.0 * params.kappa))) < 1e-15


def test_closed_form_agreement_on_disk():
    rng = np.random.default_rng(20260817)
    pts = rand_disk(rng, 100)
    osc = BesselParams(0.0, 2.0, 1.0)
    hyp = BesselParams(0.0, 2.0, -1.0)
    for z in pts:
        z = complex(z)
        w = cmath.sqrt(z)
        assert abs(eval_u(osc, z, order=0).values[0] - cmath.sin(w) / w) < 1e-12
        assert abs(eval_u(hyp, z, order=0).values[0] - cmath.sinh(w) / w) < 1e-12


def test_conjugate_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(50):
        params = rand_params(rng)
        z = complex(rand_disk(rng, 1)[0])
        a = eval_u(params, z, order=2)
        b = eval_u(params, z.conjugate(), order=2)
        for k in range(3):
            assert abs(b.values[k] - a.values[k].conjugate()) < 1e-13


def test_higher_orders_match_shifted_series():
    # u' equals -c/(4 kappa) times the order-raised series, term for term.
    rng = np.random.default_rng(5)
    for _ in range(25):
        params = rand_params(rng)
        z = complex(rand_disk(rng, 1)[0])
        got = eval_u(params, z, order=1).values[1]
        shifted = eval_u(params.shifted(1.0), z, order=0).values[0]
        want = -params.c / (4.0 * params.kappa) * shifted
        assert abs(got - want) < 1e-12 * (1.0 + abs(want))


def test_third_derivative_satisfies_differentiated_equation():
    # Differentiating the defining equation once gives
    # 4 z^2 u''' + (8 + 4 kappa) z u'' + (4 kappa + c z) u' + c u = 0.
    rng = np.random.default_rng(13)
    for _ in range(25):
        params = rand_params(rng)
        z = complex(rand_disk(rng, 1)[0])
        v = eval_u(params, z, order=3).values
        k = params.kappa
        res = (
            4.0 * z * z * v[3]
            + (8.0 + 4.0 * k) * z * v[2]
            + (4.0 * k + params.c * z) * v[1]
            + params.c * v[0]
        )
        scale = 1.0 + abs(v[1]) + abs(v[2]) + abs(v[3])
        assert abs(res) < 1e-9 * scale


def test_truncation_estimate_respects_tolerance():
    rng = np.random.default_rng(17)
    for _ in range(20):
        params = rand_params(rng)
        z = complex(rand_disk(rng, 1)[0])
        res = eval_u(params, z, order=0)
        assert res.truncation_estimate <= DEFAULT_CONFIG.rel_tol
        assert 1 <= res.terms_used <= DEFAULT_CONFIG.max_terms


def test_result_length_tracks_order():
    params = BesselParams(0.0, 2.0, 1.0)
    for order in range(4):
        assert len(eval_u(params, 0.5, order=order).values) == order + 1
    with pytest.raises(ValueError):
        eval_u(params, 0.5, order=4)
    with pytest.raises(ValueError):
        eval_u(params, 0.5, order=-1)
    for order in (1.5, math.nan, "1"):
        with pytest.raises(ValueError):
            eval_u(params, 0.5, order=order)
    assert eval_u(params, 0.5, order=2.0).values == eval_u(params, 0.5, order=2).values


def test_outside_disk_rejected():
    params = BesselParams(0.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        eval_u(params, 1.1, order=0)
    # A hair over 1 is still inside the documented slack.
    assert eval_u(params, 1.0 + 1e-10, order=0).values[0] != 0.0


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.0, math.nan)])
def test_nan_point_rejected(z):
    # abs(nan) > 1 is False, so a bare "> R" test would let NaN through.
    params = BesselParams(0.3, 1.5, -2.0)
    with pytest.raises(ValueError):
        eval_u(params, z, order=1)
    with pytest.raises(ValueError):
        eval_u_many(params, np.array([0.5, z]), order=1)


def test_no_convergence_with_tiny_term_budget():
    params = BesselParams(-1.0, 2.0, 4.0)
    cfg = EvalConfig(max_terms=4)
    with pytest.raises(NoConvergence):
        eval_u(params, 0.999, order=0, cfg=cfg)
    with pytest.raises(NoConvergence):
        eval_u_many(params, np.array([0.999, 0.1j]), order=0, cfg=cfg)


def test_batch_agrees_with_scalar_and_is_deterministic():
    # Both paths sum the same a-priori truncated coefficients, so they agree
    # on the term count; the batch path's power-table contraction may round
    # differently from the scalar Horner loop in the last bits.  The batch
    # path must be bit-identical to itself on a repeated call.
    rng = np.random.default_rng(23)
    params = BesselParams(0.3, 1.2, -2.5)
    zs = rand_disk(rng, 20)
    values, terms = eval_u_many(params, zs, order=2)
    assert values.shape == (3, 20)
    for j, z in enumerate(zs):
        scalar = eval_u(params, complex(z), order=2)
        assert scalar.terms_used == terms
        for k in range(3):
            assert abs(values[k, j] - scalar.values[k]) < 1e-13
    assert terms >= 1
    again, terms_again = eval_u_many(params, zs, order=2)
    assert terms_again == terms
    assert np.array_equal(values, again)


def test_batch_values_do_not_depend_on_the_batch():
    # The truncation index depends on (kappa, c, order) only and the power
    # table and its contraction work point by point, so a point's values are
    # the same to the bit alone, in a batch, and at another position of a
    # permuted batch.
    rng = np.random.default_rng(37)
    params = BesselParams(-2.2, 2.0, 3.5)
    zs = np.concatenate([rand_disk(rng, 17), np.exp(2j * math.pi * rng.uniform(size=4))])
    perm = rng.permutation(zs.size)
    for order in range(4):
        values, terms = eval_u_many(params, zs, order=order)
        shuffled, shuffled_terms = eval_u_many(params, zs[perm], order=order)
        assert shuffled_terms == terms
        assert np.array_equal(shuffled, values[:, perm])
        for i in range(zs.size):
            alone, alone_terms = eval_u_many(params, zs[i : i + 1], order=order)
            assert alone_terms == terms
            assert np.array_equal(alone[:, 0], values[:, i])


@pytest.mark.parametrize("size", [1, 2, 640, 6144])
def test_batch_rows_from_lowest_are_the_full_rows(size):
    # Each row is contracted on its own, so rows lowest..order are the same
    # to the bit, signed zeros included, whether or not the lower rows are
    # summed too: a kernel value depends only on its row, radius and point.
    # numpy rounds complex products differently on some array shapes, hence
    # the sizes: one point, two, and the grids verify uses.
    from janbessel.bessel import _PowerTable, _contract, _series_rows

    rng = np.random.default_rng(size)
    zs = np.concatenate([[0j, 1.0 + 0j, -1j], rand_disk(rng, size)])[:size]
    for c in (-150.0, -2.5, 0.0, 3.5, 60.0):
        params = BesselParams(rng.uniform(-2.0, 5.0), 2.0, c)
        for order in range(4):
            full, terms = eval_u_many(params, zs, order=order)
            coefficients = _series_rows(
                params.kappa, params.c, order, DEFAULT_CONFIG.rel_tol, DEFAULT_CONFIG.max_terms
            )
            for lowest in range(order + 1):
                rows = _contract(coefficients[lowest:], (1.0,), _PowerTable(zs))[:, 0, :]
                assert coefficients.shape[1] == terms
                assert rows.shape == (order + 1 - lowest, size)
                assert np.array_equal(rows.view(np.uint64), full[lowest:].view(np.uint64)), (
                    c, order, lowest,
                )


@pytest.mark.parametrize("order", [1.5, -1, 4, math.nan])
def test_batch_order_outside_orders_rejected(order):
    with pytest.raises(ValueError):
        eval_u_many(BesselParams(0.0, 2.0, 1.0), np.array([0.5j]), order=order)


def test_batch_integral_float_counts_are_the_int_counts():
    params, zs = BesselParams(0.0, 2.0, 1.0), np.array([0.5j, -0.25])
    rows, terms = eval_u_many(params, zs, order=3.0)
    expected, expected_terms = eval_u_many(params, zs, order=3)
    assert terms == expected_terms
    assert np.array_equal(rows[1:].view(np.uint64), expected[1:].view(np.uint64))


def test_series_rows_are_the_rounded_term_products():
    # Each coefficient of z^m in u^(j) is the single rounding of
    # perm(m+j, j) * a_{m+j}, signed zeros included (c = 0 makes a_1 = -0.0);
    # zero past the last term.  The column builder of region scans gathers
    # the same rows from one coefficient matrix for all cells: c = 0 with
    # kappa in (-3, 0) keeps signed zeros up to the delayed stop, and of two
    # cells that fail, the first is named.
    from janbessel.bessel import _coefficient_matrix, _coefficients, _kernel_layout, _series_rows

    cells = ((1.5, 0.0), (-2.7, 3.5), (0.2, -150.0), (40.0, 60.0), (-2.5, 0.0), (-0.4, 0.0), (3.0, 150.0))
    for order in range(4):
        matrix, terms = _coefficient_matrix(*zip(*cells), order, 1e-14, 300)
        n = max(terms)
        assert matrix.shape == (len(cells), n + order) and matrix.dtype == float
        assert np.signbit(matrix[matrix == 0.0]).any()
        for (kappa, c), coefs, count in zip(cells, matrix, terms):
            a, _ = _coefficients(kappa, c, order, 1e-14, 300)
            rows = _series_rows(kappa, c, order, 1e-14, 300)
            assert rows.shape == (order + 1, len(a)) and rows.dtype == float
            assert not rows.flags.writeable
            expected = np.zeros(rows.shape)
            for m in range(len(a)):
                for j in range(order + 1):
                    if m + j < len(a):
                        expected[j, m] = math.perm(m + j, j) * a[m + j]
            assert np.array_equal(rows.view(np.uint64), expected.view(np.uint64))
            assert count == len(a)
            assert np.array_equal(coefs[:count].view(np.uint64), np.array(a).view(np.uint64))
            assert not coefs[count:].view(np.uint64).any()  # +0.0 exactly
            padded = np.zeros((order + 1, n))
            padded[:, : len(a)] = rows
            gathered = _kernel_layout(coefs, order, n)
            assert np.array_equal(gathered.view(np.uint64), padded.view(np.uint64))
        # A chunk's rows, gathered at once as region scans do, are each cell's to the bit.
        stacked = _kernel_layout(matrix, order, n)
        cellwise = np.stack([_kernel_layout(coefs, order, n) for coefs in matrix])
        assert np.array_equal(stacked.view(np.uint64), cellwise.view(np.uint64))
        # Cells 1 and 4 stop within 20 terms, 2 and 3 need 26-29; the last
        # overflows to inf, silently as in Python floats.
        failing = ((5.0, 1.0), (-0.5, 90.0), (0.7, 100.0), (2.0, -3.0), (2.0, 1e200))
        with pytest.raises(NoConvergence) as got, warnings.catch_warnings():
            warnings.simplefilter("error")
            _coefficient_matrix(*zip(*failing), order, 1e-14, 20)
        with pytest.raises(NoConvergence) as want:
            _coefficients(-0.5, 90.0, order, 1e-14, 20)
        assert str(got.value) == str(want.value) == "no tail bound within 20 terms (kappa=-0.5, c=90.0)"


def _reference_coefficients(kappa, c, order, cfg):
    """(coefs, tail) by the per-term loop that tests the stopping rule at every k.

    The coefficient recurrence reads coefs[-1] * (-c / 4.0 / ...) and the
    stopping rule calls math.perm and radius**k per k.
    """
    radius = 1.0 + DISK_SLACK
    coefs = [1.0]
    for k in range(1, cfg.max_terms):
        coefs.append(coefs[-1] * (-c / 4.0 / ((kappa + k - 1.0) * k)))
        if kappa + k > 0.0 and k >= order:
            rho = abs(c) / 4.0 * radius / ((kappa + k) * (k + 1 - order))
            bound = abs(coefs[-1]) * math.perm(k, order) * radius**k
            if rho < 0.5 and bound <= cfg.rel_tol * (1.0 - rho):
                return coefs, bound * rho / (1.0 - rho)
    raise NoConvergence(f"no tail bound within {cfg.max_terms} terms (kappa={kappa}, c={c})")


def _reference_eval_u(kappa, c, z, order, cfg):
    """(values, terms, tail) from _reference_coefficients; Horner's rule
    multiplies by math.perm(k, j) per term per order."""
    coefs, tail = _reference_coefficients(kappa, c, order, cfg)
    values = []
    for j in range(order + 1):
        s = 0j
        for k in range(len(coefs) - 1, j - 1, -1):
            s = s * z + math.perm(k, j) * coefs[k]
        values.append(s)
    return values, len(coefs), tail


def _hexed(fn):
    """fn() with every float as float.hex, or the exception's type and text.

    fn returns a complex or a (values, terms, tail) triple.
    """
    try:
        got = fn()
    except (NoConvergence, InvalidKappa) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(got, complex):
        return got.real.hex(), got.imag.hex()
    values, terms, tail = got
    return [(v.real.hex(), v.imag.hex()) for v in values], terms, tail.hex()


def _triple(result):
    return result.values, result.terms_used, result.truncation_estimate


def test_scalar_series_matches_the_reference_loop_bit_for_bit():
    # eval_u reads its weights from the shared table and hoists the loop
    # invariants; values, term counts, tail bounds, both residuals and
    # NoConvergence must equal the reference loop's to the bit, including
    # c = +-0.0, |c| = 1e-300 and 150, kappa just above an excluded pole,
    # |z| = 1 + DISK_SLACK, signed-zero z and budgets of 4, 8 and 20 terms.
    rng = np.random.default_rng(20261020)
    radius = 1.0 + DISK_SLACK
    configs = [DEFAULT_CONFIG] + [EvalConfig(rel_tol=1e-10, max_terms=m) for m in (4, 8, 20)]
    configs += [EvalConfig(rel_tol=1e-3), EvalConfig(max_terms=1000)]
    ran_out = 0
    for draw in range(3000):
        kappa = float(rng.uniform(-3.0, 12.0))
        if draw % 5 == 0:
            kappa = float(rng.integers(-2, 1)) + float(rng.choice([1.01e-9, 2e-9, 1e-6, 1e-3]))
        c = float(rng.choice([1, -1]) * 10 ** rng.uniform(-3.0, math.log10(150.0)))
        if draw % 7 == 0:
            c = float(rng.choice([0.0, -0.0, 1e-300, -1e-300, 150.0, -150.0]))
        z = cmath.rect(float(rng.uniform(0.0, 1.0)), float(rng.uniform(-math.pi, math.pi)))
        if draw % 3 == 0:
            edge = (complex(radius), complex(-radius, -0.0), complex(0.0, radius), complex(-0.0, -radius))
            z = edge[rng.integers(4)]
        if draw % 11 == 0:
            z = complex(float(rng.choice([0.0, -0.0])), float(rng.choice([0.0, -0.0])))
        if draw % 13 == 0 and rng.uniform() < 0.5:
            kappa = float(rng.uniform(-3.0, -1e-3))  # hit the excluded band or not
        try:
            params = BesselParams(kappa, -1.0, c)  # kappa = p
        except InvalidKappa:
            continue
        kappa, cfg, order = params.kappa, configs[rng.integers(len(configs))], int(rng.integers(4))
        got = _hexed(lambda: _triple(eval_u(params, z, order, cfg)))
        assert got == _hexed(lambda: _reference_eval_u(kappa, c, z, order, cfg)), (kappa, c, z, order, cfg)
        ran_out += got[0] == "NoConvergence"

        def ode():
            u0, u1, u2 = _reference_eval_u(kappa, c, z, 2, cfg)[0]
            return 4.0 * z * z * u2 + 4.0 * kappa * z * u1 + c * z * u0

        def recurrence():
            shifted = params.shifted(1.0)
            du = _reference_eval_u(kappa, c, z, 1, cfg)[0][1]
            return 4.0 * kappa * du + c * _reference_eval_u(shifted.kappa, c, z, 0, cfg)[0][0]

        assert _hexed(lambda: ode_residual(params, z, cfg)) == _hexed(ode)
        assert _hexed(lambda: recurrence_residual(params, z, cfg)) == _hexed(recurrence)
    assert ran_out > 100  # the small budgets do run out


def test_the_stop_falls_on_the_first_term_within_rel_tol_bit_for_bit():
    # The stopping rule is tested only at terms with |a_k| <= rel_tol.  In
    # these draws the reference loop stops at the first such term, for every
    # order, three tolerances and both signs of a_k, and some of those terms
    # lie within a factor 4 of rel_tol: a guard that skipped any of them
    # would move the stop.
    rng = np.random.default_rng(31)
    tols, per_class, found, near = (1e-14, 1e-10, 1e-3), 5, {}, 0
    for draw in range(10000):
        order, rel_tol = draw % 4, tols[draw // 4 % 3]
        kappa = float(rng.uniform(-2.9, 12.0))
        c = float(rng.choice([1, -1]) * 10 ** rng.uniform(-4.0, math.log10(150.0)))
        z = cmath.rect(float(rng.uniform(0.0, 1.0 + DISK_SLACK)), float(rng.uniform(-math.pi, math.pi)))
        params, cfg = BesselParams(kappa, -1.0, c), EvalConfig(rel_tol=rel_tol)
        try:
            coefs, _ = _reference_coefficients(params.kappa, c, order, cfg)
        except NoConvergence:
            continue
        key = (order, rel_tol, coefs[-1] > 0.0)
        first = next(k for k, a in enumerate(coefs) if abs(a) <= rel_tol)
        if first < len(coefs) - 1 or found.get(key, 0) == per_class:
            continue
        found[key] = found.get(key, 0) + 1
        near += abs(coefs[-1]) > rel_tol / 4
        got = _hexed(lambda: _triple(eval_u(params, z, order, cfg)))
        assert got == _hexed(lambda: _reference_eval_u(params.kappa, c, z, order, cfg)), (kappa, c, z, order, cfg)
        if len(found) == 24 and min(found.values()) == per_class:
            break
    assert len(found) == 24 and min(found.values()) == per_class, found
    assert near >= 10


def _empty_weight_table(monkeypatch):
    """The bessel module, its weight table emptied for this test."""
    from janbessel import bessel

    monkeypatch.setattr(bessel, "_PERMS", tuple([] for _ in range(bessel.MAX_ORDER + 1)))
    monkeypatch.setattr(bessel, "_POWERS", [])
    return bessel


def _first_non_finite(kappa, c):
    """The first k whose coefficient a_k, by the recurrence, is inf or NaN."""
    a, k = 1.0, 0
    while math.isfinite(a):
        k += 1
        a *= -c / 4.0 / ((kappa + k - 1.0) * k)
    return k


def _traced(fn):
    """(_hexed(fn), the peak of the memory traced while fn ran)."""
    tracemalloc.start()
    try:
        return _hexed(fn), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_non_finite_coefficient_ends_the_scalar_sum(monkeypatch):
    # At kappa 1, c = 1e7 overflows to inf from k = 94 on.  The sum ends
    # there with the reference loop's NoConvergence text and grows no table,
    # where the loop once ran to max_terms and grew the table with it (a list
    # of 200,000 coefficients alone takes over 6 MB).  A NaN coefficient
    # (c = NaN reaches the private loop unchecked) ends it too.
    bessel = _empty_weight_table(monkeypatch)
    params, cfg = BesselParams(0.0, 1.0, 1e7), EvalConfig(max_terms=200_000)
    assert _first_non_finite(params.kappa, params.c) == 94
    for order in (0, 3):
        got, peak = _traced(lambda: _triple(eval_u(params, 0.5, order, cfg)))
        assert got == _hexed(lambda: _reference_eval_u(params.kappa, params.c, 0.5, order, cfg))
        assert got == ("NoConvergence", "no tail bound within 200000 terms (kappa=1.0, c=10000000.0)")
        assert peak < 100_000 and bessel._POWERS == []
    got, peak = _traced(lambda: bessel._coefficients(1.0, math.nan, 0, 1e-14, 10**6))
    assert got == ("NoConvergence", "no tail bound within 1000000 terms (kappa=1.0, c=nan)")
    assert peak < 100_000 and bessel._POWERS == []


def test_non_finite_cells_end_the_column_pass(monkeypatch):
    # Mixed with finite cells, cells whose coefficients overflow end the pass
    # at the first power of two k where no running cell is finite: the table
    # grows to at most twice the last of their first non-finite terms, and
    # the NoConvergence is the cell-by-cell loop's first.
    bessel = _empty_weight_table(monkeypatch)
    cells = ((2.0, 150.0), (3.0, 1e7), (0.5, -3.0), (1.0, -2e7), (1.0, 1e7))
    last = max(_first_non_finite(kappa, c) for kappa, c in cells[1::2])
    assert 94 <= last < 128
    for order in range(4):
        with pytest.raises(NoConvergence) as want:
            for kappa, c in cells:
                bessel._coefficients(kappa, c, order, 1e-14, 200_000)
        with pytest.raises(NoConvergence) as got:
            bessel._coefficient_matrix(*zip(*cells), order, 1e-14, 200_000)
        assert str(got.value) == str(want.value) == "no tail bound within 200000 terms (kappa=3.0, c=10000000.0)"
        assert len(bessel._POWERS) <= 2 * last
    with pytest.raises(NoConvergence, match=r"^no tail bound within 1000000 terms \(kappa=1.0, c=nan\)$"):
        bessel._coefficient_matrix([1.0, 2.0], [math.nan, 1.0], 0, 1e-14, 10**6)


def test_weight_table_grows_only_to_the_terms_reached(monkeypatch):
    # The table starts empty and a budget of a million terms costs nothing up
    # front: a cell that stops within 20 terms grows it to the terms reached.
    bessel = _empty_weight_table(monkeypatch)
    params, z = BesselParams(0.0, 2.0, 1.0), complex(0.6, -0.7)
    huge = eval_u(params, z, order=3, cfg=EvalConfig(max_terms=10**6))
    assert huge.terms_used <= 20
    assert 0 < len(bessel._POWERS) <= huge.terms_used
    assert all(len(row) == len(bessel._POWERS) for row in bessel._PERMS)
    default = eval_u(params, z, order=3)
    assert _hexed(lambda: _triple(huge)) == _hexed(lambda: _triple(default))
    # Growing again, in pieces or past the end, rewrites nothing and matches the definition.
    reached = len(bessel._POWERS)
    bessel._weights(3)
    bessel._weights(reached + 5)
    assert len(bessel._POWERS) == reached + 5
    for k, power in enumerate(bessel._POWERS):
        assert power == (1.0 + DISK_SLACK) ** k
        assert [row[k] for row in bessel._PERMS] == [float(math.perm(k, j)) for j in range(4)]


def _abs_term_sum(kappa, c, r, j):
    """sum_k |a_k| k!/(k-j)! r^(k-j): the scale of rounding error in u^(j) on |z| = r."""
    coef, total = 1.0, 0.0
    for k in range(400):
        if k > 0:
            coef *= (-c / 4.0) / ((kappa + k - 1.0) * k)
        if k >= j:
            total += abs(coef) * math.perm(k, j) * r ** (k - j)
    return total


@pytest.mark.parametrize("kappa", [0.2, 1.5, -0.5, -2.7])
@pytest.mark.parametrize("c_abs", [1.0, 4.0, 60.0, 150.0])
def test_batch_matches_mpmath_hyp0f1(kappa, c_abs):
    # u^(j)(z) = x^j / (kappa)_j * 0F1(; kappa+j; x z) with x = -c/4.  The
    # error of eval_u_many and of scalar eval_u is at most the truncation
    # tolerance plus terms * eps * sum|t_k| (cancellation grows with |c|), and
    # below 1e-12 relative for |c| <= 4.
    eps = np.finfo(float).eps
    angles = np.exp(2j * math.pi * np.arange(8) / 8 + 0.1j)
    for c in (c_abs, -c_abs):
        params = BesselParams(kappa - 1.5, 2.0, c)
        k = params.kappa
        for r in (0.999, 1.0):
            zs = r * angles
            values, terms = eval_u_many(params, zs, order=3)
            scalar = np.array([eval_u(params, complex(z), order=3).values for z in zs]).T
            for j in range(4):
                bound = DEFAULT_CONFIG.rel_tol + terms * eps * _abs_term_sum(k, c, r, j)
                with mpmath.workdps(40):
                    x = mpmath.mpf(-c) / 4
                    scale = x**j / mpmath.rf(k, j)
                    exact = [complex(scale * mpmath.hyp0f1(k + j, x * complex(z))) for z in zs]
                for got in (values[j], scalar[j]):
                    for value, want in zip(got, exact):
                        err = abs(value - want)
                        assert err <= bound
                        if c_abs <= 4.0:
                            assert err <= 1e-12 * abs(want)


@pytest.mark.parametrize(
    "p,b,c,z",
    [(0.0, 2.0, 1.0, 0.7j), (1.0, 1.0, -2.0, -0.3 + 0.2j), (0.5, 0.5, 3.0, 0.9)],
)
def test_ode_residual_small_on_solutions(p, b, c, z):
    params = BesselParams(p, b, c)
    assert abs(ode_residual(params, z)) < 1e-10


def test_ode_residual_zero_for_constant():
    assert ode_residual(BesselParams(0.0, 2.0, 0.0), 0.5 + 0.1j) == 0.0


def test_ode_residual_detects_wrong_kappa():
    # Evaluate the series, then push it through the equation with kappa+0.5:
    # the mismatch is far above evaluation noise and matches the frozen value.
    params = BesselParams(0.0, 2.0, 1.0)
    z = 0.5
    v = eval_u(params, z, order=2).values
    k = params.kappa + 0.5
    res = 4.0 * z * z * v[2] + 4.0 * k * z * v[1] + params.c * z * v[0]
    assert abs(res) > 1e-3
    assert abs(res - PERTURBED_RESIDUAL) < 1e-12


def test_ode_residual_property():
    rng = np.random.default_rng(29)
    for _ in range(30):
        params = rand_params(rng)
        z = complex(rand_disk(rng, 1)[0])
        v = eval_u(params, z, order=2).values
        scale = 1.0 + abs(v[0]) + abs(v[1]) + abs(v[2])
        assert abs(ode_residual(params, z)) < 1e-9 * scale


@pytest.mark.parametrize(
    "p,b,c,z",
    [(0.0, 2.0, 1.0, 0.5), (1.0, 1.0, -2.0, -0.3 + 0.2j)],
)
def test_recurrence_residual_examples(p, b, c, z):
    assert abs(recurrence_residual(BesselParams(p, b, c), z)) < 1e-12


def test_recurrence_residual_zero_for_constant():
    assert recurrence_residual(BesselParams(0.0, 2.0, 0.0), 0.9j) == 0.0


def test_recurrence_residual_property():
    rng = np.random.default_rng(31)
    for _ in range(30):
        params = rand_params(rng)
        z = complex(rand_disk(rng, 1)[0])
        u1 = eval_u(params, z, order=1).values[1]
        assert abs(recurrence_residual(params, z)) < 1e-10 * (1.0 + abs(u1))


# ------------------------------------------------------------ ring kernel


def _ring_units(n):
    from janbessel.verify import _ring

    return _ring(n)


def _bits(values):
    return np.ascontiguousarray(values, dtype=complex).view(np.uint64)


def _kernel_sums(params, radii, table, order):
    """u^(0..order) at radii[i] * table.points[p] through the array path's kernel, and its term count."""
    from janbessel.bessel import _contract, _series_rows

    rows = _series_rows(params.kappa, params.c, order, DEFAULT_CONFIG.rel_tol, DEFAULT_CONFIG.max_terms)
    return _contract(rows, radii, table), rows.shape[1]


@pytest.mark.parametrize("kappa", [0.2, 1.5, -0.5, -2.7])
@pytest.mark.parametrize("c_abs", [1.0, 4.0, 60.0, 150.0])
def test_contract_matches_mpmath_hyp0f1(kappa, c_abs):
    # The ring kernel sums (a_k r^k) e^k over a power table of the unit
    # points e; its error obeys the same bound as eval_u_many's, with the
    # terms t_k taken on |z| = r.
    from janbessel.bessel import _PowerTable

    eps = np.finfo(float).eps
    radii = (0.5, 0.999, 1.0)
    table = _PowerTable(np.exp(2j * math.pi * np.arange(8) / 8 + 0.1j))
    for c in (c_abs, -c_abs):
        params = BesselParams(kappa - 1.5, 2.0, c)
        k = params.kappa
        values, terms = _kernel_sums(params, radii, table, 3)
        assert values.shape == (4, len(radii), 8)
        for i, r in enumerate(radii):
            zs = r * table.points
            for j in range(4):
                bound = DEFAULT_CONFIG.rel_tol + terms * eps * _abs_term_sum(k, c, r, j)
                with mpmath.workdps(40):
                    x = mpmath.mpf(-c) / 4
                    scale = x**j / mpmath.rf(k, j)
                    exact = [complex(scale * mpmath.hyp0f1(k + j, x * complex(z))) for z in zs]
                for value, want in zip(values[j, i], exact):
                    assert abs(value - want) <= bound, (r, j, value, want)


@pytest.mark.parametrize("n", [8, 9, 64, 256])
def test_ring_values_do_not_depend_on_the_other_rings_or_points(n):
    # A ring's values are the same to the bit evaluated alone, among other
    # rings, on the closed upper half of the ring and on the full ring; the
    # lower half of the full ring is the exact conj of the upper half.
    from janbessel.bessel import _PowerTable

    rng = np.random.default_rng(n)
    radii = (0.05, 0.3, 0.7, 0.999)
    ring = _ring_units(n)
    half = n // 2 + 1
    full_table, half_table = _PowerTable(ring), _PowerTable(ring[:half])
    lower = np.arange(half, n)
    for _ in range(6):
        params = BesselParams(rng.uniform(-2.9, 6.0) - 1.5, 2.0, rng.uniform(-150.0, 150.0))
        if abs(params.kappa - round(params.kappa)) < 0.05 and params.kappa < 0.5:
            continue
        for order in range(4):
            together, terms = _kernel_sums(params, radii, half_table, order)
            whole, _ = _kernel_sums(params, radii, full_table, order)
            assert np.array_equal(_bits(whole[:, :, :half]), _bits(together))
            assert np.array_equal(_bits(whole[:, :, lower]), _bits(np.conj(whole[:, :, n - lower])))
            for i, r in enumerate(radii):
                for table, width in ((half_table, half), (full_table, n)):
                    alone, alone_terms = _kernel_sums(params, (r,), table, order)
                    assert alone_terms == terms
                    assert np.array_equal(_bits(alone[:, 0]), _bits(whole[:, i, :width]))


def test_power_table_rows_do_not_depend_on_how_it_was_grown():
    from janbessel.bessel import _PowerTable

    rng = np.random.default_rng(41)
    points = np.concatenate([[0j, 1.0 + 0j, -1j], rand_disk(rng, 29), _ring_units(16)])
    at_once = _PowerTable(points).rows(70)
    assert at_once.shape == (70, points.size)
    assert np.allclose(at_once, points[None, :] ** np.arange(70)[:, None], rtol=1e-13, atol=1e-15)
    stepped = _PowerTable(points)
    seen = []
    for n in (1, 2, 3, 4, 6, 11, 17, 18, 40, 70):
        rows = stepped.rows(n)
        assert rows.shape == (n, points.size)
        seen.append(rows.copy())
    for rows in seen:
        assert np.array_equal(_bits(rows), _bits(at_once[: len(rows)]))
    # Each point's powers are its own: a table of one point has the same rows.
    for p in (0, 5, 40):
        alone = _PowerTable(points[p : p + 1]).rows(70)
        assert np.array_equal(_bits(alone[:, 0]), _bits(at_once[:, p]))


@pytest.mark.parametrize("points", [np.zeros((2, 2)), np.zeros(0), np.array([1.1]), np.array([np.nan])])
def test_power_table_rejects_bad_points(points):
    from janbessel.bessel import _PowerTable

    with pytest.raises(ValueError):
        _PowerTable(points)


@pytest.mark.parametrize("radii", [(), (1.5,), (0.5, -0.1), (math.nan,)])
def test_contract_rejects_radii_outside_the_unit_interval(radii):
    from janbessel.bessel import _PowerTable, _contract, _series_rows

    rows = _series_rows(1.5, 1.0, 0, DEFAULT_CONFIG.rel_tol, DEFAULT_CONFIG.max_terms)
    with pytest.raises(ValueError):
        _contract(rows, radii, _PowerTable(np.array([1.0])))


# ------------------------------------------------------- zero-free radius


def _rayleigh_s4(kappa):
    """s_4 = sum_j x_j^-4 over the zeros x_j of 0F1(; kappa; -x), exactly.

    Newton's identities on the Taylor coefficients a_n = (-1)^n / ((kappa)_n n!)
    of prod_j (1 - x / x_j), whose elementary symmetric functions of the
    1 / x_j are e_n = (-1)^n a_n.
    """
    e = [Fraction(1)]
    for n in range(1, 5):
        e.append(e[-1] / ((kappa + n - 1) * n))
    p = [None]
    for m in range(1, 5):
        total = (-1) ** (m - 1) * m * e[m]
        for i in range(1, m):
            total += (-1) ** (i - 1) * e[i] * p[m - i]
        p.append(total)
    return p[4]


def test_zero_free_radius_against_the_exact_rayleigh_sum():
    # A float is a dyadic rational, so Fraction(kappa) and Fraction(radius)
    # are exact: the radius lies below 4 s_4^(-1/4) / |c|, and by at most
    # the stated shrink plus a few roundings.
    rng = np.random.default_rng(41)
    eps = Fraction(2) ** -52
    kappas = [0.2, 1.0, 3.5] + list(rng.uniform(1e-3, 60.0, 40)) + list(rng.uniform(1e-3, 1.0, 10))
    for kappa in kappas:
        kappa = float(kappa)
        k = Fraction(kappa)
        s4 = _rayleigh_s4(k)
        assert s4 == (5 * k + 6) / (k**4 * (k + 1) ** 2 * (k + 2) * (k + 3))
        s4_float = (5.0 * kappa + 6.0) / (kappa**4 * (kappa + 1.0) ** 2 * (kappa + 2.0) * (kappa + 3.0))
        assert abs(Fraction(s4_float) - s4) <= 16 * eps * s4
        for c in (1.0, -4.0, float(rng.uniform(-200.0, 200.0))):
            radius = zero_free_radius(kappa, c)
            # (radius |c| / 4)^4 s_4 is the fourth power of radius over the bound.
            ratio = (Fraction(radius) * abs(Fraction(c)) / 4) ** 4 * s4
            assert (1 - 32 * eps) ** 4 < ratio < 1, (kappa, c)


def _first_zero(k):
    """The least zero x_1 of 0F1(; k; -x), k > 0, to 30 digits."""
    with mpmath.workdps(30):
        if k >= 1.0:
            return mpmath.besseljzero(mpmath.mpf(k) - 1, 1) ** 2 / 4
        # The Rayleigh bracket s_4^(-1/4) < x_1 <= s_3 / s_4 holds the zero.
        k = mpmath.mpf(k)
        s3 = 2 / (k**3 * (k + 1) * (k + 2))
        s4 = (5 * k + 6) / (k**4 * (k + 1) ** 2 * (k + 2) * (k + 3))
        lo, hi = s4 ** mpmath.mpf(-0.25), s3 / s4
        x1 = mpmath.findroot(lambda x: mpmath.hyp0f1(k, -x), lo)
        assert lo < x1 <= hi
        return x1


def test_zero_free_radius_lies_below_the_first_zero():
    # The zeros of 0F1(; k; -c z / 4) are z_j = 4 x_j / c.
    rng = np.random.default_rng(43)
    kappas = list(rng.uniform(0.0, 60.0, 30)) + list(rng.uniform(0.0, 1.0, 10)) + [0.2, 1.0]
    for kappa in kappas:
        kappa = float(kappa)
        x1 = _first_zero(kappa)
        for c in rng.uniform(-200.0, 200.0, 3):
            c = float(c)
            radius = zero_free_radius(kappa, c)
            assert 0.0 < radius < 4 * x1 / abs(c), (kappa, c)
    # The defect tuple of starlike-zu: kappa 0.2, c -4, a zero of u near -0.2194017.
    assert 0.2194013 < zero_free_radius(0.2, -4.0) < 0.2194017


@pytest.mark.parametrize(
    "k,c",
    [(0.0, 1.0), (-0.5, 1.0), (-3.7, 2.0), (2.0, 0.0), (2.0, -0.0), (1e300, 1.0),
     (1.0, 1e-320), (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0)],
)
def test_zero_free_radius_certifies_nothing(k, c):
    assert zero_free_radius(k, c) == 0.0
