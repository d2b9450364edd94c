"""Generalized Bessel-type power series on the closed unit disk.

The central object is the normalized analytic function

    u(z) = sum_{k>=0} (-c/4)^k / ((kappa)_k * k!) * z^k,   kappa = p + (b+1)/2,

where (kappa)_k is the rising factorial.  The series converges for every
finite z and every kappa outside {0, -1, -2, ...}; evaluation here is
restricted to |z| <= 1 where the library's geometric questions live.  u
solves the order-reduced differential equation

    4 z^2 u'' + 4 kappa z u' + c z u = 0

and satisfies the order-shift identity 4 kappa u_p' = -c u_{p+1}, where
u_{p+1} denotes the series with p replaced by p+1.  Both identities are
exposed as residuals so callers can cross-check an evaluation through an
independent route; neither is used as the evaluation path itself.

Two classical specializations pin down the normalization: for b = 2, c = 1
the series equals sin(sqrt(z))/sqrt(z) at p = 0, and for b = 2, c = -1 it
equals sinh(sqrt(z))/sqrt(z).  The parameter b enters only through kappa,
so triples with equal (kappa, c) define the same function.

Derivatives up to third order come from term-wise differentiation.  Only
scalar eval_u uses Horner's rule; the array path (_contract, under
verify's sample circles and eval_u_many on radius 1) contracts coefficient
rows 0..order, scaled by r^m per ring radius r, against a table of point
powers.  Both share one term count, fixed a priori: on
|z| <= R = 1 + DISK_SLACK the j-th derivative's term k is at most
|a_k| k!/(k-j)! R^(k-j), and once kappa + k > 0
later terms shrink by at most rho = |c| R / (4 (kappa+k)(k+1-order)) per step.
The sum runs through the first such k with rho < 1/2 and max_j |a_k| k!/(k-j)!
R^(k-j) / (1-rho) <= rel_tol, so the omitted tail is below rel_tol / 2
absolutely at every point, or raises NoConvergence at max_terms or at the
first non-finite a_k.  The rule is tested only once |a_k| <= rel_tol: until
then the rounded bound, at least |a_k|, exceeds rel_tol (1 - rho).

One cell's coefficients come from _coefficients, a Python loop under eval_u
and the array path; region scans build a column of (kappa, c) cells in one
numpy pass (_coefficient_matrix) with the same IEEE operations in the same
order, so the same bits, term counts and NoConvergence.  Every weight,
float(perm(k, j)) or R^k, comes from one table grown on demand (_weights).

Only the array path imports numpy, and it does so when first called: the
scalar functions (eval_u, the residuals, zero_free_radius) run on the
standard library alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# Constructor rejects kappa this close to a non-positive integer (series poles).
KAPPA_EXCLUSION_TOL = 1e-9
# Evaluation admits a whisker beyond the closed disk so boundary studies at
# |z| = 1 survive rounding in the caller's radius arithmetic.
DISK_SLACK = 1e-9

MAX_ORDER = 3
_RADIUS = 1.0 + DISK_SLACK  # R of the stopping rule
_PERMS, _POWERS = tuple([] for _ in range(MAX_ORDER + 1)), []  # _weights' tables

# Relative shrink of zero_free_radius: its twelve roundings and one pow move
# it by under 4 epsilon (the fourth root quarters the error under it).
ZERO_FREE_SHRINK = 16 * 2.0**-52


def _count(name: str, value, top: int | None = None) -> int:
    """value as an int (an int, or a float equal to one) in 0..top if given; else ValueError."""
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if top is not None and count not in range(top + 1):
        raise ValueError(f"{name} must be one of 0..{top}, got {count}")
    return count


class InvalidKappa(ValueError):
    """kappa = p + (b+1)/2 collides with a pole of the coefficient sequence."""


class NoConvergence(RuntimeError):
    """The truncation rule was not met within the configured term budget."""


@dataclass(frozen=True)
class BesselParams:
    """Parameter triple (p, b, c) with derived kappa = p + (b+1)/2.

    All three entries must be finite reals; complex input is rejected.
    Construction fails with InvalidKappa when kappa lies within
    KAPPA_EXCLUSION_TOL of {0, -1, -2, ...}.
    """

    p: float
    b: float
    c: float

    def __post_init__(self) -> None:
        for name in ("p", "b", "c"):
            value = getattr(self, name)
            if isinstance(value, complex):
                raise TypeError(f"parameter {name} must be real, got complex")
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"parameter {name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        kappa = self.kappa
        nearest = round(kappa)
        if nearest <= 0 and abs(kappa - nearest) <= KAPPA_EXCLUSION_TOL:
            raise InvalidKappa(
                f"kappa = {kappa} is within {KAPPA_EXCLUSION_TOL} of the "
                f"excluded value {nearest}"
            )

    @property
    def kappa(self) -> float:
        return self.p + (self.b + 1.0) / 2.0

    def shifted(self, delta: float = 1.0) -> "BesselParams":
        """Same (b, c) with p moved by delta; revalidates the new kappa."""
        return BesselParams(self.p + delta, self.b, self.c)

    def _with_c(self, c: float) -> "BesselParams":
        """Same (p, b) with c, a finite float the caller has checked.

        kappa depends on p and b alone, and both passed __post_init__ when
        self was built, so none of its checks is repeated.  Set field by
        field, as __post_init__ does: a bulk __dict__ update would give
        each instance its own dict, twice the memory.
        """
        params = object.__new__(BesselParams)
        object.__setattr__(params, "p", self.p)
        object.__setattr__(params, "b", self.b)
        object.__setattr__(params, "c", c)
        return params


@dataclass(frozen=True)
class EvalConfig:
    """Series truncation policy.

    rel_tol bounds the last summed term and the omitted tail together,
    absolutely on |z| <= 1 + DISK_SLACK (see the module docstring).  max_terms
    caps the summation; hitting the cap raises NoConvergence rather than
    returning a silent truncation.  max_terms is an integer, or a float equal
    to one, of at least 4.
    """

    rel_tol: float = 1e-14
    max_terms: int = 300

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        object.__setattr__(self, "max_terms", _count("max_terms", self.max_terms))
        if self.max_terms < 4:
            raise ValueError(f"max_terms must be at least 4, got {self.max_terms}")


DEFAULT_CONFIG = EvalConfig()


@dataclass
class EvalResult:
    """values[j] is the j-th derivative at z; terms_used counts summed terms.

    truncation_estimate is the a-priori bound on the omitted tail of every
    returned derivative on |z| <= 1 + DISK_SLACK, at most rel_tol / 2.
    """

    values: list[complex]
    terms_used: int
    truncation_estimate: float


def _check_disk(z: complex) -> complex:
    z = complex(z)
    # Written so that a NaN modulus fails the test too.
    if not abs(z) <= _RADIUS:
        raise ValueError(f"evaluation is restricted to |z| <= 1, got |z| = {abs(z)}")
    return z


def _weights(n: int) -> None:
    """Grow _PERMS[j][k] = float(perm(k, j)), then _POWERS[k] = R^k, to k < n; a rerun rewrites equal values."""
    for k in range(len(_POWERS), n):
        for j, row in enumerate(_PERMS):
            row[k : k + 1] = [float(math.perm(k, j))]
        _POWERS[k : k + 1] = [_RADIUS**k]


def _coefficients(kappa: float, c: float, order: int, rel_tol: float, max_terms: int):
    """(a, tail): Taylor coefficients a_0..a_{n-1} of u and the omitted tail's bound.

    n and tail follow the a-priori rule of the module docstring, tested only
    at terms with |a_k| <= rel_tol: the rounded bound is at least |a_k| and
    rel_tol (1 - rho) at most rel_tol.  A non-finite a_k ends the sum.
    """
    perms, step, spread = _PERMS[order], -c / 4.0, abs(c) / 4.0 * _RADIUS
    a, coefs = 1.0, [1.0]
    for k in range(1, max_terms):
        shifted = kappa + k
        a = a * (step / ((shifted - 1.0) * k))
        coefs.append(a)
        if rel_tol < abs(a) < math.inf:
            continue
        if not abs(a) <= rel_tol:  # inf or NaN, and so is every later a_k
            break
        if shifted > 0.0 and k >= order:
            rho = spread / (shifted * (k + 1 - order))
            if rho < 0.5:
                if k >= len(_POWERS):
                    _weights(k + 1)
                # perm(k, order) R^k bounds k!/(k-j)! R^(k-j) for every j <= order.
                bound = abs(a) * perms[k] * _POWERS[k]
                if bound <= rel_tol * (1.0 - rho):
                    return coefs, bound * rho / (1.0 - rho)
    raise NoConvergence(f"no tail bound within {max_terms} terms (kappa={kappa}, c={c})")


def eval_u(
    params: BesselParams,
    z: complex,
    order: int = 0,
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> EvalResult:
    """Evaluate u and its derivatives up to `order` (0..3) at a disk point.

    The j-th derivative is sum_k k!/(k-j)! a_k z^(k-j) over the coefficients
    a_0..a_{n-1} the array path sums, here by Horner's rule; terms_used is n
    and truncation_estimate the tail bound.  Raises NoConvergence at the term cap,
    and ValueError for an order that is not an integer (an int, or a float
    equal to one) in 0..3.
    """
    order = _count("order", order, MAX_ORDER)
    z = _check_disk(z)
    a, tail = _coefficients(params.kappa, params.c, order, cfg.rel_tol, cfg.max_terms)
    values = []
    for j in range(order + 1):
        s, weights = 0j, _PERMS[j]  # weights[k] * a_k is the one rounding of perm(k, j) * a_k
        for k in range(len(a) - 1, j - 1, -1):
            s = s * z + weights[k] * a[k]
        values.append(s)
    return EvalResult(values=values, terms_used=len(a), truncation_estimate=tail)


@functools.lru_cache(maxsize=128)
def _falling_weights(order: int, n: int):
    """Read-only (index, weights), shape (order+1, n): m + j and the float of perm(m+j, j)."""
    import numpy as np

    _weights(n + order)
    index = np.arange(order + 1)[:, None] + np.arange(n)[None, :]
    weights = np.array([_PERMS[j][j : j + n] for j in range(order + 1)])
    index.flags.writeable = weights.flags.writeable = False
    return index, weights


# A verify_membership then a property_radius call on one cell read the same rows.
@functools.lru_cache(maxsize=128)
def _series_rows(kappa: float, c: float, order: int, rel_tol: float, max_terms: int):
    """Read-only (order+1, n): entry [j, m] is a_{m+j} (m+j)!/m!, the coefficient of z^m in u^(j).

    Each entry is the one rounding of float(perm(m+j, j)) * a_{m+j}; zero
    once m + j >= n.
    """
    import numpy as np

    a, _ = _coefficients(kappa, c, order, rel_tol, max_terms)
    rows = _kernel_layout(np.array(a + [0.0] * order), order, len(a))
    rows.flags.writeable = False
    return rows


def _kernel_layout(a, order: int, n: int):
    """Kernel rows 0..order from coefficients a, whose last axis has at least n + order entries.

    Entry [..., j, m] is the one rounding of float(perm(m+j, j)) *
    a[..., m+j], the coefficient of z^m in u^(j).  _series_rows lays out one
    cell's rows this way, and region scans a chunk's from _coefficient_matrix.
    """
    index, weights = _falling_weights(order, n)
    return a[..., index] * weights


def _coefficient_matrix(kappas, cs, order: int, rel_tol: float, max_terms: int):
    """(a, terms) for a column of cells: a[i, :terms[i]] is _coefficients(kappas[i], cs[i], ...)'s a.

    The recurrence and the stopping rule run over every cell at once, one k
    at a time, with _coefficients' IEEE operations in its order, so each
    entry is bit for bit its own.  a has max(terms) + order columns, +0.0
    past each cell's terms: _kernel_layout(a, order, n), for n up to
    max(terms), gathers the _series_rows of every cell, zero-padded to n.
    NoConvergence names the first cell that no k below max_terms stops; the
    pass ends early, at k = 1, 2, 4, 8, ..., once every running cell's a_k
    is non-finite, as no later term of such a cell is finite.
    """
    import numpy as np

    kappas, cs = np.asarray(kappas, dtype=float), np.asarray(cs, dtype=float)
    step, spread = -cs / 4.0, np.abs(cs) / 4.0 * _RADIUS
    live = np.ones(len(cs))
    columns, terms = [live], np.zeros(len(cs), dtype=int)  # 0 until the cell stops
    with np.errstate(over="ignore"):  # as Python floats overflow silently
        for k in range(1, max_terms):
            if terms.all():
                break
            live, running = live * (step / ((kappas + k - 1.0) * k)), terms == 0
            if k & (k - 1) == 0 and not np.isfinite(live[running]).any():
                break
            columns.append(np.where(running, live, 0.0))
            if k >= order:
                rho = spread / ((kappas + k) * (k + 1 - order))
                _weights(k + 1)
                bound = np.abs(live) * _PERMS[order][k] * _POWERS[k]
                stops = running & (kappas + k > 0.0) & (rho < 0.5) & (bound <= rel_tol * (1.0 - rho))
                terms[stops] = k + 1
    if not terms.all():
        i = int(np.argmin(terms))
        raise NoConvergence(
            f"no tail bound within {max_terms} terms (kappa={float(kappas[i])}, c={float(cs[i])})"
        )
    return np.stack(columns + [np.zeros(len(cs))] * order, axis=1), terms


class _PowerTable:
    """Rows p^0, p^1, ... of the powers of fixed disk points, grown on demand.

    Doubling m rows adds rows m..2m-2 as row m-1 times rows 1..m-1, so the
    table passes through 2, 3, 5, 9, ... rows only: row k has the same bits
    however the table was grown, and each entry depends on its point alone.
    """

    def __init__(self, points) -> None:
        import numpy as np

        points = np.array(points, dtype=complex)
        if points.ndim != 1 or points.size == 0:
            raise ValueError("zs must be a non-empty 1-d array")
        # Written so that a NaN modulus fails the test too.
        if not np.abs(points).max() <= _RADIUS:
            raise ValueError("evaluation is restricted to |z| <= 1")
        points.flags.writeable = False
        self.points = points
        self._rows = np.stack([np.ones_like(points), points])

    def rows(self, n: int) -> np.ndarray:
        """Rows 0..n-1, shape (n, len(points)), C-contiguous; do not write to it."""
        import numpy as np

        rows = self._rows
        while len(rows) < n:
            m = len(rows)
            grown = np.empty((2 * m - 1, rows.shape[1]), dtype=complex)
            grown[:m] = rows
            np.multiply(rows[m - 1 : m], rows[1:m], out=grown[m:])
            rows = self._rows = grown
        return rows[:n]


@functools.lru_cache(maxsize=64)  # every cell of a grid has the same radii
def _radius_powers(radii: tuple[float, ...], n: int):
    """Read-only (1, len(radii), n): r^m for m < n; ValueError unless radii lie in [0, 1]."""
    import numpy as np

    if not radii or not all(0.0 <= r <= 1.0 for r in radii):
        raise ValueError(f"radii must be values in [0, 1], got {radii}")
    powers = (np.array(radii)[:, None] ** np.arange(n))[None, :, :]
    powers.flags.writeable = False
    return powers


def _contract(rows: np.ndarray, radii: tuple[float, ...], table: _PowerTable) -> np.ndarray:
    """sums[k, i, p] = sum_m rows[k, m] (radii[i] table.points[p])^m, for 2-d rows.

    The rows, scaled by r^m for every radius, are contracted against the
    table's rows in one np.einsum over its float64 view.  einsum sums each
    entry on its own, in the order of m, and calls no BLAS (whose bits depend
    on the batch), so a value depends only on its row, radius and point, and
    zeros padded onto the end of a row leave its sums bit for bit unchanged.
    """
    import numpy as np

    n = rows.shape[1]
    scaled = rows[:, None, :] * _radius_powers(radii, n)
    powers = table.rows(n)
    sums = np.einsum("rk,km->rm", scaled.reshape(-1, n), powers.view(np.float64), optimize=False)
    return sums.view(complex).reshape(rows.shape[0], len(radii), powers.shape[1])


def eval_u_many(
    params: BesselParams,
    zs: np.ndarray,
    order: int = 0,
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> tuple[np.ndarray, int]:
    """Vectorized eval_u over a 1-d array of disk points; (values, terms_used).

    values has shape (order+1, len(zs)): row j holds the derivative of order
    j.  terms_used follows the a-priori rule of the module docstring.  It is
    _contract of the rows of _series_rows on radius 1.0 over a table of zs,
    so a value does not depend on the rest of the batch nor on the other
    rows.  order is an integer, or a float equal to one, in 0..3;
    ValueError otherwise.
    """
    order = _count("order", order, MAX_ORDER)
    rows = _series_rows(params.kappa, params.c, order, cfg.rel_tol, cfg.max_terms)
    return _contract(rows, (1.0,), _PowerTable(zs))[:, 0, :], rows.shape[1]


def zero_free_radius(k: float, c: float) -> float:
    """A radius rho such that 0F1(; k; -c z / 4) has no zero in |z| <= rho; 0.0 certifies nothing.

    For k > 0 the zeros x_j = j_{k-1,j}^2 / 4 of 0F1(; k; -x) are real and
    positive (Watson 15.25), and every term of the Rayleigh sum
    s_4 = sum_j x_j^-4 = (5k+6) / (k^4 (k+1)^2 (k+2)(k+3)) is positive, so
    x_1 > s_4^(-1/4).  Returns 4 s_4^(-1/4) / |c|, as
    4 k ((k+1)^2 (k+2)(k+3) / (5k+6))^(1/4) / |c| shrunk by ZERO_FREE_SHRINK,
    or 0.0 for k <= 0, c = 0 or an overflow (k above about 1e77).
    """
    if not k > 0.0 or c == 0.0:
        return 0.0
    quartic = (k + 1.0) * (k + 1.0) * (k + 2.0) * (k + 3.0) / (5.0 * k + 6.0)
    rho = 4.0 * k * quartic**0.25 / abs(c) * (1.0 - ZERO_FREE_SHRINK)
    return rho if math.isfinite(rho) else 0.0


def ode_residual(
    params: BesselParams,
    z: complex,
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> complex:
    """Residual of 4 z^2 u'' + 4 kappa z u' + c z u at z (zero in exact arithmetic)."""
    z = _check_disk(z)
    result = eval_u(params, z, order=2, cfg=cfg)
    u0, u1, u2 = result.values
    return 4.0 * z * z * u2 + 4.0 * params.kappa * z * u1 + params.c * z * u0


def recurrence_residual(
    params: BesselParams,
    z: complex,
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> complex:
    """Residual of the order-shift identity 4 kappa u_p' = -c u_{p+1} at z."""
    z = _check_disk(z)
    shifted = params.shifted(1.0)
    du = eval_u(params, z, order=1, cfg=cfg).values[1]
    u_next = eval_u(shifted, z, order=0, cfg=cfg).values[0]
    return 4.0 * params.kappa * du + params.c * u_next
