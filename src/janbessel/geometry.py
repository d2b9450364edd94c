"""Janowski target regions and the Mobius map that generates them.

A pair (A, B) with -1 <= B < A <= 1 defines the Mobius transform

    m(z) = (1 + A z) / (1 + B z),

whose image of the open unit disk is the membership region for the pair:

  * B = -1:  the open half-plane Re w > (1 - A) / 2,
  * B > -1:  the open disk with center (1 - A B) / (1 - B^2) and radius
             (A - B) / (1 - B^2).

Both regions contain w = 1 = m(0), which is how the normalized functions of
this library enter them.  The classical order-beta half-plane Re w > beta is
the pair (1 - 2 beta, -1).

Values of B within 1e-12 of -1 are snapped to exactly -1 at construction, so
the half-plane branch is taken consistently instead of producing a disk of
astronomical radius.

region_margin_many, and the scalar region_margin built on it, import numpy
when called; the rest of the module uses the standard library alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# B values this close to -1 collapse to the half-plane case exactly.
B_COLLAPSE_TOL = 1e-12
# Mobius denominators smaller than this are treated as poles.
DENOMINATOR_TOL = 1e-14

HALF_PLANE = "half-plane"
DISK = "disk"


class DegenerateDenominator(ArithmeticError):
    """1 + B z vanished (to tolerance) at the requested point."""


class OrderOutOfRange(ValueError):
    """Half-plane order beta must lie in [0, 1)."""


@dataclass(frozen=True)
class JanowskiPair:
    """Region parameters A, B with -1 <= B < A <= 1."""

    A: float
    B: float

    def __post_init__(self) -> None:
        a = float(self.A)
        b = float(self.B)
        if abs(b + 1.0) < B_COLLAPSE_TOL:
            b = -1.0
        if not (-1.0 <= b < a <= 1.0):
            raise ValueError(f"require -1 <= B < A <= 1, got A={a}, B={b}")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)


@dataclass(frozen=True)
class TargetRegion:
    """Image of the unit disk under the pair's Mobius map.

    kind is "half-plane" (re_bound set) or "disk" (center and radius set);
    the fields of the other kind stay None.  Membership is strict: boundary
    points are outside.
    """

    kind: str
    center: float | None = None
    radius: float | None = None
    re_bound: float | None = None


def mobius(pair: JanowskiPair, z: complex) -> complex:
    """Evaluate (1 + A z)/(1 + B z); raises DegenerateDenominator at a pole."""
    z = complex(z)
    den = 1.0 + pair.B * z
    if abs(den) < DENOMINATOR_TOL:
        raise DegenerateDenominator(f"1 + B z vanished at z = {z} (B = {pair.B})")
    return (1.0 + pair.A * z) / den


def target_region(pair: JanowskiPair) -> TargetRegion:
    """Half-plane for B = -1, disk otherwise (exact image of the unit disk)."""
    if pair.B == -1.0:
        return TargetRegion(kind=HALF_PLANE, re_bound=(1.0 - pair.A) / 2.0)
    denom = 1.0 - pair.B * pair.B
    return TargetRegion(
        kind=DISK,
        center=(1.0 - pair.A * pair.B) / denom,
        radius=(pair.A - pair.B) / denom,
    )


def region_margin_many(region: TargetRegion, ws: np.ndarray) -> np.ndarray:
    """Signed distance into the region: positive strictly inside, negative outside."""
    import numpy as np

    ws = np.asarray(ws, dtype=complex)
    if region.kind == HALF_PLANE:
        return ws.real - region.re_bound
    return region.radius - np.abs(ws - region.center)


def region_margin(region: TargetRegion, w: complex) -> float:
    """region_margin_many for a single point."""
    return float(region_margin_many(region, w))


def pair_from_order(beta: float) -> JanowskiPair:
    """Pair whose region is the half-plane Re w > beta, for beta in [0, 1)."""
    beta = float(beta)
    if not (0.0 <= beta < 1.0):
        raise OrderOutOfRange(f"order must lie in [0, 1), got {beta}")
    return JanowskiPair(A=1.0 - 2.0 * beta, B=-1.0)
