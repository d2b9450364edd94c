"""Target map and region tests: images, margins, order specializations."""

import math

import numpy as np
import pytest

from janbessel import (
    DISK,
    HALF_PLANE,
    DegenerateDenominator,
    JanowskiPair,
    OrderOutOfRange,
    mobius,
    pair_from_order,
    region_margin,
    region_margin_many,
    target_region,
)


def rand_pair(rng):
    B = rng.uniform(-1.0, 0.9)
    A = rng.uniform(B + 0.05, 1.0)
    return JanowskiPair(A, B)


@pytest.mark.parametrize(
    "A,B,z,expected",
    [(1.0, -1.0, 0.5, 3.0), (0.0, -1.0, 0.5, 2.0), (1.0, 0.0, 0.25, 1.25)],
)
def test_mobius_values(A, B, z, expected):
    assert mobius(JanowskiPair(A, B), z) == expected


def test_mobius_is_one_at_origin():
    rng = np.random.default_rng(41)
    for _ in range(20):
        assert mobius(rand_pair(rng), 0.0) == 1.0


def test_mobius_degenerate_denominator():
    pair = JanowskiPair(0.0, -1.0)
    with pytest.raises(DegenerateDenominator):
        mobius(pair, 1.0 - 5e-15)


def test_pair_validation():
    with pytest.raises(ValueError):
        JanowskiPair(0.5, 0.5)  # B < A violated
    with pytest.raises(ValueError):
        JanowskiPair(1.2, 0.0)
    with pytest.raises(ValueError):
        JanowskiPair(0.0, -1.001)
    with pytest.raises(ValueError):
        JanowskiPair(float("nan"), -1.0)


def test_b_snaps_to_half_plane_case():
    pair = JanowskiPair(0.0, -1.0 + 1e-13)
    assert pair.B == -1.0
    assert target_region(pair).kind == HALF_PLANE
    # Outside the snap window the disk form survives.
    assert target_region(JanowskiPair(0.0, -1.0 + 1e-6)).kind == DISK


@pytest.mark.parametrize(
    "A,B,re_bound",
    [(0.0, -1.0, 0.5), (1.0, -1.0, 0.0), (0.5, -1.0, 0.25)],
)
def test_half_plane_regions(A, B, re_bound):
    region = target_region(JanowskiPair(A, B))
    assert region.kind == HALF_PLANE
    assert region.re_bound == re_bound
    assert region.center is None and region.radius is None


@pytest.mark.parametrize(
    "A,B,center,radius",
    [(1.0, 0.0, 1.0, 1.0), (0.5, 0.0, 1.0, 0.5), (1.0, 0.5, (1 - 0.5) / 0.75, 0.5 / 0.75)],
)
def test_disk_regions(A, B, center, radius):
    region = target_region(JanowskiPair(A, B))
    assert region.kind == DISK
    assert abs(region.center - center) < 1e-15
    assert abs(region.radius - radius) < 1e-15


def test_contains_examples():
    disk = target_region(JanowskiPair(1.0, 0.0))
    assert region_margin(disk, 1.0) == 1.0
    half = target_region(JanowskiPair(0.0, -1.0))
    assert abs(region_margin(half, 0.4) - (-0.1)) < 1e-15


def test_contains_is_strict_on_the_boundary():
    # Inside means a positive margin; a boundary point's margin is exactly 0.
    half = target_region(JanowskiPair(0.0, -1.0))
    assert region_margin(half, 0.5) == 0.0
    disk = target_region(JanowskiPair(1.0, 0.0))
    assert region_margin(disk, 2.0) == 0.0  # center 1 radius 1


def test_half_disk_example_membership():
    pair = JanowskiPair(0.5, 0.0)
    w = mobius(pair, 0.3 + 0.2j)
    assert region_margin(target_region(pair), w) > 0.0


@pytest.mark.parametrize(
    "beta,A",
    [(0.0, 1.0), (0.5, 0.0), (0.25, 0.5)],
)
def test_pair_from_order(beta, A):
    pair = pair_from_order(beta)
    assert pair.A == A and pair.B == -1.0


@pytest.mark.parametrize("beta", [1.0, -0.1, 1.5])
def test_pair_from_order_rejects(beta):
    with pytest.raises(OrderOutOfRange):
        pair_from_order(beta)


def test_image_containment_property():
    rng = np.random.default_rng(43)
    for _ in range(50):
        pair = rand_pair(rng)
        region = target_region(pair)
        for _ in range(20):
            r = rng.uniform(0.0, 0.999)
            z = r * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            assert region_margin(region, mobius(pair, complex(z))) > 0.0


def test_disk_boundary_fit():
    rng = np.random.default_rng(47)
    theta = np.linspace(0.0, 2.0 * math.pi, 1000, endpoint=False)
    ring = (1.0 - 1e-9) * np.exp(1j * theta)
    for _ in range(10):
        B = rng.uniform(-0.9, 0.9)
        A = rng.uniform(B + 0.1, 1.0)
        pair = JanowskiPair(A, B)
        region = target_region(pair)
        for z in ring[::100]:
            w = mobius(pair, complex(z))
            assert abs(abs(w - region.center) - region.radius) < 1e-6


def test_half_plane_boundary_fit():
    # For B = -1 the infimum of Re w over the disk is re_bound, reached
    # along the negative real axis.
    for A in (0.0, 0.5, 1.0):
        pair = JanowskiPair(A, -1.0)
        region = target_region(pair)
        w = mobius(pair, -(1.0 - 1e-9))
        assert abs(w.real - region.re_bound) < 1e-6


def test_monotone_nesting_of_circle_minima():
    # The worst-case containment margin over |z| = r never improves as r grows.
    rng = np.random.default_rng(53)
    theta = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    for _ in range(10):
        pair = rand_pair(rng)
        region = target_region(pair)
        last = math.inf
        for r in np.linspace(0.1, 0.99, 10):
            ws = np.array([mobius(pair, complex(r * np.exp(1j * t))) for t in theta])
            m = float(np.min(region_margin_many(region, ws)))
            assert m <= last + 1e-12
            last = m


def test_normalization_point_always_inside():
    rng = np.random.default_rng(59)
    for _ in range(30):
        pair = rand_pair(rng)
        assert region_margin(target_region(pair), 1.0) > 0.0


def test_margin_many_matches_scalar():
    rng = np.random.default_rng(61)
    pair = rand_pair(rng)
    region = target_region(pair)
    ws = rng.normal(size=8) + 1j * rng.normal(size=8)
    many = region_margin_many(region, ws)
    for j, w in enumerate(ws):
        assert many[j] == region_margin(region, complex(w))
    assert np.array_equal(many, region_margin_many(region, ws))
