"""The kernels' geometry must agree with an independent implementation.

cell_area is checked against scipy's Voronoi diagram on realizations where
the cell is provably interior; count_in_cell and neutral_survivors against
brute-force all-pairs loops, and neutral_survivors also on exact ties at
the guard radius, which random inputs never draw.
"""

import math

import numpy as np
import pytest
from scipy.spatial import Voronoi

from secgraph.kernels import cell_area, count_in_cell, neutral_survivors


def _cell_points(rng, n, w):
    r = w * np.sqrt(rng.random(n))
    t = rng.uniform(0, 2 * math.pi, n)
    order = np.argsort(r * r, kind="stable")
    return np.ascontiguousarray((r * np.cos(t))[order]), np.ascontiguousarray((r * np.sin(t))[order])


def _scipy_cell_area(xs, ys):
    """Area of the origin's Voronoi cell, or None if unbounded/clipped."""
    pts = np.vstack([np.zeros((1, 2)), np.column_stack([xs, ys])])
    vor = Voronoi(pts)
    region = vor.regions[vor.point_region[0]]
    if -1 in region or len(region) < 3:
        return None
    poly = vor.vertices[region]
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def test_cell_area_matches_scipy_voronoi():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(250):
        xs, ys = _cell_points(rng, rng.poisson(math.pi * 16.0) + 3, 4.0)
        area, max_r, used, complete = cell_area(xs, ys, 2.0)
        if not (complete and max_r < 2.0):
            continue
        ref = _scipy_cell_area(xs, ys)
        if ref is None:
            continue
        assert area == pytest.approx(ref, abs=1e-12)
        checked += 1
    assert checked > 150


def test_cell_area_incomplete_flag_with_few_points():
    # a single far candidate cannot close a bounded cell
    xs = np.array([3.0])
    ys = np.array([0.0])
    area, max_r, used, complete = cell_area(xs, ys, 10.0)
    assert complete == 0


def test_count_in_cell_single_trial_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(50):
        nl, ne = rng.integers(0, 30), rng.integers(1, 30)
        lx, ly = rng.normal(size=nl), rng.normal(size=nl)
        ex, ey = rng.normal(size=ne), rng.normal(size=ne)
        loff = np.array([0, nl], dtype=np.int64)
        eoff = np.array([0, ne], dtype=np.int64)
        got = count_in_cell(lx, ly, loff, ex, ey, eoff)[0]
        # legit point contributes iff the origin is closer to it than any eave
        want = 0
        for j in range(nl):
            d2e = np.min((lx[j] - ex) ** 2 + (ly[j] - ey) ** 2)
            if lx[j] ** 2 + ly[j] ** 2 < d2e:
                want += 1
        assert got == want


def test_count_in_cell_no_eavesdroppers_counts_all():
    lx = np.array([0.5, -1.0, 2.0])
    ly = np.array([0.5, 1.0, 0.0])
    loff = np.array([0, 3], dtype=np.int64)
    eoff = np.array([0, 0], dtype=np.int64)
    assert count_in_cell(lx, ly, loff, np.empty(0), np.empty(0), eoff)[0] == 3


def test_neutral_survivors_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(40):
        ne, nl = rng.integers(1, 40), rng.integers(0, 40)
        ex, ey = rng.uniform(-5, 5, ne), rng.uniform(-5, 5, ne)
        lx, ly = rng.uniform(-5, 5, nl), rng.uniform(-5, 5, nl)
        radius = float(rng.uniform(0.2, 2.0))
        got = neutral_survivors(ex, ey, lx, ly, radius)
        d2 = (ex[:, None] - lx[None, :]) ** 2 + (ey[:, None] - ly[None, :]) ** 2
        want = ~(d2 <= radius * radius).any(axis=1) if nl else np.ones(ne, dtype=bool)
        assert np.array_equal(got, want)


def test_neutral_survivors_legitimate_point_at_radius_neutralizes():
    # eavesdropper 0 has a legitimate point at exactly 0.5, eavesdropper 1 at 0.75
    ex, ey = np.array([0.0, 3.0]), np.array([0.0, 0.0])
    lx, ly = np.array([0.5, 3.0]), np.array([0.0, 0.75])
    assert neutral_survivors(ex, ey, lx, ly, 0.5).tolist() == [False, True]
    assert neutral_survivors(ex, ey, lx, ly, 0.75).tolist() == [False, False]
