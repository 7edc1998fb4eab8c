"""The kernels' geometry must agree with an independent implementation.

cell_area is checked against scipy's Voronoi diagram on the trials it marks
safe, random ones and 20,000 on a half-integer grid, where points of a trial
share an angle from the origin or coincide, and its safety rule against the
points it claims cannot matter; its two-argsort order against the lexsort it
replaced, bit for bit, on blocks of up to 300 trials and one of 70,000.
count_in_cell and neutral_survivors against brute-force all-pairs loops,
and neutral_survivors also on exact ties at the guard radius, which random
inputs never draw.  count_in_cell is also checked against the per-trial loop
it replaced, on many-trial blocks whose coordinates come from a small grid,
so that ties, duplicates and eavesdroppers on top of legitimate points are
drawn often, and at an eavesdropper exactly and just beyond twice a point's
radius, where it stops testing points.  The spatial draw that feeds the
kernels is held to the peak memory per point of the draw it replaced.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import Voronoi

from secgraph import kernels, montecarlo
from secgraph.kernels import cell_area, count_in_cell, neutral_survivors


def _cell_points(rng, n, r0, r1):
    """Uniform points in the annulus r0 <= r < r1 for each of n trials: the
    trial index and the coordinates of every point."""
    area = math.pi * (r1 * r1 - r0 * r0)
    seg = np.repeat(np.arange(n), rng.poisson(area, n))
    r = np.sqrt(rng.random(seg.size) * (r1 * r1 - r0 * r0) + r0 * r0)
    t = rng.uniform(0, 2 * math.pi, seg.size)
    return seg, r * np.cos(t), r * np.sin(t)


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
    seg, xs, ys = _cell_points(rng, 250, 0.0, 4.0)
    areas, safe, used = cell_area(xs, ys, seg, 250, 2.0)
    assert isinstance(used, int) and 3 * safe.sum() <= used < len(xs)
    checked = 0
    for t in np.flatnonzero(safe):
        ref = _scipy_cell_area(xs[seg == t], ys[seg == t])
        assert ref is not None
        assert areas[t] == pytest.approx(ref, abs=1e-12)
        checked += 1
    assert checked >= 150


def test_cell_area_safe_cell_ignores_points_beyond_window():
    # the safety rule's purpose: a cell marked safe at window W is the cell of
    # the whole process, so the points between W and 1.5W change nothing
    rng = np.random.default_rng(17)
    n, w = 200, 4.0
    seg, xs, ys = _cell_points(rng, n, 0.0, w)
    areas, safe, _ = cell_area(xs, ys, seg, n, w / 2.0)
    aseg, ax, ay = _cell_points(rng, n, w, 1.5 * w)
    grown, grown_safe, _ = cell_area(
        np.concatenate([xs, ax]), np.concatenate([ys, ay]), np.concatenate([seg, aseg]), n, 1.5 * w / 2.0
    )
    assert safe.sum() >= 150
    assert grown_safe[safe].all()
    assert np.array_equal(grown[safe], areas[safe])


def test_cell_area_unsafe_cases():
    diamond = ([2.0, -2.0, -2.0, 2.0], [2.0, 2.0, -2.0, -2.0])  # cell |x| + |y| <= 2, vertex radius 2
    trials = [
        ([3.0], [0.0]),  # a lone far candidate cannot close a bounded cell
        ([1.0, -1.0, 0.0, 0.5], [1.0, 1.0, 2.0, 3.0]),  # all candidates in one half-plane
        diamond,  # vertex radius equal to half_width
        (np.multiply(diamond[0], 0.5), np.multiply(diamond[1], 0.5)),  # vertex radius 1
    ]
    xs = np.concatenate([t[0] for t in trials])
    ys = np.concatenate([t[1] for t in trials])
    seg = np.repeat(np.arange(len(trials)), [len(t[0]) for t in trials])
    areas, safe, _ = cell_area(xs, ys, seg, len(trials) + 1, 2.0)
    assert safe.tolist() == [False, False, False, True, False]  # trial 4 has no candidates
    assert areas[3] == 2.0
    areas, safe, _ = cell_area(*diamond, np.zeros(4, dtype=np.int64), 1, np.nextafter(2.0, 3.0))
    assert safe[0] and areas[0] == 8.0


def test_cell_area_same_angle_points():
    # the square cell |x|, |y| <= 1/2 of (+-1, 0) and (0, +-1), with its
    # corner x + y < -1/2 cut off by (-1/2, -1/2): area 7/8.  Trial 0 puts
    # two more points on that ray, whose dual points are (-0.4, -0.4),
    # (-2, -2) and (-1, -1) in this order, so the hull vertex (-2, -2) sits
    # between two same-angle points; trial 1 holds (-1/2, -1/2) twice.
    square = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
    trials = [[(-2.5, -2.5), (-0.5, -0.5), (-1.0, -1.0)] + square, [(-0.5, -0.5), (-0.5, -0.5)] + square]
    pts = np.array([p for t in trials for p in t])
    seg = np.repeat(np.arange(len(trials)), [len(t) for t in trials])
    areas, safe, used = cell_area(pts[:, 0], pts[:, 1], seg, len(trials), 1.0)
    assert safe.all() and used == 10
    assert areas.tolist() == [0.875, 0.875]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # vertices of the unbounded cells
def test_cell_area_matches_scipy_voronoi_on_a_grid():
    # 20,000 trials of 3-29 distinct points on the half-integer grid in
    # [-3, 3], where points of a trial often share an angle from the origin
    rng = np.random.default_rng(29)
    grid = np.array([(a, b) for a in np.arange(-6, 7) / 2.0 for b in np.arange(-6, 7) / 2.0 if a or b])
    n = 20_000
    sizes = rng.integers(3, 30, n)
    picks = np.concatenate([rng.choice(len(grid), k, replace=False) for k in sizes])
    xs, ys = grid[picks, 0], grid[picks, 1]
    areas, safe, _ = cell_area(xs, ys, np.repeat(np.arange(n), sizes), n, 3.0)
    assert safe.sum() > 15_000
    ends = np.cumsum(sizes)
    for t in np.flatnonzero(safe):
        ref = _scipy_cell_area(xs[ends[t] - sizes[t] : ends[t]], ys[ends[t] - sizes[t] : ends[t]])
        assert ref is not None and abs(areas[t] - ref) <= 1e-9, t


def _cell_area_lexsort(x, y, seg, n, half_width):
    """cell_area as it was before it sorted by two argsorts: one lexsort by
    (trial, angle), then the same hull, vertices and areas."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    seg = np.asarray(seg, dtype=np.int64)
    order = np.lexsort((np.arctan2(y, x), seg))
    seg = seg[order]
    r2 = x[order] ** 2 + y[order] ** 2
    ax = 2.0 * x[order] / r2
    ay = 2.0 * y[order] / r2
    while True:
        counts = np.bincount(seg, minlength=n)
        end = np.cumsum(counts)
        first, last = (end - counts)[seg], end[seg] - 1
        i = np.arange(seg.size)
        prev = np.where(i == first, last, i - 1)
        nxt = np.where(i == last, first, i + 1)
        left = (ax - ax[prev]) * (ay[nxt] - ay) - (ay - ay[prev]) * (ax[nxt] - ax) > 0.0
        if left.all():
            break
        seg, ax, ay = seg[left], ax[left], ay[left]
    cross = ax * ay[nxt] - ay * ax[nxt]
    with np.errstate(divide="ignore", invalid="ignore"):
        vx = (ay[nxt] - ay) / cross
        vy = (ax - ax[nxt]) / cross
    areas = 0.5 * np.bincount(seg, vx * vy[nxt] - vx[nxt] * vy, minlength=n)
    outside = (cross <= 0.0) | ~(vx * vx + vy * vy < half_width * half_width)
    safe = (counts >= 3) & (np.bincount(seg, outside, minlength=n) == 0)
    return areas, safe, int(seg.size)


def _assert_same_cells(got, want):
    assert np.array_equal(got[0], want[0], equal_nan=True)
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]


@st.composite
def _cell_blocks(draw):
    """A block as the voronoi_area sampler builds it: every trial's points
    within w, some trials empty, then an annulus out to 1.5 w for some
    trials, appended after the first round so that seg is unsorted."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.one_of(st.integers(1, 300), st.sampled_from([255, 256, 257])))
    w = draw(st.sampled_from([0.5, 1.5, 3.0]))
    seg, x, y = _cell_points(rng, n, 0.0, w)
    keep = (rng.random(n) >= draw(st.sampled_from([0.0, 0.2, 0.9])))[seg]
    aseg, ax, ay = _cell_points(rng, n, w, 1.5 * w)
    grown = (rng.random(n) < draw(st.sampled_from([0.0, 0.05, 1.0])))[aseg]
    seg = np.concatenate([seg[keep], aseg[grown]])
    x = np.concatenate([x[keep], ax[grown]])
    y = np.concatenate([y[keep], ay[grown]])
    return x, y, seg, n, draw(st.sampled_from([0.5 * w, 0.75 * w]))


@settings(max_examples=150, deadline=None)
@given(block=_cell_blocks())
def test_cell_area_order_matches_lexsort(block):
    # seg is cast to uint8 below 256 trials and uint16 from 256 on; both sort
    # by radix.  Two random points of a trial share an exact angle, the one
    # case where the two orders may differ, with probability zero.
    with np.errstate(divide="ignore", invalid="ignore"):
        _assert_same_cells(cell_area(*block), _cell_area_lexsort(*block))


def test_cell_area_order_matches_lexsort_past_uint16():
    # 70,000 trials cast seg to uint32, which numpy sorts stably without radix
    rng = np.random.default_rng(23)
    n = 70_000
    seg, xs, ys = _cell_points(rng, n, 0.0, 1.5)
    shuffle = rng.permutation(seg.size)
    args = (xs[shuffle], ys[shuffle], seg[shuffle], n, 0.75)
    got = cell_area(*args)
    assert got[1].sum() > 10_000
    _assert_same_cells(got, _cell_area_lexsort(*args))


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


def _count_in_cell_per_trial(lx, ly, loff, ex, ey, eoff):
    """The per-trial loop count_in_cell replaced: one dense legitimate x
    eavesdropper matrix per trial, the counts being r^2 < min_e d_e^2."""
    counts = np.zeros(len(loff) - 1, dtype=np.int64)
    for t in range(len(loff) - 1):
        l0, l1 = loff[t], loff[t + 1]
        e0, e1 = eoff[t], eoff[t + 1]
        if l1 == l0:
            continue
        tlx = lx[l0:l1]
        tly = ly[l0:l1]
        r2 = tlx * tlx + tly * tly
        if e1 == e0:
            counts[t] = l1 - l0
            continue
        dx = tlx[:, None] - ex[e0:e1][None, :]
        dy = tly[:, None] - ey[e0:e1][None, :]
        d2min = (dx * dx + dy * dy).min(axis=1)
        counts[t] = int(np.count_nonzero(r2 < d2min))
    return counts


def _grid_points(rng, n):
    """n coordinate pairs, each coordinate on the half-integer grid in [-3, 3]
    (so that points tie exactly and coincide often) or uniform in it."""
    grid = rng.integers(-6, 7, size=(2, n)) / 2.0
    return np.where(rng.random((2, n)) < 0.7, grid, rng.uniform(-3.0, 3.0, (2, n)))


@st.composite
def _segments(draw, rng, trials, sizes):
    """Points of trials segments of the drawn sizes, with a few unused points
    before the first offset and after the last, and the offsets."""
    counts = draw(st.lists(sizes, min_size=trials, max_size=trials))
    lead, tail = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    x, y = _grid_points(rng, lead + sum(counts) + tail)
    return x, y, lead + np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)


@st.composite
def _blocks(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    trials = draw(st.integers(1, 64))
    lx, ly, loff = draw(_segments(rng, trials, st.integers(0, 6)))
    ex, ey, eoff = draw(_segments(rng, trials, st.one_of(st.just(0), st.integers(1, 3), st.integers(4, 40))))
    return lx, ly, loff, ex, ey, eoff


@settings(max_examples=200, deadline=None)
@given(block=_blocks(), chunk=st.sampled_from([1, 7, kernels._IN_CELL_CHUNK]))
def test_count_in_cell_matches_per_trial_loop(block, chunk):
    # small chunks split trials between chunks, as blocks past the chunk size do
    with mock.patch.object(kernels, "_IN_CELL_CHUNK", chunk):
        assert np.array_equal(count_in_cell(*block), _count_in_cell_per_trial(*block))


def test_count_in_cell_edge_cases():
    # trial 0: the tie p = (1, 0), e = (2, 0) is not in the cell, (0.5, 0) is;
    # trial 1: no legitimate points; trial 2: no eavesdroppers, next to
    # trial 3 with five, one on top of its legitimate point (0, 1), while
    # (3, 0) is in the cell; trial 4: the origin itself and a duplicated
    # eavesdropper there, which captures it (0 < 0 fails)
    lx = np.array([9.0, 1.0, 0.5, -1.0, 2.0, 0.0, 3.0, 0.0, 9.0])
    ly = np.array([9.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 9.0])
    loff = np.array([1, 3, 3, 5, 7, 8], dtype=np.int64)
    ex = np.array([-9.0, 2.0, 0.0, 0.0, 4.0, -4.0, 5.0, 0.0, 0.0, 6.0, 6.0, 6.0])
    ey = np.array([-9.0, 0.0, 1.0, 3.0, 4.0, -4.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    eoff = np.array([1, 2, 2, 2, 7, 9], dtype=np.int64)
    got = count_in_cell(lx, ly, loff, ex, ey, eoff)
    assert got.tolist() == [1, 0, 2, 1, 0]
    assert np.array_equal(got, _count_in_cell_per_trial(lx, ly, loff, ex, ey, eoff))
    assert count_in_cell(lx, ly, loff[:1], ex, ey, eoff[:1]).tolist() == []


def test_count_in_cell_at_twice_a_points_radius():
    # p = (1.5, 2) against an eavesdropper at exactly 2p, which is as far
    # from p as the origin: dropped, also with a farther eavesdropper after
    # it.  Just beyond 2p the point is kept by the rank test, since the
    # retirement bound r^2 < d^2 / (4 (1 + 1e-6)) does not take it, and
    # retires at the farther rank 1.  Against 2.1p it retires at rank 0,
    # unless an eavesdropper nearer the origin and next to p comes first.
    beyond = (np.nextafter(3.0, np.inf), np.nextafter(4.0, np.inf))
    ex = np.array([3.0, 20.0, beyond[0], 20.0, 3.15, 1.6])
    ey = np.array([4.0, 0.0, beyond[1], 0.0, 4.2, 2.1])
    eoff = np.array([0, 2, 4, 6], dtype=np.int64)
    lx, ly = np.full(3, 1.5), np.full(3, 2.0)
    loff = np.arange(4, dtype=np.int64)
    assert count_in_cell(lx, ly, loff, ex, ey, eoff).tolist() == [0, 1, 0]
    assert _count_in_cell_per_trial(lx, ly, loff, ex, ey, eoff).tolist() == [0, 1, 0]
    assert count_in_cell(lx, ly, loff, ex[:5], ey[:5], np.array([0, 2, 4, 5])).tolist() == [0, 1, 1]


def test_spatial_draw_peak_memory_per_point():
    # the polar draw writes its four outputs (32 bytes per point) and holds a
    # few megabytes of candidate pairs at a time: drawing every pair at once
    # peaked at 79 bytes per point, the trigonometric draw at 48
    g = np.random.default_rng(3)
    tracemalloc.start()
    try:
        seg, _, _, _ = montecarlo._annuli_draw(g, 1.0, 0.0, math.sqrt(1000 / math.pi), np.arange(1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seg.size > 9e5
    assert peak / seg.size <= 48


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
