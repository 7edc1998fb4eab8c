"""The kernels of the local-connectivity estimators.

cell_area finds the origin's Voronoi cell in every trial of a block at once,
as the polar of the convex hull of the dual points 2p/|p|^2; count_in_cell
counts the legitimate points inside the origin's cell in every trial of a
block at once, testing them against the eavesdroppers nearest the origin
first; neutral_survivors applies the guard disks.  All three are numpy
(neutral_survivors on a scipy k-d tree); BACKEND names that single
implementation, and backend_name() is the stable way to query it, so that
recorded timings say what they measured.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BACKEND", "backend_name", "cell_area", "count_in_cell", "neutral_survivors"]

BACKEND = "python"


def backend_name() -> str:
    return BACKEND


def _dual_by_angle(x, y, seg, n):
    """Trial index and dual point a = 2p/|p|^2 of every point, sorted by
    trial, then angle.

    An argsort by angle, then a stable argsort by seg cast to the smallest
    unsigned type that holds n (numpy sorts 8- and 16-bit integers by radix),
    gives the order of a lexsort by (seg, angle), except that points of a
    trial at exactly the same angle may come in either order.  Such a tie
    could peel off a true hull vertex, which a same-angle neighbour on each
    side leaves with no strict turn, and two coincident points cancel each
    other's turn.  So when one compare of sorted neighbours finds a tie,
    which Poisson draws hold with probability zero, one lexsort orders each
    trial's same-angle points by decreasing radius, so that the farthest dual
    point comes last, where the peel keeps it if it is a hull vertex, and all
    but one of any points at the same angle and radius are dropped.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    seg = np.asarray(seg, dtype=np.int64)
    angle = np.arctan2(y, x)
    order = np.argsort(angle)
    order = order[np.argsort(seg[order].astype(np.min_scalar_type(n)), kind="stable")]
    seg, angle, x, y = seg[order], angle[order], x[order], y[order]
    r2 = x**2 + y**2
    if ((angle[1:] == angle[:-1]) & (seg[1:] == seg[:-1])).any():
        order = np.lexsort((-r2, angle, seg))
        seg, angle, r2, x, y = seg[order], angle[order], r2[order], x[order], y[order]
        first = np.ones(seg.size, dtype=bool)
        first[1:] = (seg[1:] != seg[:-1]) | (angle[1:] != angle[:-1]) | (r2[1:] != r2[:-1])
        seg, r2, x, y = seg[first], r2[first], x[first], y[first]
    return seg, 2.0 * x / r2, 2.0 * y / r2


def cell_area(x, y, seg, n, half_width):
    """Areas of the origin's Voronoi cells in n trials at once, by polar duality.

    x, y are the candidate points of every trial and seg their trial index,
    0 <= seg < n.  The cell {v : v.a <= 1 for every a = 2p/|p|^2} is the polar
    of the convex hull of the dual points a.  Sorted by angle
    (_dual_by_angle), a trial's points lose, all at once, every point that
    makes no strict left turn with its cyclic neighbours, until none does;
    what is left is the hull.  The cell vertex between consecutive hull
    points a_j, a_k solves v.a_j = v.a_k = 1.

    A trial is safe when its hull has at least 3 points, no angular gap
    between consecutive hull points reaches pi (the cell is bounded), and
    every cell vertex lies within half_width.  No point beyond 2 half_width
    can then cut the cell, so when the candidates are every point within
    2 half_width, a safe area is the cell of the whole process.

    Returns (areas, safe, used): the per-trial areas (meaningful only where
    safe), the per-trial safe mask, and the number of hull points in all.
    """
    seg, ax, ay = _dual_by_angle(x, y, seg, n)
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


# Legitimate points count_in_cell tests at a time, so that its temporaries
# stay a few megabytes however large the block.  Unchunked, a 256-trial
# in-degree block of 4.1e6 points (lambda_e 1e-3) peaked at 347 MB against
# the 225 MB of drawing it; chunked it stays at 225 MB, and runs no slower.
_IN_CELL_CHUNK = 1 << 16


# A point with r^2 < d_k^2 * _RETIRE, d_k the distance of its trial's rank-k
# eavesdropper from the origin, is nearer the origin than that eavesdropper
# and every later one (count_in_cell).
_RETIRE = 0.25 / (1.0 + 1e-6)


def _by_rank(ex, ey, eoff):
    """The eavesdroppers as three (width, trials) arrays, their coordinates
    and their squared radii times _RETIRE: row k holds each trial's k-th
    nearest the origin, inf where a trial has fewer."""
    ne = np.diff(eoff)
    trials = ne.size
    eseg = np.repeat(np.arange(trials), ne)
    rank = np.arange(eseg.size) - (eoff[:-1] - eoff[0])[eseg]
    nx = np.full((trials, int(ne.max(initial=0))), np.inf)
    ny = np.full_like(nx, np.inf)
    nx[eseg, rank] = np.asarray(ex, dtype=np.float64)[eoff[0] : eoff[-1]]
    ny[eseg, rank] = np.asarray(ey, dtype=np.float64)[eoff[0] : eoff[-1]]
    d2 = nx * nx + ny * ny
    order = np.argsort(d2, axis=1)
    return tuple(np.take_along_axis(a, order, axis=1).T for a in (nx, ny, d2 * _RETIRE))


def count_in_cell(lx, ly, loff, ex, ey, eoff):
    """Per-trial count of legitimate points nearer the origin than any eavesdropper.

    Flat coordinate arrays are segmented by the int64 offset arrays
    (loff[t]:loff[t+1] are trial t's legitimate points).  A trial with no
    eavesdroppers counts every legitimate point.

    Every trial is handled at once, with no loop over trials.  The
    eavesdroppers are laid out rank by rank, each trial's sorted nearest the
    origin first and padded with inf up to the largest count in any trial.
    At rank k every legitimate point still in play is tested against its own
    trial's k-th eavesdropper and dropped unless strictly nearer the origin;
    the points left after the last rank are counted.  That is the predicate
    r^2 < min_e d_e^2 from the same float64 operations, since a minimum is an
    exact selection: no order of the eavesdroppers changes a count, nearest
    first only drops most points within a few ranks, and an inf pad drops
    none.  The points go through the ranks _IN_CELL_CHUNK at a time.

    A point also leaves play, counted, once no later eavesdropper can reach
    it: at rank k, when r^2 < d_k^2 / (4 (1 + 1e-6)), with d_k^2 the squared
    radius of its trial's rank-k eavesdropper, the float the ranks are
    sorted by.
    Every eavesdropper from rank k on then lies at least 2 (1 + 5e-7) |p|
    from the origin, so at least (1 + 1e-6) |p| from p, and the float test
    r^2 < dx^2 + dy^2, whose roundings are some 1e-16 relative, would keep
    the point at every later rank: the counts are exact (for coordinates
    whose squares are normal floats).  An inf pad retires every point left
    in its trial, which the pads would have kept to the end.  So the ranks
    stop once every point is dropped or counted: after 25-32 of the 65-68
    ranks of a 256-trial block at lambda_e = 0.1.
    """
    loff = np.asarray(loff, dtype=np.int64)
    eoff = np.asarray(eoff, dtype=np.int64)
    trials = len(loff) - 1
    lseg = np.repeat(np.arange(trials), np.diff(loff))
    px = np.asarray(lx, dtype=np.float64)[loff[0] : loff[-1]]
    py = np.asarray(ly, dtype=np.float64)[loff[0] : loff[-1]]
    ranks = _by_rank(ex, ey, eoff)
    counts = np.zeros(trials, dtype=np.int64)
    for c in range(0, lseg.size, _IN_CELL_CHUNK):
        chunk = slice(c, c + _IN_CELL_CHUNK)
        seg, x, y = lseg[chunk], px[chunk], py[chunk]
        r2 = x * x + y * y
        for kx, ky, kr in zip(*ranks):
            retire = r2 < kr[seg]
            counts += np.bincount(seg[retire], minlength=trials)
            dx = x - kx[seg]
            dy = y - ky[seg]
            keep = r2 < dx * dx + dy * dy
            keep &= ~retire
            seg, x, y, r2 = seg[keep], x[keep], y[keep], r2[keep]
            if not seg.size:
                break
        counts += np.bincount(seg, minlength=trials)
    return counts


def neutral_survivors(ex, ey, lx, ly, radius):
    """Boolean mask of eavesdroppers with no legitimate point within radius.

    One nearest-neighbour query of the eavesdroppers against a k-d tree of
    the legitimate points.  The strict predicate is survive iff min distance
    > radius, so a legitimate point exactly at the radius still neutralizes;
    the tree only reports neighbours strictly inside its bound, hence the
    bound one ulp above the radius.
    """
    from scipy.spatial import cKDTree

    m = len(ex)
    if m == 0:
        return np.zeros(0, dtype=bool)
    if len(lx) == 0 or radius <= 0.0:
        return np.ones(m, dtype=bool)
    tree = cKDTree(np.column_stack([lx, ly]), balanced_tree=False, compact_nodes=False)
    d, _ = tree.query(np.column_stack([ex, ey]), distance_upper_bound=np.nextafter(radius, np.inf))
    return ~(d <= radius)
