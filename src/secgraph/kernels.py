"""The per-trial kernels of the local-connectivity estimators.

cell_area clips the origin's Voronoi cell, count_in_cell counts the
legitimate points inside it, and neutral_survivors applies the guard disks.
All three are numpy (neutral_survivors on a scipy k-d tree); BACKEND names
that single implementation, and backend_name() is the stable way to query
it, so that recorded timings say what they measured.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

__all__ = ["BACKEND", "backend_name", "cell_area", "count_in_cell", "neutral_survivors"]

BACKEND = "python"


def backend_name() -> str:
    return BACKEND


def cell_area(xs, ys, half_width):
    """Area of the origin's Voronoi cell among candidate points, clipped to a square.

    xs, ys must be sorted by ascending distance from the origin.  Starts from
    the square [-half_width, half_width]^2 and clips the half-plane closer to
    the origin than to each candidate.  A candidate at distance d cannot cut
    the polygon once d^2 >= 4 * max vertex radius^2; candidates are sorted, so
    the first such candidate ends the loop.

    Returns (area, max_vertex_radius, candidates_used, complete) where
    complete is 1 when the early-exit condition was reached (every remaining
    point provably irrelevant) and 0 when the candidate list was exhausted
    first.  The caller decides whether the result is exact for the infinite
    process (complete and max_vertex_radius inside the safety margin).
    """
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    ys = np.ascontiguousarray(ys, dtype=np.float64)
    n = len(xs)
    hw = float(half_width)
    px = [-hw, hw, hw, -hw]
    py = [-hw, -hw, hw, hw]
    max_r2 = 2.0 * hw * hw
    used = 0
    complete = 0
    for i in range(n):
        cx = float(xs[i])
        cy = float(ys[i])
        d2 = cx * cx + cy * cy
        if d2 >= 4.0 * max_r2:
            complete = 1
            break
        used += 1
        h = 0.5 * d2
        m = len(px)
        qx = []
        qy = []
        sa = px[0] * cx + py[0] * cy - h
        for k in range(m):
            k1 = k + 1
            if k1 == m:
                k1 = 0
            sb = px[k1] * cx + py[k1] * cy - h
            if sa <= 0.0:
                qx.append(px[k])
                qy.append(py[k])
            if (sa <= 0.0) != (sb <= 0.0):
                t = sa / (sa - sb)
                qx.append(px[k] + t * (px[k1] - px[k]))
                qy.append(py[k] + t * (py[k1] - py[k]))
            sa = sb
        px = qx
        py = qy
        if len(px) < 3:
            # numerically degenerate; origin is interior so this cannot
            # happen for real inputs; signal the caller to retry
            return 0.0, 0.0, used, 0
        max_r2 = 0.0
        for k in range(len(px)):
            r2 = px[k] * px[k] + py[k] * py[k]
            if r2 > max_r2:
                max_r2 = r2
    area2 = 0.0
    m = len(px)
    for k in range(m):
        k1 = k + 1
        if k1 == m:
            k1 = 0
        area2 += px[k] * py[k1] - px[k1] * py[k]
    return 0.5 * area2, float(np.sqrt(max_r2)), used, complete


def count_in_cell(lx, ly, loff, ex, ey, eoff):
    """Per-trial count of legitimate points nearer the origin than any eavesdropper.

    Flat coordinate arrays are segmented by the int64 offset arrays
    (loff[t]:loff[t+1] are trial t's legitimate points).  A trial with no
    eavesdroppers counts every legitimate point.
    """
    loff = np.asarray(loff, dtype=np.int64)
    eoff = np.asarray(eoff, dtype=np.int64)
    trials = len(loff) - 1
    counts = np.zeros(trials, dtype=np.int64)
    for t in range(trials):
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


def neutral_survivors(ex, ey, lx, ly, radius):
    """Boolean mask of eavesdroppers with no legitimate point within radius.

    One nearest-neighbour query of the eavesdroppers against a k-d tree of
    the legitimate points.  The strict predicate is survive iff min distance
    > radius, so a legitimate point exactly at the radius still neutralizes;
    the tree only reports neighbours strictly inside its bound, hence the
    bound one ulp above the radius.
    """
    m = len(ex)
    if m == 0:
        return np.zeros(0, dtype=bool)
    if len(lx) == 0 or radius <= 0.0:
        return np.ones(m, dtype=bool)
    tree = cKDTree(np.column_stack([lx, ly]), balanced_tree=False, compact_nodes=False)
    d, _ = tree.query(np.column_stack([ex, ey]), distance_upper_bound=np.nextafter(radius, np.inf))
    return ~(d <= radius)
