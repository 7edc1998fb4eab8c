"""Poisson sampling and the deterministic substream scheme."""

import math

import numpy as np
import pytest
from scipy import stats

from secgraph.pointprocess import PointSet, Rng, sample_disk, sample_nearest_distance


def test_rng_reproducible():
    a = Rng(12345).generator().random(16)
    b = Rng(12345).generator().random(16)
    assert np.array_equal(a, b)


def test_rng_substreams_decorrelated():
    root = Rng(99)
    a = root.substream(0).generator().random(4096)
    b = root.substream(1).generator().random(4096)
    assert not np.array_equal(a, b)
    # crude independence check: correlation at 4096 samples is O(1/64)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.05


def test_rng_substream_key_stable_under_nesting():
    # the same (seed, index) pair gives the same child no matter who derives it
    assert Rng(7).substream(3) == Rng(7).substream(3)
    assert Rng(7).substream(3).substream(1) == Rng(7).substream(3).substream(1)


def test_rng_rejects_out_of_range_seed():
    with pytest.raises(ValueError):
        Rng(-1)
    with pytest.raises(ValueError):
        Rng(2**64)


def test_sample_disk_counts_poisson():
    density, w = 2.0, 3.0
    lam = density * math.pi * w * w
    counts = [len(sample_disk(density, w, Rng(1000 + i))) for i in range(400)]
    mean = np.mean(counts)
    # Poisson: mean within 4 sigma of lam, variance within 25%
    assert abs(mean - lam) < 4.0 * math.sqrt(lam / 400)
    assert abs(np.var(counts) / lam - 1.0) < 0.25


def test_sample_disk_points_inside_window():
    ps = sample_disk(1.5, 2.0, Rng(5))
    assert ps.density == 1.5
    assert ps.window_radius == 2.0
    r = np.hypot(ps.xy[:, 0], ps.xy[:, 1])
    assert np.all(r <= 2.0)


def test_sample_disk_radii_uniform_in_area():
    # squared radii of disk-uniform points are uniform on (0, w^2)
    ps = sample_disk(30.0, 1.0, Rng(77))
    r2 = ps.xy[:, 0] ** 2 + ps.xy[:, 1] ** 2
    assert stats.kstest(r2, "uniform").pvalue > 1e-3


def test_nearest_distance_law():
    # squared nearest distance is exponential with rate pi * density
    density = 0.7
    d = np.array([sample_nearest_distance(density, Rng(2000 + i)) for i in range(2000)])
    assert stats.kstest(d**2, "expon", args=(0, 1.0 / (math.pi * density))).pvalue > 1e-3


def test_nearest_distance_rejects_zero_density():
    with pytest.raises(ValueError):
        sample_nearest_distance(0.0, Rng(1))


def test_ordered_distances_sorted_and_complete():
    ps = sample_disk(2.0, 3.0, Rng(11))
    d = ps.ordered_r
    assert len(d) == len(ps)
    assert np.all(np.diff(d) >= 0)
    assert d[0] == pytest.approx(np.min(np.hypot(ps.xy[:, 0], ps.xy[:, 1])))


def test_pointset_validation():
    with pytest.raises(ValueError):
        PointSet(np.zeros((3, 3)), density=1.0, window_radius=1.0)
    with pytest.raises(ValueError):
        PointSet(np.zeros((2, 2)), density=-1.0, window_radius=1.0)
