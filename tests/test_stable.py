"""One-sided stable law: sampler, Kanter-integral CDF, Mellin moments.

The alpha=1/2 case has the closed form F(x) = 2Q(1/sqrt(x)) (Levy law),
which anchors everything: the CDF is checked against it directly over its
whole range, against scipy's levy_stable at other alphas, and against the
sampler, which is checked against the closed form in turn.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.special import gamma as gamma_fn, ndtr

from secgraph import stable
from secgraph.pointprocess import Rng
from secgraph.stable import StableParams, cdf_normalized, mellin_neg_moment, sample


def levy_cdf(x):
    return 2.0 * ndtr(-1.0 / np.sqrt(x))


def test_params_validation():
    with pytest.raises(ValueError):
        StableParams(alpha=0.0)
    with pytest.raises(ValueError):
        StableParams(alpha=1.2)
    with pytest.raises(ValueError):
        StableParams(alpha=0.5, beta=2.0)
    with pytest.raises(ValueError):
        StableParams(alpha=0.5, gamma=-1.0)


def test_inversion_matches_levy_closed_form():
    xs = np.logspace(-6, 10, 321)
    F = cdf_normalized(xs, 0.5)
    exact = levy_cdf(xs)
    assert float(np.max(np.abs(F - exact))) < 1e-10
    tail = xs >= 1e3
    rel = np.abs((1.0 - F[tail]) - (1.0 - exact[tail])) / (1.0 - exact[tail])
    assert float(rel.max()) < 1e-6


@pytest.mark.parametrize(
    "alpha, xs",
    [
        (1.0 / 3.0, (0.5, 3.0, 100.0, 1e4)),
        (2.0 / 3.0, (0.3, 2.0, 50.0, 1e4)),
        (0.75, (0.5, 3.0, 587.8, 1e4)),
    ],
)
def test_upper_tail_matches_scipy_levy_stable(alpha, xs):
    # scipy's S1 parameterization with scale 1 is this package's S(alpha, 1, 1)
    assert stats.levy_stable.parameterization == "S1"
    xs = np.array(xs)
    want = 1.0 - stats.levy_stable.cdf(xs, alpha, 1.0)
    got = 1.0 - cdf_normalized(xs, alpha)
    assert float(np.max(np.abs(got - want) / want)) < 1e-8


@pytest.mark.parametrize("alpha", [0.9, 0.99, 0.999])
def test_cdf_finite_and_monotone_near_alpha_one(alpha):
    xs = np.array([1e-300, 1e-3, 1.0, 1e3, 1e10, 1e300, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fs = cdf_normalized(xs, alpha)
        scalars = [cdf_normalized(x, alpha) for x in xs]
    assert np.all(np.isfinite(fs))
    assert np.all((fs >= 0) & (fs <= 1))
    # non-decreasing up to the rounding of one weighted sum
    assert np.all(np.diff(fs) >= -1e-15)
    assert np.allclose(scalars, fs, rtol=0, atol=1e-15)
    assert fs[0] == 0.0 and fs[-1] == 1.0


def test_cdf_memory_is_bounded_on_many_points():
    xs = np.logspace(-3, 6, 100_000)
    tracemalloc.start()
    try:
        cdf_normalized(xs, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one unchunked points x nodes matrix would be 205 MB
    assert peak < 50e6


def test_cdf_edge_cases():
    assert cdf_normalized(0.0, 0.5) == 0.0
    assert cdf_normalized(1e-9, 1.0 / 3.0) == 0.0
    assert cdf_normalized(np.inf, 0.5) == 1.0
    assert cdf_normalized(np.inf, 1.0 / 3.0) == 1.0
    with pytest.raises(ValueError):
        cdf_normalized(np.nan, 0.5)


def test_cdf_monotone_alpha_third():
    xs = np.logspace(-2, 4, 80)
    fs = cdf_normalized(xs, 1.0 / 3.0)
    assert np.all(np.diff(fs) >= -1e-12)
    assert np.all((fs >= 0) & (fs <= 1))


def test_sampler_matches_levy_law():
    x = sample(StableParams(alpha=0.5, gamma=1.0), Rng(5), size=200_000)
    xs = np.sort(x)
    emp = np.arange(1, len(xs) + 1) / len(xs)
    ks = np.max(np.abs(emp - levy_cdf(xs)))
    assert ks < 0.004


def test_sampler_scaling():
    # X ~ S(alpha, 1, gamma) equals gamma^(1/alpha) * S(alpha, 1, 1)
    a, g = 0.4, 3.0
    x1 = sample(StableParams(alpha=a, gamma=1.0), Rng(17), size=1000)
    xg = sample(StableParams(alpha=a, gamma=g), Rng(17), size=1000)
    assert np.allclose(xg, g ** (1.0 / a) * x1, rtol=1e-12)


def test_sampler_positive():
    x = sample(StableParams(alpha=0.3, gamma=1.0), Rng(23), size=10_000)
    assert np.all(x > 0)


def test_sampler_rejects_two_sided():
    with pytest.raises(ValueError):
        sample(StableParams(alpha=0.5, beta=0.0), Rng(1), size=10)


def test_mellin_closed_form():
    # E{X^-a} = cos(pi a / 2) / Gamma(1 + a) for the normalized one-sided law
    for a in (0.2, 1.0 / 3.0, 0.5, 0.75):
        expected = math.cos(math.pi * a / 2.0) / gamma_fn(1.0 + a)
        assert mellin_neg_moment(a) == pytest.approx(expected, abs=1e-14)


def test_mellin_against_sampler():
    a = 0.5
    x = sample(StableParams(alpha=a, gamma=1.0), Rng(31), size=400_000)
    assert np.mean(x**-a) == pytest.approx(mellin_neg_moment(a), rel=0.01)


def test_cdf_agrees_with_sampler_at_alpha_third():
    a = 1.0 / 3.0
    x = np.sort(sample(StableParams(alpha=a, gamma=1.0), Rng(37), size=100_000))
    qs = x[999::1000]
    F = cdf_normalized(qs, a)
    emp = np.arange(1000, len(x) + 1, 1000) / len(x)
    assert np.max(np.abs(F - emp)) < 0.01
