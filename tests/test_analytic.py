"""Closed-form layer: frozen reference values, internal consistency, and
independently computed oracles.

Frozen constants were evaluated by hand (Stirling recurrences, the
geometric/negative-binomial algebra, exp/pi arithmetic) and are asserted
at tight absolute tolerances; quadrature-backed quantities get the looser
1e-6 the integrator is configured for.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import ndtr

from secgraph import (
    TABLE_VORONOI_MOMENTS,
    DegreePmf,
    NetworkConfig,
    Rng,
    Sample,
    VoronoiMoments,
    c_alpha,
    cdf_msr_colluding,
    cdf_msr_neighbor,
    cdf_msr_noncolluding_link,
    estimate_generic,
    mean_degree_colluding,
    mean_out_degree_neutralization_lb,
    mean_out_degree_thresholded,
    moments_in_degree,
    p_exist_colluding,
    p_exist_neighbor,
    p_in_isolation_series,
    p_out_isolation,
    pmf_out_degree,
    pmf_out_degree_sectored,
    stirling2,
    tv_distance,
)
from secgraph.propagation import GainModel

CFG = NetworkConfig(lambda_l=1.0, lambda_e=0.1)


# ------------------------------------------------------------ combinatorics

def test_stirling_numbers():
    assert stirling2(4, 2) == 7
    assert stirling2(7, 3) == 301
    assert stirling2(5, 5) == 1
    assert stirling2(9, 1) == 1
    with pytest.raises(ValueError):
        stirling2(3, 0)
    with pytest.raises(ValueError):
        stirling2(2, 3)


def test_voronoi_moment_table():
    assert TABLE_VORONOI_MOMENTS.moments == (1.0, 1.280, 1.993, 3.650)
    with pytest.raises(ValueError):
        VoronoiMoments((1.01, 1.3), source="table")  # table demands E{A} = 1
    VoronoiMoments((1.01, 1.3), source="simulated")  # sampling noise allowed
    with pytest.raises(ValueError):
        VoronoiMoments((), source="table")
    with pytest.raises(ValueError):
        VoronoiMoments((1.0, -0.5), source="table")


def test_in_degree_moments_at_unit_ratio():
    vm = TABLE_VORONOI_MOMENTS
    assert moments_in_degree(1, 1.0, vm) == pytest.approx(1.0, abs=1e-15)
    # S(2,1) E{A} + S(2,2) E{A^2}
    assert moments_in_degree(2, 1.0, vm) == pytest.approx(2.280, abs=1e-12)
    # 1 + 7*1.280 + 6*1.993 + 3.650
    assert moments_in_degree(4, 1.0, vm) == pytest.approx(25.568, abs=1e-12)
    with pytest.raises(ValueError):
        moments_in_degree(5, 1.0, vm)  # needs a fifth area moment


# ------------------------------------------------------------- degree laws

def test_out_degree_pmf_values():
    assert pmf_out_degree(0, 1.0, 0.4) == pytest.approx(0.4 / 1.4, rel=1e-15)
    p = 1.0 / 1.4
    assert pmf_out_degree(3, 1.0, 0.4) == pytest.approx(p**3 * (1 - p), rel=1e-14)
    with pytest.raises(ValueError):
        pmf_out_degree(-1, 1.0, 0.4)
    with pytest.raises(ValueError):
        pmf_out_degree(2, 1.0, 0.0)


@settings(max_examples=50, deadline=None)
@given(
    lam_l=st.floats(0.05, 20.0),
    lam_e=st.floats(0.05, 20.0),
)
def test_out_degree_pmf_normalizes(lam_l, lam_e):
    p = lam_l / (lam_l + lam_e)
    n = 200
    head = sum(pmf_out_degree(k, lam_l, lam_e) for k in range(n))
    assert head + p**n == pytest.approx(1.0, abs=1e-9)


def test_sectored_pmf_reduces_and_normalizes():
    for n in range(6):
        assert pmf_out_degree_sectored(n, 1, 1.0, 0.4) == pytest.approx(
            pmf_out_degree(n, 1.0, 0.4), rel=1e-12
        )
    for L in (2, 4, 8):
        total = sum(pmf_out_degree_sectored(n, L, 1.0, 0.5) for n in range(400))
        assert total == pytest.approx(1.0, abs=1e-10)
        mean = sum(n * pmf_out_degree_sectored(n, L, 1.0, 0.5) for n in range(400))
        assert mean == pytest.approx(L * 1.0 / 0.5, rel=1e-8)  # L times the base mean


def test_sectored_pmf_no_overflow_at_large_arguments():
    v = pmf_out_degree_sectored(500, 64, 1.0, 0.01)
    assert 0.0 <= v < 1.0 and math.isfinite(v)


@pytest.mark.parametrize("lam_e", [0.1, 1.0])
def test_sectored_pmf_matches_30_digit_reference(lam_e):
    # against mpmath at the same p, wherever the PMF is at least 1e-300; the
    # log-gamma route it replaced is measured on the same points, and the
    # sum of log1p terms may be no less accurate at any sector count
    from scipy.special import gammaln

    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    p = 1.0 / (1.0 + lam_e)
    k = np.arange(2001.0)
    for L in (1, 2, 3, 4, 8, 16):
        # P(j) = P(j-1) p (L+j-1)/j from P(0) = (1-p)^L, in 30 digits
        term = (1 - mpmath.mpf(p)) ** L
        ref = np.empty(k.size)
        for j in range(k.size):
            if j:
                term *= mpmath.mpf(p) * (L + j - 1) / j
            ref[j] = float(term)
        keep = ref >= 1e-300
        gamma_route = np.exp(gammaln(L + k) - gammaln(L) - gammaln(k + 1) + k * math.log(p) + L * math.log1p(-p))
        err_new = np.max(np.abs(pmf_out_degree_sectored(k, L, 1.0, lam_e) - ref)[keep] / ref[keep])
        err_old = np.max(np.abs(gamma_route - ref)[keep] / ref[keep])
        assert err_new <= err_old, (L, err_new, err_old)
        assert err_new < 5e-13, (L, err_new)


@pytest.mark.parametrize("lam_e", [0.1, 1.0])
def test_sectored_pmf_past_the_sum_matches_30_digit_reference(lam_e):
    # past _SECTORED_SUM_TERMS terms the law switches to Stirling's form: on
    # the first degrees and around the mode, against mpmath at the same p,
    # it must beat the log-gamma route and stay within 5e-11 relative
    from scipy.special import gammaln

    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    p = 1.0 / (1.0 + lam_e)
    for L in (34, 1000, 30000):
        mean, sd = L * p / (1 - p), math.sqrt(L * p) / (1 - p)
        k = np.unique(np.concatenate([np.arange(80.0), np.linspace(max(mean - 6 * sd, 0), mean + 6 * sd, 41).round()]))
        lp = mpmath.log(mpmath.mpf(p))
        l1p = mpmath.log1p(-mpmath.mpf(p))
        ref = np.array(
            [
                float(mpmath.exp(mpmath.loggamma(L + j) - mpmath.loggamma(L) - mpmath.loggamma(j + 1) + j * lp + L * l1p))
                for j in k.astype(int).tolist()
            ]
        )
        keep = ref >= 1e-300
        gamma_route = np.exp(gammaln(L + k) - gammaln(L) - gammaln(k + 1) + k * math.log(p) + L * math.log1p(-p))
        err_new = np.max(np.abs(pmf_out_degree_sectored(k, L, 1.0, lam_e) - ref)[keep] / ref[keep])
        err_old = np.max(np.abs(gamma_route - ref)[keep] / ref[keep])
        assert err_new <= err_old, (L, err_new, err_old)
        assert err_new < 5e-11, (L, err_new)


def test_sectored_pmf_table_is_linear_in_sectors():
    # the table of a 10-trial sample at L = 30000 has about 3e5 rows; summing
    # min(n, L - 1) log1p terms per row took 104 s on a 2-vCPU VM
    L, lam_e = 30000, 0.1
    top = int(estimate_generic("sector_degree", NetworkConfig(lambda_e=lam_e), 10, Rng(5), L=L).values.max())
    rows = np.arange(top + 1.0)
    assert top > 2.5e5
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        table = pmf_out_degree_sectored(rows, L, 1.0, lam_e)
        seconds.append(time.perf_counter() - start)
    assert np.all(np.isfinite(table)) and 0.4 < table.sum() < 1.0
    assert min(seconds) < 0.1, seconds


def test_pmf_laws_take_arrays_of_degrees():
    # one call per table: an array of degrees gives the scalar values elementwise
    n = np.arange(60)
    for law in (lambda k: pmf_out_degree(k, 1.0, 0.4), lambda k: pmf_out_degree_sectored(k, 4, 1.0, 0.4)):
        table = law(n)
        assert table.shape == n.shape
        assert isinstance(law(3), float)
        np.testing.assert_allclose(table, [law(int(k)) for k in n], rtol=1e-15, atol=0)
        for bad in (np.array([0, -1]), np.array([0.0, 2.5]), np.array([1.0, np.nan])):
            with pytest.raises(ValueError, match="nonnegative integer"):
                law(bad)


def test_isolation_probabilities():
    assert p_out_isolation(1.0, 0.4) == pytest.approx(0.4 / 1.4, rel=1e-15)
    assert p_out_isolation(1.0, 0.4) == pytest.approx(pmf_out_degree(0, 1.0, 0.4), rel=1e-15)
    assert p_out_isolation(1.0, 0.0) == 0.0


def test_in_isolation_routes_agree_on_degenerate_areas():
    # all-ones areas make the exact answer exp(-ratio); the four-term moment
    # series is then plain Taylor truncation, good to ~c^5/5! at small c
    ratio = 0.1
    est = Sample(np.exp(-ratio * np.ones(50))).mean()
    assert est.value == pytest.approx(math.exp(-ratio), rel=1e-15)
    assert est.std_error == 0.0
    series, converged = p_in_isolation_series(ratio, VoronoiMoments((1.0, 1.0, 1.0, 1.0)))
    assert series == pytest.approx(math.exp(-ratio), abs=1e-6)
    assert not converged  # stopped at the moment list, not the tolerance
    assert p_in_isolation_series(0.0, TABLE_VORONOI_MOMENTS) == (1.0, True)


# --------------------------------------------------------- thresholded mean

def test_thresholded_mean_closed_forms_at_zero_rho():
    exact, bound = mean_out_degree_thresholded(NetworkConfig(lambda_e=0.1, rho=0.0))
    assert exact == pytest.approx(10.0, rel=1e-9)
    assert bound == pytest.approx(10.0, rel=1e-15)
    # unequal noise at rho = 0: both scale by (sigma2_e/sigma2_l)^(1/(2b))... in
    # power terms A = sigma2_l/sigma2_e, degree multiplies by A^(-1/b)
    cfg = NetworkConfig(lambda_e=0.1, rho=0.0, sigma2_e=2.0)
    exact2, bound2 = mean_out_degree_thresholded(cfg)
    assert exact2 == pytest.approx(10.0 * 2.0 ** (1.0 / cfg.gain.b), rel=1e-9)
    assert bound2 == pytest.approx(10.0 * 2.0 ** (1.0 / cfg.gain.b), rel=1e-12)


@pytest.mark.parametrize("rho", [0.0, 0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("p_l", [0.5, 5.0])
def test_thresholded_mean_jensen_ordering(rho, p_l):
    exact, bound = mean_out_degree_thresholded(NetworkConfig(lambda_e=0.1, rho=rho, p_l=p_l))
    assert 0.0 < exact <= bound * (1.0 + 1e-12)


def test_thresholded_mean_no_eavesdroppers():
    assert mean_out_degree_thresholded(NetworkConfig(lambda_e=0.0)) == (math.inf, math.inf)
    with pytest.raises(ValueError):
        mean_out_degree_thresholded(NetworkConfig(gain=GainModel("bounded", 2.0)))


# ----------------------------------------------------------- neutralization

def test_neutralization_lower_bound():
    # (lambda_l/lambda_e)(pi lambda_e rho^2 + exp(pi lambda_l rho^2)) at rho = 1
    assert mean_out_degree_neutralization_lb(1.0, 1.0, 0.1) == pytest.approx(
        234.54851898138244, abs=1e-10
    )
    # rho = 0 collapses to the baseline mean degree
    assert mean_out_degree_neutralization_lb(0.0, 1.0, 0.1) == pytest.approx(10.0, rel=1e-15)
    assert mean_out_degree_neutralization_lb(1.0, 1.0, 0.0) == math.inf
    with pytest.raises(ValueError):
        mean_out_degree_neutralization_lb(-0.1, 1.0, 0.1)


def test_neutralization_bound_monotone_in_radius():
    vals = [mean_out_degree_neutralization_lb(r, 1.0, 0.2) for r in np.linspace(0, 2, 40)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


# ------------------------------------------------------------ neighbor laws

def test_p_exist_neighbor_values():
    assert p_exist_neighbor(1, 1.0, 0.1) == pytest.approx(1.0 / 1.1, rel=1e-15)
    assert p_exist_neighbor(4, 1.0, 0.1) == pytest.approx((1.0 / 1.1) ** 4, rel=1e-14)
    with pytest.raises(ValueError):
        p_exist_neighbor(0, 1.0, 0.1)


@pytest.mark.parametrize("i", [1, 2, 4])
def test_neighbor_cdf_at_zero_matches_existence(i):
    # P{MSR = 0} = 1 - P{MSR > 0}, the quadrature against the closed form
    got = cdf_msr_neighbor(0.0, i, CFG)
    assert got == pytest.approx(1.0 - p_exist_neighbor(i, 1.0, 0.1), abs=1e-6)


def test_neighbor_cdf_shape():
    grid = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 25.0]
    vals = cdf_msr_neighbor(grid, 1, CFG)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert np.all(np.diff(vals) >= -1e-9)
    # the rate tail decays like P{R_1 < 2^(-rho/(2b))}, slowly but surely
    assert vals[-1] > 0.999
    assert cdf_msr_neighbor(-1.0, 1, CFG) == 0.0
    with pytest.raises(ValueError):
        cdf_msr_neighbor(math.nan, 1, CFG)
    with pytest.raises(ValueError):
        cdf_msr_neighbor(1.0, 0, CFG)


@pytest.mark.parametrize("i", [1, 2, 6, 20, 100, 170, 171, 200, 500, 1000])
@pytest.mark.parametrize(
    "cfg",
    [
        NetworkConfig(p_l=10.0),
        NetworkConfig(lambda_e=1.0, p_l=10.0, gain=GainModel(kind="unbounded", b=4.0)),
        NetworkConfig(),
        NetworkConfig(lambda_e=1.0, gain=GainModel(kind="unbounded", b=4.0)),
        NetworkConfig(lambda_e=0.01, p_l=0.1),
    ],
    ids=["lambda_e=0.1,b=2", "lambda_e=1,b=4", "lambda_e=0.1,b=2,p_l=1", "lambda_e=1,b=4,p_l=1", "lambda_e=0.01,p_l=0.1"],
)
def test_neighbor_cdf_at_zero_for_far_neighbors(cfg, i):
    # (pi lambda_l)^i / (i-1)! overflows a float from i = 171 on, and for
    # large i or small p_l the rate concentrates near 0, where a quadrature in
    # the rate itself lost the mass (7e-3 off at lambda_e=0.01, p_l=0.1, i=500)
    got = cdf_msr_neighbor(0.0, i, cfg)
    assert got == pytest.approx(1.0 - p_exist_neighbor(i, cfg.lambda_l, cfg.lambda_e), abs=1e-9)


@pytest.mark.parametrize("i", [1, 3, 6, 50])
@pytest.mark.parametrize(
    "cfg",
    [
        NetworkConfig(lambda_e=1.0, gain=GainModel(kind="unbounded", b=1.5)),
        NetworkConfig(p_l=0.1),
        NetworkConfig(lambda_e=0.1, p_l=10.0),
    ],
    ids=["lambda_e=1,b=1.5", "lambda_e=0.1,p_l=0.1", "lambda_e=0.1,p_l=10"],
)
def test_neighbor_cdf_matches_direct_quadrature(cfg, i):
    # independent route: adaptive quadrature over x = pi lambda_l r_l^2 of
    # the Gamma(i, 1) density times the eavesdropper survival, split at the
    # mode; a quadrature in the rate itself missed it by 8500x the tolerance
    # at i=3, b=1.5
    b, rho = cfg.gain.b, np.array([0.05, 0.3, 1.0, 3.0])
    snr = cfg.p_l / cfg.sigma2_l

    def integrand(x, r):
        g_e = (1.0 + snr * (math.pi * cfg.lambda_l / x) ** b) * 2.0**-r - 1.0
        if g_e <= 0:
            return 0.0
        log_dens = (i - 1) * math.log(x) - x - math.lgamma(i)
        return math.exp(log_dens - math.pi * cfg.lambda_e * (snr / g_e) ** (1.0 / b))

    want = []
    for r in rho:
        x_max = math.pi * cfg.lambda_l * (snr / (2.0**r - 1.0)) ** (1.0 / b)
        cuts = sorted({0.0, min(i - 1.0, x_max), x_max})
        tail = sum(integrate.quad(integrand, a, c, args=(r,), epsabs=1e-13, epsrel=1e-12, limit=200)[0]
                   for a, c in zip(cuts, cuts[1:]))
        want.append(1.0 - tail)
    got = cdf_msr_neighbor(rho, i, cfg)
    assert np.all(np.abs(got - want) <= np.maximum(1e-9, 1e-7 * (1.0 - np.array(want))))


# the grids of `secgraph msr` and of the neighbor_msr criterion, with their configurations
_MSR_GRIDS = {
    "cli": ((0.0,) + tuple(np.linspace(0.08, 8.0, 100)), NetworkConfig(p_l=10.0)),
    "criterion": (
        (0.0,) + tuple(np.linspace(0.04, 8.0, 200)),
        NetworkConfig(lambda_l=1.0, lambda_e=0.1, p_l=10.0, gain=GainModel(kind="unbounded", b=2.0)),
    ),
}


@pytest.mark.parametrize("i", [1, 2, 6])
@pytest.mark.parametrize("grid_name", sorted(_MSR_GRIDS))
def test_neighbor_cdf_array_equals_scalar_loop(grid_name, i):
    grid, cfg = _MSR_GRIDS[grid_name]
    scalar = np.array([cdf_msr_neighbor(r, i, cfg) for r in grid])
    assert np.array_equal(cdf_msr_neighbor(np.array(grid), i, cfg), scalar)


def test_neighbor_cdf_array_shapes():
    rho = np.array([[0.0, 0.5, 1.0], [2.0, 4.0, 8.0]])
    got = cdf_msr_neighbor(rho, 2, CFG)
    assert got.shape == (2, 3)
    assert np.array_equal(got.ravel(), cdf_msr_neighbor(rho.ravel(), 2, CFG))
    zero_d = cdf_msr_neighbor(np.array(0.5), 2, CFG)
    assert type(zero_d) is float
    assert zero_d == cdf_msr_neighbor(0.5, 2, CFG)


def test_neighbor_cdf_array_negative_and_nan():
    got = cdf_msr_neighbor(np.array([-1.0, 0.5, -1e-300, 2.0, -np.inf]), 1, CFG)
    assert got[0] == 0.0 and got[2] == 0.0 and got[4] == 0.0
    assert 0.0 < got[1] < got[3] < 1.0
    with pytest.raises(ValueError):
        cdf_msr_neighbor(np.array([0.0, 1.0, math.nan]), 1, CFG)


# ------------------------------------------------------------ colluding laws

_LINK_CDFS = [cdf_msr_colluding, cdf_msr_noncolluding_link]
_LINK_CFG = NetworkConfig(lambda_l=1.0, lambda_e=0.1, p_l=10.0)
_LINK_CAP = math.log2(11.0)


@pytest.mark.parametrize("cdf", _LINK_CDFS)
@pytest.mark.parametrize("b", [1.5, 2.0, 3.0])
def test_link_cdf_array_equals_scalar_loop(cdf, b):
    cfg = NetworkConfig(lambda_l=1.0, lambda_e=0.1, p_l=10.0, gain=GainModel("unbounded", b))
    grid = np.linspace(1e-3, _LINK_CAP - 1e-3, 200)
    got = cdf(grid, 1.0, cfg)
    scalar = np.array([cdf(float(r), 1.0, cfg) for r in grid])
    assert got.shape == grid.shape
    assert np.max(np.abs(got - scalar)) <= 5e-16


@pytest.mark.parametrize("cdf", _LINK_CDFS)
def test_link_cdf_array_shapes(cdf):
    rho = np.array([[0.0, 0.5, 1.0], [2.0, 3.0, 4.0]])
    got = cdf(rho, 1.0, _LINK_CFG)
    assert got.shape == (2, 3)
    assert np.array_equal(got.ravel(), cdf(rho.ravel(), 1.0, _LINK_CFG))
    zero_d = cdf(np.array(0.5), 1.0, _LINK_CFG)
    assert type(zero_d) is float
    assert zero_d == cdf(0.5, 1.0, _LINK_CFG)


@pytest.mark.parametrize("cdf", _LINK_CDFS)
def test_link_cdf_array_edges(cdf):
    rho = np.array([-np.inf, -1.0, -1e-300, 1.0, _LINK_CAP, _LINK_CAP + 1.0, np.inf])
    got = cdf(rho, 1.0, _LINK_CFG)
    assert np.all(got[:3] == 0.0) and np.all(got[4:] == 1.0)
    assert 0.0 < got[3] < 1.0
    with pytest.raises(ValueError):
        cdf(np.array([0.0, 1.0, math.nan]), 1.0, _LINK_CFG)


@pytest.mark.parametrize("cdf", _LINK_CDFS)
def test_link_cdf_no_eavesdroppers(cdf):
    quiet = NetworkConfig(lambda_l=1.0, lambda_e=0.0, p_l=10.0)
    got = cdf(np.linspace(1e-3, _LINK_CAP - 1e-3, 50), 1.0, quiet)
    assert np.all(got == 0.0)


def test_c_alpha_values():
    assert c_alpha(0.5) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-14)
    with pytest.raises(ValueError):
        c_alpha(1.0)
    with pytest.raises(ValueError):
        c_alpha(0.0)


def _colluding(lambda_e=0.1, b=2.0, **kw):
    return NetworkConfig(lambda_l=1.0, lambda_e=lambda_e, gain=GainModel("unbounded", b), **kw)


def test_mean_degree_colluding_values():
    # (lambda_l/lambda_e) sinc(1/b) (sigma2_e/sigma2_l)^(1/b); b = 2 gives 10 * 2/pi
    assert mean_degree_colluding(_colluding()) == pytest.approx(20.0 / math.pi, rel=1e-14)
    assert mean_degree_colluding(_colluding()) == pytest.approx(10.0 * np.sinc(0.5), rel=1e-14)
    assert mean_degree_colluding(_colluding(b=1.0)) == 0.0
    assert mean_degree_colluding(_colluding(lambda_e=0.0)) == math.inf
    with pytest.raises(ValueError):
        mean_degree_colluding(_colluding(b=0.9))
    with pytest.raises(ValueError, match="unbounded gain"):
        mean_degree_colluding(NetworkConfig(gain=GainModel("bounded", 2.0)))
    # the power cancels from the secure radius; sigma2_e / sigma2_l = 4
    # scales it by 4^(1/b): 2 at b = 2, 4^(1/3) at b = 3
    assert mean_degree_colluding(_colluding(sigma2_e=4.0)) == pytest.approx(40.0 / math.pi, rel=1e-14)
    assert mean_degree_colluding(_colluding(b=3.0, sigma2_e=8.0, sigma2_l=2.0)) == pytest.approx(
        10.0 * np.sinc(1.0 / 3.0) * 4.0 ** (1.0 / 3.0), rel=1e-14
    )
    assert mean_degree_colluding(_colluding(p_l=50.0)) == mean_degree_colluding(_colluding())


def test_colluding_cdf_levy_oracle():
    # b = 2 puts the aggregate in the alpha = 1/2 (Levy) family, whose CDF is
    # 2 Phi(-1/sqrt(x)); rebuild the link CDF from scratch on that path
    cfg = NetworkConfig(lambda_l=1.0, lambda_e=0.1, p_l=10.0)
    b, r_l = 2.0, 1.0
    for rho in (0.05, 0.5, 1.5, 3.0):
        snr_l = cfg.p_l / (r_l ** (2 * b) * cfg.sigma2_l)
        cap = math.log2(1 + snr_l)
        assert rho < cap
        tau = (1 + snr_l) * 2.0**-rho - 1.0
        scale = (math.pi * cfg.lambda_e / c_alpha(0.5)) ** b * cfg.p_l / cfg.sigma2_e
        want = 1.0 - 2.0 * ndtr(-math.sqrt(scale / tau))
        assert cdf_msr_colluding(rho, r_l, cfg) == pytest.approx(want, abs=1e-9)


def test_colluding_cdf_edges():
    cfg = NetworkConfig(lambda_l=1.0, lambda_e=0.1, p_l=10.0)
    cap = math.log2(1.0 + 10.0)
    assert cdf_msr_colluding(-0.2, 1.0, cfg) == 0.0
    assert cdf_msr_colluding(cap, 1.0, cfg) == 1.0
    assert cdf_msr_colluding(cap + 1.0, 1.0, cfg) == 1.0
    quiet = NetworkConfig(lambda_l=1.0, lambda_e=0.0, p_l=10.0)
    assert cdf_msr_colluding(1.0, 1.0, quiet) == 0.0
    assert p_exist_colluding(1.0, quiet) == 1.0
    with pytest.raises(ValueError):
        cdf_msr_colluding(1.0, 1.0, NetworkConfig(gain=GainModel("unbounded", 1.0)))
    with pytest.raises(ValueError):
        cdf_msr_colluding(1.0, 0.0, cfg)


def test_collusion_can_only_hurt():
    cfg = NetworkConfig(lambda_l=1.0, lambda_e=0.1, p_l=10.0)
    for rho in np.linspace(0.01, 3.3, 25):
        assert cdf_msr_colluding(rho, 1.0, cfg) >= cdf_msr_noncolluding_link(rho, 1.0, cfg) - 1e-12


def test_p_exist_colluding_levy_oracle():
    # relative accuracy down to 9e-218 at lambda_e = 8, where a complement
    # of the CDF would round to 0
    for lambda_e in (0.1, 1.0, 3.0, 5.0, 8.0):
        cfg = NetworkConfig(lambda_l=1.0, lambda_e=lambda_e)
        arg = cfg.sigma2_e / ((math.pi * cfg.lambda_e * 1.0 / c_alpha(0.5)) ** 2 * cfg.sigma2_l)
        want = 2.0 * ndtr(-1.0 / math.sqrt(arg))
        assert want > 0.0
        assert p_exist_colluding(1.0, cfg) == pytest.approx(want, rel=1e-11, abs=0.0)


# ------------------------------------------------------------ PMF utilities

def test_degree_pmf_container():
    pmf = DegreePmf(np.array([0.5, 0.25, 0.25]))
    assert pmf.support.tolist() == [0, 1, 2]
    assert pmf.mean() == pytest.approx(0.75)
    assert pmf.moment(2) == pytest.approx(0.25 + 4 * 0.25)
    with pytest.raises(ValueError):
        DegreePmf(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        DegreePmf(np.array([1.5, -0.5]))


def test_tv_distance_extremes():
    pmf = DegreePmf(np.array([1.0]))
    assert tv_distance(pmf, lambda n: 1.0 if n == 0 else 0.0) == 0.0
    # analytic mass entirely outside the empirical support
    assert tv_distance(pmf, lambda n: 1.0 if n == 5 else 0.0) == pytest.approx(1.0)
    geom = DegreePmf(np.array([pmf_out_degree(k, 1.0, 1.0) for k in range(60)]) / sum(pmf_out_degree(k, 1.0, 1.0) for k in range(60)))
    assert tv_distance(geom, lambda n: pmf_out_degree(n, 1.0, 1.0)) < 1e-12
