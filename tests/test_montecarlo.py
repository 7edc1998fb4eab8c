"""Estimator harness: determinism, window sizing, and agreement with the
closed forms at trial counts small enough for a test run.

Statistical assertions here use wide gates (5-6 standard errors or a few
percent) so the suite stays quiet; the tight cross-validation lives in
the acceptance criteria.
"""

import math
import re

import numpy as np
import pytest

from secgraph import (
    CdfEstimate,
    Estimate,
    ExperimentSpec,
    IsolationEstimate,
    NetworkConfig,
    NeutralizationConfig,
    PointSet,
    Rng,
    analytic,
    build_baseline,
    build_neutralized,
    colluding_window,
    effective_eaves,
    estimate_colluding_power,
    estimate_generic,
    estimate_in_degree_pmf,
    estimate_out_degree_pmf,
    estimate_voronoi_moments,
    fading_window,
    in_degree_window,
    montecarlo,
    sample_disk,
)
from secgraph.propagation import FadingModel, GainModel

CFG = NetworkConfig(lambda_l=1.0, lambda_e=0.5)


def _spec(kind, trials=4096, seed=1234, **kw):
    return ExperimentSpec(kind=kind, cfg=kw.pop("cfg", CFG), trials=trials, base_seed=seed, **kw)


# ------------------------------------------------------------- spec objects

def test_estimate_validation():
    with pytest.raises(ValueError):
        Estimate(1.0, -0.1, 10)
    with pytest.raises(ValueError):
        Estimate(1.0, 0.1, 0)
    assert Estimate(1.0, 0.0, 1).bias_note is None


def test_experiment_spec_validation():
    with pytest.raises(ValueError):
        _spec("degree_pmf")  # not a kind
    with pytest.raises(ValueError):
        _spec("out_degree_pmf", trials=0)
    with pytest.raises(ValueError):
        _spec("msr_cdf_neighbor")  # needs a grid
    _spec("msr_cdf_neighbor", rho_grid=(0.0, 1.0))


# ------------------------------------------------------------ window sizing

def test_in_degree_window_hits_bias_target():
    w = in_degree_window(1.0, 0.5, bias=1e-4)
    assert (1.0 / 0.5) * math.exp(-0.5 * math.pi * w * w) == pytest.approx(1e-4, rel=1e-12)
    with pytest.raises(ValueError):
        in_degree_window(1.0, 0.0)


def test_colluding_window_controls_tail_std():
    cfg = NetworkConfig(lambda_e=0.1, gain=GainModel("unbounded", 2.0))
    rel = 1e-3
    w = colluding_window(cfg, rel_std=rel)
    b = 2.0
    scale = (math.pi * cfg.lambda_e / analytic.c_alpha(0.5)) ** b * cfg.p_l
    std_tail = math.sqrt(2.0 * math.pi * cfg.lambda_e / (4 * b - 2)) * cfg.p_l * w ** (1 - 2 * b)
    assert std_tail <= rel * scale * (1 + 1e-12)
    with pytest.raises(ValueError):
        colluding_window(NetworkConfig(gain=GainModel("unbounded", 1.0)))


def test_fading_window_ordering():
    lam = 0.25
    w_none = fading_window(FadingModel("none"), lam)
    w_nak = fading_window(FadingModel("nakagami", m=2.0), lam)
    w_ln = fading_window(FadingModel("lognormal", sigma_s=1.0), lam)
    assert w_none < w_nak < w_ln  # heavier gain tails need wider windows
    assert w_none == pytest.approx(4.0 / math.sqrt(lam))


# -------------------------------------------------------------- determinism

@pytest.mark.parametrize(
    "kind,kw",
    [
        ("out_degree_pmf", {}),
        ("thresholded_mean", {"cfg": NetworkConfig(lambda_e=0.5, rho=1.0)}),
        ("msr_cdf_neighbor", {"rho_grid": (0.0, 0.5, 1.0, 2.0)}),
        ("neutralization_mean", {"rho_n": 0.4, "trials": 512}),
        ("colluding_mean_degree", {"cfg": NetworkConfig(lambda_e=0.5), "trials": 2048}),
    ],
)
def test_thread_count_invariance(kind, kw):
    spec = _spec(kind, **kw)
    a = estimate_generic(spec, threads=1)
    b = estimate_generic(spec, threads=4)
    if isinstance(a, CdfEstimate):
        assert np.array_equal(a.values, b.values) and np.array_equal(a.std_errors, b.std_errors)
    else:
        assert (a.value, a.std_error) == (b.value, b.std_error)
    assert a.bias_note == b.bias_note  # window-growth counts included


def test_same_seed_same_pmf_different_seed_differs():
    pmf1, est1 = estimate_out_degree_pmf(_spec("out_degree_pmf"))
    pmf2, est2 = estimate_out_degree_pmf(_spec("out_degree_pmf"))
    pmf3, est3 = estimate_out_degree_pmf(_spec("out_degree_pmf", seed=999))
    assert np.array_equal(pmf1.probs, pmf2.probs) and est1.value == est2.value
    assert est1.value != est3.value


# --------------------------------------------------- agreement with theory

def test_out_degree_exact_route():
    spec = _spec("out_degree_pmf", trials=20_000)
    pmf, est = estimate_out_degree_pmf(spec)
    assert est.value == pytest.approx(CFG.ratio, abs=6 * est.std_error)
    tv = analytic.tv_distance(pmf, lambda n: analytic.pmf_out_degree(n, 1.0, 0.5))
    assert tv < 0.02


def test_out_degree_depends_only_on_ratio():
    # joint rescaling of both densities leaves the degree law untouched
    pmf_a, _ = estimate_out_degree_pmf(_spec("out_degree_pmf", trials=20_000, seed=501))
    cfg_scaled = NetworkConfig(lambda_l=3.0, lambda_e=1.5)
    pmf_b, _ = estimate_out_degree_pmf(_spec("out_degree_pmf", cfg=cfg_scaled, trials=20_000, seed=502))
    law = lambda n: analytic.pmf_out_degree(n, 1.0, 0.5)
    assert analytic.tv_distance(pmf_a, law) < 0.02
    assert analytic.tv_distance(pmf_b, law) < 0.02


def test_out_degree_fading_route_keeps_the_law():
    cfg = NetworkConfig(lambda_l=1.0, lambda_e=0.5, fading=FadingModel("nakagami", m=3.0))
    pmf, est = estimate_out_degree_pmf(_spec("out_degree_pmf", cfg=cfg, trials=6000), threads=4)
    tv = analytic.tv_distance(pmf, lambda n: analytic.pmf_out_degree(n, 1.0, 0.5))
    assert tv < 0.03  # the PMF does not feel the fading model
    assert est.bias_note is not None


def test_in_degree_mean_and_variance():
    pmf, est = estimate_in_degree_pmf(_spec("in_degree_pmf", trials=6000), threads=4)
    assert est.value == pytest.approx(2.0, abs=6 * est.std_error)
    m2 = analytic.moments_in_degree(2, 2.0, analytic.TABLE_VORONOI_MOMENTS)
    assert pmf.moment(2) == pytest.approx(m2, rel=0.15)


def test_degree_estimators_match_baseline_graph():
    # The estimators never build a graph: the out-degree comes from the
    # nearest-eavesdropper distance alone, the in-degree from count_in_cell.
    # Here whole realizations go through build_baseline instead, with the
    # origin as node 0.  Legitimate points fill the in-degree window W, so
    # in-edges from beyond it are missed with expected count 1e-4; the
    # eavesdroppers fill 2W, which holds the disk in which any source within
    # W looks for its nearest one.
    graphs = 4000
    w = in_degree_window(CFG.lambda_l, CFG.lambda_e)
    rng = Rng(2718)
    out_deg = np.empty(graphs)
    in_deg = np.empty(graphs)
    for t in range(graphs):
        legit = sample_disk(CFG.lambda_l, w, rng.substream(2 * t))
        eaves = sample_disk(CFG.lambda_e, 2.0 * w, rng.substream(2 * t + 1))
        nodes = PointSet(np.vstack([[0.0, 0.0], legit.xy]), legit.density, w)
        graph = build_baseline(nodes, eaves)
        out_deg[t] = graph.out_degrees()[0]
        in_deg[t] = graph.in_degrees()[0]
    for ref, estimate, kind in ((out_deg, estimate_out_degree_pmf, "out_degree_pmf"),
                                (in_deg, estimate_in_degree_pmf, "in_degree_pmf")):
        _, est = estimate(_spec(kind, trials=20_000), threads=2)
        combined = math.hypot(est.std_error, ref.std(ddof=1) / math.sqrt(graphs))
        assert abs(est.value - ref.mean()) < 4.5 * combined, kind


def test_isolation_dual_route_consistency():
    iso = estimate_generic(_spec("isolation", trials=30_000), threads=4)
    assert isinstance(iso, IsolationEstimate)
    p_out = analytic.p_out_isolation(1.0, 0.5)
    assert iso.out_isolation.value == pytest.approx(p_out, abs=6 * iso.out_isolation.std_error)
    # the direct in-degree zero frequency must agree with the area-sample route
    _, areas = estimate_voronoi_moments(1, 3000, Rng(77), threads=4)
    via_areas = analytic.p_in_isolation(CFG.ratio, areas)
    gap = abs(iso.in_isolation.value - via_areas.value)
    combined = math.hypot(iso.in_isolation.std_error, via_areas.std_error)
    assert gap < 6 * combined


def test_voronoi_moments_near_table():
    vm, areas = estimate_voronoi_moments(4, 4000, Rng(5), threads=4)
    assert vm.source == "simulated"
    assert len(areas) == 4000
    for got, want, tol in zip(vm.moments, analytic.TABLE_VORONOI_MOMENTS.moments, (0.02, 0.06, 0.12, 0.3)):
        assert got == pytest.approx(want, rel=tol)


def test_thresholded_mean_tracks_quadrature():
    cfg = NetworkConfig(lambda_e=0.5, rho=1.0, p_l=5.0)
    est = estimate_generic(_spec("thresholded_mean", cfg=cfg, trials=40_000), threads=4)
    exact, bound = analytic.mean_out_degree_thresholded(cfg)
    assert exact <= bound
    assert est.value == pytest.approx(exact, abs=6 * est.std_error)


def test_sector_mean_scales_with_L():
    spec = _spec("sector_pmf", L=4, trials=20_000)
    est = estimate_generic(spec, threads=4)
    assert est.value == pytest.approx(4 * CFG.ratio, abs=6 * est.std_error)


def test_neighbor_cdf_tracks_quadrature():
    cfg = NetworkConfig(lambda_l=1.0, lambda_e=0.1)
    grid = (0.0, 0.5, 1.0, 2.0, 4.0)
    cdf = estimate_generic(_spec("msr_cdf_neighbor", cfg=cfg, rho_grid=grid, trials=20_000), threads=4)
    for g, v, se in zip(cdf.grid, cdf.values, cdf.std_errors):
        want = analytic.cdf_msr_neighbor(float(g), 1, cfg)
        assert v == pytest.approx(want, abs=max(6 * se, 1e-3))


def test_colluding_power_matches_stable_median():
    cfg = NetworkConfig(lambda_e=0.5)
    w = colluding_window(cfg)
    _, samples = estimate_colluding_power(cfg, w, 20_000, Rng(31), threads=4)
    b = cfg.gain.b
    scale = (math.pi * cfg.lambda_e / analytic.c_alpha(1.0 / b)) ** b * cfg.p_l
    # Levy median: x with 2 Phi(-1/sqrt(x)) = 1/2 -> x = 1/ndtri(0.75)^2
    from scipy.special import ndtri

    med = scale / ndtri(0.75) ** 2
    frac = float(np.mean(samples <= med))
    assert frac == pytest.approx(0.5, abs=0.02)


def test_colluding_power_no_eavesdroppers():
    cfg = NetworkConfig(lambda_e=0.0)
    est, samples = estimate_colluding_power(cfg, 10.0, 100, Rng(3))
    assert est.value == 0.0 and np.all(samples == 0.0)


def test_colluding_requires_converging_exponent():
    cfg = NetworkConfig(gain=GainModel("unbounded", 1.0))
    with pytest.raises(ValueError):
        estimate_colluding_power(cfg, 10.0, 100, Rng(3))
    with pytest.raises(ValueError):
        estimate_generic(_spec("colluding_mean_degree", cfg=cfg, trials=64))


def test_colluding_mean_degree_tracks_sinc():
    est = estimate_generic(_spec("colluding_mean_degree", trials=30_000), threads=4)
    want = analytic.mean_degree_colluding(1.0, 0.5, 2.0)
    assert est.value == pytest.approx(want, abs=6 * est.std_error)


def test_neutralization_meets_lower_bound():
    spec = _spec("neutralization_mean", rho_n=0.5, trials=2000, cfg=NetworkConfig(lambda_e=0.5))
    est = estimate_generic(spec, threads=4)
    lb = analytic.mean_out_degree_neutralization_lb(0.5, 1.0, 0.5)
    assert est.value >= lb - 4 * est.std_error


def _fixed_window_neutralized_degrees(cfg, rho_n, w, trials, seed):
    """Origin degrees from whole realizations: legitimate points (the origin
    among them) in radius w + rho_n, eavesdroppers in w, the survivors that
    effective_eaves keeps, and the legitimate points nearer than the nearest
    survivor.  w must leave a survivor in every trial."""
    rng = Rng(seed)
    degrees = np.empty(trials)
    for t in range(trials):
        legit = sample_disk(cfg.lambda_l, w + rho_n, rng.substream(2 * t))
        eaves = sample_disk(cfg.lambda_e, w, rng.substream(2 * t + 1))
        nodes = PointSet(np.vstack([[0.0, 0.0], legit.xy]), legit.density, legit.window_radius)
        keep = effective_eaves(nodes, eaves, NeutralizationConfig(rho_n))
        nearest2 = float(np.min(np.sum(eaves.xy[keep] ** 2, axis=1)))
        degrees[t] = np.count_nonzero(np.sum(legit.xy**2, axis=1) < nearest2)
        if t < 50:  # the distance rule is the origin's edge predicate
            graph = build_neutralized(nodes, eaves, NeutralizationConfig(rho_n))
            assert len(graph.out_edges[0]) == degrees[t]
    return degrees


def test_neutralization_mean_matches_fixed_window_oracle():
    # At this corner the start window (radius 2 rho_n) holds fewer than one
    # expected survivor, so most trials grow it; the oracle's window W=6
    # misses a survivor with probability about exp(-25).  Counting the
    # origin in its own degree would add 1 (17% of the mean); letting it
    # neutralize nothing would remove about 10%.  Both exceed the gate at
    # these trial counts.
    cfg = NetworkConfig(lambda_e=0.5)
    ref = _fixed_window_neutralized_degrees(cfg, 0.5, 6.0, 10_000, seed=4242)
    est = estimate_generic(_spec("neutralization_mean", cfg=cfg, rho_n=0.5, trials=10_000), threads=2)
    combined = math.hypot(est.std_error, ref.std(ddof=1) / math.sqrt(len(ref)))
    assert abs(est.value - ref.mean()) < 4.5 * combined


def test_neutralization_mean_does_not_depend_on_start_window(monkeypatch):
    # With the start window at its 2 rho_n floor, trials grow through
    # several annuli; filtering an annulus against too few legitimate
    # points would show as a shift of the mean.
    cfg = NetworkConfig(lambda_e=0.1)
    usual = estimate_generic(_spec("neutralization_mean", cfg=cfg, rho_n=1.0, trials=3000), threads=2)
    monkeypatch.setattr(montecarlo, "_NEUTRAL_START_SURVIVORS", 0.01)
    grown = estimate_generic(_spec("neutralization_mean", cfg=cfg, rho_n=1.0, trials=3000, seed=4321), threads=2)
    assert _growths_per_trial(grown) > 2.5 * _growths_per_trial(usual)
    assert abs(grown.value - usual.value) < 4.5 * math.hypot(grown.std_error, usual.std_error)


def _growths_per_trial(est):
    growths, trials = re.search(r"(\d+) growths in (\d+) trials", est.bias_note).groups()
    return int(growths) / int(trials)


def test_neutralization_window_growth_rate():
    # Were survivors Poisson, a window holding c expected survivors would
    # hold none with probability exp(-c), and each growth multiplies its area
    # by 1.5^2.  Survivors cluster in the holes of the legitimate field, so
    # windows come up empty a little more often (1.25x here).
    c = montecarlo._NEUTRAL_START_SURVIVORS
    designed = sum(math.exp(-c * montecarlo._NEUTRAL_GROWTH ** (2 * k)) for k in range(20))
    spec = _spec("neutralization_mean", cfg=NetworkConfig(lambda_e=0.5), rho_n=1.0, trials=3000)
    rate = _growths_per_trial(estimate_generic(spec, threads=2))
    assert 0.8 * designed < rate < 1.5 * designed
