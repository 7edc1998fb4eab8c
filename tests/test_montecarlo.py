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
    Estimate,
    NetworkConfig,
    NeutralizationConfig,
    PointSet,
    Rng,
    Sample,
    SectorConfig,
    analytic,
    build_baseline,
    build_neutralized,
    build_sectorized,
    build_thresholded,
    colluding_window,
    effective_eaves,
    estimate_generic,
    fading_window,
    in_degree_window,
    montecarlo,
    sample_disk,
)
from secgraph.propagation import FadingModel, GainModel

CFG = NetworkConfig(lambda_l=1.0, lambda_e=0.5)


def _sample(kind, trials=4096, seed=1234, threads=1, cfg=CFG, **params):
    return estimate_generic(kind, cfg, trials, Rng(seed), threads, **params)


# ------------------------------------------------------- results and inputs

def test_estimate_validation():
    with pytest.raises(ValueError):
        Estimate(1.0, -0.1, 10)
    with pytest.raises(ValueError):
        Estimate(1.0, 0.1, 0)
    assert Estimate(1.0, 0.0, 1).bias_note is None


def test_estimate_generic_validation():
    with pytest.raises(ValueError):
        _sample("degree_pmf")  # not a kind
    with pytest.raises(ValueError):
        _sample("out_degree", trials=0)
    with pytest.raises(ValueError):
        _sample("neighbor_msr", neighbor_index=0)
    assert len(_sample("neighbor_msr", trials=300).values) == 300


def test_sample_reductions():
    # ties count as <=: the two zeros (no secrecy) are in the CDF at 0
    values, ses = Sample(np.array([0.0, 0.0, 0.5, 1.0, 1.0, 2.0])).ecdf((0, 0.5, 1, 1.5))
    assert np.array_equal(values, np.array([2, 3, 5, 5]) / 6)
    assert np.array_equal(ses, np.sqrt(values * (1 - values) / 6))
    # mean: s = 2, s2 = 2 and s = 8, s2 = 26 over n = 4
    est = Sample(np.array([True, False, True, False])).mean()
    assert (est.value, est.std_error, est.trials) == (0.5, math.sqrt((2 - 2 * 2 / 4) / 3 / 4), 4)
    est = Sample(np.array([0, 1, 3, 4]), "note").mean()
    assert (est.value, est.std_error, est.bias_note) == (2.0, math.sqrt((26 - 8 * 8 / 4) / 3 / 4), "note")
    assert Sample(np.array([7])).mean().std_error == 0.0
    assert np.array_equal(Sample(np.array([0, 2, 2])).pmf().probs, np.array([1, 0, 2]) / 3)


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
        ("out_degree", {}),
        ("out_degree", {"cfg": NetworkConfig(lambda_e=0.5, fading=FadingModel("nakagami", m=2.0)), "trials": 600}),
        ("in_degree", {"trials": 600}),
        ("voronoi_area", {"cfg": None, "trials": 600}),
        ("thresholded_degree", {"cfg": NetworkConfig(lambda_e=0.5, rho=1.0)}),
        ("sector_degree", {"L": 3}),
        ("neutralized_degree", {"rho_n": 0.4, "trials": 512}),
        ("neighbor_msr", {"neighbor_index": 2}),
        ("colluding_power", {"trials": 2048}),
        ("colluding_msr", {"r_l": 0.5, "trials": 2048}),
        ("colluding_degree", {"cfg": NetworkConfig(lambda_e=0.5), "trials": 2048}),
    ],
)
def test_thread_count_invariance(kind, kw):
    a = _sample(kind, threads=1, **kw)
    b = _sample(kind, threads=4, **kw)
    assert np.array_equal(a.values, b.values)
    assert a.bias_note == b.bias_note  # window-growth counts included


def test_same_seed_same_pmf_different_seed_differs():
    a, b, c = _sample("out_degree"), _sample("out_degree"), _sample("out_degree", seed=999)
    assert np.array_equal(a.pmf().probs, b.pmf().probs) and a.mean().value == b.mean().value
    assert a.mean().value != c.mean().value


# --------------------------------------------------- agreement with theory

def test_out_degree_exact_route():
    sample = _sample("out_degree", trials=20_000)
    est = sample.mean()
    assert est.value == pytest.approx(CFG.ratio, abs=6 * est.std_error)
    tv = analytic.tv_distance(sample.pmf(), lambda n: analytic.pmf_out_degree(n, 1.0, 0.5))
    assert tv < 0.02


def test_out_degree_depends_only_on_ratio():
    # joint rescaling of both densities leaves the degree law untouched
    pmf_a = _sample("out_degree", trials=20_000, seed=501).pmf()
    cfg_scaled = NetworkConfig(lambda_l=3.0, lambda_e=1.5)
    pmf_b = _sample("out_degree", cfg=cfg_scaled, trials=20_000, seed=502).pmf()
    law = lambda n: analytic.pmf_out_degree(n, 1.0, 0.5)
    assert analytic.tv_distance(pmf_a, law) < 0.02
    assert analytic.tv_distance(pmf_b, law) < 0.02


def test_out_degree_fading_route_keeps_the_law():
    cfg = NetworkConfig(lambda_l=1.0, lambda_e=0.5, fading=FadingModel("nakagami", m=3.0))
    sample = _sample("out_degree", cfg=cfg, trials=6000, threads=4)
    tv = analytic.tv_distance(sample.pmf(), lambda n: analytic.pmf_out_degree(n, 1.0, 0.5))
    assert tv < 0.03  # the PMF does not feel the fading model
    assert sample.bias_note is not None


def test_in_degree_mean_and_variance():
    sample = _sample("in_degree", trials=6000, threads=4)
    est = sample.mean()
    assert est.value == pytest.approx(2.0, abs=6 * est.std_error)
    m2 = analytic.moments_in_degree(2, 2.0, analytic.TABLE_VORONOI_MOMENTS)
    assert sample.pmf().moment(2) == pytest.approx(m2, rel=0.15)


def _origin_degrees(build, graphs, lambda_e, w_legit, w_eaves, seed):
    """Out- and in-degree of the origin, node 0, in each of `graphs`
    realizations: unit-density legitimate points in radius w_legit and
    eavesdroppers in w_eaves, through build(nodes, eaves, t)."""
    rng = Rng(seed)
    out_deg = np.empty(graphs)
    in_deg = np.empty(graphs)
    for t in range(graphs):
        legit = sample_disk(1.0, w_legit, rng.substream(2 * t))
        eaves = sample_disk(lambda_e, w_eaves, rng.substream(2 * t + 1))
        nodes = PointSet(np.vstack([[0.0, 0.0], legit.xy]), legit.density, w_legit)
        graph = build(nodes, eaves, t)
        out_deg[t] = graph.out_degrees()[0]
        in_deg[t] = graph.in_degrees()[0]
    return out_deg, in_deg


def _assert_mean_matches(sample, ref, label):
    est = sample.mean()
    combined = math.hypot(est.std_error, ref.std(ddof=1) / math.sqrt(len(ref)))
    assert abs(est.value - ref.mean()) < 4.5 * combined, label


def test_degree_estimators_match_baseline_graph():
    # The estimators never build a graph: the out-degree comes from the
    # nearest-eavesdropper distance alone, the in-degree from count_in_cell.
    # Here whole realizations go through build_baseline instead, with the
    # origin as node 0.  Legitimate points fill the in-degree window W, so
    # in-edges from beyond it are missed with expected count 1e-4; the
    # eavesdroppers fill 2W, which holds the disk in which any source within
    # W looks for its nearest one.
    w = in_degree_window(CFG.lambda_l, CFG.lambda_e)
    out_deg, in_deg = _origin_degrees(lambda nodes, eaves, t: build_baseline(nodes, eaves), 4000, 0.5, w, 2 * w, 2718)
    _assert_mean_matches(_sample("out_degree", trials=20_000, threads=2), out_deg, "out_degree")
    _assert_mean_matches(_sample("in_degree", trials=20_000, threads=2), in_deg, "in_degree")


def test_thresholded_degree_matches_graph():
    # The sampler maps the nearest-eavesdropper distance to a secure range;
    # build_thresholded applies the edge predicate to every pair.  The secure
    # range is below the nearest-eavesdropper distance, so the origin's
    # out-edges are exact unless no eavesdropper lies within W (pi W^2 = 10):
    # probability e^-10.
    cfg = NetworkConfig(lambda_e=1.0, rho=1.0, p_l=5.0)
    w = math.sqrt(10.0 / math.pi)
    out_deg, _ = _origin_degrees(lambda nodes, eaves, t: build_thresholded(nodes, eaves, cfg), 3000, 1.0, w, w, 99)
    _assert_mean_matches(_sample("thresholded_degree", cfg=cfg, trials=20_000, threads=2), out_deg, "thresholded")


def test_sector_degree_matches_graph():
    # The sampler treats the L wedges as independent fields; build_sectorized
    # tests each destination against the eavesdroppers in its own wedge of
    # the source.  Each wedge of W (pi W^2 / L = 10) is empty of
    # eavesdroppers with probability e^-10.
    cfg = NetworkConfig(lambda_e=1.0)
    w = math.sqrt(20.0 / math.pi)
    offsets = Rng(100)

    def build(nodes, eaves, t):
        return build_sectorized(nodes, eaves, SectorConfig(L=2), offsets.substream(t))

    out_deg, _ = _origin_degrees(build, 3000, 1.0, w, w, 99)
    _assert_mean_matches(_sample("sector_degree", cfg=cfg, L=2, trials=20_000, threads=2), out_deg, "sectors")


def test_isolation_dual_route_consistency():
    out = _sample("out_degree", trials=30_000, threads=4)
    into = estimate_generic("in_degree", CFG, 30_000, Rng(1234).substream(1), threads=4)
    p_out_sim, p_in_sim = Sample(out.values == 0).mean(), Sample(into.values == 0).mean()
    p_out = analytic.p_out_isolation(1.0, 0.5)
    assert p_out_sim.value == pytest.approx(p_out, abs=6 * p_out_sim.std_error)
    # the direct in-degree zero frequency must agree with the area-sample route
    areas = estimate_generic("voronoi_area", None, 3000, Rng(77), threads=4).values
    via_areas = analytic.p_in_isolation(CFG.ratio, areas)
    gap = abs(p_in_sim.value - via_areas.value)
    combined = math.hypot(p_in_sim.std_error, via_areas.std_error)
    assert gap < 6 * combined


def test_voronoi_moments_near_table():
    areas = estimate_generic("voronoi_area", None, 4000, Rng(5), threads=4).values
    assert len(areas) == 4000
    moments = [np.mean(areas**k) for k in range(1, 5)]
    for got, want, tol in zip(moments, analytic.TABLE_VORONOI_MOMENTS.moments, (0.02, 0.06, 0.12, 0.3)):
        assert got == pytest.approx(want, rel=tol)


def test_thresholded_mean_tracks_quadrature():
    cfg = NetworkConfig(lambda_e=0.5, rho=1.0, p_l=5.0)
    est = _sample("thresholded_degree", cfg=cfg, trials=40_000, threads=4).mean()
    exact, bound = analytic.mean_out_degree_thresholded(cfg)
    assert exact <= bound
    assert est.value == pytest.approx(exact, abs=6 * est.std_error)


def test_sector_mean_scales_with_L():
    est = _sample("sector_degree", L=4, trials=20_000, threads=4).mean()
    assert est.value == pytest.approx(4 * CFG.ratio, abs=6 * est.std_error)


def test_neighbor_cdf_tracks_quadrature():
    cfg = NetworkConfig(lambda_l=1.0, lambda_e=0.1)
    grid = (0.0, 0.5, 1.0, 2.0, 4.0)
    values, ses = _sample("neighbor_msr", cfg=cfg, trials=20_000, threads=4).ecdf(grid)
    for g, v, se in zip(grid, values, ses):
        want = analytic.cdf_msr_neighbor(float(g), 1, cfg)
        assert v == pytest.approx(want, abs=max(6 * se, 1e-3))


def test_colluding_power_matches_stable_median():
    cfg = NetworkConfig(lambda_e=0.5)
    w = colluding_window(cfg)
    samples = estimate_generic("colluding_power", cfg, 20_000, Rng(31), threads=4, r_window=w).values
    b = cfg.gain.b
    scale = (math.pi * cfg.lambda_e / analytic.c_alpha(1.0 / b)) ** b * cfg.p_l
    # Levy median: x with 2 Phi(-1/sqrt(x)) = 1/2 -> x = 1/ndtri(0.75)^2
    from scipy.special import ndtri

    med = scale / ndtri(0.75) ** 2
    frac = float(np.mean(samples <= med))
    assert frac == pytest.approx(0.5, abs=0.02)


def test_colluding_power_no_eavesdroppers():
    samples = estimate_generic("colluding_power", NetworkConfig(lambda_e=0.0), 100, Rng(3), r_window=10.0).values
    assert len(samples) == 100 and np.all(samples == 0.0)


def test_colluding_requires_converging_exponent():
    cfg = NetworkConfig(gain=GainModel("unbounded", 1.0))
    with pytest.raises(ValueError):
        estimate_generic("colluding_power", cfg, 100, Rng(3), r_window=10.0)
    with pytest.raises(ValueError):
        _sample("colluding_degree", cfg=cfg, trials=64)


def test_colluding_mean_degree_tracks_sinc():
    est = _sample("colluding_degree", trials=30_000, threads=4).mean()
    want = analytic.mean_degree_colluding(1.0, 0.5, 2.0)
    assert est.value == pytest.approx(want, abs=6 * est.std_error)


def test_neutralization_meets_lower_bound():
    est = _sample("neutralized_degree", rho_n=0.5, trials=2000, cfg=NetworkConfig(lambda_e=0.5), threads=4).mean()
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
    est = _sample("neutralized_degree", cfg=cfg, rho_n=0.5, trials=10_000, threads=2).mean()
    combined = math.hypot(est.std_error, ref.std(ddof=1) / math.sqrt(len(ref)))
    assert abs(est.value - ref.mean()) < 4.5 * combined


def test_neutralization_mean_does_not_depend_on_start_window(monkeypatch):
    # With the start window at its 2 rho_n floor, trials grow through
    # several annuli; filtering an annulus against too few legitimate
    # points would show as a shift of the mean.
    cfg = NetworkConfig(lambda_e=0.1)
    usual = _sample("neutralized_degree", cfg=cfg, rho_n=1.0, trials=3000, threads=2)
    monkeypatch.setattr(montecarlo, "_NEUTRAL_START_SURVIVORS", 0.01)
    grown = _sample("neutralized_degree", cfg=cfg, rho_n=1.0, trials=3000, seed=4321, threads=2)
    assert _growths_per_trial(grown) > 2.5 * _growths_per_trial(usual)
    a, b = grown.mean(), usual.mean()
    assert abs(a.value - b.value) < 4.5 * math.hypot(a.std_error, b.std_error)


def _growths_per_trial(sample):
    growths, trials = re.search(r"(\d+) growths in (\d+) trials", sample.bias_note).groups()
    return int(growths) / int(trials)


def test_neutralization_window_growth_rate():
    # Were survivors Poisson, a window holding c expected survivors would
    # hold none with probability exp(-c), and each growth multiplies its area
    # by 1.5^2.  Survivors cluster in the holes of the legitimate field, so
    # windows come up empty a little more often (1.25x here).
    c = montecarlo._NEUTRAL_START_SURVIVORS
    designed = sum(math.exp(-c * montecarlo._NEUTRAL_GROWTH ** (2 * k)) for k in range(20))
    sample = _sample("neutralized_degree", cfg=NetworkConfig(lambda_e=0.5), rho_n=1.0, trials=3000, threads=2)
    rate = _growths_per_trial(sample)
    assert 0.8 * designed < rate < 1.5 * designed
