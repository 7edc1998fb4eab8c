"""Graph builders against brute-force predicates and against each other.

The reduction tests pin the relationships the analytic layer relies on:
every specialized builder must collapse to the baseline graph when its
extra mechanism is switched off, and the threshold builder must agree
with the closed-form secure-range predicate edge for edge.  The oracle
test holds each builder to a per-source loop over the same predicate.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secgraph import (
    FadingModel,
    GainModel,
    NetworkConfig,
    NeutralizationConfig,
    Rng,
    SectorConfig,
    build_baseline,
    build_fading,
    build_neutralized,
    build_sectorized,
    build_thresholded,
    colluding_msr,
    effective_eaves,
    gain,
    msr_link,
    nearest_distances,
    sample_disk,
    sample_fading,
    secure_range_thresholded,
)
from secgraph.pointprocess import PointSet
from secgraph.secrecy import ISGraph


def _realization(seed, lam_l=1.0, lam_e=0.5, w=4.0):
    rng = Rng(seed)
    return sample_disk(lam_l, w, rng.substream(0)), sample_disk(lam_e, w, rng.substream(1))


def _edge_sets(g):
    return [set(np.flatnonzero(row).tolist()) for row in g.adj]


# ---------------------------------------------------------------- msr_link

def test_msr_link_values():
    # silent adversary at P/sigma2 = 10 caps the rate at log2(11)
    assert msr_link(10.0, 0.0, 1.0, 1.0) == pytest.approx(3.4594316186372973, abs=1e-15)
    assert msr_link(1.0, 1.0, 1.0, 1.0) == 0.0
    assert msr_link(0.5, 2.0, 1.0, 1.0) == 0.0  # clamped, not negative
    assert msr_link(3.0, 1.0, 1.0, 1.0) == pytest.approx(1.0)
    # unequal noise enters through the SNRs
    assert msr_link(4.0, 4.0, 2.0, 4.0) == pytest.approx(math.log2(3.0) - math.log2(2.0))


def test_msr_link_vectorized():
    out = msr_link(np.array([10.0, 1.0]), np.array([0.0, 1.0]), 1.0, 1.0)
    assert out.shape == (2,)
    assert out[1] == 0.0


def test_msr_link_validation():
    with pytest.raises(ValueError):
        msr_link(-1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        msr_link(1.0, math.inf, 1.0, 1.0)
    with pytest.raises(ValueError):
        msr_link(1.0, 1.0, 0.0, 1.0)


# ------------------------------------------------------------- reductions

@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_thresholded_reduces_to_baseline(seed):
    legit, eaves = _realization(seed)
    cfg = NetworkConfig(rho=0.0, sigma2_l=1.0, sigma2_e=1.0)
    assert _edge_sets(build_thresholded(legit, eaves, cfg)) == _edge_sets(build_baseline(legit, eaves))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fading_none_reduces_to_baseline(seed):
    legit, eaves = _realization(seed)
    cfg = NetworkConfig(fading=FadingModel("none"))
    g = build_fading(legit, eaves, cfg, Rng(99).substream(seed))
    assert _edge_sets(g) == _edge_sets(build_baseline(legit, eaves))


def test_single_sector_reduces_to_baseline():
    legit, eaves = _realization(17)
    g = build_sectorized(legit, eaves, SectorConfig(L=1), Rng(5))
    assert _edge_sets(g) == _edge_sets(build_baseline(legit, eaves))


def test_zero_radius_neutralization_reduces_to_baseline():
    legit, eaves = _realization(23)
    g = build_neutralized(legit, eaves, NeutralizationConfig(radius=0.0))
    assert _edge_sets(g) == _edge_sets(build_baseline(legit, eaves))


# ------------------------------------------------- thresholded edge predicate

@pytest.mark.parametrize("rho,p_l,s2e", [(0.5, 1.0, 1.0), (2.0, 5.0, 1.0), (1.0, 1.0, 2.0)])
def test_thresholded_edges_match_secure_range(rho, p_l, s2e):
    legit, eaves = _realization(31)
    cfg = NetworkConfig(rho=rho, p_l=p_l, sigma2_e=s2e, gain=GainModel("unbounded", 2.0))
    g = build_thresholded(legit, eaves, cfg)
    re1 = nearest_distances(legit.xy, eaves)
    psi = secure_range_thresholded(re1, cfg)
    d = np.hypot(legit.xy[:, 0] - legit.xy[:, 0][:, None], legit.xy[:, 1] - legit.xy[:, 1][:, None])
    want = d < psi[:, None]
    np.fill_diagonal(want, False)
    assert np.array_equal(g.adj, want)


def test_secure_range_limits():
    cfg = NetworkConfig(rho=0.0)
    # rho = 0, equal noise: psi is the identity
    assert secure_range_thresholded(1.7, cfg) == pytest.approx(1.7, rel=1e-15)
    assert secure_range_thresholded(math.inf, cfg) == math.inf
    cfg2 = NetworkConfig(rho=1.0, p_l=4.0)
    b2 = 2.0 * cfg2.gain.b
    limit = (cfg2.sigma2_l / cfg2.p_l * (2.0**cfg2.rho - 1.0)) ** (-1.0 / b2)
    assert secure_range_thresholded(math.inf, cfg2) == pytest.approx(limit, rel=1e-14)
    # closed form needs the pure power-law gain
    with pytest.raises(ValueError):
        secure_range_thresholded(1.0, NetworkConfig(gain=GainModel("bounded", 2.0)))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**20), rho_lo=st.floats(0.0, 2.0), d_rho=st.floats(0.1, 3.0))
def test_threshold_monotone_in_rho(seed, rho_lo, d_rho):
    legit, eaves = _realization(seed, w=3.0)
    lo = _edge_sets(build_thresholded(legit, eaves, NetworkConfig(rho=rho_lo)))
    hi = _edge_sets(build_thresholded(legit, eaves, NetworkConfig(rho=rho_lo + d_rho)))
    assert all(h <= l for l, h in zip(lo, hi))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**20), L=st.integers(1, 8))
def test_sectorization_only_adds_edges(seed, L):
    legit, eaves = _realization(seed, w=3.0)
    base = _edge_sets(build_baseline(legit, eaves))
    sect = _edge_sets(build_sectorized(legit, eaves, SectorConfig(L=L), Rng(seed, 7)))
    assert all(b <= s for b, s in zip(base, sect))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**20), radius=st.floats(0.0, 1.0))
def test_neutralization_only_adds_edges(seed, radius):
    legit, eaves = _realization(seed, w=3.0)
    base = _edge_sets(build_baseline(legit, eaves))
    neut = _edge_sets(build_neutralized(legit, eaves, NeutralizationConfig(radius=radius)))
    assert all(b <= n for b, n in zip(base, neut))


# ------------------------------------------------ per-source loop oracles
# The builders form each adjacency matrix in one array expression.  These
# loops take one source at a time, as the builders once did, with the same
# float operations on the same draws, so the matrices must be equal.

def _sq_from(legit, i):
    dx = legit.xy[i, 0] - legit.xy[:, 0]
    dy = legit.xy[i, 1] - legit.xy[:, 1]
    return dx * dx + dy * dy


def _rows(n, hits):
    adj = np.zeros((n, n), dtype=bool)
    for i, hit in enumerate(hits):
        adj[i, hit[hit != i]] = True
    return adj


def _oracle_baseline(legit, eaves):
    re1 = nearest_distances(legit.xy, eaves)
    return _rows(len(legit), [np.flatnonzero(_sq_from(legit, i) < re1[i] ** 2) for i in range(len(legit))])


def _oracle_thresholded(legit, eaves, cfg):
    re1 = nearest_distances(legit.xy, eaves)
    const = cfg.sigma2_l / cfg.p_l * (2.0**cfg.rho - 1.0)
    scale = cfg.sigma2_l / cfg.sigma2_e * 2.0**cfg.rho
    hits = []
    for i in range(len(legit)):
        rhs = const if math.isinf(re1[i]) else scale * gain(cfg.gain, re1[i]) + const
        d = np.sqrt(_sq_from(legit, i))
        d[i] = 1.0
        hits.append(np.flatnonzero(gain(cfg.gain, d) > rhs))
    return _rows(len(legit), hits)


def _oracle_fading(legit, eaves, cfg, rng):
    n, m = len(legit), len(eaves)
    z_legit = sample_fading(cfg.fading, rng.substream(0), size=(n, n))
    z_eave = sample_fading(cfg.fading, rng.substream(1), size=(n, m)) if m else None
    hits = []
    for i in range(n):
        best_eave = 0.0
        if m:
            de = np.hypot(eaves.xy[:, 0] - legit.xy[i, 0], eaves.xy[:, 1] - legit.xy[i, 1])
            best_eave = gain(cfg.gain, de, z_eave[i]).max()
        d = np.sqrt(_sq_from(legit, i))
        d[i] = 1.0
        hits.append(np.flatnonzero(gain(cfg.gain, d, z_legit[i]) > best_eave))
    return _rows(n, hits)


def _oracle_sectorized(legit, eaves, L, rng):
    width = 2.0 * math.pi / L
    phis = rng.generator().uniform(0.0, width, len(legit))

    def wedge(i, xy):  # distance and wedge index of each point of xy from source i
        dx, dy = xy[:, 0] - legit.xy[i, 0], xy[:, 1] - legit.xy[i, 1]
        k = np.floor(((np.arctan2(dy, dx) - phis[i]) % (2.0 * math.pi)) / width).astype(np.int64)
        return np.hypot(dx, dy), np.clip(k, 0, L - 1)

    hits = []
    for i in range(len(legit)):
        sect_min = np.full(L, math.inf)
        de, ke = wedge(i, eaves.xy)
        np.minimum.at(sect_min, ke, de)
        hits.append(np.flatnonzero(np.sqrt(_sq_from(legit, i)) < sect_min[wedge(i, legit.xy)[1]]))
    return _rows(len(legit), hits)


def _oracle_neutralized(legit, eaves, radius):
    keep = effective_eaves(legit, eaves, NeutralizationConfig(radius=radius))
    return _oracle_baseline(legit, PointSet(eaves.xy[keep], eaves.density, eaves.window_radius))


_DENSITY = st.just(0.0) | st.floats(0.2, 2.0)  # 0 gives an empty field
_FADING = st.builds(
    FadingModel,
    st.sampled_from(["none", "nakagami", "lognormal", "nakagami_lognormal"]),
    m=st.floats(0.5, 4.0),
    sigma_s=st.floats(0.0, 2.0),
)
_CONFIG = st.builds(
    NetworkConfig,
    p_l=st.floats(0.5, 10.0),
    sigma2_e=st.floats(0.25, 4.0),
    rho=st.just(0.0) | st.floats(0.0, 3.0),
    gain=st.builds(GainModel, st.sampled_from(["unbounded", "bounded"]), st.floats(1.0, 3.0)),
    fading=_FADING,
)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    lam_l=_DENSITY,
    lam_e=_DENSITY,
    w=st.floats(0.5, 3.5),
    cfg=_CONFIG,
    L=st.integers(1, 8),
    radius=st.floats(0.0, 0.8),
)
@example(seed=3, lam_l=0.0, lam_e=1.0, w=2.0, cfg=NetworkConfig(rho=1.0), L=3, radius=0.5)
@example(seed=4, lam_l=1.0, lam_e=0.0, w=2.0, cfg=NetworkConfig(fading=FadingModel("lognormal")), L=3, radius=0.5)
def test_builders_match_loop_oracles(seed, lam_l, lam_e, w, cfg, L, radius):
    legit, eaves = _realization(seed, lam_l, lam_e, w)
    rng = Rng(seed, 5)
    pairs = {
        "baseline": (build_baseline(legit, eaves), _oracle_baseline(legit, eaves)),
        "thresholded": (build_thresholded(legit, eaves, cfg), _oracle_thresholded(legit, eaves, cfg)),
        "fading": (build_fading(legit, eaves, cfg, rng), _oracle_fading(legit, eaves, cfg, rng)),
        "sectorized": (
            build_sectorized(legit, eaves, SectorConfig(L=L), rng),
            _oracle_sectorized(legit, eaves, L, rng),
        ),
        "neutralized": (
            build_neutralized(legit, eaves, NeutralizationConfig(radius=radius)),
            _oracle_neutralized(legit, eaves, radius),
        ),
    }
    for name, (g, want) in pairs.items():
        assert g.adj.dtype == np.bool_ and np.array_equal(g.adj, want), name


def _traced_peak(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sectorized_builder_peaks_no_higher_than_the_baseline():
    # about 1,000 legitimate points, where the (n, n) arrays dominate: the
    # baseline's pairwise distances hold four of them at once, and the
    # sectorized builder, which also finds every wedge, may hold no more
    legit, eaves = _realization(11, lam_e=0.42, w=18.0)
    build_baseline(legit, eaves)  # scipy's k-d tree is imported outside the trace
    baseline = _traced_peak(lambda: build_baseline(legit, eaves))
    sectorized = _traced_peak(lambda: build_sectorized(legit, eaves, SectorConfig(L=4), Rng(3)))
    assert sectorized <= baseline


# ----------------------------------------------------------- neutralization

def test_effective_eaves_brute_force():
    rng = np.random.default_rng(41)
    for _ in range(20):
        legit, eaves = _realization(int(rng.integers(1 << 30)), w=3.0)
        radius = float(rng.uniform(0.1, 1.0))
        keep = effective_eaves(legit, eaves, NeutralizationConfig(radius=radius))
        if len(legit) == 0:
            want = np.arange(len(eaves))
        else:
            d2 = (eaves.xy[:, 0][:, None] - legit.xy[:, 0][None, :]) ** 2 + (
                eaves.xy[:, 1][:, None] - legit.xy[:, 1][None, :]
            ) ** 2
            want = np.flatnonzero(np.sqrt(d2.min(axis=1)) > radius)
        assert np.array_equal(keep, want)


# -------------------------------------------------------- nearest_distances

@pytest.mark.parametrize("n", [5, 256, 600])
def test_nearest_distances_matches_brute_force(n):
    rng = np.random.default_rng(43)
    pts = rng.uniform(-10, 10, size=(n, 2))
    ps = PointSet(pts, density=1.0, window_radius=15.0)
    q = rng.uniform(-12, 12, size=(200, 2))
    got = nearest_distances(q, ps)
    d2 = (q[:, 0][:, None] - pts[:, 0][None, :]) ** 2 + (q[:, 1][:, None] - pts[:, 1][None, :]) ** 2
    assert np.allclose(got, np.sqrt(d2.min(axis=1)), rtol=0, atol=1e-12)


def test_nearest_distances_empty_set_is_inf():
    ps = PointSet(np.empty((0, 2)), density=0.0, window_radius=1.0)
    assert np.all(np.isinf(nearest_distances(np.array([[0.0, 0.0]]), ps)))


# ------------------------------------------------------------ colluding_msr

def _eave_set(seed, lam_e=0.5, w=6.0):
    return sample_disk(lam_e, w, Rng(seed))


def test_colluding_msr_matches_manual_sum():
    eaves = _eave_set(3)
    cfg = NetworkConfig(lambda_e=eaves.density, gain=GainModel("unbounded", 2.0))
    b = 2.0
    r = np.hypot(eaves.xy[:, 0], eaves.xy[:, 1])
    prx_e = cfg.p_l * np.sum(r ** (-2 * b))
    tail = 2 * math.pi * eaves.density * cfg.p_l * eaves.window_radius ** (2 - 2 * b) / (2 * b - 2)
    want = msr_link(cfg.p_l / 0.5 ** (2 * b), prx_e + tail, 1.0, 1.0)
    assert colluding_msr(0.5, eaves, cfg) == pytest.approx(want, rel=1e-14)


def test_colluding_msr_tail_controls():
    eaves = _eave_set(5)
    cfg = NetworkConfig(lambda_e=eaves.density)
    with_tail = colluding_msr(1.0, eaves, cfg)
    no_tail = colluding_msr(1.0, eaves, cfg, tail_radius=math.inf)
    assert no_tail >= with_tail  # dropping the tail only helps the link
    wide = colluding_msr(1.0, eaves, cfg, tail_radius=2.0 * eaves.window_radius)
    assert with_tail <= wide <= no_tail
    with pytest.raises(ValueError):
        colluding_msr(1.0, eaves, cfg, tail_radius=0.5 * eaves.window_radius)


def test_colluding_msr_validation():
    eaves = _eave_set(7)
    with pytest.raises(ValueError, match="diverges"):
        colluding_msr(1.0, eaves, NetworkConfig(gain=GainModel("unbounded", 1.0)))
    with pytest.raises(ValueError):
        colluding_msr(1.0, eaves, NetworkConfig(gain=GainModel("bounded", 2.0)))
    with pytest.raises(ValueError):
        colluding_msr(0.0, eaves, NetworkConfig())


# ----------------------------------------------------------- config objects

def test_network_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(lambda_l=0.0)
    with pytest.raises(ValueError):
        NetworkConfig(lambda_e=-0.1)
    with pytest.raises(ValueError):
        NetworkConfig(p_l=0.0)
    with pytest.raises(ValueError):
        NetworkConfig(sigma2_e=-1.0)
    with pytest.raises(ValueError):
        NetworkConfig(rho=-0.5)
    assert NetworkConfig(lambda_l=2.0, lambda_e=0.5).ratio == 4.0
    assert NetworkConfig(lambda_e=0.0).ratio == math.inf


def test_sector_config_validation():
    with pytest.raises(ValueError):
        SectorConfig(L=0)
    with pytest.raises(ValueError):
        SectorConfig(L=2.0)
    with pytest.raises(ValueError):
        NeutralizationConfig(radius=-1.0)


def test_isgraph_edge_validation():
    legit = PointSet(np.array([[0.0, 0.0], [1.0, 0.0]]), 1.0, 2.0)
    eaves = PointSet(np.empty((0, 2)), 0.0, 2.0)
    g = ISGraph(legit, eaves, np.array([[False, True], [False, False]]))
    assert g.out_degrees().tolist() == [1, 0]
    assert g.in_degrees().tolist() == [0, 1]
    with pytest.raises(ValueError, match="self edges"):
        ISGraph(legit, eaves, np.eye(2, dtype=bool))
    with pytest.raises(ValueError, match="boolean"):
        ISGraph(legit, eaves, np.array([[0, 1], [1, 0]]))  # integers, not booleans
    with pytest.raises(ValueError, match="boolean"):
        ISGraph(legit, eaves, np.array([[False, True]]))  # missing a source row


def test_degree_bookkeeping_consistent():
    legit, eaves = _realization(51)
    g = build_baseline(legit, eaves)
    assert g.out_degrees().dtype == g.in_degrees().dtype == np.int64
    assert g.out_degrees().sum() == g.in_degrees().sum() == np.count_nonzero(g.adj)
    assert g.out_degrees().tolist() == [len(e) for e in _edge_sets(g)]
