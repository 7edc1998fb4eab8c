"""Per-link maximum secrecy rate and directed secure-edge graph builders.

A directed edge x_i -> x_j exists when the link from x_i to x_j supports a
secrecy rate above the threshold rho against the eavesdropper field.  Each
builder realizes one variant of that predicate on a fixed realization:

    build_baseline      distance rule: |x_i - x_j| < min_k |x_i - e_k|
    build_fading        gain rule with per-pair propagation effects Z
    build_thresholded   rho > 0 and unequal noise, deterministic channels
    build_sectorized    per-destination sector restricts which eavesdroppers count
    build_neutralized   eavesdroppers inside the guard radius of any
                        legitimate node are removed first

Each builder compares whole pairwise arrays at once and returns the graph
as one (n, n) boolean matrix, so it holds a few n*(n+m) float arrays for n
legitimate points and m eavesdroppers.  All predicates use strict
inequalities; ties are probability-zero events.  With an empty eavesdropper
set the builders return the complete digraph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .pointprocess import PointSet, Rng
from .propagation import FadingModel, GainModel, gain, sample_fading

__all__ = [
    "NetworkConfig",
    "ISGraph",
    "SectorConfig",
    "NeutralizationConfig",
    "msr_link",
    "secure_range_thresholded",
    "build_baseline",
    "build_thresholded",
    "build_fading",
    "build_sectorized",
    "build_neutralized",
    "colluding_msr",
    "nearest_distances",
]


@dataclass(frozen=True)
class NetworkConfig:
    """Densities, radio parameters, and channel models of one scenario.

    lambda_l, lambda_e   legitimate / eavesdropper densities (nodes per m^2)
    p_l                  transmit power (linear units)
    sigma2_l, sigma2_e   legitimate / eavesdropper receiver noise powers
    rho                  secrecy rate threshold (bits per complex dimension)
    """

    lambda_l: float = 1.0
    lambda_e: float = 0.1
    p_l: float = 1.0
    sigma2_l: float = 1.0
    sigma2_e: float = 1.0
    rho: float = 0.0
    gain: GainModel = field(default_factory=GainModel)
    fading: FadingModel = field(default_factory=FadingModel)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lambda_l) and self.lambda_l > 0):
            raise ValueError(f"lambda_l must be > 0, got {self.lambda_l}")
        if not (math.isfinite(self.lambda_e) and self.lambda_e >= 0):
            raise ValueError(f"lambda_e must be >= 0, got {self.lambda_e}")
        if not (math.isfinite(self.p_l) and self.p_l > 0):
            raise ValueError(f"p_l must be > 0, got {self.p_l}")
        if not (math.isfinite(self.sigma2_l) and self.sigma2_l > 0):
            raise ValueError(f"sigma2_l must be > 0, got {self.sigma2_l}")
        if not (math.isfinite(self.sigma2_e) and self.sigma2_e > 0):
            raise ValueError(f"sigma2_e must be > 0, got {self.sigma2_e}")
        if not (math.isfinite(self.rho) and self.rho >= 0):
            raise ValueError(f"rho must be >= 0, got {self.rho}")

    @property
    def ratio(self) -> float:
        """lambda_l / lambda_e; infinite when there are no eavesdroppers."""
        return self.lambda_l / self.lambda_e if self.lambda_e > 0 else math.inf


@dataclass(frozen=True)
class SectorConfig:
    """L equal angular transmission sectors.

    The sector degree theorem does not pin down the offset law (any joint
    distribution gives the same out-degree PMF); the builder draws each
    source's offset phi_i uniformly on [0, 2pi/L).
    """

    L: int = 1

    def __post_init__(self) -> None:
        if not (isinstance(self.L, int) and self.L >= 1):
            raise ValueError(f"sector count L must be an integer >= 1, got {self.L}")


@dataclass(frozen=True)
class NeutralizationConfig:
    """Guard radius rho_n: no eavesdropper survives within it of a legitimate node."""

    radius: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.radius) and self.radius >= 0):
            raise ValueError(f"neutralization radius must be >= 0, got {self.radius}")


class ISGraph:
    """Directed secure-edge graph over the legitimate points of one realization.

    adj is an (n, n) boolean matrix with adj[i, j] the edge x_i -> x_j and a
    false diagonal: n^2 bytes, against the few n*(n+m) floats its builder
    holds while forming it.  Out- and in-degrees are its row and column sums.
    """

    __slots__ = ("legit", "eaves", "adj")

    def __init__(self, legit: PointSet, eaves: PointSet, adj: np.ndarray):
        n = len(legit)
        adj = np.asarray(adj)
        if adj.dtype != np.bool_ or adj.shape != (n, n):
            raise ValueError(f"adjacency must be a boolean ({n}, {n}) matrix, got {adj.dtype} {adj.shape}")
        if adj.diagonal().any():
            raise ValueError("adjacency must have no self edges")
        self.legit = legit
        self.eaves = eaves
        self.adj = adj

    def out_degrees(self) -> np.ndarray:
        return self.adj.sum(axis=1, dtype=np.int64)

    def in_degrees(self) -> np.ndarray:
        return self.adj.sum(axis=0, dtype=np.int64)


def msr_link(prx_legit, prx_eave, sigma2_l: float, sigma2_e: float):
    """Maximum secrecy rate of one wiretap link, bits per complex dimension.

    [log2(1 + prx_legit/sigma2_l) - log2(1 + prx_eave/sigma2_e)]^+
    """
    pl = np.asarray(prx_legit, dtype=np.float64)
    pe = np.asarray(prx_eave, dtype=np.float64)
    if not (np.all(np.isfinite(pl)) and np.all(np.isfinite(pe))):
        raise ValueError("received powers must be finite")
    if np.any(pl < 0) or np.any(pe < 0):
        raise ValueError("received powers must be >= 0")
    if not (sigma2_l > 0 and sigma2_e > 0):
        raise ValueError("noise powers must be > 0")
    out = np.maximum(np.log2(1.0 + pl / sigma2_l) - np.log2(1.0 + pe / sigma2_e), 0.0)
    return out if out.ndim else float(out)


def nearest_distances(query_xy: np.ndarray, ps: PointSet) -> np.ndarray:
    """Distance from each query position to the nearest point of ps.

    One k-d tree query; returns +inf entries when ps is empty.
    """
    from scipy.spatial import cKDTree

    query_xy = np.asarray(query_xy, dtype=np.float64).reshape(-1, 2)
    if len(ps) == 0:
        return np.full(len(query_xy), math.inf)
    return cKDTree(ps.xy).query(query_xy)[0]


def _pairwise_sq(xy: np.ndarray) -> np.ndarray:
    dx = xy[:, 0][:, None] - xy[:, 0][None, :]
    dy = xy[:, 1][:, None] - xy[:, 1][None, :]
    return dx * dx + dy * dy


def _pairwise(legit: PointSet) -> np.ndarray:
    """|x_i - x_j| for every pair, with 1.0 on the diagonal: a placeholder
    that keeps the unbounded gain finite.  Builders clear the self edges."""
    d = np.sqrt(_pairwise_sq(legit.xy))
    np.fill_diagonal(d, 1.0)
    return d


def _from_sources(legit: PointSet, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x and y displacements, shape (n, len(xy)), from each legitimate source to each point of xy."""
    return xy[:, 0] - legit.xy[:, 0][:, None], xy[:, 1] - legit.xy[:, 1][:, None]


def build_baseline(legit: PointSet, eaves: PointSet) -> ISGraph:
    """Edge x_i -> x_j iff x_j is closer to x_i than every eavesdropper.

    This is the rho=0, path-loss-only, equal-noise secrecy graph; the caller
    is responsible for those assumptions holding in the surrounding model.
    """
    re1 = nearest_distances(legit.xy, eaves)
    adj = _pairwise_sq(legit.xy) < (re1**2)[:, None]
    np.fill_diagonal(adj, False)
    return ISGraph(legit, eaves, adj)


def secure_range_thresholded(d_e, cfg: NetworkConfig):
    """Largest secure link distance given the nearest-eavesdropper distance.

    Unbounded gain only: the threshold edge predicate is equivalent to
    |x_i - x_j| < psi(|x_i - e*|) with

        psi(r) = r / (A + B r^(2b))^(1/(2b)),
        A = (sigma2_l/sigma2_e) 2^rho,  B = (sigma2_l/P_l)(2^rho - 1).

    Accepts arrays; d_e = +inf maps to the no-eavesdropper limit (B^(-1/(2b))
    for rho > 0, +inf for rho = 0).
    """
    if cfg.gain.kind != "unbounded":
        raise ValueError("secure range in closed form requires the unbounded gain model")
    b2 = 2.0 * cfg.gain.b
    A = cfg.sigma2_l / cfg.sigma2_e * 2.0**cfg.rho
    B = cfg.sigma2_l / cfg.p_l * (2.0**cfg.rho - 1.0)
    d = np.asarray(d_e, dtype=np.float64)
    inf_mask = np.isinf(d)
    dd = np.where(inf_mask, 1.0, d)
    out = dd / (A + B * dd**b2) ** (1.0 / b2)
    if np.any(inf_mask):
        limit = math.inf if B == 0.0 else B ** (-1.0 / b2)
        out = np.where(inf_mask, limit, out)
    return out if out.ndim else float(out)


def build_thresholded(legit: PointSet, eaves: PointSet, cfg: NetworkConfig) -> ISGraph:
    """Deterministic-channel secrecy graph with threshold rho and unequal noise.

    Edge iff g(|x_i-x_j|) > (sigma2_l/sigma2_e) 2^rho g(|x_i-e*|)
                            + (sigma2_l/P_l)(2^rho - 1),
    e* the eavesdropper nearest to the source.  Works for either gain model;
    fading must be none (the threshold analysis assumes Z = 1).
    """
    re1 = nearest_distances(legit.xy, eaves)
    const = cfg.sigma2_l / cfg.p_l * (2.0**cfg.rho - 1.0)
    scale = cfg.sigma2_l / cfg.sigma2_e * 2.0**cfg.rho
    rhs = scale * gain(cfg.gain, re1) + const if len(eaves) else np.full(len(legit), const)
    adj = gain(cfg.gain, _pairwise(legit)) > rhs[:, None]
    np.fill_diagonal(adj, False)
    return ISGraph(legit, eaves, adj)


def build_fading(legit: PointSet, eaves: PointSet, cfg: NetworkConfig, rng: Rng) -> ISGraph:
    """Random-channel secrecy graph at rho=0 and equal noise.

    One propagation effect Z is drawn per ordered source -> target pair
    (legitimate targets and eavesdroppers alike); the edge exists iff the
    legitimate gain beats the best eavesdropper gain:
    g(|x_i-x_j|, Z_ij) > max_k g(|x_i-e_k|, Z_{i,e_k}).
    """
    n, m = len(legit), len(eaves)
    z_legit = sample_fading(cfg.fading, rng.substream(0), size=(n, n))
    z_eave = sample_fading(cfg.fading, rng.substream(1), size=(n, m))
    best_eave = gain(cfg.gain, np.hypot(*_from_sources(legit, eaves.xy)), z_eave).max(axis=1, initial=0.0)
    adj = gain(cfg.gain, _pairwise(legit), z_legit) > best_eave[:, None]
    np.fill_diagonal(adj, False)
    return ISGraph(legit, eaves, adj)


def build_sectorized(legit: PointSet, eaves: PointSet, sector: SectorConfig, rng: Rng) -> ISGraph:
    """Sectorized baseline graph: only eavesdroppers sharing the destination's
    sector of the source can block an edge.

    Sectors are L equal wedges anchored at each source with an offset phi_i
    drawn uniformly on [0, 2pi/L); edge iff |x_i-x_j| < min over eavesdroppers
    in the destination's wedge (absent eavesdroppers there, the edge exists).
    """
    n, L = len(legit), sector.L
    width = 2.0 * math.pi / L
    phis = rng.generator().uniform(0.0, width, n)[:, None]

    def wedge(xy):  # wedge index of each point of xy as seen from each source
        dx, dy = _from_sources(legit, xy)
        k = np.floor(((np.arctan2(dy, dx) - phis) % (2.0 * math.pi)) / width).astype(np.int64)
        return np.clip(k, 0, L - 1)

    sect_min = np.full((n, L), math.inf)  # nearest eavesdropper in each wedge of each source
    np.minimum.at(sect_min, (np.arange(n)[:, None], wedge(eaves.xy)), np.hypot(*_from_sources(legit, eaves.xy)))
    adj = _pairwise(legit) < np.take_along_axis(sect_min, wedge(legit.xy), axis=1)
    np.fill_diagonal(adj, False)
    return ISGraph(legit, eaves, adj)


def effective_eaves(legit: PointSet, eaves: PointSet, n: NeutralizationConfig) -> np.ndarray:
    """Indices of eavesdroppers surviving neutralization (outside every guard disk)."""
    if n.radius == 0.0 or len(eaves) == 0 or len(legit) == 0:
        return np.arange(len(eaves), dtype=np.int64)
    dmin = nearest_distances(eaves.xy, legit)  # nearest legitimate node per eavesdropper
    return np.flatnonzero(dmin > n.radius).astype(np.int64)


def build_neutralized(legit: PointSet, eaves: PointSet, n: NeutralizationConfig) -> ISGraph:
    """Baseline graph against the eavesdroppers surviving neutralization."""
    keep = effective_eaves(legit, eaves, n)
    surviving = PointSet(eaves.xy[keep], eaves.density, eaves.window_radius)
    return ISGraph(legit, eaves, build_baseline(legit, surviving).adj)


def colluding_msr(r_l: float, eaves: PointSet, cfg: NetworkConfig, tail_radius: float | None = None) -> float:
    """MSR of a link of length r_l against eavesdroppers combining their signals.

    The adversary's received power is the windowed sum P_l * sum R_e,i^(-2b)
    plus the deterministic mean of the truncated tail,
    2*pi*lambda_e*P_l*W^(2-2b)/(2b-2), W = tail_radius (defaults to the
    realization's window radius; +inf disables the correction).  Requires the
    unbounded gain model with b > 1; at b <= 1 the aggregate diverges.
    """
    b = cfg.gain.b
    if cfg.gain.kind != "unbounded":
        raise ValueError("colluding analysis requires the unbounded gain model")
    if b <= 1.0:
        raise ValueError(f"aggregate eavesdropper power diverges for b <= 1 (got b={b})")
    if not (math.isfinite(r_l) and r_l > 0):
        raise ValueError(f"link distance must be > 0, got {r_l}")
    w = eaves.window_radius if tail_radius is None else float(tail_radius)
    if w < eaves.window_radius:
        raise ValueError("tail_radius must be at least the realization window radius")
    r = eaves.ordered_r
    prx_e = cfg.p_l * float(np.sum(r ** (-2.0 * b))) if r.size else 0.0
    if math.isfinite(w):
        prx_e += 2.0 * math.pi * eaves.density * cfg.p_l * w ** (2.0 - 2.0 * b) / (2.0 * b - 2.0)
    prx_l = cfg.p_l / r_l ** (2.0 * b)
    return float(msr_link(prx_l, prx_e, cfg.sigma2_l, cfg.sigma2_e))
