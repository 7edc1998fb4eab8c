"""Intrinsically secure communication graphs over Poisson fields.

Simulation of the secrecy graph induced by legitimate nodes and
eavesdroppers scattered in the plane, together with the closed-form
degree, isolation, outage, and colluding-adversary results it obeys,
and Monte Carlo machinery that cross-validates the two.
"""

from .analytic import (
    DegreePmf,
    TABLE_VORONOI_MOMENTS,
    VoronoiMoments,
    c_alpha,
    cdf_msr_colluding,
    cdf_msr_neighbor,
    cdf_msr_noncolluding_link,
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
from .kernels import backend_name
from .montecarlo import (
    Estimate,
    Sample,
    colluding_window,
    estimate_generic,
    fading_window,
    in_degree_window,
    neutralization_window,
)
from .pointprocess import PointSet, Rng, sample_disk, sample_nearest_distance
from .propagation import FadingModel, GainModel, gain, sample_fading
from .secrecy import (
    ISGraph,
    NetworkConfig,
    NeutralizationConfig,
    SectorConfig,
    build_baseline,
    build_fading,
    build_neutralized,
    build_sectorized,
    build_thresholded,
    colluding_msr,
    effective_eaves,
    msr_link,
    nearest_distances,
    secure_range_thresholded,
)
from .stable import StableParams, cdf_normalized, mellin_neg_moment, sample as sample_stable

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "backend_name",
    # geometry and randomness
    "PointSet",
    "Rng",
    "sample_disk",
    "sample_nearest_distance",
    # propagation
    "FadingModel",
    "GainModel",
    "gain",
    "sample_fading",
    # graph construction
    "ISGraph",
    "NetworkConfig",
    "NeutralizationConfig",
    "SectorConfig",
    "build_baseline",
    "build_fading",
    "build_neutralized",
    "build_sectorized",
    "build_thresholded",
    "colluding_msr",
    "effective_eaves",
    "msr_link",
    "nearest_distances",
    "secure_range_thresholded",
    # closed forms
    "DegreePmf",
    "TABLE_VORONOI_MOMENTS",
    "VoronoiMoments",
    "c_alpha",
    "cdf_msr_colluding",
    "cdf_msr_neighbor",
    "cdf_msr_noncolluding_link",
    "mean_degree_colluding",
    "mean_out_degree_neutralization_lb",
    "mean_out_degree_thresholded",
    "moments_in_degree",
    "p_exist_colluding",
    "p_exist_neighbor",
    "p_in_isolation_series",
    "p_out_isolation",
    "pmf_out_degree",
    "pmf_out_degree_sectored",
    "stirling2",
    "tv_distance",
    # stable law
    "StableParams",
    "cdf_normalized",
    "mellin_neg_moment",
    "sample_stable",
    # estimation
    "Estimate",
    "Sample",
    "colluding_window",
    "estimate_generic",
    "fading_window",
    "in_degree_window",
    "neutralization_window",
]
