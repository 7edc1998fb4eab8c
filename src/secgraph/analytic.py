"""Closed-form and quadrature-based predictions for the secrecy graph.

Everything here is a deterministic function of the configuration: degree
PMFs and moments, isolation probabilities, threshold/noise degradation of
the mean degree, the neutralization lower bound, secrecy-rate CDFs to the
i-th neighbor, and the colluding-adversary results built on the one-sided
stable law.  The Monte Carlo harness estimates the same quantities; tests
compare the two routes.

The thresholded-degree integral runs to relative 1e-7 alone, in log u up to
u = 1, so that its knee, which sparse eavesdroppers push to tiny u, is
resolved wherever it lies.  The neighbour secrecy-rate CDF runs to absolute
1e-9, relative 1e-7, over the Gamma quantile of the neighbour's distance, a
finite interval.  Mean-degree functions return math.inf when
lambda_e = 0 rather than raising: the ratio lambda_l/lambda_e is the
natural scale of every degree result and has no finite value there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import stable
from .secrecy import NetworkConfig

__all__ = [
    "VoronoiMoments",
    "DegreePmf",
    "TABLE_VORONOI_MOMENTS",
    "stirling2",
    "pmf_out_degree",
    "pmf_out_degree_sectored",
    "moments_in_degree",
    "p_out_isolation",
    "p_in_isolation_series",
    "mean_out_degree_thresholded",
    "mean_out_degree_neutralization_lb",
    "cdf_msr_neighbor",
    "p_exist_neighbor",
    "c_alpha",
    "cdf_msr_colluding",
    "cdf_msr_noncolluding_link",
    "p_exist_colluding",
    "mean_degree_colluding",
    "tv_distance",
]

_ABS_TOL = 1e-9
_REL_TOL = 1e-7


@dataclass(frozen=True)
class VoronoiMoments:
    """Moments E{A^k}, k = 1..K, of the typical unit-density Voronoi cell area.

    source records where the numbers came from: "table" for the published
    reference values, "simulated" for harness re-estimates.  The first
    moment is exactly 1 for the table (the typical cell has unit mean area);
    simulated values carry sampling noise and are not forced to 1.
    """

    moments: tuple
    source: str = "table"

    def __post_init__(self) -> None:
        if len(self.moments) == 0:
            raise ValueError("at least one moment required")
        if any(not (math.isfinite(m) and m > 0) for m in self.moments):
            raise ValueError("moments must be finite and > 0")
        if self.source not in ("table", "simulated"):
            raise ValueError(f"source must be 'table' or 'simulated', got {self.source!r}")
        if self.source == "table" and self.moments[0] != 1.0:
            raise ValueError("table moments must have E{A} = 1 exactly")

    def __len__(self) -> int:
        return len(self.moments)


TABLE_VORONOI_MOMENTS = VoronoiMoments((1.0, 1.280, 1.993, 3.650), source="table")


@dataclass(frozen=True)
class DegreePmf:
    """PMF over degrees 0..len-1; nonnegative, sums to 1 within 1e-12."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.ascontiguousarray(self.probs, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probs must be a nonempty 1-d array")
        if np.any(p < 0) or not np.all(np.isfinite(p)):
            raise ValueError("probabilities must be finite and >= 0")
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()}, not 1")
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    @property
    def support(self) -> np.ndarray:
        return np.arange(len(self.probs))

    def mean(self) -> float:
        return float(np.dot(self.support, self.probs))

    def moment(self, order: int) -> float:
        return float(np.dot(self.support.astype(np.float64) ** order, self.probs))


def tv_distance(pmf: DegreePmf, analytic_pmf) -> float:
    """Total variation distance between an empirical PMF and an analytic one.

    analytic_pmf is a callable n -> probability with support on all n >= 0;
    the mass it places beyond the empirical support enters as one lump
    (the empirical PMF is zero there).
    """
    n = len(pmf.probs)
    a = np.array([analytic_pmf(k) for k in range(n)])
    tail = max(1.0 - float(a.sum()), 0.0)
    return 0.5 * (float(np.abs(pmf.probs - a).sum()) + tail)


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, S(n, k), by the standard recurrence."""
    if not (isinstance(n, int) and isinstance(k, int)):
        raise ValueError("n and k must be integers")
    if not (1 <= k <= n <= 64):
        raise ValueError(f"need 1 <= k <= n <= 64, got n={n}, k={k}")
    if k == 1 or k == n:
        return 1
    return stirling2(n - 1, k - 1) + k * stirling2(n - 1, k)


def _check_densities(lambda_l: float, lambda_e: float) -> None:
    if not (math.isfinite(lambda_l) and lambda_l > 0):
        raise ValueError(f"lambda_l must be > 0, got {lambda_l}")
    if not (math.isfinite(lambda_e) and lambda_e >= 0):
        raise ValueError(f"lambda_e must be >= 0, got {lambda_e}")


def _degrees(n) -> np.ndarray:
    """n as a float array, each element checked to be a nonnegative integer."""
    k = np.asarray(n, dtype=np.float64)
    if not np.all((k >= 0) & (k == np.floor(k)) & np.isfinite(k)):
        raise ValueError(f"degree must be a nonnegative integer, got {n}")
    return k


def pmf_out_degree(n, lambda_l: float, lambda_e: float):
    """Geometric out-degree law p^n (1-p), p = lambda_l/(lambda_l+lambda_e).

    n may be a degree (returns a float) or an array of degrees (returns an
    array of its shape)."""
    _check_densities(lambda_l, lambda_e)
    if lambda_e <= 0:
        raise ValueError("out-degree PMF needs lambda_e > 0")
    k = _degrees(n)
    p = lambda_l / (lambda_l + lambda_e)
    out = p**k * (1.0 - p)
    return float(out) if out.ndim == 0 else out


# Terms of the log1p sum that pmf_out_degree_sectored adds at most.  Past
# them Stirling's series is at least as accurate against a 30-digit
# reference (3e-14 relative at L = 33, 4e-12 against the sum's 5e-11 at
# L = 3001, lambda_e/lambda_l 0.1) and costs O(1) per degree.
_SECTORED_SUM_TERMS = 32


def _stirling_tail(x):
    """log x! - (x + 1/2) log x + x - log(2 pi)/2 by four terms of its
    asymptotic series, within 2e-17 for x > _SECTORED_SUM_TERMS."""
    x2 = x * x
    return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - 1.0 / (1680.0 * x2)) / x2) / x2) / x


def pmf_out_degree_sectored(n, L: int, lambda_l: float, lambda_e: float):
    """Negative binomial out-degree law under L sectors: C(L+n-1, L-1) p^n (1-p)^L.

    Evaluated in log space; overflows for large L+n otherwise.  With
    m = min(n, L-1) and M = max(n, L-1), log C is the sum over j = 1..m of
    log1p(M/j), which has no cancellation (a difference of log-gammas of
    size L+n loses their magnitude times the machine epsilon, 4e-12
    relative at n = 2000).  Past _SECTORED_SUM_TERMS terms it is Stirling's
    form m log1p(M/m) + M log1p(m/M) + log((m+M)/(2 pi m M))/2 plus the
    series tails, whose terms do not cancel either, so a table of N degrees
    costs O(N) at any L.  n may be a degree (returns a float) or an array of
    degrees (returns an array of its shape).
    """
    _check_densities(lambda_l, lambda_e)
    if lambda_e <= 0:
        raise ValueError("sectored PMF needs lambda_e > 0")
    if not (isinstance(L, int) and L >= 1):
        raise ValueError(f"sector count must be an integer >= 1, got {L}")
    k = _degrees(n)
    p = lambda_l / (lambda_l + lambda_e)
    terms, big = np.minimum(k, L - 1).ravel(), np.maximum(k, L - 1).ravel()
    logc = np.empty_like(terms)
    summed = terms <= _SECTORED_SUM_TERMS
    m, M = terms[summed], big[summed]
    acc = np.zeros_like(m)
    for j in range(1, int(m.max(initial=0)) + 1):
        acc += np.where(j <= m, np.log1p(M / j), 0.0)
    logc[summed] = acc
    m, M = terms[~summed], big[~summed]
    s = m + M
    logc[~summed] = (
        m * np.log1p(M / m)
        + M * np.log1p(m / M)
        + 0.5 * np.log(s / (2.0 * math.pi * m * M))
        + _stirling_tail(s)
        - _stirling_tail(m)
        - _stirling_tail(M)
    )
    out = np.exp(logc.reshape(k.shape) + k * math.log(p) + L * math.log1p(-p))
    return float(out) if out.ndim == 0 else out


def moments_in_degree(order: int, ratio: float, vm: VoronoiMoments) -> float:
    """E{N_in^order} from the cell-area moments: sum_k ratio^k S(order,k) E{A^k}."""
    if not (isinstance(order, int) and order >= 1):
        raise ValueError(f"order must be an integer >= 1, got {order}")
    if order > len(vm):
        raise ValueError(f"order {order} needs {order} area moments, only {len(vm)} supplied")
    if not (math.isfinite(ratio) and ratio >= 0):
        raise ValueError(f"ratio must be >= 0, got {ratio}")
    return float(sum(ratio**k * stirling2(order, k) * vm.moments[k - 1] for k in range(1, order + 1)))


def p_out_isolation(lambda_l: float, lambda_e: float) -> float:
    """Probability a typical node can transmit to nobody: lambda_e/(lambda_l+lambda_e)."""
    _check_densities(lambda_l, lambda_e)
    return lambda_e / (lambda_l + lambda_e)


def p_in_isolation_series(ratio: float, vm: VoronoiMoments):
    """Moment-series route to the in-isolation probability.

    E{exp(-c A)} = sum_k (-c)^k E{A^k} / k! with c = ratio; the sum stops
    when a term drops below 1e-12 in magnitude or the supplied moments run
    out.  Returns (value, converged).  With only a handful of moments the
    series converges only for small ratios; converged=False says the
    truncation stopped at the moment list, not at the tolerance.
    """
    if not (math.isfinite(ratio) and ratio >= 0):
        raise ValueError(f"ratio must be >= 0, got {ratio}")
    total = 1.0
    converged = ratio == 0.0
    for k in range(1, len(vm) + 1):
        term = (-ratio) ** k / math.factorial(k) * vm.moments[k - 1]
        total += term
        if abs(term) < 1e-12:
            converged = True
            break
    return total, converged


def _quad_relative(f, a: float, b: float) -> float:
    """Integral of f from a to b (either may be infinite) to relative
    _REL_TOL alone: an absolute floor would stop a small integral early."""
    from scipy import integrate

    out = integrate.quad(f, a, b, epsabs=0.0, epsrel=_REL_TOL, limit=200, full_output=1)
    val, err = out[0], out[1]
    if len(out) > 3:
        raise RuntimeError(f"quadrature did not converge: {out[3]}")
    if err > _REL_TOL * abs(val) * 50.0:
        raise RuntimeError(f"quadrature error estimate {err:.2e} too large for value {val:.6e}")
    return val


def mean_out_degree_thresholded(cfg: NetworkConfig):
    """Mean secure out-degree under threshold rho and unequal noise, with its bound.

    Returns (exact, bound).  The exact value integrates the secure-range map
    against the nearest-eavesdropper law,

        pi^2 lambda_l lambda_e Int_0^inf x e^(-pi lambda_e x) / D(x)^(1/b) dx,
        D(x) = (sigma2_l/sigma2_e) 2^rho + (sigma2_l/P_l)(2^rho - 1) x^b,

    computed after normalizing u = pi lambda_e x; the bound is the Jensen
    substitution x -> E{x} and always dominates.  lambda_e = 0 gives
    (inf, inf).
    """
    if cfg.gain.kind != "unbounded":
        raise ValueError("thresholded mean degree requires the unbounded gain model")
    if cfg.lambda_e == 0:
        return math.inf, math.inf
    b = cfg.gain.b
    a_const = cfg.sigma2_l / cfg.sigma2_e * 2.0**cfg.rho
    b_const = cfg.sigma2_l / cfg.p_l * (2.0**cfg.rho - 1.0)
    pe = math.pi * cfg.lambda_e
    ratio = cfg.lambda_l / cfg.lambda_e

    def f(u: float) -> float:
        return u * math.exp(-u) / (a_const + b_const * (u / pe) ** b) ** (1.0 / b)

    def f_log(s: float) -> float:  # f(u) du with u = e^s
        u = math.exp(s)
        return f(u) * u

    # Below the knee u0 = pi lambda_e (A/B)^(1/b), where the two terms of D
    # meet, f grows like u; above it f is flat until exp(-u) takes over.  At
    # small lambda_e the knee lies decades below 1, and QUADPACK in u, even
    # split at u0, misjudged its error there and left relative errors up to
    # 1e-5; in log u the knee is a smooth bend wherever it lies.
    exact = ratio * (_quad_relative(f_log, -np.inf, 0.0) + _quad_relative(f, 1.0, np.inf))
    bound = ratio / (a_const + b_const / pe**b) ** (1.0 / b)
    return exact, bound


def mean_out_degree_neutralization_lb(rho_n: float, lambda_l: float, lambda_e: float) -> float:
    """Lower bound on the mean degree with guard radius rho_n:
    (lambda_l/lambda_e)(pi lambda_e rho_n^2 + exp(pi lambda_l rho_n^2))."""
    _check_densities(lambda_l, lambda_e)
    if not (math.isfinite(rho_n) and rho_n >= 0):
        raise ValueError(f"rho_n must be >= 0, got {rho_n}")
    if lambda_e == 0:
        return math.inf
    r2 = rho_n * rho_n
    return lambda_l / lambda_e * (math.pi * lambda_e * r2 + math.exp(math.pi * lambda_l * r2))


def _neighbor_survival(u, rho, i: int, cfg: NetworkConfig):
    """Probability that no eavesdropper holds the rate to the i-th neighbour
    below rho, at the neighbour's distance quantile u.

    x = pi lambda_l r_l^2 is Gamma(i, 1), and u = P(i, x) its CDF.  The
    eavesdropper's SNR threshold g_e = (1 + g_l) 2^(-rho) - 1 is formed as
    expm1(log1p(g_l) - rho ln 2), exact at rho = 0 where g_e = g_l.
    """
    from scipy.special import gammaincinv

    b = cfg.gain.b
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        x = gammaincinv(i, u)
        log_gl = math.log(cfg.p_l / cfg.sigma2_l) + b * (math.log(math.pi * cfg.lambda_l) - np.log(x))
        g_e = np.expm1(np.logaddexp(0.0, log_gl) - rho * math.log(2.0))
        out = np.exp(-math.pi * cfg.lambda_e * (cfg.p_l / cfg.sigma2_e / g_e) ** (1.0 / b))
    return np.where((g_e > 0) & np.isfinite(out), out, 0.0)


def cdf_msr_neighbor(rho, i: int, cfg: NetworkConfig):
    """CDF of the secrecy rate to the i-th nearest legitimate node.

    One minus the probability that the rate exceeds rho: the expectation,
    over the neighbour's distance, that every eavesdropper is far enough.
    The distance enters as x = pi lambda_l r_l^2 ~ Gamma(i, 1), integrated
    through its CDF u = P(i, x), so the integrand is that survival
    probability alone, bounded and monotone in u on (0, P(i, x_max)), with
    x_max the distance beyond which the link rate stays below rho.  Any
    other map leaves a peak of relative width 1/sqrt(i) whose place moves
    with i and the SNR, which double-exponential quadrature can step over.
    rho may be a scalar or an array of rates: all of them go through one
    elementwise quadrature call.  Returns a float for a scalar and an array
    of rho's shape otherwise; rates below 0 give 0.
    """
    from scipy import integrate
    from scipy.special import gammainc

    if cfg.gain.kind != "unbounded":
        raise ValueError("neighbor MSR law requires the unbounded gain model")
    if not (isinstance(i, int) and i >= 1):
        raise ValueError(f"neighbor index must be an integer >= 1, got {i}")
    rho = np.asarray(rho, dtype=np.float64)
    if np.isnan(rho).any():
        raise ValueError("rho must not be NaN")

    r = rho[rho >= 0]
    with np.errstate(over="ignore", divide="ignore"):
        x_max = math.pi * cfg.lambda_l * (cfg.p_l / cfg.sigma2_l / np.expm1(r * math.log(2.0))) ** (1.0 / cfg.gain.b)
    # minlevel 3 (at least 131 evaluations): from the default level the error
    # estimate was 1.5x optimistic at a few rates of a 288-configuration scan
    res = integrate.tanhsinh(
        lambda u, r: _neighbor_survival(u, r, i, cfg), 0.0, gammainc(i, x_max), args=(r,),
        atol=_ABS_TOL, rtol=_REL_TOL, minlevel=3,
    )
    if not np.all(res.success):
        raise RuntimeError(f"neighbor MSR quadrature failed: status {res.status}")
    out = np.zeros(rho.shape)
    out[rho >= 0] = np.clip(1.0 - res.integral, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def p_exist_neighbor(i: int, lambda_l: float, lambda_e: float) -> float:
    """P{positive secrecy rate to the i-th neighbor} = (lambda_l/(lambda_l+lambda_e))^i."""
    _check_densities(lambda_l, lambda_e)
    if not (isinstance(i, int) and i >= 1):
        raise ValueError(f"neighbor index must be an integer >= 1, got {i}")
    return (lambda_l / (lambda_l + lambda_e)) ** i


def c_alpha(alpha: float) -> float:
    """Normalization constant (1-alpha)/(Gamma(2-alpha) cos(pi alpha/2)) of the
    one-sided stable law with exponent alpha in (0, 1)."""
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return (1.0 - alpha) / (math.gamma(2.0 - alpha) * math.cos(math.pi * alpha / 2.0))


def _link_snr(r_l: float, cfg: NetworkConfig) -> float:
    """SNR of a link at distance r_l under the unbounded gain with b > 1."""
    if cfg.gain.kind != "unbounded":
        raise ValueError("colluding analysis requires the unbounded gain model")
    b = cfg.gain.b
    if b <= 1.0:
        raise ValueError(f"aggregate eavesdropper power diverges for b <= 1 (got b={b})")
    if not (math.isfinite(r_l) and r_l > 0):
        raise ValueError(f"link distance must be > 0, got {r_l}")
    return cfg.p_l / (r_l ** (2.0 * b) * cfg.sigma2_l)


def _link_cdf(rho, r_l: float, cfg: NetworkConfig, eaves_cdf):
    """Secrecy-rate CDF of a link at distance r_l, for a scalar or array rho:
    0 below 0, 1 from the capacity log2(1 + snr_l) up, and in between
    1 - eaves_cdf(tau) at the eavesdropper SNR tau = (1 + snr_l) 2^(-rho) - 1
    that leaves the link the rate rho (0 when lambda_e = 0).

    Both are formed from log1p(snr_l), and tau as expm1(log1p(snr_l) -
    rho ln 2), so that they keep their relative accuracy at small SNR, where
    1 + snr_l rounds away most of snr_l.  Just below the capacity tau may
    still round to 0 or below, where eaves_cdf must return 0."""
    snr_l = _link_snr(r_l, cfg)
    rho = np.asarray(rho, dtype=np.float64)
    if np.isnan(rho).any():
        raise ValueError("rho must not be NaN")
    log_gain = math.log1p(snr_l)
    cap = log_gain / math.log(2.0)
    out = np.where(rho >= cap, 1.0, 0.0)
    inside = (rho >= 0) & (rho < cap)
    if cfg.lambda_e > 0:
        out[inside] = 1.0 - eaves_cdf(np.expm1(log_gain - rho[inside] * math.log(2.0)))
    return float(out) if out.ndim == 0 else out


def _colluding_snr_cdf(tau, cfg: NetworkConfig):
    """CDF of the aggregate eavesdropper SNR (lambda_e > 0): a one-sided
    stable law, alpha = 1/b, with scale (pi lambda_e / C_alpha)^b P_l / sigma2_e."""
    b = cfg.gain.b
    scale = (math.pi * cfg.lambda_e / c_alpha(1.0 / b)) ** b * cfg.p_l / cfg.sigma2_e
    # a ratio past the float range is +inf, where the CDF is 1
    with np.errstate(over="ignore"):
        x = tau / scale
    return stable.cdf_normalized(x, 1.0 / b)


def cdf_msr_colluding(rho, r_l: float, cfg: NetworkConfig):
    """CDF of the secrecy rate of one link against colluding eavesdroppers,
    whose aggregate SNR is a scaled one-sided stable variable, alpha = 1/b.
    Zero below 0, one at and above the legitimate capacity; rho may be a
    scalar (returns a float) or an array (returns an array of its shape)."""
    return _link_cdf(rho, r_l, cfg, lambda tau: _colluding_snr_cdf(tau, cfg))


def cdf_msr_noncolluding_link(rho, r_l: float, cfg: NetworkConfig):
    """CDF of the same link's secrecy rate when only the nearest eavesdropper
    counts: its SNR stays below tau when no eavesdropper lies within
    (P_l / (sigma2_e tau))^(1/(2b)).  rho may be a scalar or an array."""

    def nearest_cdf(tau):
        # an SNR is positive, so it stays below tau <= 0 with probability 0
        out = np.zeros_like(tau)
        pos = tau > 0
        out[pos] = np.exp(-math.pi * cfg.lambda_e * (cfg.p_l / cfg.sigma2_e / tau[pos]) ** (1.0 / cfg.gain.b))
        return out

    return _link_cdf(rho, r_l, cfg, nearest_cdf)


def p_exist_colluding(r_l: float, cfg: NetworkConfig) -> float:
    """P{positive secrecy rate against colluding eavesdroppers}: the aggregate
    eavesdropper SNR stays below the link's.  The stable CDF is evaluated
    directly, not as a complement, so a small probability keeps its relative
    accuracy."""
    snr_l = _link_snr(r_l, cfg)
    return float(_colluding_snr_cdf(snr_l, cfg)) if cfg.lambda_e > 0 else 1.0


def mean_degree_colluding(cfg: NetworkConfig) -> float:
    """Mean secure degree against colluding eavesdroppers:
    (lambda_l/lambda_e) sinc(1/b) (sigma2_e/sigma2_l)^(1/b).

    The secure radius is r^2 = (P_l sigma2_e / (sigma2_l P_agg))^(1/b), so
    the transmit power cancels and the noise ratio scales the mean.  b = 1
    returns 0 (the degradation factor vanishes); b < 1 is an error (the
    aggregate power diverges).  lambda_e = 0 gives inf.
    """
    if cfg.gain.kind != "unbounded":
        raise ValueError("colluding mean degree requires the unbounded gain model")
    b = cfg.gain.b
    if b < 1.0:
        raise ValueError(f"b must be >= 1, got {b}")
    if cfg.lambda_e == 0:
        return math.inf
    if b == 1.0:
        return 0.0
    return cfg.ratio * float(np.sinc(1.0 / b)) * (cfg.sigma2_e / cfg.sigma2_l) ** (1.0 / b)
