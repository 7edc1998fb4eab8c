"""Repeated-realization estimators for every quantity the analytic module predicts.

estimate_generic(kind, cfg, trials, rng, threads, **params) draws one outcome
per trial and returns them as a Sample; its mean(), pmf() and ecdf(grid) are
the estimates.  Sampler design notes, per kind:

  out_degree         no fading: exact in the distance domain.  The nearest
                     eavesdropper's squared distance is Exp(1/(pi lambda_e));
                     given it, the secure count is Poisson(lambda_l pi R^2).
                     No window, no truncation bias.  With fading the graph
                     predicate is simulated spatially inside a window sized
                     by the fading tail (recorded in bias_note).
  in_degree          legitimate points in a disk of radius W, eavesdroppers
                     in 2W: every eavesdropper that could capture a counted
                     point lies within twice that point's radius, so the
                     only bias is legitimate points beyond W, bounded by
                     (lambda_l/lambda_e) exp(-lambda_e pi W^2).
  voronoi_area       typical unit-density cell by clipping against sorted
                     candidates; when a cell fails the safety condition (max
                     vertex radius under half the window) the same
                     realization is extended with a fresh annulus, which
                     preserves the Poisson law and keeps the estimator
                     unbiased.  Ignores cfg.
  thresholded_degree exact: the secure range is a deterministic map of the
                     nearest-eavesdropper distance, so count draws stay in
                     the distance domain.
  sector_degree      sectors are independent wedges: per sector the nearest
                     eavesdropper's squared distance is Exp at rate
                     pi lambda_e / L and the secure count Poisson on the
                     wedge.  Exact.
  neutralized_degree spatial: survivors of the guard-disk filter determine
                     the effective nearest eavesdropper.  Survivors have
                     density lambda_eff = lambda_e exp(-pi lambda_l rho_n^2),
                     so the eavesdropper window starts at area
                     c / lambda_eff (c expected survivors, radius at least
                     2 rho_n) and legitimate points fill it plus rho_n; the
                     origin neutralizes but is not counted.  Without a
                     survivor the window grows by an annulus (radius x1.5):
                     only the annulus's eavesdroppers are filtered, against
                     the legitimate points within rho_n of it, because a
                     neutralized eavesdropper stays neutralized.  No
                     truncation; bias_note counts the growths.  Cheap trials
                     share one filtering call per round, each shifted to its
                     own lattice cell.  At rho_n = 0 it is the exact
                     out_degree draw.
  neighbor_msr       exact: secrecy rate to the i-th nearest legitimate
                     node against the nearest eavesdropper.
  colluding_*        aggregate power summed inside a window plus the
                     deterministic mean of the truncated tail,
                     2 pi lambda_e P_l W^(2-2b)/(2b-2); colluding_msr and
                     colluding_degree map it to a secrecy rate at distance
                     r_l and to a secure count.

Reproducibility: trials are partitioned into fixed-size blocks, each block
seeded by its own substream of rng, and outcomes are concatenated in block
order.  Thread count changes only which worker executes a block, never the
numbers.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import analytic
from .analytic import DegreePmf
from .kernels import cell_area, count_in_cell, neutral_survivors
from .pointprocess import Rng
from .propagation import FadingModel, gain, sample_fading
from .secrecy import NetworkConfig, msr_link, secure_range_thresholded

__all__ = [
    "Estimate",
    "Sample",
    "estimate_generic",
    "in_degree_window",
    "colluding_window",
    "fading_window",
    "neutralization_window",
]

_BLOCK = 256


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo estimate: value, standard error, trial count, audit note."""

    value: float
    std_error: float
    trials: int
    bias_note: str | None = None

    def __post_init__(self) -> None:
        if not self.std_error >= 0:
            raise ValueError(f"std_error must be >= 0, got {self.std_error}")
        if not self.trials >= 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")


@dataclass(frozen=True)
class Sample:
    """One outcome per trial, in trial order, with the sampler's audit note."""

    values: np.ndarray
    bias_note: str | None = None

    def mean(self) -> Estimate:
        """Sample mean with its standard error.  Integer and boolean outcomes
        sum exactly, so the result does not depend on how trials were split."""
        n = len(self.values)
        s = float(np.sum(self.values))
        s2 = float(np.sum(self.values * self.values))
        var = max(s2 - s * s / n, 0.0) / (n - 1) if n > 1 else 0.0
        return Estimate(value=s / n, std_error=math.sqrt(var / n), trials=n, bias_note=self.bias_note)

    def pmf(self) -> DegreePmf:
        """Empirical PMF of nonnegative integer outcomes."""
        return DegreePmf(np.bincount(self.values) / float(len(self.values)))

    def ecdf(self, grid) -> tuple[np.ndarray, np.ndarray]:
        """Fraction of outcomes <= each grid point, and its binomial standard error."""
        n = len(self.values)
        counts = np.searchsorted(np.sort(self.values), np.asarray(grid, dtype=np.float64), side="right")
        vals = counts / float(n)
        return vals, np.sqrt(np.maximum(vals * (1.0 - vals), 0.0) / n)


# ---------------------------------------------------------------------------
# window sizing (first-class, auditable)


# Legitimate points an in-degree block may expect.  Each costs about 50 bytes
# at peak, so 1e7 points is half a gigabyte per thread; such a block also
# takes about 15 s, since count_in_cell is quadratic within each trial.
_IN_DEGREE_POINT_BUDGET = 1e7


def in_degree_window(lambda_l: float, lambda_e: float, bias: float = 1e-4) -> float:
    """Smallest disk radius keeping the expected count of missed legitimate
    points, (lambda_l/lambda_e) exp(-lambda_e pi W^2), below the bias target.

    Raises ValueError when a block of _BLOCK trials would expect more
    legitimate points in the window than _IN_DEGREE_POINT_BUDGET.
    """
    if lambda_e <= 0:
        raise ValueError("in-degree window needs lambda_e > 0")
    ratio = lambda_l / lambda_e
    if ratio <= bias:
        w2 = 1.0 / (math.pi * lambda_e)
    else:
        w2 = math.log(ratio / bias) / (math.pi * lambda_e)
    expected = _BLOCK * lambda_l * math.pi * w2
    if expected > _IN_DEGREE_POINT_BUDGET:
        raise ValueError(
            f"in-degree window at lambda_l {lambda_l}, lambda_e {lambda_e} needs about {expected:.3g} "
            f"legitimate points per {_BLOCK}-trial block, over the budget of {_IN_DEGREE_POINT_BUDGET:.3g}"
        )
    return math.sqrt(w2)


def colluding_window(cfg: NetworkConfig, rel_std: float = 1e-3) -> float:
    """Window radius for the aggregate eavesdropper power.

    The mean of the truncated tail is added back deterministically, so the
    residual error is the tail's fluctuation.  Its standard deviation,
    P_l sqrt(2 pi lambda_e W^(2-4b)/(4b-2)), is kept below rel_std times the
    scale gamma^(1/alpha) = (pi lambda_e / C_(1/b))^b P_l of the limiting
    stable law.  (The raw in-window mean diverges as the window grows for
    any b, so it cannot serve as the reference.)
    """
    b = cfg.gain.b
    if b <= 1.0:
        raise ValueError(f"aggregate eavesdropper power diverges for b <= 1 (got b={b})")
    if cfg.lambda_e <= 0:
        raise ValueError("colluding window needs lambda_e > 0")
    scale = (math.pi * cfg.lambda_e / analytic.c_alpha(1.0 / b)) ** b * cfg.p_l
    var_coeff = 2.0 * math.pi * cfg.lambda_e * cfg.p_l**2 / (4.0 * b - 2.0)
    # std_tail(W) = sqrt(var_coeff) * W^(1-2b)  <=  rel_std * scale
    w = (rel_std * scale / math.sqrt(var_coeff)) ** (1.0 / (1.0 - 2.0 * b))
    return max(w, 2.0 / math.sqrt(math.pi * cfg.lambda_e))


_FADING_WINDOW_MULT = {"none": 4.0, "nakagami": 6.0, "lognormal": 8.0, "nakagami_lognormal": 8.0}


def fading_window(fading: FadingModel, lambda_e: float) -> float:
    """Disk radius for the spatial out-degree route under fading.

    Scaled to the nearest-eavesdropper distance 1/sqrt(lambda_e); the
    multiplier grows with the heaviness of the propagation-effect upper
    tail (lognormal needs the most room).
    """
    if lambda_e <= 0:
        raise ValueError("fading window needs lambda_e > 0")
    return _FADING_WINDOW_MULT[fading.kind] / math.sqrt(lambda_e)


# Expected surviving eavesdroppers in the start window, chosen by timing the
# acceptance grid.  Its time goes to the legitimate points sampled at
# rho_n = 1.5, which are fewest for 0.35-0.5; 1 cost 7% more and 1.5 15%
# more, and starts below 0.35 add filtering rounds without saving points.
_NEUTRAL_START_SURVIVORS = 0.5
_NEUTRAL_GROWTH = 1.5
# Legitimate points a start window may expect.  Each costs about 200 bytes
# at peak, and a grown window holds 2.25x as many, so 1e6 points is about
# half a gigabyte per thread and seconds per trial.
_NEUTRAL_POINT_BUDGET = 1e6
# Expected legitimate points per neutral_survivors call: trials are filtered
# together up to this many, which spreads the call's fixed cost over many
# cheap trials while a costly trial still gets a call of its own.
_NEUTRAL_CALL_POINTS = 2e4


def neutralization_window(cfg: NetworkConfig, rho_n: float) -> float:
    """Start radius of the eavesdropper window under guard radius rho_n.

    Its area holds _NEUTRAL_START_SURVIVORS expected survivors at the
    survivor density lambda_e exp(-pi lambda_l rho_n^2), and the radius is at
    least 2 rho_n, so the origin's guard disk never reaches a grown annulus.
    Raises ValueError when the start window (plus rho_n) would hold more
    expected legitimate points than _NEUTRAL_POINT_BUDGET.
    """
    if not (math.isfinite(rho_n) and rho_n > 0):
        raise ValueError(f"guard radius must be finite and > 0, got {rho_n}")
    if cfg.lambda_e <= 0:
        raise ValueError("neutralization window needs lambda_e > 0")
    lam_eff = cfg.lambda_e * math.exp(-cfg.lambda_l * math.pi * rho_n * rho_n)
    w0 = math.sqrt(_NEUTRAL_START_SURVIVORS / (math.pi * lam_eff)) if lam_eff > 0 else math.inf
    w0 = max(2.0 * rho_n, w0)
    expected = cfg.lambda_l * math.pi * (w0 + rho_n) ** 2
    if expected > _NEUTRAL_POINT_BUDGET:
        raise ValueError(
            f"guard radius {rho_n} at lambda_l {cfg.lambda_l}, lambda_e {cfg.lambda_e} needs about "
            f"{expected:.3g} legitimate points per trial, over the budget of {_NEUTRAL_POINT_BUDGET:.3g}"
        )
    return w0


# ---------------------------------------------------------------------------
# block harness


def _blocks(trials: int) -> list[tuple[int, int]]:
    out = []
    start = 0
    idx = 0
    while start < trials:
        n = min(_BLOCK, trials - start)
        out.append((idx, n))
        start += n
        idx += 1
    return out


def _run_blocks(trials: int, root: Rng, threads: int, block_fn):
    """Run block_fn(block_rng, block_size) over fixed-size trial blocks.

    Results come back in block order regardless of thread count; block_fn
    must derive all randomness from the Rng it is handed.
    """
    plan = _blocks(trials)
    if threads <= 1:
        return [block_fn(root.substream(i), n) for i, n in plan]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(block_fn, root.substream(i), n) for i, n in plan]
        return [f.result() for f in futures]


# ---------------------------------------------------------------------------
# samplers: sampler(cfg, run, **params) -> Sample, where run(block_fn) runs
# block_fn over the trial blocks and returns the block results in order


def _baseline_out_degree(cfg: NetworkConfig, run) -> Sample:
    """Out-degrees of typical nodes of the baseline graph: the squared
    nearest-eavesdropper distance R^2 ~ Exp(mean 1/(pi lambda_e)), then
    Poisson(pi lambda_l R^2) legitimate points inside it."""
    if cfg.lambda_e <= 0:
        raise ValueError("out-degree estimation needs lambda_e > 0")

    def block(rng: Rng, n: int):
        g = rng.generator()
        re2 = g.exponential(scale=1.0 / (math.pi * cfg.lambda_e), size=n)
        return g.poisson(lam=cfg.lambda_l * math.pi * re2)

    return Sample(np.concatenate(run(block)), "exact distance-domain sampling, no truncation")


def _out_degree(cfg: NetworkConfig, run) -> Sample:
    if cfg.fading.kind == "none":
        return _baseline_out_degree(cfg, run)
    w = fading_window(cfg.fading, cfg.lambda_e)

    def block(rng: Rng, n: int):
        g = rng.generator()
        nl = g.poisson(cfg.lambda_l * math.pi * w * w, size=n)
        ne = g.poisson(cfg.lambda_e * math.pi * w * w, size=n)
        tl, te = int(nl.sum()), int(ne.sum())
        rl = w * np.sqrt(g.random(tl))
        re = w * np.sqrt(g.random(te))
        zl = sample_fading(cfg.fading, rng.substream(1), size=tl)
        ze = sample_fading(cfg.fading, rng.substream(2), size=te)
        gl = gain(cfg.gain, rl, zl)
        ge = gain(cfg.gain, re, ze)
        seg_l = np.repeat(np.arange(n), nl)
        seg_e = np.repeat(np.arange(n), ne)
        best = np.zeros(n)
        np.maximum.at(best, seg_e, ge)
        hits = gl > best[seg_l]
        return np.bincount(seg_l[hits], minlength=n)

    note = f"spatial window radius {w:.3g} sized for {cfg.fading.kind} tails"
    return Sample(np.concatenate(run(block)), note)


def _disk_block_draw(g, lam: float, w: float, n: int):
    """Counts and squared radii plus angles for n disk realizations."""
    counts = g.poisson(lam * math.pi * w * w, size=n)
    total = int(counts.sum())
    r = w * np.sqrt(g.random(total))
    theta = g.uniform(0.0, 2.0 * math.pi, total)
    return counts, r, theta


def _in_degree(cfg: NetworkConfig, run) -> Sample:
    if cfg.lambda_e <= 0:
        raise ValueError("in-degree estimation needs lambda_e > 0")
    w = in_degree_window(cfg.lambda_l, cfg.lambda_e)

    def block(rng: Rng, n: int):
        g = rng.generator()
        nl, rl, thl = _disk_block_draw(g, cfg.lambda_l, w, n)
        ne, re, the = _disk_block_draw(g, cfg.lambda_e, 2.0 * w, n)
        lx = rl * np.cos(thl)
        ly = rl * np.sin(thl)
        ex = re * np.cos(the)
        ey = re * np.sin(the)
        loff = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(nl, out=loff[1:])
        eoff = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(ne, out=eoff[1:])
        return count_in_cell(lx, ly, loff, ex, ey, eoff)

    bias = cfg.lambda_l / cfg.lambda_e * math.exp(-cfg.lambda_e * math.pi * w * w)
    return Sample(np.concatenate(run(block)), f"window radius {w:.3g}, truncation bias bound {bias:.2e}")


def _voronoi_block(rng: Rng, n: int):
    g = rng.generator()
    areas = np.empty(n)
    for t in range(n):
        w = 4.0
        cnt = g.poisson(math.pi * w * w)
        r = w * np.sqrt(g.random(cnt))
        th = g.uniform(0.0, 2.0 * math.pi, cnt)
        xs = r * np.cos(th)
        ys = r * np.sin(th)
        for _attempt in range(12):
            order = np.argsort(xs * xs + ys * ys, kind="stable")
            sx = np.ascontiguousarray(xs[order])
            sy = np.ascontiguousarray(ys[order])
            area, max_r, used, complete = cell_area(sx, sy, w / 2.0)
            if complete and max_r < w / 2.0:
                break
            # cell not provably exact: extend the same realization
            w_new = 1.5 * w
            extra = g.poisson(math.pi * (w_new * w_new - w * w))
            r2 = np.sqrt(g.random(extra) * (w_new * w_new - w * w) + w * w)
            th2 = g.uniform(0.0, 2.0 * math.pi, extra)
            xs = np.concatenate([xs, r2 * np.cos(th2)])
            ys = np.concatenate([ys, r2 * np.sin(th2)])
            w = w_new
        else:
            raise RuntimeError("typical-cell window exhausted after repeated extension")
        areas[t] = area
    return areas


def _voronoi_area(cfg, run) -> Sample:
    return Sample(np.concatenate(run(_voronoi_block)))


def _thresholded_degree(cfg: NetworkConfig, run) -> Sample:
    lam = 1.0 / (math.pi * cfg.lambda_e)
    area_rate = cfg.lambda_l * math.pi

    def block(rng: Rng, n: int):
        g = rng.generator()
        re = np.sqrt(g.exponential(scale=lam, size=n))
        psi = secure_range_thresholded(re, cfg)
        return g.poisson(lam=area_rate * psi * psi)

    return Sample(np.concatenate(run(block)), "exact distance-domain sampling")


def _sector_degree(cfg: NetworkConfig, run, L: int = 1) -> Sample:
    lam = 1.0 / (math.pi * cfg.lambda_e / L)
    wedge_rate = cfg.lambda_l * math.pi / L

    def block(rng: Rng, n: int):
        g = rng.generator()
        dmin2 = g.exponential(scale=lam, size=(n, L))
        return g.poisson(lam=wedge_rate * dmin2).sum(axis=1)

    return Sample(np.concatenate(run(block)), f"exact per-sector distance-domain sampling, L={L}")


def _annuli_draw(g, lam: float, r0: float, r1: float, trials: np.ndarray):
    """One Poisson field of density lam in r0 <= r < r1 per listed trial:
    trial index, squared radius and coordinates of every point."""
    area = r1 * r1 - r0 * r0
    seg = np.repeat(trials, g.poisson(lam * math.pi * area, size=trials.size))
    r2 = g.random(seg.size) * area + r0 * r0
    r = np.sqrt(r2)
    theta = g.uniform(0.0, 2.0 * math.pi, seg.size)
    return seg, r2, r * np.cos(theta), r * np.sin(theta)


def _neutralized_degrees(g, cfg: NetworkConfig, rho_n: float, w0: float, m: int):
    """Origin degrees of m trials under guard radius rho_n, and their window growths.

    Each round filters the trials still without a survivor in one
    neutral_survivors call, every trial shifted to its own cell of a square
    lattice spaced so that no guard disk reaches a neighbouring cell.
    """
    best = np.full(m, np.inf)  # squared distance of each trial's nearest survivor
    active = np.arange(m)
    lseg, lr2, lx, ly = _annuli_draw(g, cfg.lambda_l, 0.0, w0 + rho_n, active)
    eseg, er2, ex, ey = _annuli_draw(g, cfg.lambda_e, 0.0, w0, active)
    # the origin is itself a legitimate node: it neutralizes, but it is not
    # one of its own neighbours
    fseg = np.concatenate([lseg, active])
    fx = np.concatenate([lx, np.zeros(m)])
    fy = np.concatenate([ly, np.zeros(m)])
    we = w0
    growths = 0
    while True:
        side = math.ceil(math.sqrt(active.size))
        spacing = 2.0 * (we + 2.0 * rho_n)
        cell = np.zeros(m, dtype=np.int64)
        cell[active] = np.arange(active.size)
        cx = (cell % side) * spacing
        cy = (cell // side) * spacing
        surv = neutral_survivors(ex + cx[eseg], ey + cy[eseg], fx + cx[fseg], fy + cy[fseg], rho_n)
        np.minimum.at(best, eseg[surv], er2[surv])
        active = active[np.isinf(best[active])]
        if active.size == 0:
            break
        # Every eavesdropper so far is neutralized for good, so only a new
        # annulus needs filtering, against the legitimate points within
        # rho_n of it; we >= 2 rho_n keeps the origins out of reach.
        w_new = _NEUTRAL_GROWTH * we
        growths += active.size
        waiting = np.zeros(m, dtype=bool)
        waiting[active] = True
        eseg, er2, ex, ey = _annuli_draw(g, cfg.lambda_e, we, w_new, active)
        nseg, nr2, nx, ny = _annuli_draw(g, cfg.lambda_l, we + rho_n, w_new + rho_n, active)
        near = waiting[lseg] & (lr2 >= (we - rho_n) ** 2)
        fseg = np.concatenate([lseg[near], nseg])
        fx = np.concatenate([lx[near], nx])
        fy = np.concatenate([ly[near], ny])
        lseg = np.concatenate([lseg, nseg])
        lr2 = np.concatenate([lr2, nr2])
        lx = np.concatenate([lx, nx])
        ly = np.concatenate([ly, ny])
        we = w_new
    return np.bincount(lseg[lr2 < best[lseg]], minlength=m), growths


def _neutralized_degree(cfg: NetworkConfig, run, rho_n: float = 0.0) -> Sample:
    if rho_n == 0.0:
        return _baseline_out_degree(cfg, run)  # no guard disks: the baseline law
    w0 = neutralization_window(cfg, rho_n)
    per_trial = cfg.lambda_l * math.pi * (w0 + rho_n) ** 2
    chunk = int(min(_BLOCK, max(1.0, _NEUTRAL_CALL_POINTS / per_trial)))

    def block(rng: Rng, n: int):
        g = rng.generator()
        parts = [_neutralized_degrees(g, cfg, rho_n, w0, min(chunk, n - start)) for start in range(0, n, chunk)]
        return np.concatenate([deg for deg, _ in parts]), sum(grown for _, grown in parts)

    parts = run(block)
    degrees = np.concatenate([deg for deg, _ in parts])
    growths = sum(grown for _, grown in parts)
    note = (
        f"guard radius {rho_n}, start eavesdropper window {w0:.4g} grown by annuli "
        f"(radius x{_NEUTRAL_GROWTH}) until a survivor exists: {growths} growths in {len(degrees)} trials"
    )
    return Sample(degrees, note)


def _neighbor_msr(cfg: NetworkConfig, run, neighbor_index: int = 1) -> Sample:
    i = neighbor_index
    if not (isinstance(i, int) and i >= 1):
        raise ValueError(f"neighbor index must be an integer >= 1, got {i}")
    b = cfg.gain.b

    def block(rng: Rng, n: int):
        g = rng.generator()
        rl2 = g.gamma(shape=float(i), scale=1.0 / (math.pi * cfg.lambda_l), size=n)
        re2 = g.exponential(scale=1.0 / (math.pi * cfg.lambda_e), size=n)
        return msr_link(cfg.p_l * rl2 ** (-b), cfg.p_l * re2 ** (-b), cfg.sigma2_l, cfg.sigma2_e)

    return Sample(np.concatenate(run(block)), f"exact distance-domain sampling, neighbor {i}")


def _colluding_power_block(cfg: NetworkConfig, r_window: float | None):
    """Block of aggregate eavesdropper powers, windowed sum plus mean-tail
    correction, and its audit note."""
    w = colluding_window(cfg) if r_window is None else r_window
    b = cfg.gain.b
    if cfg.gain.kind != "unbounded" or b <= 1.0:
        raise ValueError("aggregate eavesdropper power requires unbounded gain with b > 1")
    if not (math.isfinite(w) and w > 0):
        raise ValueError(f"r_window must be positive and finite, got {w}")
    tail = 2.0 * math.pi * cfg.lambda_e * cfg.p_l * w ** (2.0 - 2.0 * b) / (2.0 * b - 2.0)

    def block(rng: Rng, n: int):
        g = rng.generator()
        ne = g.poisson(cfg.lambda_e * math.pi * w * w, size=n)
        r2 = w * w * g.random(int(ne.sum()))
        seg = np.repeat(np.arange(n), ne)
        return np.bincount(seg, weights=cfg.p_l * r2 ** (-b), minlength=n) + tail

    return block, f"window radius {w:.4g}, mean-tail correction {tail:.3e}"


def _colluding_power(cfg: NetworkConfig, run, r_window: float | None = None) -> Sample:
    block, note = _colluding_power_block(cfg, r_window)
    return Sample(np.concatenate(run(block)), note)


def _colluding_msr(cfg: NetworkConfig, run, r_l: float = 1.0, r_window: float | None = None) -> Sample:
    power_block, note = _colluding_power_block(cfg, r_window)
    prx_l = cfg.p_l * r_l ** (-2.0 * cfg.gain.b)

    def block(rng: Rng, n: int):
        return msr_link(np.full(n, prx_l), power_block(rng, n), cfg.sigma2_l, cfg.sigma2_e)

    return Sample(np.concatenate(run(block)), note)


def _colluding_degree(cfg: NetworkConfig, run, r_window: float | None = None) -> Sample:
    power_block, note = _colluding_power_block(cfg, r_window)
    # secure radius r with P_l r^(-2b)/sigma2_l > P_agg/sigma2_e
    c = cfg.p_l * cfg.sigma2_e / cfg.sigma2_l

    def block(rng: Rng, n: int):
        agg = power_block(rng.substream(0), n)
        r2 = (c / agg) ** (1.0 / cfg.gain.b)
        return rng.substream(1).generator().poisson(lam=cfg.lambda_l * math.pi * r2)

    return Sample(np.concatenate(run(block)), note)


_SAMPLERS = {
    "out_degree": _out_degree,
    "in_degree": _in_degree,
    "voronoi_area": _voronoi_area,
    "thresholded_degree": _thresholded_degree,
    "sector_degree": _sector_degree,
    "neutralized_degree": _neutralized_degree,
    "neighbor_msr": _neighbor_msr,
    "colluding_power": _colluding_power,
    "colluding_msr": _colluding_msr,
    "colluding_degree": _colluding_degree,
}


def estimate_generic(kind: str, cfg: NetworkConfig | None, trials: int, rng: Rng, threads: int = 1, **params) -> Sample:
    """Draw one outcome of the named kind per trial.

    params are the kind's own: L (sector_degree), rho_n (neutralized_degree),
    neighbor_index (neighbor_msr), r_l (colluding_msr) and r_window (the
    colluding kinds; default colluding_window(cfg)).  voronoi_area ignores cfg.
    """
    if kind not in _SAMPLERS:
        raise ValueError(f"unknown experiment kind {kind!r}; expected one of {tuple(_SAMPLERS)}")
    if not (isinstance(trials, int) and trials >= 1):
        raise ValueError(f"trials must be an integer >= 1, got {trials}")
    return _SAMPLERS[kind](cfg, partial(_run_blocks, trials, rng, threads), **params)
