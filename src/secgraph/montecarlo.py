"""Repeated-realization estimators for every quantity the analytic module predicts.

estimate_generic(kind, cfg, trials, rng, threads, **params) draws one outcome
per trial and returns them as a Sample; its mean(), pmf() and ecdf(grid) are
the estimates.  Sampler design notes, per kind:

  out_degree         no fading: the one-sector sector_degree draw, exact in
                     the distance domain, so it reads rho, p_l and the noise
                     powers.  With fading the graph predicate is simulated
                     spatially inside a window sized by the fading tail
                     (recorded in bias_note).
  in_degree          legitimate points in a disk of radius W, eavesdroppers
                     in 2W: every eavesdropper that could capture a counted
                     point lies within twice that point's radius, so the
                     only bias is legitimate points beyond W, bounded by
                     (lambda_l/lambda_e) exp(-lambda_e pi W^2).  Both fields
                     are polar draws (_annuli_draw, no trigonometry); the
                     counts of a block come from one count_in_cell call,
                     which stops testing a point once no farther
                     eavesdropper can reach it.
  voronoi_area       typical unit-density cell as the polar of the convex
                     hull of the points mapped by p -> 2p/|p|^2, every trial
                     of a 1024-trial block in one cell_area call on the
                     points within W = 3 (a polar draw); the trials whose
                     cell fails the safety condition (bounded, max vertex
                     radius under W/2), about 2% of them, have their
                     realization extended by a fresh annulus to 1.5 W and go
                     through one more call, which preserves the Poisson law
                     and keeps the estimator unbiased.  Ignores cfg.
  sector_degree      sectors are independent wedges: per sector the nearest
                     eavesdropper's squared distance is Exp at rate
                     pi lambda_e / L and the secure count Poisson on the
                     wedge; given the distances those counts are
                     independent, so a trial draws one Poisson of their
                     summed mean.  Exact.  With one sector, a threshold
                     rho > 0 or unequal noise maps that distance to the
                     secure range (secure_range_thresholded), a
                     deterministic map, so the draw stays exact; with L > 1
                     both are refused.
  neutralized_degree spatial: survivors of the guard-disk filter determine
                     the effective nearest eavesdropper.  Survivors have
                     density lambda_eff = lambda_e exp(-pi lambda_l rho_n^2),
                     so the eavesdropper window starts at area
                     c / lambda_eff (c expected survivors, radius at least
                     2 rho_n) and legitimate points fill it plus rho_n; the
                     origin neutralizes but is not counted.  Without a
                     survivor the window grows by an annulus (radius times
                     _NEUTRAL_GROWTH): only the annulus's eavesdroppers are
                     filtered, against the legitimate points within rho_n
                     of it, because a neutralized eavesdropper stays
                     neutralized.  No truncation; bias_note counts the
                     growths.  Windows and annuli are polar draws.  A block
                     is one filtering call per round, each trial shifted
                     along x to its own slot of a one-row lattice.  At
                     rho_n = 0 it is the exact one-sector draw.
  neighbor_msr       exact: secrecy rate to the i-th nearest legitimate
                     node against the nearest eavesdropper.
  colluding_*        aggregate power summed inside a window plus the
                     deterministic mean of the truncated tail,
                     2 pi lambda_e P_l W^(2-2b)/(2b-2); colluding_degree maps
                     it to a secure count.  (A link's secrecy rate is a
                     deterministic map of it, msr_link, which callers apply
                     to the colluding_power sample.)  A block draws all its
                     eavesdroppers in one array, where each trial's are one
                     contiguous run; their powers are computed in place, by
                     one log and one exp each, and each run is summed where
                     it lies (np.add.reduceat).

Each kind refuses, with a ValueError that names the field, the config fields
its law does not model, rather than ignoring them: fading in every kind but
out_degree (voronoi_area reads no cfg); a threshold or unequal noise powers
in in_degree, in neutralized_degree at rho_n > 0 and in out_degree with
fading; a threshold in colluding_degree.

Reproducibility: trials are partitioned into blocks, each block seeded by
its own substream of rng, and outcomes are concatenated in block order.  A
block holds 256 trials, except in the samplers that name their expected
array elements per trial (draws): the distance-domain sector and
neighbour-rate draws and the colluding kinds.  Their blocks hold the largest
of 256, 512, ..., 4096 trials that expects at most 2^17 draws (_block_size).
A typical-cell block holds 1024 trials (_VORONOI_BLOCK).  A guard-disk block
holds the trials, up to 256, that one filtering call takes
(_NEUTRAL_CALL_POINTS), so even a short run is several blocks.
_check_blocks, which _run_blocks calls, checks runs before any block: it
refuses a first block that expects more than 1e7 draws, or points of a
spatial window (_BLOCK_BUDGET), and a run whose trials expect more than 2e10
such points in all (_WORK_BUDGET).  A guard-disk trial, which no filtering
call splits, is budgeted on its own.  The size follows from the kind and its
parameters alone, so thread count changes only which worker executes a
block, never the numbers.  threads is a ceiling: block 0 runs on the
calling thread, and the rest go to a pool only when it took _POOL_BLOCK_S
or more (see _run_blocks).
"""

from __future__ import annotations

import math
import time
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

# Trials per block of the samplers that do not name their draws per trial.
_BLOCK = 256
# A block that names its draws holds the largest _BLOCK 2^k trials, up to
# _MAX_BLOCK, that expects at most _BLOCK_DRAWS array elements.  A block
# pays a fixed cost before it draws anything (seeding its generator alone
# takes about 14 us), which dominated the one-draw-per-trial kinds at 256
# trials.  The draw cap keeps memory flat: 1024 trials for every kind raised
# the exact_laws benchmark's peak memory from 91 to 104 MB on a 2-vCPU VM,
# where its b = 1.5 colluding blocks hold 456 draws per trial.
_MAX_BLOCK = 16 * _BLOCK
_BLOCK_DRAWS = 2**17
# Points or array elements one block may expect, however few trials it
# holds: a run whose first block expects more is refused before any block
# runs.  An in-degree point costs about 35 bytes at peak and a named draw 8
# bytes per array that holds it, so 1e7 is a few hundred megabytes per
# thread; an in-degree block of 9.6e6 points (lambda_e 4.5e-4) took 1.9 s
# and peaked at 335 MB on a 2-vCPU VM.
_BLOCK_BUDGET = 1e7
# Trials one estimate may ask for: its outcomes alone are 400 MB of float64,
# twice that while the blocks are concatenated.
_TRIAL_BUDGET = 50_000_000
# Points of spatial windows one estimate may expect in all: trials times the
# points a sampler names per trial.  On one thread of a 2-vCPU VM a
# guard-disk point costs 0.45-1.4 us (a trial at lambda_e 0.1 and rho_n 1.5
# expects 6.3k points and takes about 3 ms), an in-degree point 0.1-0.2 us
# and a fading out-degree point 0.05-0.08 us, so a run at the budget would
# take about 4 h, 40 min and 20 min.  It also bounds the bookkeeping of
# guard-disk runs whose blocks are one trial (over 2e4 points each) to 1e6
# blocks.
_WORK_BUDGET = 2e10
# Rows a PMF may hold: a row written out costs about 300 bytes of Python
# objects, and 1e6 rows took 6.1 s and 311 MB as CSV on a 2-vCPU VM.
_TABLE_ROWS = 2**21


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

    def tolerance(self, k: float = 3.0) -> float:
        """k standard errors, with the error floored at one count in trials:
        a sample whose outcomes all agree has SE 0, yet cannot resolve a
        value finer than 1/trials."""
        return k * max(self.std_error, 1.0 / self.trials)


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
        """Empirical PMF of nonnegative integer outcomes, of at most _TABLE_ROWS rows."""
        rows = int(np.max(self.values)) + 1
        if rows > _TABLE_ROWS:
            raise ValueError(f"a PMF table of {rows} rows is longer than the {_TABLE_ROWS} rows allowed")
        return DegreePmf(np.bincount(self.values) / float(len(self.values)))

    def ecdf(self, grid) -> tuple[np.ndarray, np.ndarray]:
        """Fraction of outcomes <= each grid point, and its binomial standard error."""
        n = len(self.values)
        counts = np.searchsorted(np.sort(self.values), np.asarray(grid, dtype=np.float64), side="right")
        vals = counts / float(n)
        return vals, np.sqrt(np.maximum(vals * (1.0 - vals), 0.0) / n)


# ---------------------------------------------------------------------------
# window sizing (first-class, auditable)


def in_degree_window(lambda_l: float, lambda_e: float, bias: float = 1e-4) -> float:
    """Smallest disk radius keeping the expected count of missed legitimate
    points, (lambda_l/lambda_e) exp(-lambda_e pi W^2), below the bias target.
    """
    if lambda_e <= 0:
        raise ValueError("in-degree window needs lambda_e > 0")
    ratio = lambda_l / lambda_e
    if ratio <= bias:
        w2 = 1.0 / (math.pi * lambda_e)
    else:
        w2 = math.log(ratio / bias) / (math.pi * lambda_e)
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


# Expected surviving eavesdroppers in the start window, and the factor by
# which a window's radius grows while it holds none.  Median change against
# growth 1.5 on the former sampler, same kernel, 2-vCPU VM: the neutralize
# benchmark's pass (30 interleaved rounds, thread time) / the neutralization
# criterion's grid at half its trials (4 rounds):
#   growth   start 0.35   start 0.5    start 0.75
#   1.2      -12%/-26%    -11%/-27%    -12%/-23%
#   1.25     -11%/-25%    -10%/-27%     -9%/-18%
#   1.3      -11%/-22%    -15%/-24%    -10%/-28%
#   1.35      -6%/-25%    -16%/-22%     -9%/-25%
#   1.5       -3%/-16%     -3%/-18%     -4%/-17%
# 120 pass rounds at start 0.5: -20/-18/-16/-14/-6%.  1.25 makes fewer calls
# than 1.2 (91 per pass, 62 at 1.5); rho_n = 0.5 cells (< 0.2 s) ran slower.
_NEUTRAL_START_SURVIVORS = 0.5
_NEUTRAL_GROWTH = 1.25
# Points a guard-disk trial may expect in the larger of its two fields: its
# start window's, unless survivors clump.  Guard disks with a = pi lambda_l
# rho_n^2 >= 2 leave holes of density h = lambda_l (a - 1) e^-a (Euler
# characteristic of the Boolean model; Chiu, Stoyan, Kendall & Mecke, 2013)
# holding k = lambda_e / (lambda_l (a - 1)) eavesdroppers each, so a trial is
# charged the eavesdroppers of the window that expects c clumps at density
# h (1 - e^-k).  (Below a = 2 that undercounts holes, and up to a = 5.2 the
# 2 rho_n floor is larger.)  At lambda_l 100, lambda_e 1e4, rho_n 0.2: 1.24e6,
# where the start window held 1.43e5 and three trials grew 6-9 times.
# Per point charged, one-trial blocks peaked at 65-250 bytes there and at
# lambda_l 10, lambda_e 3e4, rho_n 0.5 (12 seeds each), and at 114-263 with
# 2.1e5-4.3e5 legitimate points (4 seeds; tracemalloc, 2-vCPU VM): 1e6 is
# about a quarter gigabyte per thread, seconds per trial.
_NEUTRAL_POINT_BUDGET = 1e6
# Expected points per guard-disk block, which one neutral_survivors call per
# round filters: it spreads the call's fixed cost over many cheap trials,
# while a costly trial is a block of its own.
_NEUTRAL_CALL_POINTS = 2e4
# Trials per typical-cell block, about 29k points and 4 MB at peak: a
# 6000-trial run took 16-35% off on two threads at blocks of 512-2048 trials
# (24-35% at 1024), against the serial run at 256 trials, which gained
# nothing pooled (medians of 15 rounds, two sets).
_VORONOI_BLOCK = 4 * _BLOCK


def neutralization_window(cfg: NetworkConfig, rho_n: float) -> float:
    """Start radius of the eavesdropper window under guard radius rho_n.

    Its area holds _NEUTRAL_START_SURVIVORS expected survivors at the
    survivor density lambda_e exp(-pi lambda_l rho_n^2), and the radius is at
    least 2 rho_n, so the origin's guard disk never reaches a grown annulus.
    """
    if not (math.isfinite(rho_n) and rho_n > 0):
        raise ValueError(f"guard radius must be finite and > 0, got {rho_n}")
    if cfg.lambda_e <= 0:
        raise ValueError("neutralization window needs lambda_e > 0")
    lam_eff = cfg.lambda_e * math.exp(-cfg.lambda_l * math.pi * rho_n * rho_n)
    w0 = math.sqrt(_NEUTRAL_START_SURVIVORS / (math.pi * lam_eff)) if lam_eff > 0 else math.inf
    return max(2.0 * rho_n, w0)


# ---------------------------------------------------------------------------
# block harness


def _block_size(draws: float | None) -> int:
    """Trials per block for draws expected array elements per trial: _BLOCK
    when draws is None, else the largest _BLOCK 2^k up to _MAX_BLOCK whose
    block expects at most _BLOCK_DRAWS (never below _BLOCK, so a block's
    memory grows with draws until _run_blocks refuses it at _BLOCK_BUDGET)."""
    size = _BLOCK
    while draws is not None and size < _MAX_BLOCK and 2 * size * draws <= _BLOCK_DRAWS:
        size *= 2
    return size


def _blocks(trials: int, size: int) -> list[tuple[int, int]]:
    """(substream index, trials) of each block, the last one partial."""
    return [(i, min(size, trials - start)) for i, start in enumerate(range(0, trials, size))]


def _check_blocks(trials: int, size: int, draws: float | None = None, points: float | None = None) -> None:
    """Raise ValueError when a first block of size trials expects more than
    _BLOCK_BUDGET array elements (points, or draws if points is None), or
    when the whole run expects more than _WORK_BUDGET points."""
    first = min(size, trials)
    elements = draws if points is None else points
    if elements is not None and first * elements > _BLOCK_BUDGET:
        raise ValueError(
            f"a block of {first} trials expects about {first * elements:.3g} array elements, "
            f"over the budget of {_BLOCK_BUDGET:.3g}"
        )
    if points is not None and trials * points > _WORK_BUDGET:
        raise ValueError(
            f"{trials} trials expect about {trials * points:.3g} points in all, "
            f"over the budget of {_WORK_BUDGET:.3g} points per estimate"
        )


# Seconds block 0 must take for the rest of its run to go to the pool.  The
# blocks after block 0 pooled on two threads against all serially, ranges of
# the medians of three sets of 9-15 interleaved rounds (2-vCPU VM, shared):
#   run (lambda_l 1)                          blocks  block 0 ms  speed-up
#   neighbor_msr, 50k trials                      13   0.15-0.20  0.67-0.77x
#   sector_degree L = 4, 50k                      13   0.41-0.56  0.91-1.20x
#   colluding_degree lambda_e 0.1, b = 1.5, 15k   59   0.64-1.21  0.95-1.60x
#     b = 1.75 and 2                            15, 8   0.82-1.37  0.89-1.29x
#   in_degree lambda_e 4, 1 and 0.25, 6144        24   0.88-2.26  0.91-1.04x
#   neutralized_degree lambda_e 0.5, rho_n 0.5     8   1.90-2.62  0.68-0.95x
#   in_degree lambda_e 0.1, 2560                  10   4.62-6.24  0.94-1.26x
#   voronoi_area, 6144                             6   4.69-5.39  0.97-1.22x
#   neutralized_degree lambda_e 0.5, rho_n 1       8   5.67-6.63  0.90-0.95x
#   fading lognormal, 2048                         8   6.09-7.48  0.94-1.42x
#   neutralized_degree lambda_e 0.1, rho_n 1.5     8   6.37-9.11  0.88-1.08x
# Median under 3 ms 0.92x (27 readings), above 1.04x (15, none under 0.88x).
# A two-block run never pools: 2048 typical cells and 24 guard-disk trials at
# lambda_e 0.5, rho_n 1.5 ran 0.94x and 0.92x with both blocks pooled.
_POOL_BLOCK_S = 3e-3
# Test hooks: the clock that times block 0, and FORCE_POOL, which pools every
# block of a run, block 0 untimed, to prove the pooled path byte-identical.
_clock = time.perf_counter
FORCE_POOL = False


def _run_blocks(trials: int, root: Rng, threads: int, block_fn, draws: float | None = None, points=None, size=None):
    """Run block_fn(block_rng, block_size) over trial blocks of size trials,
    _block_size(draws) unless given.

    Block 0 runs on the calling thread and is timed; the rest go to a pool
    of min(threads, blocks left) workers when it took _POOL_BLOCK_S or more,
    and run serially otherwise.  The pool holds at most two blocks per worker
    submitted ahead of the one being collected, so a run of many small blocks
    queues few.  Results come back in block order either way; block_fn must
    derive all randomness from the Rng it is handed.  points is the points
    of a spatial window a trial expects.  _check_blocks refuses the run
    before any block.
    """
    size = _block_size(draws) if size is None else size
    _check_blocks(trials, size, draws, points)
    plan = _blocks(trials, size)
    results = []
    if not FORCE_POOL:
        start = _clock()
        results.append(block_fn(root.substream(0), plan[0][1]))
        plan = plan[1:]
        if _clock() - start < _POOL_BLOCK_S:
            threads = 1
    workers = min(threads, len(plan))
    if workers <= 1:
        return results + [block_fn(root.substream(i), n) for i, n in plan]
    ahead = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for i, n in plan:
            if len(ahead) == 2 * workers:
                results.append(ahead.pop(0).result())
            ahead.append(pool.submit(block_fn, root.substream(i), n))
        return results + [f.result() for f in ahead]


# ---------------------------------------------------------------------------
# samplers: sampler(cfg, run, **params) -> Sample, where run(block_fn, draws,
# points, size) runs block_fn over the trial blocks and returns the block
# results in order.  A sampler whose blocks hold a few array elements per
# trial passes their expected count as draws, so that its blocks grow past
# 256 trials; a spatial window's expected points per trial are its points.


def _refuse(cfg: NetworkConfig, kind: str, *fields: str) -> None:
    """Raise ValueError naming the first of fields ("fading", "rho",
    "sigma2_e") that cfg sets off what kind's law assumes: no fading, no
    secrecy-rate threshold, and equal noise powers."""
    got = {
        "fading": repr(cfg.fading.kind) if cfg.fading.kind != "none" else None,
        "rho": cfg.rho if cfg.rho > 0 else None,
        "sigma2_e": f"{cfg.sigma2_e} against sigma2_l {cfg.sigma2_l}" if cfg.sigma2_e != cfg.sigma2_l else None,
    }
    for f in fields:
        if got[f] is not None:
            raise ValueError(f"{kind} does not model {f}, got {got[f]}")


def _out_degree(cfg: NetworkConfig, run) -> Sample:
    if cfg.fading.kind == "none":
        return _sector_degree(cfg, run)  # one sector: the geometric law, or its thresholded map
    _refuse(cfg, "out_degree with fading", "rho", "sigma2_e")
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
    points = (cfg.lambda_l + cfg.lambda_e) * math.pi * w * w
    return Sample(np.concatenate(run(block, points=points)), note)


def _in_degree(cfg: NetworkConfig, run) -> Sample:
    _refuse(cfg, "in_degree", "fading", "rho", "sigma2_e")
    w = in_degree_window(cfg.lambda_l, cfg.lambda_e)

    def block(rng: Rng, n: int):
        g = rng.generator()
        trials = np.arange(n)
        lseg, _, lx, ly = _annuli_draw(g, cfg.lambda_l, 0.0, w, trials)
        eseg, _, ex, ey = _annuli_draw(g, cfg.lambda_e, 0.0, 2.0 * w, trials)
        bounds = np.arange(n + 1)
        return count_in_cell(lx, ly, np.searchsorted(lseg, bounds), ex, ey, np.searchsorted(eseg, bounds))

    bias = cfg.lambda_l / cfg.lambda_e * math.exp(-cfg.lambda_e * math.pi * w * w)
    points = (cfg.lambda_l + 4.0 * cfg.lambda_e) * math.pi * w * w
    note = f"window radius {w:.3g}, truncation bias bound {bias:.2e}"
    return Sample(np.concatenate(run(block, points=points)), note)


def _voronoi_block(rng: Rng, n: int):
    g = rng.generator()
    w = 3.0  # 28 points per trial; about 2% of cells need the extension below
    seg, _, x, y = _annuli_draw(g, 1.0, 0.0, w, np.arange(n))
    areas = np.empty(n)
    pending = np.ones(n, dtype=bool)
    for _round in range(12):
        cells, safe, _ = cell_area(x, y, seg, n, w / 2.0)
        areas[safe] = cells[safe]  # only pending trials have candidates
        pending &= ~safe
        if not pending.any():
            return areas
        # a cell not provably exact: extend the same realizations
        keep = pending[seg]
        aseg, _, ax, ay = _annuli_draw(g, 1.0, w, 1.5 * w, np.flatnonzero(pending))
        seg = np.concatenate([seg[keep], aseg])
        x = np.concatenate([x[keep], ax])
        y = np.concatenate([y[keep], ay])
        w *= 1.5
    raise RuntimeError("typical-cell window exhausted after repeated extension")


def _voronoi_area(cfg, run) -> Sample:
    return Sample(np.concatenate(run(_voronoi_block, size=_VORONOI_BLOCK)))


def _sector_degree(cfg: NetworkConfig, run, L: int = 1) -> Sample:
    if not (isinstance(L, int) and L >= 1):
        raise ValueError(f"L must be an integer >= 1, got {L}")
    if cfg.lambda_e <= 0:
        raise ValueError("sector-degree estimation needs lambda_e > 0")
    _refuse(cfg, "sector_degree", "fading")
    if L > 1:
        _refuse(cfg, f"sector_degree with L={L} sectors", "rho", "sigma2_e")
    # a threshold or unequal noise maps the nearest eavesdropper's distance
    # to a secure range; without either the range is the distance itself
    thresholded = cfg.rho > 0 or cfg.sigma2_l != cfg.sigma2_e
    lam = 1.0 / (math.pi * cfg.lambda_e / L)
    wedge_rate = cfg.lambda_l * math.pi / L

    def block(rng: Rng, n: int):
        g = rng.generator()
        dmin2 = g.exponential(scale=lam, size=(n, L))
        if thresholded:  # L = 1
            psi = secure_range_thresholded(np.sqrt(dmin2[:, 0]), cfg)
            return g.poisson(lam=wedge_rate * psi * psi)
        # given the distances the wedge counts are independent Poissons, so
        # their sum is one Poisson of the summed mean
        return g.poisson(lam=wedge_rate * dmin2.sum(axis=1))

    return Sample(np.concatenate(run(block, draws=L)), f"exact per-sector distance-domain sampling, L={L}")


# Candidate pairs _annuli_draw draws at a time, so that its temporaries stay
# a few megabytes however many points it returns.  At 1e6 points it peaked
# at 35 bytes per point (tracemalloc), 32 of them its outputs; drawing every
# pair at once peaked at 79, and the trigonometric draw before it at 48.
_DRAW_CHUNK = 1 << 16


def _annuli_draw(g, lam: float, r0: float, r1: float, trials: np.ndarray):
    """One Poisson field of density lam in r0 <= r < r1 per listed trial:
    trial index, squared radius and coordinates of every point.

    No trigonometry (the polar method of Marsaglia and Bray, 1964): a pair u
    uniform in [-1, 1)^2 and kept when 0 < s = |u|^2 < 1 is uniform in the
    unit disk, so its direction u/|u| is uniform and s is Uniform(0, 1),
    independent of it.  Then r2 = s (r1^2 - r0^2) + r0^2 is the squared
    radius of a uniform point of the annulus, and (x, y) = u sqrt(r2 / s).
    The pairs are drawn _DRAW_CHUNK at a time, each time enough for the m
    points still missing plus 3 sqrt(m) + 16 to spare, so that one chunk
    nearly always suffices below its size, and written into the outputs.
    """
    area = r1 * r1 - r0 * r0
    seg = np.repeat(trials, g.poisson(lam * math.pi * area, size=trials.size))
    n = seg.size
    r2, x, y = np.empty(n), np.empty(n), np.empty(n)
    done = 0
    while done < n:
        need = n - done
        u = g.random((2, min(_DRAW_CHUNK, int(need * 4.0 / math.pi + 3.0 * math.sqrt(need)) + 16)))
        u *= 2.0
        u -= 1.0
        s = u[0] * u[0]
        s += u[1] * u[1]
        kept = np.flatnonzero((s < 1.0) & (s > 0.0))[:need]
        out = slice(done, done + kept.size)
        s = s[kept]
        np.multiply(s, area, out=r2[out])
        r2[out] += r0 * r0
        scale = np.divide(r2[out], s, out=s)
        np.sqrt(scale, out=scale)
        np.multiply(u[0][kept], scale, out=x[out])
        np.multiply(u[1][kept], scale, out=y[out])
        done += kept.size
    return seg, r2, x, y


def _neutralized_degrees(g, cfg: NetworkConfig, rho_n: float, w0: float, m: int):
    """Origin degrees of m trials under guard radius rho_n, and their window growths.

    Each round filters the trials still without a survivor in one
    neutral_survivors call, each shifted along x to its own slot of a one-row
    lattice, out of reach of its neighbours' guard disks.  The legitimate
    points are one ring per round, (outer radius, trial, squared radius, x,
    y), and a round reads only the rings that reach its annulus.
    """
    best = np.full(m, np.inf)  # squared distance of each trial's nearest survivor
    active = np.arange(m)
    rings = [(w0 + rho_n, *_annuli_draw(g, cfg.lambda_l, 0.0, w0 + rho_n, active))]
    eseg, er2, ex, ey = _annuli_draw(g, cfg.lambda_e, 0.0, w0, active)
    # the origin is itself a legitimate node: it neutralizes, but it is not
    # one of its own neighbours
    _, lseg, _, lx, ly = rings[0]
    fseg, fx, fy = np.append(lseg, active), np.append(lx, np.zeros(m)), np.append(ly, np.zeros(m))
    we = w0
    growths = 0
    while True:
        slot = np.zeros(m)
        slot[active] = np.arange(active.size) * (2.0 * (we + 2.0 * rho_n))
        surv = neutral_survivors(ex + slot[eseg], ey, fx + slot[fseg], fy, rho_n)
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
        rings.append((w_new + rho_n, *_annuli_draw(g, cfg.lambda_l, we + rho_n, w_new + rho_n, active)))
        shell = []
        for outer, seg, r2, x, y in rings:
            if outer > we - rho_n:
                near = waiting[seg] & (r2 >= (we - rho_n) ** 2)
                shell.append((seg[near], x[near], y[near]))
        fseg, fx, fy = (np.concatenate(column) for column in zip(*shell))
        we = w_new
    return sum(np.bincount(seg[r2 < best[seg]], minlength=m) for _, seg, r2, _, _ in rings), growths


def _neutralized_degree(cfg: NetworkConfig, run, rho_n: float = 0.0) -> Sample:
    _refuse(cfg, "neutralized_degree", "fading")
    if rho_n == 0.0:
        return _sector_degree(cfg, run)  # no guard disks: the one-sector draw
    _refuse(cfg, f"neutralized_degree with guard radius {rho_n}", "rho", "sigma2_e")
    w0 = neutralization_window(cfg, rho_n)
    a = math.pi * cfg.lambda_l * rho_n * rho_n
    holes = cfg.lambda_l * (a - 1.0) * math.exp(-a)
    area = math.pi * w0 * w0
    if a >= 2.0 and holes > 0.0:  # survivors clump, see _NEUTRAL_POINT_BUDGET
        area = max(area, _NEUTRAL_START_SURVIVORS / (holes * -math.expm1(cfg.lambda_e / (cfg.lambda_l * (1.0 - a)))))
    points = max(cfg.lambda_l * math.pi * (w0 + rho_n) ** 2, cfg.lambda_e * area)
    if points > _NEUTRAL_POINT_BUDGET:
        raise ValueError(
            f"guard radius {rho_n}: about {points:.3g} points per trial, over the budget of {_NEUTRAL_POINT_BUDGET:.3g}"
        )
    # a block is one filtering call, with its own substream
    size = int(min(_BLOCK, max(1.0, _NEUTRAL_CALL_POINTS / points)))

    def block(rng: Rng, n: int):
        return _neutralized_degrees(rng.generator(), cfg, rho_n, w0, n)

    parts = run(block, points=points, size=size)
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
    if cfg.gain.kind != "unbounded":
        raise ValueError("neighbor-MSR estimation requires the unbounded gain model")
    _refuse(cfg, "neighbor_msr", "fading")
    if cfg.lambda_e <= 0:
        raise ValueError("neighbor-MSR estimation needs lambda_e > 0")
    b = cfg.gain.b

    def block(rng: Rng, n: int):
        g = rng.generator()
        rl2 = g.gamma(shape=float(i), scale=1.0 / (math.pi * cfg.lambda_l), size=n)
        re2 = g.exponential(scale=1.0 / (math.pi * cfg.lambda_e), size=n)
        return msr_link(cfg.p_l * rl2 ** (-b), cfg.p_l * re2 ** (-b), cfg.sigma2_l, cfg.sigma2_e)

    return Sample(np.concatenate(run(block, draws=1)), f"exact distance-domain sampling, neighbor {i}")


def _colluding_power_block(cfg: NetworkConfig, r_window: float | None):
    """Block of aggregate eavesdropper powers, windowed sum plus mean-tail
    correction, its draws (eavesdroppers per trial) and its audit note."""
    w = colluding_window(cfg) if r_window is None else r_window
    b = cfg.gain.b
    if cfg.gain.kind != "unbounded" or b <= 1.0:
        raise ValueError("aggregate eavesdropper power requires unbounded gain with b > 1")
    _refuse(cfg, "aggregate eavesdropper power", "fading")
    if not (math.isfinite(w) and w > 0):
        raise ValueError(f"r_window must be positive and finite, got {w}")
    tail = 2.0 * math.pi * cfg.lambda_e * cfg.p_l * w ** (2.0 - 2.0 * b) / (2.0 * b - 2.0)
    # ln of a point's power P_l (W^2 U)^(-b) is c0 - b ln U.  Folding the
    # constant into each point keeps its range: a per-trial factor
    # P_l W^(-2b) underflows to 0 at b near 300, while U^(-b) overflows.
    c0 = math.log(cfg.p_l) - 2.0 * b * math.log(w)

    def block(rng: Rng, n: int):
        g = rng.generator()
        ne = g.poisson(cfg.lambda_e * math.pi * w * w, size=n)
        # each trial's powers are one contiguous run of p
        p = g.random(int(ne.sum()))
        np.log(p, out=p)
        p *= -b
        p += c0
        np.exp(p, out=p)
        # reduceat gives an empty run the element at its start, and refuses a
        # start equal to len(p), so only the non-empty runs are summed
        full = ne > 0
        agg = np.zeros(n)
        agg[full] = np.add.reduceat(p, (np.add.accumulate(ne) - ne)[full])
        agg += tail
        return agg

    eaves = cfg.lambda_e * math.pi * w * w
    return block, eaves, f"window radius {w:.4g}, mean-tail correction {tail:.3e}"


def _colluding_power(cfg: NetworkConfig, run, r_window: float | None = None) -> Sample:
    block, eaves, note = _colluding_power_block(cfg, r_window)
    return Sample(np.concatenate(run(block, draws=eaves)), note)


def _colluding_degree(cfg: NetworkConfig, run, r_window: float | None = None) -> Sample:
    _refuse(cfg, "colluding_degree", "rho")
    power_block, eaves, note = _colluding_power_block(cfg, r_window)
    # secure radius r with P_l r^(-2b)/sigma2_l > P_agg/sigma2_e
    c = cfg.p_l * cfg.sigma2_e / cfg.sigma2_l

    def block(rng: Rng, n: int):
        agg = power_block(rng.substream(0), n)
        r2 = (c / agg) ** (1.0 / cfg.gain.b)
        return rng.substream(1).generator().poisson(lam=cfg.lambda_l * math.pi * r2)

    return Sample(np.concatenate(run(block, draws=eaves)), note)


_SAMPLERS = {
    "out_degree": _out_degree,
    "in_degree": _in_degree,
    "voronoi_area": _voronoi_area,
    "sector_degree": _sector_degree,
    "neutralized_degree": _neutralized_degree,
    "neighbor_msr": _neighbor_msr,
    "colluding_power": _colluding_power,
    "colluding_degree": _colluding_degree,
}


def estimate_generic(kind: str, cfg: NetworkConfig | None, trials: int, rng: Rng, threads: int = 1, **params) -> Sample:
    """Draw one outcome of the named kind per trial.

    params are the kind's own: L (sector_degree), rho_n (neutralized_degree),
    neighbor_index (neighbor_msr) and r_window (the colluding kinds; default
    colluding_window(cfg)).  voronoi_area ignores cfg.  The degree under a
    secrecy-rate threshold or unequal noise is out_degree with cfg.rho,
    cfg.p_l and the noise powers set.  Raises ValueError for a config field
    the kind does not model, and for a run over the trial or block budget.
    """
    if kind not in _SAMPLERS:
        raise ValueError(f"unknown experiment kind {kind!r}; expected one of {tuple(_SAMPLERS)}")
    if not (isinstance(trials, int) and trials >= 1):
        raise ValueError(f"trials must be an integer >= 1, got {trials}")
    if trials > _TRIAL_BUDGET:
        raise ValueError(
            f"{trials} trials would hold {8e-9 * trials:.3g} GB of outcomes, over the budget of "
            f"{_TRIAL_BUDGET:.3g} trials per estimate"
        )
    return _SAMPLERS[kind](cfg, partial(_run_blocks, trials, rng, threads), **params)
