"""Self-contained acceptance checks: every analytic result cross-validated
against simulation at fixed seeds and published tolerances.

Each criterion function only judges: it returns (passed, detail) and never
raises on a tolerance miss.  Four criteria judge the rows of the CLI runner
that computes their numbers at their budget and grid, so the battery
certifies what the CLI writes.  run_all times each one, wraps it in a
CriterionResult, and runs the full battery in a stable order.  The CLI
selftest subcommand and the test suite both dispatch through run_all, so a
green selftest and a green test run certify the same thing.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import analytic, cli, montecarlo as mc, stable
from .analytic import TABLE_VORONOI_MOMENTS
from .pointprocess import Rng
from .propagation import FadingModel, GainModel
from .secrecy import NetworkConfig

__all__ = ["CriterionResult", "CRITERIA", "run_all"]


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _geometric(lambda_l: float, lambda_e: float):
    return lambda n: analytic.pmf_out_degree(n, lambda_l, lambda_e)


# ---------------------------------------------------------------------------


def out_degree_law(threads: int) -> tuple[bool, str]:
    """Out-degree PMF is geometric with mean lambda_l/lambda_e; TV < 0.01 at 1e5
    trials, mean within 3 SE, under 10 seconds.  The detail states only
    which side of the time bound the run fell on, so that a result file
    holds no wall-clock time."""
    t0 = time.time()
    cfg = NetworkConfig(lambda_l=1.0, lambda_e=0.4)
    sample = mc.estimate_generic("out_degree", cfg, 100_000, Rng(101), threads)
    pmf, est = sample.pmf(), sample.mean()
    tv = analytic.tv_distance(pmf, _geometric(1.0, 0.4))
    dev = abs(est.value - cfg.ratio) / est.std_error
    in_time = time.time() - t0 < 10.0
    ok = tv < 0.01 and abs(est.value - cfg.ratio) <= est.tolerance(3.0) and in_time
    detail = (
        f"TV={tv:.4f} (<0.01), mean={est.value:.4f} vs {cfg.ratio} ({dev:.2f} SE), "
        f"{'within' if in_time else 'over'} 10s"
    )
    return ok, detail


def voronoi_moments(threads: int) -> tuple[bool, str]:
    """Typical-cell area moments match (1, 1.280, 1.993, 3.650) within
    (1%, 5%, 5%, 8%) at 1e5 cells, under 5 minutes (the detail states only
    which side of that bound the run fell on): the voronoi run's rows."""
    t0 = time.time()
    _, rows, _ = cli._run_voronoi(cli.RunConfig("voronoi", trials=100_000, seed=102, threads=threads))
    tols = (0.01, 0.05, 0.05, 0.08)
    moments = [sim for _, _, sim, _ in rows]
    rels = [abs(sim - table) / table for _, table, sim, _ in rows]
    in_time = time.time() - t0 < 300.0
    ok = all(r < tol for r, tol in zip(rels, tols)) and in_time
    detail = (
        "moments=" + "/".join(f"{m:.4f}" for m in moments)
        + " rel=" + "/".join(f"{r:.2%}" for r in rels)
        + f" (tol 1/5/5/8%), {'within' if in_time else 'over'} 300s"
    )
    return ok, detail


def in_degree_moment(threads: int) -> tuple[bool, str]:
    """Simulated E{N_in^2} at density ratio 1 matches the Stirling/area-moment
    composition 2.280 within 5%."""
    cfg = NetworkConfig(lambda_l=1.0, lambda_e=1.0)
    pmf = mc.estimate_generic("in_degree", cfg, 100_000, Rng(103), threads).pmf()
    target = analytic.moments_in_degree(2, 1.0, TABLE_VORONOI_MOMENTS)
    m2 = pmf.moment(2)
    rel = abs(m2 - target) / target
    ok = rel < 0.05
    return ok, f"E{{N^2}}={m2:.4f} vs {target:.3f}, rel={rel:.2%} (<5%)"


def isolation_ordering(threads: int) -> tuple[bool, str]:
    """In-isolation probability is strictly below out-isolation at every
    eavesdropper/legitimate density ratio in {0.25, 0.5, 1, 2, 4}, with the
    gap exceeding 3 combined standard errors: the rows of the isolation run
    at lambda_e 0.25, whose two columns each come from one sample at the
    largest ratio, thinned (cli._isolation), with their conditional
    standard errors."""
    rc = cli.RunConfig("isolation", lambda_e=0.25, trials=100_000, seed=10400, threads=threads)
    _, rows, _ = cli._run_isolation(rc)
    gaps = [(q, p_out - p_in, math.hypot(se_out, se_in)) for q, _, p_out, se_out, p_in, se_in in rows]
    ok = all(gap > 3.0 * comb for _, gap, comb in gaps)
    return ok, "; ".join(f"q={q}: gap={gap:.4f} ({gap / comb:.1f} SE)" for q, gap, comb in gaps)


def fading_invariance(threads: int) -> tuple[bool, str]:
    """Out-degree PMF is unchanged by per-link propagation effects: path-loss
    only, Nakagami m=1, Nakagami m=3, and lognormal sigma_s=1 all sit within
    TV 0.01 of the geometric law at 1e5 trials (and pairwise within 0.015)."""
    models = [
        ("none", FadingModel(kind="none")),
        ("nakagami1", FadingModel(kind="nakagami", m=1.0)),
        ("nakagami3", FadingModel(kind="nakagami", m=3.0)),
        ("lognormal1", FadingModel(kind="lognormal", sigma_s=1.0)),
    ]
    pmfs = []
    parts = []
    ok = True
    for j, (label, fad) in enumerate(models):
        cfg = NetworkConfig(lambda_l=1.0, lambda_e=0.4, fading=fad)
        pmf = mc.estimate_generic("out_degree", cfg, 100_000, Rng(10500 + j), threads).pmf()
        tv = analytic.tv_distance(pmf, _geometric(1.0, 0.4))
        ok = ok and tv < 0.01
        pmfs.append(pmf)
        parts.append(f"{label}: TV={tv:.4f}")
    # tv_distance lumps q's mass beyond p's support, where p is zero
    pair_max = max(
        analytic.tv_distance(p, lambda n: q.probs[n] if n < len(q.probs) else 0.0)
        for a, p in enumerate(pmfs)
        for q in pmfs[a + 1 :]
    )
    ok = ok and pair_max < 0.015
    parts.append(f"pairwise max TV={pair_max:.4f} (<0.015)")
    return ok, "; ".join(parts) + " (each <0.01)"


def thresholded_mean(threads: int) -> tuple[bool, str]:
    """Mean degree under a secrecy-rate threshold: quadrature matches
    simulation within 3% across the threshold run's rho grid {0, 0.5, 1,
    1.5, 2, 3, 4} at power 0.5 and 5; the Jensen bound is never violated;
    the rho=0 value hits the closed form (lambda_l/lambda_e)
    (sigma2_e/sigma2_l)^(1/b) to 1e-6."""
    rows = []
    for jp, p in enumerate((0.5, 5.0)):
        rc = cli.RunConfig("threshold", lambda_e=0.1, power=p, trials=200_000, seed=10600 + 10 * jp, threads=threads)
        rows += cli._run_threshold(rc)[1]
    closed = rc.lambda_l / rc.lambda_e * (rc.sigma2_e / rc.sigma2_l) ** (1.0 / rc.b)
    rels = [abs(sim - exact) / exact for _, exact, _, sim, _ in rows]
    jensen_ok = all(exact <= bound * (1.0 + 1e-12) for _, exact, bound, _, _ in rows)
    closed_ok = all(abs(exact - closed) < 1e-6 for rho, exact, *_ in rows if rho == 0.0)
    ok = all(rel < 0.03 for rel in rels) and jensen_ok and closed_ok
    detail = (
        f"worst |sim-exact|/exact={max(rels):.2%} (<3%) over {len(rows)} (rho, power) points; "
        f"Jensen bound respected: {jensen_ok}; rho=0 closed form to 1e-6: {closed_ok}"
    )
    return ok, detail


def sectorization(threads: int) -> tuple[bool, str]:
    """Sectorized transmission: out-degree is negative binomial; TV < 0.015
    and mean within 3 SE of L * lambda_l/lambda_e for L in {1, 2, 4, 8}:
    the PMF rows and summary of the sectors run at each L."""
    ok = True
    parts = []
    for j, L in enumerate((1, 2, 4, 8)):
        rc = cli.RunConfig("sectors", lambda_e=0.4, sectors=L, trials=100_000, seed=10700 + j, threads=threads)
        _, rows, summary = cli._run_sectors(rc)
        _, law, sim, _ = (np.array(column) for column in zip(*rows))
        tv = analytic.tv_distance(analytic.DegreePmf(sim), law.__getitem__)
        dev = abs(summary["simulated"] - summary["analytic"]) / summary["se"]
        ok = ok and tv < 0.015 and summary["pass"]
        parts.append(f"L={L}: TV={tv:.4f}, mean dev {dev:.2f} SE")
    return ok, "; ".join(parts) + " (TV<0.015, dev<=3)"


_NEUTRALIZATION_TRIALS = {
    (0.1, 0.5): 20_000, (0.2, 0.5): 20_000, (0.5, 0.5): 20_000,
    (0.1, 1.0): 10_000, (0.2, 1.0): 20_000, (0.5, 1.0): 20_000,
    (0.1, 1.5): 2_000, (0.2, 1.5): 3_000, (0.5, 1.5): 5_000,
}


def neutralization(threads: int) -> tuple[bool, str]:
    """Guard-disk neutralization: simulated mean degree dominates the analytic
    lower bound on the (guard radius, density) grid, allowing 3 SE of
    estimator noise where the true mean sits close to the bound; at radius 0
    the mean is within 3 SE of lambda_l/lambda_e."""
    ok = True
    parts = []
    for j, lam_e in enumerate((0.1, 0.2, 0.5)):
        cfg = NetworkConfig(lambda_l=1.0, lambda_e=lam_e)
        est0 = mc.estimate_generic("neutralized_degree", cfg, 100_000, Rng(10800 + j), threads, rho_n=0.0).mean()
        dev0 = abs(est0.value - cfg.ratio) / est0.std_error
        ok = ok and abs(est0.value - cfg.ratio) <= est0.tolerance(3.0)
        parts.append(f"le={lam_e} rho=0: dev {dev0:.2f} SE")
        for rho in (0.5, 1.0, 1.5):
            trials = _NEUTRALIZATION_TRIALS[(lam_e, rho)]
            seed = 10800 + 100 * j + int(10 * rho)
            est = mc.estimate_generic("neutralized_degree", cfg, trials, Rng(seed), threads, rho_n=rho).mean()
            lb = analytic.mean_out_degree_neutralization_lb(rho, 1.0, lam_e)
            margin = (est.value - lb) / est.std_error
            ok = ok and est.value >= lb - est.tolerance(3.0)
            parts.append(f"le={lam_e} rho={rho}: margin {margin:+.1f} SE")
    return ok, "; ".join(parts)


def neighbor_msr(threads: int) -> tuple[bool, str]:
    """Secrecy rate to the i-th nearest neighbor: existence probability matches
    (lambda_l/(lambda_l+lambda_e))^i within 3 SE for i in {1, 2, 4, 6}; the
    empirical rate CDF matches quadrature with KS < 0.02 at 1e5 trials."""
    cfg = NetworkConfig(lambda_l=1.0, lambda_e=0.1, p_l=10.0, gain=GainModel(kind="unbounded", b=2.0))
    grid = (0.0,) + tuple(np.linspace(0.04, 8.0, 200))
    ok = True
    parts = []
    ks1 = None
    for j, i in enumerate((1, 2, 4, 6)):
        sample = mc.estimate_generic("neighbor_msr", cfg, 100_000, Rng(10900 + j), threads, neighbor_index=i)
        values, ses = sample.ecdf(grid)
        exist = mc.Estimate(1.0 - values[0], ses[0], 100_000)
        p_ana = analytic.p_exist_neighbor(i, cfg.lambda_l, cfg.lambda_e)
        dev = abs(exist.value - p_ana) / exist.std_error
        ok = ok and abs(exist.value - p_ana) <= exist.tolerance(3.0)
        parts.append(f"i={i}: p_exist dev {dev:.2f} SE")
        if i == 1:
            F = analytic.cdf_msr_neighbor(grid, i, cfg)
            ks1 = float(np.max(np.abs(values - F)))
            ok = ok and ks1 < 0.02
    parts.append(f"i=1 CDF KS={ks1:.4f} (<0.02)")
    return ok, "; ".join(parts)


def stable_numerics(threads: int) -> tuple[bool, str]:
    """One-sided stable machinery: the Kanter-integral CDF matches
    2Q(1/sqrt(x)) to 1e-6 at alpha=1/2; sampler matches that CDF with
    KS < 0.002 at alpha in {1/2, 1/3}; the Mellin identity holds to 1e-9."""
    xs = np.logspace(-3.0, 3.0, 61)
    closed = 2.0 * ndtr(-1.0 / np.sqrt(xs))
    err_half = float(np.max(np.abs(stable.cdf_normalized(xs, 0.5) - closed)))
    ok = err_half < 1e-6

    ks_parts = []
    for j, alpha in enumerate((0.5, 1.0 / 3.0)):
        n = 1_000_000
        samples = stable.sample(stable.StableParams(alpha=alpha, gamma=1.0), Rng(11000 + j), size=n)
        samples = np.sort(samples)
        # evaluate the analytic CDF at a quantile mesh of the sample itself
        step = 500
        idx = np.arange(step - 1, n, step)
        qs = samples[idx]
        F = stable.cdf_normalized(qs, alpha)
        emp_hi = (idx + 1) / n
        emp_lo = idx / n
        ks = float(np.max(np.maximum(np.abs(emp_hi - F), np.abs(emp_lo - F))))
        ok = ok and ks < 0.002
        ks_parts.append(f"alpha={alpha:.3g}: KS={ks:.5f}")

    mellin_err = 0.0
    for alpha in (0.2, 1.0 / 3.0, 0.5, 0.75):
        lhs = analytic.c_alpha(alpha) * stable.mellin_neg_moment(alpha)
        mellin_err = max(mellin_err, abs(lhs - np.sinc(alpha)))
    ok = ok and mellin_err < 1e-9
    detail = (
        f"|kanter-closed|={err_half:.2e} (<1e-6); "
        + "; ".join(ks_parts)
        + f" (<0.002); Mellin err={mellin_err:.2e} (<1e-9)"
    )
    return ok, detail


def colluding_power_law(threads: int) -> tuple[bool, str]:
    """Aggregate eavesdropper power at b=2 follows the one-sided stable law
    with scale (pi lambda_e / C_(1/2))^2 P_l: KS < 0.01 at 1e5 trials."""
    cfg = NetworkConfig(lambda_l=1.0, lambda_e=0.1, gain=GainModel(kind="unbounded", b=2.0))
    w = mc.colluding_window(cfg, rel_std=1e-4)
    samples = mc.estimate_generic("colluding_power", cfg, 100_000, Rng(111), threads, r_window=w).values
    scale = (math.pi * cfg.lambda_e / analytic.c_alpha(0.5)) ** 2 * cfg.p_l
    xs = np.sort(samples) / scale
    n = len(xs)
    F = stable.cdf_normalized(xs, 0.5)
    emp_hi = np.arange(1, n + 1) / n
    emp_lo = np.arange(0, n) / n
    ks = float(np.max(np.maximum(np.abs(emp_hi - F), np.abs(emp_lo - F))))
    ok = ks < 0.01
    return ok, f"KS={ks:.5f} (<0.01), window={w:.1f}"


def colluding_degree(threads: int) -> tuple[bool, str]:
    """Mean secure degree against colluding eavesdroppers equals
    (lambda_l/lambda_e) sinc(1/b) within 3% for b in {1.5, 2, 3, 4, 6}."""
    ok = True
    parts = []
    for j, b in enumerate((1.5, 2.0, 3.0, 4.0, 6.0)):
        cfg = NetworkConfig(lambda_l=1.0, lambda_e=0.1, gain=GainModel(kind="unbounded", b=b))
        est = mc.estimate_generic("colluding_degree", cfg, 100_000, Rng(11200 + j), threads).mean()
        target = analytic.mean_degree_colluding(cfg)
        rel = abs(est.value - target) / target
        ok = ok and rel < 0.03
        norm = est.value / cfg.ratio
        parts.append(f"b={b}: {norm:.4f} vs {target / cfg.ratio:.4f} ({rel:.2%})")
    return ok, "; ".join(parts) + " (<3%); b=2 target 2/pi"


def colluding_outage_ordering(threads: int) -> tuple[bool, str]:
    """Colluding eavesdroppers are never better for secrecy: outage CDF
    dominates the single-eavesdropper CDF pointwise below the legitimate
    capacity, which for power/noise 10 at unit distance is log2(11)."""
    cfg = NetworkConfig(lambda_l=1.0, lambda_e=0.1, p_l=10.0, gain=GainModel(kind="unbounded", b=2.0))
    cap = math.log2(1.0 + cfg.p_l / cfg.sigma2_l)
    grid = np.linspace(1e-3, cap - 1e-3, 400)
    Fc = analytic.cdf_msr_colluding(grid, 1.0, cfg)
    Fn = analytic.cdf_msr_noncolluding_link(grid, 1.0, cfg)
    dominated = bool(np.all(Fc >= Fn - 1e-12))
    cap_ok = abs(cap - math.log2(11.0)) < 1e-12 and abs(cap - 3.459) < 5e-4
    ok = dominated and cap_ok
    detail = (
        f"pointwise dominance on (0, {cap:.4f}): {dominated}; "
        f"legitimate capacity={cap:.4f} = log2(11) ~ 3.459"
    )
    return ok, detail


# The CLI runs thread_determinism compares, each at seed 7.
DETERMINISM_RUNS = [
    ["degree", "--lambda-l", "1", "--lambda-e", "0.4", "--trials", "10000"],
    ["isolation", "--trials", "10000"],
    ["threshold", "--lambda-e", "0.1", "--power", "5", "--rho", "1", "--trials", "10000"],
    ["sectors", "--sectors", "4", "--lambda-e", "0.4", "--trials", "10000"],
    ["neutralize", "--lambda-e", "0.5", "--guard-radius", "0.5", "--trials", "2000"],
    ["msr", "--lambda-e", "0.1", "--power", "10", "--trials", "10000"],
    ["collude", "--lambda-e", "0.1", "--power", "10", "--trials", "10000"],
    ["collude", "--sweep-b", "1.5:3:0.5", "--lambda-e", "0.1", "--trials", "5000"],
    ["voronoi", "--trials", "5000"],
    # four guard-disk blocks of one filtering call each
    ["neutralize", "--lambda-e", "0.5", "--guard-radius", "1.5", "--trials", "48"],
]


def thread_determinism(threads: int) -> tuple[bool, str]:
    """Every experiment subcommand writes byte-identical output at
    --threads 1 and --threads 4 for the same seed.  montecarlo.FORCE_POOL is
    set meanwhile, so the 4-thread runs send every block through the pool,
    whatever block 0 took."""
    import contextlib
    import io
    import tempfile
    from pathlib import Path

    ok = True
    parts = []
    forced, mc.FORCE_POOL = mc.FORCE_POOL, True
    try:
        with tempfile.TemporaryDirectory() as td:
            for j, args in enumerate(DETERMINISM_RUNS):
                match = True
                for fmt in ("csv", "json"):
                    p1 = Path(td) / f"run{j}_t1.{fmt}"
                    p4 = Path(td) / f"run{j}_t4.{fmt}"
                    common = args + ["--seed", "7", "--format", fmt]
                    with contextlib.redirect_stdout(io.StringIO()):
                        rc1 = cli.main(common + ["--threads", "1", "--out", str(p1)])
                        rc4 = cli.main(common + ["--threads", "4", "--out", str(p4)])
                    same = rc1 == 0 and rc4 == 0 and p1.read_bytes() == p4.read_bytes()
                    match = match and same
                ok = ok and match
                parts.append(f"{args[0]}{'' if match else ' MISMATCH'}")
    finally:
        mc.FORCE_POOL = forced
    detail = "byte-identical across thread counts: " + ", ".join(parts)
    return ok, detail


CRITERIA = {
    f.__name__: f
    for f in (
        out_degree_law,
        in_degree_moment,
        isolation_ordering,
        sectorization,
        thresholded_mean,
        colluding_outage_ordering,
        colluding_degree,
        colluding_power_law,
        neighbor_msr,
        fading_invariance,
        stable_numerics,
        voronoi_moments,
        thread_determinism,
        neutralization,
    )
}


def run_all(threads: int = 1, names=None) -> list:
    """Run the named criteria (all by default) and return their timed results in order."""
    if names is None:
        names = list(CRITERIA)
    results = []
    for name in names:
        t0 = time.time()
        passed, detail = CRITERIA[name](threads)
        results.append(CriterionResult(name=name, passed=passed, detail=detail, seconds=time.time() - t0))
    return results
