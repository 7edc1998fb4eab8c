"""Command-line front end: named experiments emitting simulated-vs-analytic
comparison tables as CSV or JSON.

Subcommands map to the library's experiment families:

  degree      out- and in-degree PMFs vs the geometric law
  isolation   in- vs out-isolation probabilities across density ratios
  threshold   mean degree under a secrecy-rate threshold vs quadrature
  sectors     sectorized out-degree PMF vs the negative binomial law
  neutralize  mean degree with guard disks vs the analytic lower bound
  msr         secrecy-rate CDF to the i-th nearest neighbor vs quadrature
  collude     colluding-eavesdropper outage CDF and sinc degree sweep
  voronoi     typical-cell area moments vs the reference table
  selftest    the full acceptance battery

Exit codes: 0 success, 1 usage error, 2 numeric failure, 3 tolerance
failure (with --check, or from selftest).

Each subcommand takes as flags exactly the RunConfig keys its run reads
(_EXPERIMENTS); every other key keeps its default.  Every CSV starts with
those keys echoed as `# key = value` lines, so any output file doubles as a
config: `--config file.csv` (or a JSON output file) reproduces the run that
wrote it.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import analytic, montecarlo as mc
from .pointprocess import Rng, substream_key
from .propagation import GainModel
from .secrecy import NetworkConfig, msr_link

__all__ = ["RunConfig", "load_config", "main"]

_FORMATS = ("csv", "json")
_DEFAULT_SEED = 42
# A pool starts one OS thread per block up to --threads, so an unbounded value
# could start thousands of them.
_MAX_THREADS = 64


class _UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; any two equal RunConfigs produce identical files.

    A key that the experiment's run does not read must hold its default, so
    a config never claims a setting that did not reach the numbers."""

    experiment: str
    lambda_l: float = 1.0
    lambda_e: float = 0.1
    b: float = 2.0
    power: float = 1.0
    sigma2_l: float = 1.0
    sigma2_e: float = 1.0
    rho: float = 0.0
    sectors: int = 4
    guard_radius: float = 0.5
    neighbor: int = 1
    r_l: float = 1.0
    sweep_b: str | None = None
    trials: int = 100_000
    seed: int = _DEFAULT_SEED
    threads: int = 1
    out: str | None = None
    format: str = "csv"

    def __post_init__(self) -> None:
        if self.experiment not in _EXPERIMENTS:
            raise _UsageError(f"unknown experiment {self.experiment!r}")
        run = self.experiment if self.sweep_b is None else f"{self.experiment} --sweep-b"
        for f in dataclasses.fields(self)[1:]:
            value = getattr(self, f.name)
            if f.name not in self.keys and value != f.default:
                raise _UsageError(
                    f"{run} does not read {f.name!r}: got {value!r}, only its default {f.default!r} is accepted"
                )
        if self.format not in _FORMATS:
            raise _UsageError(f"format must be one of {_FORMATS}, got {self.format!r}")
        if self.trials < 1:
            raise _UsageError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise _UsageError(f"seed must be between 0 and 2**64 - 1, got {self.seed}")
        if not 1 <= self.threads <= _MAX_THREADS:
            raise _UsageError(f"threads must be between 1 and {_MAX_THREADS}, got {self.threads}")

    @property
    def keys(self) -> tuple:
        """The keys this run reads: its experiment's, less b and r_l in a
        collude sweep, whose points each set b and which has no link."""
        keys = _EXPERIMENTS[self.experiment].keys
        return keys if self.sweep_b is None else tuple(k for k in keys if k not in ("b", "r_l"))

    def network(self, rho: float | None = None, b: float | None = None) -> NetworkConfig:
        return NetworkConfig(
            lambda_l=self.lambda_l,
            lambda_e=self.lambda_e,
            p_l=self.power,
            sigma2_l=self.sigma2_l,
            sigma2_e=self.sigma2_e,
            rho=self.rho if rho is None else rho,
            gain=GainModel(kind="unbounded", b=self.b if b is None else b),
        )


# A key's type is its default's; a key without a default, or with None, is text.
_KEY_TYPES = {
    f.name: type(f.default) if isinstance(f.default, (int, float)) else str for f in dataclasses.fields(RunConfig)
}


def _coerce(key: str, value):
    if key not in _KEY_TYPES:
        raise _UsageError(f"unknown config key {key!r}")
    kind = _KEY_TYPES[key]
    if kind is str:
        if value is not None and not isinstance(value, str):
            raise _UsageError(f"config key {key!r} expects a string, got {value!r}")
        return value
    try:
        if kind is int and isinstance(value, float) and value != int(value):
            raise ValueError("not an integer")
        return kind(value)
    except (TypeError, ValueError):
        raise _UsageError(f"config key {key!r} expects a number, got {value!r}") from None


def load_config(path: str) -> dict:
    """Read a flat JSON config file (or a previous JSON/CSV output file)
    into a validated {key: value} dict."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if path.endswith(".csv"):
                raw = _config_from_csv(fh)
            else:
                raw = json.load(fh)
    except OSError as e:
        raise _UsageError(f"cannot read config {path!r}: {e.strerror or e}") from None
    except json.JSONDecodeError as e:
        raise _UsageError(f"config {path!r} is not valid JSON: line {e.lineno} column {e.colno}: {e.msg}") from None
    if isinstance(raw, dict) and isinstance(raw.get("config"), dict):
        raw = raw["config"]  # a previous run's JSON output
    if not isinstance(raw, dict):
        raise _UsageError(f"config {path!r} must hold a flat JSON object")
    return {k: _coerce(k, v) for k, v in raw.items()}


def _config_from_csv(fh) -> dict:
    out = {}
    for line in fh:
        if not line.startswith("#"):
            break
        body = line[1:].strip()
        if "=" not in body:
            continue
        key, _, val = body.partition("=")
        val = val.strip()
        out[key.strip()] = None if val == "null" else val
    return out


# ---------------------------------------------------------------------------
# output


def _plain(v):
    if v is None or isinstance(v, (bool, str, int)):
        return v
    if isinstance(v, (float, np.floating)):
        return float(v)
    if isinstance(v, (np.bool_,)):
        return bool(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    raise TypeError(f"cannot serialize {type(v)}")


# threads never changes results (estimates are bitwise thread-invariant) and
# out is where the file already sits, so neither belongs in the file itself:
# two runs differing only in those knobs must emit identical bytes.
_EPHEMERAL_KEYS = ("threads", "out")


def _echo_config(rc: RunConfig) -> dict:
    """The experiment and the keys its run reads, in field order."""
    return {
        f.name: getattr(rc, f.name)
        for f in dataclasses.fields(rc)
        if f.name == "experiment" or (f.name in rc.keys and f.name not in _EPHEMERAL_KEYS)
    }


def _write_csv(path: str, rc: RunConfig, columns, rows) -> None:
    """rows hold only None, str, int and float cells, which csv writes as an
    empty cell, the text, str and repr; runners convert numpy scalars to
    Python ones and spell a bool as JSON does."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key, value in _echo_config(rc).items():
            fh.write(f"# {key} = {'null' if value is None else value}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _json_safe(v):
    v = _plain(v)
    if isinstance(v, float) and not math.isfinite(v):
        return None  # strict JSON has no NaN/Infinity
    return v


def _write_json(path: str, rc: RunConfig, columns, rows, summary) -> None:
    doc = {
        "config": _echo_config(rc),
        "rows": [{c: _json_safe(v) for c, v in zip(columns, row)} for row in rows],
        "summary": {k: _json_safe(v) for k, v in summary.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _emit(rc: RunConfig, columns, rows, summary) -> str:
    path = rc.out or f"secgraph-{rc.experiment}.{rc.format}"
    if rc.format == "csv":
        _write_csv(path, rc, columns, rows)
    else:
        _write_json(path, rc, columns, rows, summary)
    return path


def _summary(analytic_value, simulated, se, tolerance, passed=None) -> dict:
    """The run's gate; it passes, unless another predicate is given, when the
    simulated value is within tolerance of the analytic one."""
    if passed is None:
        passed = abs(simulated - analytic_value) <= tolerance
    return {
        "analytic": analytic_value,
        "simulated": simulated,
        "se": se,
        "tolerance": tolerance,
        "pass": bool(passed),
    }


def _print_summary(rc: RunConfig, summary: dict, path: str) -> None:
    print(f"experiment: {rc.experiment}  (trials={rc.trials}, seed={rc.seed}, threads={rc.threads})")
    print(f"  analytic:  {summary['analytic']:.6g}")
    print(f"  simulated: {summary['simulated']:.6g}  (SE {summary['se']:.3g})")
    print(f"  tolerance: {summary['tolerance']:.3g}  ->  {'pass' if summary['pass'] else 'FAIL'}")
    print(f"  wrote {path}")


def _sub_seed(seed: int, k: int) -> int:
    return substream_key(seed, 1_000 + k)


# ---------------------------------------------------------------------------
# experiment runners


def _pmf_rows(law, trials: int, pmf, *others):
    """One row per degree n: n, law(n), pmf's probability, each of the other
    PMFs' probabilities, and the binomial SE of pmf's.  law is called once,
    on the array of every degree."""
    pmfs = (pmf, *others)
    n = np.arange(max(len(p.probs) for p in pmfs))
    probs = [np.pad(p.probs, (0, n.size - len(p.probs))) for p in pmfs]
    se = np.sqrt(np.maximum(probs[0] * (1.0 - probs[0]), 0.0) / trials)
    columns = [n, np.asarray(law(n), dtype=np.float64), *probs, se]
    return list(zip(*(c.tolist() for c in columns)))


def _run_degree(rc: RunConfig):
    cfg = rc.network()
    # the in-degree sample has the larger blocks, so an oversized one is refused before anything samples
    pmf_in = mc.estimate_generic("in_degree", cfg, rc.trials, Rng(_sub_seed(rc.seed, 1)), rc.threads).pmf()
    out = mc.estimate_generic("out_degree", cfg, rc.trials, Rng(rc.seed), rc.threads)
    est = out.mean()
    rows = _pmf_rows(lambda n: analytic.pmf_out_degree(n, rc.lambda_l, rc.lambda_e), rc.trials, out.pmf(), pmf_in)
    summary = _summary(cfg.ratio, est.value, est.std_error, est.tolerance(3.0))
    return ("n", "pmf_analytic_out", "pmf_sim_out", "pmf_sim_in", "se"), rows, summary


def _isolation(kind: str, lambda_l: float, ratios, trials: int, rng: Rng, threads: int) -> list[mc.Estimate]:
    """Isolation Estimates of kind "out_degree" or "in_degree" at each
    density ratio lambda_l/lambda_e, all from one sample at the largest
    ratio rho_max.

    Thinning the legitimate field with probability rho/rho_max leaves it
    Poisson of density (rho/rho_max) lambda_l and the eavesdroppers, so
    their nearest point and the origin's cell, unchanged (Kingman's
    colouring theorem).  So N_rho given N_max is Binomial(N_max,
    rho/rho_max), and each estimate is the mean of P(N_rho = 0 | N_max) =
    (1 - rho/rho_max)^N_max: the share of zeros at rho_max, and its
    Rao-Blackwellized form below it.  An in-degree window's truncation bias
    shrinks by the same factor rho/rho_max, so the sample's bias note
    bounds every row."""
    rho_max = max(ratios)
    cfg = NetworkConfig(lambda_l=lambda_l, lambda_e=lambda_l / rho_max)
    degrees = mc.estimate_generic(kind, cfg, trials, rng, threads)
    return [mc.Sample((1.0 - r / rho_max) ** degrees.values, degrees.bias_note).mean() for r in ratios]


def _run_isolation(rc: RunConfig):
    qs = (0.25, 0.5, 1.0, 2.0, 4.0)
    cfg = rc.network()
    ratios = [cfg.lambda_l / (q * cfg.lambda_l) for q in qs] + [cfg.ratio]
    # the in-degree sample has the larger blocks, so an oversized one is refused before anything samples
    p_ins = _isolation("in_degree", rc.lambda_l, ratios, rc.trials, Rng(rc.seed).substream(1), rc.threads)
    p_outs = _isolation("out_degree", rc.lambda_l, ratios, rc.trials, Rng(rc.seed), rc.threads)
    rows = []
    for q, p_out, p_in in zip(qs, p_outs, p_ins):
        p_ana = analytic.p_out_isolation(cfg.lambda_l, q * cfg.lambda_l)
        rows.append((q, p_ana, p_out.value, p_out.std_error, p_in.value, p_in.std_error))
    p_out, p_in = p_outs[-1], p_ins[-1]
    gap = p_out.value - p_in.value
    comb = math.hypot(p_out.std_error, p_in.std_error)
    p_ana = analytic.p_out_isolation(cfg.lambda_l, cfg.lambda_e)
    summary = _summary(p_ana, p_out.value, p_out.std_error, 3.0 * comb, gap > 3.0 * comb)
    columns = ("ratio_e_over_l", "p_out_analytic", "p_out_sim", "p_out_se", "p_in_sim", "p_in_se")
    return columns, rows, summary


def _run_threshold(rc: RunConfig):
    rows = []
    summary = None
    grid = sorted({0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0} | {rc.rho})
    for k, rho in enumerate(grid):
        cfg = rc.network(rho=rho)
        exact, bound = analytic.mean_out_degree_thresholded(cfg)
        est = mc.estimate_generic("out_degree", cfg, rc.trials, Rng(_sub_seed(rc.seed, k)), rc.threads).mean()
        rows.append((rho, exact, bound, est.value, est.std_error))
        if rho == rc.rho:
            summary = _summary(exact, est.value, est.std_error, 0.03 * exact)
    return ("rho", "mean_analytic", "mean_bound", "mean_sim", "se"), rows, summary


# A sectors run is refused before sampling when its PMF table fits with a
# smaller chance.
_TABLE_FIT_CHANCE = 1e-9


def _log_sector_table_fit(L: int, m: float) -> float:
    """Upper bound on the log of the chance that one sectored degree, negative
    binomial with L sectors of geometric mean m, fits in a PMF table of
    mc._TABLE_ROWS rows, that is, is at most k = rows - 1.

    For k below the mean L m, Chernoff's bound P(N <= k) <= E[exp(-t N)]
    exp(t k), at its best t, reads L log((k + L) / (L (1 + m))) + k log(q / z),
    with q = m / (1 + m) and z = k / (k + L); otherwise it is 0."""
    k = mc._TABLE_ROWS - 1
    if not k < L * m:
        return 0.0
    log_q_over_z = math.log1p((L - k / m) / ((1.0 + 1.0 / m) * k))
    return L * (math.log(k + L) - math.log(L) - math.log1p(m)) + k * log_q_over_z


def _run_sectors(rc: RunConfig):
    L = rc.sectors
    if L < 1:
        raise _UsageError(f"sectors must be >= 1, got {L}")
    cfg = rc.network()
    if cfg.lambda_e > 0:  # else the estimate refuses it
        # an oversized block is refused as the estimate would, then a table
        # too long for the run, both before sampling; a sector is a draw
        mc._check_blocks(rc.trials, mc._block_size(L), L)
        # the trials are independent: all fit with the chance of one to the power trials
        if rc.trials * _log_sector_table_fit(L, cfg.ratio) < math.log(_TABLE_FIT_CHANCE):
            raise ValueError(
                f"a PMF table of {mc._TABLE_ROWS + 1} rows is longer than the {mc._TABLE_ROWS} rows allowed, and "
                f"{rc.trials} trials of the {L}-sector degree (mean {L * cfg.ratio:.3g}) need at least that many "
                f"with probability over 1 - {_TABLE_FIT_CHANCE:g}"
            )
    sample = mc.estimate_generic("sector_degree", cfg, rc.trials, Rng(rc.seed), rc.threads, L=L)
    est = sample.mean()
    rows = _pmf_rows(
        lambda n: analytic.pmf_out_degree_sectored(n, L, rc.lambda_l, rc.lambda_e), rc.trials, sample.pmf()
    )
    summary = _summary(L * cfg.ratio, est.value, est.std_error, est.tolerance(3.0))
    return ("n", "pmf_analytic", "pmf_sim", "se"), rows, summary


def _run_neutralize(rc: RunConfig):
    rows = []
    summary = None
    grid = sorted({0.0, 0.25, 0.5, 0.75, 1.0} | {rc.guard_radius})
    cfg = rc.network()
    # a trial's window grows with the guard radius: the radii run from the
    # largest down, after a negative or NaN one, so a refused run samples none
    for k, rho_n in sorted(enumerate(grid), key=lambda kr: (kr[1] >= 0, -kr[1])):
        seed = _sub_seed(rc.seed, k)
        est = mc.estimate_generic("neutralized_degree", cfg, rc.trials, Rng(seed), rc.threads, rho_n=rho_n).mean()
        lb = analytic.mean_out_degree_neutralization_lb(rho_n, cfg.lambda_l, cfg.lambda_e)
        rows.append((rho_n, lb, est.value, est.std_error))
        if rho_n == rc.guard_radius:
            tol = est.tolerance(3.0)
            summary = _summary(lb, est.value, est.std_error, tol, est.value >= lb - tol)
    return ("rho_n", "bound", "mean_sim", "se"), rows[::-1], summary


def _run_msr(rc: RunConfig):
    cfg = rc.network()
    i = rc.neighbor
    if i < 1:
        raise _UsageError(f"neighbor must be >= 1, got {i}")
    grid = (0.0, *np.linspace(0.08, 8.0, 100).tolist())
    sample = mc.estimate_generic("neighbor_msr", cfg, rc.trials, Rng(rc.seed), rc.threads, neighbor_index=i)
    values, ses = sample.ecdf(grid)
    cdf = analytic.cdf_msr_neighbor(grid, i, cfg)
    rows = [(rho, float(F), float(v), float(se)) for rho, F, v, se in zip(grid, cdf, values, ses)]
    # the share of trials with a positive rate, with the SE of the CDF at 0
    exist = mc.Estimate(1.0 - float(values[0]), float(ses[0]), rc.trials)
    p_ana = analytic.p_exist_neighbor(i, cfg.lambda_l, cfg.lambda_e)
    summary = _summary(p_ana, exist.value, exist.std_error, exist.tolerance(3.0))
    return ("rho", "cdf_analytic", "cdf_sim", "se"), rows, summary


def _parse_sweep(text: str, trials: int):
    """The b values of start:stop:step.  Raises ValueError, before building
    any, when the points need more than one estimate's trial budget, each
    point an estimate of its own, counted at no fewer trials than a block."""
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"--sweep-b expects start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise _UsageError(f"--sweep-b expects numbers in start:stop:step, got {text!r}") from None
    if not all(math.isfinite(v) for v in (start, stop, step)) or step <= 0 or stop < start:
        raise _UsageError(f"--sweep-b needs finite numbers, step > 0 and stop >= start, got {text!r}")
    span = (stop - start) / step
    if (span + 1.0) * max(trials, mc._MAX_BLOCK) > mc._TRIAL_BUDGET:
        raise ValueError(
            f"--sweep-b {text} asks for about {span + 1.0:.3g} points of {trials} trials each, "
            f"over the budget of {mc._TRIAL_BUDGET:.3g} trials, a point counting at least {mc._MAX_BLOCK}"
        )
    vals = [round(start + k * step, 12) for k in range(int(round(span)) + 1)]
    return [v for v in vals if v <= stop + 1e-9]


def _run_collude_sweep(rc: RunConfig):
    points = _parse_sweep(rc.sweep_b, rc.trials)
    if rc.lambda_e <= 0:  # every row is normalized by lambda_l / lambda_e
        raise ValueError("colluding window needs lambda_e > 0")
    ratio = rc.lambda_l / rc.lambda_e
    rows = []
    summary_row = None
    for k, b in enumerate(points):
        cfg = rc.network(b=b)
        ana = analytic.mean_degree_colluding(cfg)
        if b <= 1.0:
            # the aggregate power diverges: degree 0, nothing to simulate
            rows.append((b, ana / ratio, float("nan"), float("nan")))
            continue
        est = mc.estimate_generic("colluding_degree", cfg, rc.trials, Rng(_sub_seed(rc.seed, k)), rc.threads).mean()
        row = (b, ana / ratio, est.value / ratio, est.std_error / ratio)
        rows.append(row)
        if summary_row is None or abs(b - 2.0) < abs(summary_row[0] - 2.0):
            summary_row = row
    if summary_row is None:
        raise _UsageError("--sweep-b produced no simulable points (need b > 1)")
    _, ana0, sim0, se0 = summary_row
    summary = _summary(ana0, sim0, se0, 0.03 * ana0)
    return ("b", "sinc_analytic", "degree_sim_normalized", "se"), rows, summary


def _run_collude(rc: RunConfig):
    if rc.sweep_b is not None:
        return _run_collude_sweep(rc)
    cfg = rc.network()
    cap = math.log1p(cfg.p_l / (rc.r_l ** (2.0 * cfg.gain.b) * cfg.sigma2_l)) / math.log(2.0)
    grid = np.linspace(cap / 400.0, cap - cap / 400.0, 100)
    # the link's secrecy rate is a map of the aggregate eavesdropper power
    power = mc.estimate_generic("colluding_power", cfg, rc.trials, Rng(rc.seed), rc.threads).values
    prx_l = np.full(len(power), cfg.p_l * rc.r_l ** (-2.0 * cfg.gain.b))
    values, ses = mc.Sample(msr_link(prx_l, power, cfg.sigma2_l, cfg.sigma2_e)).ecdf(grid)
    colluding = analytic.cdf_msr_colluding(grid, rc.r_l, cfg)
    nearest = analytic.cdf_msr_noncolluding_link(grid, rc.r_l, cfg)
    rows = [
        (rho, float(Fc), float(v), float(Fn), float(se))
        for rho, Fc, v, Fn, se in zip(grid.tolist(), colluding, values, nearest, ses)
    ]
    est = mc.estimate_generic("colluding_degree", cfg, rc.trials, Rng(_sub_seed(rc.seed, 99)), rc.threads).mean()
    ratio = cfg.ratio
    ana = analytic.mean_degree_colluding(cfg) / ratio
    summary = _summary(ana, est.value / ratio, est.std_error / ratio, 0.03 * ana)
    return ("rho", "cdf_colluding_analytic", "cdf_colluding_sim", "cdf_noncolluding_analytic", "se"), rows, summary


def _run_voronoi(rc: RunConfig):
    areas = mc.estimate_generic("voronoi_area", None, rc.trials, Rng(rc.seed), rc.threads).values
    table = analytic.TABLE_VORONOI_MOMENTS.moments
    rows = []
    for k in range(1, 5):
        powk = areas**k
        # one trial has no spread to estimate: SE 0, as Sample.mean() gives
        se = float(np.std(powk, ddof=1) / math.sqrt(len(powk))) if len(powk) > 1 else 0.0
        rows.append((k, table[k - 1], float(powk.mean()), se))
    summary = _summary(1.0, rows[0][2], rows[0][3], 0.01)
    return ("k", "moment_table", "moment_sim", "se"), rows, summary


def _run_selftest(rc: RunConfig, criteria: str | None) -> int:
    from . import acceptance

    names = None if criteria is None else [n.strip() for n in criteria.split(",") if n.strip()]
    if names is not None and not (names and set(names) <= acceptance.CRITERIA.keys()):
        raise _UsageError(f"--criteria {criteria!r} must name one or more of {', '.join(acceptance.CRITERIA)}")
    results = acceptance.run_all(threads=rc.threads, names=names)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<26s} [{r.seconds:7.2f}s]  {r.detail}")
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} criteria passed")
    if rc.out:
        # wall-clock seconds stay on the printed line: the file is the same
        # for every run that passes the same way
        columns = ("criterion", "passed", "detail")
        rows = [(r.name, r.passed if rc.format == "json" else str(r.passed).lower(), r.detail) for r in results]
        summary = _summary(float(len(results)), float(n_pass), 0.0, 0.0, n_pass == len(results))
        _emit(rc, columns, rows, summary)
    return 0 if n_pass == len(results) else 3


@dataclass(frozen=True)
class _Experiment:
    """A subcommand: its runner, default trials (None: it takes none), help
    text, and every RunConfig key its run reads.  Those keys are its flags,
    its config echo and the config-file keys it accepts off their defaults.
    A runner maps a RunConfig to columns, rows and summary; selftest's takes
    the --criteria text too and returns the exit code."""

    run: Callable
    trials: int | None
    help: str
    keys: tuple


# what every sampling run reads: its budget, stream, thread ceiling and output
_RUN = ("trials", "seed", "threads", "out", "format")
# and the densities of the two Poisson fields
_FIELDS = _RUN + ("lambda_l", "lambda_e")
# and the link budget: path-loss exponent, transmit power, the two noise powers
_LINK = _FIELDS + ("b", "power", "sigma2_l", "sigma2_e")

_EXPERIMENTS = {
    "degree": _Experiment(_run_degree, 100_000, "out/in-degree PMFs vs the geometric law", _FIELDS),
    "isolation": _Experiment(_run_isolation, 100_000, "isolation probabilities across density ratios", _FIELDS),
    "threshold": _Experiment(_run_threshold, 100_000, "mean degree under a secrecy-rate threshold", _LINK + ("rho",)),
    "sectors": _Experiment(_run_sectors, 100_000, "sectorized out-degree vs negative binomial", _FIELDS + ("sectors",)),
    "neutralize": _Experiment(_run_neutralize, 2_000, "guard-disk mean degree vs lower bound", _FIELDS + ("guard_radius",)),
    "msr": _Experiment(_run_msr, 100_000, "secrecy-rate CDF to the i-th neighbor", _LINK + ("neighbor",)),
    "collude": _Experiment(_run_collude, 50_000, "colluding-eavesdropper outage and degree", _LINK + ("r_l", "sweep_b")),
    "voronoi": _Experiment(_run_voronoi, 20_000, "typical-cell area moments", _RUN),
    "selftest": _Experiment(_run_selftest, None, "run the acceptance battery", ("threads", "out", "format")),
}


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


_KEY_HELP = {
    "threads": (
        "ceiling on worker threads (default min(CPUs, 8), at most 64); an estimate runs its first block on "
        f"one thread and pools the rest only when that block took {mc._POOL_BLOCK_S * 1e3:g} ms or more; "
        "results are byte-identical at any value"
    ),
}


def _add_key(parser: _Parser, key: str) -> None:
    parser.add_argument("--" + key.replace("_", "-"), dest=key, type=_KEY_TYPES[key], help=_KEY_HELP.get(key))


@functools.cache  # about 100 add_argument calls; parse_args leaves the parser as it was
def _build_parser() -> _Parser:
    parser = _Parser(prog="secgraph", description="secrecy graph experiments over Poisson fields")
    subs = parser.add_subparsers(dest="experiment", metavar="experiment")
    subs.required = True
    for name, exp in _EXPERIMENTS.items():
        sp = subs.add_parser(name, help=exp.help)
        for key in _KEY_TYPES:
            if key in exp.keys:
                _add_key(sp, key)
        if name == "selftest":
            sp.add_argument("--criteria", dest="criteria")
        else:
            sp.add_argument("--check", action="store_true")
            sp.add_argument("--config", dest="config")
    return parser


def _resolve(args: argparse.Namespace) -> RunConfig:
    exp = _EXPERIMENTS[args.experiment]
    values = {"experiment": args.experiment}
    if getattr(args, "config", None):
        file_values = load_config(args.config)
        file_values.pop("experiment", None)  # the subcommand on argv wins
        file_values.pop("out", None)
        values.update(file_values)
    for key in exp.keys:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    if "seed" in exp.keys and "seed" not in values:
        env = os.environ.get("SECGRAPH_SEED")
        if env is not None:
            try:
                values["seed"] = int(env)
            except ValueError:
                raise _UsageError(f"SECGRAPH_SEED must be an integer, got {env!r}") from None
    if "trials" in exp.keys and "trials" not in values:
        values["trials"] = exp.trials
    if "threads" not in values:
        values["threads"] = min(os.cpu_count() or 1, 8)
    return RunConfig(**values)


def main(argv=None) -> int:
    """Entry point; returns the exit code instead of calling sys.exit."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        rc = _resolve(args)
        run = _EXPERIMENTS[rc.experiment].run
        if rc.experiment == "selftest":
            return run(rc, args.criteria)
        columns, rows, summary = run(rc)
        path = _emit(rc, columns, rows, summary)
        _print_summary(rc, summary, path)
        if args.check and not summary["pass"]:
            return 3
        return 0
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, ArithmeticError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
