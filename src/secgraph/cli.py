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

Every CSV starts with the full run configuration echoed as `# key = value`
lines, so any output file doubles as a config: `--config file.csv` (or a
JSON output file) reproduces the run that wrote it.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import analytic, montecarlo as mc
from .pointprocess import Rng, substream_key
from .propagation import GainModel
from .secrecy import NetworkConfig

__all__ = ["RunConfig", "load_config", "save_config", "main"]

_FORMATS = ("csv", "json")
_EXPERIMENTS = (
    "degree",
    "isolation",
    "threshold",
    "sectors",
    "neutralize",
    "msr",
    "collude",
    "voronoi",
    "selftest",
)
_DEFAULT_TRIALS = {
    "degree": 100_000,
    "isolation": 100_000,
    "threshold": 100_000,
    "sectors": 100_000,
    "neutralize": 2_000,
    "msr": 100_000,
    "collude": 50_000,
    "voronoi": 20_000,
    "selftest": 0,
}
_DEFAULT_SEED = 42


class _UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; any two equal RunConfigs produce identical files."""

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
        if self.format not in _FORMATS:
            raise _UsageError(f"format must be one of {_FORMATS}, got {self.format!r}")
        if self.experiment != "selftest" and self.trials < 1:
            raise _UsageError(f"trials must be >= 1, got {self.trials}")
        if self.threads < 1:
            raise _UsageError(f"threads must be >= 1, got {self.threads}")

    def network(self, rho: float | None = None) -> NetworkConfig:
        return NetworkConfig(
            lambda_l=self.lambda_l,
            lambda_e=self.lambda_e,
            p_l=self.power,
            sigma2_l=self.sigma2_l,
            sigma2_e=self.sigma2_e,
            rho=self.rho if rho is None else rho,
            gain=GainModel(kind="unbounded", b=self.b),
        )


_FIELD_TYPES = {f.name: f for f in dataclasses.fields(RunConfig)}
_FLOAT_KEYS = {"lambda_l", "lambda_e", "b", "power", "sigma2_l", "sigma2_e", "rho", "guard_radius", "r_l"}
_INT_KEYS = {"sectors", "neighbor", "trials", "seed", "threads"}


def _coerce(key: str, value):
    if key not in _FIELD_TYPES:
        raise _UsageError(f"unknown config key {key!r}")
    try:
        if key in _FLOAT_KEYS:
            return float(value)
        if key in _INT_KEYS:
            if isinstance(value, float) and value != int(value):
                raise ValueError("not an integer")
            return int(value)
    except (TypeError, ValueError):
        raise _UsageError(f"config key {key!r} expects a number, got {value!r}") from None
    if value is not None and not isinstance(value, str):
        raise _UsageError(f"config key {key!r} expects a string, got {value!r}")
    return value


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


def save_config(rc: RunConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(rc), fh, indent=2, sort_keys=False)
        fh.write("\n")


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


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


# threads never changes results (estimates are bitwise thread-invariant) and
# out is where the file already sits, so neither belongs in the file itself:
# two runs differing only in those knobs must emit identical bytes.
_EPHEMERAL_KEYS = ("threads", "out")


def _echo_config(rc: RunConfig) -> dict:
    d = dataclasses.asdict(rc)
    for key in _EPHEMERAL_KEYS:
        d.pop(key)
    return d


def _write_csv(path: str, rc: RunConfig, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key, value in _echo_config(rc).items():
            fh.write(f"# {key} = {'null' if value is None else value}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt_cell(_plain(v)) for v in row])


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


def _summary(analytic_value, simulated, se, tolerance, passed) -> dict:
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


def _run_degree(rc: RunConfig):
    cfg = rc.network()
    # the in-degree window refuses an over-budget density before any sampling
    mc.in_degree_window(cfg.lambda_l, cfg.lambda_e)
    out = mc.estimate_generic("out_degree", cfg, rc.trials, Rng(rc.seed), rc.threads)
    pmf_out, est_out = out.pmf(), out.mean()
    pmf_in = mc.estimate_generic("in_degree", cfg, rc.trials, Rng(_sub_seed(rc.seed, 1)), rc.threads).pmf()
    width = max(len(pmf_out.probs), len(pmf_in.probs))
    rows = []
    for n in range(width):
        po = float(pmf_out.probs[n]) if n < len(pmf_out.probs) else 0.0
        pi = float(pmf_in.probs[n]) if n < len(pmf_in.probs) else 0.0
        se = math.sqrt(max(po * (1.0 - po), 0.0) / rc.trials)
        rows.append((n, analytic.pmf_out_degree(n, rc.lambda_l, rc.lambda_e), po, pi, se))
    target = cfg.ratio
    tol = 3.0 * est_out.std_error
    summary = _summary(target, est_out.value, est_out.std_error, tol, abs(est_out.value - target) <= tol)
    return ("n", "pmf_analytic_out", "pmf_sim_out", "pmf_sim_in", "se"), rows, summary


def _isolation(cfg: NetworkConfig, trials: int, seed: int, threads: int):
    """Out- and in-isolation Estimates: the share of zeros in an out-degree
    and an in-degree sample."""
    out = mc.estimate_generic("out_degree", cfg, trials, Rng(seed), threads)
    into = mc.estimate_generic("in_degree", cfg, trials, Rng(seed).substream(1), threads)
    return mc.Sample(out.values == 0).mean(), mc.Sample(into.values == 0).mean()


def _run_isolation(rc: RunConfig):
    # the reference row's in-degree window, refused before the ratio rows sample
    mc.in_degree_window(rc.lambda_l, rc.lambda_e)
    rows = []
    for k, q in enumerate((0.25, 0.5, 1.0, 2.0, 4.0)):
        cfg = NetworkConfig(lambda_l=rc.lambda_l, lambda_e=q * rc.lambda_l)
        p_out, p_in = _isolation(cfg, rc.trials, _sub_seed(rc.seed, k), rc.threads)
        p_ana = analytic.p_out_isolation(cfg.lambda_l, cfg.lambda_e)
        rows.append((q, p_ana, p_out.value, p_out.std_error, p_in.value, p_in.std_error))
    cfg0 = rc.network()
    p_out, p_in = _isolation(cfg0, rc.trials, rc.seed, rc.threads)
    gap = p_out.value - p_in.value
    comb = math.hypot(p_out.std_error, p_in.std_error)
    p_ana = analytic.p_out_isolation(cfg0.lambda_l, cfg0.lambda_e)
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
        est = mc.estimate_generic("thresholded_degree", cfg, rc.trials, Rng(_sub_seed(rc.seed, k)), rc.threads).mean()
        rows.append((rho, exact, bound, est.value, est.std_error))
        if rho == rc.rho:
            tol = 0.03 * exact
            summary = _summary(exact, est.value, est.std_error, tol, abs(est.value - exact) <= tol)
    return ("rho", "mean_analytic", "mean_bound", "mean_sim", "se"), rows, summary


def _run_sectors(rc: RunConfig):
    L = rc.sectors
    if L < 1:
        raise _UsageError(f"sectors must be >= 1, got {L}")
    cfg = rc.network()
    sample = mc.estimate_generic("sector_degree", cfg, rc.trials, Rng(rc.seed), rc.threads, L=L)
    pmf, est = sample.pmf(), sample.mean()
    rows = []
    for n in range(len(pmf.probs)):
        p = float(pmf.probs[n])
        se = math.sqrt(max(p * (1.0 - p), 0.0) / rc.trials)
        rows.append((n, analytic.pmf_out_degree_sectored(n, L, rc.lambda_l, rc.lambda_e), p, se))
    target = L * cfg.ratio
    tol = 3.0 * est.std_error
    summary = _summary(target, est.value, est.std_error, tol, abs(est.value - target) <= tol)
    return ("n", "pmf_analytic", "pmf_sim", "se"), rows, summary


def _run_neutralize(rc: RunConfig):
    rows = []
    summary = None
    grid = sorted({0.0, 0.25, 0.5, 0.75, 1.0} | {rc.guard_radius})
    cfg = rc.network()
    for rho_n in grid:
        if rho_n != 0.0:
            mc.neutralization_window(cfg, rho_n)  # refuse an oversized window before sampling any radius
    for k, rho_n in enumerate(grid):
        seed = _sub_seed(rc.seed, k)
        est = mc.estimate_generic("neutralized_degree", cfg, rc.trials, Rng(seed), rc.threads, rho_n=rho_n).mean()
        lb = analytic.mean_out_degree_neutralization_lb(rho_n, cfg.lambda_l, cfg.lambda_e)
        rows.append((rho_n, lb, est.value, est.std_error))
        if rho_n == rc.guard_radius:
            summary = _summary(lb, est.value, est.std_error, 3.0 * est.std_error, est.value >= lb - 3.0 * est.std_error)
    return ("rho_n", "bound", "mean_sim", "se"), rows, summary


def _run_msr(rc: RunConfig):
    cfg = rc.network()
    i = rc.neighbor
    if i < 1:
        raise _UsageError(f"neighbor must be >= 1, got {i}")
    grid = (0.0,) + tuple(np.linspace(0.08, 8.0, 100))
    sample = mc.estimate_generic("neighbor_msr", cfg, rc.trials, Rng(rc.seed), rc.threads, neighbor_index=i)
    values, ses = sample.ecdf(grid)
    rows = []
    for rho, v, se in zip(grid, values, ses):
        rows.append((rho, analytic.cdf_msr_neighbor(rho, i, cfg), float(v), float(se)))
    p_ana = analytic.p_exist_neighbor(i, cfg.lambda_l, cfg.lambda_e)
    p_sim = 1.0 - float(values[0])
    se0 = float(ses[0])
    tol = 3.0 * se0
    summary = _summary(p_ana, p_sim, se0, tol, abs(p_sim - p_ana) <= tol)
    return ("rho", "cdf_analytic", "cdf_sim", "se"), rows, summary


def _parse_sweep(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"--sweep-b expects start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise _UsageError(f"--sweep-b expects numbers in start:stop:step, got {text!r}") from None
    if step <= 0 or stop < start:
        raise _UsageError(f"--sweep-b needs step > 0 and stop >= start, got {text!r}")
    count = int(round((stop - start) / step))
    vals = [round(start + k * step, 12) for k in range(count + 1)]
    return [v for v in vals if v <= stop + 1e-9]


def _run_collude_sweep(rc: RunConfig):
    rows = []
    summary_row = None
    for k, b in enumerate(_parse_sweep(rc.sweep_b)):
        ana = analytic.mean_degree_colluding(rc.lambda_l, rc.lambda_e, b)
        ratio = rc.lambda_l / rc.lambda_e
        if b <= 1.0:
            # the aggregate power diverges: degree 0, nothing to simulate
            rows.append((b, ana / ratio, float("nan"), float("nan")))
            continue
        cfg = NetworkConfig(
            lambda_l=rc.lambda_l, lambda_e=rc.lambda_e, p_l=rc.power,
            sigma2_l=rc.sigma2_l, sigma2_e=rc.sigma2_e,
            gain=GainModel(kind="unbounded", b=b),
        )
        est = mc.estimate_generic("colluding_degree", cfg, rc.trials, Rng(_sub_seed(rc.seed, k)), rc.threads).mean()
        row = (b, ana / ratio, est.value / ratio, est.std_error / ratio)
        rows.append(row)
        if summary_row is None or abs(b - 2.0) < abs(summary_row[0] - 2.0):
            summary_row = row
    if summary_row is None:
        raise _UsageError("--sweep-b produced no simulable points (need b > 1)")
    b0, ana0, sim0, se0 = summary_row
    tol = 0.03 * ana0
    summary = _summary(ana0, sim0, se0, tol, abs(sim0 - ana0) <= tol)
    return ("b", "sinc_analytic", "degree_sim_normalized", "se"), rows, summary


def _run_collude(rc: RunConfig):
    if rc.sweep_b is not None:
        return _run_collude_sweep(rc)
    cfg = rc.network()
    cap = math.log2(1.0 + cfg.p_l / (rc.r_l ** (2.0 * cfg.gain.b) * cfg.sigma2_l))
    grid = tuple(np.linspace(cap / 400.0, cap - cap / 400.0, 100))
    sample = mc.estimate_generic("colluding_msr", cfg, rc.trials, Rng(rc.seed), rc.threads, r_l=rc.r_l)
    rows = []
    for rho, v, se in zip(grid, *sample.ecdf(grid)):
        rows.append(
            (
                rho,
                analytic.cdf_msr_colluding(rho, rc.r_l, cfg),
                float(v),
                analytic.cdf_msr_noncolluding_link(rho, rc.r_l, cfg),
                float(se),
            )
        )
    est = mc.estimate_generic("colluding_degree", cfg, rc.trials, Rng(_sub_seed(rc.seed, 99)), rc.threads).mean()
    ratio = cfg.ratio
    ana = analytic.mean_degree_colluding(cfg.lambda_l, cfg.lambda_e, cfg.gain.b) / ratio
    sim = est.value / ratio
    tol = 0.03 * ana
    summary = _summary(ana, sim, est.std_error / ratio, tol, abs(sim - ana) <= tol)
    return ("rho", "cdf_colluding_analytic", "cdf_colluding_sim", "cdf_noncolluding_analytic", "se"), rows, summary


def _run_voronoi(rc: RunConfig):
    areas = mc.estimate_generic("voronoi_area", None, rc.trials, Rng(rc.seed), rc.threads).values
    table = analytic.TABLE_VORONOI_MOMENTS.moments
    rows = []
    for k in range(1, 5):
        powk = areas**k
        se = float(np.std(powk, ddof=1) / math.sqrt(len(powk)))
        rows.append((k, table[k - 1], float(powk.mean()), se))
    m1, se1 = rows[0][2], rows[0][3]
    summary = _summary(1.0, m1, se1, 0.01, abs(m1 - 1.0) <= 0.01)
    return ("k", "moment_table", "moment_sim", "se"), rows, summary


def _run_selftest(rc: RunConfig, names=None) -> int:
    from . import acceptance

    results = acceptance.run_all(threads=rc.threads, names=names)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<26s} [{r.seconds:7.2f}s]  {r.detail}")
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} criteria passed")
    if rc.out:
        columns = ("criterion", "passed", "seconds", "detail")
        rows = [(r.name, r.passed, r.seconds, r.detail) for r in results]
        summary = _summary(float(len(results)), float(n_pass), 0.0, 0.0, n_pass == len(results))
        _emit(rc, columns, rows, summary)
    return 0 if n_pass == len(results) else 3


_RUNNERS = {
    "degree": _run_degree,
    "isolation": _run_isolation,
    "threshold": _run_threshold,
    "sectors": _run_sectors,
    "neutralize": _run_neutralize,
    "msr": _run_msr,
    "collude": _run_collude,
    "voronoi": _run_voronoi,
}


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--lambda-l", dest="lambda_l", type=float)
    common.add_argument("--lambda-e", dest="lambda_e", type=float)
    common.add_argument("--b", dest="b", type=float)
    common.add_argument("--power", dest="power", type=float)
    common.add_argument("--sigma2-l", dest="sigma2_l", type=float)
    common.add_argument("--sigma2-e", dest="sigma2_e", type=float)
    common.add_argument("--rho", dest="rho", type=float)
    common.add_argument("--trials", dest="trials", type=int)
    common.add_argument("--seed", dest="seed", type=int)
    common.add_argument("--threads", dest="threads", type=int)
    common.add_argument("--out", dest="out")
    common.add_argument("--format", dest="format", choices=_FORMATS)
    common.add_argument("--check", action="store_true")
    common.add_argument("--config", dest="config")

    parser = _Parser(prog="secgraph", description="secrecy graph experiments over Poisson fields")
    subs = parser.add_subparsers(dest="experiment", metavar="experiment")
    subs.required = True
    helps = {
        "degree": "out/in-degree PMFs vs the geometric law",
        "isolation": "isolation probabilities across density ratios",
        "threshold": "mean degree under a secrecy-rate threshold",
        "sectors": "sectorized out-degree vs negative binomial",
        "neutralize": "guard-disk mean degree vs lower bound",
        "msr": "secrecy-rate CDF to the i-th neighbor",
        "collude": "colluding-eavesdropper outage and degree",
        "voronoi": "typical-cell area moments",
        "selftest": "run the acceptance battery",
    }
    for name in _EXPERIMENTS:
        sp = subs.add_parser(name, parents=[common], help=helps[name])
        if name == "sectors":
            sp.add_argument("--sectors", dest="sectors", type=int)
        if name == "neutralize":
            sp.add_argument("--guard-radius", dest="guard_radius", type=float)
        if name == "msr":
            sp.add_argument("--neighbor", dest="neighbor", type=int)
        if name == "collude":
            sp.add_argument("--r-l", dest="r_l", type=float)
            sp.add_argument("--sweep-b", dest="sweep_b")
        if name == "selftest":
            sp.add_argument("--criteria", dest="criteria")
    return parser


def _resolve(args: argparse.Namespace) -> RunConfig:
    values = {"experiment": args.experiment}
    if getattr(args, "config", None):
        file_values = load_config(args.config)
        file_values.pop("experiment", None)  # the subcommand on argv wins
        file_values.pop("out", None)
        values.update(file_values)
    for key in _FIELD_TYPES:
        flag = getattr(args, key, None)
        if flag is not None and key != "experiment":
            values[key] = flag
    if "seed" not in values:
        env = os.environ.get("SECGRAPH_SEED")
        if env is not None:
            try:
                values["seed"] = int(env)
            except ValueError:
                raise _UsageError(f"SECGRAPH_SEED must be an integer, got {env!r}") from None
    if "trials" not in values:
        values["trials"] = _DEFAULT_TRIALS[args.experiment]
    if "threads" not in values:
        values["threads"] = min(os.cpu_count() or 1, 8)
    return RunConfig(**values)


def main(argv=None) -> int:
    """Entry point; returns the exit code instead of calling sys.exit."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        rc = _resolve(args)
        if rc.experiment == "selftest":
            names = None
            if getattr(args, "criteria", None):
                names = [n.strip() for n in args.criteria.split(",") if n.strip()]
            return _run_selftest(rc, names)
        columns, rows, summary = _RUNNERS[rc.experiment](rc)
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
