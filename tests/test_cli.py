"""Command-line surface: config round-trips, output schemas, exit codes.

Runs use a few hundred trials; every statistical gate exercised here was
checked once at the frozen seed, so the assertions are deterministic.
"""

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secgraph import NetworkConfig, Rng, acceptance, cli, montecarlo as mc
from secgraph.cli import RunConfig, _parse_sweep, load_config


def _run(args, tmp_path, out_name="out.csv", extra=()):
    out = tmp_path / out_name
    code = cli.main([*args, "--out", str(out), *extra])
    return code, out


# ------------------------------------------------------------ config files

def test_config_round_trip(tmp_path):
    rc = RunConfig(experiment="degree", lambda_e=0.3, trials=500, seed=9, format="json")
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dataclasses.asdict(rc)))
    loaded = load_config(str(p))
    assert RunConfig(**loaded) == rc


def test_unknown_config_key_is_named(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"lamda_e": 0.5}))
    with pytest.raises(cli._UsageError, match="lamda_e"):
        load_config(str(p))
    code = cli.main(["degree", "--config", str(p)])
    assert code == 1


def test_config_type_errors(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"trials": "many"}))
    with pytest.raises(cli._UsageError, match="trials"):
        load_config(str(p))
    p.write_text(json.dumps({"trials": 10.5}))
    with pytest.raises(cli._UsageError):
        load_config(str(p))
    p.write_text(json.dumps([1, 2]))
    with pytest.raises(cli._UsageError, match="flat"):
        load_config(str(p))
    # a CSV header goes through the same conversion as a JSON config
    c = tmp_path / "cfg.csv"
    c.write_text("# experiment = degree\n# trials = many\nn,pmf\n")
    with pytest.raises(cli._UsageError, match="trials"):
        load_config(str(c))
    assert cli.main(["degree", "--config", str(c)]) == 1


def test_missing_config_file():
    assert cli.main(["degree", "--config", "/nonexistent/cfg.json"]) == 1


# ---------------------------------------------------------- output schemas

def test_csv_schema(tmp_path, capsys):
    code, out = _run(["degree", "--trials", "400", "--seed", "3"], tmp_path)
    assert code == 0
    lines = out.read_text().splitlines()
    echo = [l for l in lines if l.startswith("#")]
    keys = [l[1:].split("=")[0].strip() for l in echo]
    assert "seed" in keys and "experiment" in keys and "trials" in keys
    # knobs that cannot change the numbers stay out of the file
    assert "threads" not in keys and "out" not in keys
    body = [l for l in lines if not l.startswith("#")]
    rows = list(csv.reader(body))
    assert rows[0] == ["n", "pmf_analytic_out", "pmf_sim_out", "pmf_sim_in", "se"]
    for row in rows[1:]:
        assert len(row) == 5
        float(row[1]), float(row[2])  # parseable numerics
    assert "degree" in capsys.readouterr().out


def test_json_schema(tmp_path):
    code, out = _run(
        ["threshold", "--trials", "400", "--seed", "3", "--format", "json"], tmp_path, "t.json"
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"config", "rows", "summary"}
    assert set(doc["summary"]) == {"analytic", "simulated", "se", "tolerance", "pass"}
    assert "threads" not in doc["config"] and "out" not in doc["config"]
    assert doc["config"]["experiment"] == "threshold"
    cols = {"rho", "mean_analytic", "mean_bound", "mean_sim", "se"}
    assert all(set(r) == cols for r in doc["rows"])


def test_csv_output_reloads_as_config(tmp_path):
    code, first = _run(["degree", "--trials", "300", "--seed", "11"], tmp_path, "a.csv")
    assert code == 0
    code2, second = _run(["degree", "--config", str(first)], tmp_path, "b.csv")
    assert code2 == 0
    assert first.read_bytes() == second.read_bytes()


def test_default_output_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["degree", "--trials", "200", "--seed", "1"]) == 0
    assert (tmp_path / "secgraph-degree.csv").exists()


def test_collude_sweep_follows_unequal_noise(tmp_path, capsys):
    # sigma2_e / sigma2_l = 4: the sinc law times 4^(1/b) is the gate
    code, out = _run(
        ["collude", "--sweep-b", "2:3:1", "--sigma2-e", "4", "--trials", "20000", "--seed", "3", "--format", "json"],
        tmp_path, "noise.json", extra=("--check",),
    )
    assert code == 0
    rows = json.loads(out.read_text())["rows"]
    sinc_third = math.sin(math.pi / 3) / (math.pi / 3)
    assert [r["sinc_analytic"] for r in rows] == pytest.approx([4.0 / math.pi, sinc_third * 4 ** (1 / 3)])
    capsys.readouterr()


def test_collude_sweep_refuses_b_and_r_l(tmp_path, capsys):
    # each sweep point sets b, and the sweep has no link, so neither key is read
    for flag, key in (("--b", "b"), ("--r-l", "r_l")):
        code, out = _run(["collude", "--sweep-b", "2:3:1", flag, "4", "--trials", "300"], tmp_path)
        assert code == 1 and not out.exists()
        assert f"collude --sweep-b does not read {key!r}" in capsys.readouterr().err
    code, out = _run(["collude", "--sweep-b", "2:3:1", "--trials", "300", "--seed", "3"], tmp_path, "sweep.csv")
    assert code == 0
    header = [l for l in out.read_text().splitlines() if l.startswith("#")]
    assert "# b = 2.0" not in header and "# r_l = 1.0" not in header
    assert "# sweep_b = 2:3:1" in header
    # the written header reloads as the same run
    code, again = _run(["collude", "--config", str(out)], tmp_path, "again.csv")
    assert code == 0 and again.read_bytes() == out.read_bytes()
    # outside a sweep both keys are read and echoed, with sweep_b as null
    code, out = _run(["collude", "--b", "3", "--r-l", "0.5", "--trials", "300"], tmp_path, "link.csv")
    assert code == 0
    header = [l for l in out.read_text().splitlines() if l.startswith("#")]
    assert {"# b = 3.0", "# r_l = 0.5", "# sweep_b = null"} <= set(header)
    capsys.readouterr()


def test_sweep_null_row_in_json(tmp_path):
    code, out = _run(
        ["collude", "--sweep-b", "1:2:1", "--trials", "400", "--seed", "5", "--format", "json"],
        tmp_path,
        "s.json",
    )
    assert code == 0
    doc = json.loads(out.read_text())
    first, second = doc["rows"]
    assert first["b"] == 1.0
    assert first["degree_sim_normalized"] is None  # divergent point: not simulated
    assert first["sinc_analytic"] == 0.0
    assert isinstance(second["degree_sim_normalized"], float)


# --------------------------------------------------------------- seed rules

def test_seed_env_fallback_and_flag_precedence(tmp_path, monkeypatch):
    monkeypatch.setenv("SECGRAPH_SEED", "123")
    code, out = _run(["degree", "--trials", "200"], tmp_path, "env.csv")
    assert code == 0
    assert "# seed = 123" in out.read_text()
    code, out2 = _run(["degree", "--trials", "200", "--seed", "7"], tmp_path, "flag.csv")
    assert code == 0
    assert "# seed = 7" in out2.read_text()
    monkeypatch.setenv("SECGRAPH_SEED", "xyz")
    assert cli.main(["degree", "--trials", "200"]) == 1


def test_out_of_range_seed_exits_1(tmp_path, capsys, monkeypatch):
    # Rng takes a 64-bit unsigned seed; outside that range the run is
    # refused as a usage error naming seed, before anything samples
    monkeypatch.setattr(mc, "_run_blocks", lambda *a, **k: pytest.fail("sampled with an invalid seed"))
    for seed in ("-1", str(2**64)):
        code, out = _run(["degree", "--trials", "200", "--seed", seed], tmp_path)
        assert code == 1 and not out.exists()
        assert f"seed must be between 0 and 2**64 - 1, got {seed}" in capsys.readouterr().err
    monkeypatch.setenv("SECGRAPH_SEED", "-5")
    code, out = _run(["voronoi", "--trials", "200"], tmp_path)
    assert code == 1 and not out.exists()
    assert "seed must be between 0 and 2**64 - 1, got -5" in capsys.readouterr().err
    assert RunConfig(experiment="degree", seed=2**64 - 1).seed == 2**64 - 1


def test_same_seed_same_bytes(tmp_path):
    _, a = _run(["msr", "--trials", "300", "--seed", "21"], tmp_path, "a.csv")
    _, b = _run(["msr", "--trials", "300", "--seed", "21"], tmp_path, "b.csv")
    _, c = _run(["msr", "--trials", "300", "--seed", "22"], tmp_path, "c.csv")
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_msr_analytic_column_is_one_quadrature_call(tmp_path, monkeypatch):
    from scipy import integrate

    calls = []
    tanhsinh = integrate.tanhsinh

    def counting(*args, **kwargs):
        calls.append(1)
        return tanhsinh(*args, **kwargs)

    monkeypatch.setattr(integrate, "tanhsinh", counting)
    code, _ = _run(["msr", "--trials", "500"], tmp_path)
    assert code == 0
    assert len(calls) == 1


# ------------------------------------------------------------- isolation

def _zeros_share(kind, ratio, trials, rng):
    cfg = NetworkConfig(lambda_l=1.0, lambda_e=1.0 / ratio)
    return mc.Sample(mc.estimate_generic(kind, cfg, trials, rng).values == 0).mean()


def test_in_isolation_at_the_largest_ratio_is_the_share_of_zeros():
    thinned = cli._isolation("in_degree", 1.0, (0.25, 1.0, 10.0), 3000, Rng(8), 1)
    direct = _zeros_share("in_degree", 10.0, 3000, Rng(8))
    assert (thinned[-1].value, thinned[-1].std_error) == (direct.value, direct.std_error)


def test_thinned_in_isolation_matches_the_direct_and_area_routes():
    # one ratio-10 sample thinned to ratios 0.25, 1 and 4, against an
    # independent in-degree sample at each ratio and against the typical-cell
    # route E[exp(-rho A)] over unit-density areas A
    ratios, trials = (0.25, 1.0, 4.0), 20_000
    thinned = cli._isolation("in_degree", 1.0, ratios + (10.0,), trials, Rng(31), 1)
    n_max = mc.estimate_generic("in_degree", NetworkConfig(lambda_l=1.0, lambda_e=0.1), trials, Rng(31)).values
    areas = mc.estimate_generic("voronoi_area", None, 5000, Rng(32)).values
    g = np.random.default_rng(33)
    for k, (ratio, p_in) in enumerate(zip(ratios, thinned)):
        direct = _zeros_share("in_degree", ratio, trials, Rng(40 + k))
        via_areas = mc.Sample(np.exp(-ratio * areas)).mean()
        for other in (direct, via_areas):
            assert abs(p_in.value - other.value) < 6 * math.hypot(p_in.std_error, other.std_error), (ratio, other)
        # the zeros of the same sample thinned by Binomial draws: the
        # conditional mean estimates the same probability with less variance
        drawn = mc.Sample(g.binomial(n_max, ratio / 10.0) == 0).mean()
        assert abs(p_in.value - drawn.value) < 6 * drawn.std_error
        assert p_in.std_error <= drawn.std_error


def test_thinned_out_isolation_matches_its_law():
    # one out-degree sample at ratio 4 thinned to q = lambda_e/lambda_l in
    # {0.25, ..., 4}, against the out-isolation law q/(1+q) and against the
    # zeros of the same sample thinned by Binomial draws, which estimate the
    # same probability with more variance
    qs, trials = (0.25, 0.5, 1.0, 2.0, 4.0), 20_000
    thinned = cli._isolation("out_degree", 1.0, [1.0 / q for q in qs], trials, Rng(51), 1)
    n_max = mc.estimate_generic("out_degree", NetworkConfig(lambda_l=1.0, lambda_e=0.25), trials, Rng(51)).values
    g = np.random.default_rng(52)
    for q, p_out in zip(qs, thinned):
        assert abs(p_out.value - q / (1.0 + q)) < 6 * p_out.std_error, q
        drawn = mc.Sample(g.binomial(n_max, 0.25 / q) == 0).mean()
        assert abs(p_out.value - drawn.value) < 6 * drawn.std_error, q
        assert p_out.std_error <= drawn.std_error, q


def test_isolation_run_draws_one_sample_of_each_degree(tmp_path, monkeypatch):
    kinds = []
    estimate = mc.estimate_generic

    def counting(kind, *args, **kwargs):
        kinds.append(kind)
        return estimate(kind, *args, **kwargs)

    monkeypatch.setattr(mc, "estimate_generic", counting)
    code, _ = _run(["isolation", "--trials", "500", "--seed", "3"], tmp_path)
    assert code == 0
    assert sorted(kinds) == ["in_degree", "out_degree"]


@pytest.mark.parametrize("lambda_e", ["0.1", "0.5"])
def test_isolation_columns_follow_their_streams(tmp_path, lambda_e):
    # every p_out_* comes from one out-degree sample on the run's seed, and
    # every p_in_* from one in-degree sample on its substream 1, each at
    # ratio max(4, lambda_l/lambda_e) and thinned; the summary reads the
    # reference ratio's p_out
    argv = ["isolation", "--lambda-e", lambda_e, "--trials", "600", "--seed", "5", "--format", "json"]
    code, out = _run(argv, tmp_path, "iso.json")
    assert code == 0
    doc = json.loads(out.read_text())
    rho_max = max(4.0, 1.0 / float(lambda_e))
    cfg_max = NetworkConfig(lambda_l=1.0, lambda_e=1.0 / rho_max)
    n_in = mc.estimate_generic("in_degree", cfg_max, 600, Rng(5).substream(1)).values
    n_out = mc.estimate_generic("out_degree", cfg_max, 600, Rng(5)).values
    for row in doc["rows"]:
        ratio = 1.0 / row["ratio_e_over_l"]
        p_out = mc.Sample((1.0 - ratio / rho_max) ** n_out).mean()
        p_in = mc.Sample((1.0 - ratio / rho_max) ** n_in).mean()
        assert (row["p_out_sim"], row["p_out_se"]) == (p_out.value, p_out.std_error)
        assert (row["p_in_sim"], row["p_in_se"]) == (p_in.value, p_in.std_error)
    p_out = mc.Sample((1.0 - (1.0 / float(lambda_e)) / rho_max) ** n_out).mean()
    assert (doc["summary"]["simulated"], doc["summary"]["se"]) == (p_out.value, p_out.std_error)


# ---------------------------------------------------------------- exit codes

def test_usage_errors_exit_1(capsys):
    assert cli.main(["degree", "--format", "xml"]) == 1
    assert cli.main(["not-a-subcommand"]) == 1
    assert cli.main([]) == 1
    assert cli.main(["collude", "--sweep-b", "3:1:0.5"]) == 1
    assert cli.main(["msr", "--neighbor", "0"]) == 1
    capsys.readouterr()


def test_msr_far_neighbor_runs(tmp_path, capsys):
    # the density's constant (pi lambda_l)^i / (i-1)! alone overflows a float
    # for i >= 171; no trial has a positive rate, so the check's SE is 0 and
    # its tolerance is the floor of one count in 2000, times 3
    code, out = _run(["msr", "--neighbor", "200", "--trials", "2000"], tmp_path, extra=("--check",))
    assert code == 0 and out.exists()
    assert "# neighbor = 200" in out.read_text()
    assert "tolerance: 0.0015  ->  pass" in capsys.readouterr().out


def test_zero_se_degree_check_passes(tmp_path, capsys):
    # at lambda_l / lambda_e = 0.001 all 100 out-degrees are 0 at this seed
    code, _ = _run(["degree", "--lambda-e", "1000", "--trials", "100", "--seed", "2"], tmp_path, extra=("--check",))
    assert code == 0
    assert "(SE 0)" in capsys.readouterr().out


def test_numeric_errors_exit_2(tmp_path, capsys):
    code, _ = _run(["collude", "--b", "0.8", "--trials", "100"], tmp_path)
    assert code == 2
    assert "diverges" in capsys.readouterr().err


@pytest.mark.parametrize(
    "experiment",
    [["sectors"], ["threshold"], ["msr"], ["collude", "--sweep-b", "1.5:2:0.5"]],
    ids=["sectors", "threshold", "msr", "collude-sweep"],
)
def test_no_eavesdroppers_exit_2_with_named_message(tmp_path, capsys, experiment):
    # a collude sweep normalizes every row by lambda_l / lambda_e, so it
    # refuses before its first point
    code, out = _run([*experiment, "--lambda-e", "0", "--trials", "100"], tmp_path)
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert "needs lambda_e > 0" in err and "division" not in err


def test_absurd_guard_radius_exits_2_before_sampling(tmp_path, capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before refusing the guard radius")

    monkeypatch.setattr(mc, "_run_blocks", no_sampling)
    code, out = _run(["neutralize", "--guard-radius", "3"], tmp_path)
    assert code == 2 and not out.exists()
    # default lambda_l 1, lambda_e 0.1: survivors have density 0.1 exp(-9 pi)
    lam_eff = 0.1 * math.exp(-9.0 * math.pi)
    w0 = math.sqrt(mc._NEUTRAL_START_SURVIVORS / (math.pi * lam_eff))
    expected = math.pi * (w0 + 3.0) ** 2
    assert expected > 1e12
    assert f"about {expected:.3g} points per trial, over the budget of 1e+06" in capsys.readouterr().err


def test_dense_eavesdroppers_in_guard_disks_exit_2_before_any_block(tmp_path, capsys, monkeypatch):
    # lambda_e 1e5: the start window of radius 2 rho_n holds 1.26e6
    # eavesdroppers per trial against 28 legitimate points, and the count
    # that is budgeted is the larger of the two
    def no_blocks(*args, **kwargs):
        raise AssertionError("planned blocks before refusing the guard disks")

    monkeypatch.setattr(mc, "_blocks", no_blocks)
    code, out = _run(["neutralize", "--lambda-e", "1e5", "--guard-radius", "1"], tmp_path)
    assert code == 2 and not out.exists()
    assert "guard radius 1.0: about 1.26e+06 points per trial, over the budget of 1e+06" in capsys.readouterr().err


def test_clumped_guard_disk_survivors_exit_2_before_any_block(tmp_path, capsys, monkeypatch):
    # lambda_e 2e4 at rho_n 1.5: the start window (radius 2 rho_n) holds
    # 5.65e5 eavesdroppers, within the budget, but the guard disks leave holes
    # of 0.0052 per unit area, each with some 3300 eavesdroppers, so a trial
    # expects to draw those of a window holding half a hole, 1.94e6
    def no_blocks(*args, **kwargs):
        raise AssertionError("planned blocks before refusing the guard disks")

    monkeypatch.setattr(mc, "_blocks", no_blocks)
    code, out = _run(["neutralize", "--lambda-e", "2e4", "--guard-radius", "1.5"], tmp_path)
    assert code == 2 and not out.exists()
    assert "guard radius 1.5: about 1.94e+06 points per trial, over the budget of 1e+06" in capsys.readouterr().err


@pytest.mark.parametrize("radius", ["-1", "nan"])
def test_invalid_guard_radius_exits_2_before_any_block(tmp_path, capsys, monkeypatch, radius):
    # the radii sample from the largest down, but an invalid one goes first
    def no_blocks(*args, **kwargs):
        raise AssertionError("planned blocks before refusing the guard radius")

    monkeypatch.setattr(mc, "_blocks", no_blocks)
    code, out = _run(["neutralize", "--guard-radius", radius], tmp_path)
    assert code == 2 and not out.exists()
    assert "guard radius must be finite and > 0" in capsys.readouterr().err


def test_sparse_sectored_pmf_table_exits_2(tmp_path, capsys, monkeypatch):
    # at lambda_e 1e-7 a ten-trial sample reaches degrees of millions, whose
    # table of Python rows would take gigabytes; refused from the law before
    # any block, also at 5e6 trials, which sampled for 1.6 s and 113 MB first
    def no_blocks(*args, **kwargs):
        raise AssertionError("sampled before refusing the table")

    monkeypatch.setattr(mc, "_blocks", no_blocks)
    for trials in ("10", "5000000"):
        code, out = _run(["sectors", "--lambda-e", "1e-7", "--trials", trials], tmp_path)
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert re.search(r"a PMF table of \d+ rows is longer than the 2097152 rows allowed", err)
        assert f"{trials} trials of the 4-sector degree (mean 4e+07)" in err


@pytest.mark.parametrize("L,m", [(1, 2.1e6), (1, 3e6), (1, 1e8), (4, 6e5), (4, 1e6), (8, 1e6), (30, 1e5), (1000, 3e3)])
def test_sector_table_bound_holds_the_negative_binomial_cdf(L, m):
    # Chernoff's bound on the chance that a degree fits the table is at
    # least the exact CDF at rows - 1, so a refused run fits with a smaller
    # chance than _TABLE_FIT_CHANCE; at a mean below the rows it is 0
    from scipy.stats import nbinom

    bound = cli._log_sector_table_fit(L, m)
    assert nbinom.logcdf(mc._TABLE_ROWS - 1, L, 1.0 / (1.0 + m)) <= bound < 0.0
    assert cli._log_sector_table_fit(L, math.nextafter((mc._TABLE_ROWS - 1) / L, 0.0)) == 0.0


@pytest.mark.parametrize("experiment", ["degree", "isolation"])
def test_sparse_eavesdroppers_exit_2_before_sampling(tmp_path, capsys, monkeypatch, experiment):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before refusing the in-degree window")

    monkeypatch.setattr(mc, "_blocks", no_sampling)
    code, out = _run([experiment, "--lambda-e", "1e-6"], tmp_path)
    assert code == 2 and not out.exists()
    # default lambda_l 1: the window holds ln(1e6 / 1e-4) / 1e-6 legitimate
    # points per trial, and 4 of its areas of eavesdroppers at 1e-6
    expected = mc._BLOCK * (1.0 + 4e-6) * math.log(1e10) / 1e-6
    assert expected > 5e9
    assert f"a block of 256 trials expects about {expected:.3g} array elements" in capsys.readouterr().err


def test_guard_disk_run_over_the_work_budget_exits_2_before_any_block(tmp_path, capsys, monkeypatch):
    # 5e6 trials of 6.3k expected points each at rho_n = 1.5: about 9 hours
    # of filtering on one thread, within the trial budget
    def no_blocks(*args, **kwargs):
        raise AssertionError("planned blocks before refusing the run's work")

    monkeypatch.setattr(mc, "_blocks", no_blocks)
    start = time.perf_counter()
    code, out = _run(["neutralize", "--guard-radius", "1.5", "--lambda-e", "0.1", "--trials", "5000000"], tmp_path)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert re.search(r"5000000 trials expect about 3.1\de[+]10 points in all, over the budget of 2e[+]10 points", err)


@pytest.mark.parametrize(
    "experiment", ["degree", "isolation", "threshold", "sectors", "neutralize", "msr", "collude", "voronoi"]
)
def test_absurd_trial_count_exits_2_before_sampling(tmp_path, capsys, monkeypatch, experiment):
    # a trillion trials would hold 8 TB of outcomes: refused before any block
    # is planned or drawn
    def no_blocks(*args, **kwargs):
        raise AssertionError("ran blocks before refusing the trial count")

    monkeypatch.setattr(mc, "_run_blocks", no_blocks)
    code, out = _run([experiment, "--trials", "1000000000000"], tmp_path)
    assert code == 2 and not out.exists()
    assert "over the budget of 5e+07 trials per estimate" in capsys.readouterr().err


def test_threads_over_the_ceiling_exit_1(tmp_path, capsys):
    code, out = _run(["sectors", "--threads", str(cli._MAX_THREADS + 1), "--trials", "10"], tmp_path)
    assert code == 1 and not out.exists()
    assert f"threads must be between 1 and {cli._MAX_THREADS}" in capsys.readouterr().err
    code, out = _run(["sectors", "--threads", str(cli._MAX_THREADS), "--trials", "10"], tmp_path)
    assert code == 0 and out.exists()
    with pytest.raises(cli._UsageError):
        RunConfig(experiment="sectors", threads=0)


@pytest.mark.filterwarnings("error")
def test_one_trial_voronoi_run_has_se_0(tmp_path, capsys):
    # as Sample.mean() gives every other runner's one-trial SE
    code, out = _run(["voronoi", "--trials", "1", "--format", "json"], tmp_path, "one.json")
    assert code == 0
    doc = json.loads(out.read_text())
    assert [row["se"] for row in doc["rows"]] == [0.0] * 4 and doc["summary"]["se"] == 0.0
    capsys.readouterr()


def test_failed_check_exits_3(tmp_path, capsys):
    # 150 Voronoi trials cannot hit the 1% gate at this seed; verified frozen
    code, _ = _run(["voronoi", "--trials", "150", "--seed", "3"], tmp_path, extra=("--check",))
    assert code == 3
    capsys.readouterr()


def test_selftest_unknown_or_no_criteria_exit_1_before_any_runs(capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("ran a criterion before refusing --criteria")

    monkeypatch.setattr(acceptance, "run_all", no_run)
    assert cli.main(["selftest", "--criteria", "nope"]) == 1
    assert "nope" in capsys.readouterr().err
    assert cli.main(["selftest", "--criteria", "out_degree_law,nope"]) == 1
    assert "out_degree_law,nope" in capsys.readouterr().err
    for empty in (",", "", " , "):
        assert cli.main(["selftest", "--criteria", empty]) == 1
        assert "usage error: --criteria" in capsys.readouterr().err


def test_selftest_single_criterion(capsys):
    assert cli.main(["selftest", "--criteria", "out_degree_law"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "out_degree_law" in out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_selftest_files_hold_no_wall_clock_time(tmp_path, capsys, fmt):
    # the seconds stay on the printed line; two runs write the same bytes
    paths = [tmp_path / f"run{i}.{fmt}" for i in range(2)]
    for path in paths:
        argv = ["selftest", "--criteria", "out_degree_law", "--threads", "1", "--format", fmt, "--out", str(path)]
        assert cli.main(argv) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert "within 10s" in paths[0].read_text()
    assert re.search(r"\[ *\d+\.\d\ds\]", capsys.readouterr().out)


def test_selftest_files_spell_the_pass_flag_as_json_does(tmp_path, capsys):
    argv = ["selftest", "--criteria", "out_degree_law", "--threads", "1", "--out"]
    assert cli.main(argv + [str(tmp_path / "s.csv")]) == 0
    assert cli.main(argv + [str(tmp_path / "s.json"), "--format", "json"]) == 0
    lines = [line for line in (tmp_path / "s.csv").read_text().splitlines() if not line.startswith("#")]
    header, row = csv.reader(lines)
    assert header == ["criterion", "passed", "detail"] and row[:2] == ["out_degree_law", "true"]
    assert json.loads((tmp_path / "s.json").read_text())["rows"][0]["passed"] is True
    capsys.readouterr()


def test_runners_build_rows_of_plain_cells():
    # the CSV writer hands cells to csv.writer as they are, which would
    # spell a bool True and a numpy scalar by its own str
    runs = [RunConfig(experiment=name, trials=300, seed=4) for name in cli._EXPERIMENTS if name != "selftest"]
    for rc in runs + [RunConfig(experiment="collude", sweep_b="1:2:0.5", trials=300, seed=4)]:
        _, rows, _ = cli._EXPERIMENTS[rc.experiment].run(rc)
        assert {type(v) for row in rows for v in row} <= {int, float, str, type(None)}, rc


# ------------------------------------------------------------ fresh imports

def _fresh_python(script, cwd):
    """Run script in a new interpreter that finds this secgraph first; this
    process already holds scipy, so only a new one can see what a run loads."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_numpy_only_subcommands_load_no_scipy(tmp_path):
    script = """
import sys
from secgraph import cli
for name in ("sectors", "degree", "isolation", "voronoi", "neutralize"):
    assert cli.main([name, "--trials", "300", "--threads", "2", "--out", name + ".csv"]) == 0
assert cli.main(["sectors", "--lambda-e", "1e-7", "--trials", "5000000", "--out", "long.csv"]) == 2
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    assert _fresh_python(script, tmp_path) == "[]"


_POOLED_NEUTRALIZE = ["neutralize", "--guard-radius", "1.5", "--lambda-e", "0.5", "--trials", "300", "--seed", "4"]


def test_forced_pool_neutralize_gives_the_serial_bytes(tmp_path, monkeypatch):
    # FORCE_POOL sends every block of every guard radius to the pool, block 0
    # and the fast blocks of radii 0.25 to 0.75 included
    monkeypatch.setattr(mc, "FORCE_POOL", True)
    code, pooled = _run([*_POOLED_NEUTRALIZE, "--threads", "2"], tmp_path, "pooled.csv")
    assert code == 0
    monkeypatch.setattr(mc, "FORCE_POOL", False)
    code, serial = _run([*_POOLED_NEUTRALIZE, "--threads", "1"], tmp_path, "serial.csv")
    assert code == 0
    assert serial.read_bytes() == pooled.read_bytes()


# --------------------------------------------------------------- sweep parse

def test_parse_sweep():
    assert _parse_sweep("1.5:3:0.5", 1000) == [1.5, 2.0, 2.5, 3.0]
    assert _parse_sweep("2:2:1", 1000) == [2.0]
    for bad in ("1:2", "a:b:c", "1:2:0", "3:1:0.5", "nan:2:1", "1:inf:1", "1:2:nan"):
        with pytest.raises(cli._UsageError):
            _parse_sweep(bad, 1000)


def test_sweep_over_the_trial_budget_exits_2_before_building(tmp_path, capsys, monkeypatch):
    # 4.5e12 points are refused from their count alone: no grid, no sampling
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before refusing the sweep")

    monkeypatch.setattr(mc, "estimate_generic", no_sampling)
    start = time.perf_counter()
    code, out = _run(["collude", "--sweep-b", "1.5:6:1e-12", "--trials", "1000"], tmp_path)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and not out.exists()
    assert "about 4.5e+12 points of 1000 trials each, over the budget of 5e+07 trials" in capsys.readouterr().err
    # the budget counts points times trials: 10001 points of 4999 trials fit
    # in 5e7, of 5000 trials they do not
    assert len(_parse_sweep("1:2:1e-4", 4999)) == 10_001
    with pytest.raises(ValueError, match="over the budget"):
        _parse_sweep("1:2:1e-4", 5000)


def test_sweep_points_count_at_least_a_full_block():
    # each point is an estimate with a fixed cost of its own: 1e5 points of
    # one trial took about 17 s, so a point counts at least 4096 trials
    assert len(_parse_sweep("1:12207:1", 1)) == 12_207  # 5e7 / 4096 = 12207.03
    with pytest.raises(ValueError, match="1.22e[+]04 points of 1 trials each, .*, a point counting at least 4096"):
        _parse_sweep("1:12208:1", 1)


@pytest.mark.parametrize("args", [["collude", "--b", "1.05"], ["sectors", "--sectors", "1000000"]])
def test_oversized_blocks_exit_2_before_any_block(tmp_path, capsys, monkeypatch, args):
    # 1.16e5 eavesdroppers per trial, or 1e6 sectors, in a 256-trial block
    def no_blocks(*args, **kwargs):
        raise AssertionError("planned blocks before refusing their size")

    monkeypatch.setattr(mc, "_blocks", no_blocks)
    code, out = _run(args, tmp_path)
    assert code == 2 and not out.exists()
    assert "array elements, over the budget of 1e+07" in capsys.readouterr().err


# ------------------------------------------------------------ derived parser

_RUN_FLAGS = {"--trials", "--seed", "--threads", "--out", "--format", "--config", "--check"}
_RADIO_FLAGS = {"--b", "--power", "--sigma2-l", "--sigma2-e"}
_DENSITY_FLAGS = {"--lambda-l", "--lambda-e"}
# every flag of each subcommand: the run's own keys plus the model keys it reads
_FLAGS = {
    "degree": _RUN_FLAGS | _DENSITY_FLAGS,
    "isolation": _RUN_FLAGS | _DENSITY_FLAGS,
    "threshold": _RUN_FLAGS | _DENSITY_FLAGS | _RADIO_FLAGS | {"--rho"},
    "sectors": _RUN_FLAGS | _DENSITY_FLAGS | {"--sectors"},
    "neutralize": _RUN_FLAGS | _DENSITY_FLAGS | {"--guard-radius"},
    "msr": _RUN_FLAGS | _DENSITY_FLAGS | _RADIO_FLAGS | {"--neighbor"},
    "collude": _RUN_FLAGS | _DENSITY_FLAGS | _RADIO_FLAGS | {"--r-l", "--sweep-b"},
    "voronoi": _RUN_FLAGS,
    "selftest": {"--threads", "--out", "--format", "--criteria"},
}


def _subparsers():
    parser = cli._build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return parser, subs.choices


def test_a_usage_error_leaves_the_next_run_unchanged(tmp_path, capsys):
    # the parser is built once per process, so an argv it refuses must leave
    # nothing in it that a later call sees
    assert cli._build_parser() is cli._build_parser()
    argv = ["sectors", "--trials", "300", "--seed", "3"]
    code, out = _run(argv, tmp_path)
    first = (code, capsys.readouterr().out, out.read_bytes())
    for bad in (["sectors", "--sectors", "x"], ["sectors", "--guard-radius", "1"], ["sectors", "--seed"], ["nope"], []):
        assert cli.main(bad) == 1
    assert capsys.readouterr().err.count("usage error") == 5
    code, out = _run(argv, tmp_path)
    assert (code, capsys.readouterr().out, out.read_bytes()) == first


def test_parser_derives_one_flag_per_config_key():
    parser, choices = _subparsers()
    found = {
        name: {o for a in sp._actions for o in a.option_strings if o not in ("-h", "--help")}
        for name, sp in choices.items()
    }
    assert found == _FLAGS
    assert sum(map(len, found.values())) == 92
    # a config key's flag is its name, parsed to the key's type
    declared = {"float": float, "int": int, "str": str, "str | None": str}
    values = {float: "2.5", int: "3", str: "1:2:1"}
    texts = {"out": "x.csv", "format": "json"}
    for name, flags in _FLAGS.items():
        # a collude sweep reads neither b nor r_l, so collude is parsed in both modes
        modes = (flags - {"--sweep-b"}, flags - {"--b", "--r-l"}) if name == "collude" else (flags,)
        for given in modes:
            argv = [name]
            for flag in sorted(given - {"--config", "--check", "--criteria"}):
                key = flag[2:].replace("-", "_")
                argv += [flag, texts.get(key, values[declared[RunConfig.__dataclass_fields__[key].type]])]
            rc = cli._resolve(parser.parse_args(argv))
            for flag, text in zip(argv[1::2], argv[2::2]):
                key = flag[2:].replace("-", "_")
                kind = declared[RunConfig.__dataclass_fields__[key].type]
                assert type(getattr(rc, key)) is kind and getattr(rc, key) == kind(text), (name, key)
            # the echo holds the experiment and the read keys, less threads and
            # out; collude echoes an unset sweep_b as null
            echoed = {"--" + k.replace("_", "-") for k in cli._echo_config(rc)}
            ephemeral = {"--config", "--check", "--criteria", "--threads", "--out"}
            assert echoed == (given - ephemeral) | {"--experiment"} | (flags & {"--sweep-b"})


def test_a_flag_the_run_does_not_read_exits_1(capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("ran with a flag its subcommand does not read")

    monkeypatch.setattr(mc, "_run_blocks", no_run)
    monkeypatch.setattr(acceptance, "run_all", no_run)
    every = set().union(*_FLAGS.values())
    for name, flags in _FLAGS.items():
        for flag in sorted(every - flags):
            assert cli.main([name, flag, "1"]) == 1, (name, flag)
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    # selftest reads no sampling key, so none of these may reach it
    assert cli.main(["selftest", "--trials", "5", "--seed", "3", "--lambda-e", "9", "--check"]) == 1


# one value off the default for each model key
_OFF_DEFAULT = {
    "lambda_l": "0.8", "lambda_e": "0.3", "b": "3", "power": "5", "sigma2_l": "2", "sigma2_e": "3",
    "rho": "2.5", "sectors": "2", "guard_radius": "0.3", "neighbor": "2", "r_l": "0.5", "sweep_b": "1.5:2:0.5",
}
_READS = [
    (name, key) for name, exp in cli._EXPERIMENTS.items() for key in exp.keys if key not in cli._RUN
]


@pytest.fixture(scope="module")
def default_results(tmp_path_factory):
    """JSON rows and summary of each sampling subcommand at its defaults."""
    out = {}
    for name in {name for name, _ in _READS}:
        path = tmp_path_factory.mktemp(name) / "default.json"
        assert cli.main([name, "--trials", "300", "--seed", "4", "--format", "json", "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        out[name] = (doc["rows"], doc["summary"])
    return out


@pytest.mark.parametrize("name,key", _READS)
def test_every_model_key_a_subcommand_takes_reaches_its_output(tmp_path, capsys, default_results, name, key):
    # isolation's rows depend on lambda_e / lambda_l alone, so the summary
    # counts as output too
    assert set(_OFF_DEFAULT) == {key for _, key in _READS}
    path = tmp_path / "off.json"
    flag = "--" + key.replace("_", "-")
    argv = [name, flag, _OFF_DEFAULT[key], "--trials", "300", "--seed", "4", "--format", "json", "--out", str(path)]
    assert cli.main(argv) == 0
    doc = json.loads(path.read_text())
    assert (doc["rows"], doc["summary"]) != default_results[name]
    assert doc["config"][key] == cli._KEY_TYPES[key](_OFF_DEFAULT[key])
    capsys.readouterr()


def _old_sectors_header(rho: str) -> str:
    # a result file from before headers were trimmed echoed every key
    return (
        "# experiment = sectors\n# lambda_l = 1.0\n# lambda_e = 0.1\n# b = 2.0\n# power = 1.0\n"
        "# sigma2_l = 1.0\n# sigma2_e = 1.0\n"
        f"# rho = {rho}\n"
        "# sectors = 4\n# guard_radius = 0.5\n# neighbor = 1\n# r_l = 1.0\n# sweep_b = null\n"
        "# trials = 300\n# seed = 5\n# format = csv\nn,pmf_analytic,pmf_sim,se\n"
    )


def test_config_refuses_an_unread_key_off_its_default(tmp_path, capsys):
    old = tmp_path / "old.csv"
    old.write_text(_old_sectors_header("2.0"))
    code, out = _run(["sectors", "--config", str(old)], tmp_path)
    assert code == 1 and not out.exists()
    assert "'rho'" in capsys.readouterr().err
    old.write_text(_old_sectors_header("0.0"))
    code, out = _run(["sectors", "--config", str(old)], tmp_path)
    assert code == 0
    lines = out.read_text().splitlines()
    assert [l for l in lines if l.startswith("#")] == [
        "# experiment = sectors", "# lambda_l = 1.0", "# lambda_e = 0.1", "# sectors = 4",
        "# trials = 300", "# seed = 5", "# format = csv",
    ]
    # direct construction passes through the same check
    with pytest.raises(cli._UsageError, match="voronoi does not read 'lambda_e'"):
        RunConfig(experiment="voronoi", lambda_e=0.5)
    assert RunConfig(experiment="voronoi", lambda_e=0.1).lambda_e == 0.1


def test_seed_env_applies_only_where_a_seed_is_read(monkeypatch):
    monkeypatch.setenv("SECGRAPH_SEED", "xyz")
    parser = cli._build_parser()
    assert cli._resolve(parser.parse_args(["selftest"])).seed == cli._DEFAULT_SEED
    with pytest.raises(cli._UsageError, match="SECGRAPH_SEED"):
        cli._resolve(parser.parse_args(["voronoi"]))


def test_default_trials_per_experiment():
    parser = cli._build_parser()
    expected = {
        "degree": 100_000, "isolation": 100_000, "threshold": 100_000, "sectors": 100_000, "msr": 100_000,
        "neutralize": 2_000, "collude": 50_000, "voronoi": 20_000,
    }
    assert {name: cli._resolve(parser.parse_args([name])).trials for name in expected} == expected
    assert cli._EXPERIMENTS["selftest"].trials is None  # the battery sets its own budgets


# ------------------------------------------------------------------ defaults

def test_trial_defaults_per_experiment(tmp_path):
    code, out = _run(["neutralize", "--seed", "2", "--guard-radius", "0.3", "--lambda-e", "0.5"], tmp_path)
    assert code == 0
    assert "# trials = 2000" in out.read_text()  # neutralization is the slow one


def test_runconfig_network_mapping():
    rc = RunConfig(experiment="threshold", lambda_e=0.2, b=3.0, power=2.0, rho=1.0)
    cfg = rc.network()
    assert cfg.gain.kind == "unbounded" and cfg.gain.b == 3.0
    assert cfg.lambda_e == 0.2 and cfg.p_l == 2.0 and cfg.rho == 1.0
    assert rc.network(rho=0.25).rho == 0.25


# ------------------------------------------------- any input fails cleanly

def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0**x)


def _log_int(lo, hi):
    return _log_uniform(lo, hi).map(lambda x: max(lo, min(hi, round(x))))


# every model key over many decades; a key absent here (seed, threads, out,
# format) holds a value that no refusal reads
_KEY_VALUES = {
    "lambda_l": _log_uniform(1e-6, 1e6),
    "lambda_e": _log_uniform(1e-6, 1e6),
    "b": _log_uniform(0.5, 50.0),
    "power": _log_uniform(1e-12, 1e12),
    "sigma2_l": _log_uniform(1e-12, 1e12),
    "sigma2_e": _log_uniform(1e-12, 1e12),
    "rho": st.one_of(st.just(0.0), _log_uniform(1e-6, 1e3)),
    "sectors": _log_int(1, 10**7),
    "guard_radius": _log_uniform(1e-6, 1e3),
    "neighbor": _log_int(1, 10**6),
    "r_l": _log_uniform(1e-6, 1e6),
    "trials": _log_int(1, 10**8),
}
_SWEEPS = st.tuples(_log_uniform(0.5, 50.0), _log_uniform(1e-6, 50.0), _log_uniform(1e-6, 10.0)).map(
    lambda t: f"{t[0]!r}:{t[0] + t[1]!r}:{t[2]!r}"
)
# (subcommand, keys drawn): collude in both of its modes; selftest sets its
# own budgets and takes no sampling key
_MODES = [(name, exp.keys) for name, exp in cli._EXPERIMENTS.items() if name != "selftest"] + [
    ("collude", tuple(k for k in cli._EXPERIMENTS["collude"].keys if k not in ("b", "r_l")))
]


class _Hung(BaseException):
    pass


def _hung(signum, frame):
    raise _Hung("an example ran over 30 s")


@pytest.mark.parametrize("name,keys", _MODES, ids=[name for name, _ in _MODES[:-1]] + ["collude-sweep"])
def test_every_input_exits_0_1_or_2_and_budget_refusals_run_no_block(name, keys, tmp_path_factory):
    # every key the run reads is drawn over many decades, and every block is
    # cut to one trial; whatever the input, main returns an exit code, and a
    # run refused over a budget is refused before its first block
    out = tmp_path_factory.mktemp(name) / "out.csv"

    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(st.fixed_dictionaries({k: v for k, v in _KEY_VALUES.items() if k in keys}), _SWEEPS)
    def check(values, sweep):
        argv = [name, "--out", str(out)]
        for key, value in values.items():
            argv += ["--" + key.replace("_", "-"), repr(value)]
        if "sweep_b" in keys and "b" not in keys:
            argv += ["--sweep-b", sweep]
        ran = []
        err = io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mc, "_blocks", lambda trials, size: ran.append(trials) or [(0, 1)])
            previous = signal.signal(signal.SIGALRM, _hung)
            signal.alarm(30)
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)
        assert code in (0, 1, 2), (argv, code, err.getvalue())
        if "over the budget" in err.getvalue():
            assert not ran, (argv, err.getvalue())

    check()
