"""Command-line surface: config round-trips, output schemas, exit codes.

Runs use a few hundred trials; every statistical gate exercised here was
checked once at the frozen seed, so the assertions are deterministic.
"""

import csv
import json
import math

import pytest

from secgraph import cli, montecarlo as mc
from secgraph.cli import RunConfig, _parse_sweep, load_config, save_config


def _run(args, tmp_path, out_name="out.csv", extra=()):
    out = tmp_path / out_name
    code = cli.main([*args, "--out", str(out), *extra])
    return code, out


# ------------------------------------------------------------ config files

def test_config_round_trip(tmp_path):
    rc = RunConfig(experiment="degree", lambda_e=0.3, trials=500, seed=9, format="json")
    p = tmp_path / "cfg.json"
    save_config(rc, str(p))
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


def test_same_seed_same_bytes(tmp_path):
    _, a = _run(["msr", "--trials", "300", "--seed", "21"], tmp_path, "a.csv")
    _, b = _run(["msr", "--trials", "300", "--seed", "21"], tmp_path, "b.csv")
    _, c = _run(["msr", "--trials", "300", "--seed", "22"], tmp_path, "c.csv")
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


# ---------------------------------------------------------------- exit codes

def test_usage_errors_exit_1(capsys):
    assert cli.main(["degree", "--format", "xml"]) == 1
    assert cli.main(["not-a-subcommand"]) == 1
    assert cli.main([]) == 1
    assert cli.main(["collude", "--sweep-b", "3:1:0.5"]) == 1
    assert cli.main(["msr", "--neighbor", "0"]) == 1
    capsys.readouterr()


def test_numeric_errors_exit_2(tmp_path, capsys):
    code, _ = _run(["collude", "--b", "0.8", "--trials", "100"], tmp_path)
    assert code == 2
    assert "diverges" in capsys.readouterr().err


def test_absurd_guard_radius_exits_2_before_sampling(tmp_path, capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before refusing the guard radius")

    monkeypatch.setattr(mc, "estimate_generic", no_sampling)
    code, out = _run(["neutralize", "--guard-radius", "3"], tmp_path)
    assert code == 2 and not out.exists()
    # default lambda_l 1, lambda_e 0.1: survivors have density 0.1 exp(-9 pi)
    lam_eff = 0.1 * math.exp(-9.0 * math.pi)
    w0 = math.sqrt(mc._NEUTRAL_START_SURVIVORS / (math.pi * lam_eff))
    expected = math.pi * (w0 + 3.0) ** 2
    assert expected > 1e12
    assert f"about {expected:.3g} legitimate points" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["degree", "isolation"])
def test_sparse_eavesdroppers_exit_2_before_sampling(tmp_path, capsys, monkeypatch, experiment):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before refusing the in-degree window")

    monkeypatch.setattr(mc, "estimate_generic", no_sampling)
    code, out = _run([experiment, "--lambda-e", "1e-6"], tmp_path)
    assert code == 2 and not out.exists()
    # default lambda_l 1: the window holds ln(1e6 / 1e-4) / 1e-6 points per trial
    expected = mc._BLOCK * math.log(1e10) / 1e-6
    assert expected > 5e9
    assert f"about {expected:.3g} legitimate points per 256-trial block" in capsys.readouterr().err


def test_failed_check_exits_3(tmp_path, capsys):
    # 150 Voronoi trials cannot hit the 1% gate at this seed; verified frozen
    code, _ = _run(["voronoi", "--trials", "150", "--seed", "1"], tmp_path, extra=("--check",))
    assert code == 3
    capsys.readouterr()


def test_selftest_unknown_criterion_exit_2(capsys):
    assert cli.main(["selftest", "--criteria", "nope"]) == 2
    assert "nope" in capsys.readouterr().err


def test_selftest_single_criterion(capsys):
    assert cli.main(["selftest", "--criteria", "out_degree_law"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "out_degree_law" in out


# --------------------------------------------------------------- sweep parse

def test_parse_sweep():
    assert _parse_sweep("1.5:3:0.5") == [1.5, 2.0, 2.5, 3.0]
    assert _parse_sweep("2:2:1") == [2.0]
    for bad in ("1:2", "a:b:c", "1:2:0", "3:1:0.5"):
        with pytest.raises(cli._UsageError):
            _parse_sweep(bad)


# ------------------------------------------------------------------ defaults

def test_trial_defaults_per_experiment(tmp_path):
    code, out = _run(["neutralize", "--seed", "2", "--guard-radius", "0.3", "--lambda-e", "0.5"], tmp_path)
    assert code == 0
    assert "# trials = 2000" in out.read_text()  # neutralization is the slow one


def test_runconfig_network_mapping():
    rc = RunConfig(experiment="collude", lambda_e=0.2, b=3.0, power=2.0, rho=1.0)
    cfg = rc.network()
    assert cfg.gain.kind == "unbounded" and cfg.gain.b == 3.0
    assert cfg.lambda_e == 0.2 and cfg.p_l == 2.0 and cfg.rho == 1.0
    assert rc.network(rho=0.25).rho == 0.25
