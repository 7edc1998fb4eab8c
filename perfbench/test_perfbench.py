"""Tests of the benchmark itself, at small trial counts.

Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from calibrate import reference  # noqa: E402
from cases import check_pooled_bounds, check_rows  # noqa: E402
from tracing import Tracer, layer_metrics, self_times  # noqa: E402

from secgraph import cli  # noqa: E402

# One case per kernel plus the stable-law path, small enough for a test.
CASES = (
    ("voronoi", "--trials", "300"),
    ("isolation", "--trials", "300"),
    ("neutralize", "--guard-radius", "1.5", "--lambda-e", "0.5", "--trials", "24"),
    ("collude", "--b", "3", "--power", "10", "--trials", "500"),
)
SEED = 11


def traced_pass(outdir: Path):
    tracer = Tracer()
    with tracer.installed():
        wall, runs = run.run_pass(cli, CASES, SEED, 1, outdir, tracer)
    return wall, runs, tracer


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    base = tmp_path_factory.mktemp("passes")
    _, untraced = run.run_pass(cli, CASES, SEED, 1, base / "untraced")
    first = traced_pass(base / "traced_a")
    second = traced_pass(base / "traced_b")
    return untraced, first, second


def test_tracing_changes_no_output(passes):
    untraced, (_, traced, _), _ = passes
    assert [code for code, _ in untraced] == [0] * len(CASES)
    for (_, a), (_, b) in zip(untraced, traced):
        assert a.read_bytes() == b.read_bytes()
    assert run.check_passes([untraced, traced], CASES) == []


def test_counts_repeat_for_a_fixed_seed(passes):
    _, (_, _, t1), (_, _, t2) = passes
    counts = [
        {k: v for k, v in layer_metrics(t.spans, t.wrapped).items() if not k.endswith("self_s")} for t in (t1, t2)
    ]
    assert counts[0] == counts[1]
    for kernel in ("cell_area", "count_in_cell", "neutral_survivors"):
        assert counts[0][f"kernels.{kernel}.calls"] > 0
    assert counts[0]["stable.cdf_normalized.points"] > 0


def test_self_times_fit_in_wall_time(passes):
    _, (wall, _, tracer), _ = passes
    selfs = self_times(tracer.spans)
    assert min(selfs.values()) >= -1e-9
    assert sum(selfs.values()) <= wall
    metrics = layer_metrics(tracer.spans, tracer.wrapped)
    assert sum(v for k, v in metrics.items() if k.endswith("self_s")) == pytest.approx(sum(selfs.values()))


def test_row_check_rejects_a_biased_result(passes):
    untraced, _, _ = passes
    path = untraced[0][1]  # voronoi: k, moment_table, moment_sim, se
    lines = path.read_text(encoding="utf-8").splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    k, table, sim, se = lines[header + 1].split(",")
    lines[header + 1] = ",".join([k, table, repr(float(sim) + 10 * float(se) + 0.1), se])
    bad = path.with_name("biased.csv")
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert check_rows(str(path)) == []
    assert len(check_rows(str(bad))) == 1


def test_pooled_bound_check_rejects_a_biased_mean():
    rng = np.random.default_rng(5)

    def reps(scale):
        out = []
        for _ in range(7):
            degrees = scale * (rng.geometric(1 / 51.0, size=24) - 1)
            out.append([{"bound": 50.0, "mean_sim": degrees.mean(), "se": degrees.std(ddof=1) / np.sqrt(24)}])
        return out

    assert check_pooled_bounds(reps(1.0)) == []
    assert len(check_pooled_bounds(reps(0.4))) == 1


def test_reference_computation_is_fixed():
    assert reference() == reference()


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "cells", "--seed", "1", "--seconds", "1"]) == 2
