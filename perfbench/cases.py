"""The benchmark's workloads and the correctness check of each CLI result file.

A workload is a fixed list of ``secgraph`` CLI invocations.  Trial counts are
chosen so that one pass over a workload takes one to three seconds on one
core of a 2-core machine: enough trials for the row checks to be reliable,
and in ``exact_laws`` enough Monte Carlo work that the deterministic
stable-law quadrature is not nearly all of the pass, yet few enough trials
that a 30-second run holds about seven passes at each thread count (with
twice the trials it held five).  The case lists, and
why each workload exists, are part of the benchmark's definition and must
not change between the commits it compares.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    why: str
    cases: tuple
    # Report end-to-end times in calibrated seconds (calibrate.py).
    calibrated: bool = True


WORKLOADS = {
    "neutralize": Workload(
        why=(
            "guard-disk estimator at lambda_e 0.1 (window size) and 0.5 "
            "(per-trial loop): neutral_survivors dominates, no stable law"
        ),
        cases=(
            ("neutralize", "--guard-radius", "1.5", "--lambda-e", "0.1", "--trials", "24"),
            ("neutralize", "--guard-radius", "1.5", "--lambda-e", "0.5", "--trials", "24"),
        ),
        # Its passes are numpy work on arrays of millions of points, whose
        # speed does not follow the reference: over ten seeds calibration
        # widened its spreads (1t/2t wall 12.6%/10.8% calibrated against
        # 11.9%/8.6% raw), so its times are raw seconds.
        calibrated=False,
    ),
    "cells": Workload(
        why=(
            "voronoi and isolation: per-trial Python loops "
            "around cell_area and count_in_cell that hold the GIL"
        ),
        cases=(
            ("voronoi", "--trials", "6000"),
            ("isolation", "--trials", "2500"),
        ),
    ),
    "exact_laws": Workload(
        why=(
            "collude, msr, threshold, sectors: vectorized distance-domain "
            "blocks plus stable-law and quadrature closed forms, no kernel"
        ),
        cases=(
            ("collude", "--b", "3", "--power", "10", "--trials", "15000"),
            ("collude", "--sweep-b", "1.5:6:0.5", "--trials", "15000"),
            ("msr", "--power", "10", "--trials", "15000"),
            ("threshold", "--power", "5", "--rho", "1", "--trials", "50000"),
            ("sectors", "--trials", "50000"),
        ),
    ),
}

# Which end-to-end metrics each per-layer metric should move, and on which
# workloads; on every other workload the prediction is no change.
PREDICTIONS = [
    {"per_layer": ["kernels.neutral_survivors.self_s", "kernels.neutral_survivors.calls",
                   "kernels.neutral_survivors.points"],
     "moves": ["wall_1t_s", "wall_2t_s"], "on": ["neutralize"]},
    {"per_layer": ["kernels.cell_area.self_s", "kernels.cell_area.calls", "kernels.cell_area.candidates",
                   "kernels.cell_area.used_ratio"],
     "moves": ["wall_1t_s", "wall_2t_s"], "on": ["cells"]},
    {"per_layer": ["kernels.count_in_cell.self_s", "kernels.count_in_cell.calls", "kernels.count_in_cell.pairs"],
     "moves": ["wall_1t_s", "wall_2t_s"], "on": ["cells"]},
    {"per_layer": ["montecarlo.self_s", "montecarlo.trials"],
     "moves": ["wall_1t_s", "wall_2t_s"], "on": ["neutralize", "cells"]},
    {"per_layer": ["montecarlo.thread_speedup"], "moves": ["wall_2t_s"], "on": ["cells", "exact_laws"]},
    {"per_layer": ["stable.cdf_normalized.self_s", "stable.cdf_normalized.points"],
     "moves": ["wall_1t_s", "wall_2t_s"], "on": ["exact_laws"]},
    {"per_layer": ["analytic.self_s", "analytic.calls"], "moves": ["wall_1t_s", "wall_2t_s"], "on": ["exact_laws"]},
    {"per_layer": ["cli.self_s", "trace.overhead_s"], "moves": [], "on": []},
]

# Standard errors of slack in a two-sided row check: sampling noise does not
# fail a row by chance (about 2e-9 per row for a normal estimate), while a
# bias of that size does.
K_SE = 6.0
# Slack for the neutralization lower bound in one file.  Degrees under guard
# disks are close to geometric, and at 24 trials the sample standard error is
# small exactly when the sample mean is: simulated geometric rows at the
# bound fail with probability 1.4e-4 at 8 standard errors and 4e-6 at 12.
# At 12 the row check only catches gross errors, hence the pooled check.
K_BOUND = 12.0
# Slack for the lower bound pooled over a run's repetitions (72 trials or
# more): simulated geometric rows at the bound fail by chance with
# probability 6.5e-5 at 72 trials and 1e-5 at 168, while at 168 trials a
# mean biased to half the bound fails with probability 0.99997.
K_POOLED = 6.0

# analytic column -> (simulated column, standard-error column, is a probability)
_PAIRS = {
    "moment_table": ("moment_sim", "se", False),
    "p_out_analytic": ("p_out_sim", "p_out_se", True),
    "cdf_colluding_analytic": ("cdf_colluding_sim", "se", True),
    "sinc_analytic": ("degree_sim_normalized", "se", False),
    "cdf_analytic": ("cdf_sim", "se", True),
    "mean_analytic": ("mean_sim", "se", False),
    "pmf_analytic": ("pmf_sim", "se", True),
}


def read_result(path: str):
    """Config echo and data rows of a CLI CSV result file."""
    config = {}
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    body = []
    for line in lines:
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            config[key.strip()] = value.strip()
        else:
            body.append(line)
    reader = csv.DictReader(body)
    rows = [{k: float(v) if v != "" else math.nan for k, v in row.items()} for row in reader]
    return config, reader.fieldnames or [], rows


def check_rows(path: str) -> list[str]:
    """Row-level checks of a result file against its own analytic column.

    Each simulated value must lie within K_SE standard errors of its analytic
    value.  For a probability the standard error is at least the binomial one
    of the analytic value, since the sample's own is too small when only a
    few trials hit, and never below one count in ``trials``.  The
    neutralization estimate need only clear its lower bound, by K_BOUND
    standard errors, and isolation must not reverse the out/in ordering
    beyond noise.  Returns a description of every failing row.
    """
    config, columns, rows = read_result(path)
    trials = float(config["trials"])
    if not rows:
        return [f"{path}: no data rows"]
    pairs = [(ana, *rest) for ana, rest in _PAIRS.items() if ana in columns]
    if not pairs and "bound" not in columns:
        return [f"{path}: no analytic column among {columns}"]
    problems = []
    for i, row in enumerate(rows):
        if "bound" in columns:
            tol = K_BOUND * max(row["se"], 1.0 / trials)
            if not row["mean_sim"] >= row["bound"] - tol:
                problems.append(f"row {i}: mean_sim {row['mean_sim']} below bound {row['bound']} - {tol}")
        for ana, sim, se, is_probability in pairs:
            se_floor = math.sqrt(row[ana] * (1.0 - row[ana]) / trials) if is_probability else 0.0
            tol = K_SE * max(row[se], se_floor, 1.0 / trials)
            if not abs(row[sim] - row[ana]) <= tol:
                problems.append(f"row {i}: {sim} {row[sim]} vs {ana} {row[ana]}, tolerance {tol}")
        if "p_in_sim" in columns:
            tol = K_SE * max(math.hypot(row["p_in_se"], row["p_out_se"]), 1.0 / trials)
            if not row["p_in_sim"] < row["p_out_sim"] + tol:
                problems.append(f"row {i}: p_in_sim {row['p_in_sim']} above p_out_sim {row['p_out_sim']} + {tol}")
    return problems


def check_pooled_bounds(reps: list[list[dict]]) -> list[str]:
    """The lower-bound check on rows pooled over independent repetitions.

    reps holds one result's rows per repetition, all at the same trial
    count, so the pooled mean is the mean of the row means and its standard
    error the root sum of squares of the row errors over the count.
    """
    problems = []
    for i, rows in enumerate(zip(*reps)):
        mean = math.fsum(r["mean_sim"] for r in rows) / len(rows)
        se = math.sqrt(math.fsum(r["se"] ** 2 for r in rows)) / len(rows)
        if not mean >= rows[0]["bound"] - K_POOLED * se:
            problems.append(f"row {i}: pooled mean_sim {mean} below bound {rows[0]['bound']} - {K_POOLED * se}")
    return problems
