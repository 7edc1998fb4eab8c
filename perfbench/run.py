#!/usr/bin/env python3
"""secgraph benchmark: CLI workloads timed end to end, or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload cells --seed 1 --seconds 30 --trace 0

The package is used straight from ``src/`` (it needs no build when Cython is
absent).  One run:

1. times ``SETUP_REPEATS`` fresh interpreters that import ``secgraph.cli``
   and finish a tiny warm-up run (``setup_s`` is their median);
2. imports ``secgraph.cli`` into this process and repeats the workload
   until ``--seconds`` have passed (at least ``MIN_REPS`` times).  Repetition
   r runs every case of the workload through ``secgraph.cli.main`` at
   ``--threads 1`` and at ``--threads 2``, alternating which goes first, all
   with a CLI seed derived from (``--seed``, r);
3. checks every CLI run: exit code 0, result file byte-identical across
   passes of the same repetition, and each row against the file's own
   analytic column (``cases.check_rows``); at the end of the run it checks
   lower-bound rows pooled over all repetitions (``cases.check_pooled_bounds``),
   and a failing pooled check counts as one more failed run.

With ``--trace 0`` it reports the median wall time of a pass at each thread
count, ``setup_s``, and the peak resident memory of this process after
repetition 0.  On workloads marked ``calibrated`` the three times are
calibrated to the host's speed (``calibrate.py``): every pass is preceded
by one timing of a fixed reference computation, and the times are scaled by
``REFERENCE_S`` over the run's median reference time.  The raw medians are
on the record line.

With ``--trace 1`` each repetition runs one untraced and two traced passes
and it reports the per-layer metrics of
``tracing.layer_metrics``: times are medians over repetitions, work counts
are those of repetition 0 and repeat exactly for a given ``--seed``.

The last line of standard output is the result object; the line before it
records the environment and any failing check.  ``--out FILE`` also writes
both, with the per-repetition samples and the spans of traced repetition 0,
as one JSON record that ``compare.py`` reads.  Exit code 0 on a completed
run (failed checks are counted in the result), 2 when the run cannot start.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from calibrate import REFERENCE_S, time_reference  # noqa: E402
from cases import WORKLOADS, check_pooled_bounds, check_rows, read_result  # noqa: E402
from tracing import Tracer, estimator_seconds, layer_metrics  # noqa: E402

THREADS = (1, 2)
MIN_REPS = 3
SETUP_REPEATS = 5
SETUP_SNIPPET = "import sys; from secgraph import cli; sys.exit(cli.main(sys.argv[1:]))"
WARMUP_CASE = ("sectors", "--trials", "256", "--threads", "1")
# Per-layer metrics that are timings, reported as medians over repetitions;
# every other per-layer metric is a work count taken from repetition 0.
_TIMING_SUFFIXES = ("self_s", "thread_speedup", "overhead_s")


def rep_seed(seed: int, rep: int) -> int:
    """CLI seed of repetition rep; a pure function of (seed, rep)."""
    return random.Random(f"{seed}:{rep}").randrange(1, 2**31)


def measure_setup(src: Path, work: Path) -> float:
    """Median seconds for a fresh interpreter to import the CLI and run the warm-up case."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    times = []
    for i in range(SETUP_REPEATS):
        argv = [sys.executable, "-c", SETUP_SNIPPET, *WARMUP_CASE, "--seed", str(i), "--out", "warmup.csv"]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"warm-up run exited {proc.returncode}: {proc.stderr.decode(errors='replace')}")
    return statistics.median(times)


def invoke(cli, argv: list[str], tracer: Tracer | None) -> int:
    """One CLI run; its summary print is discarded.  An exception counts as exit code -1."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            if tracer is None:
                return cli.main(argv)
            with tracer.span("cli"):
                return cli.main(argv)
        except Exception:
            traceback.print_exc()
            return -1


def run_pass(cli, cases, seed: int, threads: int, outdir: Path, tracer: Tracer | None = None):
    """Run every case once; returns (wall seconds, [(exit code, result path)])."""
    outdir.mkdir(exist_ok=True)
    runs = []
    t0 = time.perf_counter()
    for i, case in enumerate(cases):
        path = outdir / f"case{i}.csv"
        argv = [*case, "--seed", str(seed), "--threads", str(threads), "--out", str(path)]
        runs.append((invoke(cli, argv, tracer), path))
    return time.perf_counter() - t0, runs


def check_passes(passes: list, cases) -> list[str]:
    """One entry per failing CLI run among passes over the same cases and seed.

    The first pass is the reference: every other pass's files must equal its
    bytes, and its files must pass the row checks.
    """
    failures = []
    for i, case in enumerate(cases):
        name = " ".join(case)
        code0, path0 = passes[0][i]
        ref = path0.read_bytes() if code0 == 0 and path0.exists() else None
        try:
            problems = check_rows(str(path0)) if ref is not None else []
        except (ValueError, KeyError) as e:
            problems = [f"unreadable result file: {e!r}"]
        for k, runs in enumerate(passes):
            code, path = runs[i]
            if code != 0:
                failures.append(f"{name} [pass {k}]: exit code {code}")
            elif ref is None or path.read_bytes() != ref:
                failures.append(f"{name} [pass {k}]: result differs from pass 0")
            elif problems:
                failures.append(f"{name} [pass {k}]: " + "; ".join(problems))
    return failures


class BoundPool:
    """Lower-bound rows of each case across a run's repetitions, for the pooled check."""

    def __init__(self) -> None:
        self.rows: dict[int, list] = {}

    def add(self, runs) -> None:
        for i, (code, path) in enumerate(runs):
            if code != 0 or not path.exists():
                continue
            try:
                _, columns, rows = read_result(str(path))
            except (ValueError, KeyError):
                continue
            if "bound" in columns:
                self.rows.setdefault(i, []).append(rows)

    def failures(self, cases) -> list[str]:
        out = []
        for i, reps in sorted(self.rows.items()):
            problems = check_pooled_bounds(reps)
            if problems:
                out.append(f"{' '.join(cases[i])} [pooled over {len(reps)} repetitions]: " + "; ".join(problems))
        return out


def git_sha(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy
    from secgraph.kernels import backend_name

    return {
        "backend": backend_name(),
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def repetitions(seconds: float):
    """Yield repetition indices until seconds have passed and MIN_REPS are done."""
    end = time.perf_counter() + seconds
    rep = 0
    while rep < MIN_REPS or time.perf_counter() < end:
        yield rep
        rep += 1


def end_to_end(cli, cases, calibrated: bool, seed: int, seconds: float, work: Path):
    walls = {th: [] for th in THREADS}
    refs = []
    attempted, failures, pool = 0, [], BoundPool()
    for rep in repetitions(seconds):
        s = rep_seed(seed, rep)
        passes = {}
        for th in THREADS if rep % 2 == 0 else THREADS[::-1]:
            if calibrated:
                refs.append(time_reference())
            wall, passes[th] = run_pass(cli, cases, s, th, work / f"t{th}")
            walls[th].append(wall)
        attempted += len(cases) * len(THREADS)
        failures += check_passes([passes[th] for th in THREADS], cases)
        pool.add(passes[THREADS[0]])
        if rep == 0:
            # taken after a fixed amount of work: a faster program fitting more
            # repetitions into the run must not read as using more memory
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {f"wall_{th}t_s": (statistics.median(walls[th]), "s") for th in THREADS}
    if calibrated:
        metrics["reference_s"] = (statistics.median(refs), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return metrics, attempted, failures + pool.failures(cases), {"walls": walls, "references": refs}, None


def per_layer(cli, cases, seed: int, seconds: float, work: Path):
    tracer = Tracer()
    per_rep, attempted, failures, spans0, pool = [], 0, [], None, BoundPool()
    for rep in repetitions(seconds):
        s = rep_seed(seed, rep)
        tracer.run_id = rep
        wall_u, untraced = run_pass(cli, cases, s, 1, work / "u1")
        with tracer.installed():
            tracer.spans = []
            wall_t, traced1 = run_pass(cli, cases, s, 1, work / "t1", tracer)
            spans1, tracer.spans = tracer.spans, []
            _, traced2 = run_pass(cli, cases, s, 2, work / "t2", tracer)
            spans2 = tracer.spans
        m = layer_metrics(spans1, tracer.wrapped)
        m["montecarlo.thread_speedup"] = estimator_seconds(spans1) / estimator_seconds(spans2)
        m["trace.overhead_s"] = wall_t - wall_u
        per_rep.append(m)
        if rep == 0:
            spans0 = spans1
        attempted += 3 * len(cases)
        failures += check_passes([untraced, traced1, traced2], cases)
        pool.add(untraced)
    metrics = {}
    for key, value in per_rep[0].items():
        if key.endswith(_TIMING_SUFFIXES):
            value = statistics.median(m[key] for m in per_rep)
        unit = "s" if key.endswith("_s") else "ratio" if key.endswith(("ratio", "speedup")) else "count"
        metrics[key] = (value, unit)
    return metrics, attempted, failures + pool.failures(cases), per_rep, spans0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="secgraph CLI benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full record (environment, failures, spans) as JSON")
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "secgraph" / "cli.py").is_file():
        print(f"perfbench: no secgraph sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        setup_s = None if args.trace else measure_setup(src, work)
        sys.path.insert(0, str(src))
        from secgraph import cli

        env = environment(root, args.seed)
        if args.trace:
            measured = per_layer(cli, workload.cases, args.seed, args.seconds, work)
        else:
            measured = end_to_end(cli, workload.cases, workload.calibrated, args.seed, args.seconds, work)
        metrics, attempted, failures, samples, spans = measured
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: cannot run: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    raw = None
    if not args.trace:
        metrics["setup_s"] = (setup_s, "s")
        raw = {k: v for k, (v, _) in metrics.items() if k.endswith("_s")}
        if workload.calibrated:
            scale = REFERENCE_S / metrics.pop("reference_s")[0]
            metrics = {k: (v * scale if k in raw else v, u) for k, (v, u) in metrics.items()}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    record = {"env": env, "workload": args.workload, "trace": args.trace, "raw": raw, "failures": failures}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({**record, "result": result, "samples": samples, "spans": spans}, fh)
            fh.write("\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
