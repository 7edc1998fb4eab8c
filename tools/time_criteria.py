#!/usr/bin/env python3
"""Time `secgraph selftest` criteria in two checkouts, alternating which goes first.

    python3 tools/time_criteria.py --parent ../parent --change . \\
        --criteria neutralization --pairs 5 --threads 1,2 --label pr27_criteria

Each pair runs `python -m secgraph.cli selftest --criteria NAMES --threads T`
once from each checkout's `src/` (the parent first in even pairs, the change
first in odd ones), at every thread count in --threads.  A criterion's
seconds are those its printed line reports; `wall_s` is the whole
subprocess, interpreter start included.  BENCH_<label>.json (in --out-dir)
holds every run and, per thread count and timing, each side's median and
quartiles and the pairs in which the change was faster.  Exit code 0 when
every run passed its criteria, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
# "PASS  name [   1.23s]  detail", as `secgraph selftest` prints a criterion
_LINE = re.compile(r"^(PASS|FAIL)\s+(\S+)\s+\[\s*([0-9.]+)s\]")


def run_once(checkout: Path, criteria: str, threads: int) -> dict:
    """One selftest run from checkout: wall seconds, each criterion's seconds, pass flag."""
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    cmd = [sys.executable, "-m", "secgraph.cli", "selftest", "--criteria", criteria, "--threads", str(threads)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    seconds, passed = {}, proc.returncode == 0
    for line in proc.stdout.splitlines():
        m = _LINE.match(line)
        if m:
            seconds[m.group(2)] = float(m.group(3))
    if set(seconds) != set(criteria.split(",")):
        passed = False
    return {"wall_s": round(wall, 4), "seconds": seconds, "passed": passed}


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def summarize(runs: list, threads: int, timing: str) -> dict:
    """Each side's quartiles of one timing at one thread count, and the pairs the change won."""
    by_pair = {}
    for r in runs:
        if r["threads"] == threads:
            value = r["wall_s"] if timing == "wall_s" else r["seconds"].get(timing)
            by_pair.setdefault(r["pair"], {})[r["side"]] = value
    pairs = [p for p in by_pair.values() if None not in (p.get("parent"), p.get("change"))]
    out = {side: quartiles([p[side] for p in pairs]) for side in SIDES} if pairs else {}
    out["change_lower_in_pairs"] = sum(p["change"] < p["parent"] for p in pairs)
    out["pairs"] = len(pairs)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout whose src/ is the parent side")
    ap.add_argument("--change", type=Path, required=True, help="checkout whose src/ is the changed side")
    ap.add_argument("--criteria", required=True, help="comma-separated criterion names")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--threads", default="1,2", help="comma-separated thread counts")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--out-dir", type=Path, default=Path("."))
    args = ap.parse_args(argv)
    threads = [int(t) for t in args.threads.split(",")]
    checkouts = {"parent": args.parent, "change": args.change}
    runs = []
    for pair in range(args.pairs):
        for t in threads:
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                r = run_once(checkouts[side], args.criteria, t)
                runs.append({"pair": pair, "threads": t, "side": side, **r})
                print(f"pair {pair} threads {t} {side}: {r['wall_s']:.2f} s {r['seconds']}", file=sys.stderr)
    timings = ["wall_s", *args.criteria.split(",")]
    doc = {
        "command": f"selftest --criteria {args.criteria} --threads T, T in {threads}",
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.system()}, Python {platform.python_version()}",
        "sides": {side: str(path) for side, path in checkouts.items()},
        "order": "parent first in even pairs, change first in odd pairs",
        "summary": {str(t): {name: summarize(runs, t, name) for name in timings} for t in threads},
        "runs": runs,
    }
    out = args.out_dir / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(out)
    return 0 if all(r["passed"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
