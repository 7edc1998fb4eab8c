#!/usr/bin/env python3
"""Summarise benchmark records, write a baseline from them, or compare them to one.

Records are the files ``run.py --out`` writes.  Usage:

    python3 perfbench/compare.py RECORD...                  # summarise
    python3 perfbench/compare.py --write BASELINE RECORD... # write a baseline
    python3 perfbench/compare.py --baseline perfbench/baseline.json RECORD...

Summaries give, per workload and metric, the median and quartiles over the
records.  A comparison prints the records' median over the baseline's for
each metric and refuses (exit 2) when the records and the baseline come from
different kernel backends, since their timings are not comparable.
End-to-end times are calibrated seconds (``calibrate.py``); a baseline
records the ``REFERENCE_S`` they are scaled to.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from calibrate import REFERENCE_S  # noqa: E402
from cases import PREDICTIONS, WORKLOADS  # noqa: E402


def summarise(records: list[dict]) -> dict:
    """workload -> metric -> {unit, runs, median, q1, q3}."""
    values: dict = {}
    for rec in records:
        for name, m in rec["result"]["metrics"].items():
            values.setdefault(rec["workload"], {}).setdefault(name, (m["unit"], []))[1].append(m["value"])
    out: dict = {}
    for workload, metrics in sorted(values.items()):
        for name, (unit, vals) in sorted(metrics.items()):
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            out.setdefault(workload, {})[name] = {"unit": unit, "runs": len(vals), "median": med, "q1": q1, "q3": q3}
    return out


def backends(records: list[dict]) -> set:
    return {rec["env"]["backend"] for rec in records}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="summarise or compare benchmark records")
    ap.add_argument("records", nargs="+")
    group = ap.add_mutually_exclusive_group()
    group.add_argument("--baseline", help="baseline file to compare the records against")
    group.add_argument("--write", help="write the records' summary as a baseline file")
    args = ap.parse_args(argv)

    records = [json.loads(Path(p).read_text(encoding="utf-8")) for p in args.records]
    if len(backends(records)) != 1:
        print(f"refusing to mix kernel backends {sorted(backends(records))}", file=sys.stderr)
        return 2
    summary = summarise(records)
    if args.write:
        env = {k: v for k, v in records[0]["env"].items() if k != "seed"}
        doc = {
            "env": env,
            "reference_s": REFERENCE_S,
            "seeds": sorted({rec["env"]["seed"] for rec in records}),
            "workloads": {
                w: {"why": WORKLOADS[w].why, "calibrated": WORKLOADS[w].calibrated, "metrics": summary[w]}
                for w in summary
            },
            "predictions": PREDICTIONS,
        }
        Path(args.write).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        return 0
    if args.baseline:
        base = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
        if backends(records) != {base["env"]["backend"]}:
            print(f"refusing to compare backend {sorted(backends(records))} with baseline {base['env']['backend']!r}",
                  file=sys.stderr)
            return 2
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            line = (f"{workload:<11s} {name:<36s} {s['median']:>14.6g} {s['unit']:<6s} "
                    f"[{s['q1']:.6g}, {s['q3']:.6g}] n={s['runs']}")
            if args.baseline:
                ref = base["workloads"].get(workload, {}).get("metrics", {}).get(name)
                if ref is None:
                    line += "  (not in baseline)"
                elif ref["median"]:
                    line += f"  baseline {ref['median']:.6g}  ratio {s['median'] / ref['median']:.3f}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
