"""Span tracing of secgraph's layers, installed from outside the package.

A traced pass replaces the public functions of each layer with wrappers that
record one span per call: name, start, end, parent span and run id, plus work
counts taken from the call's arguments and return value.  Spans are kept in
memory; parents come from a thread-local span stack, so a kernel called from
a pool worker has no parent in its own thread.  Self time is a span's
duration minus the part of it its children cover, which is only meaningful
for single-threaded passes: the benchmark derives per-layer times from the
``--threads 1`` pass and uses the ``--threads 2`` pass only for the
estimators' thread speed-up.

Layers and where they are wrapped:

  cli          each ``secgraph.cli.main`` call, spanned by the benchmark itself
  montecarlo   the estimator entry points in ``secgraph.montecarlo``
  kernels      ``cell_area``, ``count_in_cell`` and ``neutral_survivors`` at the
               names ``secgraph.montecarlo`` looks them up by
  stable       ``secgraph.stable.cdf_normalized``
  analytic     the public functions of ``secgraph.analytic``

Point-process and propagation sampling is not wrapped; it shows up in
``montecarlo.self_s``.  A function that no longer exists is not wrapped and
its metrics are absent from the result rather than reported as zero.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import threading
import time

import numpy as np

# The CLI calls _sector_pmf_blocks directly, so it is an estimator entry point too.
ESTIMATORS = (
    "estimate_generic",
    "estimate_out_degree_pmf",
    "estimate_in_degree_pmf",
    "estimate_voronoi_moments",
    "estimate_colluding_power",
    "_sector_pmf_blocks",
)


def _neutral_survivors_counts(args, kwargs, result):
    return {"points": len(args[0]) + len(args[2])}


def _cell_area_counts(args, kwargs, result):
    return {"candidates": len(args[0]), "used": int(result[2])}


def _count_in_cell_counts(args, kwargs, result):
    loff = np.asarray(args[2], dtype=np.int64)
    eoff = np.asarray(args[5], dtype=np.int64)
    return {"pairs": int(np.dot(np.diff(loff), np.diff(eoff)))}


def _cdf_counts(args, kwargs, result):
    return {"points": int(np.size(args[0]))}


_KERNEL_COUNTS = {
    "cell_area": _cell_area_counts,
    "count_in_cell": _count_in_cell_counts,
    "neutral_survivors": _neutral_survivors_counts,
}


def _trials_counter(fn):
    """Count function for an estimator: its ``trials`` argument, or ``spec.trials``."""
    sig = inspect.signature(fn)

    def counts(args, kwargs, result):
        bound = sig.bind(*args, **kwargs).arguments
        if "trials" in bound:
            return {"trials": int(bound["trials"])}
        return {"trials": int(bound["spec"].trials)}

    return counts


class Tracer:
    """Collects spans from every thread into one in-memory list."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.run_id = 0
        self.wrapped: set[str] = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the block; yields the span's count dict."""
        stack = self._stack()
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        record = {
            "id": sid,
            "name": name,
            "parent": stack[-1] if stack else None,
            "run": self.run_id,
            "counts": {},
        }
        stack.append(sid)
        record["start"] = time.perf_counter()
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def _wrap(self, fn, name: str, count_fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
            if count_fn is not None:
                counts.update(count_fn(args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function that exists; restore the originals on exit."""
        from secgraph import analytic, montecarlo, stable

        targets = []
        for attr, count_fn in _KERNEL_COUNTS.items():
            targets.append((montecarlo, attr, f"kernels.{attr}", count_fn))
        for attr in ESTIMATORS:
            fn = getattr(montecarlo, attr, None)
            if fn is not None:
                targets.append((montecarlo, attr, f"montecarlo.{attr}", _trials_counter(fn)))
        targets.append((stable, "cdf_normalized", "stable.cdf_normalized", _cdf_counts))
        for attr, fn in vars(analytic).items():
            if attr.startswith("_") or inspect.isclass(fn) or not callable(fn):
                continue
            if getattr(fn, "__module__", None) == analytic.__name__:
                targets.append((analytic, attr, f"analytic.{attr}", None))

        saved = []
        try:
            for owner, attr, name, count_fn in targets:
                fn = getattr(owner, attr, None)
                if fn is None:
                    continue
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, count_fn))
                self.wrapped.add(name)
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)


# Work counts reported per layer, besides self_s.  "calls" counts spans; the
# others sum the count of that name over the layer's spans.
LAYER_COUNTS = {
    "cli": (),
    "montecarlo": ("trials",),
    "kernels.neutral_survivors": ("calls", "points"),
    "kernels.cell_area": ("calls", "candidates"),
    "kernels.count_in_cell": ("calls", "pairs"),
    "stable.cdf_normalized": ("points",),
    "analytic": ("calls",),
}


def layer_of(name: str) -> str:
    """Metric prefix of a span: the kernel's or stable function's full name, else its layer."""
    return name if name.startswith(("kernels.", "stable.")) else name.split(".")[0]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, cursor), min(b, s["end"])
            if b > a:
                covered += b - a
                cursor = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def outermost_estimators(spans: list[dict]) -> list[dict]:
    """Estimator spans not nested in another estimator span."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        parent = by_id.get(s["parent"])
        if layer_of(s["name"]) == "montecarlo" and (parent is None or layer_of(parent["name"]) != "montecarlo"):
            out.append(s)
    return out


def estimator_seconds(spans: list[dict]) -> float:
    """Seconds spent in outermost estimator calls."""
    return sum(s["end"] - s["start"] for s in outermost_estimators(spans))


def layer_metrics(spans: list[dict], wrapped: set[str]) -> dict[str, float]:
    """Per-layer self times and work counts of one single-threaded pass.

    Layers with no wrapped function are left out; a wrapped function that was
    never called reports exact zeros.  Trials count outermost estimator calls
    only, so an estimator delegating to another is not counted twice.
    """
    selfs = self_times(spans)
    layers = [layer for layer in LAYER_COUNTS if layer == "cli" or any(layer_of(n) == layer for n in wrapped)]
    m: dict[str, float] = {}
    for layer in layers:
        m[f"{layer}.self_s"] = 0.0
        m.update({f"{layer}.{key}": 0 for key in LAYER_COUNTS[layer]})
    outer = {s["id"] for s in outermost_estimators(spans)}
    used = 0
    for s in spans:
        layer = layer_of(s["name"])
        m[f"{layer}.self_s"] += selfs[s["id"]]
        for key in LAYER_COUNTS[layer]:
            if key == "calls":
                m[f"{layer}.calls"] += 1
            elif key != "trials" or s["id"] in outer:
                m[f"{layer}.{key}"] += s["counts"].get(key, 0)
        used += s["counts"].get("used", 0)
    if "kernels.cell_area" in layers:
        candidates = m["kernels.cell_area.candidates"]
        m["kernels.cell_area.used_ratio"] = used / candidates if candidates else 0.0
    return m
