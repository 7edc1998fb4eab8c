"""Machine-speed calibration of the benchmark's timings.

The benchmark runs on small shared virtual machines whose speed moves with
the load other tenants put on the host.  On a 2-vCPU Xeon VM (2.0 GHz
nominal), identical single-thread passes of the ``cells`` cases took a
median of 0.53 s in quiet minutes and up to 0.83 s in busy ones, and
10-seed sets of runs an hour apart differed by 30%; no run length evens
that out.  So every timed pass is paired with a fixed reference computation
that does not use secgraph: a run's timings are reported as

    median(pass seconds) * REFERENCE_S / median(reference seconds)

that is, in seconds of a machine on which ``reference`` takes REFERENCE_S.
A change to secgraph moves the passes and not the reference; a slower host
moves both.

The reference is scipy adaptive quadrature of a Python integrand, which
spends its time in interpreter calls like the Monte Carlo loops and the
stable-law quadrature, plus sorting and vector arithmetic on 100k floats
like the distance-domain blocks.  Of the candidates timed alongside the
workloads for 20 minutes, quadrature and vector work tracked them best; a
reference built from many tiny numpy calls varied more than the workloads.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import integrate

# Median seconds of reference() on the VM described above, in a quiet hour.
REFERENCE_S = 0.30

_X = np.random.default_rng(20240917).random(100_000)


def reference() -> float:
    """A fixed computation whose duration tracks the host's speed."""
    total = 0.0
    for k in range(300, 400):
        total += integrate.quad(lambda t: math.exp(-t * t) * math.cos(k * t), 0.0, 10.0, limit=1000)[0]
    for _ in range(40):
        total += float(np.cumsum(np.sqrt(np.sort(_X * 3.0 + 1.0)))[-1])
    return total


def time_reference() -> float:
    """Seconds one reference() call takes now."""
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0
