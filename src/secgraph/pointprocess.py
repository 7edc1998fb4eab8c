"""Homogeneous planar Poisson point processes and exact distance sampling.

Realizations live in a disk window centered at the origin.  Distances from
the origin are the primitive most estimators consume: by the mapping theorem
the squared ordered distances of a process with density lam form a
one-dimensional Poisson arrival process of rate pi*lam, so the nearest-point
distance can be drawn exactly without any window truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "PointSet",
    "Rng",
    "sample_disk",
    "sample_nearest_distance",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _avalanche(x: int) -> int:
    """splitmix64 finalizer: full-avalanche 64-bit mix."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def substream_key(seed: int, stream_index: int) -> int:
    """Key for the stream_index-th substream of a base seed.

    This is the splitmix64 generator itself: state seeded by avalanching the
    base seed, advanced stream_index steps.  Adjacent indices therefore give
    fully decorrelated keys, and a (seed, index) pair always maps to the same
    key no matter which worker computes it.
    """
    base = _avalanche(seed)
    return _avalanche((base + ((stream_index + 1) * _GOLDEN)) & _MASK64)


@dataclass(frozen=True)
class Rng:
    """Deterministic random source: a (seed, stream_index) pair.

    Identical pairs reproduce identical draws.  The pair is hashed into a
    single 64-bit key which seeds a fresh PCG64 generator on every
    generator() call, so an Rng value can be shared freely across threads.
    """

    seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not 0 <= self.stream_index <= _MASK64:
            raise ValueError(f"stream_index must be a 64-bit unsigned integer, got {self.stream_index}")

    def substream(self, index: int) -> "Rng":
        """Child Rng for substream index, derived by key mixing."""
        return Rng(substream_key(self.seed, self.stream_index), index)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(substream_key(self.seed, self.stream_index)))


class PointSet:
    """One realization of a planar point process inside a disk window.

    Positions are stored as an (n, 2) float array `xy`.  Instances are
    immutable after construction and safe to share across threads.
    """

    __slots__ = ("xy", "density", "window_radius", "__dict__")

    def __init__(self, xy: np.ndarray, density: float, window_radius: float):
        xy = np.ascontiguousarray(xy, dtype=np.float64).reshape(-1, 2)
        if not np.all(np.isfinite(xy)):
            raise ValueError("point coordinates must be finite")
        if not (density >= 0 and math.isfinite(density)):
            raise ValueError(f"density must be finite and >= 0, got {density}")
        if not (window_radius > 0 and math.isfinite(window_radius)):
            raise ValueError(f"window_radius must be finite and > 0, got {window_radius}")
        r2 = xy[:, 0] ** 2 + xy[:, 1] ** 2
        # tiny slack for round-off in r = W*sqrt(u) at u ~ 1
        if r2.size and float(np.max(r2)) > window_radius**2 * (1 + 1e-12):
            raise ValueError("points must lie within the window disk")
        self.xy = xy
        self.xy.setflags(write=False)
        self.density = float(density)
        self.window_radius = float(window_radius)

    def __len__(self) -> int:
        return self.xy.shape[0]

    def __repr__(self) -> str:
        return f"PointSet(n={len(self)}, density={self.density}, window_radius={self.window_radius})"

    @cached_property
    def ordered_r(self) -> np.ndarray:
        """Nondecreasing distances from the origin."""
        r = np.hypot(self.xy[:, 0], self.xy[:, 1])
        r = np.sort(r, kind="stable")  # stable sort: measure-zero ties keep insertion order
        r.setflags(write=False)
        return r


def sample_disk(density: float, window_radius: float, rng: Rng) -> PointSet:
    """Poisson(density * pi * W^2) points i.i.d. uniform on the disk of radius W.

    Radius by inverse CDF (r = W*sqrt(U)) plus a uniform angle; no rejection.
    """
    if not (math.isfinite(density) and density >= 0):
        raise ValueError(f"density must be finite and >= 0, got {density}")
    if not (math.isfinite(window_radius) and window_radius > 0):
        raise ValueError(f"window_radius must be finite and > 0, got {window_radius}")
    g = rng.generator()
    n = g.poisson(density * math.pi * window_radius**2)
    r = window_radius * np.sqrt(g.random(n))
    theta = g.uniform(0.0, 2.0 * math.pi, n)
    xy = np.column_stack((r * np.cos(theta), r * np.sin(theta)))
    return PointSet(xy, density, window_radius)


def sample_nearest_distance(density: float, rng: Rng) -> float:
    """Exact nearest-point distance from the origin for an infinite-plane process.

    R^2 ~ Exponential(rate pi*density); no window is involved.
    """
    if not (math.isfinite(density) and density > 0):
        raise ValueError(f"density must be finite and > 0, got {density}")
    g = rng.generator()
    return math.sqrt(g.exponential(1.0 / (math.pi * density)))
