"""Greedy approximation of circle diffeomorphisms by Thompson-T elements.

The algorithm pushes the uniform dyadic partition through the map, then
greedily subdivides the range, always splitting the interval holding the
most image points (ties to the leftmost), until domain and range have the
same number of pieces; the image of the origin picks the marker.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .dyadic import (
    DyadicPartition,
    DyadicRational,
    ONE,
    StdDyadicInterval,
    ZERO,
    partition_to_tree,
)
from .errors import DegenerateImage, NotMonotone
from .semicontinuous import _check_cap
from .thompson import TreeDiagram, evaluate, to_pl_map

__all__ = [
    "CircleMap",
    "ApproximationResult",
    "TieEvent",
    "approximate",
    "sup_norm_error",
    "tie_break_report",
    "identity_map",
    "rotation_map",
    "mobius_map",
    "tabulated_map",
    "parse_map",
    "circle_distance",
]

MONOTONE_SAMPLES = 2**12


class CircleMap:
    """Degree-one orientation-preserving map of [0,1), given as a closure.

    Monotonicity and winding are checked on a fixed sampling grid at
    construction; the map itself stays a black box afterwards.
    """

    def __init__(self, func, name: str = "custom", samples: int = MONOTONE_SAMPLES):
        self.func = func
        self.name = name
        vals = [func(i / samples) % 1.0 for i in range(samples)]
        total = 0.0
        for i in range(samples):
            step = (vals[(i + 1) % samples] - vals[i]) % 1.0
            if step == 0.0:
                raise NotMonotone(
                    f"map {name!r} is not strictly increasing near x="
                    f"{i / samples}"
                )
            total += step
        if round(total) != 1:
            raise NotMonotone(
                f"map {name!r} has winding number {round(total)}, expected 1"
            )

    def __call__(self, x: float) -> float:
        return self.func(x % 1.0) % 1.0


def identity_map() -> CircleMap:
    return CircleMap(lambda x: x, "identity")


def rotation_map(offset: DyadicRational) -> CircleMap:
    off = float(offset.mod1())
    return CircleMap(lambda x: (x + off) % 1.0, f"rotation:{offset.mod1()}")


def mobius_map(a: float, b: float) -> CircleMap:
    """Boundary action of the disc automorphism z -> (z - w)/(1 - conj(w) z)
    with w = a + b i."""
    w = complex(a, b)
    if abs(w) >= 1.0:
        raise ValueError("mobius parameter must lie inside the unit disc")

    def func(x: float) -> float:
        z = cmath.exp(2j * math.pi * x)
        img = (z - w) / (1 - w.conjugate() * z)
        return (cmath.phase(img) / (2 * math.pi)) % 1.0

    return CircleMap(func, f"mobius:{a},{b}")


def tabulated_map(pairs) -> CircleMap:
    """Piecewise-linear interpolation through sampled (x, f(x)) pairs."""
    pts = sorted((x % 1.0, y % 1.0) for x, y in pairs)
    if len(pts) < 2:
        raise ValueError("a tabulated map needs at least two samples")
    xs = [p[0] for p in pts]
    lift = [pts[0][1]]
    for _, y in pts[1:]:
        prev = lift[-1]
        lift.append(prev + ((y - prev) % 1.0))
    xs.append(xs[0] + 1.0)
    lift.append(pts[0][1] + 1.0)

    def func(x: float) -> float:
        x = x % 1.0
        if x < xs[0]:
            x += 1.0
        for i in range(len(xs) - 1):
            if xs[i] <= x <= xs[i + 1]:
                if xs[i + 1] == xs[i]:
                    return lift[i] % 1.0
                t = (x - xs[i]) / (xs[i + 1] - xs[i])
                return (lift[i] + t * (lift[i + 1] - lift[i])) % 1.0
        return lift[-1] % 1.0

    return CircleMap(func, "tabulated")


def parse_map(text: str) -> CircleMap:
    """Builtin map specs: identity | rotation:p/2^n | mobius:a,b | a file path."""
    if text == "identity":
        return identity_map()
    if text.startswith("rotation:"):
        return rotation_map(DyadicRational.parse(text.split(":", 1)[1]))
    if text.startswith("mobius:"):
        a, b = (float(tok) for tok in text.split(":", 1)[1].split(","))
        return mobius_map(a, b)
    pairs = []
    with open(text) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            x, y = line.split()
            pairs.append((float(x), float(y)))
    return tabulated_map(pairs)


@dataclass(frozen=True)
class TieEvent:
    step: int
    count: int
    chosen: StdDyadicInterval
    tied: tuple[StdDyadicInterval, ...]


@dataclass(frozen=True)
class ApproximationResult:
    element: TreeDiagram
    n: int
    sup_error: float
    domain_partition: DyadicPartition
    range_partition: DyadicPartition
    marker_interval: int
    ties: tuple[TieEvent, ...]


def circle_distance(x: float, y: float) -> float:
    d = abs(x - y) % 1.0
    return min(d, 1.0 - d)


def _greedy_range(points, n: int):
    """Split [0,1] until 2^n pieces, always splitting the fullest interval.

    Points on a boundary count to the interval on their right.  Returns the
    interval list and the recorded tie events.
    """
    intervals = [StdDyadicInterval(0, 0)]
    ties: list[TieEvent] = []

    def count(iv: StdDyadicInterval) -> int:
        lo, hi = float(iv.left), float(iv.right)
        return sum(1 for p in points if lo <= p < hi)

    step = 0
    while len(intervals) < 2**n:
        counts = [count(iv) for iv in intervals]
        best = max(counts)
        tied = [iv for iv, c in zip(intervals, counts) if c == best]
        chosen = tied[0]  # intervals are kept sorted, so this is leftmost
        if len(tied) > 1:
            ties.append(TieEvent(step, best, chosen, tuple(tied)))
        i = intervals.index(chosen)
        intervals[i : i + 1] = list(chosen.halves())
        step += 1
    return intervals, ties


def approximate(f: CircleMap, n: int) -> ApproximationResult:
    """Level-n Thompson-T approximation of the circle map f."""
    if n < 1:
        raise ValueError("level must be at least 1")
    _check_cap(n, 2, "image points", f"level {n}: ")
    m = 2**n
    points = [f(j / m) for j in range(m)]
    if len(set(points)) < m:
        raise DegenerateImage(
            f"image points of {f.name!r} collide at level {n}"
        )
    intervals, ties = _greedy_range(points, n)
    partition = DyadicPartition.from_intervals(intervals)
    red = points[0]
    marker = None
    for i, iv in enumerate(intervals):
        if float(iv.left) <= red < float(iv.right):
            marker = i
            break
    if marker is None:
        marker = 0
    domain = DyadicPartition(
        [DyadicRational(a, n) for a in range(m)] + [ONE]
    )
    element = TreeDiagram(partition_to_tree(domain), partition_to_tree(partition), marker)
    err = sup_norm_error(f, element, samples=max(4 * m, 256))
    return ApproximationResult(element, n, err, domain, partition, marker, tuple(ties))


def sup_norm_error(f: CircleMap, g: TreeDiagram, samples: int = 1024) -> float:
    """sup |f - g| over a grid plus g's breakpoints, with circle distance."""
    pl = to_pl_map(g)
    xs = [i / samples for i in range(samples)]
    xs.extend(float(x) for x, _ in pl.breakpoints)
    worst = 0.0
    for x in xs:
        gx = float(evaluate(g, _as_dyadic(x)))
        worst = max(worst, circle_distance(f(x), gx))
    return worst


def _as_dyadic(x: float) -> DyadicRational:
    num, exp = float(x % 1.0).as_integer_ratio()
    return DyadicRational(num, exp.bit_length() - 1)


def tie_break_report(f: CircleMap, n: int) -> list[TieEvent]:
    """The tie events the greedy subdivision for (f, n) resolves leftmost."""
    return list(approximate(f, n).ties)
