"""Greedy approximation of circle diffeomorphisms by Thompson-T elements.

The algorithm pushes the uniform dyadic partition through the map, then
greedily subdivides the range, always splitting the interval holding the
most image points (ties to the leftmost), until domain and range have the
same number of pieces; the image of the origin picks the marker.

The image points are sorted once, so an interval's count is two bisections,
and the live intervals wait in a heap keyed (-count, left endpoint): the top
is the fullest interval and, among equals, the leftmost, and the entries tied
with it pop off in left-to-right order.  The sup-norm error reads each value
of the element off its PL pieces, exactly, with one bisection per sample.
"""

from __future__ import annotations

import cmath
import heapq
import math
from bisect import bisect_left, bisect_right
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
from .tensor import _check_cap
from .thompson import TreeDiagram, to_pl_map

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
        if not all(map(math.isfinite, vals)):
            i = next(i for i, v in enumerate(vals) if not math.isfinite(v))
            raise NotMonotone(f"map {name!r} is not finite at x={i / samples}")
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
        # the first piece whose closed interval holds x
        i = max(bisect_left(xs, x) - 1, 0)
        if not xs[i] <= x <= xs[i + 1]:  # only a NaN lies in no piece
            return lift[-1] % 1.0
        if xs[i + 1] == xs[i]:
            return lift[i] % 1.0
        t = (x - xs[i]) / (xs[i + 1] - xs[i])
        return (lift[i] + t * (lift[i + 1] - lift[i])) % 1.0

    return CircleMap(func, "tabulated")


def parse_map(text: str) -> CircleMap:
    """Builtin map specs: identity | rotation:p/2^n | mobius:a,b | a file path."""
    if text == "identity":
        return identity_map()
    if text.startswith("rotation:"):
        return rotation_map(DyadicRational.parse(text.split(":", 1)[1]))
    if text.startswith("mobius:"):
        toks = text.split(":", 1)[1].split(",")
        try:
            if len(toks) != 2:
                raise ValueError(f"expected two numbers a,b, got {len(toks)}")
            a, b = (float(tok) for tok in toks)
        except ValueError as exc:
            raise ValueError(f"map spec {text!r}: {exc}") from None
        return mobius_map(a, b)
    pairs = []
    with open(text) as fh:
        for num, line in enumerate(fh, 1):
            toks = line.split()
            if not toks or toks[0].startswith("#"):
                continue
            try:
                if len(toks) != 2:
                    raise ValueError(f"expected two fields x y, got {len(toks)}")
                x, y = float(toks[0]), float(toks[1])
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ValueError(f"sample ({x}, {y}) is not finite")
            except ValueError as exc:
                raise ValueError(f"tabulated map line {num}: {exc}") from None
            pairs.append((x, y))
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
    pts = sorted(points)

    def entry(iv: StdDyadicInterval):
        lo, hi = iv.a / (1 << iv.n), (iv.a + 1) / (1 << iv.n)
        return (bisect_left(pts, lo) - bisect_left(pts, hi), lo, iv)

    # live intervals are disjoint, so no two entries share a left endpoint
    heap = [entry(StdDyadicInterval(0, 0))]
    ties: list[TieEvent] = []
    for step in range(2**n - 1):
        top = heapq.heappop(heap)
        tied = [top]
        while heap and heap[0][0] == top[0]:
            tied.append(heapq.heappop(heap))
        chosen = top[2]
        if len(tied) > 1:
            ties.append(TieEvent(step, -top[0], chosen, tuple(e[2] for e in tied)))
        for e in tied[1:]:
            heapq.heappush(heap, e)
        for half in chosen.halves():
            heapq.heappush(heap, entry(half))
    heap.sort(key=lambda e: e[1])
    return [e[2] for e in heap], ties


def approximate(f: CircleMap, n: int) -> ApproximationResult:
    """Level-n Thompson-T approximation of the circle map f."""
    if n < 1:
        raise ValueError("level must be at least 1")
    _check_cap(n, 2, "image points", f"level {n}: ")
    m = 2**n
    points = [f(j / m) for j in range(m)]
    if not all(map(math.isfinite, points)):
        raise NotMonotone(f"map {f.name!r} is not finite at level {n}")
    if len(set(points)) < m:
        raise DegenerateImage(
            f"image points of {f.name!r} collide at level {n}"
        )
    intervals, ties = _greedy_range(points, n)
    partition = DyadicPartition.from_intervals(intervals)
    # the interval holding the image of 0; an image rounded up to 1.0 falls
    # past the last one and takes interval 0
    red = points[0]
    marker = bisect_right([float(iv.left) for iv in intervals], red) - 1
    if red >= float(intervals[marker].right):
        marker = 0
    domain = DyadicPartition(
        [DyadicRational(a, n) for a in range(m)] + [ONE]
    )
    element = TreeDiagram(partition_to_tree(domain), partition_to_tree(partition), marker)
    err = sup_norm_error(f, element, samples=max(4 * m, 256))
    return ApproximationResult(element, n, err, domain, partition, marker, tuple(ties))


def sup_norm_error(f: CircleMap, g: TreeDiagram, samples: int = 1024) -> float:
    """sup |f - g| over a grid plus g's breakpoints, with circle distance.

    Each sample x is read exactly as num/2^e, its piece found by bisecting
    the piece starts, and g(x) computed as an integer numerator over
    2^(e + r.n); the one int/int division rounds correctly, so each value is
    the float of g's exact image of x.
    """
    pl = to_pl_map(g)
    # piece j maps x to r + (x - d) 2^s mod 1, where d = [d.a, d.a + 1]/2^d.n
    # is its domain interval and r = [r.a, r.a + 1]/2^r.n its range interval;
    # starts are the d.a over the common denominator 2^depth
    depth = max((x1 - x0).exp for x0, x1, _, _ in pl.pieces)
    starts, pieces = [], []
    for x0, x1, y0, s in pl.pieces:
        d_n = (x1 - x0).exp
        r_n = d_n - s
        d_a = x0.num << (d_n - x0.exp)
        starts.append(d_a << (depth - d_n))
        pieces.append((d_n, (y0.num << (r_n - y0.exp)) - d_a, r_n))
    xs = [i / samples for i in range(samples)]
    xs.extend(float(x) for x, _ in pl.breakpoints)
    worst = 0.0
    for x in xs:
        num, den = (x % 1.0).as_integer_ratio()
        e = den.bit_length() - 1
        key = num << (depth - e) if e <= depth else num >> (e - depth)
        d_n, shift, r_n = pieces[bisect_right(starts, key) - 1]
        # x = num/2^e, so g(x) = ((num << d.n) + ((r.a - d.a) << e)) / 2^(e + r.n)
        exp = e + r_n
        gx = ((num << d_n) + (shift << e)) % (1 << exp) / (1 << exp)
        worst = max(worst, circle_distance(f(x), gx))
    return worst


def tie_break_report(f: CircleMap, n: int) -> list[TieEvent]:
    """The tie events the greedy subdivision for (f, n) resolves leftmost."""
    return list(approximate(f, n).ties)
