"""Greedy approximation of circle diffeomorphisms by Thompson-T elements.

The algorithm pushes the uniform dyadic partition through the map, then
greedily subdivides the range, always splitting the interval holding the
most image points (ties to the leftmost), until domain and range have the
same number of pieces; the image of the origin picks the marker.

The image points are sorted once, so an interval's count is two bisections.
The live intervals sit in one row per count, left to right: each step splits
the first interval of the fullest row, whose others are its ties.  The split
intervals give the range tree directly, and the sup-norm error reads each
value of the element off the leaf intervals, exactly, with one bisection per
sample; level 12 takes well under a second.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass

from .dyadic import (
    LEAF,
    DyadicPartition,
    DyadicRational,
    StdDyadicInterval,
    TTree,
    _build,
)
from .errors import DegenerateImage, NotMonotone
from .tensor import _check_cap
from .thompson import TreeDiagram

__all__ = [
    "CircleMap",
    "ApproximationResult",
    "TieEvent",
    "approximate",
    "sup_norm_error",
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

    def __init__(self, func, name: str = "custom"):
        self.func = func
        self.name = name
        vals = [func(i / MONOTONE_SAMPLES) % 1.0 for i in range(MONOTONE_SAMPLES)]
        if not all(map(math.isfinite, vals)):
            i = next(i for i, v in enumerate(vals) if not math.isfinite(v))
            raise NotMonotone(f"map {name!r} is not finite at x={i / MONOTONE_SAMPLES}")
        total = 0.0
        for i in range(MONOTONE_SAMPLES):
            step = (vals[(i + 1) % MONOTONE_SAMPLES] - vals[i]) % 1.0
            if step == 0.0:
                raise NotMonotone(
                    f"map {name!r} is not strictly increasing near x="
                    f"{i / MONOTONE_SAMPLES}"
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
    range tree and the recorded tie events.
    """
    pts = sorted(points)

    def left(iv: StdDyadicInterval) -> float:
        return iv.a / (1 << iv.n)

    def count(iv: StdDyadicInterval) -> int:
        return bisect_left(pts, (iv.a + 1) / (1 << iv.n)) - bisect_left(pts, left(iv))

    # rows[c] holds the live intervals of count c, left to right; a split
    # never raises a count, so the fullest count only goes down
    root = StdDyadicInterval(0, 0)
    top = count(root)
    rows = {top: [root]}
    split = set()
    ties: list[TieEvent] = []
    for step in range(2**n - 1):
        row = rows[top]
        if len(row) > 1:
            ties.append(TieEvent(step, top, row[0], tuple(row)))
        chosen = row.pop(0)
        if not row:
            del rows[top]
        split.add(chosen)
        for half in chosen.halves():
            insort(rows.setdefault(count(half), []), half, key=left)
        while top not in rows:
            top -= 1
    tree = _build(root, lambda iv: iv.halves() if iv in split else LEAF)
    return tree, tuple(ties)


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
    range_tree, ties = _greedy_range(points, n)
    # the leaf holding the image of 0, read exactly; 1.0 is the circle point 0
    num, den = points[0].as_integer_ratio()
    x = DyadicRational(num, den.bit_length() - 1).mod1()
    marker = range_tree.leaf_containing(x)[0]
    domain = LEAF
    for _ in range(n):
        domain = TTree(domain, domain)
    g = TreeDiagram(domain, range_tree, marker)
    err = sup_norm_error(f, g, samples=max(4 * m, 256))
    return ApproximationResult(g, n, err, g.domain_partition, g.range_partition, marker, ties)


def sup_norm_error(f: CircleMap, g: TreeDiagram, samples: int = 1024) -> float:
    """sup |f - g| over a grid plus g's breakpoints, with circle distance.

    Each sample x is read exactly as num/2^e, its piece found by bisecting
    the piece starts, and g(x) computed as an integer numerator over
    2^(e + r.n); the one int/int division rounds correctly, so each value is
    the float of g's exact image of x.
    """
    # piece j maps domain leaf d onto range leaf r, the (marker + j)-th, by
    # x -> r.a/2^r.n + (x - d.a/2^d.n) 2^(d.n - r.n) mod 1; starts are the
    # d.a over the common denominator 2^depth
    dom, rng = g.domain_tree.leaf_intervals(), g.range_tree.leaf_intervals()
    rng = rng[g.marker :] + rng[: g.marker]
    pieces = [(d.n, r.a - d.a, r.n) for d, r in zip(dom, rng)]
    depth = max(d.n for d in dom)
    starts = [d.a << (depth - d.n) for d in dom]
    xs = [i / samples for i in range(samples)]
    xs.extend(d.a / (1 << d.n) for d in dom)
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
