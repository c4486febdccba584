"""Greedy approximation of circle diffeomorphisms by Thompson-T elements.

The algorithm pushes the uniform dyadic partition through the map, then
greedily subdivides the range, always splitting the interval holding the
most image points (ties to the leftmost), until domain and range have the
same number of pieces; the image of the origin picks the marker.

A `CircleMap` keeps the values it computes on its 4096-point checking grid and
serves them for every point on that grid: the level-n image points for n <= 12
and the sup-norm samples for n <= 10 are read off the grid rather than
recomputed.  So a map's `func` must be pure and must not be reassigned.  The
grid is checked as one float64 array.  A Mobius map fills it in arrays from a
shared table of roots of unity, each step of CPython's complex arithmetic
written out and rounded once, so its values are the closure's bit for bit
wherever that arithmetic has no fused multiply-add (checked on x86-64).

The image points are sorted once.  The live intervals sit in one row per
count, left to right, each with the index of its first point: each step splits
the first interval of the fullest row, whose others are its ties, and one
bisection inside its points counts both halves.  The split intervals, as
integer pairs, give the range tree directly; level 12 takes well under a
second.

The sup-norm error reads each value of the element off the leaf pairs (a, n),
exactly.  When no leaf of either tree is deeper than 53 levels, every piece end
a/2^n, every offset and every x 2^k mod 1 is an exact float64, and each value
is one float addition or subtraction of exact operands, rounded once to nearest
as an integer numerator over its power of two would be: so one float64 pass
over all samples gives the same bits.  Deeper trees run an integer loop, one
bisection per sample.
"""

from __future__ import annotations

import cmath
import functools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

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
# grid point i is i/2^_GRID_BITS
_GRID_BITS = MONOTONE_SAMPLES.bit_length() - 1
# the deepest leaf whose interval ends are exact float64s: the mantissa's bits
_FLOAT_DEPTH = 53


class CircleMap:
    """Degree-one orientation-preserving map of [0,1), given as a closure.

    Monotonicity and winding are checked on a fixed sampling grid at
    construction.  The grid values func(i/4096) % 1.0 are kept and served
    for grid points afterwards, so `func` must be pure and must not be
    reassigned; off the grid the map stays a black box.
    """

    def __init__(self, func, name: str = "custom"):
        self.func, self.name = func, name
        grid = [func(i / MONOTONE_SAMPLES) % 1.0 for i in range(MONOTONE_SAMPLES)]
        self._keep(np.array(grid))

    @classmethod
    def _from_grid(cls, func, name: str, grid: np.ndarray) -> CircleMap:
        """The map of func whose grid values the caller computed, bit for bit
        as `__init__` would; the same check runs on them."""
        self = cls.__new__(cls)
        self.func, self.name = func, name
        self._keep(grid)
        return self

    def _keep(self, vals: np.ndarray) -> None:
        """Check the grid values, then keep them read-only, as an array for
        `sup_norm_error` and as a list for `_at`."""
        if not (finite := np.isfinite(vals)).all():
            x = int(np.argmin(finite)) / MONOTONE_SAMPLES
            raise NotMonotone(f"map {self.name!r} is not finite at x={x}")
        # numpy's float remainder is Python's float %, and the steps sum to within
        # 1e-12 of the winding number in any order
        steps = np.remainder(np.roll(vals, -1) - vals, 1.0)
        if not steps.all():
            x = int(np.argmin(steps)) / MONOTONE_SAMPLES
            raise NotMonotone(f"map {self.name!r} is not strictly increasing near x={x}")
        total = round(float(steps.sum()))
        if total != 1:
            raise NotMonotone(f"map {self.name!r} has winding number {total}, expected 1")
        vals.flags.writeable = False
        self._values, self._grid = vals, vals.tolist()

    def __call__(self, x: float) -> float:
        return self.func(x % 1.0) % 1.0

    def _at(self, num: int, e: int) -> float:
        """f(num/2^e) for 0 <= num < 2^e: the kept value when the point is on
        the grid, where num/2^e and (num << (12 - e))/4096 are the same float."""
        if e <= _GRID_BITS:
            return self._grid[num << (_GRID_BITS - e)]
        return self(num / (1 << e))


def _grid_points() -> np.ndarray:
    """The grid points i/4096, each exact."""
    return np.arange(MONOTONE_SAMPLES) / MONOTONE_SAMPLES


def identity_map() -> CircleMap:
    return CircleMap._from_grid(lambda x: x, "identity", _grid_points())


def rotation_map(offset: DyadicRational) -> CircleMap:
    off = float(offset.mod1())
    # x + off lies in [0, 2), where numpy's remainder is Python's float % and
    # lands in [0, 1), so CircleMap's own % 1.0 leaves it as it is
    grid = np.remainder(_grid_points() + off, 1.0)
    return CircleMap._from_grid(lambda x: (x + off) % 1.0, f"rotation:{offset.mod1()}", grid)


@functools.lru_cache(maxsize=1)
def _grid_roots() -> np.ndarray:
    """Real and imaginary parts of exp(2 pi i x) at the grid points x = i/4096,
    as mobius_map's closure computes it; read-only."""
    roots = [cmath.exp(2j * math.pi * (i / MONOTONE_SAMPLES)) for i in range(MONOTONE_SAMPLES)]
    parts = np.array([[z.real for z in roots], [z.imag for z in roots]])
    parts.flags.writeable = False
    return parts


def mobius_map(a: float, b: float) -> CircleMap:
    """Boundary action of the disc automorphism z -> (z - w)/(1 - conj(w) z)
    with w = a + b i."""
    w = complex(a, b)
    if abs(w) >= 1.0:
        raise ValueError("mobius parameter must lie inside the unit disc")
    wc = w.conjugate()

    def func(x: float) -> float:
        z = cmath.exp(2j * math.pi * x)
        img = (z - w) / (1 - wc * z)
        return (cmath.phase(img) / (2 * math.pi)) % 1.0

    # func(x) % 1.0 on the grid, each step of CPython's complex arithmetic rounded
    # once: z - w, 1 - conj(w) z, and their quotient by Smith's rule
    zr, zi = _grid_roots()
    nr, ni = zr - w.real, zi - w.imag
    dr = 1.0 - (wc.real * zr - wc.imag * zi)
    di = 0.0 - (wc.real * zi + wc.imag * zr)
    first = np.abs(dr) >= np.abs(di)
    big, small = np.where(first, dr, di), np.where(first, di, dr)
    p, q = np.where(first, nr, ni), np.where(first, ni, nr)
    ratio = small / big
    denom = big + small * ratio
    re = (p + q * ratio) / denom
    im = np.where(first, q - p * ratio, p * ratio - q) / denom
    # the phase by libm's atan2, as cmath.phase takes it; the second % 1.0
    # turns a tiny negative phase's 1.0 into 0.0, as CircleMap's reduction does
    phase = np.fromiter(map(math.atan2, im.tolist(), re.tolist()), float, MONOTONE_SAMPLES)
    grid = np.remainder(np.remainder(phase / (2 * math.pi), 1.0), 1.0)
    return CircleMap._from_grid(func, f"mobius:{a},{b}", grid)


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
    # rows[c] holds the live intervals of count c, left to right, as parallel lists
    # of left ends, first indices in pts and intervals; the fullest count only falls
    rows = {}

    def put(left: float, first: int, count: int, iv: StdDyadicInterval) -> None:
        lefts, firsts, ivs = rows.setdefault(count, ([], [], []))
        i = bisect_left(lefts, left)
        lefts.insert(i, left)
        firsts.insert(i, first)
        ivs.insert(i, iv)

    top = bisect_left(pts, 1.0)  # the points lie in [0, 1]
    put(0.0, 0, top, StdDyadicInterval(0, 0))
    split = {}  # (a, n) of each split interval -> those of its halves
    ties: list[TieEvent] = []
    for step in range(2**n - 1):
        lefts, firsts, ivs = rows[top]
        if len(ivs) > 1:
            ties.append(TieEvent(step, top, ivs[0], tuple(ivs)))
        left, first, chosen = lefts.pop(0), firsts.pop(0), ivs.pop(0)
        if not ivs:
            del rows[top]
        low, high = chosen.halves()
        split[chosen.a, chosen.n] = (low.a, low.n), (high.a, high.n)
        # the halves keep the chosen interval's float ends, so one bisection counts both
        mid = high.a / (1 << high.n)
        at = bisect_left(pts, mid, first, first + top)
        put(left, first, at - first, low)
        put(mid, at, first + top - at, high)
        while top not in rows:
            top -= 1
    tree = _build((0, 0), lambda an: split.get(an, LEAF))
    return tree, tuple(ties)


def approximate(f: CircleMap, n: int) -> ApproximationResult:
    """Level-n Thompson-T approximation of the circle map f."""
    if n < 1:
        raise ValueError("level must be at least 1")
    _check_cap(n, 2, "image points", f"level {n}: ")
    m = 2**n
    points = [f._at(j, n) for j in range(m)]
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

    Piece j maps domain leaf d onto range leaf r, the (marker + j)-th, by
    x -> (x 2^(d.n - r.n) + v) mod 1 with v = ((r.a - d.a) mod 2^r.n)/2^r.n.
    When no leaf of g's two trees is deeper than 53, the float mantissa,
    every operand below is an exact float: the piece ends d.a/2^d.n, v and
    1 - v, and u = (x 2^(d.n - r.n)) mod 1.  So one float64 pass finds each
    sample's piece by `np.searchsorted` over the piece starts and takes g(x)
    as u + v, or as u - (1 - v) when u >= 1 - v, one operation rounded once
    to nearest: each value is the float of g's exact image of x, the same
    as an integer numerator divided by its power of two.  Deeper trees, whose
    piece ends are not floats, run `_sup_norm_exact`'s integer loop.  f is
    read off the kept grid where a sample lies on it and called elsewhere; a
    NaN distance is skipped.
    """
    dom, rng = g.domain_tree._leaf_ends(), g.range_tree._leaf_ends()
    rng = rng[g.marker :] + rng[: g.marker]
    if max(n for _, n in dom + rng) > _FLOAT_DEPTH:
        return _sup_norm_exact(f, dom, rng, samples)
    (d_a, d_n), (r_a, r_n) = np.array(dom).T, np.array(rng).T
    starts = np.ldexp(d_a.astype(float), -d_n)
    v = np.ldexp(((r_a - d_a) % np.left_shift(1, r_n)).astype(float), -r_n)
    xs = np.concatenate((np.arange(samples) / samples, starts))
    j = np.searchsorted(starts, xs, side="right") - 1
    u = np.remainder(np.ldexp(xs, (d_n - r_n)[j]), 1.0)
    v, w = v[j], 1.0 - v[j]
    gx = np.where(u >= w, u - w, u + v)
    index = xs * MONOTONE_SAMPLES  # a whole number on the grid
    on = index == np.floor(index)
    fx = np.empty_like(xs)
    fx[on] = f._values[index[on].astype(np.intp)]
    if not on.all():
        fx[~on] = [f(x) for x in xs[~on].tolist()]
    # circle_distance in arrays; Python's max skips a NaN, so drop them
    dist = np.remainder(np.abs(fx - gx), 1.0)
    dist = np.minimum(dist, 1.0 - dist)
    return float(dist[~np.isnan(dist)].max(initial=0.0))


def _sup_norm_exact(f: CircleMap, dom, rng, samples: int) -> float:
    """`sup_norm_error` for trees of any depth, over the (a, n) pairs of the
    domain leaves and of the range leaves they map onto.

    Each sample x is read exactly as num/2^e, its piece found by bisecting
    the piece starts, and g(x) computed as an integer numerator over
    2^(e + r.n); the one int/int division rounds correctly.
    """
    # starts are the d.a over the common denominator 2^depth
    pieces = [(d_n, r_a - d_a, r_n) for (d_a, d_n), (r_a, r_n) in zip(dom, rng)]
    depth = max(d_n for _, d_n in dom)
    starts = [d_a << (depth - d_n) for d_a, d_n in dom]
    xs = [i / samples for i in range(samples)]
    xs.extend(d_a / (1 << d_n) for d_a, d_n in dom)
    at = f._at
    worst = 0.0
    for x in xs:
        num, den = (x % 1.0).as_integer_ratio()
        e = den.bit_length() - 1
        key = num << (depth - e) if e <= depth else num >> (e - depth)
        d_n, shift, r_n = pieces[bisect_right(starts, key) - 1]
        # x = num/2^e, so g(x) = ((num << d.n) + ((r.a - d.a) << e)) / 2^(e + r.n)
        exp = e + r_n
        gx = ((num << d_n) + (shift << e)) % (1 << exp) / (1 << exp)
        worst = max(worst, circle_distance(at(num, e), gx))
    return worst
