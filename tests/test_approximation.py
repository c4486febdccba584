"""Greedy Thompson approximation of circle maps."""

import cmath
import heapq
import math
import random
from bisect import bisect_left, bisect_right

import pytest

from thompson_holo import approximation
from thompson_holo.approximation import (
    MONOTONE_SAMPLES,
    CircleMap,
    TieEvent,
    _greedy_range,
    approximate,
    circle_distance,
    identity_map,
    mobius_map,
    parse_map,
    rotation_map,
    sup_norm_error,
    tabulated_map,
)
from thompson_holo.dyadic import DyadicRational, StdDyadicInterval
from thompson_holo.errors import DegenerateImage, NotMonotone
from thompson_holo.thompson import (
    TreeDiagram,
    evaluate,
    identity,
    parse_word,
    random_element,
    reduce_diagram,
)

from test_contract import APPROXIMATION_SPECS


# ---------------------------------------------------------------------------
# The algorithms the library used before the rows of equal count, the heap,
# the bisected counts and the PL-piece sup norm; each is the reference for its
# rewrite.


def scan_greedy_range(points, n):
    """Rescan every interval's count on every step; ties to the leftmost."""
    intervals = [StdDyadicInterval(0, 0)]
    ties = []

    def count(iv):
        lo, hi = float(iv.left), float(iv.right)
        return sum(1 for p in points if lo <= p < hi)

    step = 0
    while len(intervals) < 2**n:
        counts = [count(iv) for iv in intervals]
        best = max(counts)
        tied = [iv for iv, c in zip(intervals, counts) if c == best]
        chosen = tied[0]
        if len(tied) > 1:
            ties.append(TieEvent(step, best, chosen, tuple(tied)))
        i = intervals.index(chosen)
        intervals[i : i + 1] = list(chosen.halves())
        step += 1
    return intervals, ties


def heap_greedy_range(points, n):
    """Pop the fullest interval off a heap keyed (-count, left endpoint), pop
    the entries tied with it and push them back; ties to the leftmost."""
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


def float_marker(intervals, image):
    """The interval whose float endpoints hold the image of 0; an image
    rounded up to 1.0 falls past the last one and takes interval 0."""
    marker = bisect_right([float(iv.left) for iv in intervals], image) - 1
    return 0 if image >= float(intervals[marker].right) else marker


def evaluate_sup_norm_error(f, g, samples=1024):
    """The sup norm with each value of g from the tree-walking `evaluate`."""
    xs = [i / samples for i in range(samples)]
    xs.extend(float(iv.left) for iv in g.domain_tree.leaf_intervals())
    worst = 0.0
    for x in xs:
        num, den = float(x % 1.0).as_integer_ratio()
        gx = float(evaluate(g, DyadicRational(num, den.bit_length() - 1)))
        worst = max(worst, circle_distance(f(x), gx))
    return worst


def scan_tabulated(pairs):
    """The tabulated map's interpolant, finding its piece by a linear scan."""
    pts = sorted((x % 1.0, y % 1.0) for x, y in pairs)
    xs = [p[0] for p in pts]
    lift = [pts[0][1]]
    for _, y in pts[1:]:
        prev = lift[-1]
        lift.append(prev + ((y - prev) % 1.0))
    xs.append(xs[0] + 1.0)
    lift.append(pts[0][1] + 1.0)

    def func(x):
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

    return func


def seeded_mobius(seed):
    rng = random.Random(seed)
    while True:
        a, b = rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)
        if abs(complex(a, b)) < 0.6:
            return mobius_map(a, b)


def clustered_map():
    """Half the level-n image points land in [0, 1/8), the other half spread
    over [1/2, 1): splitting [0, 1/2] leaves [0, 1/4] with all its points,
    tied with [1/2, 1] one level up."""
    return tabulated_map([(0.0, 0.0), (0.4999, 0.12), (0.5, 0.5), (0.9999, 0.9999)])


class TestCircleMap:
    def test_decreasing_rejected(self):
        with pytest.raises(NotMonotone):
            CircleMap(lambda x: (1.0 - x) % 1.0)

    def test_constant_rejected(self):
        with pytest.raises(NotMonotone):
            CircleMap(lambda x: 0.25)

    def test_winding_two_rejected(self):
        with pytest.raises(NotMonotone):
            CircleMap(lambda x: (2 * x) % 1.0)

    def test_mobius_parameter_validated(self):
        with pytest.raises(ValueError):
            mobius_map(0.8, 0.7)

    def test_wraps_input(self):
        f = rotation_map(DyadicRational.parse("1/2^2"))
        assert f(1.25) == pytest.approx(0.5)


def grid_maps():
    rng = random.Random(2024)
    maps = [identity_map()]
    maps += [rotation_map(DyadicRational.parse(p)) for p in ("1/2^1", "3/2^3", "-5/2^4")]
    while len(maps) < 34:
        a, b = rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95)
        if abs(complex(a, b)) < 0.95:
            maps.append(mobius_map(a, b))
    maps.append(tabulated_map([(0.0, 0.1), (0.3, 0.2), (0.55, 0.7), (0.8, 0.95)]))
    return maps


# Parameters at the edges of the Mobius grid's array arithmetic: |w| near 1,
# signed zeros, and |w| = 0.9999 in each quadrant.  Only |w| > 1/sqrt(2) makes
# some denominator 1 - conj(w) z have |Im| > |Re|, the second branch of the
# quotient's Smith rule.
EDGE_SPECS = [
    "mobius:0.99999999,0",
    "mobius:0,0.9",
    "mobius:-0.0,0.5",
    "mobius:0.5,-0.0",
    "mobius:0.59994,0.79992",
    "mobius:-0.79992,0.59994",
    "mobius:-0.59994,-0.79992",
    "mobius:0.79992,-0.59994",
]


def edge_maps():
    return [parse_map(spec) for spec in EDGE_SPECS]


class TestGrid:
    """The kept checking grid is the map's own values, bit for bit, and the
    lookup serves them for exactly the points f would compute."""

    @pytest.mark.parametrize("f", grid_maps() + edge_maps(), ids=lambda f: f.name)
    def test_grid_is_exact(self, f):
        ref = [f.func(i / MONOTONE_SAMPLES) % 1.0 for i in range(MONOTONE_SAMPLES)]
        assert list(map(float.hex, f._grid)) == list(map(float.hex, ref))

    def test_edges_reach_both_branches_of_the_quotient(self):
        roots = [cmath.exp(2j * math.pi * (i / MONOTONE_SAMPLES)) for i in range(MONOTONE_SAMPLES)]
        branches = set()
        for spec in EDGE_SPECS:
            w = complex(*map(float, spec.split(":")[1].split(",")))
            branches |= {abs(d.real) >= abs(d.imag) for d in (1 - w.conjugate() * z for z in roots)}
        assert branches == {True, False}

    @pytest.mark.parametrize("f", grid_maps(), ids=lambda f: f.name)
    def test_lookup_matches_the_map(self, f):
        rng = random.Random(f.name)
        xs = [i / MONOTONE_SAMPLES for i in range(MONOTONE_SAMPLES)]
        xs += [rng.random() for _ in range(45)]
        xs += [(2 * rng.randrange(4096) + 1) / 8192 for _ in range(5)]
        for x in xs:
            num, den = x.as_integer_ratio()
            assert f._at(num, den.bit_length() - 1).hex() == f(x).hex(), x

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: parse_map("mobius:nan,0"), "map 'mobius:nan,0.0' is not finite at x=0.0"),
            (lambda: CircleMap(lambda x: 0.25), "map 'custom' is not strictly increasing near x=0.0"),
            (
                lambda: CircleMap(lambda x: x if x < 0.5 else 0.5, "flat"),
                "map 'flat' is not strictly increasing near x=0.5",
            ),
            (
                lambda: CircleMap(lambda x: (1.0 - x) % 1.0),
                "map 'custom' has winding number 4095, expected 1",
            ),
            (lambda: CircleMap(lambda x: (2 * x) % 1.0), "map 'custom' has winding number 2, expected 1"),
            (
                lambda: CircleMap(lambda x: x if x < 0.75 else math.nan, "late-nan"),
                "map 'late-nan' is not finite at x=0.75",
            ),
            (
                lambda: CircleMap(lambda x: math.inf if x == 0.25 else x, "one-inf"),
                "map 'one-inf' is not finite at x=0.25",
            ),
            (
                lambda: CircleMap(lambda x: min(x, 0.9), "capped"),
                "map 'capped' is not strictly increasing near x=0.900146484375",
            ),
        ],
        ids=["nan", "constant", "flat", "reversed", "degree-2", "late-nan", "one-inf", "capped"],
    )
    def test_rejection_messages(self, make, message):
        with pytest.raises(NotMonotone) as info:
            make()
        assert str(info.value) == message


class TestApproximate:
    def test_identity_exact(self):
        for n in (1, 2, 4):
            res = approximate(identity_map(), n)
            assert res.sup_error == 0.0
            assert reduce_diagram(res.element) == identity()
            assert res.marker_interval == 0

    def test_dyadic_rotation_exact(self):
        res = approximate(rotation_map(DyadicRational.parse("1/2^2")), 3)
        assert res.sup_error == 0.0
        assert res.marker_interval == 2  # image of 0 lands at 1/4
        assert res.element.marker == 2

    def test_rotation_matches_group_element(self):
        res = approximate(rotation_map(DyadicRational.parse("3/2^2")), 2)
        assert res.sup_error == pytest.approx(0.0, abs=1e-12)
        rot = TreeDiagram.parse("((..)(..))|((..)(..))@3")
        assert reduce_diagram(res.element) == reduce_diagram(rot)

    def test_mobius_errors_decrease(self):
        f = mobius_map(0.3, 0.1)
        errs = [approximate(f, n).sup_error for n in range(3, 8)]
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:])), errs
        assert errs[-1] < 0.05

    def test_error_bounded_by_mesh(self):
        f = mobius_map(0.2, -0.25)
        res = approximate(f, 5)
        # the greedy range is a refinement into 2^n pieces; the element
        # interpolates f at every domain breakpoint image up to one cell
        assert res.sup_error <= 0.5
        assert len(res.range_partition) == 2**5

    def test_deterministic(self):
        f = mobius_map(0.3, 0.1)
        r1, r2 = approximate(f, 4), approximate(f, 4)
        assert r1.element == r2.element
        assert r1.ties == r2.ties

    def test_degenerate_image(self):
        # strictly increasing on the monotonicity grid, but constant on the
        # finer scale a level-13 approximation samples
        stair = CircleMap(lambda x: math.floor(x * 4096) / 4096)
        with pytest.raises(DegenerateImage):
            approximate(stair, 13)

    def test_non_finite_image(self):
        # finite on the monotonicity grid, NaN between its points
        gappy = CircleMap(lambda x: x if (x * 4096).is_integer() else math.nan, "gappy")
        with pytest.raises(NotMonotone, match="^map 'gappy' is not finite at level 13$"):
            approximate(gappy, 13)

    def test_level_validated(self):
        with pytest.raises(ValueError):
            approximate(identity_map(), 0)


class TestTies:
    def test_identity_ties_resolved_leftmost(self):
        events = approximate(identity_map(), 3).ties
        assert events  # uniform points tie at every full level
        for ev in events:
            assert ev.chosen == min(ev.tied, key=lambda iv: iv.left.as_fraction())

    def test_tie_count_bounded(self):
        events = approximate(mobius_map(0.1, 0.0), 4).ties
        assert len(events) <= 2**4 - 1  # one event max per split


class TestSupNorm:
    def test_identity_vs_half_rotation(self):
        f = rotation_map(DyadicRational.parse("1/2^1"))
        assert sup_norm_error(f, identity()) == pytest.approx(0.5)

    def test_circle_distance(self):
        assert circle_distance(0.1, 0.9) == pytest.approx(0.2)
        assert circle_distance(0.0, 1.0) == 0.0

    def test_zero_for_matching_element(self):
        f = rotation_map(DyadicRational.parse("1/2^2"))
        res = approximate(f, 2)
        assert sup_norm_error(f, res.element) == 0.0


class TestParseMap:
    def test_builtins(self):
        assert parse_map("identity").name == "identity"
        assert parse_map("rotation:1/2^1").name == "rotation:1/2^1"
        assert parse_map("mobius:0.3,0.1").name == "mobius:0.3,0.1"

    def test_file(self, tmp_path):
        p = tmp_path / "map.txt"
        rows = [(i / 64, ((i / 64) + 0.25) % 1.0) for i in range(64)]
        p.write_text(
            "# sampled rotation\n"
            + "\n".join(f"{x} {y}" for x, y in rows)
        )
        f = parse_map(str(p))
        assert f(0.0) == pytest.approx(0.25)
        res = approximate(f, 2)
        assert res.sup_error == pytest.approx(0.0, abs=1e-9)

    def test_tabulated_needs_two_points(self):
        with pytest.raises(ValueError):
            tabulated_map([(0.0, 0.0)])


class TestReferences:
    """The rows of equal count and the leaf-interval sup norm against the
    scans they replace: the same intervals, the same tie events, the same
    marker and the same float error."""

    @staticmethod
    def check(f, n):
        m = 2**n
        points = [f(j / m) for j in range(m)]
        tree, ties = _greedy_range(points, n)
        ref_intervals, ref_ties = scan_greedy_range(points, n)
        assert tree.leaf_intervals() == ref_intervals
        assert list(ties) == ref_ties
        res = approximate(f, n)
        assert list(res.ties) == ref_ties
        assert res.marker_interval == float_marker(ref_intervals, points[0])
        samples = max(4 * m, 256)
        assert res.sup_error == evaluate_sup_norm_error(f, res.element, samples)
        return ref_ties

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_mobius(self, seed):
        f = seeded_mobius(seed)
        for n in range(1, 9):
            self.check(f, n)

    @pytest.mark.parametrize("spec", ["identity", "rotation:1/2^1", "rotation:3/2^3", "rotation:5/2^4"])
    def test_every_level_ties(self, spec):
        f = parse_map(spec)
        for n in range(1, 8):
            ties = self.check(f, n)
            assert len(ties) == 2**n - n - 1  # all but the last split at each depth

    def test_ties_across_depths(self):
        f = clustered_map()
        across = 0
        for n in range(2, 9):
            ties = self.check(f, n)
            across += sum(len({iv.n for iv in ev.tied}) > 1 for ev in ties)
        assert across  # some tie is between intervals of different depths

    @pytest.mark.parametrize("spec", ["identity", "rotation:3/2^3", "seeded"])
    def test_heap_at_levels_beyond_the_scan(self, spec):
        """Levels 9-11, where the scan is too slow: the heap the rows replace
        gives the same intervals and tie events, the quadratic record included."""
        f = seeded_mobius(7) if spec == "seeded" else parse_map(spec)
        for n in range(9, 12):
            m = 2**n
            points = [f(j / m) for j in range(m)]
            tree, ties = _greedy_range(points, n)
            ref_intervals, ref_ties = heap_greedy_range(points, n)
            assert tree.leaf_intervals() == ref_intervals
            assert list(ties) == ref_ties
            if spec != "seeded":
                assert len(ties) == 2**n - n - 1

    def test_image_of_zero_rounded_up_to_one(self):
        """f(0) = -1e-17 reduces to the float 1.0, the circle point 0, so the
        marker is leaf 0, as the float bisection's wrap-around made it."""
        f = CircleMap(lambda x: x - 1e-17)
        assert f(0.0) == 1.0
        for n in range(1, 6):
            res = approximate(f, n)
            assert res.marker_interval == 0

    @staticmethod
    def sup_norm_case(case):
        """(f, g, samples): cases 0-29 are seeded Mobius maps against random
        elements at 1024 samples; 30-33 take 3, 300, 1000 and 8192 samples,
        the last reaching points off the 4096-point grid; 34 is the
        clustered map; 35-45 are approximants at levels 1-11.  Case 30 is
        the half turn against its own element, so the error is the rounding
        of f(x) = x + 1/2 alone: rounding g(x) = x - 1/2 as f does (first
        x + 1/2, then - 1) would read 0.0."""
        if case < 30:
            return seeded_mobius(100 + case), random_element(1 + 3 * case, case), 1024
        if case == 30:
            return parse_map("rotation:1/2^1"), TreeDiagram.parse("(..)|(..)@1"), 3
        if case < 34:
            samples = (300, 1000, 8192)[case - 31]
            return seeded_mobius(100 + case), random_element(40, case), samples
        if case == 34:
            return clustered_map(), random_element(25, case), 1024
        f, n = seeded_mobius(100 + case), case - 34
        return f, approximate(f, n).element, max(4 * 2**n, 256)

    @pytest.mark.parametrize("case", range(46))
    def test_sup_norm_of_random_elements(self, case):
        f, g, samples = self.sup_norm_case(case)
        assert sup_norm_error(f, g, samples) == evaluate_sup_norm_error(f, g, samples)

    DEEP_COMB = "(." * 120 + "." + ")" * 120
    DEEP_LEFT = "(" * 120 + "." + ".)" * 120

    def test_sup_norm_of_a_deep_element(self):
        """Breakpoints finer than a float's mantissa: the pieces are still
        found and evaluated exactly."""
        comb, left = self.DEEP_COMB, self.DEEP_LEFT
        f = mobius_map(0.3, 0.1)
        for text in (f"{comb}|{left}@0", f"{left}|{comb}@7", f"{comb}|{comb}@3"):
            g = TreeDiagram.parse(text)
            assert sup_norm_error(f, g, 300) == evaluate_sup_norm_error(f, g, 300)

    def test_integer_loop_only_beyond_the_mantissa(self, monkeypatch):
        """The integer loop runs for the 120-deep comb and for no approximant
        of the pinned specs at levels 0-13: the float pass serves them all."""
        runs = []
        exact = approximation._sup_norm_exact

        def recorded(*args):
            runs.append(args)
            return exact(*args)

        monkeypatch.setattr(approximation, "_sup_norm_exact", recorded)
        f = mobius_map(0.3, 0.1)
        comb = TreeDiagram.parse(f"{self.DEEP_COMB}|{self.DEEP_COMB}@3")
        assert sup_norm_error(f, comb, 300) == evaluate_sup_norm_error(f, comb, 300)
        assert len(runs) == 1
        approximants = 0
        for spec in APPROXIMATION_SPECS:
            try:
                f = parse_map(spec)
            except (ValueError, NotMonotone):
                continue
            for n in range(14):
                try:
                    approximate(f, n)
                except (ValueError, DegenerateImage, NotMonotone):
                    continue
                approximants += 1
        assert len(runs) == 1 and approximants == 8 * 13


class TestTabulatedReference:
    """The bisected piece lookup against the linear scan, exactly."""

    @staticmethod
    def sample_pairs(rng, k):
        xs = [rng.random() for _ in range(k)]
        xs += rng.sample(xs, k // 4)  # repeated abscissae
        xs.sort()
        ys = sorted(rng.random() for _ in xs)
        return list(zip(xs, ys))

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_samples(self, seed):
        rng = random.Random(seed)
        pairs = self.sample_pairs(rng, rng.randint(2, 60))
        new, ref = tabulated_map(pairs).func, scan_tabulated(pairs)
        probes = [x for x, _ in pairs] + [rng.random() for _ in range(300)]
        probes += [0.0, 1.0, -0.25, 1.5, math.nextafter(pairs[0][0], -1.0)]
        probes += [math.nextafter(x, 2.0) for x, _ in pairs]
        for x in probes:
            assert new(x) == ref(x), x

    def test_repeated_first_abscissa(self):
        pairs = [(0.25, 0.1), (0.25, 0.3), (0.5, 0.5), (0.75, 0.7)]
        new, ref = tabulated_map(pairs).func, scan_tabulated(pairs)
        for x in (0.0, 0.25, 0.3, 0.5, 0.75, 0.9, math.nextafter(0.25, 0.0)):
            assert new(x) == ref(x), x

    def test_non_finite_sample_rejected(self):
        with pytest.raises(NotMonotone, match="^map 'tabulated' is not finite at x="):
            tabulated_map([(0.0, 0.0), (0.5, math.nan)])
