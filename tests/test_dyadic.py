"""Exact dyadic arithmetic, standard intervals, trees and partitions."""

import bisect
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from thompson_holo.dyadic import (
    DyadicPartition,
    DyadicRational,
    HALF,
    LEAF,
    ONE,
    StdDyadicInterval,
    TTree,
    ZERO,
    _find_node,
    _graft,
    _interval_of,
    _leaf_subtrees,
    _splice,
    common_refinement,
    refines,
    tree_to_partition,
)
from thompson_holo.errors import NotStandardDyadic, ResourceLimit


dyadics = st.builds(
    DyadicRational,
    st.integers(min_value=-200, max_value=200),
    st.integers(min_value=0, max_value=10),
)


def frac(x: DyadicRational) -> Fraction:
    """x as a Fraction, from its integers alone."""
    return Fraction(x.num, 2**x.exp)


class TestDyadicRational:
    @given(dyadics)
    def test_canonical_form(self, x):
        assert x.exp == 0 or x.num % 2 == 1

    @given(dyadics)
    def test_parse_round_trip(self, x):
        assert DyadicRational.parse(str(x)) == x

    @given(dyadics)
    def test_mod1_range(self, x):
        m = x.mod1()
        assert ZERO <= m < ONE
        assert (frac(x) - frac(m)).denominator == 1

    def test_ordering(self):
        assert DyadicRational(1, 2) < HALF < DyadicRational(3, 2) < ONE

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="^exponent must be non-negative$"):
            DyadicRational(1, -1)

    @given(dyadics, dyadics)
    def test_order_matches_fractions(self, x, y):
        fx, fy = frac(x), frac(y)
        assert (x < y, x <= y, x > y, x == y) == (fx < fy, fx <= fy, fx > fy, fx == fy)

    def test_parse_examples(self):
        assert DyadicRational.parse("3/2^2") == DyadicRational(3, 2)
        assert DyadicRational.parse("0") == ZERO
        assert str(DyadicRational(2, 3)) == "1/2^2"
        assert DyadicRational.parse("3/8") == DyadicRational(3, 3)
        with pytest.raises(NotStandardDyadic, match="^denominator 6 is not a power of two$"):
            DyadicRational.parse("3/6")

    def test_huge_exponents(self, monkeypatch):
        """Canonical form takes one shift, whatever the exponent, and a parsed
        exponent in lowest terms is checked against the amplitude cap."""
        n = 10**12
        assert (DyadicRational(0, n).num, DyadicRational(0, n).exp) == (0, 0)
        assert DyadicRational(-12 << 100000, 100005) == DyadicRational(-3, 3)
        assert DyadicRational.parse("0/2^300000000") == ZERO
        assert DyadicRational.parse(f"{1 << 40}/2^{40 + (1 << 24)}").exp == 1 << 24
        with pytest.raises(
            ResourceLimit,
            match=r"^dyadic rational '1/2\^100000000000': exponent 100000000000 "
            r"exceeds the cap of 16777216$",
        ):
            DyadicRational.parse(" 1/2^100000000000")
        monkeypatch.setenv("THOMPSON_HOLO_MAX_AMPLITUDES", "8")
        assert DyadicRational.parse("3/256") == DyadicRational(3, 8)
        with pytest.raises(
            ResourceLimit, match=r"^dyadic rational '1/512': exponent 9 exceeds the cap of 8$"
        ):
            DyadicRational.parse("1/512")


class TestStdDyadicInterval:
    def test_halves(self):
        left, right = StdDyadicInterval(0, 1).halves()
        assert left == StdDyadicInterval(0, 2)
        assert right == StdDyadicInterval(1, 2)

    def test_from_endpoints_against_fractions(self):
        """[p, q] is standard iff q - p is 1/2^n and p a multiple of it,
        with 0 <= p and q <= 1."""
        points = [Fraction(k, 32) for k in range(-8, 41)]
        for x in points:
            for y in points:
                p, q = (DyadicRational(v.numerator, v.denominator.bit_length() - 1) for v in (x, y))
                w = y - x
                if w > 0 and w.numerator == 1 and (x / w).denominator == 1 and 0 <= x and y <= 1:
                    n = w.denominator.bit_length() - 1
                    assert StdDyadicInterval.from_endpoints(p, q) == StdDyadicInterval(int(x / w), n)
                else:
                    with pytest.raises(NotStandardDyadic):
                        StdDyadicInterval.from_endpoints(p, q)

    def test_interval_of_any_terms(self):
        """The integer test reads p and q in lowest terms or not: written
        over 2^(exp + s) for s = 0..3, each pair gets the answer the
        Fraction rule gives, and a width above 1 is never standard."""
        points = [Fraction(k, 16) for k in range(-8, 41)]
        for x in points:
            for y in points:
                w = y - x
                ok = w > 0 and w.numerator == 1 and (x / w).denominator == 1
                want = (int(x / w), w.denominator.bit_length() - 1) if ok else None
                for s in range(4):
                    pn, qn = (int(v * 2 ** (4 + s)) for v in (x, y))
                    assert _interval_of(pn, 4 + s, qn, 4 + s) == want, (x, y, s)
                    assert _interval_of(pn, 4 + s, int(y * 16), 4) == want, (x, y, s)

    def test_from_endpoints_rejects_non_standard(self):
        with pytest.raises(NotStandardDyadic):
            StdDyadicInterval.from_endpoints(DyadicRational(1, 2), ONE)

    def test_bad_index(self):
        with pytest.raises(NotStandardDyadic):
            StdDyadicInterval(4, 2)


class TestTTree:
    def test_parse_round_trip(self):
        for text in [".", "(..)", "((..).)", "(.((..)(..)))"]:
            assert str(TTree.parse(text)) == text

    def test_leaf_intervals_tile(self):
        t = TTree.parse("((..)(.(..)))")
        ivs = t.leaf_intervals()
        assert ivs[0].left == ZERO and ivs[-1].right == ONE
        for a, b in zip(ivs, ivs[1:]):
            assert a.right == b.left

    def test_num_leaves(self):
        assert TTree.parse("((..)(.(..)))").num_leaves == 5
        assert LEAF.num_leaves == 1

    def test_one_child_rejected(self):
        with pytest.raises(ValueError, match="^internal nodes need exactly two children$"):
            TTree(LEAF, None)

    def test_hash_collision_still_compares_leaf_counts(self):
        caret, three = TTree.parse("(..)"), TTree.parse("(.(..))")
        three._hash = caret._hash
        assert caret != three and three != caret


class TestDyadicPartition:
    def test_rejects_non_standard(self):
        with pytest.raises(NotStandardDyadic):
            DyadicPartition([ZERO, DyadicRational(3, 3), ONE])

    def test_parse_and_str(self):
        p = DyadicPartition.parse("0, 1/2^1, 3/2^2, 1")
        assert len(p) == 3
        assert str(p) == "0, 1/2^1, 3/2^2, 1"

    def test_equality_with_another_type(self):
        p = DyadicPartition.parse("0, 1/2^1, 1")
        assert p.__eq__(p.tree) is NotImplemented
        assert p != p.tree and p != str(p)

    def test_tree_bijection(self):
        for text in ["(..)", "((..).)", "((..)(.(..)))"]:
            t = TTree.parse(text)
            assert tree_to_partition(t).tree == t

    def test_leaf_containing(self):
        p = DyadicPartition.parse("0, 1/2^1, 3/2^2, 1")
        assert p.tree._leaf_of_point(ZERO.num, ZERO.exp)[0] == 0
        assert p.tree._leaf_of_point(HALF.num, HALF.exp)[0] == 1
        assert p.tree._leaf_of_point(7, 3)[0] == 2


def random_partition(draw_tree) -> DyadicPartition:
    return tree_to_partition(draw_tree)


trees = st.recursive(
    st.just(LEAF), lambda kids: st.builds(TTree, kids, kids), max_leaves=12
)


class TestRefinement:
    @given(trees, trees)
    def test_common_refinement_refines_both(self, t1, t2):
        p1, p2 = tree_to_partition(t1), tree_to_partition(t2)
        cr = common_refinement(p1, p2)
        assert refines(p1, cr) and refines(p2, cr)

    @given(trees, trees)
    def test_common_refinement_is_coarsest(self, t1, t2):
        """Merging any sibling pair of the refinement must break refinement."""
        p1, p2 = tree_to_partition(t1), tree_to_partition(t2)
        cr = common_refinement(p1, p2)
        pts = list(cr.breakpoints)
        for i in range(1, len(pts) - 1):
            merged_pts = pts[:i] + pts[i + 1 :]
            try:
                merged = DyadicPartition(merged_pts)
            except NotStandardDyadic:
                continue
            assert not (refines(p1, merged) and refines(p2, merged))

    @given(trees)
    def test_self_refinement(self, t):
        p = tree_to_partition(t)
        assert refines(p, p)
        assert common_refinement(p, p) == p

    def test_example(self):
        p1 = DyadicPartition.parse("0, 1/2^2, 1/2^1, 1")
        p2 = DyadicPartition.parse("0, 1/2^1, 3/2^2, 1")
        cr = common_refinement(p1, p2)
        assert cr == DyadicPartition.parse("0, 1/2^2, 1/2^1, 3/2^2, 1")


class TestPairedWalk:
    """`_leaf_subtrees` on two trees, nested or not: grafting either side's
    subtrees gives the tree of the union of their breakpoints, built by the
    iterative partition constructor."""

    @staticmethod
    def check(t1: TTree, t2: TTree):
        below1, below2 = _leaf_subtrees(t1, t2)
        assert len(below1) == t1.num_leaves and len(below2) == t2.num_leaves
        points = set(tree_to_partition(t1).breakpoints) | set(tree_to_partition(t2).breakpoints)
        assert _graft(t1, below1) == _graft(t2, below2) == DyadicPartition(points).tree

    @given(trees, trees)
    def test_grafts_give_the_union(self, t1, t2):
        self.check(t1, t2)

    def test_deep_staircases_that_do_not_nest(self):
        """A 1200-deep right staircase against a 1200-deep left one."""
        count = 1200
        right = DyadicPartition(
            [ZERO] + [DyadicRational(2**k - 1, k) for k in range(1, count)] + [ONE]
        )
        left = DyadicPartition([ZERO] + [DyadicRational(1, k) for k in range(1, count)] + [ONE])
        assert len(right) == len(left) == count
        self.check(right.tree, left.tree)
        assert not refines(right, left) and not refines(left, right)


# The breakpoint algorithms that the tree operations replaced, kept as
# references.


def coarsest_standard(points) -> tuple[DyadicRational, ...]:
    """Breakpoints of the coarsest standard dyadic partition containing `points`."""
    bps = [ZERO]

    def refine(inner, a, n):
        # inner: given breakpoints strictly inside (a/2^n, (a+1)/2^n)
        if not inner:
            bps.append(DyadicRational(a + 1, n))
            return
        mid = DyadicRational(2 * a + 1, n + 1)
        refine([x for x in inner if x < mid], 2 * a, n + 1)
        refine([x for x in inner if x > mid], 2 * a + 1, n + 1)

    refine(sorted(x for x in set(points) if ZERO < x < ONE), 0, 0)
    return tuple(bps)


def leaf_breakpoints(t: TTree, a: int = 0, n: int = 0) -> list[DyadicRational]:
    """Left endpoints of the leaf intervals of t, by recursion."""
    if t.is_leaf:
        return [DyadicRational(a, n)]
    return leaf_breakpoints(t.left, 2 * a, n + 1) + leaf_breakpoints(t.right, 2 * a + 1, n + 1)


def all_intervals_standard(points) -> bool:
    """In Fractions: every gap is some 1/2^n and starts at a multiple of it."""
    pts = sorted({frac(x) for x in points})
    for left, right in zip(pts, pts[1:]):
        w = right - left
        if w.numerator != 1 or (left / w).denominator != 1:
            return False
    return pts[0] == 0 and pts[-1] == 1


sixteenths = st.sets(st.integers(min_value=1, max_value=15)).map(
    lambda ks: [ZERO, ONE] + [DyadicRational(k, 4) for k in ks]
)


class TestTreeOperationsAgainstBreakpoints:
    @given(trees, trees)
    def test_common_refinement_is_coarsest_over_union(self, t1, t2):
        p1, p2 = tree_to_partition(t1), tree_to_partition(t2)
        union = set(p1.breakpoints) | set(p2.breakpoints)
        assert common_refinement(p1, p2).breakpoints == coarsest_standard(union)

    @given(trees, trees)
    def test_refines_is_breakpoint_subset(self, t1, t2):
        p1, p2 = tree_to_partition(t1), tree_to_partition(t2)
        cr = common_refinement(p1, p2)
        for coarse, fine in [(p1, p2), (p2, p1), (p1, cr), (cr, p1)]:
            assert refines(coarse, fine) == (
                set(coarse.breakpoints) <= set(fine.breakpoints)
            )

    @given(trees)
    def test_breakpoints_round_trip(self, t):
        p = tree_to_partition(t)
        assert p.breakpoints == tuple(leaf_breakpoints(t)) + (ONE,)
        assert DyadicPartition(p.breakpoints) == p
        assert DyadicPartition(reversed(p.breakpoints)).tree == t

    @given(trees, dyadics)
    def test_leaf_containing_is_bisection(self, t, x):
        p = tree_to_partition(t)
        y = x.mod1()
        assert t._leaf_of_point(y.num, y.exp)[0] == bisect.bisect_right(p.breakpoints, y) - 1

    @given(sixteenths)
    def test_constructor_accepts_exactly_the_standard_sets(self, points):
        if all_intervals_standard(points):
            assert DyadicPartition(points).breakpoints == tuple(sorted(set(points)))
        else:
            with pytest.raises(NotStandardDyadic):
                DyadicPartition(points)

    @pytest.mark.parametrize(
        "points",
        [
            [ZERO, DyadicRational(1, 2), ONE],
            [ZERO, DyadicRational(1, 1), DyadicRational(5, 3), ONE],
            [DyadicRational(1, 1), ONE],
            [ZERO, DyadicRational(1, 1)],
            [],
        ],
    )
    def test_rejects(self, points):
        with pytest.raises(NotStandardDyadic):
            DyadicPartition(points)

    def test_deep_staircase(self):
        """1200 intervals halving rightward: deeper than the recursion limit."""
        count = 1200
        points = [ZERO] + [DyadicRational(2**k - 1, k) for k in range(1, count)] + [ONE]
        p = DyadicPartition(points)
        assert len(p) == count
        assert p.tree.num_leaves == count
        assert p.breakpoints == tuple(points)
        assert DyadicPartition(reversed(points)) == p
        assert hash(DyadicPartition(points)) == hash(p)
        assert p.intervals[-1] == StdDyadicInterval(2 ** (count - 1) - 1, count - 1)
        assert refines(DyadicPartition([ZERO, HALF, ONE]), p)

    def test_deep_staircase_tree_walks(self):
        """Union, text form and internal intervals of the 1200-interval
        staircase also stay within the recursion limit."""
        count = 1200
        points = [ZERO] + [DyadicRational(2**k - 1, k) for k in range(1, count)] + [ONE]
        p = DyadicPartition(points)
        assert common_refinement(p, p) == p
        assert common_refinement(p, DyadicPartition([ZERO, HALF, ONE])) == p
        text = str(p.tree)
        assert text == "(." * (count - 1) + "." + ")" * (count - 1)
        assert TTree.parse(text) == p.tree
        internal = p.tree.internal_intervals()
        assert internal == [StdDyadicInterval(2**k - 1, k) for k in range(count - 1)]


class TestTreeText:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty tree text"),
            ("(", "unbalanced parentheses in tree text"),
            ("(.", "unbalanced parentheses in tree text"),
            ("((..)", "unbalanced parentheses in tree text"),
            ("(.)", "unexpected character ')' in tree text"),
            ("x", "unexpected character 'x' in tree text"),
            ("( ..)", "unexpected character ' ' in tree text"),
            ("(...)", "unbalanced parentheses in tree text"),
            ("(..", "unbalanced parentheses in tree text"),
            ("..", "trailing characters in tree text: '.'"),
            ("(..))", "trailing characters in tree text: ')'"),
        ],
    )
    def test_rejects_bad_text(self, text, message):
        with pytest.raises(ValueError) as err:
            TTree.parse(text)
        assert str(err.value) == message


def node_spans(t: TTree) -> dict[tuple[int, int], TTree]:
    """Every node of t by (first leaf index, leaf count)."""
    out, stack = {}, [(t, 0)]
    while stack:
        node, a = stack.pop()
        out[a, node.num_leaves] = node
        if not node.is_leaf:
            stack += [(node.left, a), (node.right, a + node.left.num_leaves)]
    return out


def ref_replace(t: TTree, start: int, count: int, new: TTree) -> TTree:
    """t with its node spanning leaves start .. start+count-1 replaced by `new`."""
    if start == 0 and t.num_leaves == count:
        return new
    k = t.left.num_leaves
    if start < k:
        return TTree(ref_replace(t.left, start, count, new), t.right)
    return TTree(t.left, ref_replace(t.right, start - k, count, new))


class TestLocalEdits:
    """_find_node and _splice against every (start, count) of random trees."""

    @given(trees)
    def test_find_node_finds_exactly_the_nodes(self, t):
        spans = node_spans(t)
        n = t.num_leaves
        for start in range(n + 1):
            for count in range(1, n + 2):
                assert _find_node(t, start, count)[0] is spans.get((start, count))

    @given(trees, trees)
    def test_splice_copies_only_the_path(self, t, new):
        for start, count in node_spans(t):
            node, path = _find_node(t, start, count)
            out = _splice(path, new)
            assert out == ref_replace(t, start, count, new)
            assert node_spans(out)[start, new.num_leaves] is new
            assert _splice(path, node) == t
            # the path is the node's proper ancestors, and every subtree
            # hanging off it is kept by identity
            assert len(path) == sum(a <= start and start + count <= a + k for a, k in node_spans(t)) - 1
            kept = {id(x) for x in node_spans(out).values()}
            assert all(id(p.left if right else p.right) in kept for p, right in path)

    def test_deep_comb(self):
        """A path copy at the bottom of a 1200-deep comb stays iterative."""
        comb = TTree.parse("(." * 1200 + "." + ")" * 1200)
        node, path = _find_node(comb, 1199, 2)
        assert node == TTree(LEAF, LEAF) and len(path) == 1199
        out = _splice(path, LEAF)
        assert out == TTree.parse("(." * 1199 + "." + ")" * 1199)
        assert _find_node(comb, 1199, 3)[0] is None
