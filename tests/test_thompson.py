"""Tree-diagram algebra for the circle groups F and T."""

import functools
import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from thompson_holo.dyadic import LEAF, DyadicRational, TTree, ZERO, _graft, _leaf_subtrees
from thompson_holo.thompson import (
    TreeDiagram,
    _block_element,
    _graft_images,
    _letter_element,
    _right_multiply,
    adjoin_caret,
    compose,
    evaluate,
    generator,
    identity,
    inverse,
    parse_word,
    random_element,
    reduce_diagram,
)


# Independent oracle: the generators as explicit piecewise maps on fractions.


def oracle_a(x: Fraction) -> Fraction:
    if x < Fraction(1, 2):
        return x / 2
    if x < Fraction(3, 4):
        return x - Fraction(1, 4)
    return 2 * x - 1


def oracle_b(x: Fraction) -> Fraction:
    if x < Fraction(1, 2):
        return x
    if x < Fraction(3, 4):
        return x / 2 + Fraction(1, 4)
    if x < Fraction(7, 8):
        return x - Fraction(1, 8)
    return 2 * x - 1


def oracle_c(x: Fraction) -> Fraction:
    if x < Fraction(1, 2):
        return x / 2 + Fraction(3, 4)
    if x < Fraction(3, 4):
        return 2 * x - 1
    return x - Fraction(1, 4)


ORACLES = {"A": oracle_a, "B": oracle_b, "C": oracle_c}

GRID = [Fraction(k, 256) for k in range(256)]


def as_dyadic(q: Fraction) -> DyadicRational:
    return DyadicRational(q.numerator, q.denominator.bit_length() - 1)


def as_frac(x: DyadicRational) -> Fraction:
    return Fraction(x.num, 2**x.exp)


class TestGenerators:
    @pytest.mark.parametrize("name", ["A", "B", "C"])
    def test_matches_piecewise_formula(self, name):
        g = generator(name)
        for x in GRID:
            got = evaluate(g, as_dyadic(x))
            assert got.as_fraction() == ORACLES[name](x) % 1

    def test_c_has_order_three(self):
        c = generator("C")
        assert compose(c, compose(c, c)) == identity()

    def test_markers(self):
        assert generator("A").marker == 0
        assert generator("B").marker == 0
        assert generator("C").marker == 2

    def test_unknown_generator(self):
        for name in ["Q", "a"]:  # a lowercase letter is an inverse, not a generator
            with pytest.raises(ValueError):
                generator(name)


words = st.text(alphabet="ABCabc", min_size=0, max_size=5)


class TestGroupLaws:
    @given(words, words, words)
    @settings(max_examples=40, deadline=None)
    def test_associativity(self, u, v, w):
        f, g, h = parse_word(u), parse_word(v), parse_word(w)
        assert compose(compose(f, g), h) == compose(f, compose(g, h))

    @given(words)
    @settings(max_examples=40, deadline=None)
    def test_identity_and_inverse(self, w):
        f = parse_word(w)
        assert compose(f, identity()) == reduce_diagram(f)
        assert compose(identity(), f) == reduce_diagram(f)
        assert compose(f, inverse(f)) == identity()
        assert compose(inverse(f), f) == identity()

    @given(words, words)
    @settings(max_examples=30, deadline=None)
    def test_compose_matches_functional_composition(self, u, v):
        f, g = parse_word(u), parse_word(v)
        fg = compose(f, g)
        for x in GRID[::8]:
            d = as_dyadic(x)
            assert evaluate(fg, d) == evaluate(f, evaluate(g, d))

    def test_f_subgroup_has_zero_marker(self):
        for w in ["AB", "aB", "Aab", "BBa", "abAB"]:
            assert reduce_diagram(parse_word(w)).marker == 0

    def test_word_letter_case(self):
        assert compose(parse_word("A"), parse_word("a")) == identity()


class TestReduction:
    def test_reduce_idempotent(self):
        for seed in range(25):
            f = random_element(5, seed)
            g = adjoin_caret(adjoin_caret(f, 0), f.num_leaves // 2)
            r = reduce_diagram(g)
            assert reduce_diagram(r) == r
            assert r == f

    def test_reduce_order_independent(self):
        for seed in range(25):
            f = random_element(4, seed)
            g = f
            for j in (0, 1, 0):
                g = adjoin_caret(g, j % g.num_leaves)
            assert reduce_diagram(g) == f

    def test_adjoin_preserves_map(self):
        for seed in range(15):
            f = random_element(4, seed)
            g = adjoin_caret(f, seed % f.num_leaves)
            for x in GRID[::16]:
                d = as_dyadic(x)
                assert evaluate(f, d) == evaluate(g, d)


class TestSerialization:
    def test_round_trip(self):
        for seed in range(10):
            f = random_element(4, seed)
            assert TreeDiagram.parse(str(f)) == f
        with pytest.raises(ValueError, match="^word_length must be non-negative$"):
            random_element(-1, 0)

    def test_parse_examples(self):
        f = TreeDiagram.parse("(.(..))|(.(..))@2")
        assert f.marker == 2 and f.num_leaves == 3

    def test_reject_garbage(self):
        with pytest.raises(ValueError):
            TreeDiagram.parse("(..)")

    def test_marker_out_of_range(self):
        with pytest.raises(ValueError):
            TreeDiagram.parse("(..)|(..)@5")

    @pytest.mark.parametrize("marker", [True, 1.0])
    def test_marker_must_be_an_int(self, marker):
        """A bool or a float marker is refused, not left to fail untyped in
        the group law or the diagram route."""
        caret = TTree(LEAF, LEAF)
        name = type(marker).__name__
        with pytest.raises(ValueError, match=f"^marker must be an int, not {name}$"):
            TreeDiagram(caret, caret, marker)
        assert type(TreeDiagram.parse("(..)|(..)@1").marker) is int
        with pytest.raises(ValueError):
            TreeDiagram.parse(f"(..)|(..)@{marker}")


# Reference PL view: f as its affine pieces, the form evaluation took before
# it descended the two trees.


@dataclass(frozen=True)
class PLMap:
    """Exact PL circle map: pieces (x0, x1, y0, slope_exp) with slope 2^slope_exp.

    Each piece maps [x0, x1) affinely onto [y0, y0 + (x1-x0)*2^slope_exp),
    values taken mod 1.  Ends are Fractions, built from the leaf intervals'
    integers, so the scan does no dyadic arithmetic.
    """

    pieces: tuple[tuple[Fraction, Fraction, Fraction, int], ...]


def to_pl_map(f: TreeDiagram) -> PLMap:
    dom = f.domain_tree.leaf_intervals()
    rng = f.range_tree.leaf_intervals()
    n = f.num_leaves
    pieces = []
    for j, d in enumerate(dom):
        r = rng[(f.marker + j) % n]
        pieces.append(
            (Fraction(d.a, 2**d.n), Fraction(d.a + 1, 2**d.n), Fraction(r.a, 2**r.n), d.n - r.n)
        )
    return PLMap(tuple(pieces))


def pl_scan(pl: PLMap, x: DyadicRational) -> DyadicRational:
    """Reference evaluation: a linear scan over the pieces of a PL map."""
    x = as_frac(x) % 1
    for x0, x1, y0, k in pl.pieces:
        if x0 <= x < x1:
            return as_dyadic((y0 + (x - x0) * Fraction(2) ** k) % 1)
    raise ValueError(f"{x} not covered by any piece")


class TestEvaluateAgainstPLScan:
    def test_random_elements(self):
        rng = random.Random(31)
        for _ in range(120):
            n = rng.randint(1, 60)
            f = TreeDiagram(random_tree(rng, n), random_tree(rng, n), rng.randrange(n))
            points = [iv.left for iv in f.domain_tree.leaf_intervals()]
            points += [iv.right for iv in f.domain_tree.internal_intervals()]
            points += [DyadicRational(rng.randrange(2**20), 20) for _ in range(20)]
            points += [DyadicRational(rng.randrange(-9, 9), rng.randint(0, 3)) for _ in range(5)]
            pl = to_pl_map(f)
            for x in points:
                assert evaluate(f, x) == pl_scan(pl, x), (str(f), str(x))

    def test_generators_and_inverses(self):
        for w in "ABCabc":
            f = parse_word(w)
            pl = to_pl_map(f)
            for x in GRID:
                assert evaluate(f, as_dyadic(x)) == pl_scan(pl, as_dyadic(x))

    def test_deep_trees(self):
        """Trees 70-200 levels deep, past 64-bit numerators: combs against
        each other and a random word's product, at leaf breakpoints, just
        below them, just below 1 and at seeded points finer than any leaf."""
        rng = random.Random(35)
        left, right = LEAF, LEAF
        for _ in range(120):
            left, right = TTree(left, LEAF), TTree(LEAF, right)
        elements = [
            TreeDiagram(left, right, 7),
            TreeDiagram(right, left, 0),
            random_element(1600, 3),
        ]
        for f in elements:
            depth = max(n for _, n in f.domain_tree._leaf_ends() + f.range_tree._leaf_ends())
            assert depth > 64
            pl = to_pl_map(f)
            ends = rng.sample(f.domain_tree.leaf_intervals(), 40)
            points = [iv.left for iv in ends]
            points += [DyadicRational((iv.a << 3) - 1, iv.n + 3) for iv in ends if iv.a]
            points += [DyadicRational((1 << e) - 1, e) for e in (1, 2, 63, 64, 65, depth, depth + 9)]
            points += [DyadicRational(rng.randrange(1 << e), e) for e in range(60, depth + 12, 7)]
            points += [DyadicRational(rng.randrange(-(1 << 70), 1 << 70), 66) for _ in range(5)]
            for x in points:
                assert evaluate(f, x) == pl_scan(pl, x), (str(f)[:40], str(x))


class TestPLMap:
    def test_slopes_are_powers_of_two(self):
        for seed in range(10):
            pl = to_pl_map(random_element(4, seed))
            widths = sum((x1 - x0) * Fraction(2) ** k for x0, x1, _, k in pl.pieces)
            assert widths == 1  # image tiles the circle exactly

    def test_bijective_on_grid(self):
        for seed in range(10):
            f = random_element(4, seed)
            seen = {evaluate(f, as_dyadic(x)) for x in GRID}
            assert len(seen) == len(GRID)


# Reference algebra: the caret-at-a-time edits the one-pass walks replaced.
# Reduction removes one common caret at a time in a random order; expansion
# adjoins one caret at a time at the first leaf where the target is deeper.


def ref_subdivide_leaf(tree: TTree, j: int) -> TTree:
    if tree.is_leaf:
        return TTree(LEAF, LEAF)
    nl = tree.left.num_leaves
    if j < nl:
        return TTree(ref_subdivide_leaf(tree.left, j), tree.right)
    return TTree(tree.left, ref_subdivide_leaf(tree.right, j - nl))


def ref_remove_caret(tree: TTree, j: int) -> TTree:
    if tree.left.is_leaf and tree.right.is_leaf:
        return LEAF
    nl = tree.left.num_leaves
    if j < nl:
        return TTree(ref_remove_caret(tree.left, j), tree.right)
    return TTree(tree.left, ref_remove_caret(tree.right, j - nl))


def ref_caret_positions(tree: TTree, offset: int = 0) -> list[int]:
    if tree.is_leaf:
        return []
    if tree.left.is_leaf and tree.right.is_leaf:
        return [offset]
    return ref_caret_positions(tree.left, offset) + ref_caret_positions(
        tree.right, offset + tree.left.num_leaves
    )


def ref_adjoin_caret(f: TreeDiagram, j: int) -> TreeDiagram:
    k = (f.marker + j) % f.num_leaves
    return TreeDiagram(
        ref_subdivide_leaf(f.domain_tree, j),
        ref_subdivide_leaf(f.range_tree, k),
        f.marker + 1 if k < f.marker else f.marker,
    )


def ref_reduce(f: TreeDiagram, rng: random.Random) -> TreeDiagram:
    while True:
        n = f.num_leaves
        range_carets = set(ref_caret_positions(f.range_tree))
        candidates = [
            (j, (f.marker + j) % n)
            for j in ref_caret_positions(f.domain_tree)
            if (f.marker + j) % n + 1 < n and (f.marker + j) % n in range_carets
        ]
        if not candidates:
            return f
        j, k = rng.choice(candidates)
        f = TreeDiagram(
            ref_remove_caret(f.domain_tree, j),
            ref_remove_caret(f.range_tree, k),
            f.marker - 1 if f.marker > k else f.marker,
        )


def ref_first_expandable_leaf(tree: TTree, target: TTree):
    if tree.is_leaf:
        return None if target.is_leaf else 0
    j = ref_first_expandable_leaf(tree.left, target.left)
    if j is not None:
        return j
    j = ref_first_expandable_leaf(tree.right, target.right)
    return None if j is None else j + tree.left.num_leaves


def ref_expand_domain(f: TreeDiagram, target: TTree) -> TreeDiagram:
    while f.domain_tree != target:
        f = ref_adjoin_caret(f, ref_first_expandable_leaf(f.domain_tree, target))
    return f


def ref_union(t1: TTree, t2: TTree) -> TTree:
    if t1.is_leaf or t2.is_leaf:
        return t2 if t1.is_leaf else t1
    return TTree(ref_union(t1.left, t2.left), ref_union(t1.right, t2.right))


def ref_compose(f: TreeDiagram, g: TreeDiagram) -> TreeDiagram:
    target = ref_union(g.range_tree, f.domain_tree)
    g = inverse(ref_expand_domain(inverse(g), target))
    f = ref_expand_domain(f, target)
    n = f.num_leaves
    joined = TreeDiagram(g.domain_tree, f.range_tree, (f.marker + g.marker) % n)
    return ref_reduce(joined, random.Random(0))


# The whole-tree product: the union of g's range tree and f's domain tree,
# both factors expanded to it by grafting, and one reduction walk over the
# result.  It never runs the path copies of `_right_multiply`, which
# `compose` is, so it checks them independently.


def expand_domain(f: TreeDiagram, target: TTree) -> TreeDiagram:
    """f with carets adjoined until its domain tree is `target`, which must
    contain it from the root down."""
    below = _leaf_subtrees(f.domain_tree, target)[0]
    return TreeDiagram(target, *_graft_images(f.range_tree, f.marker, below))


def expand_compose(f: TreeDiagram, g: TreeDiagram) -> TreeDiagram:
    """Reduced diagram of f o g by expanding both factors to one tree."""
    target = _graft(g.range_tree, _leaf_subtrees(g.range_tree, f.domain_tree)[0])
    g = inverse(expand_domain(inverse(g), target))
    f = expand_domain(f, target)
    n = f.num_leaves
    return reduce_diagram(
        TreeDiagram(g.domain_tree, f.range_tree, (f.marker + g.marker) % n)
    )


def random_tree(rng: random.Random, leaves: int) -> TTree:
    if leaves == 1:
        return LEAF
    left = rng.randrange(1, leaves)
    return TTree(random_tree(rng, left), random_tree(rng, leaves - left))


def random_unreduced(rng: random.Random) -> TreeDiagram:
    """Two random trees of 1-40 leaves, a random marker and 0-5 adjoined
    carets, so most pairs have some but not all carets in common."""
    n = rng.randint(1, 40)
    f = TreeDiagram(random_tree(rng, n), random_tree(rng, n), rng.randrange(n))
    for _ in range(rng.randint(0, 5)):
        f = ref_adjoin_caret(f, rng.randrange(f.num_leaves))
    return f


class TestOnePassAgainstReference:
    def test_reduce_matches_caret_at_a_time(self):
        rng = random.Random(2024)
        for _ in range(300):
            f = random_unreduced(rng)
            expected = ref_reduce(f, random.Random(0))
            assert reduce_diagram(f) == expected

    def test_reference_is_confluent(self):
        rng = random.Random(99)
        for _ in range(60):
            f = random_unreduced(rng)
            results = {ref_reduce(f, random.Random(k)) for k in range(6)}
            assert results == {reduce_diagram(f)}

    def test_adjoin_caret_matches_reference(self):
        rng = random.Random(11)
        for _ in range(100):
            f = random_unreduced(rng)
            for j in range(f.num_leaves):
                assert adjoin_caret(f, j) == ref_adjoin_caret(f, j)
        n = f.num_leaves
        for j in (-1, n):
            with pytest.raises(IndexError, match=f"^leaf index {j} out of range for {n} leaves$"):
                adjoin_caret(f, j)

    def test_expand_domain_matches_reference(self):
        rng = random.Random(13)
        for _ in range(200):
            f = random_unreduced(rng)
            target = f.domain_tree
            for _ in range(rng.randint(0, 12)):
                target = ref_subdivide_leaf(target, rng.randrange(target.num_leaves))
            assert expand_domain(f, target) == ref_expand_domain(f, target)

    def test_compose_matches_reference(self):
        rng = random.Random(17)
        for _ in range(150):
            f, g = random_unreduced(rng), random_unreduced(rng)
            assert compose(f, g) == ref_compose(f, g)

    def test_compose_words_matches_reference(self):
        rng = random.Random(19)
        for _ in range(40):
            u = "".join(rng.choice("ABCabc") for _ in range(rng.randint(0, 30)))
            v = "".join(rng.choice("ABCabc") for _ in range(rng.randint(0, 30)))
            f, g = parse_word(u), parse_word(v)
            assert compose(f, g) == ref_compose(f, g)


class TestDeepTrees:
    def test_reduce_and_compose_a_1100_deep_diagram(self):
        deep = TTree.parse("(." * 1100 + "." + ")" * 1100)
        f = TreeDiagram(deep, deep, 0)
        assert str(TreeDiagram.parse(str(f))) == str(f)
        assert reduce_diagram(f) == identity()
        assert compose(f, f) == identity()
        assert reduce_diagram(adjoin_caret(f, 1100)) == identity()

    def test_unequal_deep_trees_are_told_apart_by_their_hashes(self):
        """Two right combs of 4000 carets that differ only at the bottom.
        Tree equality rejects unequal trees by their cached hashes; without
        the cache it walks whole subtrees, and these two calls took 3.4 s,
        against 0.05 s with it."""
        a, b = TTree.parse("((..).)"), TTree.parse("(.(..))")
        for _ in range(3998):
            a, b = TTree(LEAF, a), TTree(LEAF, b)
        f = TreeDiagram(a, b, 0)
        start = time.perf_counter()
        reduced, square = reduce_diagram(f), compose(f, f)
        assert time.perf_counter() - start < 0.5
        assert (reduced.num_leaves, square.num_leaves) == (4001, 4002)

    def test_reduce_builds_no_caret_inside_a_block(self, monkeypatch):
        """T | T is one block at its root, 920 leaves: the collapse enters no
        block, so reducing it builds no tree; rebuilding every caret and
        dropping those inside a block would build 1836."""
        tree, one = random_element(4000, 1).domain_tree, identity()
        built, init = [], TTree.__init__
        monkeypatch.setattr(TTree, "__init__", lambda t, *kids: built.append(t) or init(t, *kids))
        assert tree.num_leaves == 920
        assert reduce_diagram(TreeDiagram(tree, tree, 0)) == one
        assert built == []

    def test_reduce_collapses_4001_blocks_in_one_walk(self):
        """A right comb and a left comb of 4000 carets with every leaf a caret:
        8002 leaves, reducing to the two combs.  The whole-tree collapse took
        0.03 s here; collapsing the 4001 blocks one by one through path
        copies, as `_right_multiply` does, took 10 s."""
        right = left = LEAF
        for _ in range(4000):
            right, left = TTree(LEAF, right), TTree(left, LEAF)
        f = TreeDiagram(_graft(right, [_CARET] * 4001), _graft(left, [_CARET] * 4001))
        start = time.perf_counter()
        reduced = reduce_diagram(f)
        assert time.perf_counter() - start < 1
        assert reduced == TreeDiagram(right, left, 0)


LETTERS = [_letter_element(c) for c in "ABCabc"]
_CARET = TTree(LEAF, LEAF)


def reference_word(word: str) -> TreeDiagram:
    """The word's element by the whole-tree product, one letter at a time."""
    return functools.reduce(expand_compose, map(_letter_element, word), identity())


def nodes(tree: TTree) -> list[TTree]:
    """Every node of `tree`, each once."""
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        out.append(node)
        if not node.is_leaf:
            stack += [node.left, node.right]
    return out


def depth(tree: TTree) -> int:
    out, stack = 0, [(tree, 0)]
    while stack:
        node, d = stack.pop()
        out = max(out, d)
        if not node.is_leaf:
            stack += [(node.left, d + 1), (node.right, d + 1)]
    return out


def random_reduced(rng: random.Random, leaves: int) -> TreeDiagram:
    return reduce_diagram(
        TreeDiagram(random_tree(rng, leaves), random_tree(rng, leaves), rng.randrange(leaves))
    )


class TestRightMultiply:
    """The path-copying product against the whole-tree product, exactly."""

    def test_short_words_times_each_letter(self):
        elements = {
            reference_word("".join(w))
            for k in range(4)
            for w in itertools.product("ABCabc", repeat=k)
        }
        assert len(elements) == 128
        for f in elements:
            for g in LETTERS:
                assert _right_multiply(f, g) == expand_compose(f, g)

    @pytest.mark.parametrize("leaves", [1, 2, 3, 7, 30, 120, 400, 700])
    def test_random_elements_times_each_letter(self, leaves):
        rng = random.Random(leaves)
        for _ in range(3):
            f = random_reduced(rng, leaves)
            for g in LETTERS + [random_reduced(rng, rng.randint(1, 6))]:
                assert _right_multiply(f, g) == expand_compose(f, g)

    def test_parse_word_matches_compose(self):
        rng = random.Random(23)
        for _ in range(60):
            w = "".join(rng.choice("ABCabc") for _ in range(rng.randint(0, 120)))
            assert parse_word(w) == reference_word(w)

    def test_long_word_then_its_inverse(self):
        """After the word, each letter of its inverse undoes one letter: the
        products retrace the word's prefixes exactly, down to the identity."""
        rng = random.Random(3200)
        word = "".join(rng.choice("ABCabc") for _ in range(3200))
        prefixes = [identity()]
        for letter in word:
            prefixes.append(_right_multiply(prefixes[-1], _letter_element(letter)))
        assert prefixes[-1].num_leaves > 500
        f = prefixes.pop()
        for letter in word[::-1].swapcase():
            f = _right_multiply(f, _letter_element(letter))
            assert f == prefixes.pop()
        assert str(f) == ".|.@0"
        assert str(parse_word(word + word[::-1].swapcase())) == ".|.@0"

    def test_deep_comb_times_each_letter(self):
        right = TTree.parse("(." * 1100 + "." + ")" * 1100)
        left = TTree.parse("(" * 1100 + "." + ".)" * 1100)
        for f in (TreeDiagram(right, left, 0), TreeDiagram(left, right, 0), TreeDiagram(right, left, 700)):
            assert reduce_diagram(f) == f
            for g in LETTERS:
                assert _right_multiply(f, g) == expand_compose(f, g)

    def test_builds_one_diagram(self, monkeypatch):
        """The only TreeDiagram one product constructs is its result: g^-1's
        domain tree is grafted straight from g, not through inverse(g)."""
        rng = random.Random(5)
        cases = [(random_reduced(rng, leaves), g) for leaves in (1, 2, 9, 40) for g in LETTERS]
        built = []
        post_init = TreeDiagram.__post_init__

        def counting_post_init(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(TreeDiagram, "__post_init__", counting_post_init)
        for f, g in cases:
            built.clear()
            h = _right_multiply(f, g)
            assert len(built) == 1 and built[0] is h

    def test_shares_all_but_a_few_paths(self):
        """Nodes of the product that are not nodes of f (by identity) are a
        few root-to-leaf paths and g's own nodes: no silent rebuild.  f's
        shallow domain leaves make the letters graft, and f = f0 g^-1 makes
        the product collapse back to f0."""
        rng = random.Random(41)
        for leaves in (200, 700):
            t = random_tree(rng, leaves - 2)
            for dom in (TTree(LEAF, TTree(LEAF, t)), TTree(TTree(t, LEAF), LEAF), TTree(_CARET, t)):
                f0 = reduce_diagram(
                    TreeDiagram(dom, random_tree(rng, leaves), rng.randrange(leaves))
                )
                for g in LETTERS:
                    for f in (f0, compose(f0, inverse(g))):
                        old = {id(x) for tree in (f.domain_tree, f.range_tree) for x in nodes(tree)}
                        h = _right_multiply(f, g)
                        new = {
                            id(x)
                            for tree in (h.domain_tree, h.range_tree)
                            for x in nodes(tree)
                            if id(x) not in old
                        }
                        paths = depth(f.domain_tree) + depth(f.range_tree)
                        size = len(nodes(g.domain_tree)) + len(nodes(g.range_tree))
                        assert len(new) <= 2 * (paths + size) < f.num_leaves


def sized_unreduced(rng: random.Random, leaves: int) -> TreeDiagram:
    """A random tree pair with 0-5 carets adjoined, `leaves` leaves in all."""
    carets = rng.randint(0, min(5, leaves - 1))
    n = leaves - carets
    f = TreeDiagram(random_tree(rng, n), random_tree(rng, n), rng.randrange(n))
    for _ in range(carets):
        f = ref_adjoin_caret(f, rng.randrange(f.num_leaves))
    return f


RIGHT_COMB = TTree.parse("(." * 1100 + "." + ")" * 1100)
LEFT_COMB = TTree.parse("(" * 1100 + "." + ".)" * 1100)


def comb(text: str) -> TreeDiagram:
    """A diagram of 1101-leaf right (R) and left (L) combs, e.g. "R|L@3"."""
    return TreeDiagram.parse(text.replace("R", str(RIGHT_COMB)).replace("L", str(LEFT_COMB)))


class TestComposeAgainstExpansion:
    """`compose` right-multiplies the larger factor, reduced, by the smaller
    one (through inverses when g is larger); the whole-tree product is the
    reference."""

    @pytest.mark.parametrize("order", ["f smaller", "equal", "f larger"])
    def test_unreduced_pairs(self, order):
        rng = random.Random(len(order))
        for _ in range(150):
            n, m = sorted(rng.randint(1, 40) for _ in range(2))
            if order == "equal":
                m = n
            elif n == m:
                m += 1
            f, g = sized_unreduced(rng, n), sized_unreduced(rng, m)
            if order == "f larger":
                f, g = g, f
            assert compose(f, g) == expand_compose(f, g), (str(f), str(g))

    def test_identity_on_either_side(self):
        rng = random.Random(29)
        for _ in range(100):
            f = random_unreduced(rng)
            assert compose(f, identity()) == expand_compose(f, identity()) == reduce_diagram(f)
            assert compose(identity(), f) == expand_compose(identity(), f) == reduce_diagram(f)

    @pytest.mark.parametrize(
        "f, g",
        [
            ("R|L@3", "R|R@500"),
            ("R|L@0", "R|L@0"),
            ("R|L@0", "L|R@0"),
            ("R|R@7", "R|R@5"),
            ("L|L@9", "R|L@0"),
        ],
    )
    def test_comb_pairs(self, f, g):
        f, g = comb(f), comb(g)
        assert compose(f, g) == expand_compose(f, g)


def reference_parse_word(word: str) -> TreeDiagram:
    """The word's element by `_right_multiply`, one letter at a time."""
    element = identity()
    for letter in word.strip():
        element = _right_multiply(element, _letter_element(letter))
    return element


class TestBlockParse:
    """`parse_word` multiplies blocks of three letters from a table; the
    reduced diagram is canonical, so it equals the letter-by-letter product."""

    def test_every_length_to_40(self):
        rng = random.Random(40)
        for length in range(41):
            for _ in range(5):
                w = "".join(rng.choice("ABCabc") for _ in range(length))
                assert parse_word(w) == reference_parse_word(w), w

    def test_long_and_comb_words(self):
        rng = random.Random(800)
        words = [
            "".join(rng.choice("ABCabc") for _ in range(800)),
            "A" * 400 + "a" * 5 + "B" * 300,
            "a" * 301 + "B" * 2 + "b" * 200,
            "C" * 7 + "A" * 250 + "c" * 4,
        ]
        for w in words:
            assert parse_word(w) == reference_parse_word(w), w[:20]

    def test_surrounding_whitespace(self):
        for w in ["  ABC", "aBc\n", "\t AbCa  ", " \n", "  Cb\t"]:
            assert parse_word(w) == reference_parse_word(w) == parse_word(w.strip())

    @pytest.mark.parametrize("position", range(6))
    def test_bad_letter_message(self, position):
        word = "ABCabc"[:position] + "x" + "ABCabc"[position + 1 :]
        with pytest.raises(ValueError) as expected:
            reference_parse_word(word)
        with pytest.raises(ValueError) as got:
            parse_word(word)
        assert str(got.value) == str(expected.value) == "unknown word letter 'x'"

    def test_table_holds_every_block_once(self):
        blocks = ["".join(w) for k in (1, 2, 3) for w in itertools.product("ABCabc", repeat=k)]
        assert len(blocks) == 258 == _block_element.cache_info().maxsize
        _block_element.cache_clear()
        for bad in ["x", "Ax", "ABx", " ", "A B", "abd"]:
            with pytest.raises(ValueError):
                _block_element(bad)
        assert _block_element.cache_info().currsize == 0
        for w in blocks:
            assert _block_element(w) == reference_parse_word(w)
        filled = _block_element.cache_info()
        assert filled.currsize == 258
        for w in blocks:
            parse_word(w)
        assert _block_element.cache_info().misses == filled.misses
