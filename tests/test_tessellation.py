"""Dyadic tessellations of the disc, Pachner flips and the group action."""

import collections
import functools
import hashlib
import itertools
import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

from thompson_holo import tessellation
from thompson_holo.dyadic import LEAF, DyadicPartition, DyadicRational, StdDyadicInterval, TTree
from thompson_holo.errors import (
    EdgeNotFound,
    LabelNotRepresented,
    NotStandardDyadic,
    ResourceLimit,
    SearchExhausted,
)
from thompson_holo.tensor import _check_cap
from thompson_holo.tessellation import (
    _DOE_FLIP,
    E0,
    Chord,
    FareyLabeling,
    Tessellation,
    _flip_range,
    _Triangulation,
    _chord_pairs,
    _normalize_label,
    _render_tree,
    _standard_window,
    _window_chord,
    _window_index,
    _window_rows,
    apply_element,
    apply_flips,
    chord,
    farey_labels,
    flips_realizing,
    interval_chord,
    pachner_flip,
    render_svg,
    standard_tessellation,
)
from thompson_holo.thompson import (
    TreeDiagram,
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
from test_contract import python
from test_thompson import as_frac, expand_compose, pl_scan, to_pl_map


# The generators of T's presentation as the mapping class group Pt of the
# Farey tessellation: alpha of order 4 and beta = CC of order 3.
ALPHA = TreeDiagram.parse("((..)(..))|((..)(..))@1")
BETA = TreeDiagram.parse("(.(..))|(.(..))@1")


def flip_element(a: int, k: int) -> TreeDiagram:
    """The r of `_flip_product`: for k >= 2 its domain tree is the range
    tree of the interval's sibling."""
    if k == 1:
        return _DOE_FLIP
    return TreeDiagram(_flip_range(a ^ 1, k, 0), _flip_range(a, k, 0), 0)


def d(text: str) -> DyadicRational:
    return DyadicRational.parse(text)


def ch(a: str, b: str) -> Chord:
    return chord(d(a), d(b))


# Independent oracle for membership in the base tessellation: a chord
# {a, b} with a < b belongs iff [a, b] or its complement through 1 is a
# standard interval of positive level.


def oracle_standard(a: Fraction, b: Fraction) -> bool:
    def is_std(lo: Fraction, hi: Fraction) -> bool:
        w = hi - lo
        if w <= 0 or w > Fraction(1, 2):
            return False
        if w.numerator != 1 or w.denominator & (w.denominator - 1):
            return False
        return (lo / w).denominator == 1

    if a > b:
        a, b = b, a
    return is_std(a, b) or (a == 0 and is_std(b, Fraction(1)))


class TestStandardSet:
    def test_against_oracle(self):
        pts = [Fraction(k, 16) for k in range(16)]
        for a in pts:
            for b in pts:
                if a == b:
                    continue
                got = _window_index(
                    chord(
                        DyadicRational(a.numerator, a.denominator.bit_length() - 1),
                        DyadicRational(b.numerator, b.denominator.bit_length() - 1),
                    )
                )
                assert (got is not None) == oracle_standard(a, b), (a, b)

    def test_e0(self):
        assert _window_index(E0) == 0
        assert _window_index(ch("1/2^2", "3/2^2")) is None  # not an interval chord


class TestChordOrder:
    """Chord order against comparing (Fraction(a), Fraction(b)): seeded
    points from a small pool, so that many chords share an end, and exponents
    past 64 bits; built sorted by `chord` and unsorted by hand."""

    def test_against_fractions(self):
        rng = random.Random(35)
        pool = [d("0"), d("1/2^1")]
        for _ in range(10):
            exp = rng.choice([1, 2, 3, 7, 63, 64, 65, 130])
            pool.append(DyadicRational(rng.randrange(1 << exp), exp))
        chords = []
        for _ in range(80):
            p, q = rng.sample(pool, 2)
            if p == q:
                continue
            chords.append(chord(p, q) if rng.random() < 0.6 else Chord(p, q))
        assert any(c.a > c.b for c in chords) and len({c.a for c in chords}) < len(chords)
        for x, y in itertools.product(chords, repeat=2):
            fx, fy = (as_frac(x.a), as_frac(x.b)), (as_frac(y.a), as_frac(y.b))
            assert (x < y, x <= y, x > y, x >= y, x == y) == (
                fx < fy, fx <= fy, fx > fy, fx >= fy, fx == fy
            ), (str(x), str(y))

    def test_other_types_do_not_order(self):
        with pytest.raises(TypeError):
            E0 < (0, 1)


class TestFaceApex:
    def test_base_faces_next_to_e0(self):
        t = standard_tessellation(3)
        # [0,1/2] side splits at 1/4; [1/2,1] side splits at 3/4
        assert t.face_apex(E0, True) == d("1/2^2")
        assert t.face_apex(E0, False) == d("3/2^2")

    def test_interior_edge(self):
        t = standard_tessellation(3)
        c = ch("1/2^2", "1/2^1")
        assert t.face_apex(c, True) == d("3/2^3")
        assert t.face_apex(c, False) == d("0")

    def test_missing_edge(self):
        t = standard_tessellation(2)
        with pytest.raises(EdgeNotFound):
            t.face_apex(ch("1/2^3", "1/2^1"), True)
        t, c = standard_tessellation(3), ch("1/2^2", "3/2^2")
        message = r"^1/2\^2~3/2\^2 is not an edge of this tessellation$"
        with pytest.raises(EdgeNotFound, match=message):
            pachner_flip(t, c)
        for ccw in (True, False):
            with pytest.raises(EdgeNotFound, match=message):
                t.face_apex(c, ccw)


class TestPachnerFlip:
    def test_non_doe_flip_is_involution(self):
        """Flipping a chord and then the chord it brought in gives back the
        tessellation and the parent's diff tuples exactly, in order; from
        tau_0 and from a walked tessellation with a longer carried diff."""
        rng = random.Random(31)
        walked = standard_tessellation(4)
        for _ in range(30):
            edges = walked.window_edges()
            walked = pachner_flip(walked, edges[int(rng.random() * len(edges))])
        for t in (standard_tessellation(3), walked):
            for c in t.window_edges():
                if c == chord(*t.doe):
                    continue
                t2 = pachner_flip(t, c)
                assert not t2.same_tessellation(t)
                (new_edge,) = (t2.added - t.added) | (t.removed - t2.removed)
                back = pachner_flip(t2, new_edge)
                assert back.same_tessellation(t)
                assert back._diff == t._diff
        assert len(walked.removed) > 5

    def test_swapped_chord_is_normalized_in_carried_diff(self):
        t = standard_tessellation(3)
        t.window_edges()  # caches tau_0's diff, so the flip carries it
        t2 = pachner_flip(t, Chord(d("1/2^1"), d("1/2^2")))
        assert "_diff" in vars(t2)
        assert t2._diff == ((2,), (ch("0", "3/2^3"),))  # 2: the chord of [1/4, 1/2]
        assert (t2.removed, t2.added) == ref_diff(t2)
        t3 = pachner_flip(t2, Chord(d("3/2^3"), d("0")))
        assert t3._diff == t._diff

    def test_flip_exchanges_diagonals(self):
        t = standard_tessellation(2)
        t2 = pachner_flip(t, ch("1/2^2", "1/2^1"))
        assert t2.added == frozenset({ch("0", "3/2^3")})
        assert t2.removed == frozenset({ch("1/2^2", "1/2^1")})

    def test_doe_flip_has_order_four(self):
        t = standard_tessellation(2)
        seen = [t]
        cur = t
        for _ in range(4):
            cur = pachner_flip(cur, cur.doe_chord())
            seen.append(cur)
        assert seen[4].same_tessellation(t)
        assert not any(seen[k].same_tessellation(t) for k in (1, 2, 3))

    def test_doe_flip_square_reverses_orientation(self):
        t = standard_tessellation(2)
        t2 = pachner_flip(t, t.doe_chord())
        t4 = pachner_flip(t2, t2.doe_chord())
        assert t4.doe == (t.doe[1], t.doe[0])
        assert t4.removed == frozenset() and t4.added == frozenset()

    def test_history_recorded(self):
        t = standard_tessellation(3)
        c = ch("1/2^2", "1/2^1")
        t2 = pachner_flip(t, c)
        assert t2.flips == (c,)


def flip_branch(f: TreeDiagram, a: int, k: int, product: TreeDiagram) -> str:
    """How pachner_flip multiplies f by the rotation r of [a/2^k, (a+1)/2^k]'s
    parent P into `product`: a graft of a path down to P when P is not a
    node of f's domain tree, of one caret when the interval is a domain leaf
    under P, and a rotation in place (with or without a collapse) when P and
    the interval both are internal nodes; the doe flip is the general
    product."""

    def internal(a: int, k: int) -> bool:
        node = f.domain_tree
        for shift in range(k - 1, -1, -1):
            if node.is_leaf:
                return False
            node = node.right if (a >> shift) & 1 else node.left
        return not node.is_leaf

    if k == 1:
        return "doe"
    if not internal(a >> 1, k - 1):
        return "graft"
    if not internal(a, k):
        return "leaf"
    return "collapse" if product.num_leaves < f.num_leaves else "rotate"


def assert_diff_is_derived(t: Tessellation):
    """t's cached diff, sorted window positions and sorted added chords, is
    the one derived from its element's trees: compared as pairs of range
    leaf indices, which order chords as their points do, so deep trees cost
    no chord per step but the removed ones."""
    f = t.element
    n = f.num_leaves
    old, new = _chord_pairs(f.range_tree, 0, n), _chord_pairs(f.domain_tree, f.marker, n)
    ends = f.range_tree._leaf_ends()
    top = max(k for _, k in ends)
    index = {a << (top - k): i for i, (a, k) in enumerate(ends)}

    def pairs(chords):
        return [tuple(index.get(x.num << (top - x.exp)) for x in c.endpoints()) for c in chords]

    removed, added = vars(t)["_diff"]
    assert list(removed) == sorted(set(removed)), str(f)
    got = (sorted(pairs(map(_window_chord, removed))), pairs(added))
    assert got == (sorted(old - new), sorted(new - old)), str(f)


def assert_flip_matches_product(t: Tessellation, edge: Chord, branches: collections.Counter):
    """t flipped at `edge` has the element f flip_element(a, k), by the
    general product, and carries the diff derived from that element."""
    (a, k), _ = t._edge_interval(edge)
    t._diff  # cached, so the flip carries it
    child = pachner_flip(t, edge)
    product = _right_multiply(t.element, flip_element(a, k))
    assert child.element == product, (str(t.element), a, k)
    assert_diff_is_derived(child)
    branches[flip_branch(t.element, a, k, product)] += 1
    return child


class TestFlipProduct:
    """pachner_flip edits f's trees locally for every flip but the doe flip
    (a graft where P or the interval is not a domain node, then a rotation
    in place with at most one collapse), against the general product f r."""

    BRANCHES = {"graft", "rotate", "collapse", "leaf", "doe"}

    def test_every_window_edge_of_seeded_walks(self):
        rng = random.Random(2026)
        branches = collections.Counter()
        for depth in range(3, 7):
            for _ in range(4):
                t = standard_tessellation(depth)
                for step in range(rng.randint(0, 30)):
                    edges = t.window_edges()
                    if step % 6 == 0:
                        for e in edges:
                            assert_flip_matches_product(t, e, branches)
                    e = t.doe_chord() if rng.random() < 0.1 else edges[int(rng.random() * len(edges))]
                    t = pachner_flip(t, e)
                for e in t.window_edges():
                    assert_flip_matches_product(t, e, branches)
        assert set(branches) == self.BRANCHES, branches

    def test_oracle_replay_at_344_leaves(self):
        """Trees about 200 deep, where nearly every flip is a rotation."""
        f = random_element(1600, 3)
        assert f.num_leaves == 344
        branches = collections.Counter()
        t = standard_tessellation(6)
        for e in flips_realizing(f, 6):
            t = assert_flip_matches_product(t, e, branches)
        assert t.element == f
        assert set(branches) == self.BRANCHES, branches

    def test_only_the_doe_flip_takes_the_general_product(self, monkeypatch):
        """Over the seeded walks and the 344-leaf replay, pachner_flip calls
        `_right_multiply` once per doe flip and for no other flip; the
        replay makes exactly 2 such calls, all within 60 s."""
        start = time.perf_counter()
        f = random_element(1600, 3)
        replay, calls = flips_realizing(f, 6), []
        general = tessellation._right_multiply
        monkeypatch.setattr(
            tessellation, "_right_multiply", lambda f, g: calls.append(g) or general(f, g)
        )
        rng, does = random.Random(2026), 0
        for depth in range(3, 7):
            for _ in range(4):
                t = standard_tessellation(depth)
                for _ in range(rng.randint(0, 30)):
                    edges = t.window_edges()
                    e = t.doe_chord() if rng.random() < 0.1 else edges[int(rng.random() * len(edges))]
                    does += e == t.doe_chord()
                    t = pachner_flip(t, e)
        t, before, replay_does = standard_tessellation(6), len(calls), 0
        for e in replay:
            replay_does += e == t.doe_chord()
            t = pachner_flip(t, e)
        assert time.perf_counter() - start < 60
        assert t.element == f
        assert len(calls) - before == replay_does == 2
        assert calls == [_DOE_FLIP] * (does + replay_does) and does > 0

    @pytest.mark.parametrize(
        "element, a, k, branch, product",
        [
            # domain leaf 1 holds P = [1/2, 3/4]; its image, range leaf 0,
            # lies before the marker, which grows by the two new leaves
            ("(.(..))|(.(..))@2", 4, 3, "graft", "(.((.(..)).))|(((..).)(..))@4"),
            # domain leaf 0 holds P = [0, 1/4] one level down; its image is
            # range leaf m, so the marker stays
            ("(.(..))|(.(..))@2", 1, 3, "graft", "((((..).).)(..))|(.(.((.(..)).)))@2"),
            # the new inner caret collapses onto range leaves 0-1, before
            # the marker, which falls by one
            ("(.((..).))|((..)(..))@2", 2, 2, "collapse", "(.(..))|(.(..))@1"),
            # the rotated P collapses onto range leaves 0-2, before the
            # marker, which falls by two
            ("(.((..).))|((.(..)).)@3", 2, 2, "collapse", "(..)|(..)@1"),
            # the new inner caret collapses onto range leaves 3-4, which start
            # at the marker; above it the domain tree goes right past a leaf
            # and the range tree left past a leaf, so nothing more collapses
            ("((.(..))(..))|((..)(.(..)))@3", 1, 2, "collapse", "((..)(..))|((..)(..))@3"),
            # iv = [1/2, 3/4] is domain leaf 1 under P = [1/2, 1]: one caret
            # under it and under its image, range leaf 0, which lies before
            # the marker, so the marker grows by one; then the rotation at P
            ("(.(..))|(.(..))@2", 2, 2, "leaf", "(.(.(..)))|((..)(..))@3"),
            # iv = [3/4, 1] is domain leaf 2, the right child of P; its image,
            # range leaf 2, lies after the marker, which stays
            ("(.(..))|((..).)@0", 3, 2, "leaf", "(.((..).))|((..)(..))@0"),
        ],
    )
    def test_marker_arithmetic(self, element, a, k, branch, product):
        f = TreeDiagram.parse(element)
        iv = StdDyadicInterval(a, k)
        edge = chord(evaluate(f, iv.left), evaluate(f, iv.right))
        t = Tessellation(4, f)
        assert t._edge_interval(edge)[0] == (a, k)
        branches = collections.Counter()
        child = assert_flip_matches_product(t, edge, branches)
        assert branches == {branch: 1}
        assert str(child.element) == product

    def test_flip_elements_pinned(self):
        """r for every interval at levels 2-8, each tree built as a range
        tree (the domain tree is the sibling interval's), hashed against the
        digest of the same elements built as two paths at once."""
        h = hashlib.sha256()
        for k in range(2, 9):
            for a in range(2**k):
                h.update((str(flip_element(a, k)) + "\n").encode())
        assert h.hexdigest() == "95f116bceb427c1f2b378d530ce2df79b303ae42064aca387e5d70ef61cbb578"


class TestSerialization:
    def test_round_trip(self):
        t = standard_tessellation(3)
        t = apply_flips(t, [ch("1/2^2", "1/2^1"), t.doe_chord()])
        assert Tessellation.from_json(t.to_json()).same_tessellation(t)

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"depth": "x", "doe": ["0", "1/2^1"]}, "tessellation 'depth' is not an integer: \"x\""),
            (
                {"depth": 3, "doe": ["0", "1/2^1"], "flips": "x"},
                "tessellation 'flips' is not a list: \"x\"",
            ),
            (
                {"depth": 3, "doe": ["1/2^1", "0"], "flips": []},
                """tessellation 'doe' ["1/2^1", "0"] does not match flip history """
                """(got ["0", "1/2^1"])""",
            ),
            ({"depth": 2.5, "doe": ["0", "1/2^1"]}, "tessellation 'depth' is not an integer: 2.5"),
            ({"depth": True, "doe": ["0", "1/2^1"]}, "tessellation 'depth' is not an integer: true"),
            ({"depth": "3", "doe": ["0", "1/2^1"]}, "tessellation 'depth' is not an integer: \"3\""),
            (
                {"depth": 3, "doe": ["0", "1/2^1"], "flips": {"a": 1}},
                """tessellation 'flips' is not a list: {"a": 1}""",
            ),
            (
                {"depth": 3, "doe": ["0"], "flips": []},
                """tessellation 'doe': not a [p, q] pair of strings: ["0"]""",
            ),
            # text given as a string is read as it stands: json.dumps cannot
            # write these, and json.loads recurses on them
            pytest.param(
                "[" * 100000 + "]" * 100000,
                "tessellation JSON nests too deeply",
                id="deep-array",
            ),
            pytest.param(
                '{"depth": 3, "doe": ["0", "1/2^1"], "flips": '
                + "[" * 100000 + "]" * 100000 + "}",
                "tessellation JSON nests too deeply",
                id="deep-flips",
            ),
        ],
    )
    def test_from_json_rejects(self, data, message):
        with pytest.raises(ValueError) as err:
            Tessellation.from_json(data if isinstance(data, str) else json.dumps(data))
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "flips, error, message",
        [
            ([["0", "0"]], ValueError, "a chord needs two distinct circle points"),
            ([["0", None]], ValueError, """not a [p, q] pair of strings: ["0", null]"""),
            ([["x", "0"]], ValueError, "cannot parse dyadic rational: 'x'"),
            ([["1/3", "0"]], NotStandardDyadic, "denominator 3 is not a power of two"),
            (
                [["1/2^2", "1/2^1"], ["1/2^3", "1/2^1"]],
                EdgeNotFound,
                "1/2^3~1/2^1 is not an edge of this tessellation",
            ),
        ],
    )
    def test_from_json_names_the_flip(self, flips, error, message):
        """An error raised while reading flip k keeps its type and is
        prefixed with the flip's index."""
        data = {"depth": 3, "doe": ["0", "1/2^1"], "flips": flips}
        with pytest.raises(error) as err:
            Tessellation.from_json(json.dumps(data))
        assert type(err.value) is error
        assert str(err.value) == f"tessellation flip {len(flips) - 1}: {message}"

    def test_action_result_has_no_history(self):
        t = apply_element(standard_tessellation(3), generator("B"))
        with pytest.raises(ValueError):
            t.to_json()


class TestDepthValidated:
    """A depth is a non-negative int, not a bool, as from_json reads it."""

    @pytest.mark.parametrize("depth", [True, False, 2.5, 3.0, "3", None])
    def test_non_integer_depth(self, depth):
        message = f"^depth must be an int, not {type(depth).__name__}$"
        with pytest.raises(ValueError, match=message):
            standard_tessellation(depth)
        with pytest.raises(ValueError, match=message):
            Tessellation(depth, generator("B"))
        with pytest.raises(ValueError, match=message):
            flips_realizing(parse_word("B"), depth)

    @pytest.mark.parametrize("depth", [-1, -7])
    def test_negative_depth(self, depth):
        with pytest.raises(ValueError, match="^depth must be non-negative$"):
            standard_tessellation(depth)
        with pytest.raises(ValueError, match="^depth must be non-negative$"):
            flips_realizing(parse_word("B"), depth)

    def test_depth_zero(self):
        assert len(standard_tessellation(0).window_edges()) == 2**3 - 3
        assert flips_realizing(parse_word("B"), 0) == flips_realizing(parse_word("B"), 6)


class TestApplyElement:
    def test_identity(self):
        t = standard_tessellation(3)
        assert apply_element(t, identity()).same_tessellation(t)

    def test_a_fixes_edges_moves_doe(self):
        t = apply_element(standard_tessellation(4), generator("A"))
        assert t.removed == frozenset() and t.added == frozenset()
        assert t.doe == (d("0"), d("1/2^2"))

    def test_c_fixes_edges_moves_doe(self):
        t = apply_element(standard_tessellation(4), generator("C"))
        assert t.removed == frozenset() and t.added == frozenset()
        assert t.doe == (d("3/2^2"), d("0"))

    def test_b_localized_change(self):
        t = apply_element(standard_tessellation(4), generator("B"))
        assert t.doe == (d("0"), d("1/2^1"))
        assert t.removed == frozenset({ch("1/2^1", "3/2^2")})
        assert t.added == frozenset({ch("0", "5/2^3")})
        # ... which is exactly one flip away from the base tessellation
        assert flips_realizing(generator("B"), 4) == [ch("1/2^1", "3/2^2")]

    def test_composition_functorial(self):
        t0 = standard_tessellation(4)
        from thompson_holo.thompson import compose

        for u, v in [("A", "B"), ("C", "A"), ("B", "c"), ("ab", "C")]:
            f, g = parse_word(u), parse_word(v)
            lhs = apply_element(t0, compose(f, g))
            rhs = apply_element(apply_element(t0, g), f)
            assert lhs.same_tessellation(rhs)

    def test_inverse_action(self):
        t0 = standard_tessellation(4)
        from thompson_holo.thompson import inverse

        for w in ["A", "B", "C", "BA"]:
            f = parse_word(w)
            roundtrip = apply_element(apply_element(t0, f), inverse(f))
            assert roundtrip.same_tessellation(t0)


# Stern-Brocot oracle for vertex labels on the right half-disc: the label
# p/q at dyadic vertex x in (0, 1/2) satisfies ?(p/(p+q)) = 2x where ? is
# the Minkowski question-mark function.


class TestApplyElementAgainstExpansion:
    """apply_element multiplies the inverses by path copies; the whole-tree
    product of f and t's element is the reference."""

    @staticmethod
    def starts() -> list[Tessellation]:
        rng = random.Random(71)
        out = [standard_tessellation(4), apply_element(standard_tessellation(5), parse_word("aCb"))]
        for k in range(6):
            t = out[k % 2]
            for _ in range(rng.randint(1, 40)):
                edges = t.window_edges()
                t = pachner_flip(t, t.doe_chord() if rng.random() < 0.2 else rng.choice(edges))
            out.append(t)
        assert out[2].flips
        out.append(Tessellation.from_json(out[2].to_json()))
        return out

    def test_short_words(self):
        elements = reduced_words(3)
        assert len(elements) == 128
        for t in self.starts():
            for f in elements:
                assert apply_element(t, f).element == expand_compose(f, t.element)

    def test_unreduced_elements(self):
        rng = random.Random(73)
        for t in self.starts():
            for _ in range(20):
                f = parse_word("".join(rng.choice("ABCabc") for _ in range(rng.randint(0, 12))))
                for _ in range(rng.randint(1, 4)):
                    f = adjoin_caret(f, rng.randrange(f.num_leaves))
                assert apply_element(t, f).element == expand_compose(f, t.element)


def question_mark(x: Fraction) -> Fraction:
    """Minkowski ? via the continued fraction of x in [0, 1]."""
    if x == 0:
        return Fraction(0)
    if x == 1:
        return Fraction(1)
    cf = []
    num, den = x.numerator, x.denominator
    while den:
        cf.append(num // den)
        num, den = den, num % den
    total = Fraction(0)
    exp = 0
    sign = 1
    for a in cf[1:]:
        exp += a
        total += sign * Fraction(2, 2**exp)
        sign = -sign
    return total


class TestFareyLabels:
    def test_takes_only_its_pairs(self):
        pairs = ((d("0"), (0, 1)), (d("1/2^1"), (1, 0)))
        assert FareyLabeling(pairs).vertex_of((1, 0)) == d("1/2^1")
        with pytest.raises(TypeError):
            FareyLabeling(pairs, {}, {})

    def test_base_labels_match_question_mark(self):
        t = standard_tessellation(3)
        lab = farey_labels(t)
        for v in lab.vertices():
            p, q = lab.label_of(v)
            if q == 0 or p * q < 0 or (p, q) == (0, 1):
                continue
            if p < 0:
                continue
            x = v.as_fraction()
            if not (0 < x <= Fraction(1, 2)):
                continue
            assert question_mark(Fraction(p, p + q)) == 2 * x, (v, p, q)

    def test_seed_labels(self):
        lab = farey_labels(standard_tessellation(2))
        assert lab.label_of(d("0")) == (0, 1)
        assert lab.label_of(d("1/2^1")) == (1, 0)
        assert lab.label_of(d("1/2^2")) == (1, 1)
        assert lab.label_of(d("3/2^2")) == (-1, 1)

    def test_fraction_lookup(self):
        lab = farey_labels(standard_tessellation(3))
        assert lab.vertex_of(Fraction(1, 2)) == lab.vertex_of((1, 2))
        assert lab.vertex_of((2, -4)) == lab.vertex_of((-1, 2)) == d("7/2^3")
        with pytest.raises(LabelNotRepresented):
            lab.vertex_of((100, 1))

    def test_unlabelled_vertex(self):
        lab = farey_labels(standard_tessellation(2))
        with pytest.raises(LabelNotRepresented, match=r"vertex 1/2\^9 not represented"):
            lab.label_of(DyadicRational(1, 9))
        with pytest.raises(LabelNotRepresented, match=r"vertex 1/2\^9 "):
            lab.label_of(DyadicRational(513, 9))  # the same circle point

    def test_labels_move_with_action(self):
        """Acting by f carries the vertex with a given label to the image
        vertex with the same label."""
        from thompson_holo.thompson import evaluate

        t0 = standard_tessellation(3)
        for w in ["A", "B", "C"]:
            f = parse_word(w)
            t1 = apply_element(t0, f)
            for label in [(0, 1), (1, 0), (1, 1), (1, 2), (2, 1)]:
                v0 = farey_labels(t0).vertex_of(label)
                v1 = farey_labels(t1, max_exponent=8).vertex_of(label)
                assert v1 == evaluate(f, v0).mod1(), (w, label)

    def test_local_flip_changes_few_labels(self):
        t0 = standard_tessellation(3)
        t1 = pachner_flip(t0, ch("1/2^2", "1/2^1"))
        lab0, lab1 = farey_labels(t0), farey_labels(t1)
        changed = [
            v
            for v in lab0.vertices()
            if v in set(lab1.vertices()) and lab0.label_of(v) != lab1.label_of(v)
        ]
        # flipping an edge not separating a vertex from the doe keeps labels
        assert d("0") not in changed and d("1/2^1") not in changed


class TestFlipsRealizing:
    def test_identity_is_empty(self):
        assert flips_realizing(identity(), 4) == []

    @pytest.mark.parametrize("word", ["A", "B", "C", "a", "b", "c"])
    def test_generators(self, word):
        f = parse_word(word)
        seq = flips_realizing(f, 5)
        t0 = standard_tessellation(5)
        assert apply_flips(t0, seq).same_tessellation(apply_element(t0, f))

    def test_two_letter_word(self):
        f = parse_word("BA")
        seq = flips_realizing(f, 6)
        t0 = standard_tessellation(6)
        assert apply_flips(t0, seq).same_tessellation(apply_element(t0, f))

    def test_deterministic(self):
        f = parse_word("aC")
        assert flips_realizing(f, 5) == flips_realizing(f, 5)

    def test_a_replay_that_misses_is_reported(self, monkeypatch):
        """The sequence is replayed from tau_0 as an oracle; a replay that
        does not reach f raises SearchExhausted."""
        monkeypatch.setattr(tessellation, "apply_flips", lambda t, seq: t)
        with pytest.raises(SearchExhausted) as err:
            flips_realizing(parse_word("B"), 4)
        assert str(err.value) == "flip sequence does not reproduce apply_element"


class ScanTriangulation:
    """The polygon triangulation as first written: a diagonal set, apexes
    found by scanning the vertices, fans by rescanning every diagonal."""

    def __init__(self, n, diagonals, doe):
        self.n, self.diagonals, self.doe = n, set(diagonals), doe
        self.flipped = []

    def has_edge(self, i, j):
        return (j - i) % self.n in (1, self.n - 1) or (min(i, j), max(i, j)) in self.diagonals

    def apex(self, i, j):
        k = (i + 1) % self.n
        while not (self.has_edge(i, k) and self.has_edge(k, j)):
            k = (k + 1) % self.n
        return k

    def flip(self, edge):
        i, j = edge
        a, b = self.apex(i, j), self.apex(j, i)
        self.diagonals.remove((min(i, j), max(i, j)))
        self.diagonals.add((min(a, b), max(a, b)))
        if self.doe == (i, j):
            self.doe = (b, a)
        elif self.doe == (j, i):
            self.doe = (a, b)
        self.flipped.append(((min(i, j), max(i, j)), (min(a, b), max(a, b))))

    def fan(self, p):
        n = self.n
        while True:
            around = {(p - 1) % n, (p + 1) % n}
            around.update(q for d in self.diagonals if p in d for q in d)
            around = sorted(around - {p}, key=lambda q: (q - p) % n)
            edges = [
                (a, b)
                for a, b in zip(around, around[1:])
                if (b - a) % n > 1 and (min(a, b), max(a, b)) != tuple(sorted(self.doe))
            ]
            if not edges:
                return
            self.flip(edges[0])


def random_triangulation(rng: random.Random, n: int) -> set:
    """The diagonals of a random triangulation of the n-gon, by ear cutting."""
    out, polygon = set(), list(range(n))
    while len(polygon) > 3:
        k = rng.randrange(len(polygon))
        a, b = polygon[k - 1], polygon[(k + 1) % len(polygon)]
        out.add((min(a, b), max(a, b)))
        del polygon[k]
    return out


class TestTriangulation:
    """Adjacency sets against the scanning version they replaced: the same
    apexes, and fans that flip the same diagonals in the same order."""

    @pytest.mark.parametrize("n", [4, 5, 8, 13, 40])
    def test_matches_scan(self, n):
        rng = random.Random(n)
        for _ in range(20):
            diagonals = random_triangulation(rng, n)
            doe = rng.choice(sorted(diagonals))[:: rng.choice((1, -1))]
            fast, scan = _Triangulation(n, set(diagonals), doe), ScanTriangulation(n, diagonals, doe)
            for i, j in diagonals:
                assert fast.apex(i, j) == scan.apex(i, j) and fast.apex(j, i) == scan.apex(j, i)
            for p in rng.sample(range(n), min(n, 4)):
                fast.fan(p)
                scan.fan(p)
                assert fast.flipped == scan.flipped and fast.doe == scan.doe
            fast.flip(fast.doe)
            scan.flip(scan.doe)
            assert fast.flipped == scan.flipped and fast.doe == scan.doe


def reduced_words(max_len: int, alphabet: str = "ABCabc") -> list[TreeDiagram]:
    """Every distinct reduced element of a word over `alphabet` of length <= max_len."""
    seen = {}
    for length in range(max_len + 1):
        for letters in itertools.product(alphabet, repeat=length):
            f = reduce_diagram(parse_word("".join(letters)))
            seen.setdefault(f, f)
    return list(seen)


def random_reduced(leaves: int, seed: int) -> TreeDiagram:
    """Reduced form of a seeded random tree pair with `leaves` leaves."""
    rng = random.Random(seed)

    def tree(n: int) -> TTree:
        if n == 1:
            return LEAF
        k = rng.randint(1, n - 1)
        return TTree(tree(k), tree(n - k))

    return reduce_diagram(TreeDiagram(tree(leaves), tree(leaves), rng.randrange(leaves)))


def assert_realizes(f: TreeDiagram, depth: int = 6):
    seq = flips_realizing(f, depth)
    t0 = standard_tessellation(depth)
    assert apply_flips(t0, seq).same_tessellation(apply_element(t0, f)), str(f)
    assert len(seq) <= 4 * f.num_leaves + 16, (str(f), len(seq))


class TestFlipConstruction:
    """Flip sequences built from the tree pair, on every short word and on
    random elements far beyond the generators."""

    def test_all_words_up_to_three_letters(self):
        elements = reduced_words(3)
        assert len(elements) == 128
        for f in elements:
            assert_realizes(f)

    @pytest.mark.parametrize("leaves", range(2, 41))
    def test_random_elements(self, leaves):
        assert_realizes(random_reduced(leaves, seed=leaves))

    def test_over_one_hundred_leaves(self):
        f = random_reduced(121, seed=5)
        assert f.num_leaves >= 100
        assert_realizes(f, depth=4)

    def test_independent_of_call_order(self):
        x, y = parse_word("aCb"), random_reduced(30, seed=1)
        first = flips_realizing(x, 5)
        flips_realizing(y, 5)
        assert flips_realizing(x, 5) == first
        fresh = python(
            "-c",
            "from thompson_holo.tessellation import flips_realizing\n"
            "from thompson_holo.thompson import parse_word\n"
            "print(' '.join(map(str, flips_realizing(parse_word('aCb'), 5))))",
            check=True,
        )
        assert fresh.stdout.split() == [str(c) for c in first]


def product(*factors: TreeDiagram) -> TreeDiagram:
    out = identity()
    for f in factors:
        out = compose(out, f)
    return out


class TestPtRelations:
    """Relations of T as the mapping class group of the Farey tessellation,
    on its generators alpha (the inverse doe flip) and beta (CC)."""

    def test_generators(self):
        assert ALPHA == inverse(_DOE_FLIP)
        assert reduce_diagram(BETA) == reduce_diagram(parse_word("CC"))

    @pytest.mark.parametrize("g, order", [(ALPHA, 4), (BETA, 3)], ids=["alpha", "beta"])
    def test_order(self, g, order):
        powers = [reduce_diagram(product(*[g] * k)) for k in range(1, order + 1)]
        assert all(str(p) != ".|.@0" for p in powers[:-1])
        assert str(powers[-1]) == ".|.@0"

    def test_relators(self):
        a, b = ALPHA, BETA
        x = product(b, a, b)
        y = product(a, a, b, a, b, a, a)
        relators = {
            "alpha^4": product(a, a, a, a),
            "beta^3": product(b, b, b),
            "(beta alpha)^5": product(*[b, a] * 5),
            "[beta alpha beta, alpha^2 beta alpha beta alpha^2]": product(
                x, y, inverse(x), inverse(y)
            ),
        }
        reduced = {name: str(reduce_diagram(r)) for name, r in relators.items()}
        assert reduced == {name: ".|.@0" for name in relators}


class TestRendering:
    def test_vertices_per_side_count(self):
        t = standard_tessellation(3)
        lab = farey_labels(t)
        right = [
            v
            for v in lab.vertices()
            if Fraction(0) < v.as_fraction() < Fraction(1, 2)
        ]
        assert len(right) == 2**4 - 1

    def test_svg_deterministic_and_marked(self):
        t = standard_tessellation(2)
        s1, s2 = render_svg(t), render_svg(t)
        assert s1 == s2
        assert s1.startswith("<svg")
        assert "marker" in s1  # the oriented doe arrow

    def test_renders_other_objects(self):
        assert "<svg" in render_svg(parse_word("B"))
        svg = render_svg(DyadicPartition.parse("0, 1/2^1, 3/2^2, 1"))
        assert svg.startswith("<svg") and svg.count('stroke="blue"') == 3
        # a two-interval cutoff draws its diameter once per interval
        assert render_svg(DyadicPartition.parse("0, 1/2^1, 1")).count('stroke="blue"') == 2
        with pytest.raises(TypeError, match="^cannot render object of type object$"):
            render_svg(object())


# Reference: the Farey labelling as a walk over the faces of t itself, which
# reading tau_0's labels through f replaced.  Each face is found with
# face_apex, the side to explore next is told by _in_open_arc, and a vertex
# already labelled is skipped.  Duck-typed: it reads depth, removed, added,
# doe and face_apex, so it labels a RefTessellation too.


def _in_open_arc(x: DyadicRational, start: DyadicRational, end: DyadicRational) -> bool:
    """x strictly inside the counterclockwise arc from start to end."""
    if start < end:
        return start < x < end
    return x > start or x < end


def face_walk_farey_labels(t, max_exponent: int | None = None) -> FareyLabeling:
    """Mediant labelling seeded by the doe: start 0/1, end 1/0, right face 1/1.

    Vertices are explored while their dyadic exponent stays within the
    window (depth + 2 by default) or they touch a modified chord.
    """
    if max_exponent is None:
        max_exponent = t.depth + 2
    _check_cap(max_exponent, 2, "window points", f"max exponent {max_exponent}: ")
    special = {x for m in t.removed | t.added for x in m.endpoints()}

    u, v = t.doe
    labels: dict[DyadicRational, tuple[int, int]] = {u: (0, 1), v: (1, 0)}
    out = [(u, (0, 1)), (v, (1, 0))]
    # (edge endpoints with labels, side to explore); the left face of the doe
    # sees the seed 1/0 as -1/0 so its labels come out negative.
    queue = [((u, (0, 1)), (v, (1, 0)), True), ((u, (0, 1)), (v, (-1, 0)), False)]
    while queue:
        (p, lp), (q, lq), ccw_from_first = queue.pop(0)
        c = chord(p, q)
        ccw = ccw_from_first == ((p, q) == (c.a, c.b))
        try:
            x = t.face_apex(c, ccw)
        except EdgeNotFound:
            continue
        if x in labels:
            continue
        if x.exp > max_exponent and x not in special:
            continue
        lx = _normalize_label((lp[0] + lq[0], lp[1] + lq[1]))
        labels[x] = lx
        out.append((x, lx))
        # recurse across the two new edges, away from the current face
        queue.append(((p, lp), (x, lx), not _in_open_arc(q, p, x)))
        queue.append(((x, lx), (q, lq), not _in_open_arc(p, x, q)))
    return FareyLabeling(tuple(out))


class TestAgainstFaceWalk:
    """Labels read off tau_0's dyadic intervals against the face walk of t:
    the same vertices, labels and order, at every window size."""

    @staticmethod
    def assert_same_labels(t: Tessellation):
        for max_exponent in (None, 0, 1, t.depth + 1, t.depth + 4):
            got = farey_labels(t, max_exponent).vertex_to_label
            want = face_walk_farey_labels(t, max_exponent).vertex_to_label
            assert got == want, (str(t.element), t.depth, max_exponent)
            # mediants of Farey neighbours come out in lowest terms unnormalized
            assert all(math.gcd(p, q) == 1 and q >= 0 for _, (p, q) in got)

    def test_all_words_up_to_three_letters(self):
        t0 = standard_tessellation(3)
        for f in reduced_words(3):
            self.assert_same_labels(apply_element(t0, f))

    def test_seeded_flip_walks(self):
        rng = random.Random(1010)
        for _ in range(40):
            t = standard_tessellation(rng.randint(2, 6))
            for _ in range(rng.randint(1, 30)):
                e = t.doe_chord() if rng.random() < 0.2 else rng.choice(t.window_edges())
                t = pachner_flip(t, e)
            self.assert_same_labels(t)


# Reference: the tessellation as a diff against tau_0, kept up by hand, which
# storing the element replaced.  apply_element maps candidate chords through
# the PL map, face_apex scans the endpoints of every modified chord, and
# pachner_flip edits the removed and added sets one flip at a time.


def ref_standard_interval(c: Chord):
    """The standard interval (level >= 1) of c, by trying [a, b] and then,
    when a is 0, [b, 1]: in Fractions, a width 1/2^n with n >= 1 and a left
    end that is a multiple of it."""
    x, y = as_frac(c.a), as_frac(c.b)
    for lo, hi in [(x, y)] + ([(y, Fraction(1))] if x == 0 else []):
        width = hi - lo
        if width.numerator == 1 and width < 1 and (lo / width).denominator == 1:
            return StdDyadicInterval(int(lo / width), width.denominator.bit_length() - 1)
    return None


def ref_in_standard_set(c: Chord) -> bool:
    return ref_standard_interval(c) is not None


def ref_default_apex(c: Chord, ccw_from_a: bool):
    """The tau_0 apex beside c, telling the inner side by its midpoint."""
    iv = ref_standard_interval(c)
    if iv is None:
        return None
    inside = _in_open_arc(DyadicRational(2 * iv.a + 1, iv.n + 1), c.a, c.b)
    if inside == ccw_from_a:
        return iv.halves()[0].right.mod1()
    if iv.n == 1:
        return StdDyadicInterval(1 - iv.a, 1).halves()[0].right.mod1()
    parent = StdDyadicInterval(iv.a // 2, iv.n - 1)
    return (parent.right if iv.a % 2 == 0 else parent.left).mod1()


def ref_pl(f: TreeDiagram):
    """f as a function, by a linear scan over its PL pieces."""
    return functools.partial(pl_scan, to_pl_map(f))


@dataclass(frozen=True)
class RefTessellation:
    depth: int
    removed: frozenset
    added: frozenset
    doe: tuple
    flips: tuple | None = ()

    def has_edge(self, c: Chord) -> bool:
        if c in self.added:
            return True
        return ref_in_standard_set(c) and c not in self.removed

    def doe_chord(self) -> Chord:
        return chord(*self.doe)

    def window_edges(self) -> list:
        out = [E0] if E0 not in self.removed else []
        for n in range(2, self.depth + 3):
            for a in range(2**n):
                c = chord(StdDyadicInterval(a, n).left, StdDyadicInterval(a, n).right)
                if c not in self.removed:
                    out.append(c)
        out.extend(sorted(self.added))
        return out

    def face_apex(self, c: Chord, ccw_from_a: bool) -> DyadicRational:
        if not self.has_edge(c):
            raise EdgeNotFound(f"{c} is not an edge of this tessellation")
        start, end = (c.a, c.b) if ccw_from_a else (c.b, c.a)
        candidates = set()
        default = ref_default_apex(c, ccw_from_a)
        if default is not None:
            candidates.add(default)
        for mod in (self.removed, self.added):
            for m in mod:
                candidates.update(m.endpoints())
        for x in candidates:
            if _in_open_arc(x, start, end) and self.has_edge(chord(c.a, x)) and self.has_edge(
                chord(c.b, x)
            ):
                return x
        raise EdgeNotFound(f"no face found beside {c}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "depth": self.depth,
                "doe": [str(self.doe[0]), str(self.doe[1])],
                "flips": [[str(c.a), str(c.b)] for c in self.flips],
            }
        )


def ref_standard(depth: int) -> RefTessellation:
    return RefTessellation(depth, frozenset(), frozenset(), (d("0"), d("1/2^1")), ())


def ref_flip(t: RefTessellation, edge: Chord) -> RefTessellation:
    x, y = t.face_apex(edge, True), t.face_apex(edge, False)
    new_edge = chord(x, y)
    removed, added = set(t.removed), set(t.added)
    if ref_in_standard_set(edge):
        removed.add(edge)
    else:
        added.discard(edge)
    if ref_in_standard_set(new_edge):
        removed.discard(new_edge)
    else:
        added.add(new_edge)
    doe = t.doe
    if chord(*t.doe) == edge:
        u, v = t.doe
        a = t.face_apex(edge, (u, v) == (edge.a, edge.b))
        doe = (x if a == y else y, a)
    flips = None if t.flips is None else t.flips + (edge,)
    return RefTessellation(t.depth, frozenset(removed), frozenset(added), doe, flips)


def ref_apply(t: RefTessellation, f: TreeDiagram) -> RefTessellation:
    f = reduce_diagram(f)
    pl = ref_pl(f)

    def image(c: Chord) -> Chord:
        return chord(pl(c.a), pl(c.b))

    def internal(tree) -> set:
        return {chord(iv.left, iv.right) for iv in tree.internal_intervals() if iv.n >= 1}

    leaf_chords = {chord(iv.left, iv.right) for iv in f.range_tree.leaf_intervals() if iv.n >= 1}
    range_internal = internal(f.range_tree) - leaf_chords
    domain_images = {image(c) for c in internal(f.domain_tree)}
    removed_images = {image(c) for c in t.removed}
    added_images = {image(c) for c in t.added}

    def present(c: Chord) -> bool:
        in_f_tau0 = (ref_in_standard_set(c) and c not in range_internal) or c in domain_images
        return (in_f_tau0 and c not in removed_images) or c in added_images

    candidates = range_internal | domain_images | removed_images | added_images
    removed = frozenset(c for c in candidates if ref_in_standard_set(c) and not present(c))
    added = frozenset(c for c in candidates if not ref_in_standard_set(c) and present(c))
    return RefTessellation(t.depth, removed, added, (pl(t.doe[0]), pl(t.doe[1])), None)


def assert_matches_reference(t: Tessellation, ref: RefTessellation, outputs: bool = True):
    assert t.removed == ref.removed
    assert t.added == ref.added
    assert t.doe == ref.doe
    if not outputs:
        return
    assert t.flips == ref.flips
    assert t.window_edges() == ref.window_edges()
    ref_labels = face_walk_farey_labels(ref).vertex_to_label
    assert farey_labels(t).vertex_to_label == ref_labels
    for labels in (False, True):
        # render_svg is the header, the boundary circle, the disc's parts and
        # the closing tag, one per line; a RefTessellation has no element, so
        # its labels come from the face walk
        want = ref_disc_parts(ref.window_edges(), ref.doe, ref_labels if labels else ())
        assert render_svg(t, labels).split("\n")[2:-1] == want
    if t.flips is not None:
        assert t.to_json() == ref.to_json()


class TestAgainstDiffReference:
    """The stored element against the hand-kept diff it replaced: the diff,
    the doe, the window, Farey labels, SVG parts and JSON agree exactly."""

    def test_all_words_up_to_three_letters(self):
        elements = reduced_words(3)
        assert len(elements) == 128
        depth = 3
        t0, r0 = standard_tessellation(depth), ref_standard(depth)
        for f in elements:
            assert_matches_reference(apply_element(t0, f), ref_apply(r0, f))
            seq = flips_realizing(f, depth)
            t, r = t0, r0
            for e in seq:
                t, r = pachner_flip(t, e), ref_flip(r, e)
                assert_matches_reference(t, r, outputs=False)
            # the window, labels and SVG follow from the diff and the doe,
            # which matched apply_element's above
            assert t.same_tessellation(apply_element(t0, f))
            assert t.to_json() == r.to_json()

    def test_seeded_flip_walks(self):
        rng = random.Random(606)
        letters = reduced_words(1)
        for _ in range(200):
            depth = rng.randint(3, 6)
            t, r = standard_tessellation(depth), ref_standard(depth)
            for _ in range(rng.randint(1, 40)):
                edges = t.window_edges()
                e = r.doe_chord() if rng.random() < 0.2 else rng.choice(edges)
                flip = flip_element(*t._edge_interval(e)[0])
                composed = expand_compose(t.element, flip)
                t, r = pachner_flip(t, e), ref_flip(r, e)
                assert t.element == composed
                assert_matches_reference(t, r, outputs=False)
            assert_matches_reference(t, r, outputs=depth == 3)
            assert t.flips == r.flips
            g = rng.choice(letters)
            assert_matches_reference(apply_element(t, g), ref_apply(r, g), outputs=False)

    def test_doe_flips(self):
        t, r = standard_tessellation(3), ref_standard(3)
        for e in [E0, ch("1/2^2", "1/2^1")] * 3:
            for _ in range(5):
                t, r = pachner_flip(t, t.doe_chord()), ref_flip(r, r.doe_chord())
                assert_matches_reference(t, r)
            t, r = pachner_flip(t, t.window_edges()[3]), ref_flip(r, r.window_edges()[3])
            assert_matches_reference(t, r)


# Reference: the views as read before they moved to integer coordinates.  The
# diff hashes Chords built from every range leaf's interval, the window drops
# the removed chords by hashing every tau_0 chord in it, Farey labels evaluate
# f once per vertex, and the SVG sorts the chords by Chord order.


def ref_diff(t: Tessellation) -> tuple[frozenset, frozenset]:
    f = t.element
    n = f.num_leaves
    points = [iv.left for iv in f.range_tree.leaf_intervals()]
    old = _chord_pairs(f.range_tree, 0, n)
    new = _chord_pairs(f.domain_tree, f.marker, n)
    return tuple(
        frozenset(Chord(points[i], points[j]) for i, j in pairs)
        for pairs in (old - new, new - old)
    )


def ref_window_edges(t: Tessellation) -> list[Chord]:
    removed, added = ref_diff(t)
    out = [c for c in _standard_window(t.depth) if c not in removed]
    out.extend(sorted(added))
    return out


def ref_farey_labels(t: Tessellation, max_exponent: int | None = None) -> FareyLabeling:
    if max_exponent is None:
        max_exponent = t.depth + 2
    removed, added = ref_diff(t)
    special = {x for m in removed | added for x in m.endpoints()}
    u, v = t.doe
    out = [(u, (0, 1)), (v, (1, 0))]
    queue = collections.deque([
        (StdDyadicInterval(0, 1), (0, 1), (1, 0), False),
        (StdDyadicInterval(1, 1), (-1, 0), (0, 1), True),
    ])
    while queue:
        iv, la, lb, clockwise = queue.popleft()
        lo, hi = iv.halves()
        x = evaluate(t.element, lo.right)
        if x.exp > max_exponent and x not in special:
            continue
        lx = _normalize_label((la[0] + lb[0], la[1] + lb[1]))
        out.append((x, lx))
        sides = [(lo, la, lx, clockwise), (hi, lx, lb, clockwise)]
        queue.extend(sides[::-1] if clockwise else sides)
    return FareyLabeling(tuple(out))


def ref_disc_parts(edges: list[Chord], doe: tuple, vertex_to_label) -> list[str]:
    """The SVG lines of a tessellation inside the disc: a black path per
    edge but the doe's chord, in Chord order, the red doe, and a text per
    labelled vertex."""
    parts = []
    for c in sorted(set(edges) - {chord(*doe)}):
        parts.append(
            f'<path d="{tessellation._arc_path(c.a, c.b)}" fill="none" '
            'stroke="black" stroke-width="1"/>'
        )
    u, v = doe
    parts.append(
        f'<path d="{tessellation._arc_path(u, v)}" fill="none" stroke="red" '
        'stroke-width="3" marker-end="url(#arrow)"/>'
    )
    for vert, (p, q) in vertex_to_label:
        x, y = tessellation._circle_xy(vert, 455.0)
        parts.append(
            f'<text x="{x:.1f}" y="{y:.1f}" font-size="14" '
            f'text-anchor="middle">{p}/{q}</text>'
        )
    return parts


def ref_render_svg(t: Tessellation, labels: bool) -> str:
    vertex_to_label = ref_farey_labels(t).vertex_to_label if labels else ()
    parts = ref_disc_parts(ref_window_edges(t), t.doe, vertex_to_label)
    # the header and the boundary circle are the same for every tessellation
    head = render_svg(standard_tessellation(0)).split("\n")[:2]
    return "\n".join(head + parts + ["</svg>"])


def assert_views_match_reference(t: Tessellation):
    removed, added = ref_diff(t)
    assert (t.removed, t.added) == (removed, added), str(t.element)
    assert t.window_edges() == ref_window_edges(t), str(t.element)
    for max_exponent in (None, 0, 1, t.depth + 4):
        got = farey_labels(t, max_exponent).vertex_to_label
        assert got == ref_farey_labels(t, max_exponent).vertex_to_label, (str(t.element), max_exponent)
    for labels in (False, True):
        assert render_svg(t, labels) == ref_render_svg(t, labels), (str(t.element), labels)


def assert_carried_diff_matches_reference(t: Tessellation):
    """t's diff was carried through its last flip and equals the
    tree-derived reference: the removed chords' window positions and the
    added chords, as sorted tuples."""
    assert "_diff" in vars(t), "the flip did not carry the diff"
    removed, added = ref_diff(t)
    want = (tuple(sorted(map(_window_index, removed))), tuple(sorted(added)))
    assert t._diff == want, str(t.element)
    assert (t.removed, t.added) == (removed, added), str(t.element)


class TestAgainstViewReference:
    """The diff, window, Farey labels and SVG read in integer coordinates
    against the chord-hashing, per-vertex references, exactly."""

    def test_seeded_depth_six_walks(self):
        rng = random.Random(707)
        for _ in range(12):
            t = standard_tessellation(6)
            for _ in range(rng.randint(30, 40)):
                edges = t.window_edges()
                e = t.doe_chord() if rng.random() < 0.1 else edges[int(rng.random() * len(edges))]
                t = pachner_flip(t, e)
                assert_carried_diff_matches_reference(t)
            assert_views_match_reference(t)

    def test_carried_diff_at_every_step(self):
        """Walks from tau_0, from an image under the action and from a JSON
        round trip: the last two start with no cached diff, so each walk
        derives one diff from the trees and carries it from there on."""
        rng = random.Random(808)
        elements = reduced_words(2)
        for k in range(36):
            depth = rng.randint(3, 8)
            t = standard_tessellation(depth)
            if k % 3 == 1:
                t = apply_element(t, rng.choice(elements))
            elif k % 3 == 2:
                seq = flips_realizing(rng.choice(elements), depth)
                t = Tessellation.from_json(apply_flips(t, seq).to_json())
                assert "_diff" not in vars(t)
            for _ in range(rng.randint(10, 40)):
                edges = t.window_edges()
                e = t.doe_chord() if rng.random() < 0.1 else edges[int(rng.random() * len(edges))]
                t = pachner_flip(t, e)
                assert_carried_diff_matches_reference(t)
            if t.flips:
                # the replay the flip oracle and from_json make derives no diff
                replayed = apply_flips(standard_tessellation(depth), t.flips)
                assert "_diff" not in vars(replayed)

    def test_all_words_up_to_three_letters(self):
        elements = reduced_words(3)
        assert len(elements) == 128
        for depth, f in zip(itertools.cycle((2, 3, 4)), elements):
            assert_views_match_reference(apply_element(standard_tessellation(depth), f))

    @pytest.mark.parametrize("word_length", [40, 150, 400, 1200])
    def test_random_elements(self, word_length):
        """Images of elements of about 10 to 300 leaves."""
        for seed in range(2):
            f = random_element(word_length, seed)
            assert_views_match_reference(apply_element(standard_tessellation(4), f))


def seeded_walk(rng: random.Random, t: Tessellation, flips: int) -> tuple[list[Chord], int]:
    """`flips` seeded flips from t, about one in six of them a doe flip: the
    edges flipped, and the number of doe flips."""
    edges, does = [], 0
    for _ in range(flips):
        window = t.window_edges()
        e = t.doe_chord() if rng.random() < 0.15 else window[int(rng.random() * len(window))]
        does += e == t.doe_chord()
        edges.append(e)
        t = pachner_flip(t, e)
    return edges, does


class TestCarriedWindow:
    """A tau_0 chord is named by its window position: the removed chords
    ride through a flip as sorted positions, beside the added chords."""

    def test_window_position_round_trip(self):
        """Every tau_0 chord of levels <= 12 sits at 2^k - 3 + a, e0 at 0
        from both of its intervals, and decodes back to itself."""
        for k in range(1, 13):
            for a in range(2**k):
                c = interval_chord(StdDyadicInterval(a, k))
                i = _window_index(c)
                assert i == ((1 << k) - 3 + a if k > 1 else 0), (a, k)
                assert _window_chord(i) == c, (a, k)

    def test_window_index_of_other_chords_is_none(self):
        """Seeded chords between points of exponent <= 10 have a window
        position exactly when the oracle calls them tau_0 chords."""
        rng = random.Random(3537)
        others = 0
        for _ in range(3000):
            exps = (rng.randint(0, 10), rng.randint(1, 10))
            ends = [Fraction(rng.randrange(2**e), 2**e) for e in exps]
            if ends[0] == ends[1]:
                continue
            c = chord(*(DyadicRational(x.numerator, x.denominator.bit_length() - 1) for x in ends))
            i = _window_index(c)
            if oracle_standard(*ends):
                assert _window_chord(i) == c, str(c)
            else:
                assert i is None, str(c)
                others += 1
        assert others > 2000

    @pytest.mark.parametrize("depth", range(7))
    def test_standard_window_is_level_by_level(self, depth):
        """The window is e0, then tau_0's chords level by level, left to
        right: the enumeration the positions encode."""
        levels = tuple(
            interval_chord(StdDyadicInterval(a, n))
            for n in range(2, depth + 3)
            for a in range(2**n)
        )
        assert _standard_window(depth) == (E0,) + levels

    def test_carried_window_equals_derived(self):
        """At every step of seeded 40-flip walks at depths 0-6, doe flips
        included, the carried diff and window equal those of a fresh
        Tessellation, whose diff is derived from its trees, and the removed
        and added chords equal the reference's."""
        rng = random.Random(3535)
        for depth in range(7):
            t = standard_tessellation(depth)
            edges, does = seeded_walk(rng, t, 40)
            assert does > 0
            for e in edges:
                t = pachner_flip(t, e)
                assert "_diff" in vars(t), "the flip did not carry the diff"
                fresh = Tessellation(depth, t.element, t.flips)
                assert t.window_edges() == fresh.window_edges(), (depth, str(t.element))
                assert t._diff == fresh._diff
                assert (t.removed, t.added) == ref_diff(t)

    def test_replay_reads_two_window_indices_and_builds_no_interval(self, monkeypatch):
        """Replaying a seeded 40-flip walk from a tessellation whose diff is
        cached, reading the window at every step as the walk did, calls
        `_window_index` at most twice per flip (an index in, an index out),
        and pachner_flip builds no StdDyadicInterval: both chord ends and
        both apexes are read as integer pairs."""
        rng = random.Random(3536)
        edges, does = seeded_walk(rng, standard_tessellation(6), 40)
        assert does > 0
        start = standard_tessellation(6)
        start.window_edges()  # caches the diff
        index_calls, built = [], []
        window_index, post_init = tessellation._window_index, StdDyadicInterval.__post_init__
        monkeypatch.setattr(
            tessellation, "_window_index", lambda c: index_calls.append(c) or window_index(c)
        )
        monkeypatch.setattr(
            StdDyadicInterval, "__post_init__", lambda iv: built.append(iv) or post_init(iv)
        )
        t = start
        for e in edges:
            t.window_edges()
            before = len(built)
            t = pachner_flip(t, e)
            assert len(built) == before, [str(iv) for iv in built[before:]]
        monkeypatch.undo()
        assert 0 < len(index_calls) <= 2 * len(edges)
        assert t.window_edges() == Tessellation(6, t.element).window_edges()
        assert t.element == apply_flips(standard_tessellation(6), edges).element


class TestRenderFromWindowTable:
    """render_svg draws tau_0's window from a per-depth table of finished
    paths, and draws the labels from the integer walk of farey_labels."""

    @pytest.mark.parametrize("depth", range(7))
    def test_rows_are_the_window_in_chord_order(self, depth):
        """Each row holds its chord's ends over 2^(depth+2), its window
        position and its path, and the rows follow Chord order."""
        window, e = _standard_window(depth), depth + 2
        rows = _window_rows(depth)
        assert [window[i] for _, _, i, _ in rows] == sorted(window)
        for a, b, i, path in rows:
            c = window[i]
            assert (Fraction(a, 2**e), Fraction(b, 2**e)) == (as_frac(c.a), as_frac(c.b))
            assert path == (
                f'<path d="{tessellation._arc_path(c.a, c.b)}" fill="none" '
                'stroke="black" stroke-width="1"/>'
            )

    def test_seeded_walks_match_reference(self):
        """At every step of seeded walks at depths 0-6, each starting with a
        flip of the chord at the last window position, both renders equal
        the reference's.  The walks meet does that are added chords and
        tessellations without the last window chord."""
        rng = random.Random(3838)
        doe_added = last_removed = 0
        for depth in range(7):
            last = len(_standard_window(depth)) - 1
            t = pachner_flip(standard_tessellation(depth), _window_chord(last))
            for e in seeded_walk(rng, t, 30)[0]:
                t = pachner_flip(t, e)
                doe_added += t.doe_chord() in t.added
                last_removed += last in t._diff[0]
                for labels in (False, True):
                    assert render_svg(t, labels) == ref_render_svg(t, labels), (
                        depth, str(t.element), labels
                    )
        assert doe_added > 0 and last_removed > 0

    def test_cap_is_checked_before_the_table(self):
        before = _window_rows.cache_info()
        message = "^depth 22: 2\\^25 window chords exceed the cap of 16777216$"
        for labels in (False, True):
            with pytest.raises(ResourceLimit, match=message):
                render_svg(standard_tessellation(22), labels)
        assert _window_rows.cache_info() == before

    def test_table_is_built_once_per_depth(self):
        _window_rows.cache_clear()
        for depth in (4, 5, 4, 5, 4):
            for labels in (False, True):
                render_svg(pachner_flip(standard_tessellation(depth), E0), labels)
        info = _window_rows.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 8, 2)

    def test_render_builds_nothing_per_window_row(self, monkeypatch):
        """Once the diff, the doe and the table are in hand, rendering a
        walked depth-6 tessellation reads no window_edges and builds no
        DyadicRational, with labels or without, and one Chord: the doe's."""
        rng = random.Random(3839)
        t = apply_flips(standard_tessellation(6), seeded_walk(rng, standard_tessellation(6), 35)[0])
        assert t.removed and t.added
        for labels in (False, True):
            want = render_svg(t, labels)
        built, chords = [], []
        post_init, init = DyadicRational.__post_init__, Chord.__init__
        monkeypatch.setattr(
            DyadicRational, "__post_init__", lambda x: built.append(x) or post_init(x)
        )
        monkeypatch.setattr(Chord, "__init__", lambda c, *ends: chords.append(ends) or init(c, *ends))
        monkeypatch.setattr(Tessellation, "window_edges", lambda t: pytest.fail("window_edges read"))
        got = [render_svg(t, labels) for labels in (False, True)]
        monkeypatch.undo()
        assert got[1] == want
        assert built == []
        assert [chord(*ends) for ends in chords] == [t.doe_chord()] * 2


class TestActionCommutesWithFlips:
    def test_flip_then_act_is_act_then_flip(self):
        """g(flip_e(tau_0)) = flip_g(e)(g(tau_0)), the identity flips are
        built on, for every window edge at depth 3 and the 13 short words."""
        t0 = standard_tessellation(3)
        elements = reduced_words(2, "ABC")
        assert len(elements) == 13
        for e in t0.window_edges():
            flipped = pachner_flip(t0, e)
            for g in elements:
                ge = chord(evaluate(g, e.a), evaluate(g, e.b))
                lhs = pachner_flip(apply_element(t0, g), ge)
                rhs = apply_element(flipped, g)
                assert lhs.same_tessellation(rhs), (str(e), str(g))
                assert (lhs.removed, lhs.added, lhs.doe) == (rhs.removed, rhs.added, rhs.doe)


def ref_render_tree(tree, x0: float, x1: float, y: float, parts: list):
    """The recursive tree drawing that the explicit-stack walk replaced."""
    xm = (x0 + x1) / 2.0
    if tree.is_leaf:
        parts.append(f'<circle cx="{xm:.2f}" cy="{y:.2f}" r="4" fill="black"/>')
        return
    for child, (a, b) in ((tree.left, (x0, xm)), (tree.right, (xm, x1))):
        xc = (a + b) / 2.0
        parts.append(
            f'<line x1="{xm:.2f}" y1="{y:.2f}" x2="{xc:.2f}" y2="{y + 60:.2f}" '
            'stroke="black" stroke-width="1.5"/>'
        )
        ref_render_tree(child, a, b, y + 60.0, parts)


class TestTreeRendering:
    def test_matches_recursive_reference(self):
        for leaves in range(1, 41):
            f = random_reduced(leaves, seed=leaves)
            for tree in (f.domain_tree, f.range_tree):
                got, want = [], []
                _render_tree(tree, 20.0, 480.0, 100.0, got)
                ref_render_tree(tree, 20.0, 480.0, 100.0, want)
                assert got == want

    def test_1100_deep_diagram(self):
        right = TTree.parse("(." * 1100 + "." + ")" * 1100)
        left = TTree.parse("(" * 1100 + "." + ".)" * 1100)
        svg = render_svg(TreeDiagram(right, left, 0))
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert svg.count("<circle") == 2 * 1101
