"""Cutoff states, fine grainers, the unitary action and BTZ entropies."""

import itertools
import math
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from thompson_holo.dyadic import (
    LEAF,
    ONE,
    DyadicPartition,
    _leaf_subtrees,
    common_refinement,
    refines,
    tree_to_partition,
    TTree,
)
from thompson_holo.errors import NotPerfect, ResourceLimit, TheoryMismatch
from thompson_holo.semicontinuous import (
    BASE_PARTITION,
    BTZState,
    CutoffState,
    act,
    btz_state,
    bulk_inner,
    entanglement_entropy,
    fine_grainer,
    gram_matrix,
    inner_product,
    vacuum,
    vacuum_matrix_element,
    _diagram_tensors,
    _grain_like_side,
    _momentum_blocks,
    _normalized_splitter,
    _shift_orbits,
)
from thompson_holo.tensor import (
    DenseTensor,
    TensorNetwork,
    contract,
    four_colour_tensor,
    normalize_isometry,
    singlet_tensor,
    verify_perfect,
)
from thompson_holo.tessellation import (
    apply_element,
    chord,
    pachner_flip,
    standard_tessellation,
)
from thompson_holo.thompson import (
    _LETTERS,
    TreeDiagram,
    compose,
    evaluate,
    identity,
    inverse,
    parse_word,
    random_element,
    reduce_diagram,
)

from test_tensor import btz_ring
from test_tessellation import ALPHA, BETA


V3 = four_colour_tensor()


def part(text: str) -> DyadicPartition:
    return DyadicPartition.parse(text)


def all_partitions(max_intervals: int):
    """Every standard dyadic partition with at most `max_intervals` parts."""
    frontier = [TTree.parse(".")]
    out = []
    while frontier:
        t = frontier.pop()
        if t.num_leaves > max_intervals:
            continue
        out.append(tree_to_partition(t))
        # split each leaf in turn
        for k in range(t.num_leaves):
            frontier.append(_split_leaf(t, k))
    uniq = {str(p): p for p in out if len(p) <= max_intervals}
    return list(uniq.values())


def _split_leaf(t: TTree, k: int) -> TTree:
    if t.is_leaf:
        assert k == 0
        return TTree.parse("(..)")
    nl = t.left.num_leaves
    if k < nl:
        return TTree(_split_leaf(t.left, k), t.right)
    return TTree(t.left, _split_leaf(t.right, k - nl))


class TestFineGrainer:
    def test_isometry_for_all_small_refinements(self):
        for p in all_partitions(4):
            for q in all_partitions(5):
                try:
                    fg = fine_grainer(p, q, V3)
                except Exception:
                    continue
                m = fg.matrix
                assert np.allclose(
                    m.conj().T @ m, np.eye(m.shape[1]), atol=1e-12
                ), (p, q)

    def test_composition_is_caret_union(self):
        p1 = part("0, 1/2^1, 1")
        p2 = part("0, 1/2^2, 1/2^1, 1")
        p3 = part("0, 1/2^3, 1/2^2, 1/2^1, 3/2^2, 1")
        a = fine_grainer(p1, p2, V3)
        b = fine_grainer(p2, p3, V3)
        whole = fine_grainer(p1, p3, V3)
        assert whole.carets == a.carets | b.carets
        assert np.allclose(b.matrix @ a.matrix, whole.matrix, atol=1e-12)

    def test_composition_exhaustive_on_chains(self):
        parts = all_partitions(5)
        from thompson_holo.dyadic import refines

        for p1, p2, p3 in itertools.permutations(parts, 3):
            if not (refines(p1, p2) and refines(p2, p3)):
                continue
            a = fine_grainer(p1, p2, V3)
            b = fine_grainer(p2, p3, V3)
            whole = fine_grainer(p1, p3, V3)
            assert np.allclose(b.matrix @ a.matrix, whole.matrix, atol=1e-12)

    def test_rejects_non_refinement(self):
        from thompson_holo.errors import NotARefinement

        with pytest.raises(NotARefinement):
            fine_grainer(part("0, 1/2^2, 1/2^1, 1"), part("0, 1/2^1, 1"), V3)

    def test_apply_rejects_state_off_source(self):
        """A state with the right leg count but another cutoff is refused,
        also by a grainer that adds no carets."""
        from thompson_holo.errors import NotARefinement

        source = part("0, 1/2^1, 3/2^2, 1")
        state = vacuum(part("0, 1/2^2, 1/2^1, 1"), V3)
        for target in (part("0, 1/2^1, 3/2^2, 7/2^3, 1"), source):
            with pytest.raises(NotARefinement) as err:
                fine_grainer(source, target, V3).apply(state)
            assert str(state.cutoff) in str(err.value)
            assert str(source) in str(err.value)

    @pytest.mark.parametrize("V", [V3, singlet_tensor()], ids=["four-colour", "singlet"])
    def test_apply_matches_kronecker_oracle(self, V):
        """The singlet tensor is not symmetric under swapping its output
        legs, so it also catches a left/right mix-up."""
        d = V.leg_dims[0]
        rng = np.random.default_rng(5)
        parts = all_partitions(5)
        for p, q in itertools.product(parts, parts):
            if not refines(p, q):
                continue
            fg = fine_grainer(p, q, V)
            oracle = kronecker_matrix(fg)
            assert np.allclose(fg.matrix, oracle, rtol=0, atol=1e-12), (p, q)
            v = rng.normal(size=d ** len(p)) + 1j * rng.normal(size=d ** len(p))
            got = fg.apply(CutoffState(p, v, V)).amplitudes.reshape(-1)
            assert np.allclose(got, oracle @ v, rtol=0, atol=1e-12), (p, q)

    def test_matrix_checks_its_own_size_against_the_cap(self, monkeypatch):
        monkeypatch.setenv("THOMPSON_HOLO_MAX_AMPLITUDES", "100")
        fg = fine_grainer(BASE_PARTITION, part("0, 1/2^2, 1/2^1, 3/2^2, 1"), V3)
        with pytest.raises(ResourceLimit):
            fg.matrix
        out = fg.apply(vacuum(BASE_PARTITION, V3))
        assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_no_carets_returns_the_state(self):
        s = vacuum(part("0, 1/2^1, 3/2^2, 1"), V3)
        assert fine_grainer(s.cutoff, s.cutoff, V3).apply(s) is s


class TestSplitter:
    def test_cached_and_read_only(self):
        W = _normalized_splitter(V3)
        assert _normalized_splitter(four_colour_tensor()) is W
        assert not W.flags.writeable
        assert np.allclose(W.conj().T @ W, np.eye(3), atol=1e-12)

    def test_not_perfect_raises_on_every_call(self):
        bad = DenseTensor(np.random.default_rng(3).normal(size=(3, 3, 3)))
        for _ in range(2):
            with pytest.raises(NotPerfect):
                _normalized_splitter(bad)
        for _ in range(2):
            with pytest.raises(NotPerfect):
                vacuum_matrix_element(parse_word("A"), bad, "diagram")

    def test_diagram_route_builds_only_the_contraction_result(self, monkeypatch):
        """The cup, W3 and W3c are built once per V: after one call, each
        diagram-route call constructs one DenseTensor, `contract`'s result."""
        V = singlet_tensor()
        words = ["A", "CbA", "abCCBa", "BBcAc"]
        expected = [vacuum_matrix_element(parse_word(w), V, "diagram") for w in words]
        built = []
        init = DenseTensor.__init__

        def counting_init(self, array):
            built.append(1)
            init(self, array)

        monkeypatch.setattr(DenseTensor, "__init__", counting_init)
        for w, value in zip(words, expected):
            assert vacuum_matrix_element(parse_word(w), V, "diagram") == value
        assert len(built) == len(words)


def kronecker_matrix(fg) -> np.ndarray:
    """The fine-graining isometry built independently of `apply`: the
    Kronecker product over source leaves of each leaf's splitter tree."""
    d = fg.tensor.leg_dims[0]
    W = _normalized_splitter(fg.tensor)

    def block(tree: TTree) -> np.ndarray:
        if tree.is_leaf:
            return np.eye(d, dtype=complex)
        return np.kron(block(tree.left), block(tree.right)) @ W

    def leaf_subtrees(src: TTree, tgt: TTree):
        if src.is_leaf:
            return [tgt]
        return leaf_subtrees(src.left, tgt.left) + leaf_subtrees(src.right, tgt.right)

    out = np.eye(1, dtype=complex)
    src, tgt = fg.source.tree, fg.target.tree
    for sub in leaf_subtrees(src, tgt):
        out = np.kron(out, block(sub))
    return out


class TestVacuum:
    def test_base_amplitudes(self):
        omega = vacuum(BASE_PARTITION, V3)
        assert np.allclose(omega.amplitudes, np.eye(3) / math.sqrt(3))

    def test_refined_amplitudes_proportional_to_tensor(self):
        omega = vacuum(part("0, 1/2^1, 3/2^2, 1"), V3)
        assert np.allclose(omega.amplitudes, V3.array / math.sqrt(6))

    def test_unit_norm_any_cutoff(self):
        for p in all_partitions(5):
            if len(p) < 2:
                continue
            assert vacuum(p, V3).norm() == pytest.approx(1.0, abs=1e-12)

    def test_cutoff_independence(self):
        """The same state seen at two cutoffs: overlap is exactly 1."""
        a = vacuum(part("0, 1/2^2, 1/2^1, 1"), V3)
        b = vacuum(part("0, 1/2^1, 3/2^2, 7/2^3, 1"), V3)
        assert inner_product(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_trivial_cutoff_rejected(self):
        with pytest.raises(ValueError):
            vacuum(DyadicPartition.parse("0, 1"), V3)


class TestInnerProduct:
    def test_splitter_side_irrelevant_for_the_cup(self):
        """Splitting the left leg of the cup vs the right leg yields the same
        raw amplitude array because the tensor is rotation invariant."""
        omega = vacuum(BASE_PARTITION, V3)
        s1 = fine_grainer(
            BASE_PARTITION, part("0, 1/2^2, 1/2^1, 1"), V3
        ).apply(omega)
        s2 = fine_grainer(
            BASE_PARTITION, part("0, 1/2^1, 3/2^2, 1"), V3
        ).apply(omega)
        raw = np.vdot(s1.amplitudes, s2.amplitudes)
        assert raw == pytest.approx(1.0, abs=1e-12)

    def test_rotated_vacuum_overlaps(self):
        """Rotation by 1/2 fixes the vacuum; rotation by 1/4 only overlaps
        it by 1/2 because it slides one splitter across a cup."""
        from thompson_holo.thompson import TreeDiagram

        omega = vacuum(BASE_PARTITION, V3)
        half = TreeDiagram.parse("(..)|(..)@1")
        quarter = TreeDiagram.parse("((..)(..))|((..)(..))@1")
        assert inner_product(omega, act(half, omega)) == pytest.approx(
            1.0, abs=1e-12
        )
        assert inner_product(omega, act(quarter, omega)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_theory_mismatch(self):
        with pytest.raises(TheoryMismatch):
            inner_product(vacuum(BASE_PARTITION, V3), vacuum(BASE_PARTITION, singlet_tensor()))


class TestAction:
    def test_identity(self):
        omega = vacuum(BASE_PARTITION, V3)
        out = act(identity(), omega)
        assert inner_product(omega, out) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("word,expected", [("A", 1.0), ("B", 0.5), ("C", 1.0)])
    def test_generator_matrix_elements_action(self, word, expected):
        got = vacuum_matrix_element(parse_word(word), V3, "action")
        assert got == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("word,expected", [("A", 1.0), ("B", 0.5), ("C", 1.0)])
    def test_generator_matrix_elements_diagram(self, word, expected):
        got = vacuum_matrix_element(parse_word(word), V3, "diagram")
        assert got == pytest.approx(expected, abs=1e-12)

    def test_routes_agree_on_short_words(self):
        for w in ["", "A", "B", "C", "a", "b", "AB", "Ba", "cC", "bb", "CA"]:
            f = parse_word(w)
            assert vacuum_matrix_element(f, V3, "action") == pytest.approx(
                vacuum_matrix_element(f, V3, "diagram"), abs=1e-12
            ), w

    def test_unitarity_on_random_states(self):
        rng = np.random.default_rng(11)
        gamma = part("0, 1/2^2, 1/2^1, 3/2^2, 1")
        for w in ["A", "B", "C", "aB", "Cb"]:
            f = parse_word(w)
            for _ in range(5):
                v1 = rng.normal(size=81) + 1j * rng.normal(size=81)
                v2 = rng.normal(size=81) + 1j * rng.normal(size=81)
                s1 = CutoffState(gamma, v1, V3)
                s2 = CutoffState(gamma, v2, V3)
                before = inner_product(s1, s2)
                after = inner_product(act(f, s1), act(f, s2))
                assert after == pytest.approx(before, abs=1e-9)

    def test_group_law_on_vacuum(self):
        omega = vacuum(BASE_PARTITION, V3)
        f, g = parse_word("B"), parse_word("C")
        lhs = act(compose(f, g), omega)
        rhs = act(f, act(g, omega))
        overlap = inner_product(lhs, rhs)
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_invalid_route(self):
        with pytest.raises(ValueError):
            vacuum_matrix_element(identity(), V3, "sideways")

    @pytest.mark.parametrize("route", ["action", "diagram"])
    def test_bad_cap_override_fails_on_both_routes(self, monkeypatch, route):
        """The identity needs no contraction, yet both routes read the cap."""
        monkeypatch.setenv("THOMPSON_HOLO_MAX_AMPLITUDES", "abc")
        with pytest.raises(ValueError, match="^THOMPSON_HOLO_MAX_AMPLITUDES='abc' is not"):
            vacuum_matrix_element(identity(), V3, route)


def element_with_leaves(leaves: int, seed: int):
    """A seeded random reduced element with exactly `leaves` leaves."""
    rng = random.Random(seed)
    while True:
        f = random_element(rng.randint(3 * leaves // 2, 5 * leaves // 2), rng.randrange(10**6))
        if f.num_leaves == leaves:
            return f


def random_state(rng) -> CutoffState:
    """A random unit state at the two-interval cutoff."""
    v = rng.normal(size=9) + 1j * rng.normal(size=9)
    return CutoffState(BASE_PARTITION, v / np.linalg.norm(v), V3)


class TestPtRelatorsOnStates:
    """The relators of T as the mapping class group of the Farey tessellation,
    applied to states one factor at a time: pi(alpha) and pi(beta) are
    unitaries, so each relator must bring a state back to itself."""

    a, b, A, B = ALPHA, BETA, inverse(ALPHA), inverse(BETA)
    x, y = [b, a, b], [a, a, b, a, b, a, a]
    RELATORS = {
        "alpha^4": [a] * 4,
        "beta^3": [b] * 3,
        "(beta alpha)^5": [b, a] * 5,
        "[beta alpha beta, alpha^2 beta alpha beta alpha^2]": x + y + [B, A, B] + [A, A, B, A, B, A, A],
    }

    @pytest.mark.parametrize("name", RELATORS)
    @pytest.mark.parametrize("V", [four_colour_tensor(), singlet_tensor()], ids=["four-colour", "singlet"])
    def test_relator_returns_the_state(self, name, V):
        V = normalize_isometry(V, [0])
        d = V.leg_dims[0]
        rng = np.random.default_rng(5)
        v = rng.normal(size=d**4) + 1j * rng.normal(size=d**4)
        starts = [
            vacuum(BASE_PARTITION, V),
            CutoffState(part("0, 1/2^2, 1/2^1, 3/2^2, 1"), v / np.linalg.norm(v), V),
        ]
        for s in starts:
            t = s
            for g in reversed(self.RELATORS[name]):  # the rightmost factor acts first
                t = act(g, t)
            assert abs(inner_product(s, t) - inner_product(s, s)) <= 1e-12


class TestRandomElements:
    """Paper identities on seeded random elements with 8-14 leaves."""

    @pytest.mark.parametrize("leaves", range(8, 15))
    def test_routes_agree(self, leaves):
        f = element_with_leaves(leaves, leaves)
        assert vacuum_matrix_element(f, V3, "action") == pytest.approx(
            vacuum_matrix_element(f, V3, "diagram"), abs=1e-12
        )

    @pytest.mark.parametrize("leaves", range(8, 15))
    def test_unitarity(self, leaves):
        rng = np.random.default_rng(leaves)
        f = element_with_leaves(leaves, 100 + leaves)
        s1, s2 = random_state(rng), random_state(rng)
        before = inner_product(s1, s2)
        assert inner_product(act(f, s1), act(f, s2)) == pytest.approx(before, abs=1e-12)

    @pytest.mark.parametrize("leaves", range(2, 15))
    def test_action_matches_pl_route(self, leaves):
        """act against the route it replaced: evaluate f at the refined
        cutoff's breakpoints, sort the images, and rotate the legs to put
        the image of 0 at its sorted position."""
        rng = np.random.default_rng(leaves)
        f = element_with_leaves(leaves, 200 + leaves)
        # at most max(leaves, 12) legs, so no amplitude array passes 3^14 entries
        cutoffs = [
            c for c in all_partitions(4)
            if len(common_refinement(c, f.domain_partition)) <= max(leaves, 12)
        ]
        cutoff = cutoffs[rng.integers(len(cutoffs))]
        v = rng.normal(size=3 ** len(cutoff)) + 1j * rng.normal(size=3 ** len(cutoff))
        s = CutoffState(cutoff, v, V3)
        gamma = common_refinement(cutoff, f.domain_partition)
        images = sorted(evaluate(f, b) for b in gamma.breakpoints[:-1])
        out = act(f, s)
        assert out.cutoff.breakpoints == tuple(images) + (ONE,)
        m, n = images.index(evaluate(f, gamma.breakpoints[0])), len(gamma)
        refined = fine_grainer(cutoff, gamma, V3).apply(s).amplitudes
        assert np.array_equal(out.amplitudes, refined.transpose([(k - m) % n for k in range(n)]))

    @pytest.mark.parametrize("seed", range(4))
    def test_group_law_on_random_states(self, seed):
        """pi(f)pi(g)|s> = pi(fg)|s>, for pairs whose cutoffs stay within 13
        legs so that no amplitude array passes 3^13 entries."""
        rng = np.random.default_rng(seed)
        pyrng = random.Random(seed)
        while True:
            f = element_with_leaves(pyrng.randint(8, 14), pyrng.randrange(10**6))
            g = element_with_leaves(pyrng.randint(8, 14), pyrng.randrange(10**6))
            middle = common_refinement(g.range_partition, f.domain_partition)
            if max(len(middle), compose(f, g).num_leaves) <= 13:
                break
        s = random_state(rng)
        lhs = act(f, act(g, s))
        rhs = act(compose(f, g), s)
        assert lhs.norm() == pytest.approx(1.0, abs=1e-12)
        assert inner_product(lhs, rhs) == pytest.approx(1.0, abs=1e-12)


def tait_colourings(f: TreeDiagram) -> int:
    """The proper 3-edge-colourings of the cubic graph of f, by backtracking.

    The graph has one vertex per internal node of either tree except the
    two roots.  Edge e of the search is the edge above a node; the two
    edges below a root are one edge, and domain leaf j is range leaf
    (m + j) mod N, so a union-find merges those.  Domain vertices are
    coloured top down, two choices each, and range vertices bottom up, where
    both children's colours force the third; a class that meets no vertex
    is a free loop, with three colours.
    """
    n, m = f.num_leaves, f.marker
    ids, parent, vertices, leaves = itertools.count(), {}, ([], []), ([], [])

    def find(e):
        while parent.get(e, e) != e:
            e = parent[e]
        return e

    for side, root in enumerate((f.domain_tree, f.range_tree)):
        a, b = next(ids), next(ids)
        parent[a] = b
        stack = [(root.right, b), (root.left, a)]
        while stack:
            node, e = stack.pop()
            if node.is_leaf:
                leaves[side].append(e)
            else:
                left, right = next(ids), next(ids)
                vertices[side].append((e, left, right))
                stack += [(node.right, right), (node.left, left)]
    for j, e in enumerate(leaves[0]):
        x, y = find(e), find(leaves[1][(m + j) % n])
        if x != y:
            parent[x] = y
    triples = [tuple(map(find, v)) for v in vertices[0] + vertices[1][::-1]]
    free = {find(e) for e in range(next(ids))} - {c for t in triples for c in t}

    def count(k, colour):
        if k == len(triples):
            return 1
        total = 0
        for cols in itertools.permutations(range(3)):
            new = dict(zip(triples[k], cols))
            if len(new) == 3 and all(colour.get(c, x) == x for c, x in new.items()):
                total += count(k + 1, {**colour, **new})
        return total

    return 3 ** len(free) * count(0, {})


def tait_value(f: TreeDiagram) -> Fraction:
    """<Omega|pi(f)|Omega> for the four-colour tensor, exactly: the Tait
    count over 3 * 2^(N-2)."""
    return Fraction(tait_colourings(f), 3 * 2 ** (f.num_leaves - 2))


def short_word_elements():
    """The reduced elements of the words of at most 3 letters, with N >= 2."""
    seen = {}
    for n in range(4):
        for letters in itertools.product("ABCabc", repeat=n):
            f = parse_word("".join(letters))
            if f.num_leaves >= 2:
                seen.setdefault(str(f), f)
    return list(seen.values())


class TestFourColourTait:
    """The four-colour tensor is |eps_abc| on 3 colours, so the diagram
    route counts Tait colourings: <Omega|pi(f)|Omega> is the number of proper
    3-edge-colourings of the cubic graph of f divided by 3 * 2^(N-2), a
    count taken here by search, independent of any tensor."""

    @pytest.mark.parametrize("word, count", [("B", 6), ("BBB", 6)])
    def test_small_counts(self, word, count):
        f = parse_word(word)
        assert tait_colourings(f) == count
        assert vacuum_matrix_element(f, V3, "diagram") == pytest.approx(
            count / (3 * 2 ** (f.num_leaves - 2)), abs=1e-12
        )

    def check(self, f):
        count = tait_colourings(f)
        assert count > 0, str(f)
        expected = count / (3 * 2 ** (f.num_leaves - 2))
        assert abs(vacuum_matrix_element(f, V3, "diagram") - expected) <= 1e-12, str(f)

    def test_short_words(self):
        elements = short_word_elements()
        assert len(elements) == 127
        for f in elements:
            self.check(f)

    @pytest.mark.parametrize("leaves", range(2, 15))
    def test_random_elements(self, leaves):
        for seed in range(3):
            self.check(element_with_leaves(leaves, 300 + 100 * seed + leaves))


DELTA, EPS = np.eye(2, dtype=int), np.array([[0, 1], [-1, 0]])


def strand_pairs(tree: TTree) -> list:
    """The Bell pairs of the singlet state on `tree`, as (u, v, M) with M a
    2 x 2 integer matrix: the pair carries M[x_u, x_v] / sqrt(2).

    A singlet leg is two qubit strands; strand 2j is leaf j's left strand
    and 2j + 1 its right one.  W passes its input's left strand down the
    left edge and its right strand down the right edge, and puts eps / sqrt(2)
    on the inner strands of its children, so a non-root node that splits its
    leaves at p pairs the right strand of leaf p - 1 with the left strand of
    leaf p.  The cup is delta / sqrt(2) on each strand, so the root, split
    at p, pairs the left strands of leaves 0 and p, and the right strands of
    leaves p - 1 and n - 1.
    """
    n, p = tree.num_leaves, tree.left.num_leaves
    pairs = [(0, 2 * p, DELTA), (2 * p - 1, 2 * n - 1, DELTA)]
    stack = [(tree.left, 0), (tree.right, p)]
    while stack:
        node, lo = stack.pop()
        if not node.is_leaf:
            p = lo + node.left.num_leaves
            pairs.append((2 * p - 1, 2 * p, EPS))
            stack += [(node.left, lo), (node.right, p)]
    return pairs


def loop_value(f: TreeDiagram) -> Fraction:
    """<Omega|pi(f)|Omega> for the singlet tensor, exactly, from loops of
    strands, not from any contraction.

    Domain strand 2j + s meets range strand 2((m + j) mod N) + s.  Each
    strand lies on one domain pair and one range pair, so the pairs close
    into loops, and a loop is worth the trace of its matrices' product.
    Each of the 2N pairs carries 1/sqrt(2), so the value is the product of
    the traces over 2^N: 0 or a signed power of two.
    """
    n, m = f.num_leaves, f.marker
    if n == 1:
        return Fraction(1)
    ends = ({}, {})
    for side, tree in enumerate((f.domain_tree, f.range_tree)):
        for u, v, M in strand_pairs(tree):
            if side:  # a range strand, renamed as the domain strand it meets
                u, v = (2 * ((x // 2 - m) % n) + x % 2 for x in (u, v))
            ends[side][u], ends[side][v] = (v, M), (u, M.T)
    value, seen = Fraction(1, 2**n), set()
    for start in range(2 * n):
        if start in seen:
            continue
        product, strand = DELTA, start
        while True:
            for side in ends:
                seen.add(strand)
                strand, M = side[strand]
                product = product @ M
            if strand == start:
                break
        value *= int(np.trace(product))
    return value


def strand_entropy(tree: TTree, marker: int, legs) -> float:
    """S(legs) of the singlet state on `tree` with leaf j on leg
    (marker + j) mod n: log 2 per strand pair with one end in `legs`."""
    n, legs = tree.num_leaves, set(legs)
    cut = sum(
        ((marker + u // 2) % n in legs) != ((marker + v // 2) % n in legs)
        for u, v, _ in strand_pairs(tree)
    )
    return cut * math.log(2)


def random_tree(rng: random.Random, leaves: int) -> TTree:
    tree = TTree.parse("(..)")
    while tree.num_leaves < leaves:
        tree = _split_leaf(tree, rng.randrange(tree.num_leaves))
    return tree


class TestSingletStrands:
    """The singlet tensor's states are products of strand pairs
    (`strand_pairs`), so its coefficients are loop values and its
    entropies are counts of cut pairs, read without linear algebra."""

    S4 = singlet_tensor()

    def check(self, f):
        value = loop_value(f)
        assert abs(vacuum_matrix_element(f, self.S4, "diagram") - value) <= 1e-12, str(f)
        return value

    def test_short_words(self):
        elements = short_word_elements() + [identity()]
        assert len(elements) == 128
        values = Counter(self.check(f) for f in elements)
        assert values == {Fraction(1, 4): 114, Fraction(1): 14}

    @pytest.mark.parametrize("leaves", range(2, 41))
    def test_random_diagrams(self, leaves):
        """Unreduced too: the route reduces first, the loops do not."""
        rng = random.Random(leaves)
        for _ in range(3):
            trees = random_tree(rng, leaves), random_tree(rng, leaves)
            self.check(TreeDiagram(*trees, rng.randrange(leaves)))

    def test_vacuum_entropies(self):
        rng = random.Random(9)
        for n in range(2, 10):
            for _ in range(3):
                tree = random_tree(rng, n)
                state = vacuum(tree_to_partition(tree), self.S4)
                for _ in range(8):
                    legs = rng.sample(range(n), rng.randint(0, n))
                    assert entanglement_entropy(state, legs) == pytest.approx(
                        strand_entropy(tree, 0, legs), abs=1e-10
                    ), (str(tree), legs)

    def test_entropies_of_acted_vacua(self):
        """pi(f) carries the pairs of f's domain tree to the range leaves,
        shifted by the marker."""
        rng = random.Random(10)
        omega = vacuum(BASE_PARTITION, self.S4)
        for n in range(2, 10):
            for _ in range(3):
                trees = random_tree(rng, n), random_tree(rng, n)
                f = reduce_diagram(TreeDiagram(*trees, rng.randrange(n)))
                m = f.num_leaves
                if m == 1:
                    continue
                state = act(f, omega)
                for _ in range(8):
                    legs = rng.sample(range(m), rng.randint(0, m))
                    assert entanglement_entropy(state, legs) == pytest.approx(
                        strand_entropy(f.domain_tree, f.marker, legs), abs=1e-10
                    ), (str(f), legs)

    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_btz_halves(self, h):
        """Around the ring each triangle's boundary leg shares one singlet
        with the next triangle's, and A and B alternate, so all 4h pairs
        are cut."""
        state = btz_state(h, self.S4)
        for side in halves(state):
            assert entanglement_entropy(state, side) == pytest.approx(
                4 * h * math.log(2), abs=1e-12
            )


def balanced_tree(k: int) -> TTree:
    """The balanced tree of level k, with 2^k leaves."""
    tree = LEAF
    for _ in range(k):
        tree = TTree(tree, tree)
    return tree


class TestDyadicRotations:
    """The vacuum on the dyadic rotations R_{a/2^k} = (T_k, T_k, a), for the
    balanced level-k tree T_k.  phi(a) = <Omega|pi(R_{a/2^k})|Omega> is
    positive-definite on Z/2^k, so its DFT over 2^k, p_k, is a probability
    vector, and p_k(0) is the weight of the rotation-invariant part."""

    @pytest.mark.parametrize(
        "V, p0, tol, exact, exact_levels",
        [
            (V3, [1, 0.75, 0.4219, 0.2225, 0.1115, 0.0557], 1e-4, tait_value, 3),
            (
                singlet_tensor(),
                [1 / 4 + 3 / 4 * 2 ** (1 - k) for k in range(1, 7)],
                1e-12,
                loop_value,
                6,
            ),
        ],
        ids=["four-colour", "singlet"],
    )
    def test_spectrum(self, V, p0, tol, exact, exact_levels):
        """For k <= 6: the four-colour p_k(0) to 1e-4, the singlet's closed
        form 1/4 + (3/4) 2^(1-k) to 1e-12.  Each phi(a) equals its exact
        value to 1e-12: the Tait count for k <= 3 (k = 4's search over all
        16 rotations took 52 s) and the loop value for every k."""
        for k, want in enumerate(p0, start=1):
            tree = balanced_tree(k)
            rotations = [TreeDiagram(tree, tree, a) for a in range(2**k)]
            phi = [vacuum_matrix_element(f, V, "diagram") for f in rotations]
            if k <= exact_levels:
                for a, f in enumerate(rotations):
                    assert abs(phi[a] - exact(f)) <= 1e-12, (k, a)
            p = np.fft.fft(phi) / 2**k
            assert np.abs(p.imag).max() <= 1e-12, k
            assert p.real.min() >= -1e-15, k
            assert abs(p.real.sum() - 1) <= 1e-12, k
            assert abs(p[0].real - want) <= tol, k

    def test_singlet_loop_values(self):
        """The singlet's phi, exactly, for k <= 6: 1 at the identity and at
        the half-turn, 1/4 at every other rotation."""
        for k in range(1, 7):
            tree = balanced_tree(k)
            values = [loop_value(TreeDiagram(tree, tree, a)) for a in range(2**k)]
            assert values == [
                Fraction(1) if a % 2 ** (k - 1) == 0 else Fraction(1, 4) for a in range(2**k)
            ], k


class TestVacuumFixers:
    """Elements s with pi(s)Omega = Omega, read exactly: then f(tau_0) and
    fs(tau_0) are two geometries with one ket.  The four-colour value is 1
    when the Tait count is 3 * 2^(N-2), and the singlet value is the loop
    value."""

    def test_four_colour_words_in_a_and_c(self):
        """Every distinct element of the words over ACac of length <= 6: 150
        with the identity, which has one leaf and is skipped, up to 8
        leaves."""
        seen = {}
        for length in range(7):
            for letters in itertools.product("ACac", repeat=length):
                f = parse_word("".join(letters))
                seen.setdefault(str(f), f)
        assert len(seen) == 150
        assert max(f.num_leaves for f in seen.values()) == 8
        for f in seen.values():
            if f.num_leaves > 1:
                assert tait_colourings(f) == 3 * 2 ** (f.num_leaves - 2), str(f)

    @pytest.mark.parametrize("word, count, full", [("B", 6, 12), ("aBA", 12, 24)])
    def test_four_colour_non_fixers_give_half(self, word, count, full):
        f = parse_word(word)
        assert (tait_colourings(f), 3 * 2 ** (f.num_leaves - 2)) == (count, full)

    def test_singlet_fixers(self):
        """B, AC, aBA and 300 seeded words of 1-8 factors from theirs and
        their inverses, up to 12 leaves, against A and C, which give 1/4."""
        rng = random.Random(18)
        factors = ["B", "b", "AC", "ca", "aBA", "abA"]
        words = ["B", "AC", "aBA"] + [
            "".join(rng.choice(factors) for _ in range(rng.randint(1, 8))) for _ in range(300)
        ]
        elements = [parse_word(w) for w in words]
        assert max(f.num_leaves for f in elements) == 12
        for w, f in zip(words, elements):
            assert loop_value(f) == 1, w
        assert [loop_value(parse_word(w)) for w in "AC"] == [Fraction(1, 4)] * 2


class TestGram:
    def test_identity_and_b(self):
        words = [identity(), parse_word("B")]
        G = gram_matrix(words, V3)
        assert np.allclose(G, G.conj().T, atol=1e-12)
        evals = sorted(np.linalg.eigvalsh(G))
        assert evals == pytest.approx([0.5, 1.5], abs=1e-12)

    def test_positive_semidefinite(self):
        words = [parse_word(w) for w in ["", "A", "B", "C", "ab"]]
        G = gram_matrix(words, V3)
        assert np.linalg.eigvalsh(G).min() >= -1e-10

    @pytest.mark.parametrize("V", [V3, singlet_tensor()], ids=["four-colour", "singlet"])
    def test_matches_pairwise_reference_words_up_to_three(self, V):
        """The 38 distinct reduced elements of words over {A,B,C} of length
        <= 3: G[i,j] = <psi_i|psi_j> from kets built once equals
        <Omega|pi(w_i^-1 w_j)|Omega> pair by pair, which is the homomorphism
        law pi(w_i)^dagger pi(w_j) = pi(w_i^-1 w_j) on the vacuum."""
        seen = {}
        for length in range(4):
            for letters in itertools.product("ABC", repeat=length):
                f = parse_word("".join(letters))
                seen.setdefault(str(f), f)
        words = list(seen.values())
        assert len(words) == 38
        G = gram_matrix(words, V)
        ref = np.array(
            [[vacuum_matrix_element(compose(inverse(wi), wj), V) for wj in words] for wi in words]
        )
        assert np.abs(G - ref).max() <= 1e-12
        assert np.array_equal(G, G.conj().T)
        assert np.linalg.eigvalsh(G).min() >= -1e-10

    @pytest.mark.parametrize("V, rank", [(V3, 32), (singlet_tensor(), 25)], ids=["four-colour", "singlet"])
    def test_rank_words_up_to_three(self, V, rank):
        """The bulk span of the 128 reduced elements of words of at most 3 letters, within 60 s."""
        start = time.perf_counter()
        words = [identity()] + short_word_elements()
        assert len(words) == 128
        G = gram_matrix(words, V)
        assert time.perf_counter() - start < 60
        assert np.array_equal(G, G.conj().T)
        assert np.count_nonzero(np.linalg.eigvalsh(G) > 1e-9) == rank

    def test_empty(self):
        assert gram_matrix([], V3).shape == (0, 0)

    def test_inverse_symmetry(self):
        f = parse_word("Bc")
        lhs = vacuum_matrix_element(f, V3)
        rhs = vacuum_matrix_element(inverse(f), V3)
        assert lhs == pytest.approx(np.conj(rhs), abs=1e-12)


def grow(tree: TTree, feed, W: DenseTensor, nodes: list, bonds: list) -> list:
    """Wire one W (legs in, out, out) per internal node of `tree` below the
    open leg `feed`, parent before children; return the open leaf legs,
    left to right."""
    out, stack = [], [(tree, feed)]
    while stack:
        node, feed = stack.pop()
        if node.is_leaf:
            out.append(feed)
            continue
        nodes.append(W)
        bonds.append((feed, (len(nodes) - 1, 0)))
        stack += [(node.right, (len(nodes) - 1, 2)), (node.left, (len(nodes) - 1, 1))]
    return out


def split_matrix_element(f: TreeDiagram, g: TreeDiagram, V: DenseTensor) -> complex:
    """<pi(f^-1) Omega | pi(g) Omega> as one network that never forms f g.
    The ket is a cup and one W per caret of g's domain tree, its domain
    leaf j on g's range leaf (marker + j) mod n; the bra is f^-1's, wired
    the same way from f's range tree and conjugated.  Each side is
    fine-grained to the union of g's range tree and f's domain tree, and
    the two are joined leaf to leaf."""
    cup, W3, W3c = _diagram_tensors(V)
    nodes, bonds, sides = [], [], []
    below_g, below_f = _leaf_subtrees(g.range_tree, f.domain_tree)
    for tree, W, m, below in (
        (g.domain_tree, W3, g.marker, below_g),
        (f.range_tree, W3c, -f.marker, below_f),
    ):
        leaves = _grain_like_side(tree, cup, W, nodes, bonds)
        n = len(leaves)
        sides.append(
            [x for k, t in enumerate(below) for x in grow(t, leaves[(k - m) % n], W, nodes, bonds)]
        )
    bonds += zip(*sides)
    return complex(contract(TensorNetwork(nodes, bonds, [])).array)


def random_word(length: int, seed: int) -> str:
    """The word of `random_element(length, seed)`."""
    rng = random.Random(seed)
    return "".join(rng.choice(_LETTERS) for _ in range(length))


class TestHomomorphismAtScale:
    """pi(f) pi(g) = pi(f g) on the vacuum at hundreds of leaves: the two
    networks of `split_matrix_element` against the diagram route on the
    product, which `compose` forms by path copies.  The singlet's values
    are a quarter, so they compare absolutely, also with the exact
    `loop_value`; the four-colour ones read 1e-33 to 1e-196, so they
    compare relatively."""

    WORD = random_word(3200, 1)

    def check(self, f: TreeDiagram, g: TreeDiagram, V: DenseTensor):
        try:
            split = split_matrix_element(f, g, V)
            value = vacuum_matrix_element(compose(f, g), V, "diagram")
        except ResourceLimit as exc:
            pytest.skip(f"over the cap: {exc}")
        if V is V3:
            assert split == pytest.approx(value, rel=1e-10, abs=0)
        else:
            exact = float(loop_value(compose(f, g)))
            assert abs(split - value) <= 1e-12 and abs(split - exact) <= 1e-12

    @pytest.mark.parametrize("V", [V3, singlet_tensor()], ids=["four-colour", "singlet"])
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_pairs(self, seed, V):
        rng = random.Random(seed)
        f, g = (random_element(rng.randint(220, 2000), rng.randrange(10**6)) for _ in "fg")
        assert 50 <= min(f.num_leaves, g.num_leaves) and max(f.num_leaves, g.num_leaves) <= 500
        self.check(f, g, V)

    @pytest.mark.parametrize("V", [V3, singlet_tensor()], ids=["four-colour", "singlet"])
    @pytest.mark.parametrize("cut", [1, 800, 1600, 2400, 3199])
    def test_splits_of_one_word(self, cut, V):
        """f and g are the prefix and suffix of one word of 722 leaves."""
        f, g = parse_word(self.WORD[:cut]), parse_word(self.WORD[cut:])
        assert compose(f, g) == random_element(3200, 1) and compose(f, g).num_leaves == 722
        self.check(f, g, V)


class TestBulkKets:
    """A bulk ket is a tree diagram f, and its state is pi(f)|Omega>."""

    def test_vacuum_ket(self):
        k = TreeDiagram(TTree.parse("."), TTree.parse("."))
        assert bulk_inner(k, k, V3) == pytest.approx(1.0, abs=1e-12)

    def test_two_caret_gram_psd(self):
        trees = [TTree.parse(t) for t in [".", "(..)", "((..).)", "(.(..))"]]
        kets = [TreeDiagram(t, t) for t in trees]
        n = len(kets)
        G = np.array(
            [[bulk_inner(kets[i], kets[j], V3) for j in range(n)] for i in range(n)]
        )
        assert np.allclose(G, G.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(G).min() >= -1e-10

    def test_ket_with_marker(self):
        k = TreeDiagram(TTree.parse("(..)"), TTree.parse("(..)"), 1)
        val = bulk_inner(TreeDiagram(TTree.parse("."), TTree.parse(".")), k, V3)
        # this is <Omega|pi(rotation by half)|Omega>
        direct = vacuum_matrix_element(k, V3)
        assert val == pytest.approx(direct, abs=1e-12)

    def test_flip_commutes_with_boundary_action(self):
        """T acts on the boundary and a flip acts in the bulk, and the two
        commute on kets: the ket of pachner_flip(g(t), e) is pi(g) of the
        ket of pachner_flip(t, g^-1(e)), for t a short flip walk from tau_0,
        g a short random word and e an edge of g(t).  Cases over 13 leaves
        are skipped, so that no amplitude array passes 3^13 entries."""
        omega = vacuum(BASE_PARTITION, V3)
        kept = 0
        for seed in range(200):
            rng = random.Random(seed)
            t = standard_tessellation(4)
            for _ in range(rng.randint(0, 3)):
                t = pachner_flip(t, rng.choice(t.window_edges()))
            g = random_element(rng.randint(0, 4), rng.randrange(10**6))
            e = rng.choice(apply_element(t, g).window_edges())
            g_inv = inverse(g)
            lhs = pachner_flip(apply_element(t, g), e).element
            rhs = pachner_flip(t, chord(evaluate(g_inv, e.a), evaluate(g_inv, e.b))).element
            if max(lhs.num_leaves, rhs.num_leaves) > 13:
                continue
            kept += 1
            assert lhs == reduce_diagram(compose(g, rhs)), seed
            overlap = inner_product(act(lhs, omega), act(g, act(rhs, omega)))
            assert abs(overlap - 1) <= 1e-12, seed
        assert kept >= 100


class TestBTZ:
    def test_entropies_match_and_bound(self):
        for h in (1, 2, 3):
            state = btz_state(h, V3)
            na, nb = state.num_a, state.num_b
            sa = entanglement_entropy(state, range(na))
            sb = entanglement_entropy(state, range(na, na + nb))
            assert sa > 0
            assert sa == pytest.approx(sb, abs=1e-10)
            assert sa <= state.cut_bonds * math.log(3) + 1e-10

    def test_normalized(self):
        state = btz_state(1, V3)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_pure_state_zero_entropy_overall(self):
        state = btz_state(1, V3)
        total = entanglement_entropy(state, range(state.num_a + state.num_b))
        assert total == pytest.approx(0.0, abs=1e-10)

    def test_halfwidth_validation(self):
        with pytest.raises(ValueError):
            btz_state(0, V3)
        with pytest.raises(ValueError, match="halfwidth must be at least 1"):
            btz_state(1.5, V3)

    @pytest.mark.parametrize("halfwidth", [True, False])
    def test_bool_halfwidth_rejected(self, halfwidth):
        """A bool is an int to isinstance, but not a halfwidth."""
        with pytest.raises(ValueError, match="^halfwidth must be at least 1$"):
            btz_state(halfwidth, V3)

    @pytest.mark.parametrize("halfwidth", [0, 1.5, True, False])
    def test_hand_built_halfwidth_validation(self, halfwidth):
        with pytest.raises(ValueError, match="halfwidth must be at least 1"):
            BTZState(halfwidth, np.array(1.0), V3)

    def test_resource_limit(self, monkeypatch):
        monkeypatch.setenv("THOMPSON_HOLO_MAX_AMPLITUDES", "10")
        with pytest.raises(ResourceLimit):
            btz_state(1, V3)

    def test_subsystem_index_checked(self):
        state = btz_state(1, V3)
        with pytest.raises(IndexError):
            entanglement_entropy(state, [99])


def reference_entropy(state, subsystem) -> float:
    """The complex-rho formula entanglement_entropy replaced: rho is always
    built on `subsystem`'s side of the cut, in complex arithmetic."""
    amps = np.asarray(state.amplitudes, dtype=complex)
    n = amps.ndim
    sub = sorted(set(subsystem))
    if any(not 0 <= j < n for j in sub):
        raise IndexError("subsystem leg index out of range")
    rest = [j for j in range(n) if j not in sub]
    m = amps.transpose(sub + rest).reshape(
        math.prod(amps.shape[j] for j in sub), -1
    )
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    evals = np.linalg.eigvalsh(rho)
    evals = evals[evals > 1e-14]
    return float(-np.sum(evals * np.log(evals)))


def assert_matches_reference(state, subsystem):
    """Compare with the reference, evaluated on the smaller side of the cut:
    a pure state has the same entropy on both sides, and the reference on
    the larger side of a 12-leg state would need terabytes."""
    shape = state.amplitudes.shape
    sub = sorted(set(subsystem))
    rest = [j for j in range(len(shape)) if j not in sub]
    side = sub if math.prod(shape[j] for j in sub) <= math.prod(shape[j] for j in rest) else rest
    assert entanglement_entropy(state, sub) == pytest.approx(
        reference_entropy(state, side), abs=1e-12
    )


def cutoff_with(n: int) -> DyadicPartition:
    return next(p for p in all_partitions(n) if len(p) == n)


@pytest.fixture
def eigvalsh_args(monkeypatch):
    """(shape, dtype) of every matrix passed to np.linalg.eigvalsh."""
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        seen.append((a.shape, a.dtype))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return seen


class TestEntropyAgainstReference:
    @pytest.mark.parametrize(
        "h, V", [(1, V3), (2, V3), (3, V3), (1, singlet_tensor()), (2, singlet_tensor())]
    )
    def test_btz_every_contiguous_split(self, h, V, monkeypatch):
        """Every leg interval at h <= 2, every prefix and suffix at h = 3;
        the most lopsided first, and each rho at most sqrt(d^n) wide."""
        state = btz_state(h, V)
        eigvalsh = np.linalg.eigvalsh

        def spy(a):
            assert a.shape[0] ** 2 <= state.amplitudes.size
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        n = state.num_a + state.num_b
        splits = [
            (i, j) for i in range(n + 1) for j in range(i, n + 1) if h < 3 or i == 0 or j == n
        ]
        for i, j in sorted(splits, key=lambda ij: -abs(2 * (ij[1] - ij[0]) - n)):
            assert_matches_reference(state, range(i, j))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_complex_states_unbalanced(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        v = rng.normal(size=3**n) + 1j * rng.normal(size=3**n)
        # unnormalised on purpose: the trace normalisation is part of the formula
        state = CutoffState(cutoff_with(n), 3.7 * v, V3)
        for k in range(n + 1):
            sub = rng.permutation(n)[:k].tolist()
            assert entanglement_entropy(state, sub) == pytest.approx(
                reference_entropy(state, sub), abs=1e-12
            )

    def test_imaginary_part_is_kept(self):
        """(|00> + i|11>)/sqrt 2 has entropy ln 2; its real part alone is a
        product state, of entropy 0."""
        v = np.zeros((3, 3), dtype=complex)
        v[0, 0], v[1, 1] = 1, 1j
        state = CutoffState(BASE_PARTITION, v / math.sqrt(2), V3)
        assert entanglement_entropy(state, [0]) == pytest.approx(math.log(2), abs=1e-12)
        assert reference_entropy(state, [0]) == pytest.approx(math.log(2), abs=1e-12)
        real_part = CutoffState(BASE_PARTITION, v.real, V3)
        assert entanglement_entropy(real_part, [0]) == pytest.approx(0.0, abs=1e-12)

    def test_global_phase_of_i(self):
        state = btz_state(2, V3)
        turned = CutoffState(cutoff_with(8), 1j * state.amplitudes, V3)
        assert not np.any(turned.amplitudes.real)
        for k in (3, 4, 5):
            assert entanglement_entropy(turned, range(k)) == pytest.approx(
                entanglement_entropy(state, range(k)), abs=1e-12
            )

    def test_real_states_use_real_arithmetic(self, eigvalsh_args):
        """Legs 1-4 are not a BTZ half, so both states take the general route."""
        state = btz_state(2, V3)
        entanglement_entropy(state, range(1, 5))
        entanglement_entropy(CutoffState(cutoff_with(8), 1j * state.amplitudes, V3), range(1, 5))
        assert [dtype for _, dtype in eigvalsh_args] == [np.float64, np.complex128]

    def test_whole_system_of_twelve_legs(self):
        """Whole and empty subsystems build a 1 x 1 rho; rho on the
        subsystem's side would be 3^12 x 3^12 (4 TiB)."""
        state = btz_state(3, V3)
        assert entanglement_entropy(state, range(12)) == pytest.approx(0.0, abs=1e-10)
        assert entanglement_entropy(state, []) == pytest.approx(0.0, abs=1e-10)

    def test_lopsided_subsystem_builds_rho_on_the_small_side(self, eigvalsh_args):
        state = btz_state(2, V3)
        seven = [entanglement_entropy(state, range(7)), entanglement_entropy(state, range(1, 8))]
        assert [shape for shape, _ in eigvalsh_args] == [(3, 3), (3, 3)]
        assert seven == pytest.approx(
            [reference_entropy(state, [7]), reference_entropy(state, [0])], abs=1e-12
        )

    def test_zero_state(self):
        state = CutoffState(BASE_PARTITION, np.zeros(9), V3)
        with pytest.raises(ValueError, match="zero state"):
            entanglement_entropy(state, [0])


# Four-colour times a phase on the boundary leg: still perfect, and its BTZ
# amplitudes are complex.
PHASED = DenseTensor(V3.array * np.exp(1j * np.array([0, 0.7, 1.9]))[None, :, None])


def joint_shift(amps: np.ndarray, s: int) -> np.ndarray:
    """The amplitudes with the A axes and the B axes each rolled by s."""
    half = amps.ndim // 2
    axes = np.arange(half)
    return amps.transpose(list(np.roll(axes, s)) + list(half + np.roll(axes, s)))


def orbit_count(d: int, n: int) -> int:
    """Orbits of the cyclic shift on n legs of dimension d (Burnside)."""
    return sum(d ** math.gcd(s, n) for s in range(n)) // n


def halves(state):
    na = state.num_a
    return [range(na), range(na, na + state.num_b)]


class TestTranslationSectors:
    """The sector route that entanglement_entropy takes on a BTZ half."""

    @pytest.mark.parametrize(
        "h, V",
        [(1, V3), (2, V3), (3, V3), (1, singlet_tensor()), (2, singlet_tensor()), (2, PHASED)],
    )
    def test_btz_state_is_invariant_under_the_joint_shift(self, h, V):
        amps = btz_state(h, V).amplitudes
        assert np.max(np.abs(joint_shift(amps, 1) - amps)) <= 1e-13

    def test_phased_tensor_is_perfect_with_complex_amplitudes(self):
        verify_perfect(PHASED)
        assert np.any(btz_state(1, PHASED).amplitudes.imag)

    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_phased_entropies_equal_four_colour(self, h):
        """The phase is a local unitary on each boundary leg."""
        state, plain = btz_state(h, PHASED), btz_state(h, V3)
        for side in halves(state):
            sa = entanglement_entropy(state, side)
            assert sa == pytest.approx(entanglement_entropy(plain, side), abs=1e-12)
            assert sa == pytest.approx(reference_entropy(state, side), abs=1e-12)

    @pytest.mark.parametrize("h, seed", [(1, 0), (1, 1), (2, 2), (2, 3), (3, 4)])
    def test_random_shift_invariant_complex_states(self, h, seed):
        """Generic complex states, unnormalised, whose blocks k and n - k
        have different spectra."""
        rng = np.random.default_rng(seed)
        shape = (3,) * (4 * h)
        v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        amps = sum(joint_shift(v, s) for s in range(2 * h))
        state = BTZState(h, amps, V3)
        for side in halves(state):
            assert entanglement_entropy(state, side) == pytest.approx(
                reference_entropy(state, side), abs=1e-12
            )

    def test_hand_built_state_that_is_not_invariant_is_rejected(self):
        """The sector route would read S(A) = 1.74378 from these amplitudes;
        the general route reads 1.58872."""
        a = np.random.default_rng(0).normal(size=(3,) * 4)
        a /= np.linalg.norm(a)
        with pytest.raises(ValueError, match="joint cyclic shift"):
            BTZState(1, a, V3)
        general = CutoffState(part("0, 1/2^2, 1/2^1, 3/2^2, 1"), a, V3)
        assert entanglement_entropy(general, range(2)) == pytest.approx(1.58872, abs=1e-5)
        with pytest.raises(ValueError, match="halfwidth 1 needs 4 legs, not 3"):
            BTZState(1, a[0], V3)

    def test_tolerance_is_relative_to_the_largest_amplitude(self):
        amps = btz_state(1, V3).amplitudes
        bump = np.max(np.abs(amps)) * (np.arange(amps.size) == 5).reshape(amps.shape)
        for scale in (1, 1e6):
            BTZState(1, scale * (amps + 1e-11 * bump), V3)
            with pytest.raises(ValueError, match="joint cyclic shift"):
                BTZState(1, scale * (amps + 1e-9 * bump), V3)

    @pytest.mark.parametrize("h, V", [(1, V3), (2, V3), (1, singlet_tensor()), (1, PHASED)])
    def test_hand_built_copy_of_an_invariant_state(self, h, V):
        state = btz_state(h, V)
        copy = BTZState(h, state.amplitudes.copy(), V)
        for side in halves(state):
            assert entanglement_entropy(copy, side) == entanglement_entropy(state, side)

    @pytest.mark.parametrize("h, V", [(2, V3), (3, V3), (2, singlet_tensor()), (2, PHASED)])
    def test_halves_take_the_sector_route(self, h, V, eigvalsh_args):
        """One block per momentum, none wider than the orbit count, and
        together (blocks k and n - k once each) exactly d^n wide."""
        state = btz_state(h, V)
        d, n = V.leg_dims[0], state.num_a
        real = not np.any(state.amplitudes.imag)
        for side in halves(state):
            eigvalsh_args.clear()
            entanglement_entropy(state, side)
            widths = [shape[0] for shape, _ in eigvalsh_args]
            assert len(widths) == (n // 2 + 1 if real else n)
            assert max(widths) == orbit_count(d, n)
            counts = [1 if 2 * k % n == 0 or not real else 2 for k in range(len(widths))]
            assert sum(c * w for c, w in zip(counts, widths)) == d**n
            dtypes = [dtype for _, dtype in eigvalsh_args]
            if real:
                assert dtypes[0] == dtypes[-1] == np.float64
            else:
                assert all(dtype == np.complex128 for dtype in dtypes)


def rho_row_momentum_blocks(m: np.ndarray, d: int, n: int) -> list:
    """The construction _momentum_blocks replaced: the representatives' rows
    of rho = m m^dagger, then one DFT over the shifts of each orbit."""
    cube = np.arange(d**n).reshape((d,) * n)
    shifts = np.stack(
        [cube.transpose(np.roll(np.arange(n), s)).reshape(-1) for s in range(n)]
    )
    reps = np.flatnonzero(shifts.min(axis=0) == cube.reshape(-1))
    periods = n // np.count_nonzero(shifts[:, reps] == reps, axis=0)
    rows = m[reps] @ m.conj().T
    gathered = rows[:, shifts[:, reps]]  # [o, s, o'] = rho[r_o, shift_s(r_o')]
    real = not np.iscomplexobj(m)
    spectra = np.fft.rfft(gathered, axis=1) if real else np.fft.fft(gathered, axis=1)
    weights = np.sqrt(periods / n)
    blocks = []
    for k in range(spectra.shape[1]):
        sel = np.flatnonzero(k * periods % n == 0)
        block = spectra[sel, k][:, sel] * np.outer(weights[sel], weights[sel])
        if not real:
            blocks.append((block, 1))
        elif 2 * k % n == 0:
            blocks.append((block.real, 1))
        else:
            blocks.append((block, 2))
    return blocks


def ring_copy_then_divide(h: int, V: DenseTensor) -> np.ndarray:
    """btz_state's amplitudes as a C-ordered copy of the ring contracted as
    one network, then divided by the copy's norm."""
    amps = np.array(contract(btz_ring(h, V)).array, order="C")
    amps /= np.linalg.norm(amps)
    return amps


class TestSectorBlocksFromAmplitudes:
    """Sector blocks of rho read from blocks of the amplitude matrix."""

    @pytest.mark.parametrize(
        "h, d, seed, is_complex",
        [
            (1, 3, 0, False),
            (1, 3, 1, True),
            (2, 3, 2, False),
            (2, 3, 3, True),
            (3, 3, 4, False),
            (3, 3, 5, True),
            (3, 2, 6, True),
            (2, 4, 7, False),
        ],
    )
    def test_spectra_match_rho_rows(self, h, d, seed, is_complex):
        rng = np.random.default_rng(seed)
        shape = (d,) * (4 * h)
        v = rng.normal(size=shape)
        if is_complex:
            v = v + 1j * rng.normal(size=shape)
        amps = sum(joint_shift(v, s) for s in range(2 * h))
        m = (amps / np.linalg.norm(amps)).reshape(d ** (2 * h), -1)
        for half in (m, m.T):
            blocks = _momentum_blocks(half, d, 2 * h)
            reference = rho_row_momentum_blocks(half, d, 2 * h)
            assert len(blocks) == len(reference) == (2 * h if is_complex else h + 1)
            for (block, count), (ref, ref_count) in zip(blocks, reference):
                assert count == ref_count
                assert (block.shape, block.dtype) == (ref.shape, ref.dtype)
                assert np.linalg.eigvalsh(block) == pytest.approx(
                    np.linalg.eigvalsh(ref), abs=1e-12
                )

    def test_shift_orbits_are_shared_and_read_only(self):
        reps, images, periods = _shift_orbits(3, 4)
        assert _shift_orbits(3, 4)[0] is reps
        assert len(reps) == images.shape[1] == len(periods) == orbit_count(3, 4)
        for table in (reps, images, periods):
            with pytest.raises(ValueError):
                table[0] = 0

    @pytest.mark.parametrize("h, V", [(1, V3), (2, V3), (2, PHASED), (2, singlet_tensor())])
    def test_amplitudes_that_are_not_c_contiguous(self, h, V):
        """A Fortran-ordered copy, and the view with every axis reversed:
        that swaps A with B and turns the shift backwards, so it is still
        invariant under the joint shift."""
        amps = btz_state(h, V).amplitudes
        for layout in (np.asfortranarray(amps), amps.transpose()):
            assert not layout.flags.c_contiguous
            state = BTZState(h, layout, V)
            for side in halves(state):
                assert entanglement_entropy(state, side) == pytest.approx(
                    reference_entropy(state, side), abs=1e-12
                )

    @pytest.mark.parametrize(
        "h, V",
        [(h, V) for V in (V3, PHASED) for h in (1, 2, 3)]
        + [(1, singlet_tensor()), (2, singlet_tensor())],
    )
    def test_amplitudes_match_copy_then_divide(self, h, V):
        """btz_state multiplies column tensors into two half-rings and
        divides their product by its norm in one pass.  The norm sums in
        the product's memory order, not in C order, and at h = 3 the
        columns associate differently from the contraction's greedy order:
        for the phased tensor some amplitudes of about 1e-16 come from
        cancellations, and differ by tens of ulp there, about 1e-17."""
        amps, reference = btz_state(h, V).amplitudes, ring_copy_then_divide(h, V)
        assert amps.flags.c_contiguous
        if V is PHASED and h > 2:
            assert np.max(np.abs(amps - reference)) <= 1e-16
        elif V is PHASED and h > 1:
            for part in ("real", "imag"):
                np.testing.assert_array_max_ulp(
                    getattr(amps, part), getattr(reference, part), maxulp=2
                )
        else:
            assert np.array_equal(amps, reference)


def random_three_leg(d: int, seed: int) -> DenseTensor:
    rng = np.random.default_rng(seed)
    return DenseTensor(rng.normal(size=(d,) * 3) + 1j * rng.normal(size=(d,) * 3))


class TestRingAsColumnProducts:
    """btz_state multiplies column tensors instead of contracting the ring."""

    @pytest.mark.parametrize("d, h", [(2, h) for h in (1, 2, 3, 4)] + [(3, h) for h in (1, 2, 3)])
    def test_random_complex_tensors_match_the_ring_network(self, d, h):
        """Any 3-leg V, perfect or not: the column product needs no isometry."""
        V = random_three_leg(d, 10 * d + h)
        amps, reference = btz_state(h, V).amplitudes, ring_copy_then_divide(h, V)
        assert amps.flags.c_contiguous and not amps.flags.writeable
        assert np.max(np.abs(amps - reference)) <= 1e-15

    def test_peak_memory_is_two_full_arrays(self):
        """The product over the cut bonds and its normalised C-ordered copy:
        2 * 3^12 complex entries are 17.0 MB."""
        btz_state(1, V3)
        tracemalloc.start()
        try:
            state = btz_state(3, V3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.amplitudes.nbytes == 3**12 * 16
        assert peak <= 18e6

    def test_zero_ring_checked_after_the_cap(self, monkeypatch):
        zero = DenseTensor(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match="^BTZ network contracted to zero$"):
            btz_state(2, zero)
        monkeypatch.setenv("THOMPSON_HOLO_MAX_AMPLITUDES", str(2**8 - 1))
        with pytest.raises(ResourceLimit, match="2\\^8 amplitudes exceed the cap of 255"):
            btz_state(2, zero)

    @pytest.mark.parametrize("d, h", [(2, 1), (2, 3), (3, 1), (3, 2)])
    def test_hand_built_complex_states(self, d, h, eigvalsh_args):
        """A random complex ring, and a real ring times i (every real part
        zero) and times exp(0.3 i), each built by hand: every half is read
        from one complex block per momentum."""
        V = random_three_leg(d, 10 * d + h)
        real_ring = btz_state(h, DenseTensor(V.array.real)).amplitudes
        assert not np.any(real_ring.imag)
        for amps in (ring_copy_then_divide(h, V), 1j * real_ring, np.exp(0.3j) * real_ring):
            state = BTZState(h, amps, V)
            for side in halves(state):
                eigvalsh_args.clear()
                entropy = entanglement_entropy(state, side)
                assert [dtype for _, dtype in eigvalsh_args] == [np.complex128] * (2 * h)
                assert entropy == pytest.approx(reference_entropy(state, side), abs=1e-12)


class TestStateStorage:
    """Every state holds a read-only complex ndarray, however it was made."""

    def test_amplitudes_cannot_be_written(self):
        """Such a write once broke a BTZ state's joint-shift invariance:
        after amplitudes[0, 1, 0, 0] += 0.5 at h = 1 the sector route read
        S(A) = 1.399 and the general route 1.645."""
        omega = vacuum(BASE_PARTITION, V3)
        states = [
            btz_state(1, V3),
            BTZState(1, btz_state(1, V3).amplitudes.copy(), V3),
            omega,
            act(parse_word("B"), omega),
            CutoffState(BASE_PARTITION, np.ones((3, 3)), V3),
        ]
        for state in states:
            assert state.amplitudes.dtype == complex
            with pytest.raises(ValueError):
                state.amplitudes[(0, 1) + (0,) * (state.amplitudes.ndim - 2)] += 0.5

    def test_built_state_owns_its_amplitudes(self):
        """A view handed to the constructor is frozen, but its base was once
        left writable: after a[0, 1, 0, 0] += 0.5 on the base, S(A) of the
        state read 1.3994 instead of 1.7918."""
        a = btz_state(1, V3).amplitudes.copy()
        state = BTZState(1, a[...], V3)
        before = entanglement_entropy(state, range(state.num_a))
        a[0, 1, 0, 0] += 0.5
        assert entanglement_entropy(state, range(state.num_a)) == before
        assert before == pytest.approx(math.log(6), abs=1e-12)
        assert state == btz_state(1, V3)

    def test_built_cutoff_state_owns_its_amplitudes(self):
        """A view of a writable base, or a flat array to reshape, was once
        frozen while its base stayed writable: base[0, 0] += 0.5 moved the
        norm to 1.352.  `act` still keeps a transposed view, not a copy."""
        for view in (lambda base: base[...], np.ravel):
            base = np.eye(3, dtype=complex) / math.sqrt(3)
            state = CutoffState(BASE_PARTITION, view(base), V3)
            base[0, 0] += 0.5
            assert state.norm() == pytest.approx(1.0, abs=1e-12)
        moved = act(parse_word("C"), vacuum(BASE_PARTITION, V3))
        assert not moved.amplitudes.flags.c_contiguous

    def test_a_view_made_before_freezing_cannot_reach_the_state(self):
        """A state once kept an array whose bases were all read-only, but a
        view made before the freeze stayed writable: w[0, 0] += 0.5 moved a
        CutoffState's norm to 1.3518.  Both public constructors copy."""
        a = np.eye(3, dtype=complex) / math.sqrt(3)
        w = a[...]
        a.setflags(write=False)
        state = CutoffState(BASE_PARTITION, a, V3)
        w[0, 0] += 0.5
        assert state.norm() == pytest.approx(1.0, abs=1e-12)
        b = btz_state(1, V3).amplitudes.copy()
        w = b[...]
        b.setflags(write=False)
        state = BTZState(1, b, V3)
        w[0, 1, 0, 0] += 0.5
        assert state == btz_state(1, V3)
        assert entanglement_entropy(state, range(state.num_a)) == pytest.approx(math.log(6), abs=1e-12)

    def test_nested_list_is_stored_as_a_complex_array(self):
        state = btz_state(1, V3)
        built = BTZState(1, state.amplitudes.real.tolist(), V3)
        assert isinstance(built.amplitudes, np.ndarray)
        assert built.amplitudes.dtype == complex and not built.amplitudes.flags.writeable
        assert built == state

    def test_one_value_rule(self):
        assert CutoffState.__eq__ is BTZState.__eq__


class TestStateEquality:
    def test_equal_states(self):
        assert vacuum(BASE_PARTITION, V3) == vacuum(BASE_PARTITION, V3)
        state = btz_state(1, V3)
        assert state == btz_state(1, V3)
        assert state == BTZState(1, state.amplitudes.copy(), V3)

    def test_states_that_differ(self):
        omega = vacuum(BASE_PARTITION, V3)
        assert omega != CutoffState(BASE_PARTITION, 2 * omega.amplitudes, V3)
        assert omega != CutoffState(BASE_PARTITION, omega.amplitudes, PHASED)
        state = btz_state(1, V3)
        assert state != BTZState(1, -state.amplitudes, V3)
        assert state != BTZState(1, state.amplitudes, PHASED)
        assert state != btz_state(2, V3)

    def test_comparison_with_a_non_state(self):
        omega, state = vacuum(BASE_PARTITION, V3), btz_state(1, V3)
        for other in (None, 1, "state"):
            assert omega != other and state != other
        assert omega != state
        for s in (omega, state):
            with pytest.raises(TypeError):
                hash(s)
