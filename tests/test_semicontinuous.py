"""Cutoff states, fine grainers, the unitary action and BTZ entropies."""

import itertools
import math
import random
import re

import numpy as np
import pytest

from thompson_holo.dyadic import (
    ONE,
    DyadicPartition,
    common_refinement,
    refines,
    tree_to_partition,
    TTree,
)
from thompson_holo.errors import NotPerfect, ResourceLimit, TheoryMismatch
from thompson_holo.semicontinuous import (
    BASE_PARTITION,
    BulkKet,
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
    _normalized_splitter,
)
from thompson_holo.tensor import DenseTensor, four_colour_tensor, singlet_tensor
from thompson_holo.thompson import (
    compose,
    evaluate,
    identity,
    inverse,
    parse_word,
    random_element,
)


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

    def test_positive_semidefinite_words_up_to_three(self):
        """The 38 distinct reduced elements of words over {A,B,C} of length <= 3."""
        seen = {}
        for length in range(4):
            for letters in itertools.product("ABC", repeat=length):
                f = parse_word("".join(letters))
                seen.setdefault(str(f), f)
        words = list(seen.values())
        assert len(words) == 38
        G = gram_matrix(words, V3)
        assert np.abs(G - G.conj().T).max() <= 1e-12
        assert np.linalg.eigvalsh(G).min() >= -1e-10

    def test_inverse_symmetry(self):
        f = parse_word("Bc")
        lhs = vacuum_matrix_element(f, V3)
        rhs = vacuum_matrix_element(inverse(f), V3)
        assert lhs == pytest.approx(np.conj(rhs), abs=1e-12)


class TestBulkKets:
    def test_vacuum_ket(self):
        k = BulkKet(TTree.parse("."), TTree.parse("."))
        assert bulk_inner(k, k, V3) == pytest.approx(1.0, abs=1e-12)

    def test_two_caret_gram_psd(self):
        trees = [TTree.parse(t) for t in [".", "(..)", "((..).)", "(.(..))"]]
        kets = [BulkKet(t, t) for t in trees]
        n = len(kets)
        G = np.array(
            [[bulk_inner(kets[i], kets[j], V3) for j in range(n)] for i in range(n)]
        )
        assert np.allclose(G, G.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(G).min() >= -1e-10

    def test_ket_with_marker(self):
        k = BulkKet(TTree.parse("(..)"), TTree.parse("(..)"), marker=1)
        val = bulk_inner(BulkKet(TTree.parse("."), TTree.parse(".")), k, V3)
        # this is <Omega|pi(rotation by half)|Omega>
        direct = vacuum_matrix_element(k.element(), V3)
        assert val == pytest.approx(direct, abs=1e-12)


class TestStateText:
    def test_round_trip(self):
        s = vacuum(part("0, 1/2^1, 3/2^2, 1"), V3)
        s2 = CutoffState.from_text(s.to_text("four-colour"), V3)
        assert s2.cutoff == s.cutoff
        assert np.allclose(s2.amplitudes, s.amplitudes)

    def test_dimension_check(self):
        s = vacuum(BASE_PARTITION, V3)
        with pytest.raises(TheoryMismatch):
            CutoffState.from_text(s.to_text(), singlet_tensor())

    @pytest.mark.parametrize(
        "text, message",
        [
            ("\n  \n", "state text must start with a 'cutoff: ...; d: ...' header"),
            ("d: 3; tensor: four-colour\n", "state header has no 'cutoff' field"),
            ("cutoff: 0, 1/2^1, 1\n0 1.0 0.0\n", "state header has no 'd' field"),
            ("cutoff: 0, 1/2^1, 1; d: x\n", "state header 'd' is not an integer: 'x'"),
            (
                "cutoff: 0, 1/2^1, 1; d: 3\n\n0 1.0\n",
                "state text line 3: expected an index, a real and an imaginary part, got 2 fields",
            ),
            ("cutoff: 0, 1/2^1, 1; d: 3\n0 1.0 0.0\n-1 1.0 0.0\n", "state text line 3: index -1 is outside 0..8"),
            ("cutoff: 0, 1/2^1, 1; d: 3\n9 1.0 0.0\n", "state text line 2: index 9 is outside 0..8"),
        ],
        ids=["empty", "no-cutoff", "no-d", "d-not-integer", "two-fields", "index-minus-one", "index-nine"],
    )
    def test_bad_text(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CutoffState.from_text(text, V3)

    def test_cutoff_checked_against_the_cap(self, monkeypatch):
        """40 intervals of d = 3 are 3^40 amplitudes, refused before allocation."""
        monkeypatch.delenv("THOMPSON_HOLO_MAX_AMPLITUDES", raising=False)
        points = ["0"] + [f"{2**k - 1}/2^{k}" for k in range(1, 40)] + ["1"]
        text = f"cutoff: {', '.join(points)}; d: 3\n0 1.0 0.0\n"
        with pytest.raises(ResourceLimit, match=r"^3\^40 amplitudes exceed the cap of 16777216$"):
            CutoffState.from_text(text, V3)


class TestBTZ:
    def test_entropies_match_and_bound(self):
        for h in (1, 2):
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

    def test_resource_limit(self, monkeypatch):
        monkeypatch.setenv("THOMPSON_HOLO_MAX_AMPLITUDES", "10")
        with pytest.raises(ResourceLimit):
            btz_state(1, V3)

    def test_subsystem_index_checked(self):
        state = btz_state(1, V3)
        with pytest.raises(IndexError):
            entanglement_entropy(state, [99])
