"""Perfect tensors and the contraction engine."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from thompson_holo import semicontinuous
from thompson_holo.approximation import CircleMap, approximate
from thompson_holo.errors import DimensionMismatch, NotPerfect, ResourceLimit
from thompson_holo.tensor import (
    DenseTensor,
    _check_cap,
    TensorNetwork,
    amplitude_cap,
    builtin_tensor,
    contract,
    four_colour_tensor,
    normalize_isometry,
    qutrit_code_tensor,
    singlet_tensor,
    verify_perfect,
)
from thompson_holo.thompson import parse_word, random_element


class TestFourColour:
    def test_entries(self):
        t = four_colour_tensor()
        assert t.leg_dims == (3, 3, 3)
        nonzero = {
            idx
            for idx in itertools.product(range(3), repeat=3)
            if t.array[idx] != 0
        }
        assert nonzero == set(itertools.permutations(range(3)))
        assert all(t.array[idx] == 1 for idx in nonzero)

    def test_perfect_with_constant_two(self):
        cert = verify_perfect(four_colour_tensor())
        for leg in range(3):
            assert cert.constant([leg]) == pytest.approx(2.0, abs=1e-12)
        assert cert.rotation_invariant

    def test_fully_symmetric(self):
        arr = four_colour_tensor().array
        for perm in itertools.permutations(range(3)):
            assert np.array_equal(arr.transpose(perm), arr)


class TestQutritCode:
    def test_entries(self):
        t = qutrit_code_tensor()
        assert t.leg_dims == (3, 3, 3, 3)
        assert np.count_nonzero(t.array) == 9
        for x, y in itertools.product(range(3), repeat=2):
            assert t.array[x, y, (2 * x + y) % 3, (x + y) % 3] == 1

    def test_two_to_two_unitary(self):
        t = qutrit_code_tensor()
        m = t.flatten_map([0, 1])
        assert np.allclose(m.conj().T @ m, np.eye(9), atol=1e-12)

    def test_all_splits_pass(self):
        cert = verify_perfect(qutrit_code_tensor())
        for size in (1, 2):
            for combo in itertools.combinations(range(4), size):
                assert cert.constant(combo) > 0


class TestSinglet:
    def test_perfect(self):
        cert = verify_perfect(singlet_tensor())
        for leg in range(3):
            assert cert.constant([leg]) == pytest.approx(0.25, abs=1e-12)

    def test_entry_magnitudes(self):
        arr = singlet_tensor().array
        mags = {round(abs(v), 12) for v in arr.reshape(-1) if v != 0}
        assert mags == {round(1 / (2 * np.sqrt(2)), 12)}


class TestVerifyPerfect:
    def test_random_tensor_fails(self):
        rng = np.random.default_rng(7)
        bad = DenseTensor(rng.normal(size=(3, 3, 3)))
        with pytest.raises(NotPerfect) as exc:
            verify_perfect(bad)
        assert exc.value.bipartition is not None

    def test_all_ones_fails(self):
        with pytest.raises(NotPerfect):
            verify_perfect(DenseTensor(np.ones((2, 2, 2))))

    def test_overflowing_norm_fails(self):
        """A rank-1 tensor whose squared norm overflows is refused, not
        certified with infinite constants and a NaN deviation."""
        arr = np.zeros((2, 2))
        arr[0, 0] = arr[0, 1] = 1e200
        with pytest.raises(NotPerfect, match=r"^the squared norm inf is not finite$"):
            verify_perfect(DenseTensor(arr))

    def test_mixed_dims_fail(self):
        with pytest.raises(NotPerfect):
            verify_perfect(DenseTensor(np.ones((2, 3))))

    def test_normalize_isometry(self):
        iso = normalize_isometry(four_colour_tensor(), [0])
        m = iso.flatten_map([0])
        assert np.allclose(m.conj().T @ m, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("split", [[1, 2], [3]])
    def test_normalize_isometry_rejects_a_split_with_no_isometry(self, split):
        # two of three legs in is no isometry, and leg 3 does not exist
        with pytest.raises(DimensionMismatch, match=re.escape(f"{split} of a 3-leg tensor")):
            normalize_isometry(four_colour_tensor(), split)


class TestBuiltins:
    def test_lookup(self):
        assert builtin_tensor("four-colour") == four_colour_tensor()
        with pytest.raises(ValueError):
            builtin_tensor("no-such-tensor")

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_entries_rejected(self, entry):
        arr = np.ones((2, 2), dtype=complex)
        arr[1, 0] = entry
        with pytest.raises(ValueError, match="^tensor entries must be finite$"):
            DenseTensor(arr)

    def test_text_round_trip(self):
        for t in (four_colour_tensor(), singlet_tensor(), qutrit_code_tensor()):
            assert DenseTensor.from_text(t.to_text()) == t

    def test_equality_with_another_type(self):
        t = four_colour_tensor()
        assert t.__eq__(t.array) is NotImplemented
        assert t != t.to_text()

    def test_a_tensor_equals_itself_without_reading_its_entries(self, monkeypatch):
        """Entries are finite, so `is` implies equal; an equal copy is still
        compared entry by entry."""
        t, compared = singlet_tensor(), []
        array_equal = np.array_equal
        monkeypatch.setattr(np, "array_equal", lambda a, b: compared.append(1) or array_equal(a, b))
        assert t == t and not t != t
        assert compared == []
        assert t == DenseTensor(t.array.copy()) and compared == [1]

    @pytest.mark.parametrize(
        "body, line, reason",
        [
            ("0 1 2\n", 2, "got 3 fields"),
            ("0 1 2  1.0 0.0 7\n", 2, "got 6 fields"),
            ("0 1 5  1.0 0.0\n", 2, "outside the dims"),
            ("\n0 -1 2  1.0 0.0\n", 3, "outside the dims"),
            ("0 1 2  1.0 0.0\n0 x 2  1.0 0.0\n", 3, "invalid literal"),
            ("0 1 2  one 0.0\n", 2, "could not convert"),
            ("0 1 2  nan 0.0\n", 2, r"entry nan 0.0 at \(0, 1, 2\) is not finite$"),
            ("0 1 2  1.0 0.0\n1 0 2  1.0 -inf\n", 3, r"entry 1.0 -inf at \(1, 0, 2\) is not finite$"),
        ],
    )
    def test_bad_text_line_names_its_number(self, body, line, reason):
        with pytest.raises(ValueError, match=f"^tensor text line {line}: .*{reason}"):
            DenseTensor.from_text("dims: 3 3 3\n" + body)

    @pytest.mark.parametrize(
        "dims, reason",
        [
            ("3 -3 3", "dimension -3 is negative"),
            ("-4096 -4096 3", "dimension -4096 is negative"),
            ("3 x 3", "invalid literal for int() with base 10: 'x'"),
        ],
    )
    def test_bad_dims_line_names_its_number(self, dims, reason):
        with pytest.raises(ValueError, match=f"^tensor text line 1: {re.escape(reason)}$"):
            DenseTensor.from_text(f"dims: {dims}\n0 1 2  1.0 0.0\n")

    def test_dims_checked_against_the_cap(self, monkeypatch):
        monkeypatch.setenv("THOMPSON_HOLO_MAX_AMPLITUDES", "64")
        assert DenseTensor.from_text("dims: 4 4 4\n").array.shape == (4, 4, 4)
        with pytest.raises(
            ResourceLimit, match=r"^tensor dims \(4, 4, 5\): 80 entries exceed the cap of 64$"
        ):
            DenseTensor.from_text("dims: 4 4 5\n0 1 2  1.0 0.0\n")

    def test_cap_override_must_be_a_positive_integer(self, monkeypatch):
        monkeypatch.setenv("THOMPSON_HOLO_MAX_AMPLITUDES", "64")
        assert amplitude_cap() == 64
        for raw in ["abc", "-5", "0", "1.5"]:
            monkeypatch.setenv("THOMPSON_HOLO_MAX_AMPLITUDES", raw)
            with pytest.raises(
                ValueError, match=f"^THOMPSON_HOLO_MAX_AMPLITUDES='{raw}' is not a positive integer$"
            ):
                amplitude_cap()

    def test_cap_check_makes_no_power_over_the_cap(self, monkeypatch):
        """2^(10^8) is a 12.5 MB integer: the check refuses it without making
        it, and agrees with the power wherever the power is small."""
        monkeypatch.delenv("THOMPSON_HOLO_MAX_AMPLITUDES", raising=False)
        tracemalloc.start()
        try:
            with pytest.raises(
                ResourceLimit, match=r"^2\^100000000 amplitudes exceed the cap of 16777216$"
            ):
                _check_cap(10**8, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        for cap, base, exponent in itertools.product([1, 7, 8, 9, 2**24], [0, 1, 2, 3], range(30)):
            monkeypatch.setenv("THOMPSON_HOLO_MAX_AMPLITUDES", str(cap))
            try:
                _check_cap(exponent, base)
            except ResourceLimit:
                assert base**exponent > cap
            else:
                assert base**exponent <= cap

class TestContraction:
    def test_pair_matches_einsum(self):
        t = four_colour_tensor()
        net = TensorNetwork(
            [t, t], [((0, 0), (1, 0))], [(0, 1), (0, 2), (1, 1), (1, 2)]
        )
        expected = np.einsum("abc,ade->bcde", t.array, t.array)
        assert np.allclose(contract(net).array, expected)

    def test_self_bond_trace(self):
        t = four_colour_tensor()
        net = TensorNetwork([t], [((0, 1), (0, 2))], [(0, 0)])
        assert np.allclose(contract(net).array, np.einsum("abb->a", t.array))

    def test_open_leg_order(self):
        t = qutrit_code_tensor()
        net = TensorNetwork([t], [], [(0, 3), (0, 1), (0, 0), (0, 2)])
        assert np.allclose(contract(net).array, t.array.transpose(3, 1, 0, 2))

    def test_disconnected_components(self):
        t = four_colour_tensor()
        net = TensorNetwork(
            [t, t], [], [(i, j) for i in range(2) for j in range(3)]
        )
        assert np.allclose(
            contract(net).array, np.multiply.outer(t.array, t.array)
        )

    def test_intermediates_checked_against_the_cap(self, monkeypatch):
        """Each tensordot and each outer product of disconnected parts is
        checked before it is made; a result at the cap is allowed."""
        t = four_colour_tensor()
        pair = TensorNetwork([t, t], [((0, 0), (1, 0))], [(0, 1), (0, 2), (1, 1), (1, 2)])
        leg = DenseTensor(np.arange(1.0, 5.0))
        legs = TensorNetwork([leg] * 13, [], [(k, 0) for k in range(13)])
        monkeypatch.setenv("THOMPSON_HOLO_MAX_AMPLITUDES", "81")
        assert contract(pair).leg_dims == (3, 3, 3, 3)
        monkeypatch.setenv("THOMPSON_HOLO_MAX_AMPLITUDES", "80")
        with pytest.raises(
            ResourceLimit, match="^a contraction intermediate of 81 entries exceeds the cap of 80$"
        ):
            contract(pair)
        monkeypatch.setenv("THOMPSON_HOLO_MAX_AMPLITUDES", str(4**5))
        with pytest.raises(
            ResourceLimit, match="^a contraction intermediate of 65536 entries exceeds the cap of 1024$"
        ):
            contract(legs)

    def test_over_cap_network_fails_before_any_product(self, monkeypatch):
        """The singlet diagram route on the level-8 approximant of rotation by
        1/3 needs a 4^13 intermediate; the plan refuses it before the first
        matrix product."""
        g = approximate(CircleMap(lambda x: (x + 1 / 3) % 1.0), 8).element
        V = normalize_isometry(singlet_tensor(), [0])
        calls = []

        def counted(name):
            real = getattr(np, name)

            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return call

        monkeypatch.delenv("THOMPSON_HOLO_MAX_AMPLITUDES", raising=False)
        monkeypatch.setattr(np, "dot", counted("dot"))
        monkeypatch.setattr(np, "tensordot", counted("tensordot"))
        with pytest.raises(ResourceLimit) as err:
            semicontinuous.vacuum_matrix_element(g, V, "diagram")
        assert str(err.value) == (
            "a contraction intermediate of 67108864 entries exceeds the cap of 16777216"
        )
        assert calls == []

    def test_empty_network_is_the_empty_product(self):
        out = contract(TensorNetwork([], [], []))
        assert out.leg_dims == ()
        assert out.array == 1.0

    def test_zero_dimension_bond(self):
        """A bond of dimension 0 sums over nothing: the result is zero, of the
        open legs' shape."""
        a, b = DenseTensor(np.zeros((3, 0))), DenseTensor(np.zeros((0, 3)))
        out = contract(TensorNetwork([a, b], [((0, 1), (1, 0))], [(0, 0), (1, 1)]))
        assert out.leg_dims == (3, 3)
        assert not out.array.any()

    def test_dimension_mismatch(self):
        net = TensorNetwork(
            [four_colour_tensor(), singlet_tensor()], [((0, 0), (1, 0))], []
        )
        with pytest.raises(DimensionMismatch):
            net.validate()

    def test_unaccounted_leg_rejected(self):
        net = TensorNetwork([four_colour_tensor()], [], [(0, 0), (0, 1)])
        with pytest.raises(ValueError):
            net.validate()
        t = four_colour_tensor()
        for bonds, open_legs, message in [
            ([((0, 0), (2, 0))], [], "bond 0 references missing node 2"),
            ([((0, 0), (1, 3))], [], "bond 0 references missing leg 3 of node 1"),
            ([((0, 0), (1, 0)), ((1, 0), (0, 1))], [], "leg (1,0) used more than once"),
            ([((0, 0), (1, 0))], [(0, 1), (1, 0)], "open leg (1,0) is also bonded"),
            ([((0, 0), (1, 0))], [(0, 1), (1, 1)], "leg (0,2) is neither bonded nor open"),
        ]:
            with pytest.raises(ValueError) as err:
                TensorNetwork([t, t], bonds, open_legs).validate()
            assert str(err.value) == message

    def test_validate_returns_leg_labels(self):
        """Both ends of bond b are labelled b, open leg j len(bonds) + j."""
        t = four_colour_tensor()
        net = TensorNetwork([t, t], [((0, 2), (1, 0)), ((0, 0), (1, 2))], [(1, 1), (0, 1)])
        assert net.validate() == [[1, 3, 0], [0, 2, 1]]

    @pytest.mark.parametrize("leg", [(1, 0), (0, -1), (0, 3)])
    def test_missing_open_leg_rejected(self, leg):
        """An open leg that names no leg of the network is refused, not
        dropped from the result or read as another leg."""
        net = TensorNetwork([four_colour_tensor()], [], [(0, 0), (0, 1), (0, 2), leg])
        with pytest.raises(ValueError) as err:
            net.validate()
        assert str(err.value) == f"open leg 3 references missing leg ({leg[0]},{leg[1]})"

    @pytest.mark.parametrize(
        "names, bonds, open_legs, error, message",
        [  # t has legs (3, 3, 3), s (4, 4, 4)
            ("tt", [((0, 0), (2, 0))], [], ValueError, "bond 0 references missing node 2"),
            ("tt", [((-1, 0), (0, 0))], [], ValueError, "bond 0 references missing node -1"),
            ("tt", [((0, 0), (1, 3))], [], ValueError, "bond 0 references missing leg 3 of node 1"),
            ("tt", [((0, -1), (1, 0))], [], ValueError, "bond 0 references missing leg -1 of node 0"),
            ("tt", [((0, 0), (1, 0)), ((1, 0), (0, 1))], [], ValueError, "leg (1,0) used more than once"),
            ("t", [((0, 0), (0, 0))], [], ValueError, "leg (0,0) used more than once"),
            ("ts", [((0, 0), (1, 0))], [], DimensionMismatch, "bond 0 joins legs of dimension 3 and 4"),
            # the mismatch is found before the later bond's missing node
            (
                "ts",
                [((0, 0), (1, 0)), ((0, 1), (2, 0))],
                [],
                DimensionMismatch,
                "bond 0 joins legs of dimension 3 and 4",
            ),
            ("tt", [], [(0, 0), (2, 1)], ValueError, "open leg 1 references missing leg (2,1)"),
            ("tt", [((0, 0), (1, 0))], [(0, 1), (1, 0)], ValueError, "open leg (1,0) is also bonded"),
            ("t", [], [(0, 0), (0, 0)], ValueError, "open leg (0,0) is also bonded"),
            (
                "tt",
                [((0, 0), (1, 0))],
                [(0, 1), (1, 1)],
                ValueError,
                "leg (0,2) is neither bonded nor open",
            ),
            ("ts", [], [(1, 1)], ValueError, "leg (0,0) is neither bonded nor open"),
        ],
    )
    def test_validate_messages(self, names, bonds, open_legs, error, message):
        """Every wiring error `validate` raises, by type and exact message."""
        tensors = [{"t": four_colour_tensor, "s": singlet_tensor}[c]() for c in names]
        with pytest.raises(error) as err:
            TensorNetwork(tensors, bonds, open_legs).validate()
        assert type(err.value) is error and str(err.value) == message

    def test_ring_matches_trace_formula(self):
        """A cycle of 3-leg tensors contracts to a product of transfer
        matrices; check against the explicit trace."""
        t = four_colour_tensor()
        n = 4
        net = TensorNetwork(
            [t] * n,
            [((i, 2), ((i + 1) % n, 0)) for i in range(n)],
            [(i, 1) for i in range(n)],
        )
        got = contract(net).array
        for idx in itertools.product(range(3), repeat=n):
            m = np.eye(3)
            for x in idx:
                m = m @ t.array[:, x, :]
            assert got[idx] == pytest.approx(np.trace(m), abs=1e-12)


# ---------------------------------------------------------------------------
# the greedy contraction against the all-pairs scan it replaced
#
# `scan_contract` is the earlier `contract`, verbatim: every step rescans
# every pair of the pool for the smallest result, taking the first minimum in
# pool order, and traces duplicated labels after every merge.  The heap-driven
# `contract` must make the same choices in the same order, so the two agree
# to the byte.


def scan_contract(net: TensorNetwork) -> DenseTensor:
    """Contract the whole network into a dense tensor over its open legs.

    Disconnected components are contracted independently and combined by
    outer product; the result is deterministic for a given network.
    """
    net.validate()
    # label every leg with a bond id or an open id
    labels: dict[tuple[int, int], int] = {}
    for b, (end1, end2) in enumerate(net.bonds):
        labels[end1] = b
        labels[end2] = b
    open_ids = {}
    for j, end in enumerate(net.open_legs):
        labels[end] = len(net.bonds) + j
        open_ids[len(net.bonds) + j] = j

    pool: list[tuple[np.ndarray, list[int]]] = []
    for node, t in enumerate(net.tensors):
        pool.append((t.array, [labels[(node, leg)] for leg in range(t.num_legs)]))

    def contract_pair(a, b):
        arr_a, lab_a = a
        arr_b, lab_b = b
        shared = [l for l in lab_a if l in lab_b]
        ax_a = [lab_a.index(l) for l in shared]
        ax_b = [lab_b.index(l) for l in shared]
        out = np.tensordot(arr_a, arr_b, axes=(ax_a, ax_b))
        lab = [l for l in lab_a if l not in shared] + [l for l in lab_b if l not in shared]
        # self-bonds may remain duplicated after the pairwise step
        return trace_dups((out, lab))

    def trace_dups(item):
        arr, lab = item
        while True:
            dup = None
            for i, l in enumerate(lab):
                if l in lab[i + 1 :]:
                    dup = (i, i + 1 + lab[i + 1 :].index(l))
                    break
            if dup is None:
                return arr, lab
            i, j = dup
            arr = np.trace(arr, axis1=i, axis2=j)
            lab = [l for k, l in enumerate(lab) if k not in (i, j)]

    pool = [trace_dups(item) for item in pool]
    while len(pool) > 1:
        best = None
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                shared = set(pool[i][1]) & set(pool[j][1])
                if not shared:
                    continue
                size = math.prod(
                    d
                    for arr, lab in (pool[i], pool[j])
                    for d, l in zip(arr.shape, lab)
                    if l not in shared
                )
                if best is None or size < best[0]:
                    best = (size, i, j)
        if best is None:
            # disconnected: outer-product the first two components
            i, j = 0, 1
        else:
            _, i, j = best
        merged = contract_pair(pool[i], pool[j]) if best is not None else (
            np.multiply.outer(pool[i][0], pool[j][0]),
            pool[i][1] + pool[j][1],
        )
        pool = [p for k, p in enumerate(pool) if k not in (i, j)] + [merged]

    arr, lab = pool[0]
    order = sorted(range(len(lab)), key=lambda k: open_ids[lab[k]])
    return DenseTensor(arr.transpose(order))


def recorded_networks(run):
    """The networks `run()` hands to the contraction in semicontinuous."""
    nets = []

    def recording(net):
        nets.append(net)
        return contract(net)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semicontinuous, "contract", recording)
        run()
    return nets


def diagram_networks(elements, tensors=(four_colour_tensor, singlet_tensor)):
    """The diagram-route networks of `elements` with each tensor, normalised
    as the CLI does."""
    tensors = [normalize_isometry(V(), [0]) for V in tensors]
    return recorded_networks(
        lambda: [
            semicontinuous.vacuum_matrix_element(f, V, "diagram")
            for V in tensors
            for f in elements
        ]
    )


def btz_ring(h: int, V: DenseTensor) -> TensorNetwork:
    """The BTZ ring of 4h triangles, each triangle's legs (bond to the
    previous one, boundary, bond to the next one), with the boundary legs of
    the even triangles (A) open first, then those of the odd ones (B)."""
    ntri = 4 * h
    bonds = [((i, 2), ((i + 1) % ntri, 0)) for i in range(ntri)]
    legs = [(i, 1) for i in range(0, ntri, 2)] + [(i, 1) for i in range(1, ntri, 2)]
    return TensorNetwork([V] * ntri, bonds, legs)


def random_network(seed: int, components: int = 4) -> TensorNetwork:
    """Random complex tensors in `components` groups bonded only within a
    group, with self-bonds, parallel bonds and open legs at random, and the
    nodes and open legs in scrambled order."""
    rng = np.random.default_rng(seed)
    shapes: list[list[int]] = []
    bonds, open_legs = [], []
    for _ in range(components):
        first = len(shapes)
        shapes += [[0] * int(rng.integers(1, 5)) for _ in range(rng.integers(1, 5))]
        ends = [(n, leg) for n in range(first, len(shapes)) for leg in range(len(shapes[n]))]
        ends = [ends[k] for k in rng.permutation(len(ends))]
        n_open = int(rng.integers(0, 3))
        n_open = min(len(ends), n_open + (len(ends) - n_open) % 2)
        for n, leg in ends[:n_open]:
            shapes[n][leg] = int(rng.integers(2, 4))
            open_legs.append((n, leg))
        for a, b in zip(ends[n_open::2], ends[n_open + 1 :: 2]):
            shapes[a[0]][a[1]] = shapes[b[0]][b[1]] = int(rng.integers(2, 4))
            bonds.append((a, b))
    place = list(rng.permutation(len(shapes)))
    tensors = [None] * len(shapes)
    for n, shape in enumerate(shapes):
        tensors[place[n]] = DenseTensor(rng.normal(size=shape) + 1j * rng.normal(size=shape))

    def moved(end):
        return int(place[end[0]]), end[1]

    open_legs = [moved(open_legs[k]) for k in rng.permutation(len(open_legs))]
    return TensorNetwork(tensors, [(moved(a), moved(b)) for a, b in bonds], open_legs)


def assert_same_bytes(nets):
    assert nets
    for net in nets:
        got, want = contract(net).array, scan_contract(net).array
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# 104 seeded words of 20-500 letters, reducing to 5-122 leaves
RANDOM_ELEMENT_SIZES = [(seed, (20, 30, 45, 60, 90, 130)[seed % 6]) for seed in range(1, 103)]
RANDOM_ELEMENT_SIZES += [(0, 300), (20, 500)]


class TestGreedyOrder:
    """`contract` reproduces `scan_contract` byte for byte."""

    def test_words_up_to_length_three(self):
        words = ["".join(w) for n in range(4) for w in itertools.product("ABCabc", repeat=n)]
        assert len(words) == 259
        assert_same_bytes(diagram_networks([parse_word(w) for w in words]))

    def test_random_elements(self):
        elements = [random_element(length, seed) for seed, length in RANDOM_ELEMENT_SIZES]
        assert len(elements) >= 100
        assert all(5 <= f.num_leaves <= 160 for f in elements)
        # every leg has one dimension, so the singlet tensor makes the same
        # choices as the four-colour one; the words above run both
        assert_same_bytes(diagram_networks(elements, [four_colour_tensor]))

    def test_btz_rings(self):
        # the singlet ring at h = 3 holds 4^12 amplitudes (268 MB); h <= 2
        # covers its tensor at a small fraction of that
        nets = [
            btz_ring(h, V())
            for V, halfwidths in ((four_colour_tensor, (1, 2, 3)), (singlet_tensor, (1, 2)))
            for h in halfwidths
        ]
        assert_same_bytes(nets)

    def test_random_complex_networks(self):
        nets = [random_network(seed) for seed in range(200)]
        node_pairs = [[tuple(sorted((a[0], b[0]))) for a, b in net.bonds] for net in nets]
        assert any(n == m for pairs in node_pairs for n, m in pairs)  # self-bonds
        assert any(len(set(pairs)) < len(pairs) for pairs in node_pairs)  # parallel bonds
        assert_same_bytes(nets)
