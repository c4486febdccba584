"""Acceptance gate: the ten top-level guarantees of the package.

Each test prints one PASS/FAIL line so the suite doubles as a checklist
when run with -s.  Criteria and tolerances are pinned; if one of these
moves, something fundamental changed.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from thompson_holo.dyadic import DyadicPartition, TTree, refines, tree_to_partition
from thompson_holo.errors import NotPerfect
from thompson_holo.semicontinuous import (
    BASE_PARTITION,
    CutoffState,
    act,
    btz_state,
    entanglement_entropy,
    fine_grainer,
    gram_matrix,
    inner_product,
    vacuum_matrix_element,
)
from thompson_holo.tensor import (
    DenseTensor,
    four_colour_tensor,
    qutrit_code_tensor,
    verify_perfect,
)
from thompson_holo.tessellation import (
    apply_element,
    apply_flips,
    flips_realizing,
    standard_tessellation,
)
from thompson_holo.thompson import (
    adjoin_caret,
    compose,
    identity,
    inverse,
    parse_word,
    random_element,
    reduce_diagram,
)
from thompson_holo.approximation import (
    approximate,
    identity_map,
    mobius_map,
    rotation_map,
)
from thompson_holo.dyadic import DyadicRational


V3 = four_colour_tensor()


def report(name: str, ok: bool, extra: str = ""):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] {name}"
    if extra:
        line += f"  ({extra})"
    print(line)
    assert ok, name


def short_words(max_len: int):
    """All distinct reduced elements given by words of length <= max_len."""
    seen = {}
    for length in range(max_len + 1):
        for letters in itertools.product("ABC", repeat=length):
            f = reduce_diagram(parse_word("".join(letters)))
            seen.setdefault((f.domain_tree, f.range_tree, f.marker), f)
    return list(seen.values())


def all_partitions(max_intervals: int):
    frontier = [TTree.parse(".")]
    out = {}
    while frontier:
        t = frontier.pop()
        if t.num_leaves > max_intervals:
            continue
        out.setdefault(str(t), t)
        for k in range(t.num_leaves):
            frontier.append(_split_leaf(t, k))
    return [tree_to_partition(t) for t in out.values()]


def _split_leaf(t: TTree, k: int) -> TTree:
    if t.is_leaf:
        return TTree.parse("(..)")
    nl = t.left.num_leaves
    if k < nl:
        return TTree(_split_leaf(t.left, k), t.right)
    return TTree(t.left, _split_leaf(t.right, k - nl))


def test_01_vacuum_matrix_elements():
    t0 = time.monotonic()
    expected = {"A": 1.0, "B": 0.5, "C": 1.0}
    worst = 0.0
    for word, val in expected.items():
        for route in ("action", "diagram"):
            got = vacuum_matrix_element(parse_word(word), V3, route)
            worst = max(worst, abs(got - val))
    dt = time.monotonic() - t0
    report(
        "1 vacuum matrix elements A=1 B=1/2 C=1 (both routes)",
        worst <= 1e-12 and dt < 1.0,
        f"worst dev {worst:.2e}, {dt:.2f}s",
    )


def test_02_route_equivalence_short_words():
    t0 = time.monotonic()
    words = short_words(2)
    worst = 0.0
    for f in words:
        a = vacuum_matrix_element(f, V3, "action")
        d = vacuum_matrix_element(f, V3, "diagram")
        worst = max(worst, abs(a - d))
    dt = time.monotonic() - t0
    report(
        "2 action/diagram routes agree on all reduced words of length <= 2",
        worst <= 1e-12 and dt < 10.0,
        f"{len(words)} elements, worst dev {worst:.2e}, {dt:.2f}s",
    )


def test_03_unitarity_trials():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    pyrng = random.Random(2024)
    gamma = DyadicPartition.parse("0, 1/2^2, 1/2^1, 3/2^2, 1")
    worst = 0.0
    for _ in range(200):
        f = random_element(pyrng.randint(2, 5), pyrng.randint(0, 10**6))
        v1 = rng.normal(size=81) + 1j * rng.normal(size=81)
        v2 = rng.normal(size=81) + 1j * rng.normal(size=81)
        s1 = CutoffState(gamma, v1 / np.linalg.norm(v1), V3)
        s2 = CutoffState(gamma, v2 / np.linalg.norm(v2), V3)
        before = inner_product(s1, s2)
        after = inner_product(act(f, s1), act(f, s2))
        worst = max(worst, abs(after - before))
    dt = time.monotonic() - t0
    report(
        "3 unitarity on 200 random element/state-pair trials",
        worst <= 1e-12 and dt < 30.0,
        f"worst dev {worst:.2e}, {dt:.2f}s",
    )


def test_04_group_algebra():
    t0 = time.monotonic()
    pyrng = random.Random(7)
    letters = "ABCabc"
    ok = True
    for _ in range(200):
        u, v, w = (
            "".join(pyrng.choice(letters) for _ in range(pyrng.randint(0, 6)))
            for _ in range(3)
        )
        f, g, h = parse_word(u), parse_word(v), parse_word(w)
        ok &= compose(compose(f, g), h) == compose(f, compose(g, h))
        ok &= compose(f, identity()) == reduce_diagram(f)
        ok &= reduce_diagram(compose(f, inverse(f))) == identity()
    for seed in range(100):
        f = random_element(4, seed)
        g = f
        for j in (0, 1, 0):
            g = adjoin_caret(g, j % g.num_leaves)
        ok &= reduce_diagram(g) == f
        ok &= reduce_diagram(reduce_diagram(g)) == reduce_diagram(g)
    dt = time.monotonic() - t0
    report(
        "4 group laws on 200 word triples; reduction on 100 diagrams",
        ok and dt < 10.0,
        f"{dt:.2f}s",
    )


def test_05_directed_system():
    t0 = time.monotonic()
    parts = all_partitions(5)
    pairs = [
        (p, q) for p in parts for q in parts if p != q and refines(p, q)
    ]
    ok = True
    worst = 0.0
    grainers = {}
    for p, q in pairs:
        fg = fine_grainer(p, q, V3)
        grainers[(str(p), str(q))] = fg
        m = fg.matrix
        worst = max(
            worst, float(np.abs(m.conj().T @ m - np.eye(m.shape[1])).max())
        )
    for p, q in pairs:
        for r in parts:
            if q != r and refines(q, r):
                a = grainers[(str(p), str(q))]
                b = grainers[(str(q), str(r))]
                whole = grainers[(str(p), str(r))]
                ok &= whole.carets == a.carets | b.carets
    dt = time.monotonic() - t0
    report(
        "5 fine-grainer isometry and composition, all chains within 5 intervals",
        ok and worst <= 1e-12 and dt < 10.0,
        f"{len(pairs)} grainers, worst isometry dev {worst:.2e}, {dt:.2f}s",
    )


def test_06_perfect_tensor_certificates():
    t0 = time.monotonic()
    cert = verify_perfect(V3)
    ok = cert.rotation_invariant
    for leg in range(3):
        ok &= abs(cert.constant([leg]) - 2.0) <= 1e-12
    qcert = verify_perfect(qutrit_code_tensor())
    for size in (1, 2):
        for combo in itertools.combinations(range(4), size):
            ok &= qcert.constant(combo) > 0
    rng = np.random.default_rng(3)
    try:
        verify_perfect(DenseTensor(rng.normal(size=(3, 3, 3))))
        ok = False
    except NotPerfect:
        pass
    dt = time.monotonic() - t0
    report(
        "6 perfect-tensor certificates (four-colour, qutrit-code, random fails)",
        ok and dt < 1.0,
        f"{dt:.2f}s",
    )


def test_07_flip_sequences_match_group_action():
    t0 = time.monotonic()
    words = short_words(2)
    depth = 6
    base = standard_tessellation(depth)
    ok = True
    total_flips = 0
    for f in words:
        seq = flips_realizing(f, depth)
        total_flips += len(seq)
        ok &= apply_flips(base, seq).same_tessellation(apply_element(base, f))
    dt = time.monotonic() - t0
    report(
        "7 flip sequences realize the group action for all words of length <= 2",
        ok and dt < 60.0,
        f"{len(words)} elements, {total_flips} flips total, {dt:.2f}s",
    )


def test_08_diffeomorphism_approximation():
    t0 = time.monotonic()
    ok = True
    for n in (1, 3, 5):
        ok &= approximate(identity_map(), n).sup_error == 0.0
        rot = rotation_map(DyadicRational.parse("3/2^3"))
        ok &= approximate(rot, max(n, 3)).sup_error == 0.0
    logs = []
    for a, b in [(0.3, 0.1), (0.0, 0.4), (-0.2, -0.15)]:
        f = mobius_map(a, b)
        errs = [approximate(f, n).sup_error for n in range(3, 9)]
        monotone = all(e2 <= e1 for e1, e2 in zip(errs, errs[1:]))
        logs.append(f"mobius:{a},{b} errs={['%.4f' % e for e in errs]} monotone={monotone}")
    dt = time.monotonic() - t0
    for line in logs:
        print("    " + line)
    report(
        "8 approximation exact on identity/rotations; Mobius family completes n=3..8",
        ok and dt < 30.0,
        f"{dt:.2f}s",
    )


def test_09_btz_entropies():
    t0 = time.monotonic()
    ok = True
    details = []
    for h in (1, 2):
        state = btz_state(h, V3)
        na, nb = state.num_a, state.num_b
        sa = entanglement_entropy(state, range(na))
        sb = entanglement_entropy(state, range(na, na + nb))
        bound = state.cut_bonds * math.log(3)
        ok &= sa > 0
        ok &= abs(sa - sb) <= 1e-10
        ok &= sa <= bound + 1e-10
        details.append(f"h={h}: S={sa:.6f} bound={bound:.3f}")
    dt = time.monotonic() - t0
    report(
        "9 BTZ state has equal positive boundary entropies within the rank bound",
        ok and dt < 60.0,
        "; ".join(details) + f", {dt:.2f}s",
    )


def test_10_gram_positivity():
    t0 = time.monotonic()
    words = short_words(2)
    G = gram_matrix(words, V3)
    hermitian = float(np.abs(G - G.conj().T).max())
    min_eig = float(np.linalg.eigvalsh(G).min())
    dt = time.monotonic() - t0
    report(
        "10 Gram matrix over words of length <= 2 is Hermitian and PSD",
        hermitian <= 1e-12 and min_eig >= -1e-10 and dt < 10.0,
        f"hermitian dev {hermitian:.2e}, min eig {min_eig:.2e}, {dt:.2f}s",
    )
