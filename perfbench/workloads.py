"""The four benchmark workloads: seeded inputs, timed ops and output checks.

A workload is a set-up function and an endless op stream.  Each op's `run` is
the timed call into thompson_holo; its `check` verifies the result against an
identity from the paper and runs outside the timed span.  Inputs come only from
the seed, through stdlib `random` (and a numpy generator seeded from it for
state vectors).

The streams repeat a fixed pattern of op kinds and sizes, with seeded contents,
so that a run cut off after a fixed time holds the same mix of ops whatever the
seed.  The functions are looked up through their modules at call time, so the
traced run sees the wrapped versions.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from thompson_holo import cli
from thompson_holo import dyadic as dy
from thompson_holo import semicontinuous as sc
from thompson_holo import tensor as tn
from thompson_holo import tessellation as ts
from thompson_holo import thompson as th

TOL = 1e-12


class CheckFailed(Exception):
    """An op returned a wrong value."""


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def short_words(max_len: int):
    """(word, element) for each distinct reduced element of a word over
    {A,B,C} of length <= max_len, in the order the acceptance tests use."""
    seen = {}
    for length in range(max_len + 1):
        for letters in itertools.product("ABC", repeat=length):
            word = "".join(letters)
            f = th.reduce_diagram(th.parse_word(word))
            seen.setdefault((f.domain_tree, f.range_tree, f.marker), (word or "1", f))
    return list(seen.values())


# ---------------------------------------------------------------------------
# words: parse, compose and the diagram route at scale


# Each op composes 1-3 seeded words of 20-90 letters.  Contraction cost grows
# with the cube of the leaves, so a run whose element sizes were left to chance
# would be decided by its few largest elements; instead each cycle of ops
# visits every leaf count of WORD_LEAVES once, in seeded order, with one word up
# to 22 leaves, two up to 34 and three above.  The count of leaf counts is odd,
# so op_p50_ms falls inside the middle one rather than between two.
WORD_LETTERS = (20, 90)
WORD_LEAVES = tuple(range(10, 47, 3))
TINY_WORD_LEAVES = (4, 6, 8)


def words_setup(seed: int, tiny: bool) -> dict:
    return {
        "V": tn.four_colour_tensor(),
        "rng": random.Random(seed),
        "lengths": (5, 15) if tiny else WORD_LETTERS,
        "leaves": TINY_WORD_LEAVES if tiny else WORD_LEAVES,
    }


def words_ops(st: dict):
    V, rng = st["V"], st["rng"]
    leaves = st["leaves"]
    for _ in itertools.count():
        for target in rng.sample(leaves, len(leaves)):
            k = 1 + 3 * (target - leaves[0]) // (leaves[-1] - leaves[0] + 1)
            words = _words_with_leaves(k, *st["lengths"], target, rng)
            yield Op("compose", "+".join(words), _words_run(words, V), _words_check(V))


def _cut(letters, k: int, lo: int, hi: int, rng: random.Random) -> list[str]:
    """Cut the letters into k words of lo-hi letters at seeded points."""
    sizes, total = [], len(letters)
    for left in range(k - 1, 0, -1):
        n = rng.randint(max(lo, total - hi * left), min(hi, total - lo * left))
        sizes.append(n)
        total -= n
    sizes.append(total)
    it = iter(letters)
    return ["".join(itertools.islice(it, n)) for n in sizes]


def _words_with_leaves(k: int, lo: int, hi: int, target: int, rng: random.Random) -> list[str]:
    """k seeded words of lo-hi letters whose product has about `target` leaves.

    Letters are drawn one at a time, tracking the product, until it first has
    at least `target` leaves; the letters are then cut into k words.
    """
    while True:
        letters: list[str] = []
        f = th.identity()
        while len(letters) < k * hi:
            letters.append(rng.choice("ABCabc"))
            f = th.compose(f, th.parse_word(letters[-1]))
            if len(letters) >= k * lo and f.num_leaves >= target:
                return _cut(letters, k, lo, hi, rng)


def _words_run(words, V):
    def run():
        f = th.parse_word(words[0])
        for w in words[1:]:
            f = th.compose(f, th.parse_word(w))
        return f, sc.vacuum_matrix_element(f, V, "diagram")

    return run


def _words_check(V):
    def check(result):
        f, value = result
        _require(
            th.reduce_diagram(th.compose(f, th.inverse(f))) == th.identity(),
            "compose(f, inverse(f)) does not reduce to the identity",
        )
        back = sc.vacuum_matrix_element(th.inverse(f), V, "diagram")
        _require(
            abs(back - value.conjugate()) <= TOL,
            f"diagram(f^-1) = {back} differs from conj(diagram(f)) = {value.conjugate()}",
        )

    return check


# ---------------------------------------------------------------------------
# states: dense fine-graining on the action route

UNITARITY_CUTOFF = "0, 1/2^2, 1/2^1, 3/2^2, 1"

# One round of the states stream, in order: leaf counts for action-route
# matrix elements, "u" for a unitarity trial and "btz" for an entropy pair.
# The counts place op_p50_ms inside the unitarity trials and op_p90_ms inside
# the 7-leaf matrix elements instead of on the edge between two kinds of op.
STATES_ROUND = (
    2, "u", 7, 3, "u", 6, "u", 7, 4, "u", "btz",
    7, "u", 5, 8, "u", 6, 7, "u", "u", 7,
)
TINY_STATES_ROUND = ("u", 3, 5, "u", 2, 6, "btz", 4)
# Unitarity trials act on a 4-leg state; their cost is set by the number of
# legs after refining the state's cutoff by the element's domain, so every
# trial element refines it to the same number of legs.
UNITARITY_LEGS = 6


def _random_tree(n: int, rng: random.Random):
    if n == 1:
        return dy.LEAF
    k = rng.randint(1, n - 1)
    return dy.TTree(_random_tree(k, rng), _random_tree(n - k, rng))


def _random_reduced(n: int, rng: random.Random):
    """A seeded reduced element of T with exactly n leaves."""
    while True:
        f = th.reduce_diagram(
            th.TreeDiagram(_random_tree(n, rng), _random_tree(n, rng), rng.randrange(n))
        )
        if f.num_leaves == n:
            return f


def states_setup(seed: int, tiny: bool) -> dict:
    rng = random.Random(seed)
    rnd = TINY_STATES_ROUND if tiny else STATES_ROUND
    sizes = {n for n in rnd if isinstance(n, int)}
    pools = {n: [_random_reduced(n, rng) for _ in range(4)] for n in sorted(sizes)}
    gamma = dy.DyadicPartition.parse(UNITARITY_CUTOFF)
    legs = UNITARITY_LEGS - (1 if tiny else 0)
    unitarity = []
    while len(unitarity) < 8:
        f = th.random_element(rng.randint(2, 5), rng.randrange(10**9))
        if len(dy.common_refinement(gamma, f.domain_partition)) == legs:
            unitarity.append(f)
    return {
        "V": tn.four_colour_tensor(),
        "rng": rng,
        "np_rng": np.random.default_rng(rng.randrange(2**32)),
        "pools": pools,
        "unitarity": itertools.cycle(unitarity),
        "gamma": gamma,
        "gram_words": [f for _, f in short_words(1 if tiny else 2)],
        "round": rnd,
        "tiny": tiny,
    }


def states_ops(st: dict):
    V, rng = st["V"], st["rng"]
    pools = st["pools"]
    for r in itertools.count():
        if r == 0:
            yield Op("gram", f"{len(st['gram_words'])} words", _gram_run(st), _gram_check)
        for item in st["round"]:
            if item == "u":
                yield _unitarity_op(st)
            elif item == "btz":
                h = 1 + r % (2 if st["tiny"] else 3)
                yield Op("btz", f"h={h}", _btz_run(h, V), _btz_check(h))
            else:
                yield _action_op(rng.choice(pools[item]), V)


def _action_op(f, V):
    def run():
        return sc.vacuum_matrix_element(f, V, "action")

    def check(value):
        diagram = sc.vacuum_matrix_element(f, V, "diagram")
        _require(
            abs(value - diagram) <= TOL,
            f"action route {value} and diagram route {diagram} disagree",
        )

    return Op("action", f"{f.num_leaves} leaves {f}", run, check)


def _random_state(st):
    v = st["np_rng"].normal(size=81) + 1j * st["np_rng"].normal(size=81)
    return sc.CutoffState(st["gamma"], v / np.linalg.norm(v), st["V"])


def _unitarity_op(st):
    f = next(st["unitarity"])
    s1, s2 = _random_state(st), _random_state(st)

    def run():
        return sc.inner_product(sc.act(f, s1), sc.act(f, s2))

    def check(after):
        before = sc.inner_product(s1, s2)
        _require(
            abs(after - before) <= TOL,
            f"unitarity: <s1|s2> = {before} but <f s1|f s2> = {after}",
        )

    return Op("unitarity", str(f), run, check)


def _gram_run(st):
    return lambda: sc.gram_matrix(st["gram_words"], st["V"])


def _gram_check(G):
    hermitian = float(np.abs(G - G.conj().T).max())
    _require(hermitian <= TOL, f"Gram matrix deviates from Hermitian by {hermitian}")
    min_eig = float(np.linalg.eigvalsh(G).min())
    _require(min_eig >= -1e-10, f"Gram matrix has eigenvalue {min_eig}")


def _btz_run(h, V):
    def run():
        state = sc.btz_state(h, V)
        na, nb = state.num_a, state.num_b
        sa = sc.entanglement_entropy(state, range(na))
        sb = sc.entanglement_entropy(state, range(na, na + nb))
        return sa, sb, state.cut_bonds * math.log(state.tensor.leg_dims[0])

    return run


def _btz_check(h):
    def check(result):
        sa, sb, bound = result
        _require(sa > 0, f"BTZ h={h}: S(A) = {sa} is not positive")
        _require(abs(sa - sb) <= 1e-10, f"BTZ h={h}: S(A) = {sa} but S(B) = {sb}")
        _require(sa <= bound + 1e-10, f"BTZ h={h}: S(A) = {sa} exceeds 4h ln d = {bound}")

    return check


# ---------------------------------------------------------------------------
# disc: flip-sequence search and tessellation lookups

DISC_DEPTH = 6
# One round of the disc stream after its search op.  Walks are 15% of the ops
# and apply_element round trips 65%, so op_p90_ms falls inside the walks and
# op_p50_ms inside the round trips.
DISC_ROUND = (
    "walk", "apply", "apply", "farey", "apply", "apply", "walk", "apply", "apply", "svg",
    "apply", "apply", "walk", "apply", "apply", "farey", "apply", "apply", "apply",
)
WALK_FLIPS = (30, 40)


def disc_setup(seed: int, tiny: bool) -> dict:
    if tiny:
        search = [(w, th.parse_word(w)) for w in ("B", "AC", "BB", "")]
    else:
        # The search order is fixed, not seeded: flips_realizing fills module
        # caches as it goes, so the cost of the same searches depends on their
        # order (11-21 s for one pass over the 13 elements in four orders).
        search = [(w, th.parse_word(w)) for w in "ABCabc"] + short_words(2)
    return {
        "rng": random.Random(seed),
        "search": search,
        "elements": [f for _, f in short_words(1 if tiny else 2)],
        "depth": 3 if tiny else DISC_DEPTH,
        "walk_flips": (2, 4) if tiny else WALK_FLIPS,
    }


def disc_ops(st: dict):
    rng, depth = st["rng"], st["depth"]
    base = ts.standard_tessellation(depth)
    current = [base]
    searches = itertools.cycle(st["search"])
    for _ in itertools.count():
        word, f = next(searches)
        yield Op("search", word or "1", _search_run(f, depth), _search_check(f, base))
        for kind in DISC_ROUND:
            t = current[0]
            if kind == "walk":
                picks = [rng.random() for _ in range(rng.randint(*st["walk_flips"]))]
                yield Op("walk", f"{len(picks)} flips", _walk_run(base, picks, current), _walk_check)
            elif kind == "farey":
                yield Op("farey", "", lambda t=t: ts.farey_labels(t), _farey_check(t))
            elif kind == "svg":
                yield Op("svg", "", lambda t=t: ts.render_svg(t, labels=True), _svg_check)
            else:
                g = rng.choice(st["elements"])
                yield Op("apply", str(g), _apply_run(t, g), _apply_check(t))


def _search_run(f, depth):
    return lambda: ts.flips_realizing(f, depth)


def _search_check(f, base):
    def check(seq):
        _require(
            ts.apply_flips(base, seq).same_tessellation(ts.apply_element(base, f)),
            "flip sequence does not reproduce apply_element",
        )

    return check


def _walk_run(base, picks, current):
    def run():
        t = base
        for x in picks:
            edges = t.window_edges()
            t = ts.pachner_flip(t, edges[int(x * len(edges))])
        current[0] = t
        return t

    return run


def _walk_check(t):
    _require(
        ts.Tessellation.from_json(t.to_json()).same_tessellation(t),
        "replaying the recorded flips gives another tessellation",
    )


def _farey_check(t):
    def check(lab):
        pairs = lab.vertex_to_label
        _require(lab.label_of(t.doe[0]) == (0, 1), "doe start is not labelled 0/1")
        _require(lab.label_of(t.doe[1]) == (1, 0), "doe end is not labelled 1/0")
        _require(len({l for _, l in pairs}) == len(pairs), "Farey labels repeat")

    return check


def _svg_check(svg):
    _require(svg.startswith("<svg") and svg.endswith("</svg>"), "malformed SVG")
    _require("<text" in svg, "SVG has no vertex labels")


def _apply_run(t, g):
    return lambda: ts.apply_element(ts.apply_element(t, g), th.inverse(g))


def _apply_check(t):
    def check(u):
        _require(u.same_tessellation(t), "f^-1(f(t)) differs from t")

    return check


# ---------------------------------------------------------------------------
# approx: greedy circle-map approximation through the CLI

# One round of the approx stream: Mobius levels, "id" and "rot".  Level 6 spans
# the 42-68% range of the latencies and level 7 the 68-95% range, so op_p50_ms and
# op_p90_ms each fall inside one level rather than between two.
APPROX_ROUND = (3, 7, 6, 4, "id", 7, 6, 5, 7, 8, 6, 3, 7, "rot", 6, 4, 7, 6, 5)
TINY_APPROX_ROUND = (2, 4, "id", 3, "rot")
# Levels of the identity and the rotations, cycled round by round.
EXACT_LEVELS = (3, 4, 5, 6)


def approx_setup(seed: int, tiny: bool) -> dict:
    return {
        "rng": random.Random(seed),
        "round": TINY_APPROX_ROUND if tiny else APPROX_ROUND,
        "tiny": tiny,
    }


def approx_ops(st: dict):
    rng = st["rng"]
    levels = (2, 3, 4) if st["tiny"] else EXACT_LEVELS
    for r in itertools.count():
        for item in st["round"]:
            if item == "id":
                n = levels[r % len(levels)]
                spec = "identity"
            elif item == "rot":
                n = levels[-1 - r % len(levels)]
                k = rng.randint(1, n)
                spec = f"rotation:{2 * rng.randrange(2 ** (k - 1)) + 1}/2^{k}"
            else:
                n = item
                while True:
                    a, b = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
                    if abs(complex(a, b)) < 0.5:
                        break
                spec = f"mobius:{a:.6f},{b:.6f}"
            argv = ["approximate", spec, "--level", str(n), "--json"]
            yield Op("approximate", f"{spec} level {n}", _cli_run(argv), _approx_check(spec, n))


def _cli_run(argv):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    return run


def _approx_check(spec, n):
    def check(result):
        code, out = result
        _require(code == 0, f"exit code {code}")
        payload = json.loads(out)
        pieces = len(payload["range_partition"].split(",")) - 1
        _require(pieces == 2**n, f"range partition has {pieces} pieces, not 2^{n}")
        if not spec.startswith("mobius"):
            _require(payload["sup_error"] == 0.0, f"sup_error {payload['sup_error']} is not 0")

    return check


WORKLOADS = {
    "words": (words_setup, words_ops),
    "states": (states_setup, states_ops),
    "disc": (disc_setup, disc_ops),
    "approx": (approx_setup, approx_ops),
}

# Calibration loop per workload (see calibration.py): states mixes tree code
# with dense fine-graining, the others are pure Python.
CALIBRATION = {"words": "python", "states": "mixed", "disc": "python", "approx": "python"}
