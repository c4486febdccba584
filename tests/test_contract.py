"""Pinned outputs: digests and values that a refactor or an optimisation
must leave byte for byte as they are.  A pin that fails is a defect to fix
in the library, not a digest to edit.  Run as a script, the module runs the
command lines that it reads as JSON under a 2 GB address-space limit."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import thompson_holo
from thompson_holo.approximation import approximate, parse_map
from thompson_holo.cli import main
from thompson_holo.dyadic import DyadicPartition, common_refinement, refines
from thompson_holo.semicontinuous import CutoffState, act, gram_matrix, inner_product, vacuum
from thompson_holo.semicontinuous import vacuum_matrix_element
from thompson_holo.tensor import DenseTensor, four_colour_tensor, normalize_isometry, singlet_tensor
from thompson_holo.tessellation import apply_element, apply_flips, flips_realizing, pachner_flip
from thompson_holo.tessellation import render_svg, standard_tessellation
from thompson_holo.thompson import TreeDiagram, adjoin_caret, compose, parse_word, random_element

from test_thompson import random_tree


def cli(*argv, limit=60):
    """Exit code, stdout and stderr of `main(argv)`, which must return within `limit` seconds."""
    out, err, start = io.StringIO(), io.StringIO(), time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert time.perf_counter() - start < limit, argv
    return code, out.getvalue(), err.getvalue()


def sha256(lines) -> str:
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def word(r: random.Random, n: int) -> str:
    return "".join(r.choice("ABCabc") for _ in range(n))


def walk(t, r: random.Random, steps: int):
    """`steps` flips of t, each at the doe with probability 0.1, else at a uniform window edge."""
    for _ in range(steps):
        edges = t.window_edges()
        e = t.doe_chord() if r.random() < 0.1 else edges[int(r.random() * len(edges))]
        t = pachner_flip(t, e)
    return t


def python(*argv, **kwargs):
    """A child interpreter that imports this thompson_holo, from any directory."""
    src = str(Path(thompson_holo.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, **kwargs)


def test_module_entry_point():
    run = python("-m", "thompson_holo.cli", "flips", "B", "--depth", "4")
    assert (run.returncode, run.stdout) == (0, "1/2^1~3/2^2\n"), run.stderr


def test_cutoff_svg_digest(tmp_path):
    out = tmp_path / "cut.svg"
    assert cli("render", "cutoff:0, 1/2^1, 3/2^2, 1", "--out", str(out))[0] == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "6aa7502df4f08354a471a67b405d4a1bb31dbabfbe229020865bffa6c7858774"


def test_partition_svg_digest():
    fs = [random_element(200, s) for s in range(20)]
    svgs = (render_svg(f.range_partition) + render_svg(f.domain_partition) for f in fs)
    assert sha256(svgs) == "8fa1cc3d56f5139fefd619571971bf507d487ebf7d25ea4fb6b8b6959bab8747"


def test_labelled_svg_digests():
    """The flips of aCb at depth 4, a walk of 40 flips at window edges from
    tau_0, and one of 60 flips from aCb's tessellation at depth 5."""
    t = apply_flips(standard_tessellation(4), flips_realizing(parse_word("aCb"), 4))
    r, walked = random.Random(13), standard_tessellation(6)
    for _ in range(40):
        edges = walked.window_edges()
        walked = pachner_flip(walked, edges[int(r.random() * len(edges))])
    acb = apply_element(standard_tessellation(5), parse_word("aCb"))
    from_acb = walk(acb, random.Random(29), 60)
    assert [sha256([render_svg(x, labels=True)]) for x in (t, walked, from_acb)] == [
        "8fd4e5d78aca39d6641636aa72fbe3decbfc30f94d609519d3735f0e72fd5ecc",
        "231ce86482dc88f7493dff28694129058ab842d93c2f611f3bcf99ffc60b612d",
        "cc0b68aaa9777a8724b3b2d339119eb5c78580898ad1d63974efab3012c765b5",
    ]


def test_parsed_words_digest():
    words = [word(random.Random(n), n) for n in range(121)] + [word(random.Random(1), 3200)]
    lines = (f"{parse_word(w)}\n" for w in words)
    assert sha256(lines) == "171a0eeba95f9630402b007cd40da57d5565aedd21782c1f6131dc4037c1b1cb"


def test_diagram_route_digest():
    """Both tensors on seeded words of 20-90 letters, as repr lines."""
    lines = []
    for V in (four_colour_tensor(), singlet_tensor()):
        V = normalize_isometry(V, [0])
        for k in range(60):
            r = random.Random(k)
            f = parse_word(word(r, r.randint(20, 90)))
            lines.append(f"{vacuum_matrix_element(f, V, 'diagram')!r}\n")
    assert sha256(lines) == "d19910855c99345e01fcfbc9b0f35adcad3566ce5b2f9bf06882136432037614"


def test_diagram_route_exact_output():
    """The diagram route's JSON for a 90-letter word, exactly as printed."""
    w = "abbABCcccBBCCcaAbcBAcBbcaABbCACCBbcbAaACcCBcBCBbCcCaBbBaabABbBbbAAabCABBaaAacCbaCbbBAABbaB"
    code, out, err = cli("matrix-element", w, "--route", "diagram", "--json")
    assert (code, out, err) == (0, '{"diagram": [0.0001220703125000004, 0.0]}\n', "")


def test_products_digest():
    """Unreduced diagrams of random trees with adjoined carets, seeded
    words, and diagrams of two 1100-deep combs."""

    def element(r):
        n = r.randint(1, 60)
        f = TreeDiagram(random_tree(r, n), random_tree(r, n), r.randrange(n))
        for _ in range(r.randint(0, 5)):
            f = adjoin_caret(f, r.randrange(f.num_leaves))
        return f

    lines = []
    for k in range(300):
        r = random.Random(k)
        lines.append(f"{compose(element(r), element(r))}\n")
        u, v = (word(r, r.randint(0, 90)) for _ in "uv")
        lines.append(f"{compose(parse_word(u), parse_word(v))}\n")
    R, L = "(." * 1100 + "." + ")" * 1100, "(" * 1100 + "." + ".)" * 1100
    pairs = [("R|L@3", "R|R@500"), ("R|L@0", "R|L@0"), ("R|L@0", "L|R@0"), ("R|R@7", "R|R@5")]
    for pair in pairs + [("L|L@9", "R|L@0")]:
        f, g = (TreeDiagram.parse(x.replace("R", R).replace("L", L)) for x in pair)
        lines.append(f"{compose(f, g)}\n")
    assert sha256(lines) == "d040548401af2a944024243f4a675da804354564216bc7c554a13701a1f53e7d"


def test_actions_on_walked_tessellations_digest():
    lines = []
    for k in range(40):
        r = random.Random(k)
        t = walk(standard_tessellation(6), r, r.randint(0, 80))
        for _ in range(5):
            g = parse_word(word(r, r.randint(0, 12)))
            lines.append(f"{apply_element(t, g).element}\n")
    assert sha256(lines) == "3798de83dd7f4a0de406cc9130688885bdec51c7633fe07e3ff7f6dad2c87bf7"


def test_flips_digest():
    """Flip sequences of every word of at most 3 letters and of random
    diagrams, then the face apexes of every window edge of walked
    tessellations."""
    lines = []
    for n in range(4):
        for letters in itertools.product("ABCabc", repeat=n):
            lines.append(f"{[str(c) for c in flips_realizing(parse_word(''.join(letters)), 0)]}\n")
    for k in range(300):
        r = random.Random(k)
        n = r.randint(1, 40)
        f = TreeDiagram(random_tree(r, n), random_tree(r, n), r.randrange(n))
        lines.append(f"{[str(c) for c in flips_realizing(f, 0)]}\n")
    for k in range(30):
        r = random.Random(1000 + k)
        t = walk(standard_tessellation(4), r, r.randint(0, 30))
        for e in t.window_edges():
            lines.append(f"{(str(e), t.face_apex(e, True), t.face_apex(e, False))}\n")
    assert sha256(lines) == "9550b92b0283bd5fa61ffc84a00d311532c7055f941a3f8228ab2e684ad64cca"


def test_action_route_digest():
    """Actions on the vacuum and on a random state at a four-interval cutoff,
    their overlaps, cutoffs and refinements, matrix elements and a Gram
    matrix, with both tensors."""
    h = hashlib.sha256()

    def put(x):
        h.update(x if isinstance(x, bytes) else (str(x) + "\n").encode())

    def element(r):
        return parse_word(word(r, r.randint(0, 8)))

    cut = DyadicPartition.parse("0, 1/2^2, 1/2^1, 3/2^2, 1")
    for V in (four_colour_tensor(), singlet_tensor()):
        V = normalize_isometry(V, [0])
        d = V.leg_dims[0]
        omega = vacuum(DyadicPartition.parse("0, 1/2^1, 1"), V)
        rng = np.random.default_rng(5)
        s = CutoffState(cut, rng.normal(size=(d,) * 4) + 1j * rng.normal(size=(d,) * 4), V)
        for k in range(40):
            r = random.Random(k)
            f, g = element(r), element(r)
            for t in (omega, s):
                a = act(f, t)
                put(a.cutoff)
                put(a.amplitudes.tobytes())
                put(repr(inner_product(t, a)))
            put(repr(vacuum_matrix_element(f, V, "action")))
            a, b = act(f, omega), act(g, s)
            put(repr(inner_product(a, b)))
            put(common_refinement(a.cutoff, b.cutoff))
            put((refines(a.cutoff, b.cutoff), refines(b.cutoff, a.cutoff)))
        put(gram_matrix([element(random.Random(100 + k)) for k in range(20)], V).tobytes())
    assert h.hexdigest() == "ef324a6ad968159c9d8e5aff451167343093590750ce8d922bd397107eb9e916"


DYADIC_CAP = "ResourceLimit: dyadic rational '1/2^100000000000': exponent 100000000000 exceeds the cap of 16777216"
PROBES = [
    ("ResourceLimit: level 100000000000: 2^100000000000 image points exceed the cap of 16777216",
     ["approximate", "identity", "--level", "100000000000"]),
    ("ResourceLimit: depth 100000000000: 2^100000000003 window chords exceed the cap of 16777216",
     ["render", "tessellation:100000000000", "--out", "huge.svg"]),
    ("ResourceLimit: 3^400000000000 amplitudes exceed the cap of 16777216", ["btz-entropy", "--halfwidth", "100000000000"]),
    (DYADIC_CAP, ["eval", "A", "1/2^100000000000"]),
    (DYADIC_CAP, ["approximate", "rotation:1/2^100000000000", "--level", "3"]),
    (DYADIC_CAP, ["render", "cutoff:0, 1/2^100000000000, 1", "--out", "huge.svg"]),
    # a rank-1 tensor whose squared norm overflows is not perfect
    ("NotPerfect: the squared norm inf is not finite", ["verify-tensor", "overflow.txt"]),
    ("NotPerfect: the squared norm inf is not finite", ["verify-tensor", "overflow.txt", "--json"]),
    # malformed inputs fail with one line too
    ("error: unbalanced parentheses in tree text", ["reduce", "((..)|(..)"]),
    ("error: tessellation 'depth' is not an integer: true", ["render", "depth.json", "--out", "depth.svg"]),
    ("error: BTZ network contracted to zero", ["btz-entropy", "--halfwidth", "1", "--tensor", "zero.txt"]),
    ("error: tessellation JSON nests too deeply", ["render", "nested.json", "--out", "nested.svg"]),
]
ADDRESS_SPACE = 2_048_000_000  # bytes, as `ulimit -v 2000000`


def test_huge_sizes_fail_with_one_line(tmp_path):
    """Every probe exits 1 with one stderr line, in one child process under
    a 2 GB address-space limit, within 20 s each.  A contraction is planned
    before any array is made, so the singlet diagram route on the level-11
    approximant (a 4^13 intermediate) fails within 3 s."""
    (tmp_path / "overflow.txt").write_text("dims: 2 2\n0 0 1e200 0\n0 1 1e200 0\n")
    (tmp_path / "depth.json").write_text('{"depth": true, "doe": ["0", "1/2^1"], "flips": []}\n')
    (tmp_path / "zero.txt").write_text("dims: 3 3 3\n")
    (tmp_path / "nested.json").write_text("[" * 100000 + "]" * 100000 + "\n")
    level_11 = str(approximate(parse_map("mobius:0.3,0.1"), 11).element)
    probes = PROBES + [
        ("ResourceLimit: a contraction intermediate of 67108864 entries exceeds the cap of 16777216",
         ["matrix-element", level_11, "--tensor", "singlet", "--route", "diagram"])]
    argvs = [argv for _, argv in probes] + [["eval", "A", "0/2^300000000"]]
    child = python(__file__, input=json.dumps(argvs), timeout=300, cwd=tmp_path)
    assert child.returncode == 0, child.stderr
    assert child.stderr == ""
    *runs, zero = json.loads(child.stdout)
    for (expected, argv), (code, _, err, seconds) in zip(probes, runs, strict=True):
        assert (code, err) == (1, expected + "\n"), argv
        assert seconds < (3 if argv[0] == "matrix-element" else 20), argv
    assert zero[:3] == [0, "0\n", ""]
    assert zero[3] < 20
    assert not (tmp_path / "nested.svg").exists()


@pytest.mark.parametrize(
    "tensor, halfwidth, expected, limit",
    [
        ("four-colour", 1, 1.7917594692280547, 30), ("four-colour", 2, 3.799413401975344, 30),
        ("singlet", 1, 2.7725887222397816, 30), ("singlet", 2, 5.545177444479564, 30),
        ("four-colour", 3, 5.870923863682365, 60), ("singlet", 3, 8.317766166719341, 120),
        # four-colour with a phase on the boundary leg: complex amplitudes, same entropies
        ("phased", 3, 5.870923863682365, 60),
    ],
)
def test_btz_entropies(tmp_path, tensor, halfwidth, expected, limit):
    if tensor == "phased":
        phase = np.exp(1j * np.array([0, 0.7, 1.9]))[None, :, None]
        tensor = tmp_path / "phased.txt"
        tensor.write_text(DenseTensor(four_colour_tensor().array * phase).to_text())
    argv = ["btz-entropy", "--halfwidth", str(halfwidth), "--tensor", str(tensor), "--json"]
    code, out, err = cli(*argv, limit=limit)
    assert code == 0, err
    d = json.loads(out)
    assert all(abs(d[k] - expected) <= 1e-12 for k in ("entropy_a", "entropy_b")), d


def test_long_words():
    """A word of 3200 letters composed with its inverse, and the flips of
    one of 1600 letters, as the file `flips` writes, each within 60 s."""
    w = word(random.Random(1), 3200)
    assert cli("compose", w, w[::-1].swapcase()) == (0, ".|.@0\n", "")
    code, out, _ = cli("flips", word(random.Random(2), 1600), "--depth", "4")
    assert (code, sha256([out])) == (0, "cad74ad5a7d99c14db5c8a9e9ef0173b655c48bb7d954df8a3341a63ea48cab8")


APPROXIMATION_SPECS = [
    "identity", "rotation:1/2^1", "rotation:3/2^3", "rotation:-5/2^4", "mobius:0.3,0.1",
    "mobius:-0.45,0.2", "mobius:0,0.9", "mobius:0.99999999,0", "mobius:nan,0", "mobius:1,0",
]


def test_approximate_digest():
    """Every spec at levels 0-13, plain and --json: exit code, standard
    output and standard error, one repr line each."""
    h = hashlib.sha256()
    for spec in APPROXIMATION_SPECS:
        for n in range(14):
            for extra in ([], ["--json"]):
                code, out, err = cli("approximate", spec, "--level", str(n), *extra)
                h.update((repr((spec, n, extra, code, out, err)) + "\n").encode())
    assert h.hexdigest() == "2c221cb84ab442ed2e7ac5e7d52206719e863ceb2412d079b807e2ad4b5b235c"


@pytest.mark.parametrize(
    "spec, level, pins",
    [
        ("mobius:0.3,0.1", 10, ['"ties": 956', '"marker_interval": 998', '"sup_error": 0.0018527807774210772']),
        ("identity", 12, ['"ties": 4083', '"marker_interval": 0,', '"sup_error": 0.0,']),
        ("mobius:0.3,0.1", 12, ['"ties": 3958', '"marker_interval": 3995,', '"sup_error": 0.00046239747733253095,']),
    ],
    ids=["mobius-10", "identity-12", "mobius-12"],
)
def test_approximate_json_pins(spec, level, pins):
    code, out, _ = cli("approximate", spec, "--level", str(level), "--json")
    assert code == 0
    for pin in pins:
        assert pin in out, pin


if __name__ == "__main__":
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    runs = []
    for argv in json.load(sys.stdin):
        start = time.perf_counter()
        runs.append([*cli(*argv), time.perf_counter() - start])
    json.dump(runs, sys.stdout)
