"""Elements of Thompson's groups F and T as tree diagrams.

A TreeDiagram (R, S, marker) sends the j-th leaf interval of the domain tree R
affinely onto the ((marker + j) mod n)-th leaf interval of the range tree S.
marker == 0 characterises elements of F sitting inside T.

Composition convention: compose(f, g) means "apply g first" (f o g).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .dyadic import (
    LEAF,
    DyadicPartition,
    DyadicRational,
    TTree,
    _tree_union,
    tree_to_partition,
)

__all__ = [
    "TreeDiagram",
    "PLMap",
    "identity",
    "generator",
    "to_pl_map",
    "evaluate",
    "compose",
    "inverse",
    "reduce_diagram",
    "adjoin_caret",
    "equals",
    "random_element",
    "parse_word",
]


# ---------------------------------------------------------------------------
# tree helpers


def _subdivide_leaf(tree: TTree, j: int) -> TTree:
    """Replace leaf j (left to right) with a caret."""
    if tree.is_leaf:
        if j != 0:
            raise IndexError(f"leaf index {j} out of range")
        return TTree(LEAF, LEAF)
    nl = tree.left.num_leaves
    if j < nl:
        return TTree(_subdivide_leaf(tree.left, j), tree.right)
    return TTree(tree.left, _subdivide_leaf(tree.right, j - nl))


def _remove_caret(tree: TTree, j: int) -> TTree:
    """Merge the caret whose children are leaves j and j+1 back into a leaf."""
    if tree.is_leaf:
        raise ValueError("cannot remove a caret from a leaf")
    if tree.left.is_leaf and tree.right.is_leaf:
        if j == 0:
            return LEAF
        raise ValueError(f"leaf index {j} out of range")
    nl = tree.left.num_leaves
    if j <= nl - 2:
        return TTree(_remove_caret(tree.left, j), tree.right)
    if j >= nl:
        return TTree(tree.left, _remove_caret(tree.right, j - nl))
    raise ValueError(f"leaves {j},{j+1} are not a caret")


def _caret_positions(tree: TTree) -> list[int]:
    """Leaf indices j such that leaves j and j+1 are the children of one caret."""
    out: list[int] = []

    def walk(node: TTree, offset: int):
        if node.is_leaf:
            return
        if node.left.is_leaf and node.right.is_leaf:
            out.append(offset)
            return
        walk(node.left, offset)
        walk(node.right, offset + node.left.num_leaves)

    walk(tree, 0)
    return out


def _first_expandable_leaf(tree: TTree, target: TTree) -> int | None:
    """First leaf index of `tree` at which `target` has an internal node."""
    if tree.is_leaf:
        return None if target.is_leaf else 0
    j = _first_expandable_leaf(tree.left, target.left)
    if j is not None:
        return j
    j = _first_expandable_leaf(tree.right, target.right)
    if j is not None:
        return j + tree.left.num_leaves
    return None


# ---------------------------------------------------------------------------
# tree diagrams


@dataclass(frozen=True)
class TreeDiagram:
    """Pair of equal-leaf-count trees plus the rotation marker."""

    domain_tree: TTree
    range_tree: TTree
    marker: int = 0

    def __post_init__(self):
        n = self.domain_tree.num_leaves
        if self.range_tree.num_leaves != n:
            raise ValueError("domain and range trees must have equal leaf counts")
        if not 0 <= self.marker < n:
            raise ValueError(f"marker {self.marker} out of range for {n} leaves")

    @property
    def num_leaves(self) -> int:
        return self.domain_tree.num_leaves

    @property
    def domain_partition(self) -> DyadicPartition:
        return tree_to_partition(self.domain_tree)

    @property
    def range_partition(self) -> DyadicPartition:
        return tree_to_partition(self.range_tree)

    def __str__(self) -> str:
        return f"{self.domain_tree}|{self.range_tree}@{self.marker}"

    @classmethod
    def parse(cls, text: str) -> "TreeDiagram":
        body, _, mark = text.partition("@")
        dom, _, rng = body.partition("|")
        if not rng:
            raise ValueError(f"cannot parse tree diagram: {text!r}")
        return cls(TTree.parse(dom), TTree.parse(rng), int(mark) if mark else 0)


def identity() -> TreeDiagram:
    return TreeDiagram(LEAF, LEAF, 0)


_CARET = TTree(LEAF, LEAF)
_RIGHT2 = TTree(LEAF, _CARET)  # leaves [0,1/2], [1/2,3/4], [3/4,1]
_LEFT2 = TTree(_CARET, LEAF)  # leaves [0,1/4], [1/4,1/2], [1/2,1]


def generator(name: str) -> TreeDiagram:
    """Reduced tree diagrams of the standard generators A, B of F and C of T."""
    name = name.upper()
    if name == "A":
        return TreeDiagram(_RIGHT2, _LEFT2, 0)
    if name == "B":
        return TreeDiagram(
            TTree(LEAF, TTree(LEAF, _CARET)),
            TTree(LEAF, TTree(_LEFT2.left, LEAF)),
            0,
        )
    if name == "C":
        return TreeDiagram(_RIGHT2, _RIGHT2, 2)
    raise ValueError(f"unknown generator {name!r}")


# ---------------------------------------------------------------------------
# piecewise-linear view


@dataclass(frozen=True)
class PLMap:
    """Exact PL circle map: pieces (x0, x1, y0, slope_exp) with slope 2^slope_exp.

    Each piece maps [x0, x1) affinely onto [y0, y0 + (x1-x0)*2^slope_exp),
    values taken mod 1.
    """

    pieces: tuple[tuple[DyadicRational, DyadicRational, DyadicRational, int], ...]

    @property
    def breakpoints(self) -> list[tuple[DyadicRational, DyadicRational]]:
        return [(x0, y0) for x0, _, y0, _ in self.pieces]

    @property
    def slopes(self) -> list[int]:
        return [k for _, _, _, k in self.pieces]

    def __call__(self, x: DyadicRational) -> DyadicRational:
        x = x.mod1()
        for x0, x1, y0, k in self.pieces:
            if x0 <= x < x1:
                return (y0 + (x - x0).scale_pow2(k)).mod1()
        raise ValueError(f"{x} not covered by any piece")


def to_pl_map(f: TreeDiagram) -> PLMap:
    dom = f.domain_tree.leaf_intervals()
    rng = f.range_tree.leaf_intervals()
    n = f.num_leaves
    pieces = []
    for j, d in enumerate(dom):
        r = rng[(f.marker + j) % n]
        pieces.append((d.left, d.right, r.left, d.n - r.n))
    return PLMap(tuple(pieces))


def evaluate(f: TreeDiagram, x: DyadicRational) -> DyadicRational:
    """Exact image of the circle point x under f."""
    return to_pl_map(f)(x)


# ---------------------------------------------------------------------------
# group operations


def adjoin_caret(f: TreeDiagram, leaf_index: int) -> TreeDiagram:
    """Subdivide domain leaf `leaf_index` and its image leaf simultaneously."""
    n = f.num_leaves
    if not 0 <= leaf_index < n:
        raise IndexError(f"leaf index {leaf_index} out of range for {n} leaves")
    k = (f.marker + leaf_index) % n
    marker = f.marker + 1 if k < f.marker else f.marker
    return TreeDiagram(
        _subdivide_leaf(f.domain_tree, leaf_index),
        _subdivide_leaf(f.range_tree, k),
        marker,
    )


def reduce_diagram(f: TreeDiagram, rng: random.Random | None = None) -> TreeDiagram:
    """Remove common carets until none remain; the result is the canonical form.

    `rng` randomises the removal order (used to test confluence); the reduced
    form is independent of it.
    """
    while True:
        n = f.num_leaves
        dom_carets = _caret_positions(f.domain_tree)
        rng_carets = set(_caret_positions(f.range_tree))
        candidates = []
        for j in dom_carets:
            k = (f.marker + j) % n
            if k + 1 < n and k in rng_carets:
                candidates.append((j, k))
        if not candidates:
            return f
        j, k = rng.choice(candidates) if rng is not None else candidates[0]
        marker = f.marker - 1 if f.marker > k else f.marker
        f = TreeDiagram(
            _remove_caret(f.domain_tree, j),
            _remove_caret(f.range_tree, k),
            marker,
        )


def _expand_domain(f: TreeDiagram, target: TTree) -> TreeDiagram:
    """Adjoin carets to f until its domain tree is `target`, which must
    contain the domain tree from the root down."""
    while f.domain_tree != target:
        f = adjoin_caret(f, _first_expandable_leaf(f.domain_tree, target))
    return f


def compose(f: TreeDiagram, g: TreeDiagram) -> TreeDiagram:
    """Reduced diagram of f o g (g applied first)."""
    target = _tree_union(g.range_tree, f.domain_tree)
    g = inverse(_expand_domain(inverse(g), target))
    f = _expand_domain(f, target)
    n = f.num_leaves
    return reduce_diagram(
        TreeDiagram(g.domain_tree, f.range_tree, (f.marker + g.marker) % n)
    )


def inverse(f: TreeDiagram) -> TreeDiagram:
    n = f.num_leaves
    return TreeDiagram(f.range_tree, f.domain_tree, (-f.marker) % n)


def equals(f: TreeDiagram, g: TreeDiagram) -> bool:
    """Structural equality of reduced forms, i.e. equality as PL maps."""
    return reduce_diagram(f) == reduce_diagram(g)


_LETTERS = ["A", "B", "C", "a", "b", "c"]


def _letter_element(letter: str) -> TreeDiagram:
    if letter in "ABC":
        return generator(letter)
    if letter in "abc":
        return inverse(generator(letter.upper()))
    raise ValueError(f"unknown word letter {letter!r}")


def parse_word(word: str) -> TreeDiagram:
    """Word over {A,B,C,a,b,c}, lowercase = inverse, applied right to left."""
    element = identity()
    for letter in word.strip():
        element = compose(element, _letter_element(letter))
    return element


def random_element(word_length: int, seed: int) -> TreeDiagram:
    """Reduced diagram of a seeded random word in the generators and inverses."""
    if word_length < 0:
        raise ValueError("word_length must be non-negative")
    rng = random.Random(seed)
    word = "".join(rng.choice(_LETTERS) for _ in range(word_length))
    return parse_word(word)
