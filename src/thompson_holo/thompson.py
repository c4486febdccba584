"""Elements of Thompson's groups F and T as tree diagrams.

A TreeDiagram (R, S, marker) sends the j-th leaf interval of the domain tree R
affinely onto the ((marker + j) mod n)-th leaf interval of the range tree S.
marker == 0 characterises elements of F sitting inside T.

Composition convention: compose(f, g) means "apply g first" (f o g).
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from .dyadic import (
    LEAF,
    DyadicPartition,
    DyadicRational,
    TTree,
    _find_node,
    _graft,
    _splice,
    tree_to_partition,
)

__all__ = [
    "TreeDiagram",
    "identity",
    "generator",
    "evaluate",
    "compose",
    "inverse",
    "reduce_diagram",
    "adjoin_caret",
    "random_element",
    "parse_word",
]


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
        if isinstance(self.marker, bool) or not isinstance(self.marker, int):
            raise ValueError(f"marker must be an int, not {type(self.marker).__name__}")
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


def evaluate(f: TreeDiagram, x: DyadicRational) -> DyadicRational:
    """Exact image of the circle point x (read mod 1) under f, in O(depth):
    one descent of the domain tree finds the leaf j holding x, a second the
    range leaf (marker + j) mod n, and the affine piece between them maps
    x.  All three run on integers (`_evaluate_pair`, which the tessellation
    layer calls directly), and the only object built is the result."""
    return DyadicRational(*_evaluate_pair(f, x.num, x.exp))


def _evaluate_pair(f: TreeDiagram, num: int, exp: int) -> tuple[int, int]:
    """`evaluate` at the circle point num/2^exp, as an integer pair
    (num', exp') with 0 <= num' < 2^exp', not always in lowest terms."""
    num &= (1 << exp) - 1
    j, da, dn = f.domain_tree._leaf_of_point(num, exp)
    ra, rn = f.range_tree._leaf_of_index((f.marker + j) % f.num_leaves)
    return _affine_image(num, exp, da, dn, ra, rn)


def _affine_image(num: int, exp: int, da: int, dn: int, ra: int, rn: int) -> tuple[int, int]:
    """num/2^exp under the affine map of [da/2^dn, (da+1)/2^dn] onto
    [ra/2^rn, (ra+1)/2^rn], mod 1, as an integer pair over 2^(exp + rn); the
    point may be anywhere in the first interval's closure, so its right end
    goes to the second's."""
    # ra/2^rn + (x - da/2^dn) * 2^(dn - rn), over the denominator 2^(exp + rn)
    e = exp + rn
    return ((num << dn) + ((ra - da) << exp)) & ((1 << e) - 1), e


# ---------------------------------------------------------------------------
# group operations


def adjoin_caret(f: TreeDiagram, leaf_index: int) -> TreeDiagram:
    """Subdivide domain leaf `leaf_index` and its image leaf simultaneously."""
    n = f.num_leaves
    if not 0 <= leaf_index < n:
        raise IndexError(f"leaf index {leaf_index} out of range for {n} leaves")
    carets = [_CARET if j == leaf_index else LEAF for j in range(n)]
    return TreeDiagram(
        _graft(f.domain_tree, carets), *_graft_images(f.range_tree, f.marker, carets)
    )


def reduce_diagram(f: TreeDiagram) -> TreeDiagram:
    """The reduced diagram of f, its canonical form, in one top-down walk:
    every maximal domain subtree whose leaves land, in order, on a range
    subtree of the same shape collapses to a leaf, and so does that subtree.

    Range nodes are keyed by (first leaf index, leaf count); none wraps from
    leaf n-1 to leaf 0, so neither does a match.
    """
    n, m = f.num_leaves, f.marker
    range_nodes = {(a, k): node for node, a, k in f.range_tree._spans()}
    domain_blocks, range_blocks = set(), set()
    stack = [(f.domain_tree, 0)]
    while stack:
        node, a = stack.pop()
        if node.is_leaf:
            continue
        image = ((m + a) % n, node.num_leaves)
        if range_nodes.get(image) == node:
            domain_blocks.add((a, node.num_leaves))
            range_blocks.add(image)
        else:
            stack += [(node.left, a), (node.right, a + node.left.num_leaves)]
    if not range_blocks:
        return f
    # Domain leaf 0 lands on the range block starting at leaf m; every
    # collapsed block before it is k leaves that became one.
    marker = m - sum(k - 1 for b, k in range_blocks if b < m)
    return TreeDiagram(
        _collapse(f.domain_tree, domain_blocks), _collapse(f.range_tree, range_blocks), marker
    )


def _collapse(tree: TTree, blocks: set[tuple[int, int]]) -> TTree:
    """`tree` with the subtree at each (first leaf index, leaf count) in
    `blocks` collapsed to a leaf.  The carets outside the blocks are rebuilt
    children first, each keyed by its (first leaf index, leaf count); the
    walk enters no block, so a block's parent finds no child there and takes
    a leaf, as for a leaf."""
    nodes = {}
    for node, a, k in reversed(list(tree._spans(blocks))):
        left = node.left.num_leaves
        nodes[a, k] = TTree(nodes.pop((a, left), LEAF), nodes.pop((a + left, k - left), LEAF))
    return nodes.get((0, tree.num_leaves), LEAF)


def _graft_images(tree: TTree, m: int, below: list[TTree]) -> tuple[TTree, int]:
    """The range tree `tree` of a diagram with marker m, with below[j] grafted
    under the image of domain leaf j, and the marker that then sends the
    first new domain leaf to its image."""
    n = tree.num_leaves
    image = below[n - m :] + below[: n - m]  # image[k] is below[(k - m) mod n]
    return _graft(tree, image), sum(t.num_leaves for t in image[:m])


def compose(f: TreeDiagram, g: TreeDiagram) -> TreeDiagram:
    """Reduced diagram of f o g (g applied first): the factor with more
    leaves, reduced, has a few root-to-leaf paths edited by the other one
    (`_right_multiply`), through inverses, (f o g)^-1 = g^-1 o f^-1, when
    that factor is g.  One reduction walk plus O(m * depth) for the smaller
    factor's m leaves: two factors of n leaves multiply in O(n^2) when their
    trees are combs, or random words' trees, whose depth is about 0.6 n."""
    if f.num_leaves >= g.num_leaves:
        return _right_multiply(reduce_diagram(f), g)
    return inverse(_right_multiply(reduce_diagram(inverse(g)), inverse(f)))


def _right_multiply(f: TreeDiagram, g: TreeDiagram) -> TreeDiagram:
    """The reduced f o g for a reduced f, by path copies in f's trees instead
    of walks over them whole: O(|g| * depth) for g of |g| nodes and f's tree
    depth, so quadratic when f's trees are deep (combs, or random words'
    trees, at depth about 0.6 times the leaves), and everything off the
    copied paths is shared with f.

    Each range caret of g below a domain leaf j of f is grafted, by
    one path copy, under f's range leaf (marker + j) mod n, and g's domain
    tree gets the subtree of f's domain tree below each range leaf of g,
    by one `_graft` with g^-1's marker (-marker) mod n; g^-1 itself is never
    built, so the only diagram made is the result.  A domain node of f o g
    holding a node of f's domain tree cannot match its image, or that node
    would match under f already; so the only candidates for reduction are
    g's domain carets whose leaves each kept one leaf, each looked up by one
    descent and collapsed by a path copy.
    """
    n, m = f.num_leaves, f.marker
    below = []  # the subtree of f's domain tree below each range leaf of g
    grafts = []  # (range leaf of f, the range subtree of g grafted under it)
    stack = [(g.range_tree, f.domain_tree, 0)]
    while stack:
        s, r, j = stack.pop()
        if s.left is None:
            below.append(r)
        elif r.left is None:
            grafts.append(((m + j) % n, s))
            below += [LEAF] * s.num_leaves
        else:
            stack += [(s.right, r.right, j + r.left.num_leaves), (s.left, r.left, j)]
    range_tree = f.range_tree
    if grafts:
        for k, s in sorted(grafts, key=lambda ks: -ks[0]):  # later leaves first
            range_tree = _splice(_find_node(range_tree, k, 1)[1], s)
        m += sum(s.num_leaves - 1 for k, s in grafts if k < m)
    domain_tree, mg = _graft_images(g.domain_tree, (-g.marker) % g.num_leaves, below)
    n = domain_tree.num_leaves
    m = (m - mg) % n
    blocks = []  # (domain start, range start, leaf count) of each maximal match
    stack = [(g.domain_tree, domain_tree, 0)]
    while stack:
        node, grown, a = stack.pop()
        if node.left is None:
            continue
        k = grown.num_leaves
        if k == node.num_leaves:
            b = (m + a) % n
            image = _find_node(range_tree, b, k)[0]
            if image is not None and image == grown:
                blocks.append((a, b, k))
                continue
        stack += [(node.left, grown.left, a), (node.right, grown.right, a + grown.left.num_leaves)]
    if blocks:
        for a, _, k in sorted(blocks, reverse=True):
            domain_tree = _splice(_find_node(domain_tree, a, k)[1], LEAF)
        for _, b, k in sorted(blocks, key=lambda block: -block[1]):
            range_tree = _splice(_find_node(range_tree, b, k)[1], LEAF)
        m -= sum(k - 1 for _, b, k in blocks if b < m)
    return TreeDiagram(domain_tree, range_tree, m)


def inverse(f: TreeDiagram) -> TreeDiagram:
    n = f.num_leaves
    return TreeDiagram(f.range_tree, f.domain_tree, (-f.marker) % n)


_LETTERS = ["A", "B", "C", "a", "b", "c"]


def _letter_element(letter: str) -> TreeDiagram:
    if letter in "ABC":
        return generator(letter)
    if letter in "abc":
        return inverse(generator(letter.upper()))
    raise ValueError(f"unknown word letter {letter!r}")


@functools.lru_cache(maxsize=6**3 + 6**2 + 6)  # every word of 1-3 letters
def _block_element(letters: str) -> TreeDiagram:
    """Reduced product of a block of 1-3 letters, built on first use; a bad
    letter raises on every call, since exceptions are not cached."""
    element = identity()
    for letter in letters:
        element = _right_multiply(element, _letter_element(letter))
    return element


def parse_word(word: str) -> TreeDiagram:
    """Word over {A,B,C,a,b,c}, lowercase = inverse, applied right to left.

    The word is multiplied in blocks of three letters, each block's product
    read from a bounded table, and each block edits a few root-to-leaf paths
    of the running product (`_right_multiply`), so L letters cost
    O(L * depth) for the product's tree depth.  That is quadratic: the
    product of a random word has depth about 0.6 n for n leaves (722 leaves
    at depth 459 for 3200 letters), and a comb has depth about n."""
    word = word.strip()
    element = identity()
    for i in range(0, len(word), 3):
        element = _right_multiply(element, _block_element(word[i : i + 3]))
    return element


def random_element(word_length: int, seed: int) -> TreeDiagram:
    """Reduced diagram of a seeded random word in the generators and inverses."""
    if word_length < 0:
        raise ValueError("word_length must be non-negative")
    rng = random.Random(seed)
    word = "".join(rng.choice(_LETTERS) for _ in range(word_length))
    return parse_word(word)
