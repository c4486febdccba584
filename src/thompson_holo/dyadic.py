"""Exact dyadic rationals, standard dyadic intervals/partitions, and binary trees.

Everything here is integer arithmetic; no floats ever enter.  A partition is
stored as its tree, from which the breakpoint and interval views are derived.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering

from .errors import NotStandardDyadic, ResourceLimit
from .tensor import amplitude_cap

__all__ = [
    "DyadicRational",
    "StdDyadicInterval",
    "DyadicPartition",
    "TTree",
    "LEAF",
    "tree_to_partition",
    "common_refinement",
    "refines",
]


def _lowest_terms(num: int, exp: int) -> tuple[int, int]:
    """num / 2^exp with exp == 0 or num odd: one shift by the trailing zeros;
    0 -> 0/2^0."""
    if exp and not num & 1:
        shift = min((num & -num).bit_length() - 1, exp) if num else exp
        return num >> shift, exp - shift
    return num, exp


def _dyadic_text(num: int, exp: int) -> str:
    """The text of num / 2^exp in lowest terms: "a/2^n", or the integer."""
    num, exp = _lowest_terms(num, exp)
    return f"{num}/2^{exp}" if exp else str(num)


@total_ordering
@dataclass(frozen=True)
class DyadicRational:
    """Exact value num / 2^exp, kept canonical (exp == 0 or num odd)."""

    num: int
    exp: int

    def __post_init__(self):
        if self.exp < 0:
            raise ValueError("exponent must be non-negative")
        num, exp = self.num, self.exp
        if exp and not num & 1:
            num, exp = _lowest_terms(num, exp)
            object.__setattr__(self, "num", num)
            object.__setattr__(self, "exp", exp)

    def mod1(self) -> "DyadicRational":
        """Reduce into [0, 1) as a circle point; a point there is itself."""
        if not self.num >> self.exp:
            return self
        return DyadicRational(self.num & ((1 << self.exp) - 1), self.exp)

    def __lt__(self, other: "DyadicRational") -> bool:
        d = self.exp - other.exp
        return self.num < other.num << d if d >= 0 else self.num << -d < other.num

    def as_fraction(self) -> Fraction:
        """The value as a Fraction, for arithmetic."""
        return Fraction(self.num, 1 << self.exp)

    def __float__(self) -> float:
        return self.num / (1 << self.exp)

    # -- text form ----------------------------------------------------------

    def __str__(self) -> str:
        return _dyadic_text(self.num, self.exp)

    def __repr__(self) -> str:
        return f"DyadicRational({self})"

    @classmethod
    def parse(cls, text: str) -> "DyadicRational":
        """Parse "a/2^n" or a bare integer, bit-exactly.  An exponent in
        lowest terms above the amplitude cap raises ResourceLimit."""
        text = text.strip()
        if m := re.fullmatch(r"(-?\d+)\s*/\s*2\^(\d+)", text):
            x = cls(int(m.group(1)), int(m.group(2)))
        elif m := re.fullmatch(r"(-?\d+)", text):
            x = cls(int(m.group(1)), 0)
        elif m := re.fullmatch(r"(-?\d+)\s*/\s*(\d+)", text):  # a/b, b a power of two
            denom = int(m.group(2))
            if denom <= 0 or denom & (denom - 1):
                raise NotStandardDyadic(f"denominator {denom} is not a power of two")
            x = cls(int(m.group(1)), denom.bit_length() - 1)
        else:
            raise ValueError(f"cannot parse dyadic rational: {text!r}")
        if x.exp > (cap := amplitude_cap()):
            raise ResourceLimit(
                f"dyadic rational {text!r}: exponent {x.exp} exceeds the cap of {cap}"
            )
        return x


ZERO = DyadicRational(0, 0)
ONE = DyadicRational(1, 0)
HALF = DyadicRational(1, 1)


def _interval_of(pn: int, pe: int, qn: int, qe: int) -> tuple[int, int] | None:
    """(a, k) with [p, q] = [a/2^k, (a+1)/2^k] for p = pn/2^pe and
    q = qn/2^qe, in lowest terms or not, if any: read in integers over the
    finer denominator 2^e, where q - p must be a power of two 2^s <= 2^e
    that divides p, and then k = e - s."""
    e = max(pe, qe)
    p = pn << (e - pe)
    w = (qn << (e - qe)) - p
    if w <= 0 or w & (w - 1) or p & (w - 1) or w >> e > 1:
        return None
    s = w.bit_length() - 1
    return p >> s, e - s


@dataclass(frozen=True)
class StdDyadicInterval:
    """The interval [a/2^n, (a+1)/2^n] with 0 <= a < 2^n."""

    a: int
    n: int

    def __post_init__(self):
        if self.n < 0 or self.a < 0 or self.a >> self.n:
            raise NotStandardDyadic(f"invalid standard dyadic interval a={self.a}, n={self.n}")

    @property
    def left(self) -> DyadicRational:
        return DyadicRational(self.a, self.n)

    @property
    def right(self) -> DyadicRational:
        return DyadicRational(self.a + 1, self.n)

    def halves(self) -> tuple["StdDyadicInterval", "StdDyadicInterval"]:
        return StdDyadicInterval(2 * self.a, self.n + 1), StdDyadicInterval(
            2 * self.a + 1, self.n + 1
        )

    @classmethod
    def from_endpoints(cls, left: DyadicRational, right: DyadicRational) -> "StdDyadicInterval":
        """Build from endpoints; raises NotStandardDyadic if not of a/2^n form."""
        if (ak := _interval_of(left.num, left.exp, right.num, right.exp)) is None:
            raise NotStandardDyadic(f"[{left}, {right}] is not standard dyadic")
        return cls(*ak)

    def __str__(self) -> str:
        return f"[{self.left}, {self.right}]"


class TTree:
    """Ordered rooted binary tree; every internal node has exactly two children.

    A leaf is TTree(); an internal node is TTree(left, right).
    """

    __slots__ = ("left", "right", "num_leaves", "_hash")

    def __init__(self, left: "TTree | None" = None, right: "TTree | None" = None):
        if (left is None) != (right is None):
            raise ValueError("internal nodes need exactly two children")
        self.left = left
        self.right = right
        if left is None:
            self.num_leaves, self._hash = 1, hash(".")
        else:
            self.num_leaves = left.num_leaves + right.num_leaves
            self._hash = hash((left._hash, right._hash))

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def __eq__(self, other) -> bool:
        """Structural equality, walked with an explicit stack like
        leaf_intervals; equal leaf counts at every node pair suffice."""
        if not isinstance(other, TTree):
            return NotImplemented
        if self._hash != other._hash:
            return False
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if a.num_leaves != b.num_leaves:
                return False
            if a.left is not None:
                pairs += [(a.left, b.left), (a.right, b.right)]
        return True

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        # A leaf closes one bracket per ancestor whose right spine it ends:
        # the trailing 1 bits of its index a.
        return "".join(
            "." + ")" * ((a ^ (a + 1)).bit_length() - 1) if node.is_leaf else "("
            for node, a, _ in self._walk()
        )

    def __repr__(self) -> str:
        return f"TTree[{self}]"

    @classmethod
    def parse(cls, text: str) -> "TTree":
        """Parse the bracket form, e.g. "(.(..))", keeping on a stack the
        left child, once read, of each caret still open."""
        text = text.strip()
        open_carets: list[list[TTree]] = []
        pos = 0
        while True:
            ch = text[pos : pos + 1]
            pos += 1
            if ch == "(":
                open_carets.append([])
                continue
            if ch != ".":
                if ch:
                    raise ValueError(f"unexpected character {ch!r} in tree text")
                raise ValueError(
                    "unbalanced parentheses in tree text" if open_carets else "empty tree text"
                )
            tree = LEAF
            while open_carets and open_carets[-1]:
                if text[pos : pos + 1] != ")":
                    raise ValueError("unbalanced parentheses in tree text")
                pos += 1
                tree = cls(open_carets.pop()[0], tree)
            if not open_carets:
                break
            open_carets[-1].append(tree)
        if text[pos:]:
            raise ValueError(f"trailing characters in tree text: {text[pos:]!r}")
        return tree

    def _walk(self):
        """(node, a, n) for every node with interval [a/2^n, (a+1)/2^n], parent
        first, then the left subtree; an explicit stack, for deep trees."""
        stack = [(self, 0, 0)]
        while stack:
            node, a, n = stack.pop()
            yield node, a, n
            if node.left is not None:
                stack += [(node.right, 2 * a + 1, n + 1), (node.left, 2 * a, n + 1)]

    def _spans(self, stop=frozenset()):
        """(node, first leaf index, leaf count) for every internal node outside
        the subtrees whose (first leaf index, leaf count) is in `stop`, parent
        first, then the left subtree; an explicit stack, for deep trees."""
        stack = [(self, 0)]
        while stack:
            node, a = stack.pop()
            if node.left is not None and not (stop and (a, node.num_leaves) in stop):
                yield node, a, node.num_leaves
                stack += [(node.right, a + node.left.num_leaves), (node.left, a)]

    def _leaf_ends(self) -> list[tuple[int, int]]:
        """(a, n) of each leaf interval [a/2^n, (a+1)/2^n], left to right."""
        return [(a, n) for node, a, n in self._walk() if node.left is None]

    def leaf_intervals(self) -> list[StdDyadicInterval]:
        """Intervals of the leaves, left to right, under dyadic subdivision of [0,1]."""
        return [StdDyadicInterval(a, n) for a, n in self._leaf_ends()]

    def internal_intervals(self) -> list[StdDyadicInterval]:
        """Intervals of the internal nodes (including the root if internal)."""
        return [StdDyadicInterval(a, n) for node, a, n in self._walk() if not node.is_leaf]

    def _leaf_of_point(self, num: int, exp: int) -> tuple[int, int, int]:
        """(index, a, n) of the leaf [a/2^n, (a+1)/2^n] whose half-open
        interval holds num/2^exp mod 1: one descent, going right where the
        next of the exp binary digits of num is 1, then left."""
        num &= (1 << exp) - 1
        node, index, n = self, 0, 0
        for bit in bin(num | (1 << exp))[3:]:  # past "0b1": num's exp digits
            if node.left is None:
                break
            if bit == "1":
                index += node.left.num_leaves
                node = node.right
            else:
                node = node.left
            n += 1
        while node.left is not None:
            node = node.left
            n += 1
        return index, num >> (exp - n) if n <= exp else num << (n - exp), n

    def _leaf_of_index(self, index: int) -> tuple[int, int]:
        """(a, n) of leaf `index`, [a/2^n, (a+1)/2^n]: one descent on the
        leaf counts."""
        node, a, n = self, 0, 0
        while node.left is not None:
            k = node.left.num_leaves
            if index >= k:
                index -= k
                a = 2 * a + 1
                node = node.right
            else:
                a *= 2
                node = node.left
            n += 1
        return a, n


LEAF = TTree()


class DyadicPartition:
    """Standard dyadic partition of [0,1], stored as its tree: interval j is
    the j-th leaf interval.  Breakpoints and intervals are derived from it.
    """

    __slots__ = ("tree",)

    def __init__(self, breakpoints):
        pts = sorted(set(breakpoints))
        if not pts or pts[0] != ZERO or pts[-1] != ONE:
            raise NotStandardDyadic("partition breakpoints must run from 0 to 1")
        # Standard dyadic intervals tiling [0,1] always nest into one tree, so
        # a finished subtree that is a right half (odd a) merges with the
        # finished subtree before it, which is then its left half.
        stack: list[TTree] = []
        for left, right in zip(pts, pts[1:]):
            node, a = LEAF, StdDyadicInterval.from_endpoints(left, right).a
            while a % 2:
                node, a = TTree(stack.pop(), node), a // 2
            stack.append(node)
        [self.tree] = stack

    @property
    def intervals(self) -> list[StdDyadicInterval]:
        return self.tree.leaf_intervals()

    @property
    def breakpoints(self) -> tuple[DyadicRational, ...]:
        return tuple([DyadicRational(a, n) for a, n in self.tree._leaf_ends()] + [ONE])

    def __len__(self) -> int:
        return self.tree.num_leaves

    def __eq__(self, other) -> bool:
        if not isinstance(other, DyadicPartition):
            return NotImplemented
        return self.tree == other.tree

    def __hash__(self) -> int:
        return hash(self.tree)

    def __str__(self) -> str:
        return ", ".join([_dyadic_text(a, n) for a, n in self.tree._leaf_ends()] + ["1"])

    def __repr__(self) -> str:
        return f"DyadicPartition({self})"

    @classmethod
    def parse(cls, text: str) -> "DyadicPartition":
        """Parse the comma-separated breakpoint form, e.g. "0, 1/2^1, 3/2^2, 1"."""
        return cls(DyadicRational.parse(part) for part in text.split(","))


def tree_to_partition(t: TTree) -> DyadicPartition:
    """Partition whose j-th interval is the j-th leaf interval of t."""
    p = object.__new__(DyadicPartition)
    p.tree = t
    return p


# Whole-tree walks shared by the partition algebra, the group law and
# fine-graining; each keeps an explicit stack, so tree depth is not bounded by
# the interpreter's recursion limit.
def _graft(tree: TTree, subtrees: list[TTree]) -> TTree:
    """`tree` with its leaf j replaced by subtrees[j], by one explicit-stack
    walk that reads the subtrees by a running index and builds only the
    carets above them; a None on the stack joins the last two subtrees
    built."""
    out: list[TTree] = []
    j = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is None:
            right = out.pop()
            out[-1] = TTree(out[-1], right)
        elif node.left is None:
            out.append(subtrees[j])
            j += 1
        else:
            stack += [None, node.right, node.left]
    return out[0]


def _leaf_subtrees(t1: TTree, t2: TTree) -> tuple[list[TTree], list[TTree]]:
    """The subtree of the union of t1 and t2 (the smallest tree containing
    both from the root down) below each leaf of t1, and below each leaf of
    t2, left to right: one walk of the two trees side by side."""
    below1: list[TTree] = []
    below2: list[TTree] = []
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        if a.is_leaf:
            below1.append(b)
            below2 += [LEAF] * b.num_leaves
        elif b.is_leaf:
            below1 += [LEAF] * a.num_leaves
            below2.append(a)
        else:
            stack += [(a.right, b.right), (a.left, b.left)]
    return below1, below2


# Local edits: one descent on the cached leaf counts finds a node, and a path
# copy replaces it, sharing every subtree off the path.
def _find_node(tree: TTree, start: int, count: int) -> tuple[TTree | None, list]:
    """The node of `tree` whose leaves are start .. start+count-1 (None if no
    node has exactly those), and the path down to where it would be, as
    (ancestor, whether the path goes right) pairs."""
    path: list[tuple[TTree, bool]] = []
    node = tree
    if start + count > node.num_leaves:
        return None, path
    while node.num_leaves > count:
        k = node.left.num_leaves
        right = start >= k
        path.append((node, right))
        node, start = (node.right, start - k) if right else (node.left, start)
        if start + count > node.num_leaves:
            return None, path
    return node, path


def _splice(path: list, node: TTree) -> TTree:
    """The tree that `path` (from _find_node) descends, with `node` in place
    of the node at its end; the new nodes are the path's copies."""
    for parent, right in reversed(path):
        node = TTree(parent.left, node) if right else TTree(node, parent.right)
    return node


def common_refinement(p1: DyadicPartition, p2: DyadicPartition) -> DyadicPartition:
    """Coarsest standard dyadic partition refining both inputs."""
    return tree_to_partition(_graft(p1.tree, _leaf_subtrees(p1.tree, p2.tree)[0]))


def refines(coarse: DyadicPartition, fine: DyadicPartition) -> bool:
    """True iff every breakpoint of `coarse` is a breakpoint of `fine`, i.e.
    the tree of `coarse` sits inside the tree of `fine` from the root down."""
    return all(t.is_leaf for t in _leaf_subtrees(coarse.tree, fine.tree)[1])
