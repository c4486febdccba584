"""The dyadic tessellation of the disc with a distinguished oriented edge.

Circle points are parameter values in [0,1) (exact dyadic rationals); the
hyperbolic picture only appears in the SVG renderer.  The standard tessellation
tau_0 is infinite, but T acts freely and transitively on the tessellations with
a doe (distinguished oriented edge) that differ from tau_0 in finitely many
chords, so each is f(tau_0, e0) for exactly one reduced tree diagram f, and is
stored as f.  Its diff against tau_0 (the removed and added chords) and its doe
are derived from f; a flip or the group action multiplies f by one element,
editing a few root-to-leaf paths of its trees.  A flip multiplies by the tree
rotation r at the parent P of the flipped chord's tau_0 interval iv, and
every flip but the doe flip makes f r without building r, in O(depth): graft
one path under a domain leaf of f and under its image until P and iv are
domain nodes, then rotate f's domain tree at P in place, with at most one
collapse when nothing was grafted.  The doe flip takes the general product.
A flip also carries the diff when the parent's is cached: one chord goes out
and one comes in, so the child's diff is two sorted-tuple edits.  The window's
gaps, the sorted window indices of the removed chords, ride along the same
way, one index in and one out.  The flip path runs on integers: the edge's
ends and the new chord's are read through f or f^-1 as integer pairs by
`evaluate`'s descents, with no interval object built, and chords compare
their ends as integers.
"""

from __future__ import annotations

import bisect
import collections
import contextlib
import functools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .dyadic import (
    HALF,
    LEAF,
    ZERO,
    DyadicPartition,
    DyadicRational,
    StdDyadicInterval,
    TTree,
    _find_node,
    _interval_of,
    _splice,
)
from .errors import EdgeNotFound, LabelNotRepresented, SearchExhausted, ThompsonHoloError
from .tensor import _check_cap
from .thompson import (
    TreeDiagram,
    _affine_image,
    _evaluate_pair,
    _right_multiply,
    adjoin_caret,
    evaluate,
    identity,
    inverse,
    reduce_diagram,
)

__all__ = [
    "Chord",
    "Tessellation",
    "FareyLabeling",
    "chord",
    "interval_chord",
    "standard_tessellation",
    "pachner_flip",
    "apply_flips",
    "farey_labels",
    "apply_element",
    "flips_realizing",
    "render_svg",
]


@functools.total_ordering
@dataclass(frozen=True)
class Chord:
    """Unordered geodesic between two distinct circle points, stored sorted.
    Chords order by (a, b), compared as integers over the finer power of two."""

    a: DyadicRational
    b: DyadicRational

    def endpoints(self):
        return (self.a, self.b)

    def __lt__(self, other: "Chord") -> bool:
        if not isinstance(other, Chord):
            return NotImplemented
        x, y = self.a, other.a
        if x.num == y.num and x.exp == y.exp:  # canonical, so equal ends
            x, y = self.b, other.b
        d = x.exp - y.exp
        return x.num < y.num << d if d >= 0 else x.num << -d < y.num

    def __str__(self) -> str:
        return f"{self.a}~{self.b}"


def chord(p: DyadicRational, q: DyadicRational) -> Chord:
    p, q = p.mod1(), q.mod1()
    if p == q:
        raise ValueError("a chord needs two distinct circle points")
    return Chord(p, q) if p < q else Chord(q, p)


def interval_chord(iv: StdDyadicInterval) -> Chord:
    return chord(iv.left, iv.right)


def _arc_interval(pn: int, pe: int, qn: int, qe: int) -> tuple[tuple[int, int], bool] | None:
    """The tau_0 interval [a/2^k, (a+1)/2^k] (k >= 1) whose chord joins the
    distinct circle points p = pn/2^pe and q = qn/2^qe of [0, 1), given in
    either order and in lowest terms or not, as ((a, k), whether p is its
    left end), if any: the arc between them, or the arc from one to 1 when
    the other is 0."""
    if ak := _interval_of(pn, pe, qn, qe):
        return ak, True
    if ak := _interval_of(qn, qe, pn, pe):
        return ak, False
    if pn == 0 and (ak := _interval_of(qn, qe, 1, 0)):
        return ak, False
    if qn == 0 and (ak := _interval_of(pn, pe, 1, 0)):
        return ak, True
    return None


def _standard_interval_of(c: Chord) -> tuple[int, int] | None:
    """The tau_0 interval (a, k) whose chord is c, if any."""
    found = _arc_interval(c.a.num, c.a.exp, c.b.num, c.b.exp)
    return found and found[0]


E0 = chord(ZERO, HALF)


def _tau0_apexes(a: int, k: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Third vertices of the two tau_0 faces beside the chord of
    [a/2^k, (a+1)/2^k], as integer pairs (num, exp): inside it (swept
    counterclockwise from a/2^k), its midpoint; then outside it, its
    parent's other end."""
    inside = (2 * a + 1, k + 1)
    if k == 1:  # the other side of e0 is the middle of the complementary half
        return inside, (3 - 2 * a, 2)
    if a % 2 == 0:  # a left child: the parent's right end, 1 for the point 0
        return inside, (a + 2, k)
    return inside, (a - 1, k)


@functools.lru_cache(maxsize=8)
def _standard_window(depth: int) -> tuple[Chord, ...]:
    """The chords of tau_0 at levels <= depth+2: e0, then level by level."""
    return (E0,) + tuple(
        interval_chord(StdDyadicInterval(a, n))
        for n in range(2, depth + 3)
        for a in range(2**n)
    )


def _window_index(c: Chord) -> int:
    """Position in _standard_window of the chord of [a/2^k, (a+1)/2^k]."""
    a, k = _standard_interval_of(c)
    return (1 << k) - 3 + a if k > 1 else 0


def _pair(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def _chord_pairs(tree: TTree, shift: int, n: int) -> set[tuple[int, int]]:
    """Chords of the non-root internal nodes of a tree with n leaves, as pairs
    of leaf indices (first leaf, one past the last) + shift, mod n.  A node
    of n-1 leaves spans a polygon side and is left out."""
    out = set()
    stack = [(tree, 0)]
    while stack:
        node, a = stack.pop()
        if node.is_leaf:
            continue
        k = node.num_leaves
        if k < n - 1:
            out.add(_pair((a + shift) % n, (a + k + shift) % n))
        stack += [(node.left, a), (node.right, a + node.left.num_leaves)]
    return out


@dataclass(frozen=True)
class Tessellation:
    """Admissible tessellation f(tau_0), stored as the reduced tree diagram f.

    `element` is the f carrying (tau_0, e0) to this tessellation and its doe;
    it must be reduced, as every constructor in this module leaves it, so
    that equal tessellations have equal elements.  `removed` (tau_0 chords
    absent here), `added` (present non-tau_0 chords) and `doe` (the oriented
    distinguished edge) are derived from it and cached; a Pachner flip of a
    tessellation whose diff is cached hands the child its diff with one chord
    out and one chord in, instead of deriving it, and its window's gaps
    (`_gaps`) the same way when they are cached.  `depth`, a non-negative
    int and not a bool, bounds the rendered/enumerated window; `flips` is
    the construction history when known (None after a group action).
    """

    depth: int
    element: TreeDiagram
    flips: tuple[Chord, ...] | None = ()

    def __post_init__(self):
        if isinstance(self.depth, bool) or not isinstance(self.depth, int):
            raise ValueError(f"depth must be an int, not {type(self.depth).__name__}")
        if self.depth < 0:
            raise ValueError("depth must be non-negative")

    @functools.cached_property
    def _diff(self) -> tuple[tuple[Chord, ...], tuple[Chord, ...]]:
        # Both trees' chords as diagonals of the polygon on the range tree's
        # leaf points, which increase with the index: f(tau_0) keeps tau_0
        # outside the range tree, and inside it has the domain tree's chords
        # turned by the marker.  So sorted index pairs give sorted chords.
        f = self.element
        n = f.num_leaves
        ends = f.range_tree._leaf_ends()
        old = _chord_pairs(f.range_tree, 0, n)
        new = _chord_pairs(f.domain_tree, f.marker, n)
        return tuple(
            tuple(Chord(DyadicRational(*ends[i]), DyadicRational(*ends[j])) for i, j in sorted(s))
            for s in (old - new, new - old)
        )

    @functools.cached_property
    def _gaps(self) -> tuple[int, ...]:
        """The window indices of the removed chords, sorted: where
        window_edges cuts tau_0's chords."""
        return tuple(sorted(map(_window_index, self._diff[0])))

    @property
    def removed(self) -> frozenset[Chord]:
        return frozenset(self._diff[0])

    @property
    def added(self) -> frozenset[Chord]:
        return frozenset(self._diff[1])

    @functools.cached_property
    def doe(self) -> tuple[DyadicRational, DyadicRational]:
        return (evaluate(self.element, ZERO), evaluate(self.element, HALF))

    def _edge_interval(self, c: Chord) -> tuple[tuple[int, int], bool]:
        """The tau_0 interval (a, k) whose chord is f^-1(c), and whether
        f^-1(c.a) is its left end, both ends read by `_evaluate_pair`;
        EdgeNotFound unless c is an edge here."""
        g = inverse(self.element)
        found = _arc_interval(
            *_evaluate_pair(g, c.a.num, c.a.exp), *_evaluate_pair(g, c.b.num, c.b.exp)
        )
        if found is None:
            raise EdgeNotFound(f"{c} is not an edge of this tessellation")
        return found

    def doe_chord(self) -> Chord:
        return chord(*self.doe)

    def same_tessellation(self, other: "Tessellation") -> bool:
        """Equality as tessellations-with-doe, ignoring depth and history."""
        return self.element == other.element

    # -- enumeration within the depth window --------------------------------

    def window_edges(self) -> list[Chord]:
        """Edges of the depth window: tau_0 levels <= depth+2, minus removed,
        plus every added chord."""
        _check_cap(self.depth + 3, 2, "window chords", f"depth {self.depth}: ")
        window, out, start = _standard_window(self.depth), [], 0
        for i in self._gaps:
            if i >= len(window):
                break
            out += window[start:i]
            start = i + 1
        out += window[start:] + self._diff[1]
        return out

    def face_apex(self, c: Chord, ccw_from_a: bool) -> DyadicRational:
        """Third vertex of the face adjacent to c on the selected side: f of
        the tau_0 apex beside f^-1(c).  f keeps the orientation, so the side
        swept ccw from c.a to c.b is the side swept ccw from f^-1(c.a)."""
        (a, k), p_left = self._edge_interval(c)
        inside, outside = _tau0_apexes(a, k)
        return DyadicRational(
            *_evaluate_pair(self.element, *(inside if p_left == ccw_from_a else outside))
        )

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        if self.flips is None:
            raise ValueError(
                "tessellation has no recorded flip history; "
                "use flips_realizing to recover one"
            )
        return json.dumps(
            {
                "depth": self.depth,
                "doe": [str(self.doe[0]), str(self.doe[1])],
                "flips": [[str(c.a), str(c.b)] for c in self.flips],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Tessellation":
        """Replay to_json's text; an error quotes the file's values as JSON."""
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("tessellation JSON nests too deeply") from None
        if not isinstance(data, dict):
            raise ValueError("tessellation JSON must be an object with 'depth', 'doe' and 'flips'")
        for key in ("depth", "doe"):
            if key not in data:
                raise ValueError(f"tessellation JSON has no {key!r} field")
        depth = data["depth"]
        if not isinstance(depth, int) or isinstance(depth, bool):
            raise ValueError(f"tessellation 'depth' is not an integer: {json.dumps(depth)}")
        flips = data.get("flips", [])
        if not isinstance(flips, list):
            raise ValueError(f"tessellation 'flips' is not a list: {json.dumps(flips)}")
        t = standard_tessellation(depth)
        for k, pq in enumerate(flips):
            with _reading(f"flip {k}"):
                t = pachner_flip(t, chord(*_point_pair(pq)))
        with _reading("'doe'"):
            doe = _point_pair(data["doe"])
        if t.doe != doe:
            want, got = json.dumps(data["doe"]), json.dumps([str(p) for p in t.doe])
            raise ValueError(f"tessellation 'doe' {want} does not match flip history (got {got})")
        return t


@contextlib.contextmanager
def _reading(name: str):
    """Prefix an error raised while reading `name` with it, keeping its type."""
    try:
        yield
    except (ValueError, ThompsonHoloError) as exc:
        raise type(exc)(f"tessellation {name}: {exc}") from exc


def _point_pair(value) -> tuple[DyadicRational, DyadicRational]:
    """Parse a JSON [p, q] pair of dyadic strings."""
    if not (isinstance(value, list) and len(value) == 2 and all(isinstance(x, str) for x in value)):
        raise ValueError(f"not a [p, q] pair of strings: {json.dumps(value)}")
    return DyadicRational.parse(value[0]), DyadicRational.parse(value[1])


def standard_tessellation(depth: int) -> Tessellation:
    """tau_0 with doe from 0 to 1/2, rendered to `depth` triangle layers."""
    return Tessellation(depth, identity(), ())


_QUAD = TTree(TTree(LEAF, LEAF), TTree(LEAF, LEAF))
# The doe flip of tau_0: the quad (0, 1/4, 1/2, 3/4) gets the diagonal
# 3/4 -> 1/4 as its doe, so this element has order 4.
_DOE_FLIP = TreeDiagram(_QUAD, _QUAD, 3)


def _flip_range(a: int, k: int, top: int) -> TTree:
    """r's range tree below the node of level `top` on the path to P: the
    path from it down to P, ending in the caret that splits the interval."""
    caret = TTree(LEAF, LEAF)
    tree = TTree(LEAF, caret) if a % 2 else TTree(caret, LEAF)
    for j in range(1, k - top):  # up the path from P to level `top`
        tree = TTree(tree, LEAF) if (a >> j) % 2 == 0 else TTree(LEAF, tree)
    return tree


def _flip_product(f: TreeDiagram, a: int, k: int):
    """f r, for r the element with r(tau_0) = tau_0 flipped at the chord of
    iv = [a/2^k, (a+1)/2^k], and a map of integer pairs (num, exp) that
    agrees with f (`_evaluate_pair`) on the closure of iv's parent P.

    For k >= 2, r is the tree rotation at P: both of its trees are the path
    from the root to P, and its range tree (`_flip_range`) splits iv where
    its domain tree splits iv's sibling.

    The doe flip (k = 1) is the general product `_right_multiply`.  Else one
    descent of f's domain tree along the path to iv, and one rule:
    - Where the descent meets a domain leaf j at level t <= k, graft r's
      range tree below level t (one caret when t = k) under leaf j and under
      its image leaf b = (m + j) mod n: f is unchanged, P and iv are domain
      nodes, and the marker grows with the leaves when b < m.  P lies in
      leaf j's affine piece of f when t < k, which the returned map is.
    - Rotate the domain tree at P in place, ((T1, T2), T3) <-> (T1, (T2, T3)).
      After a graft nothing reduces: iv's halves are no longer a domain
      caret, yet every range node over the image of one half and another
      leaf holds their grafted caret.  Else reduce locally as in
      `_right_multiply`: the candidates are the new inner node, the rotated P
      and P's ancestors, for as long as every leaf below is a leaf of f's
      domain tree: a chain of nested nodes, and a candidate can match its
      image only if the one below it does.  So one descent of the range tree
      to the inner node's image, walked back up, finds the largest match,
      the only collapse.
    """
    image = functools.partial(_evaluate_pair, f)
    if k == 1:
        return _right_multiply(f, _DOE_FLIP), image
    n, m, range_tree = f.num_leaves, f.marker, f.range_tree
    node, path, j, grown = f.domain_tree, [], 0, 0  # the path to iv, and its first leaf
    for t in range(k + 1):
        if node.left is None:  # domain leaf j at level t holds iv: graft
            node = _flip_range(a, k, t) if t < k else TTree(LEAF, LEAF)
            b = (m + j) % n
            range_tree = _splice(_find_node(range_tree, b, 1)[1], node)
            grown = node.num_leaves - 1
            m += grown if b < m else 0
            if t < k:
                piece = (a >> (k - t), t, *f.range_tree._leaf_of_index(b))
                image = lambda num, exp: _affine_image(num, exp, *piece)
        if t < k:
            right = (a >> (k - 1 - t)) & 1
            path.append((node, right))
            node, j = (node.right, j + node.left.num_leaves) if right else (node.left, j)
    P, iv_right = path.pop()
    if iv_right:  # (T1, (T2, T3)) -> ((T1, T2), T3), inner at P's first leaf
        inner = TTree(P.left, node.left)
        rotated = TTree(inner, node.right)
        j -= P.left.num_leaves
    else:  # ((T1, T2), T3) -> (T1, (T2, T3)), inner at leaf j + |T1|
        inner = TTree(node.right, P.right)
        rotated = TTree(node.left, inner)
        j += node.left.num_leaves
    if not grown and inner.num_leaves == 2:
        b = (m + j) % n
        match, rpath = _find_node(range_tree, b, 2)
        if match is not None:
            # up from the inner node while both chains go the same way past a leaf
            dpath, up = path + [(rotated, not iv_right)], 0
            for (dn, dright), (rn, rright) in zip(reversed(dpath), reversed(rpath)):
                dsib, rsib = dn.left if dright else dn.right, rn.left if rright else rn.right
                if dright != rright or dsib.left is not None or rsib.left is not None:
                    break
                up += 1
            # Range leaf m, domain leaf 0's image, starts the collapsed block
            # or lies outside it; so the block starts before m when b does.
            product = TreeDiagram(
                _splice(dpath[: len(dpath) - up], LEAF),
                _splice(rpath[: len(rpath) - up], LEAF),
                m - up - 1 if b < m else m,
            )
            return product, image
    return TreeDiagram(_splice(path, rotated), range_tree, m), image


def pachner_flip(t: Tessellation, edge: Chord) -> Tessellation:
    """Replace the diagonal `edge` with the opposite diagonal of its quad.

    Flipping the doe carries it to the new diagonal rotated clockwise, so
    four doe flips restore the original tessellation-with-doe.  A flip
    commutes with the action, so with t = f(tau_0) the result is f r(tau_0),
    for the r that makes the same flip at f^-1(edge) = [a/2^k, (a+1)/2^k] in
    tau_0, a tree rotation at its parent P (`_flip_product`).  f is reduced,
    and for every flip but the doe flip f r is a local O(depth) edit of f's
    trees, with r never built: a path grafted under a domain leaf and its
    image until P and f^-1(edge) are domain nodes, then a rotation in place
    at P and at most one collapse.  The doe flip goes through the general
    product `_right_multiply`, also path copies.  When t's diff is cached,
    the child's is carried: `edge` goes out, and f of the opposite diagonal
    of f^-1(edge)'s quad in tau_0, the chord of its two tau_0 apexes, comes
    in; after a graft above f^-1(edge)'s level both images are read off the
    affine piece of f holding P, with no descent.  The window's gaps, the
    sorted window indices of the removed chords, are carried the same way
    when cached: an index goes in when `edge` joins the removed chords, and
    one goes out when the new chord leaves them.
    """
    (a, k), _ = t._edge_interval(edge)
    flips = None if t.flips is None else t.flips + (edge,)
    element, image = _flip_product(t.element, a, k)
    child = Tessellation(t.depth, element, flips)
    if "_diff" in vars(t):
        gone = chord(edge.a, edge.b)
        new = chord(*(DyadicRational(*image(*x)) for x in _tau0_apexes(a, k)))
        removed, added = t._diff
        added, removed, was_added = _drop_or_insert(added, removed, gone)
        removed, added, was_removed = _drop_or_insert(removed, added, new)
        object.__setattr__(child, "_diff", (removed, added))
        if "_gaps" in vars(t):
            gaps = t._gaps
            if not was_added:
                gaps = _toggle(gaps, _window_index(gone))
            if was_removed:
                gaps = _toggle(gaps, _window_index(new))
            object.__setattr__(child, "_gaps", gaps)
    return child


def _drop_or_insert(source: tuple[Chord, ...], target: tuple[Chord, ...], c: Chord):
    """Drop c from the sorted tuple `source` if it is there, else insert it
    into the sorted tuple `target`; returns both, and whether c was dropped."""
    i = bisect.bisect_left(source, c)
    if i < len(source) and source[i] == c:
        return source[:i] + source[i + 1 :], target, True
    j = bisect.bisect_left(target, c)
    return source, target[:j] + (c,) + target[j:], False


def _toggle(items: tuple, x) -> tuple:
    """The sorted tuple `items` with x dropped if it is there, else inserted."""
    i = bisect.bisect_left(items, x)
    if i < len(items) and items[i] == x:
        return items[:i] + items[i + 1 :]
    return items[:i] + (x,) + items[i:]


def apply_flips(t: Tessellation, edges) -> Tessellation:
    for e in edges:
        t = pachner_flip(t, e)
    return t


def apply_element(t: Tessellation, f: TreeDiagram) -> Tessellation:
    """Image tessellation f(t): with t = h(tau_0), it is (f h)(tau_0), read
    as (f h)^-1 = h^-1 f^-1, a few path edits of the reduced h^-1's trees."""
    return Tessellation(t.depth, inverse(_right_multiply(inverse(t.element), inverse(f))), None)


# ---------------------------------------------------------------------------
# Farey labels


@dataclass(frozen=True)
class FareyLabeling:
    """Bidirectional map between represented vertices and Farey labels p/q."""

    vertex_to_label: tuple  # of (vertex, (p, q)) pairs
    _by_vertex: dict = field(default=None, compare=False, repr=False)
    _by_label: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_by_vertex", dict(self.vertex_to_label))
        object.__setattr__(
            self, "_by_label", {l: v for v, l in self.vertex_to_label}
        )

    def label_of(self, vertex: DyadicRational) -> tuple[int, int]:
        if (label := self._by_vertex.get(vertex.mod1())) is None:
            raise LabelNotRepresented(f"vertex {vertex.mod1()} not represented")
        return label

    def vertex_of(self, label) -> DyadicRational:
        label = _normalize_label(label)
        if label not in self._by_label:
            raise LabelNotRepresented(f"label {label[0]}/{label[1]} not represented")
        return self._by_label[label]

    def vertices(self):
        return list(self._by_vertex)


def _normalize_label(label) -> tuple[int, int]:
    if isinstance(label, Fraction):
        return (label.numerator, label.denominator)
    p, q = label
    g = math.gcd(p, q)
    if g > 1:
        p, q = p // g, q // g
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return (p, q)


def farey_labels(t: Tessellation, max_exponent: int | None = None) -> FareyLabeling:
    """Mediant labelling seeded by the doe: start 0/1, end 1/0, right face 1/1.

    These are tau_0's labels carried by f, for t = f(tau_0); f keeps
    orientation.  Off e0 the faces of tau_0 are the standard intervals, each
    entered across its chord, with its apex at its midpoint and its halves as
    its other two sides.  A vertex is labelled while its dyadic exponent stays
    within the window (depth + 2 by default) or it touches a modified chord.
    """
    if max_exponent is None:
        max_exponent = t.depth + 2
    _check_cap(max_exponent, 2, "window points", f"max exponent {max_exponent}: ")
    special = {x for m in t._diff[0] + t._diff[1] for x in m.endpoints()}
    f = t.element
    n, m, ends = f.num_leaves, f.marker, f.range_tree._leaf_ends()

    u, v = t.doe
    out = [(u, (0, 1)), (v, (1, 0))]
    # (interval [a/2^k, (a+1)/2^k], its ends' labels, whether the walk meets
    # them clockwise, the parent interval's domain node, first leaf and level);
    # the left face of e0 sees 1/0 as -1/0, so its labels come out negative.
    # Both ends have |p q' - p' q| = 1, and so does a mediant with each end:
    # every label is already in lowest terms with q >= 0.
    queue = collections.deque([
        (0, 1, (0, 1), (1, 0), False, f.domain_tree, 0, 0),
        (1, 1, (-1, 0), (0, 1), True, f.domain_tree, 0, 0),
    ])
    while queue:
        a, k, la, lb, clockwise, node, j, dn = queue.popleft()
        if not node.is_leaf:  # the child holding this interval
            node, j, dn = (node.right, j + node.left.num_leaves, k) if a % 2 else (node.left, j, k)
        if node.is_leaf:  # inside one domain leaf: its affine piece, as in evaluate
            ra, rn = ends[(m + j) % n]
            num = ((2 * a + 1) << dn) + ((ra - (a >> (k - dn))) << (k + 1))
            x = DyadicRational(num, k + 1 + rn)  # inside range leaf j + m, so in [0, 1)
        else:  # a domain leaf's left end, sent to a range leaf's left end
            x = DyadicRational(*ends[(m + j + node.left.num_leaves) % n])
        if x.exp > max_exponent and x not in special:
            continue
        lx = (la[0] + lb[0], la[1] + lb[1])
        out.append((x, lx))
        sides = [(2 * a, k + 1, la, lx), (2 * a + 1, k + 1, lx, lb)]
        queue.extend(s + (clockwise, node, j, dn) for s in (sides[::-1] if clockwise else sides))
    return FareyLabeling(tuple(out))


# ---------------------------------------------------------------------------
# flip sequences realizing group elements
#
# tau_0 and f(tau_0) differ only inside the polygon on the range tree's leaf
# breakpoints, numbered 0..n-1 by leaf index.  There tau_0 is the range tree's
# triangulation with doe (0, k_S), and f(tau_0) is the domain tree's
# triangulation turned by the marker m, with doe (m, m + k_R).  Tree rotations
# are diagonal flips (Sleator-Tarjan-Thurston), so the flip sequence is built
# from the tree pair instead of searched for.


def _between(x: int, a: int, b: int, n: int) -> bool:
    """Polygon vertex x strictly inside the ccw arc from a to b."""
    return 0 < (x - a) % n < (b - a) % n


class _Triangulation:
    """Triangulated convex n-gon with an oriented doe, recording its flips.
    `adjacent[v]` holds every vertex joined to v, by a side or a diagonal."""

    def __init__(self, n: int, diagonals: set, doe: tuple[int, int]):
        self.n, self.doe = n, doe
        self.adjacent = [{(v - 1) % n, (v + 1) % n} for v in range(n)]
        for i, j in diagonals:
            self.adjacent[i].add(j)
            self.adjacent[j].add(i)
        self.flipped: list[tuple[tuple[int, int], tuple[int, int]]] = []

    def apex(self, i: int, j: int) -> int:
        """Third vertex of the triangle on edge (i, j), ccw from i to j: the
        one common neighbour of i and j strictly inside that arc."""
        small, large = sorted((self.adjacent[i], self.adjacent[j]), key=len)
        [k] = [k for k in small if k in large and _between(k, i, j, self.n)]
        return k

    def flip(self, edge: tuple[int, int]) -> None:
        """The pachner_flip rule: quad (u, a, v, b) with doe u->v gets b->a."""
        i, j = edge
        a, b = self.apex(i, j), self.apex(j, i)
        self.adjacent[i].remove(j)
        self.adjacent[j].remove(i)
        self.adjacent[a].add(b)
        self.adjacent[b].add(a)
        if self.doe == (i, j):
            self.doe = (b, a)
        self.flipped.append((_pair(i, j), _pair(a, b)))

    def fan(self, p: int) -> None:
        """Flip until p is joined to every vertex on its side of the doe:
        walk p's neighbours ccw, flipping the far side of each triangle at p
        that is a diagonal other than the doe; the flip joins p to the apex
        beyond it, which is walked next."""
        n = self.n
        ahead = sorted(self.adjacent[p], key=lambda q: (p - q) % n)  # next ccw on top
        a = ahead.pop()
        while ahead:
            b = ahead[-1]
            if (b - a) % n > 1 and _pair(a, b) != _pair(*self.doe):
                self.flip((a, b))
                ahead.append(sum(self.flipped[-1][1]) - p)
            else:
                a = ahead.pop()

    def move_doe(self, target: tuple[int, int]) -> None:
        """Flip the doe onto `target`, a diagonal crossing it."""
        for p in target:
            self.fan(p)
        self.flip(self.doe)


def _split_root_children(f: TreeDiagram) -> TreeDiagram:
    """Add carets until both root children of both trees are internal, so
    that both does are diagonals of the polygon."""
    while True:
        n = f.num_leaves
        for tree, offset in ((f.domain_tree, 0), (f.range_tree, -f.marker)):
            if tree.is_leaf or tree.left.is_leaf:
                leaf = 0
            elif tree.right.is_leaf:
                leaf = n - 1
            else:
                continue
            f = adjoin_caret(f, (leaf + offset) % n)
            break
        else:
            return f


def flips_realizing(f: TreeDiagram, depth: int) -> list[Chord]:
    """A flip sequence carrying (tau_0, e0) to apply_element(tau_0, f).

    Built from the tree pair of f on the range tree's polygon of n leaves:
    flip the doe onto the target doe's chord (through one diagonal crossing
    both when the two do not cross), flip to the fan at the target doe's start
    and on to the target triangulation, then flip the doe twice if it points
    the wrong way.  That is at most about 4n flips, and the same f always gets
    the same sequence.  Every returned sequence is checked against the
    apply_element oracle, replaying each flip as a local O(depth) edit of the
    element: a rotation of its domain tree in place, after a path graft
    when the flipped interval's parent or the interval is not yet a domain
    node, and the general product, itself path copies, for the at most four
    doe flips.  So the whole costs O(n * depth) for the trees' depth, which
    is quadratic only for combs.  `depth` only sets the window of the
    standard tessellation that the replay starts from, and a negative or
    non-integer one raises ValueError before any work; the sequence does not
    depend on it.
    """
    start = standard_tessellation(depth)
    f = reduce_diagram(f)
    g = _split_root_children(f)
    n, m = g.num_leaves, g.marker
    cur = _Triangulation(
        n, _chord_pairs(g.range_tree, 0, n), (0, g.range_tree.left.num_leaves)
    )
    goal = _Triangulation(
        n, _chord_pairs(g.domain_tree, m, n), (m, (m + g.domain_tree.left.num_leaves) % n)
    )
    (u, v), (p, q) = cur.doe, goal.doe
    if _pair(u, v) != _pair(p, q):
        if len({u, v, p, q}) < 4 or _between(p, u, v, n) == _between(q, u, v, n):
            # the does do not cross: with both chords in ccw order x, y, s, t,
            # the diagonal (x+1, s+1) crosses each of them
            x, y = (v, u) if _between(p, u, v, n) or _between(q, u, v, n) else (u, v)
            s = min((p, q), key=lambda z: (z - y) % n)
            cur.move_doe(((x + 1) % n, (s + 1) % n))
        cur.move_doe(goal.doe)
    cur.fan(p)
    goal.fan(p)
    for _, new in reversed(goal.flipped):
        cur.flip(new)
    if cur.doe != goal.doe:
        cur.flip(cur.doe)
        cur.flip(cur.doe)
    points = [iv.left for iv in g.range_tree.leaf_intervals()]
    seq = [chord(points[i], points[j]) for (i, j), _ in cur.flipped]
    if apply_flips(start, seq).element != f:
        raise SearchExhausted("flip sequence does not reproduce apply_element")
    return seq


# ---------------------------------------------------------------------------
# rendering


def _circle_xy(x: DyadicRational, radius: float = 480.0):
    th = 2.0 * math.pi * float(x)
    return (500.0 + radius * math.cos(th), 500.0 - radius * math.sin(th))


def _arc_path(p: DyadicRational, q: DyadicRational) -> str:
    """SVG path for the geodesic between boundary points p and q."""
    x1, y1 = _circle_xy(p)
    x2, y2 = _circle_xy(q)
    delta = abs(float(p) - float(q)) % 1.0
    delta = min(delta, 1.0 - delta)
    if abs(delta - 0.5) < 1e-12:
        return f"M {x1:.3f} {y1:.3f} L {x2:.3f} {y2:.3f}"
    r = 480.0 * math.tan(math.pi * delta)
    # sweep so the arc bends toward the disc centre
    cross = (x1 - 500.0) * (y2 - 500.0) - (y1 - 500.0) * (x2 - 500.0)
    sweep = 1 if cross < 0 else 0
    return f"M {x1:.3f} {y1:.3f} A {r:.3f} {r:.3f} 0 0 {sweep} {x2:.3f} {y2:.3f}"


def _chord_paths(chords: list[Chord], stroke: str, doe: Chord | None = None) -> list[str]:
    """A path per chord but the doe, in the exact order of the chords' ends,
    each read as an integer numerator over one power of two.  A chord given
    twice, as a two-interval cutoff gives its diameter, is drawn twice."""
    e = max(x.exp for c in chords + [doe] if c for x in c.endpoints())

    def key(c: Chord) -> tuple[int, int]:
        return c.a.num << (e - c.a.exp), c.b.num << (e - c.b.exp)

    skip = doe and key(doe)
    keyed = [(k, c) for k, c in sorted((key(c), c) for c in chords) if k != skip]
    return [f'<path d="{_arc_path(c.a, c.b)}" fill="none" {stroke}/>' for _, c in keyed]


def _render_tessellation(t: Tessellation, labels: bool) -> list[str]:
    parts = _chord_paths(t.window_edges(), 'stroke="black" stroke-width="1"', t.doe_chord())
    u, v = t.doe
    parts.append(
        f'<path d="{_arc_path(u, v)}" fill="none" stroke="red" '
        'stroke-width="3" marker-end="url(#arrow)"/>'
    )
    if labels:
        for vert, (p, q) in farey_labels(t).vertex_to_label:
            x, y = _circle_xy(vert, 455.0)
            parts.append(
                f'<text x="{x:.1f}" y="{y:.1f}" font-size="14" '
                f'text-anchor="middle">{p}/{q}</text>'
            )
    return parts


def _render_tree(tree, x0: float, x1: float, y: float, parts: list[str]):
    """Draw `tree` in the strip x0..x1 from height y down, parent before
    children, left before right: each node gets the edge from its parent
    and each leaf a dot.  An explicit stack, for deep trees."""
    stack = [(tree, x0, x1, y, None)]
    while stack:
        node, x0, x1, y, parent = stack.pop()
        xm = (x0 + x1) / 2.0
        if parent is not None:
            px, py = parent
            parts.append(
                f'<line x1="{px:.2f}" y1="{py:.2f}" x2="{xm:.2f}" y2="{py + 60:.2f}" '
                'stroke="black" stroke-width="1.5"/>'
            )
        if node.is_leaf:
            parts.append(f'<circle cx="{xm:.2f}" cy="{y:.2f}" r="4" fill="black"/>')
        else:
            below = y + 60.0
            stack += [(node.right, xm, x1, below, (xm, y)), (node.left, x0, xm, below, (xm, y))]


_DISC = '<circle cx="500" cy="500" r="480" fill="none" stroke="gray" stroke-width="2"/>'


def render_svg(obj, labels: bool = False) -> str:
    """Deterministic SVG for a Tessellation, TreeDiagram or DyadicPartition."""
    header = (
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1000 1000">'
        '<defs><marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="7" markerHeight="7" orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z" fill="red"/></marker></defs>'
    )
    parts = [header]
    if isinstance(obj, Tessellation):
        parts.append(_DISC)
        parts.extend(_render_tessellation(obj, labels))
    elif isinstance(obj, TreeDiagram):
        for tree, x0 in ((obj.domain_tree, 20.0), (obj.range_tree, 520.0)):
            _render_tree(tree, x0, x0 + 460.0, 100.0, parts)
        parts.append(
            f'<text x="500" y="60" font-size="20" text-anchor="middle">'
            f"marker {obj.marker}</text>"
        )
    elif isinstance(obj, DyadicPartition):
        parts.append(_DISC)
        chords = [interval_chord(iv) for iv in obj.intervals]
        parts.extend(_chord_paths(chords, 'stroke="blue" stroke-width="2"'))
    else:
        raise TypeError(f"cannot render object of type {type(obj).__name__}")
    parts.append("</svg>")
    return "\n".join(parts)
