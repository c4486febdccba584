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
A flip also carries the diff when the parent's is cached.  A tau_0 chord is
named by its window position alone, so the diff is the sorted positions of
the removed chords and the sorted added chords; the flipped edge and the new
chord each join or leave the list their kind names.  The flip path runs on
integers: the edge's ends and the new chord's are read through f or f^-1 as
integer pairs by `evaluate`'s descents, with no interval object built, and
chords order by their ends.  Labels and drawing share one
integer walk of tau_0's intervals (`_farey_walk`), and a render draws
tau_0's window from a table cached per depth (`_window_rows`) of finished
paths, so it draws only the added chords and builds no object per window
chord or per vertex.
"""

from __future__ import annotations

import bisect
import collections
import contextlib
import functools
import json
import math
from dataclasses import dataclass
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
    _lowest_terms,
    _splice,
)
from .errors import EdgeNotFound, LabelNotRepresented, SearchExhausted, ThompsonHoloError
from .tensor import _check_cap
from .thompson import (
    TreeDiagram,
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


@dataclass(frozen=True, order=True)
class Chord:
    """Unordered geodesic between two distinct circle points, stored sorted.
    Chords order by (a, b)."""

    a: DyadicRational
    b: DyadicRational

    def endpoints(self):
        return (self.a, self.b)

    def __str__(self) -> str:
        return f"{self.a}~{self.b}"


def chord(p: DyadicRational, q: DyadicRational) -> Chord:
    p, q = p.mod1(), q.mod1()
    if p == q:
        raise ValueError("a chord needs two distinct circle points")
    return Chord(p, q) if p < q else Chord(q, p)


def interval_chord(iv: StdDyadicInterval) -> Chord:
    return chord(iv.left, iv.right)


def _arc_interval(pn: int, pe: int, qn: int, qe: int) -> tuple[int, int] | None:
    """The tau_0 interval (a, k), [a/2^k, (a+1)/2^k] with k >= 1, whose chord
    joins the distinct circle points pn/2^pe and qn/2^qe of [0, 1), given in
    either order and in lowest terms or not, if any: the arc between them,
    or the arc from one to 1 when the other is 0."""
    return (
        _interval_of(pn, pe, qn, qe)
        or _interval_of(qn, qe, pn, pe)
        or (_interval_of(qn, qe, 1, 0) if pn == 0 else None)
        or (_interval_of(pn, pe, 1, 0) if qn == 0 else None)
    )


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


def _window_interval(i: int) -> tuple[int, int]:
    """(a, k) of the tau_0 interval [a/2^k, (a+1)/2^k] whose chord sits at
    window position i: e0 at 0, then 2^k - 3 + a, level by level."""
    k = (i + 3).bit_length() - 1
    return i + 3 - (1 << k), k


def _window_chord(i: int) -> Chord:
    """The tau_0 chord at window position i."""
    a, k = _window_interval(i)
    return chord(DyadicRational(a, k), DyadicRational(a + 1, k))


def _window_index(c: Chord) -> int | None:
    """The window position of c (`_window_chord`), or None when c is not a
    tau_0 chord."""
    found = _arc_interval(c.a.num, c.a.exp, c.b.num, c.b.exp)
    if found is None:
        return None
    a, k = found
    return (1 << k) - 3 + a if k > 1 else 0


@functools.lru_cache(maxsize=8)
def _standard_window(depth: int) -> tuple[Chord, ...]:
    """The chords of tau_0 at levels <= depth+2, in window order."""
    return tuple(map(_window_chord, range(2 ** (depth + 3) - 3)))


def _pair(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def _chord_pairs(tree: TTree, shift: int, n: int) -> set[tuple[int, int]]:
    """Chords of the non-root internal nodes of a tree with n leaves, as pairs
    of leaf indices (first leaf, one past the last) + shift, mod n.  A node
    of n-1 leaves spans a polygon side and is left out."""
    return {_pair((a + shift) % n, (a + k + shift) % n) for _, a, k in tree._spans() if k < n - 1}


@dataclass(frozen=True)
class Tessellation:
    """Admissible tessellation f(tau_0), stored as the reduced tree diagram f.

    `element` is the f carrying (tau_0, e0) to this tessellation and its doe;
    it must be reduced, as every constructor in this module leaves it, so
    that equal tessellations have equal elements.  `removed` (tau_0 chords
    absent here), `added` (present non-tau_0 chords) and `doe` (the oriented
    distinguished edge) are derived from it and cached; a Pachner flip of a
    tessellation whose diff is cached hands the child its diff, toggling the
    flipped edge and the new chord, instead of deriving it.  `depth`, a
    non-negative int and not a bool, bounds the rendered/enumerated window;
    `flips` is the construction history when known (None after a group
    action).
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
    def _diff(self) -> tuple[tuple[int, ...], tuple[Chord, ...]]:
        """The window positions of the removed tau_0 chords and the added
        chords, both sorted."""
        # Both trees' chords as diagonals of the polygon on the range tree's
        # leaf points, which increase with the index: f(tau_0) keeps tau_0
        # outside the range tree, and inside it has the domain tree's chords
        # turned by the marker.  So sorted index pairs give sorted chords.
        f = self.element
        n = f.num_leaves
        ends = f.range_tree._leaf_ends()
        old = _chord_pairs(f.range_tree, 0, n)
        new = _chord_pairs(f.domain_tree, f.marker, n)

        def chord_of(i: int, j: int) -> Chord:
            return Chord(DyadicRational(*ends[i]), DyadicRational(*ends[j]))

        removed = sorted(_window_index(chord_of(*p)) for p in old - new)
        return tuple(removed), tuple(chord_of(*p) for p in sorted(new - old))

    @functools.cached_property
    def removed(self) -> frozenset[Chord]:
        return frozenset(map(_window_chord, self._diff[0]))

    @functools.cached_property
    def added(self) -> frozenset[Chord]:
        return frozenset(self._diff[1])

    @functools.cached_property
    def doe(self) -> tuple[DyadicRational, DyadicRational]:
        return (evaluate(self.element, ZERO), evaluate(self.element, HALF))

    def _edge_interval(self, c: Chord) -> tuple[int, int]:
        """The tau_0 interval (a, k) whose chord is f^-1(c), both ends read
        by `_evaluate_pair`; EdgeNotFound unless c is an edge here."""
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
        for i in self._diff[0]:
            if i >= len(window):
                break
            out += window[start:i]
            start = i + 1
        out += window[start:] + self._diff[1]
        return out

    def face_apex(self, c: Chord, ccw_from_a: bool) -> DyadicRational:
        """Third vertex of the face adjacent to c on the selected side: f of
        the tau_0 apex beside f^-1(c).  f keeps the orientation, so the side
        swept ccw from c.a to c.b is the side swept ccw from f^-1(c.a), the
        inside of f^-1(c)'s interval when f^-1(c.a) is its left end."""
        a, k = self._edge_interval(c)
        pn, pe = _evaluate_pair(inverse(self.element), c.a.num, c.a.exp)
        inside, outside = _tau0_apexes(a, k)
        side = inside if (pn << k == a << pe) == ccw_from_a else outside
        return DyadicRational(*_evaluate_pair(self.element, *side))

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


def _flip_product(f: TreeDiagram, a: int, k: int) -> TreeDiagram:
    """f r, for r the element with r(tau_0) = tau_0 flipped at the chord of
    iv = [a/2^k, (a+1)/2^k].

    For k >= 2, r is the tree rotation at P: both of its trees are the path
    from the root to P, and its range tree (`_flip_range`) splits iv where
    its domain tree splits iv's sibling.

    The doe flip (k = 1) is the general product `_right_multiply`.  Else one
    descent of f's domain tree along the path to iv, and one rule:
    - Where the descent meets a domain leaf j at level t <= k, graft r's
      range tree below level t (one caret when t = k) under leaf j and under
      its image leaf b = (m + j) mod n: f is unchanged, P and iv are domain
      nodes, and the marker grows with the leaves when b < m.
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
    if k == 1:
        return _right_multiply(f, _DOE_FLIP)
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
            return TreeDiagram(
                _splice(dpath[: len(dpath) - up], LEAF),
                _splice(rpath[: len(rpath) - up], LEAF),
                m - up - 1 if b < m else m,
            )
    return TreeDiagram(_splice(path, rotated), range_tree, m)


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
    in, both read through f by `_evaluate_pair`.  `edge` is an edge of t
    and the new chord crosses it, so each is toggled in the list its kind
    names: the removed positions for a tau_0 chord, else the added chords.
    """
    a, k = t._edge_interval(edge)
    flips = None if t.flips is None else t.flips + (edge,)
    child = Tessellation(t.depth, _flip_product(t.element, a, k), flips)
    if "_diff" in vars(t):
        f = t.element
        new = chord(*(DyadicRational(*_evaluate_pair(f, *x)) for x in _tau0_apexes(a, k)))
        removed, added = t._diff
        for c in (chord(edge.a, edge.b), new):
            if (i := _window_index(c)) is None:
                added = _toggle(added, c)
            else:
                removed = _toggle(removed, i)
        object.__setattr__(child, "_diff", (removed, added))
    return child


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

    @functools.cached_property
    def _by_vertex(self) -> dict:
        return dict(self.vertex_to_label)

    @functools.cached_property
    def _by_label(self) -> dict:
        return {l: v for v, l in self.vertex_to_label}

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
    return FareyLabeling(
        tuple((DyadicRational(num, exp), lx) for num, exp, lx in _farey_walk(t, max_exponent))
    )


def _farey_walk(t: Tessellation, max_exponent: int | None):
    """`farey_labels`' vertices in order, as (num, exp, label) with num/2^exp
    in lowest terms.  The walk runs on integers: a vertex's image is read
    off a range leaf's end or the affine piece of the domain leaf it lies in,
    and the ends of the modified chords, which are labelled past the
    window, are read off the diff's positions and added chords."""
    if max_exponent is None:
        max_exponent = t.depth + 2
    _check_cap(max_exponent, 2, "window points", f"max exponent {max_exponent}: ")
    removed, added = t._diff
    special = {(x.num, x.exp) for c in added for x in c.endpoints()}
    for a, k in map(_window_interval, removed):
        special.update((_lowest_terms(a, k), _lowest_terms((a + 1) % (1 << k), k)))
    f = t.element
    n, m, ends = f.num_leaves, f.marker, f.range_tree._leaf_ends()

    u, v = t.doe
    yield u.num, u.exp, (0, 1)
    yield v.num, v.exp, (1, 0)
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
            x = _lowest_terms(num, k + 1 + rn)  # inside range leaf j + m, so in [0, 1)
        else:  # a domain leaf's left end, sent to a range leaf's left end
            x = _lowest_terms(*ends[(m + j + node.left.num_leaves) % n])
        if x[1] > max_exponent and x not in special:
            continue
        lx = (la[0] + lb[0], la[1] + lb[1])
        yield *x, lx
        sides = [(2 * a, k + 1, la, lx), (2 * a + 1, k + 1, lx, lb)]
        queue.extend(s + (clockwise, node, j, dn) for s in (sides[::-1] if clockwise else sides))


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
    is quadratic only for combs.  The replay starts from tau_0 with no flip
    history, so no flip copies one.  `depth` only sets its window, and a
    negative or non-integer one raises ValueError before any work; the
    sequence does not depend on it.
    """
    start = Tessellation(depth, identity(), None)
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
    points = [DyadicRational(a, k) for a, k in g.range_tree._leaf_ends()]
    seq = [chord(points[i], points[j]) for (i, j), _ in cur.flipped]
    if apply_flips(start, seq).element != f:
        raise SearchExhausted("flip sequence does not reproduce apply_element")
    return seq


# ---------------------------------------------------------------------------
# rendering


def _circle_xy(x, radius: float = 480.0):
    """The point of the circle of `radius` at parameter x, a float or a
    DyadicRational in [0, 1)."""
    th = 2.0 * math.pi * float(x)
    return (500.0 + radius * math.cos(th), 500.0 - radius * math.sin(th))


def _arc_path(p, q) -> str:
    """SVG path for the geodesic between boundary points p and q, each a
    float or a DyadicRational."""
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


def _chord_path(p, q, stroke: str) -> str:
    return f'<path d="{_arc_path(p, q)}" fill="none" {stroke}/>'


_EDGE = 'stroke="black" stroke-width="1"'


@functools.lru_cache(maxsize=8)
def _window_rows(depth: int) -> tuple[tuple[int, int, int, str], ...]:
    """tau_0's window (`_standard_window`) in drawing order, as rows (a, b,
    position, path): the chord's ends a < b as integers over 2^(depth+2),
    its window position and its finished black <path .../> line."""
    e = depth + 2
    rows = []
    for i in range(2 ** (depth + 3) - 3):
        a, k = _window_interval(i)
        p, q = a << (e - k), ((a + 1) << (e - k)) % (1 << e)
        p, q = (p, q) if q else (q, p)  # the chord of [a/2^k, 1] runs from 0
        rows.append((p, q, i, _chord_path(p / (1 << e), q / (1 << e), _EDGE)))
    return tuple(sorted(rows))


def _render_tessellation(t: Tessellation, labels: bool) -> list[str]:
    """The window's edges but the doe, in the order of their ends, then the
    doe and, with `labels`, the Farey labels.  The tau_0 edges are the rows
    of `_window_rows` whose positions are neither removed nor the doe's, and
    each added chord but the doe is drawn and put in by bisection, its ends
    and the rows' read as integers over the finest power of two among them."""
    _check_cap(t.depth + 3, 2, "window chords", f"depth {t.depth}: ")
    rows = _window_rows(t.depth)
    removed, added = t._diff
    doe = t.doe_chord()
    skip = {*removed, _window_index(doe)}
    added = [c for c in added if c != doe]
    e = max([t.depth + 2] + [x.exp for c in added for x in c.endpoints()])
    s = e - t.depth - 2
    parts, start = [], 0
    for c in added:
        at = bisect.bisect(
            rows,
            (c.a.num << (e - c.a.exp), c.b.num << (e - c.b.exp)),
            key=lambda row: (row[0] << s, row[1] << s),
        )
        parts += [row[3] for row in rows[start:at] if row[2] not in skip]
        parts.append(_chord_path(c.a, c.b, _EDGE))
        start = at
    parts += [row[3] for row in rows[start:] if row[2] not in skip]
    parts.append(_chord_path(*t.doe, 'stroke="red" stroke-width="3" marker-end="url(#arrow)"'))
    if labels:
        for num, exp, (p, q) in _farey_walk(t, None):
            x, y = _circle_xy(num / (1 << exp), 455.0)
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
        # A path per interval chord, in the chords' order; a two-interval
        # cutoff draws its diameter twice, and [0, 1], whose ends are one
        # circle point, has no chord.
        parts.append(_DISC)
        chords = sorted(interval_chord(iv) for iv in obj.intervals if iv.n)
        parts += [_chord_path(c.a, c.b, 'stroke="blue" stroke-width="2"') for c in chords]
    else:
        raise TypeError(f"cannot render object of type {type(obj).__name__}")
    parts.append("</svg>")
    return "\n".join(parts)
