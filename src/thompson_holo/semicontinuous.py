"""Cutoff states, fine-graining isometries and the unitary T-action.

A state of the semicontinuous limit is represented by a pair (cutoff,
amplitudes); two representatives are identified when fine-graining to a
common refinement makes them equal.  Fine grainers are tensor networks of a
fixed perfect tensor V, one copy per caret of the refinement, and the group
acts by expanding the element's tree diagram to the cutoff: the range tree is
the image cutoff, and the marker re-anchors the legs cyclically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dyadic import (
    HALF,
    ONE,
    ZERO,
    DyadicPartition,
    StdDyadicInterval,
    TTree,
    _leaf_subtrees,
    common_refinement,
    refines,
)
from .errors import DimensionMismatch, NotARefinement, ResourceLimit, TheoryMismatch
from .tensor import (
    DenseTensor,
    TensorNetwork,
    _check_cap,
    amplitude_cap,
    contract,
    verify_perfect,
)
from .thompson import TreeDiagram, _expand_domain, compose, inverse, reduce_diagram

__all__ = [
    "CutoffState",
    "FineGrainer",
    "BulkKet",
    "BTZState",
    "fine_grainer",
    "vacuum",
    "inner_product",
    "act",
    "vacuum_matrix_element",
    "bulk_inner",
    "gram_matrix",
    "btz_state",
    "entanglement_entropy",
]

BASE_PARTITION = DyadicPartition([ZERO, HALF, ONE])

def _check_three_legs(V: DenseTensor):
    """Every V of the semicontinuous limit fills one triangle: 3 equal legs."""
    dims = V.leg_dims
    if len(dims) != 3 or len(set(dims)) != 1:
        raise DimensionMismatch(
            f"the tensor has {len(dims)} legs of dimensions {dims}; "
            "the semicontinuous limit needs exactly 3 legs of equal dimension"
        )


@functools.lru_cache(maxsize=8)
def _normalized_splitter(V: DenseTensor) -> np.ndarray:
    """The 1->2 isometry W (d^2 x d matrix) cut out of the perfect tensor.

    Cached per tensor and read-only; a tensor that is not perfect raises
    NotPerfect on every call, since exceptions are not cached.
    """
    _check_three_legs(V)
    cert = verify_perfect(V)
    c = cert.constant([0])
    W = np.asarray(V.flatten_map([0])) / math.sqrt(c)
    W.setflags(write=False)
    return W


@dataclass(frozen=True)
class CutoffState:
    """A representative (cutoff, amplitudes) of a semicontinuous-limit state."""

    cutoff: DyadicPartition
    amplitudes: np.ndarray
    tensor: DenseTensor

    def __post_init__(self):
        d = self.tensor.leg_dims[0]
        n = len(self.cutoff)
        arr = np.asarray(self.amplitudes, dtype=complex)
        if arr.shape != (d,) * n:
            arr = arr.reshape((d,) * n)
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class FineGrainer:
    """Isometric embedding from states at `source` to states at `target`.

    `carets` is the exact network description: the set of intervals that get
    split by one copy of V; the composition law is set union of carets.
    """

    source: DyadicPartition
    target: DyadicPartition
    tensor: DenseTensor

    @functools.cached_property
    def carets(self) -> frozenset[StdDyadicInterval]:
        """The internal nodes of the target tree that the source tree lacks."""
        return frozenset(self.target.tree.internal_intervals()) - frozenset(
            self.source.tree.internal_intervals()
        )

    def apply(self, state: CutoffState) -> CutoffState:
        """Fine-grain `state` one caret at a time, each splitter on one leg."""
        if state.cutoff != self.source:
            raise NotARefinement(
                f"state at cutoff {state.cutoff} is not at the grainer's "
                f"source {self.source} (target {self.target})"
            )
        if self.source == self.target:
            return state
        amps = self._grain(state.amplitudes)
        return CutoffState(self.target, amps, state.tensor)

    @property
    def matrix(self) -> np.ndarray:
        """The dense d^m x d^n isometry, for tests: `apply` on every basis vector."""
        d = self.tensor.leg_dims[0]
        n, m = len(self.source), len(self.target)
        if d ** (n + m) > amplitude_cap():
            raise ResourceLimit(
                f"the {d}^{m} x {d}^{n} fine-graining matrix exceeds the cap "
                f"of {amplitude_cap()} entries"
            )
        basis = np.eye(d**n, dtype=complex).reshape((d,) * n + (d**n,))
        return self._grain(basis).reshape(d**m, d**n)

    def _grain(self, amps: np.ndarray) -> np.ndarray:
        """Expand the leading source-leg axes of `amps` into the target legs,
        one splitter W per caret on one leg.

        Source leaves are taken right to left, and below each the right
        child before the left one, so that the axes of the legs not yet
        expanded stay put; trailing axes ride along untouched.
        """
        W = _normalized_splitter(self.tensor)
        d = W.shape[1]
        stack = list(enumerate(_leaf_subtrees(self.source.tree, self.target.tree)))
        while stack:
            axis, tree = stack.pop()
            if tree.is_leaf:
                continue
            shape = amps.shape
            block = amps.reshape(math.prod(shape[:axis]), d, -1)
            amps = (W @ block).reshape(shape[:axis] + (d, d) + shape[axis + 1 :])
            stack += [(axis, tree.left), (axis + 1, tree.right)]
        return amps


def fine_grainer(
    gamma: DyadicPartition, gamma2: DyadicPartition, V: DenseTensor
) -> FineGrainer:
    """The network of V's filling the region between nested cutoffs."""
    if not refines(gamma, gamma2):
        raise NotARefinement(f"{gamma2} does not refine {gamma}")
    _check_cap(len(gamma2), V.leg_dims[0])
    return FineGrainer(gamma, gamma2, V)


def _cup(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex).reshape(-1) / math.sqrt(d)


def vacuum(gamma: DyadicPartition, V: DenseTensor) -> CutoffState:
    """The holographic state of the standard tessellation inside `gamma`."""
    if len(gamma) < 2:
        raise ValueError("the vacuum needs a cutoff with at least two intervals")
    d = V.leg_dims[0]
    base = CutoffState(BASE_PARTITION, _cup(d), V)
    if gamma == BASE_PARTITION:
        return base
    return fine_grainer(BASE_PARTITION, gamma, V).apply(base)


def inner_product(s1: CutoffState, s2: CutoffState) -> complex:
    """<s1|s2> after fine-graining both to a common refinement."""
    if s1.tensor != s2.tensor:
        raise TheoryMismatch("states belong to different theories")
    gamma = common_refinement(s1.cutoff, s2.cutoff)
    a1 = fine_grainer(s1.cutoff, gamma, s1.tensor).apply(s1)
    a2 = fine_grainer(s2.cutoff, gamma, s2.tensor).apply(s2)
    return complex(np.vdot(a1.amplitudes, a2.amplitudes))


def act(f: TreeDiagram, s: CutoffState) -> CutoffState:
    """The unitary action of a Thompson-T element on a cutoff state.

    The cutoff is refined until it contains the domain tree of the reduced
    element, and the element is expanded to that tree: leaf j of the refined
    cutoff then lands on leaf (marker + j) mod n of the range tree, which is
    the image cutoff, so the legs are re-anchored cyclically by the marker.
    """
    f = reduce_diagram(f)
    gamma = common_refinement(s.cutoff, f.domain_partition)
    refined = fine_grainer(s.cutoff, gamma, s.tensor).apply(s)
    f = _expand_domain(f, gamma.tree)
    n = len(gamma)
    perm = [(k - f.marker) % n for k in range(n)]
    return CutoffState(f.range_partition, refined.amplitudes.transpose(perm), s.tensor)


# ---------------------------------------------------------------------------
# matrix elements


def _diagram_matrix_element(f: TreeDiagram, V: DenseTensor) -> complex:
    """Reflect-and-join evaluation of <Omega|pi(f)|Omega> from the reduced
    diagram: ket network from the domain tree, reflected (conjugated) bra
    network from the range tree, leaves joined with the marker offset."""
    f = reduce_diagram(f)
    if f.domain_tree.is_leaf:
        return complex(1.0)
    d = V.leg_dims[0]
    W = _normalized_splitter(V)
    W3 = DenseTensor(W.reshape(d, d, d).transpose(2, 0, 1))  # legs (in, out, out)
    W3c = DenseTensor(np.conj(W3.array))
    nodes: list[DenseTensor] = []
    bonds: list = []
    ket_leaves = _grain_like_side(f.domain_tree, W3, d, nodes, bonds)
    bra_leaves = _grain_like_side(f.range_tree, W3c, d, nodes, bonds)
    n = f.num_leaves
    for j in range(n):
        bonds.append((ket_leaves[j], bra_leaves[(f.marker + j) % n]))
    net = TensorNetwork(nodes, bonds, [])
    value = contract(net)
    return complex(value.array)


def _grain_like_side(tree: TTree, W3: DenseTensor, d: int, nodes, bonds):
    """Wire a cup at the root of `tree` and one copy of W3 (legs in, out,
    out) per internal node below it, numbered parent before children; return
    the open leaf legs, left to right."""
    nodes.append(DenseTensor(np.eye(d) / math.sqrt(d)))
    cup = len(nodes) - 1
    open_legs: list = []
    stack = [(tree.right, (cup, 1)), (tree.left, (cup, 0))]
    while stack:
        node, feed = stack.pop()
        if node.is_leaf:
            open_legs.append(feed)
            continue
        idx = len(nodes)
        nodes.append(W3)
        bonds.append((feed, (idx, 0)))
        stack += [(node.right, (idx, 2)), (node.left, (idx, 1))]
    return open_legs


def vacuum_matrix_element(
    f: TreeDiagram, V: DenseTensor, route: str = "action"
) -> complex:
    """<Omega|pi(f)|Omega> by the action route or the diagram route."""
    if route == "action":
        omega = vacuum(BASE_PARTITION, V)
        return inner_product(omega, act(f, omega))
    if route == "diagram":
        return _diagram_matrix_element(f, V)
    raise ValueError(f"unknown route {route!r}; use 'action' or 'diagram'")


# ---------------------------------------------------------------------------
# bulk kets and the Gram matrix


@dataclass(frozen=True)
class BulkKet:
    """The ket |R,S> of the bulk space, realized as pi((R,S,marker))|Omega>."""

    domain_tree: TTree
    range_tree: TTree
    marker: int = 0

    def element(self) -> TreeDiagram:
        return TreeDiagram(self.domain_tree, self.range_tree, self.marker)

    def state(self, V: DenseTensor) -> CutoffState:
        return act(self.element(), vacuum(BASE_PARTITION, V))


def bulk_inner(k1: BulkKet, k2: BulkKet, V: DenseTensor) -> complex:
    """<R,S|R',S'>: carets are adjoined implicitly by the common refinement
    taken inside the state inner product."""
    return inner_product(k1.state(V), k2.state(V))


def gram_matrix(words, V: DenseTensor) -> np.ndarray:
    """Gram matrix G[i,j] = <Omega|pi(w_i^-1 w_j)|Omega>."""
    words = list(words)
    n = len(words)
    G = np.zeros((n, n), dtype=complex)
    for i, wi in enumerate(words):
        for j, wj in enumerate(words):
            G[i, j] = vacuum_matrix_element(compose(inverse(wi), wj), V)
    return G


# ---------------------------------------------------------------------------
# the BTZ state


@dataclass(frozen=True)
class BTZState:
    """Two-boundary state of the cylinder made by identifying two geodesics.

    Amplitude legs are ordered A legs first, then B legs.
    """

    halfwidth: int
    amplitudes: np.ndarray
    tensor: DenseTensor

    @property
    def num_a(self) -> int:
        return 2 * self.halfwidth

    @property
    def num_b(self) -> int:
        return 2 * self.halfwidth

    @property
    def cut_bonds(self) -> int:
        return 4 * self.halfwidth


def btz_state(halfwidth: int, V: DenseTensor) -> BTZState:
    """Contract the ring of 4*halfwidth triangles of the finite BTZ strip.

    The strip has 2*halfwidth triangle columns between the two identified
    geodesics; each column is two triangles sharing a diagonal, and closing
    the strip into a ring performs the identification.  Even triangles face
    boundary A, odd triangles boundary B.
    """
    if halfwidth < 1:
        raise ValueError("halfwidth must be at least 1")
    _check_three_legs(V)
    d = V.leg_dims[0]
    ntri = 4 * halfwidth
    _check_cap(ntri, d)
    nodes = [V] * ntri
    bonds = []
    open_a, open_b = [], []
    for i in range(ntri):
        # triangle legs: 0 = bond to previous, 1 = boundary, 2 = bond to next
        bonds.append(((i, 2), ((i + 1) % ntri, 0)))
        (open_a if i % 2 == 0 else open_b).append((i, 1))
    net = TensorNetwork(nodes, bonds, open_a + open_b)
    amps = contract(net).array
    norm = np.linalg.norm(amps)
    if norm == 0:
        raise ValueError("BTZ network contracted to zero")
    return BTZState(halfwidth, amps / norm, V)


def entanglement_entropy(state, subsystem) -> float:
    """Von Neumann entropy (natural log) of the reduced state on `subsystem`."""
    amps = np.asarray(state.amplitudes, dtype=complex)
    n = amps.ndim
    sub = sorted(set(subsystem))
    if any(not 0 <= j < n for j in sub):
        raise IndexError("subsystem leg index out of range")
    rest = [j for j in range(n) if j not in sub]
    m = amps.transpose(sub + rest).reshape(
        math.prod(amps.shape[j] for j in sub), -1
    )
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    evals = np.linalg.eigvalsh(rho)
    evals = evals[evals > 1e-14]
    return float(-np.sum(evals * np.log(evals)))
