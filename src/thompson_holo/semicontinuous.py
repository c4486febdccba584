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
from dataclasses import dataclass, fields

import numpy as np

from .dyadic import (
    HALF,
    ONE,
    ZERO,
    DyadicPartition,
    StdDyadicInterval,
    TTree,
    _leaf_subtrees,
    refines,
    tree_to_partition,
)
from .errors import DimensionMismatch, NotARefinement, TheoryMismatch
from .tensor import (
    DenseTensor,
    TensorNetwork,
    _check_cap,
    amplitude_cap,
    contract,
    normalize_isometry,
)
from .thompson import TreeDiagram, _graft_images, reduce_diagram

__all__ = [
    "CutoffState",
    "FineGrainer",
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
    W = normalize_isometry(V, [0]).flatten_map([0])
    W.setflags(write=False)
    return W


def _set_amplitudes(state, amps, shape=None):
    """Store a read-only complex copy of `amps` on `state`, reshaped to `shape`
    when one is given and differs: no view the caller holds reaches it."""
    arr = np.asarray(amps, dtype=complex)
    if shape is not None and arr.shape != shape:
        arr = arr.reshape(shape)
    arr = arr.copy()
    arr.setflags(write=False)
    object.__setattr__(state, "amplitudes", arr)


def _built(cls, amps: np.ndarray, **fields):
    """A state of class `cls` holding `amps` as it is, frozen in place, with no
    check: for arrays this module has just made, which no caller holds (a
    grained product's base is frozen by `_grain`).  The public constructors
    copy instead."""
    amps.setflags(write=False)
    state = object.__new__(cls)
    state.__dict__.update(fields, amplitudes=amps)
    return state


def _state_eq(self, other) -> bool:
    """States of one class are equal when every field is, the amplitudes
    by value.  A class that assigns this as `__eq__` is not hashable."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
    return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)


@dataclass(frozen=True, eq=False)
class CutoffState:
    """A representative (cutoff, amplitudes) of a semicontinuous-limit state.

    The constructor stores the amplitudes as a read-only complex copy.  Two
    are equal when their cutoffs, tensors and amplitudes are; states are not
    hashable."""

    cutoff: DyadicPartition
    amplitudes: np.ndarray
    tensor: DenseTensor

    def __post_init__(self):
        _set_amplitudes(self, self.amplitudes, (self.tensor.leg_dims[0],) * len(self.cutoff))

    __eq__ = _state_eq

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
        below = _leaf_subtrees(self.source.tree, self.target.tree)[0]
        amps = _grain(state.amplitudes, below, self.tensor)
        return _built(CutoffState, amps, cutoff=self.target, tensor=state.tensor)

    @property
    def matrix(self) -> np.ndarray:
        """The dense d^m x d^n isometry, for tests: `apply` on every basis vector."""
        d = self.tensor.leg_dims[0]
        n, m = len(self.source), len(self.target)
        _check_cap(n + m, d, "fine-graining matrix entries")
        basis = np.eye(d**n, dtype=complex).reshape((d,) * n + (d**n,))
        below = _leaf_subtrees(self.source.tree, self.target.tree)[0]
        return _grain(basis, below, self.tensor).reshape(d**m, d**n)


def _grain(amps: np.ndarray, below: list[TTree], V: DenseTensor) -> np.ndarray:
    """Expand leading axis j of `amps` into the legs of the subtree below[j],
    one splitter W cut out of V per caret, on one leg.

    Leaves are taken right to left, and below each the right child before
    the left one, so that the axes of the legs not yet expanded stay put;
    trailing axes ride along untouched, so stacked kets grain together.  W
    is fetched only when some below[j] has a caret.  When some caret is
    grained, the result views a fresh product whose memory is read-only,
    so a state keeps it (or a transpose of it) without a copy; otherwise
    `amps` is returned as it is (callers pass a state's amplitudes, which
    are read-only already).
    """
    if all(t.is_leaf for t in below):
        return amps
    W = _normalized_splitter(V)
    d = W.shape[1]
    stack = list(enumerate(below))
    while stack:
        axis, tree = stack.pop()
        if tree.is_leaf:
            continue
        shape = amps.shape
        block = amps.reshape(math.prod(shape[:axis]), d, -1)
        amps = (W @ block).reshape(shape[:axis] + (d, d) + shape[axis + 1 :])
        stack += [(axis, tree.left), (axis + 1, tree.right)]
    amps.base.setflags(write=False)
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
    """The root's state on its two legs: the d x d identity over sqrt(d)."""
    return np.eye(d, dtype=complex) / math.sqrt(d)


def vacuum(gamma: DyadicPartition, V: DenseTensor) -> CutoffState:
    """The holographic state of the standard tessellation inside `gamma`."""
    if len(gamma) < 2:
        raise ValueError("the vacuum needs a cutoff with at least two intervals")
    base = _built(CutoffState, _cup(V.leg_dims[0]), cutoff=BASE_PARTITION, tensor=V)
    if gamma == BASE_PARTITION:
        return base
    return fine_grainer(BASE_PARTITION, gamma, V).apply(base)


def inner_product(s1: CutoffState, s2: CutoffState) -> complex:
    """<s1|s2> after fine-graining both to a common refinement."""
    if s1.tensor != s2.tensor:
        raise TheoryMismatch("states belong to different theories")
    below1, below2 = _leaf_subtrees(s1.cutoff.tree, s2.cutoff.tree)
    _check_cap(sum(t.num_leaves for t in below1), s1.tensor.leg_dims[0])
    a1 = _grain(s1.amplitudes, below1, s1.tensor)
    a2 = _grain(s2.amplitudes, below2, s2.tensor)
    return complex(np.vdot(a1, a2))


def act(f: TreeDiagram, s: CutoffState) -> CutoffState:
    """The unitary action of a Thompson-T element on a cutoff state.

    The cutoff is refined until it contains the domain tree of the reduced
    element, and the element is expanded to that tree: leaf j of the refined
    cutoff then lands on leaf (marker + j) mod n of the range tree, which is
    the image cutoff, so the legs are re-anchored cyclically by the marker.
    """
    f = reduce_diagram(f)
    below, below_f = _leaf_subtrees(s.cutoff.tree, f.domain_tree)
    n = sum(t.num_leaves for t in below)
    _check_cap(n, s.tensor.leg_dims[0])
    amps = _grain(s.amplitudes, below, s.tensor)
    range_tree, marker = _graft_images(f.range_tree, f.marker, below_f)
    perm = [(k - marker) % n for k in range(n)]
    return _built(
        CutoffState, amps.transpose(perm), cutoff=tree_to_partition(range_tree), tensor=s.tensor
    )


# ---------------------------------------------------------------------------
# matrix elements


@functools.lru_cache(maxsize=8)
def _diagram_tensors(V: DenseTensor) -> tuple[DenseTensor, DenseTensor, DenseTensor]:
    """The diagram route's node tensors for V: the cup, W3 = the splitter W
    with legs (in, out, out), and its conjugate W3c.  Cached per tensor; a
    tensor that is not perfect raises NotPerfect on every call, since
    exceptions are not cached."""
    W = _normalized_splitter(V)
    d = W.shape[1]
    W3 = DenseTensor(W.reshape(d, d, d).transpose(2, 0, 1))
    return DenseTensor(_cup(d)), W3, DenseTensor(np.conj(W3.array))


def _diagram_matrix_element(f: TreeDiagram, V: DenseTensor) -> complex:
    """Reflect-and-join evaluation of <Omega|pi(f)|Omega> from the reduced
    diagram: ket network from the domain tree, reflected (conjugated) bra
    network from the range tree, leaves joined with the marker offset.
    The cap is read first, as the action route reads it, so that a bad
    override fails here too, even where nothing is contracted."""
    amplitude_cap()
    f = reduce_diagram(f)
    if f.domain_tree.is_leaf:
        return complex(1.0)
    cup, W3, W3c = _diagram_tensors(V)
    nodes: list[DenseTensor] = []
    bonds: list = []
    ket_leaves = _grain_like_side(f.domain_tree, cup, W3, nodes, bonds)
    bra_leaves = _grain_like_side(f.range_tree, cup, W3c, nodes, bonds)
    n = f.num_leaves
    for j in range(n):
        bonds.append((ket_leaves[j], bra_leaves[(f.marker + j) % n]))
    net = TensorNetwork(nodes, bonds, [])
    value = contract(net)
    return complex(value.array)


def _grain_like_side(tree: TTree, cup: DenseTensor, W3: DenseTensor, nodes, bonds):
    """Wire `cup` at the root of `tree` and one copy of W3 (legs in, out,
    out) per internal node below it, numbered parent before children; return
    the open leaf legs, left to right."""
    root = len(nodes)
    nodes.append(cup)
    open_legs: list = []
    stack = [(tree.right, (root, 1)), (tree.left, (root, 0))]
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
# bulk kets pi(f)|Omega> and the Gram matrix


def bulk_inner(f: TreeDiagram, g: TreeDiagram, V: DenseTensor) -> complex:
    """<f|g> for the bulk kets pi(f)|Omega> and pi(g)|Omega>: carets are
    adjoined implicitly by the common refinement taken inside the state
    inner product."""
    omega = vacuum(BASE_PARTITION, V)
    return inner_product(act(f, omega), act(g, omega))


def gram_matrix(words, V: DenseTensor) -> np.ndarray:
    """Gram matrix G[i,j] = <psi_i|psi_j> of the bulk kets
    psi_i = pi(w_i)|Omega>, each built once; G is exactly Hermitian."""
    omega = vacuum(BASE_PARTITION, V)
    kets = [act(w, omega) for w in words]
    G = np.zeros((len(kets), len(kets)), dtype=complex)
    for i, ket in enumerate(kets):
        G[i, i] = inner_product(ket, ket).real
        for j in range(i + 1, len(kets)):
            G[i, j] = inner_product(ket, kets[j])
            G[j, i] = np.conj(G[i, j])
    return G


# ---------------------------------------------------------------------------
# the BTZ state


def _check_halfwidth(halfwidth):
    is_int = isinstance(halfwidth, (int, np.integer)) and not isinstance(halfwidth, bool)
    if not is_int or halfwidth < 1:
        raise ValueError("halfwidth must be at least 1")


@dataclass(frozen=True, eq=False)
class BTZState:
    """Two-boundary state of the cylinder made by identifying two geodesics.

    Amplitude legs are ordered A legs first, then B legs.  The amplitudes
    are invariant under the joint cyclic shift of the A legs and the B legs
    (A leg j to j + 1 and B leg j to j + 1, mod 2*halfwidth): turning the
    ring by two triangles maps it to itself, for any 3-leg V, because every
    triangle carries the same V.  `entanglement_entropy` relies on this for
    the A half and the B half, so a state built by hand must pass one shift
    within 1e-10 of its largest amplitude (`btz_state`'s skips the check),
    and its halfwidth must be an int of at least 1, not a bool.  The
    constructor stores the amplitudes as a read-only complex copy.  Two are
    equal when their halfwidths, tensors and amplitudes are; states are not
    hashable.
    """

    halfwidth: int
    amplitudes: np.ndarray
    tensor: DenseTensor

    def __post_init__(self):
        _check_halfwidth(self.halfwidth)
        _set_amplitudes(self, self.amplitudes)
        amps, n = self.amplitudes, self.num_a
        if amps.ndim != 2 * n:
            raise ValueError(f"halfwidth {self.halfwidth} needs {2 * n} legs, not {amps.ndim}")
        axes = np.roll(np.arange(n), 1)
        shifted, scale = amps.transpose([*axes, *(axes + n)]), np.max(np.abs(amps), initial=0)
        if shifted.shape != amps.shape or np.max(np.abs(shifted - amps), initial=0) > 1e-10 * scale:
            raise ValueError("BTZ amplitudes are not invariant under the joint cyclic shift")

    __eq__ = _state_eq

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
    """The ring of 4*halfwidth triangles of the finite BTZ strip, normalised.

    The strip has 2*halfwidth triangle columns between the two identified
    geodesics; each column is two triangles sharing a diagonal, and closing
    the strip into a ring performs the identification.  Even triangles face
    boundary A, odd triangles boundary B; a triangle's legs are (bond to
    the previous one, boundary, bond to the next one).  The ring is a
    product of transfer matrices: the column tensor
    C[alpha, a, b, gamma] = sum_beta V[alpha, a, beta] V[beta, b, gamma],
    h = halfwidth columns multiplied into a half-ring
    H[alpha, a_0 .. a_(h-1), b_0 .. b_(h-1), gamma], and the two halves
    joined by one matrix product over the two cut bonds, which gives the
    amplitudes as [A1, B1, A2, B2].  One division by the norm writes them
    C-contiguous, A legs first, so each half's matrix in
    `entanglement_entropy` is a view.  The size is checked against the
    amplitude cap before anything is made, and a ring that sums to zero
    raises ValueError.
    """
    _check_halfwidth(halfwidth)
    _check_three_legs(V)
    d = V.leg_dims[0]
    _check_cap(4 * halfwidth, d)
    v, h = V.array, halfwidth
    column = (v.reshape(d * d, d) @ v.reshape(d, d * d)).reshape(d, -1)  # [alpha, (a b gamma)]
    half = column
    for _ in range(h - 1):
        half = half.reshape(-1, d) @ column  # [alpha, a_0, b_0, ..., a_j, b_j, gamma]
    half = half.reshape((d,) * (2 * h + 2))
    legs = [*range(1, 2 * h, 2), *range(2, 2 * h + 1, 2)]  # a_0 .. a_(h-1), b_0 .. b_(h-1)
    left = half.transpose([*legs, 2 * h + 1, 0]).reshape(-1, d * d)
    raw = left @ half.transpose([0, 2 * h + 1, *legs]).reshape(d * d, -1)  # [A1, B1, A2, B2]
    norm = np.linalg.norm(raw)
    if norm == 0:
        raise ValueError("BTZ network contracted to zero")
    amps = np.divide(raw.reshape((d**h,) * 4).transpose(0, 2, 1, 3), norm, order="C")
    amps = amps.reshape((d,) * (4 * h))
    return _built(BTZState, amps, halfwidth=halfwidth, tensor=V)  # invariant by construction


def entanglement_entropy(state, subsystem) -> float:
    """Von Neumann entropy (natural log) of the reduced state on `subsystem`.

    A state whose amplitudes have an imaginary part of exactly zero is read
    in real arithmetic.  The amplitudes are reshaped to a (d_A, d_B) matrix
    m, and rho is formed on the smaller side of the cut, m m^dagger or
    m^dagger m: both have the same nonzero spectrum.  A zero state raises
    ValueError.

    The sector route: when `state` is a BTZState and the subsystem is
    exactly its A legs or exactly its B legs, m commutes with the joint
    cyclic shift, so rho's spectrum is read from one block per momentum
    (`_momentum_blocks`), each about d^n / n wide for n legs of dimension
    d, instead of from one d^n-wide matrix.  m is then the amplitudes as a
    square matrix, transposed for the B half, and neither is copied when
    the amplitudes are C-contiguous; whether the state is real is read from
    the entries the sectors gather, not from a scan of every amplitude.
    """
    amps = state.amplitudes
    n = amps.ndim
    sub = sorted(set(subsystem))
    if any(not 0 <= j < n for j in sub):
        raise IndexError("subsystem leg index out of range")
    if isinstance(state, BTZState) and sub in (
        list(range(state.num_a)),
        list(range(state.num_a, n)),
    ):
        d = amps.shape[0]
        m = amps.reshape(d ** len(sub), -1)
        blocks = _momentum_blocks(m if sub[0] == 0 else m.T, d, len(sub))
    else:
        if not np.any(amps.imag):
            amps = amps.real
        rest = [j for j in range(n) if j not in sub]
        m = amps.transpose(sub + rest).reshape(
            math.prod(amps.shape[j] for j in sub), -1
        )
        rho = m @ m.conj().T if m.shape[0] <= m.shape[1] else m.conj().T @ m
        blocks = [(rho, 1)]
    trace = sum(mult * np.trace(block).real for block, mult in blocks)
    if trace == 0:
        raise ValueError("the entropy of a zero state is undefined")
    entropy = 0.0
    for block, mult in blocks:
        block /= trace
        evals = np.linalg.eigvalsh(block)
        evals = evals[evals > 1e-14]
        entropy -= mult * np.sum(evals * np.log(evals))
    return float(entropy)


@functools.lru_cache(maxsize=8)
def _shift_orbits(d: int, n: int) -> tuple:
    """(reps, images, periods) of the cyclic shift of n legs of dimension d,
    read-only: the least index r_o of each orbit o, images[s, o] =
    shift_s(r_o), and the orbit's period p_o."""
    cube = np.arange(d**n).reshape((d,) * n)
    shifts = np.stack(
        [cube.transpose(np.roll(np.arange(n), s)).reshape(-1) for s in range(n)]
    )
    reps = np.flatnonzero(shifts.min(axis=0) == cube.reshape(-1))
    images = shifts[:, reps]
    periods = n // np.count_nonzero(images == reps, axis=0)
    for table in (reps, images, periods):
        table.setflags(write=False)
    return reps, images, periods


def _momentum_blocks(m: np.ndarray, d: int, n: int) -> list:
    """rho = m m^dagger split into translation sectors, as [(block, count)]
    with each block's spectrum counted `count` times.

    The rows of m are the n legs of dimension d on one side of a state, its
    columns the n legs on the other, and the state is invariant under the
    joint cyclic shift S of both sides: m[S a, S b] = m[a, b], so m maps the
    momentum-k states of the columns to those of the rows.  Orbit o of the
    shift has representative r_o and period p_o (`_shift_orbits`); with
    w = exp(-2 pi i / n), the momentum-k state of o,
    sqrt(p_o) / n * sum_s w^(ks) |shift_s(r_o)>, exists when k p_o = 0
    (mod n), and m's block on those states is

        M_k[o, o'] = sqrt(p_o p_o') / n * sum_s w^(ks) m[r_o, shift_s(r_o')],

    one DFT over s of m at the representatives' rows and the shifts of the
    representatives' columns.  rho commutes with the shift too, and its
    block k is M_k M_k^dagger.  For real m, blocks k and n - k are complex
    conjugates with one spectrum, so only k = 0 ... n/2 are built, and the
    k = 0 and k = n/2 blocks are real.  m counts as real when the gathered
    entries are: every row of m is a shift of a representative's row, so
    no other entry is read.  Their DFT is then two real matrix products,
    one for its real part and one for its imaginary part.
    """
    reps, images, periods = _shift_orbits(d, n)
    orbits = len(reps)
    # [s, (o, o')] = m[r_o, shift_s(r_o')]
    gathered = m[reps[None, :, None], images[:, None, :]].reshape(n, -1)
    real = not np.any(gathered.imag)
    if real:  # spectra is the DFT's real part, imag its imaginary part
        dft = np.fft.rfft(np.eye(n), axis=0)  # dft[k, s] = w^(ks), k = 0 ... n/2
        rows = gathered.real.copy()  # contiguous, so both products run in BLAS
        spectra = (dft.real @ rows).reshape(-1, orbits, orbits)
        imag = (dft.imag @ rows).reshape(-1, orbits, orbits)
    else:
        spectra = np.fft.fft(gathered, axis=0).reshape(n, orbits, orbits)
    weights = np.sqrt(periods / n)
    blocks = []
    for k in range(len(spectra)):
        sel = np.flatnonzero(k * periods % n == 0)
        scale, pick = np.outer(weights[sel], weights[sel]), np.ix_(sel, sel)
        mk = spectra[k][pick] * scale
        if not real:
            blocks.append((mk @ mk.conj().T, 1))
        elif 2 * k % n == 0:
            blocks.append((mk @ mk.T, 1))
        else:
            mk = mk + 1j * (imag[k][pick] * scale)
            blocks.append((mk @ mk.conj().T, 2))
    return blocks
