"""Perfect tensors and a small deterministic dense contraction engine.

Tensor entries are complex doubles; exactness lives in the combinatorics.
One kind of network is contracted: the diagram route's two trees of 3-leg
tensors glued leaf to leaf along the boundary (planar, no open legs).  The
BTZ ring is not a network here: `semicontinuous.btz_state` multiplies its
column tensors directly.  `contract` plans first, on leg sizes and
integer labels alone: it merges greedily from a heap of bonded pairs keyed
(result size, older id, newer id), ids numbering pool entries as they are
made, so it takes the first minimum of an all-pairs scan in pool order
without rescanning: a merge changes only the sizes of pairs touching its
result.  Each label has two ends, so self-bonds are traced once, when a
tensor enters the pool, and an entering tensor has at most one partner per
label.  Every planned size is checked against the amplitude cap before any
array is made; the plan then runs as one loop of matrix products, the ones
np.tensordot would make, so the bytes are tensordot's.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotPerfect, ResourceLimit

__all__ = [
    "DenseTensor",
    "PerfectTensorCertificate",
    "TensorNetwork",
    "four_colour_tensor",
    "singlet_tensor",
    "qutrit_code_tensor",
    "builtin_tensor",
    "verify_perfect",
    "normalize_isometry",
    "contract",
    "amplitude_cap",
]

DEFAULT_TOL = 1e-12

DEFAULT_AMPLITUDE_CAP = 2**24


def amplitude_cap() -> int:
    """Largest permitted amplitude-vector length, overridable by env var;
    ValueError unless the override is a positive integer."""
    raw = os.environ.get("THOMPSON_HOLO_MAX_AMPLITUDES")
    if not raw:
        return DEFAULT_AMPLITUDE_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"THOMPSON_HOLO_MAX_AMPLITUDES={raw!r} is not a positive integer")
    return cap


def _check_cap(exponent: int, base: int, what: str = "amplitudes", subject: str = ""):
    """Raise ResourceLimit if base^exponent `what` would exceed the cap.

    For base > 1 an exponent of the cap's bit length or more is over the cap,
    so the power is computed only when it is small."""
    cap = amplitude_cap()
    if (base > 1 and exponent >= cap.bit_length()) or base**exponent > cap:
        raise ResourceLimit(f"{subject}{base}^{exponent} {what} exceed the cap of {cap}")


class DenseTensor:
    """Dense complex tensor; immutable wrapper over a numpy array."""

    __slots__ = ("array",)

    def __init__(self, array):
        arr = np.asarray(array, dtype=complex)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor entries must be finite")
        arr.setflags(write=False)
        self.array = arr

    @property
    def leg_dims(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def num_legs(self) -> int:
        return self.array.ndim

    def __eq__(self, other) -> bool:
        if self is other:  # entries are finite, so a tensor equals itself
            return True
        if not isinstance(other, DenseTensor):
            return NotImplemented
        return self.leg_dims == other.leg_dims and np.array_equal(self.array, other.array)

    def __hash__(self):
        return hash((self.leg_dims, self.array.tobytes()))

    def __repr__(self) -> str:
        return f"DenseTensor(dims={list(self.leg_dims)})"

    def flatten_map(self, in_legs) -> np.ndarray:
        """Matrix of the linear map from the legs `in_legs` to the rest."""
        in_legs = list(in_legs)
        out_legs = [j for j in range(self.num_legs) if j not in in_legs]
        perm = out_legs + in_legs
        din = math.prod(self.leg_dims[j] for j in in_legs)
        return self.array.transpose(perm).reshape(-1, din)

    # -- text file format ---------------------------------------------------

    def to_text(self) -> str:
        lines = ["dims: " + " ".join(str(d) for d in self.leg_dims)]
        for idx in itertools.product(*(range(d) for d in self.leg_dims)):
            v = complex(self.array[idx])
            if v != 0:
                lines.append(
                    " ".join(str(i) for i in idx) + f"  {v.real!r} {v.imag!r}"
                )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "DenseTensor":
        lines = [(num, ln) for num, ln in enumerate(text.splitlines(), 1) if ln.strip()]
        if not lines or not lines[0][1].startswith("dims:"):
            raise ValueError("tensor text must start with a 'dims:' line")
        num, head = lines[0]
        cap = amplitude_cap()
        try:
            dims = tuple(int(tok) for tok in head.split(":", 1)[1].split())
            if min(dims, default=0) < 0:
                raise ValueError(f"dimension {min(dims)} is negative")
            if math.prod(dims) > cap:
                raise ResourceLimit(
                    f"tensor dims {dims}: {math.prod(dims)} entries exceed the cap of {cap}"
                )
            arr = np.zeros(dims, dtype=complex)
            for num, ln in lines[1:]:
                toks = ln.split()
                if len(toks) != len(dims) + 2:
                    raise ValueError(
                        f"expected {len(dims)} indices, a real and an imaginary "
                        f"part, got {len(toks)} fields"
                    )
                idx = tuple(int(t) for t in toks[: len(dims)])
                if not all(0 <= i < d for i, d in zip(idx, dims)):
                    raise ValueError(f"index {idx} is outside the dims {dims}")
                real, imag = float(toks[-2]), float(toks[-1])
                if not (math.isfinite(real) and math.isfinite(imag)):
                    raise ValueError(f"entry {real} {imag} at {idx} is not finite")
                arr[idx] = complex(real, imag)
        except ValueError as exc:
            raise ValueError(f"tensor text line {num}: {exc}") from None
        return cls(arr)


def four_colour_tensor() -> DenseTensor:
    """3-leg, d=3 tensor: entry 1 iff the indices are pairwise distinct."""
    arr = np.zeros((3, 3, 3))
    for j, k, l in itertools.permutations(range(3)):
        arr[j, k, l] = 1.0
    return DenseTensor(arr)


def singlet_tensor() -> DenseTensor:
    """3-leg, d=4 singlet-insertion map; legs are qubit pairs.

    Leg 0 is the input pair (j,k); legs 1 and 2 are the output pairs
    (j, s1) and (s2, k), with (s1, s2) running over the singlet.
    """
    arr = np.zeros((4, 4, 4))
    s = 1.0 / math.sqrt(2.0)
    for j in range(2):
        for k in range(2):
            arr[2 * j + k, 2 * j + 0, 2 * 1 + k] += 0.5 * s
            arr[2 * j + k, 2 * j + 1, 2 * 0 + k] += -0.5 * s
    return DenseTensor(arr)


def qutrit_code_tensor() -> DenseTensor:
    """4-leg, d=3 permutation tensor |x,y> -> |2x+y mod 3, x+y mod 3>."""
    arr = np.zeros((3, 3, 3, 3))
    for x in range(3):
        for y in range(3):
            arr[x, y, (2 * x + y) % 3, (x + y) % 3] = 1.0
    return DenseTensor(arr)


_BUILTINS = {
    "four-colour": four_colour_tensor,
    "singlet": singlet_tensor,
    "qutrit-code": qutrit_code_tensor,
}


def builtin_tensor(name: str) -> DenseTensor:
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise ValueError(
            f"unknown builtin tensor {name!r}; choose from {sorted(_BUILTINS)}"
        ) from None


@dataclass(frozen=True)
class PerfectTensorCertificate:
    tensor: DenseTensor
    normalization: dict  # frozenset of in-leg indices -> proportionality constant
    rotation_invariant: bool

    def constant(self, in_legs) -> float:
        return self.normalization[frozenset(in_legs)]


def _bipartitions(n: int):
    """All index subsets A with 1 <= |A| <= n/2, smaller-first, deterministic."""
    for size in range(1, n // 2 + 1):
        for combo in itertools.combinations(range(n), size):
            yield combo


def verify_perfect(t: DenseTensor) -> PerfectTensorCertificate:
    """Check proportional-isometry across every bipartition; raises NotPerfect."""
    if t.num_legs < 2:
        raise DimensionMismatch(f"a perfect tensor needs at least two legs, got {t.num_legs}")
    dims = set(t.leg_dims)
    if len(dims) != 1:
        raise NotPerfect("all leg dimensions must be equal for perfectness")
    norm2 = float(np.vdot(t.array, t.array).real)
    if not math.isfinite(norm2):
        raise NotPerfect(f"the squared norm {norm2} is not finite", bipartition=())
    if norm2 <= DEFAULT_TOL:
        raise NotPerfect("zero tensor is not perfect", bipartition=())
    constants = {frozenset(): norm2}
    for combo in _bipartitions(t.num_legs):
        m = t.flatten_map(combo)
        gram = m.conj().T @ m
        c = float(np.trace(gram).real) / gram.shape[0]
        deviation = float(np.max(np.abs(gram - c * np.eye(gram.shape[0]))))
        if c <= DEFAULT_TOL or not deviation <= DEFAULT_TOL * max(1.0, c):  # a NaN fails too
            raise NotPerfect(
                f"flattening onto legs {list(combo)} deviates from a scaled "
                f"isometry by {deviation:.3e}",
                bipartition=combo,
                deviation=deviation,
            )
        constants[frozenset(combo)] = c
    rotated = t.array
    rotation_invariant = True
    for _ in range(t.num_legs - 1):
        rotated = np.moveaxis(rotated, 0, -1)
        if np.max(np.abs(rotated - t.array)) > DEFAULT_TOL:
            rotation_invariant = False
            break
    return PerfectTensorCertificate(t, constants, rotation_invariant)


def normalize_isometry(t: DenseTensor, split) -> DenseTensor:
    """Rescale so the flattening with input legs `split` is an exact isometry."""
    cert = verify_perfect(t)
    c = cert.constant(split)
    return DenseTensor(t.array / math.sqrt(c))


# ---------------------------------------------------------------------------
# networks


@dataclass
class TensorNetwork:
    """Contraction graph: tensors per node, bonds between (node, leg) pairs,
    plus an ordered list of open (node, leg) pairs."""

    tensors: list[DenseTensor]
    bonds: list[tuple[tuple[int, int], tuple[int, int]]]
    open_legs: list[tuple[int, int]] = field(default_factory=list)

    def validate(self) -> list[list[int]]:
        """Check the wiring and return each node's leg labels: a bonded leg's
        is its bond's index, open leg j's is len(bonds) + j.  Each tensor's
        shape is read once, into one list, before any check."""
        shapes = [t.array.shape for t in self.tensors]
        labels: list[list[int | None]] = [[None] * len(shape) for shape in shapes]
        for b, ((n1, l1), (n2, l2)) in enumerate(self.bonds):
            for node, leg in ((n1, l1), (n2, l2)):
                if not 0 <= node < len(shapes):
                    raise ValueError(f"bond {b} references missing node {node}")
                if not 0 <= leg < len(shapes[node]):
                    raise ValueError(f"bond {b} references missing leg {leg} of node {node}")
                if labels[node][leg] is not None:
                    raise ValueError(f"leg ({node},{leg}) used more than once")
                labels[node][leg] = b
            if shapes[n1][l1] != shapes[n2][l2]:
                raise DimensionMismatch(
                    f"bond {b} joins legs of dimension {shapes[n1][l1]} and {shapes[n2][l2]}"
                )
        for j, (node, leg) in enumerate(self.open_legs):
            if not (0 <= node < len(labels) and 0 <= leg < len(labels[node])):
                raise ValueError(f"open leg {j} references missing leg ({node},{leg})")
            if labels[node][leg] is not None:
                raise ValueError(f"open leg ({node},{leg}) is also bonded")
            labels[node][leg] = len(self.bonds) + j
        for node, lab in enumerate(labels):
            if None in lab:
                raise ValueError(f"leg ({node},{lab.index(None)}) is neither bonded nor open")
        return labels


def _plan(net: TensorNetwork):
    """Work out `contract`'s greedy order on shapes and labels alone.

    Returns the self-bond traces of the input tensors as (node, axis1,
    axis2); the merges as (i, j, perm_i, (M, K), perm_j, (K, N), result
    shape) over pool ids, the permutations and shapes being None for an
    outer product; and the permutation that puts the open legs in order.
    Every result's size is checked against the amplitude cap here, so an
    over-cap network fails before any array is made.
    """
    labels = net.validate()  # a bond id or an open id per leg; open ids rise with j
    cap = amplitude_cap()

    def check(size: int):
        if size > cap:
            raise ResourceLimit(
                f"a contraction intermediate of {size} entries exceeds the cap of {cap}"
            )

    pool: list[tuple[tuple[int, ...], list[int], int] | None] = []  # (shape, labels, size) by id
    holders: list[list[int]] = [[] for _ in range(len(net.bonds) + len(net.open_legs))]
    heap: list[tuple[int, int, int, int]] = []  # key (result size, older id, newer id), then K
    traces, steps = [], []

    def enter(shape, lab, size):
        new = len(pool)
        shared = {}  # partner id -> product of the dimensions it shares with the new tensor
        for l, d in zip(lab, shape):
            ends = holders[l]
            if ends:  # the label's other end
                old = ends[0]
                shared[old] = shared.get(old, 1) * d
            ends.append(new)
        for old, k in shared.items():
            shape_o, lab_o, size_o = pool[old]
            if k:
                key = size_o * size // (k * k)
            else:  # a bond of dimension 0: multiply the unshared dimensions
                common = set(lab_o).intersection(lab)
                key = math.prod(d for d, l in zip(shape_o + shape, lab_o + lab) if l not in common)
            heapq.heappush(heap, (key, old, new, k))
        pool.append((shape, lab, size))

    for node, t in enumerate(net.tensors):
        shape, lab = t.leg_dims, labels[node]
        if len(set(lab)) != len(lab):
            for l in [l for i, l in enumerate(lab) if l in lab[i + 1 :]]:
                i = lab.index(l)
                j = lab.index(l, i + 1)
                traces.append((node, i, j))
                shape = tuple(d for k, d in enumerate(shape) if k != i and k != j)
                lab = [m for m in lab if m != l]
        enter(shape, lab, math.prod(shape))
    while heap:
        size, i, j, inner = heapq.heappop(heap)
        if pool[i] is None or pool[j] is None:
            continue
        check(size)
        (shape_a, lab_a, size_a), (shape_b, lab_b, size_b) = pool[i], pool[j]
        pool[i] = pool[j] = None
        for l in lab_a:
            holders[l].remove(i)
        for l in lab_b:
            holders[l].remove(j)
        # np.tensordot's layout: a's summed legs last, b's first, in a's order
        keep_a, sum_a, sum_b, lab, shape = [], [], [], [], []
        for k, l in enumerate(lab_a):
            if l in lab_b:
                sum_a.append(k)
                sum_b.append(lab_b.index(l))
            else:
                keep_a.append(k)
                lab.append(l)
                shape.append(shape_a[k])
        keep_b = []
        for k, l in enumerate(lab_b):
            if k not in sum_b:
                keep_b.append(k)
                lab.append(l)
                shape.append(shape_b[k])
        if inner:
            m, n = size_a // inner, size_b // inner
        else:
            m = math.prod(shape[: len(keep_a)])
            n = math.prod(shape[len(keep_a) :])
        shape = tuple(shape)
        steps.append((i, j, keep_a + sum_a, (m, inner), sum_b + keep_b, (inner, n), shape))
        enter(shape, lab, size)

    rest = [k for k, item in enumerate(pool) if item is not None]
    while len(rest) > 1:
        i, j, *rest = rest
        (shape_a, lab_a, size_a), (shape_b, lab_b, size_b) = pool[i], pool[j]
        check(size_a * size_b)
        steps.append((i, j, None, None, None, None, None))
        rest.append(len(pool))
        pool.append((shape_a + shape_b, lab_a + lab_b, size_a * size_b))
    lab = pool[rest[0]][1] if rest else []
    return traces, steps, sorted(range(len(lab)), key=lab.__getitem__)


def contract(net: TensorNetwork) -> DenseTensor:
    """Contract the whole network into a dense tensor over its open legs.

    Greedy: merge the bonded pair with the smallest result, ties going to
    the pair made earliest; then outer-product the disconnected components,
    first two at a time with the product going to the back.  Deterministic.
    The order is planned first, over leg sizes alone, and every result's
    size is checked against the amplitude cap before any array is made;
    the plan then runs as one loop of the matrix products that
    np.tensordot would make.
    """
    traces, steps, order = _plan(net)
    pool = [t.array for t in net.tensors]  # by id; None once used
    for node, i, j in traces:
        pool[node] = np.trace(pool[node], axis1=i, axis2=j)
    for i, j, perm_a, mat_a, perm_b, mat_b, shape in steps:
        a, b = pool[i], pool[j]
        pool[i] = pool[j] = None
        if perm_a is None:
            pool.append(np.multiply.outer(a, b))
        else:
            a, b = a.transpose(perm_a).reshape(mat_a), b.transpose(perm_b).reshape(mat_b)
            pool.append(np.dot(a, b).reshape(shape))
    arr = pool[-1] if pool else np.ones(())
    return DenseTensor(arr.transpose(order))
