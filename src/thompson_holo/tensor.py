"""Perfect tensors and a small deterministic dense contraction engine.

Tensor entries are complex doubles; exactness lives in the combinatorics.
Two networks are contracted: the diagram route's two trees of 3-leg tensors
glued leaf to leaf along the boundary (planar, no open legs), and the BTZ
ring of 4*halfwidth triangles.  `contract` merges greedily from a heap of
bonded pairs keyed (result size, older id, newer id), ids numbering pool
entries as they are made, so it takes the first minimum of an all-pairs scan
in pool order without rescanning: a merge changes only the sizes of pairs
touching its result.  Each label has two ends, so self-bonds are traced once,
when a tensor enters the pool.
"""

from __future__ import annotations

import collections
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
                arr[idx] = complex(float(toks[-2]), float(toks[-1]))
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
    if norm2 <= DEFAULT_TOL:
        raise NotPerfect("zero tensor is not perfect", bipartition=())
    constants = {frozenset(): norm2}
    for combo in _bipartitions(t.num_legs):
        m = t.flatten_map(combo)
        gram = m.conj().T @ m
        c = float(np.trace(gram).real) / gram.shape[0]
        deviation = float(np.max(np.abs(gram - c * np.eye(gram.shape[0]))))
        if c <= DEFAULT_TOL or deviation > DEFAULT_TOL * max(1.0, c):
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

    def validate(self):
        seen: dict[tuple[int, int], int] = {}
        for b, ((n1, l1), (n2, l2)) in enumerate(self.bonds):
            for node, leg in ((n1, l1), (n2, l2)):
                if not 0 <= node < len(self.tensors):
                    raise ValueError(f"bond {b} references missing node {node}")
                if not 0 <= leg < self.tensors[node].num_legs:
                    raise ValueError(f"bond {b} references missing leg {leg} of node {node}")
                if (node, leg) in seen:
                    raise ValueError(f"leg ({node},{leg}) used more than once")
                seen[(node, leg)] = b
            if self.tensors[n1].leg_dims[l1] != self.tensors[n2].leg_dims[l2]:
                raise DimensionMismatch(
                    f"bond {b} joins legs of dimension "
                    f"{self.tensors[n1].leg_dims[l1]} and {self.tensors[n2].leg_dims[l2]}"
                )
        for node, leg in self.open_legs:
            if (node, leg) in seen:
                raise ValueError(f"open leg ({node},{leg}) is also bonded")
            seen[(node, leg)] = -1
        for node, t in enumerate(self.tensors):
            for leg in range(t.num_legs):
                if (node, leg) not in seen:
                    raise ValueError(f"leg ({node},{leg}) is neither bonded nor open")


def contract(net: TensorNetwork) -> DenseTensor:
    """Contract the whole network into a dense tensor over its open legs.

    Greedy: merge the bonded pair with the smallest result, ties going to
    the pair made earliest; then outer-product the disconnected components,
    first two at a time with the product going to the back.  Deterministic.
    Each result's size is checked against the amplitude cap before it is
    allocated.
    """
    net.validate()
    cap = amplitude_cap()

    def check(size: int):
        if size > cap:
            raise ResourceLimit(
                f"a contraction intermediate of {size} entries exceeds the cap of {cap}"
            )

    # label every leg with a bond id or an open id
    labels: dict[tuple[int, int], int] = {}
    for b, (end1, end2) in enumerate(net.bonds):
        labels[end1] = b
        labels[end2] = b
    open_ids = {}
    for j, end in enumerate(net.open_legs):
        labels[end] = len(net.bonds) + j
        open_ids[len(net.bonds) + j] = j

    pool: list[tuple[np.ndarray, list[int]] | None] = []  # by id; None once used
    holders = collections.defaultdict(set)  # label -> ids of live holders
    heap: list[tuple[int, int, int]] = []  # (result size, older id, newer id)

    def enter(arr, lab):
        for l in [l for i, l in enumerate(lab) if l in lab[i + 1 :]]:
            i = lab.index(l)
            arr = np.trace(arr, axis1=i, axis2=lab.index(l, i + 1))
            lab = [m for m in lab if m != l]
        new = len(pool)
        partners = set().union(*(holders[l] for l in lab))
        for l in lab:
            holders[l].add(new)
        for old in partners:
            arr_o, lab_o = pool[old]
            dims = zip(arr_o.shape + arr.shape, lab_o + lab)
            size = math.prod(d for d, l in dims if l not in lab or l not in lab_o)
            heapq.heappush(heap, (size, old, new))
        pool.append((arr, lab))

    for node, t in enumerate(net.tensors):
        enter(t.array, [labels[(node, leg)] for leg in range(t.num_legs)])
    while heap:
        size, i, j = heapq.heappop(heap)
        if pool[i] is None or pool[j] is None:
            continue
        check(size)
        (arr_a, lab_a), (arr_b, lab_b) = pool[i], pool[j]
        pool[i] = pool[j] = None
        for l in lab_a + lab_b:
            holders[l] -= {i, j}
        shared = [l for l in lab_a if l in lab_b]
        axes = ([lab_a.index(l) for l in shared], [lab_b.index(l) for l in shared])
        out = np.tensordot(arr_a, arr_b, axes=axes)
        enter(out, [l for l in lab_a + lab_b if l not in shared])

    rest = [item for item in pool if item is not None]
    while len(rest) > 1:
        (arr_a, lab_a), (arr_b, lab_b), *rest = rest
        check(arr_a.size * arr_b.size)
        rest.append((np.multiply.outer(arr_a, arr_b), lab_a + lab_b))
    arr, lab = rest[0]
    order = sorted(range(len(lab)), key=lambda k: open_ids[lab[k]])
    return DenseTensor(arr.transpose(order))
