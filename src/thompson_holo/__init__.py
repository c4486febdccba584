"""Exact Thompson-group dynamics for holographic states from perfect tensors."""

from .dyadic import (
    DyadicPartition,
    DyadicRational,
    StdDyadicInterval,
    TTree,
    common_refinement,
    refines,
    tree_to_partition,
)
from .thompson import (
    TreeDiagram,
    compose,
    evaluate,
    generator,
    identity,
    inverse,
    parse_word,
    random_element,
    reduce_diagram,
)
from .tensor import (
    DenseTensor,
    TensorNetwork,
    builtin_tensor,
    contract,
    four_colour_tensor,
    normalize_isometry,
    qutrit_code_tensor,
    singlet_tensor,
    verify_perfect,
)
from .tessellation import (
    Chord,
    Tessellation,
    apply_element,
    apply_flips,
    chord,
    farey_labels,
    flips_realizing,
    pachner_flip,
    render_svg,
    standard_tessellation,
)
from .semicontinuous import (
    BTZState,
    BulkKet,
    CutoffState,
    FineGrainer,
    act,
    btz_state,
    bulk_inner,
    entanglement_entropy,
    fine_grainer,
    gram_matrix,
    inner_product,
    vacuum,
    vacuum_matrix_element,
)
from .approximation import (
    ApproximationResult,
    CircleMap,
    approximate,
    mobius_map,
    parse_map,
    rotation_map,
    sup_norm_error,
)
from . import errors

__version__ = "0.1.0"
