"""Exception types shared across the package."""


class ThompsonHoloError(Exception):
    """Base class for all domain errors."""


class NotStandardDyadic(ThompsonHoloError):
    """A partition or interval fails the a/2^n standard-dyadic form."""


class NotARefinement(ThompsonHoloError):
    """fine_grainer called with a target that does not refine the source."""


class NotPerfect(ThompsonHoloError):
    """Tensor fails the perfectness check for some bipartition."""

    def __init__(self, message, bipartition=None, deviation=None):
        super().__init__(message)
        self.bipartition = bipartition
        self.deviation = deviation


class DimensionMismatch(ThompsonHoloError):
    """Tensor legs have unequal dimensions, or a tensor has the wrong number
    of legs for its role."""


class TheoryMismatch(ThompsonHoloError):
    """Two states built from different perfect tensors were combined."""


class ResourceLimit(ThompsonHoloError):
    """A requested size exceeds the configured amplitude cap: an amplitude
    vector, an intermediate of a tensor-network contraction, the image
    points of an approximation level, the chords or points of a
    tessellation's window, or the entries of a tensor file's dims.  The
    message names the input, the size and the cap."""


class EdgeNotFound(ThompsonHoloError):
    """Pachner flip requested on an edge absent from the tessellation."""


class SearchExhausted(ThompsonHoloError):
    """A constructed flip sequence failed the apply_element oracle check.

    The name dates from when flip sequences were searched for.
    """


class LabelNotRepresented(ThompsonHoloError):
    """A vertex or label outside the labelled window, raised by
    `FareyLabeling.label_of` and `vertex_of`."""


class NotMonotone(ThompsonHoloError):
    """Circle map fails the strict-monotonicity check."""


class DegenerateImage(ThompsonHoloError):
    """Two image points of a circle map coincide at sampling resolution."""
