"""Exact Thompson-group dynamics for holographic states from perfect tensors.

The package re-exports each module's `__all__`.
"""

from .dyadic import *
from .thompson import *
from .tensor import *
from .tessellation import *
from .semicontinuous import *
from .approximation import *
from . import errors

__version__ = "0.1.0"
