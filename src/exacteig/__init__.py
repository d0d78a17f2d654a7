"""exacteig — exact eigenvectors over the Gaussian rationals.

Eigenvectors, Jordan chains, diagonalizations, matrix powers, and
linear-ODE solutions computed in exact ℚ(i) arithmetic. The central
extraction method reads eigenvectors directly off products of shifted
matrices (A − λI) instead of solving linear systems; a classical
null-space oracle is included for independent cross-checking.

Matrices, and vectors as one-column or one-row views of them, hold
integer real and imaginary planes over a common denominator, so
products and fraction-free elimination run on Python ints; single
scalars are pairs of :class:`fractions.Fraction`.
"""

from . import (charmatrix, errors, factorizations, io_json, jordan,
               matrices, scalars, spectra, verification)
from .charmatrix import *
from .errors import *
from .factorizations import *
from .io_json import *
from .jordan import *
from .matrices import *
from .scalars import *
from .spectra import *
from .verification import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = sorted({name for module in (
    charmatrix, errors, factorizations, io_json, jordan, matrices, scalars,
    spectra, verification) for name in module.__all__})
