"""Exception hierarchy for exacteig.

Every error raised on bad input or a violated contract derives from
:class:`ExactEigError`, so callers can catch one base class at API
boundaries (the CLI maps subclasses to exit codes).
"""

__all__ = [
    "AllRowsParallel",
    "Defective",
    "DigitLimitExceeded",
    "DimensionMismatch",
    "DivisionByZero",
    "ExactEigError",
    "GenerationFailed",
    "InternalInconsistency",
    "InvalidSpectrum",
    "IrrationalSpectrum",
    "NotDiagonalizable",
    "NotInSpectrum",
    "NotSquare",
    "ParseError",
    "RankTooLarge",
    "RealifyOnComplexMatrix",
    "SchemaError",
    "Singular",
    "SpectrumTooLarge",
    "TargetNotInSpectrum",
    "WrongSpectrum",
    "ZeroVector",
]


class ExactEigError(Exception):
    """Base class for all exacteig errors."""


class DivisionByZero(ExactEigError, ZeroDivisionError):
    """Division by a zero scalar (rational or Gaussian rational)."""


class ParseError(ExactEigError, ValueError):
    """A scalar string does not match the exact-number grammar."""


class DigitLimitExceeded(ExactEigError, ValueError):
    """An exact result holds an integer with more digits than Python's
    int-to-text conversion limit allows, so it cannot be written out."""


class SchemaError(ExactEigError, ValueError):
    """A JSON document does not match the matrix/spectrum schema."""


class DimensionMismatch(ExactEigError, ValueError):
    """Operands have incompatible shapes."""


class NotSquare(ExactEigError, ValueError):
    """A square matrix was required."""


class Singular(ExactEigError, ValueError):
    """Matrix inversion was attempted on a singular matrix."""


class ZeroVector(ExactEigError, ValueError):
    """The zero vector was supplied where an eigenvector candidate is
    required (the zero vector is never an eigenvector)."""


class RankTooLarge(ExactEigError, ValueError):
    """More vectors than the ambient dimension admits were claimed to be
    linearly independent."""


class SpectrumTooLarge(ExactEigError, ValueError):
    """A claimed spectrum has more distinct eigenvalues than the matrix
    dimension allows."""


class InvalidSpectrum(ExactEigError, ValueError):
    """A claimed spectrum is malformed or is not the spectrum of the
    matrix at hand (wrong values or wrong multiplicities)."""


class WrongSpectrum(InvalidSpectrum):
    """Claimed eigenvalues fail exact validation against the matrix."""


class TargetNotInSpectrum(InvalidSpectrum):
    """The requested target eigenvalue is not in the supplied spectrum."""


class NotInSpectrum(InvalidSpectrum):
    """The supplied scalar is not an eigenvalue of the matrix."""


class IrrationalSpectrum(ExactEigError, ValueError):
    """The characteristic polynomial has roots outside the Gaussian
    rationals reachable by exact search; the caller must supply the
    spectrum explicitly."""


class NotDiagonalizable(ExactEigError, ValueError):
    """Diagonalization was requested for a matrix with a defective
    eigenvalue.

    Attributes:
        witness: a nonzero matrix certifying the failure (the product of
            the shifted matrices over the distinct eigenvalues, which
            would vanish for a diagonalizable matrix), when available.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class Defective(ExactEigError, ValueError):
    """A repeated eigenvalue of a 2x2 matrix carries only a single
    eigendirection, so no eigenbasis exists.

    Attributes:
        eigenvector: the one eigendirection that does exist.
    """

    def __init__(self, message, eigenvector=None):
        super().__init__(message)
        self.eigenvector = eigenvector


class AllRowsParallel(ExactEigError, ValueError):
    """Every row pair of the shifted 3x3 matrix is parallel, so no cross
    product of rows can produce an eigenvector (the eigenspace is
    2-dimensional or larger)."""


class RealifyOnComplexMatrix(ExactEigError, ValueError):
    """A real-form differential-equation solution was requested for a
    matrix with nonreal entries."""


class GenerationFailed(ExactEigError, RuntimeError):
    """The random matrix generator could not satisfy the requested
    configuration (e.g. could not find an invertible basis within the
    attempt budget)."""


class InternalInconsistency(ExactEigError, AssertionError):
    """An internal cross-check failed; indicates a bug, not bad input."""
