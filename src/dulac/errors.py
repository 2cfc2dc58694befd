"""Exception types shared across the package.

The command-line layer maps these onto distinct process exit codes, so
raising the right class matters more than the message text.
"""

from __future__ import annotations


class DulacError(Exception):
    """Base class for every error raised by this package."""


class TruncationError(DulacError, ValueError):
    """An operation asked for information above a series' truncation order."""


class CompositionError(DulacError, ValueError):
    """Substitution would leave the local ring (nonzero constant term)."""


class SingularMatrixError(DulacError, ValueError):
    """Exact elimination hit a singular system; carries the computed rank."""

    def __init__(self, message: str, rank: int):
        super().__init__(message)
        self.rank = rank


class UnsupportedSpectrumError(DulacError):
    """The characteristic polynomial does not split over the Gaussian rationals."""


class NotDiagonalError(DulacError):
    """A weight-based operation requires the semisimple part in diagonal form."""


class NotNormalFormError(DulacError):
    """The vector field is not in normal form; carries the bracket residual."""

    def __init__(self, message: str, residual=None):
        super().__init__(message)
        self.residual = residual


class NotInvariantError(DulacError):
    """An ideal failed an invariance check; carries the failing witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class HypothesisError(DulacError):
    """Input data violates a structural hypothesis of the requested operation."""


class CertificateError(DulacError):
    """An extraction certificate failed one of its internal cross-checks."""


class ExprSyntaxError(DulacError, ValueError):
    """Syntax error in the expression language, with 1-based position info."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


class BudgetError(DulacError):
    """A result outgrows a resource limit, such as the interpreter's
    int-to-str digit limit when a report is printed."""


class SchemaError(DulacError, ValueError):
    """A problem file is structurally invalid."""
