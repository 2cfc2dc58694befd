"""Exact Poincare-Dulac normal forms and certified semi-invariant extraction.

The package works over Q and Q(i) with exact arithmetic throughout: formal
vector fields are normalized degree by degree, polynomial ideals are handled
through truncated Groebner bases, and semi-invariant generators are extracted
from invariant ideals with Vandermonde certificates that can be replayed
independently.
"""

from .errors import (
    BudgetError,
    CertificateError,
    CompositionError,
    DulacError,
    ExprSyntaxError,
    HypothesisError,
    NotDiagonalError,
    NotInvariantError,
    NotNormalFormError,
    SchemaError,
    SingularMatrixError,
    TruncationError,
    UnsupportedSpectrumError,
)
from .exprs import (
    format_series, parse_expression, parse_fraction, parse_scalar, parse_weight,
)
from .field import (
    IMAG,
    ONE,
    ZERO,
    Scalar,
    Weight,
    format_fraction,
    format_scalar,
    format_weight,
    weight_embed,
    weights_from_scalars,
)
from .ideals import (
    ExtractionCertificate,
    IdealHandle,
    ReducedBasis,
    close_under_lie,
    extract_semiinvariants,
    groebner,
    is_invariant,
    lf_extract_semiinvariants,
    single_resonance_primes,
)
from .linalg import (
    ExactMatrix,
    confluent_vandermonde_matrix,
    jordan_chevalley,
)
from .normalform import (
    NormalFormResult,
    conjugacy_residual,
    is_pdnf,
    lg_nilpotency_bound,
    normalize,
)
from .poly import (
    Series,
    VectorField,
    compose,
    lie_bracket,
    lie_derivative,
    weight_decompose,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "CertificateError",
    "CompositionError",
    "DulacError",
    "ExactMatrix",
    "ExprSyntaxError",
    "ExtractionCertificate",
    "HypothesisError",
    "IMAG",
    "IdealHandle",
    "NormalFormResult",
    "NotDiagonalError",
    "NotInvariantError",
    "NotNormalFormError",
    "ONE",
    "ReducedBasis",
    "Scalar",
    "SchemaError",
    "Series",
    "SingularMatrixError",
    "TruncationError",
    "UnsupportedSpectrumError",
    "VectorField",
    "Weight",
    "ZERO",
    "close_under_lie",
    "compose",
    "confluent_vandermonde_matrix",
    "conjugacy_residual",
    "extract_semiinvariants",
    "format_fraction",
    "format_scalar",
    "format_series",
    "format_weight",
    "groebner",
    "is_invariant",
    "is_pdnf",
    "jordan_chevalley",
    "lf_extract_semiinvariants",
    "lg_nilpotency_bound",
    "lie_bracket",
    "lie_derivative",
    "normalize",
    "parse_expression",
    "parse_fraction",
    "parse_scalar",
    "parse_weight",
    "single_resonance_primes",
    "weight_decompose",
    "weight_embed",
    "weights_from_scalars",
    "__version__",
]
