"""Exact continued-fraction toolkit for hyperquadratic power series over
F_p((1/T)): field and polynomial arithmetic, precision-tracked Laurent
series, continuant machinery, a partial-quotient extraction engine, the
block-pattern builders, and degree analytics.
"""
from .algebra import (
    NEG_INFINITY,
    FieldElement,
    Poly,
    PrimeField,
    is_prime,
)
from .analytics import (
    DegreeProfile,
    IrrationalityReport,
    closed_forms,
    irrationality_report,
    nu,
    profile,
    profile_from_degrees,
)
from .cf import (
    PartialQuotients,
    cf_to_series,
    continuants,
    convergent_validity_floor,
    rational_to_cf,
)
from .construction import (
    IdentityReport,
    PatternSpec,
    PatternVerification,
    ResidualSummary,
    Triple,
    build_Pn,
    build_spec,
    check_identities,
    fibonacci_poly,
    mills_robbins_equation,
    mills_robbins_u2,
    pattern,
    pattern_degree,
    pattern_equation,
    pattern_position,
    verify_pattern,
)
from .expansion import (
    BiPoly,
    ExpansionResult,
    NoAdmissibleQuotientError,
    eval_at_series,
    expand,
    next_step,
)
from .series import InsufficientPrecisionError, LaurentSeries, series_from_rational

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "NEG_INFINITY",
    "is_prime",
    "PrimeField",
    "FieldElement",
    "Poly",
    "LaurentSeries",
    "series_from_rational",
    "InsufficientPrecisionError",
    "PartialQuotients",
    "continuants",
    "rational_to_cf",
    "cf_to_series",
    "convergent_validity_floor",
    "BiPoly",
    "ExpansionResult",
    "NoAdmissibleQuotientError",
    "next_step",
    "expand",
    "eval_at_series",
    "Triple",
    "PatternSpec",
    "build_spec",
    "build_Pn",
    "pattern",
    "pattern_position",
    "pattern_degree",
    "pattern_equation",
    "mills_robbins_u2",
    "mills_robbins_equation",
    "fibonacci_poly",
    "IdentityReport",
    "check_identities",
    "ResidualSummary",
    "PatternVerification",
    "verify_pattern",
    "closed_forms",
    "nu",
    "DegreeProfile",
    "profile",
    "profile_from_degrees",
    "IrrationalityReport",
    "irrationality_report",
]
