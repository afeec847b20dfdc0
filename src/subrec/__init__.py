"""subrec: recognizability and circularity analysis for primitive substitutions.

The library computes, with exact arbitrary-precision arithmetic, every
constant entering the standard recognizability bounds for a primitive
substitution (power-free index, balance constant, injectivity exponent,
complexity sums), evaluates the bounds themselves, and independently
cross-examines recognizability at desk scale by exhaustive window search
and interpretation enumeration.
"""

from . import errors
from .fixedpoint import (
    Window,
    build_window,
    cutting_points,
)
from .language import (
    FactorLanguage,
    aperiodicity_check,
    complexity,
    factor_language,
    fixed_point_prefix,
    language_of,
    power_free_index,
    recurrence_constant_empirical,
)
from .morphism import (
    FixedPointSeed,
    IncidenceMatrix,
    Morphism,
    admissible_seeds,
    extreme_lengths,
    image_lengths,
    incidence_matrix,
    is_primitive,
    parse_morphism,
    power,
    power_scaled_constant,
    wielandt_bound,
)
from .recognizability import (
    BigValue,
    BoundBreakdown,
    Counterexample,
    Interpretation,
    SyncResult,
    VerifyResult,
    certified_constants,
    closed_form_bound,
    exact_ratio_constant,
    injectivity_exponent,
    interpretations,
    klouda_medkova_bound,
    minimal_constant_empirical,
    recognizability_bound,
    synchronizing_delay,
    synchronizing_point,
    verify_constant,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "Morphism",
    "IncidenceMatrix",
    "FixedPointSeed",
    "parse_morphism",
    "power",
    "extreme_lengths",
    "image_lengths",
    "incidence_matrix",
    "is_primitive",
    "wielandt_bound",
    "admissible_seeds",
    "power_scaled_constant",
    "FactorLanguage",
    "language_of",
    "factor_language",
    "complexity",
    "power_free_index",
    "recurrence_constant_empirical",
    "aperiodicity_check",
    "fixed_point_prefix",
    "Window",
    "build_window",
    "cutting_points",
    "Interpretation",
    "SyncResult",
    "VerifyResult",
    "Counterexample",
    "BigValue",
    "BoundBreakdown",
    "injectivity_exponent",
    "interpretations",
    "synchronizing_point",
    "synchronizing_delay",
    "verify_constant",
    "minimal_constant_empirical",
    "certified_constants",
    "exact_ratio_constant",
    "recognizability_bound",
    "closed_form_bound",
    "klouda_medkova_bound",
]
