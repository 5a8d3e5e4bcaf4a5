"""Roots of polynomial congruences mod n, degree-one ideal data, and
equidistribution diagnostics: exponential sums, discrepancy, digit towers."""

from types import ModuleType as _ModuleType

from .errors import (
    AdmissibilityError,
    InvalidArgumentError,
    ResourceLimitError,
    RootdistError,
    UnsupportedInputError,
)
from .intpoly import IntPolynomial, parse_ints, parse_polynomial, poly_eval_mod
from .modarith import (
    Factorization,
    SpfSieve,
    crt_pair,
    factorize,
    inverse,
    is_prime,
)
from .roots import (
    ModulusFilter,
    root_stream,
    roots_from_factorization,
    roots_mod_n,
    roots_mod_prime,
    roots_mod_prime_power,
)
from .ideals import (
    AdmissibilityReport,
    FactoredIdeal,
    InertiaDegree,
    admissibility,
    enumerate_degree_one,
    ideal_from_root,
    ideal_residue,
    inertia_degree,
    is_degree_one,
)
from .equidist import (
    BoundCheck,
    DiscrepancyReport,
    HSpec,
    PrimeStats,
    ProgressionSums,
    WeylSeries,
    box_discrepancy,
    decades,
    dilated_sum_square_bound,
    prime_stats,
    progression_root_sums,
    ratio_points,
    root_exp_sum,
    root_exp_sum_factored,
    split_prime_count,
    star_discrepancy,
    weyl_series,
)
from .nadic import (
    ExpansionEvidence,
    NadicExpansion,
    NormalityReport,
    haar_monte_carlo,
    nadic_expansions,
    normality_evidence,
    prefix_weyl_sum,
    word_frequencies,
)
from .systems import (
    JointWeylSeries,
    PolySystem,
    default_hset,
    joint_exp_sum,
    joint_exp_sum_factored,
    joint_weyl_series,
    root_tuples,
)

__version__ = "0.1.0"

# every public name bound above, so a name is declared once: by its import
__all__ = sorted(
    k for k, v in globals().items() if not (k.startswith("_") or isinstance(v, _ModuleType))
)
