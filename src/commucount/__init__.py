"""Exact counting of commuting pairs of integer matrices, the divisor
correlations behind their growth, and the p-adic densities they converge to.

All counters are exact (integer or rational arithmetic end to end) and every
fast path is validated against a brute-force oracle at reachable scales; see
`commucount verify` or the test suite.
"""

__version__ = "0.1.0"

from .core import (
    main_term_constant_2x2,
    primitive_directions,
    totient,
    zeta_value,
)
from .count2 import (
    count_commuting_2x2,
    count_commuting_2x2_by_direction,
    gamma_split,
    normalized_count_2x2,
)
from .divisor import (
    classic_divisor_correlation,
    divisor_bound_check,
    doubling_report,
    lemma61_check,
    moment,
    parse_set_file,
    partial_sum_check,
    r_set,
    r_table,
    r_zero,
)
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    IndexOutOfRange,
    InvariantViolation,
    NotPrime,
    UnsupportedDimension,
)
from .oracle import (
    WorkBudget,
    brute_commuting_count,
    brute_padic_solutions,
    brute_r_table,
    brute_valuation_classes,
)
from .padic import (
    PadicParams,
    fast_padic_count,
    inclusion_exclusion_breakdown,
    s_n0_formula,
    sigma_p,
    theorem13_main,
    valuation_classes_fast,
)
from .rank3 import (
    build_system_3x3,
    check_offdiag_constraint,
    classify_commuting_3x3,
    commutator,
    cross_det,
    inconsistency_demo_4x4,
    lower_bound_E,
    lower_bound_certificate,
)

__all__ = [
    "__version__",
    "BudgetExceeded",
    "DimensionMismatch",
    "IndexOutOfRange",
    "InvariantViolation",
    "NotPrime",
    "PadicParams",
    "UnsupportedDimension",
    "WorkBudget",
    "brute_commuting_count",
    "brute_padic_solutions",
    "brute_r_table",
    "brute_valuation_classes",
    "build_system_3x3",
    "check_offdiag_constraint",
    "classic_divisor_correlation",
    "classify_commuting_3x3",
    "commutator",
    "count_commuting_2x2",
    "count_commuting_2x2_by_direction",
    "cross_det",
    "divisor_bound_check",
    "doubling_report",
    "fast_padic_count",
    "gamma_split",
    "inclusion_exclusion_breakdown",
    "inconsistency_demo_4x4",
    "lemma61_check",
    "lower_bound_E",
    "lower_bound_certificate",
    "main_term_constant_2x2",
    "moment",
    "normalized_count_2x2",
    "parse_set_file",
    "partial_sum_check",
    "primitive_directions",
    "r_set",
    "r_table",
    "r_zero",
    "s_n0_formula",
    "sigma_p",
    "theorem13_main",
    "totient",
    "valuation_classes_fast",
    "zeta_value",
]
