"""Finite gamma-hemiring workbench: operator hemirings, fuzzy h-ideals, and
exhaustive verification of their correspondence identities."""

from .core import (
    CapacityError,
    FiniteMonoid,
    GammaHemiring,
    Hemiring,
    ProductStructure,
    StructureError,
    ValidationReport,
    as_product_structure,
    from_hemiring,
    hemiring_product_structure,
    matrix_gamma_hemiring,
    product,
    product_monoid,
    validate_gamma_hemiring,
    validate_hemiring,
    validate_monoid,
)
from .fuzzy import (
    FuzzySubset,
    cartesian,
    characteristic,
    constant,
    fuzzy_sum,
    generalized_h_product,
    intersect,
    is_subset,
    make_fuzzy,
    simple_h_product,
    unit_rational,
)
from .ideals import (
    CheckResult,
    CrispSubset,
    FuzzyHIdealFamily,
    crisp,
    enumerate_fuzzy_h_ideals,
    enumerate_h_ideals,
    h_closure,
    is_fuzzy_h_bi_ideal,
    is_fuzzy_h_ideal,
    is_fuzzy_h_quasi_ideal,
    is_h_ideal,
    is_prime_fuzzy_h_ideal,
    is_semiprime_fuzzy_h_ideal,
)
from .operators import (
    ActionMap,
    FormalSum,
    OperatorHemiring,
    Unity,
    build_operator,
    find_unity,
    realize,
)
from .correspondence import (
    CorrespondenceContext,
    build_context,
    crisp_plus,
    crisp_plus_prime,
    crisp_star,
    crisp_star_prime,
    plus,
    plus_prime,
    product_plus,
    product_plus_prime,
    product_star,
    product_star_prime,
    star,
    star_prime,
)
from .harness import PropertyResult, SuiteReport, run_check, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
