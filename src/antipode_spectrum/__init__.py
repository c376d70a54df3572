"""Exact spectrum of the squared antipode of the weak Hopf algebra attached
to a finite tensor category and a semisimple indecomposable module category,
from Grothendieck-level data."""

from .cyclotomic import CycField, CycNum, cyclotomic_polynomial
from .grothendieck import (
    FusionData,
    VerificationReport,
    global_dimension,
    q_matrix,
    verify_fusion,
)
from .modcat import ModuleActionData, d_action_triviality, dimension_identity, verify_module
from .pivotalization import (
    PivotalizationData,
    char_poly_pivotalized,
    from_matched_pivotal,
    signed_spectrum,
)
from .scalar import SignedEigenvalue, parse_literal
from .spectrum import (
    SpectrumFactorization,
    char_poly_s2,
    dimension_eigenspace,
    m_bar,
    matched_checks,
    pivotal_twist_invariance,
    select_m,
)
from .symbolic import FactoredContext, FactoredValue, LaurentPoly

__version__ = "0.1.0"

__all__ = [
    "CycField",
    "CycNum",
    "FactoredContext",
    "FactoredValue",
    "FusionData",
    "LaurentPoly",
    "ModuleActionData",
    "PivotalizationData",
    "SignedEigenvalue",
    "SpectrumFactorization",
    "VerificationReport",
    "char_poly_pivotalized",
    "char_poly_s2",
    "cyclotomic_polynomial",
    "d_action_triviality",
    "dimension_eigenspace",
    "dimension_identity",
    "from_matched_pivotal",
    "global_dimension",
    "m_bar",
    "matched_checks",
    "parse_literal",
    "pivotal_twist_invariance",
    "q_matrix",
    "select_m",
    "signed_spectrum",
    "verify_fusion",
    "verify_module",
]
