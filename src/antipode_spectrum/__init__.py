"""Exact spectrum of the squared antipode of the weak Hopf algebra attached
to a finite tensor category and a semisimple indecomposable module category,
from Grothendieck-level data."""

from .cyclotomic import CycField, CycNum, cyclotomic_polynomial
from .grothendieck import FusionData, VerificationReport, q_matrix, verify_fusion
from .modcat import ModuleActionData, dimension_identity, verify_module
from .pivotalization import PivotalizationData, char_poly_pivotalized, from_matched_pivotal
from .scalar import SignedEigenvalue, parse_literal
from .spectrum import (
    SpectrumFactorization,
    char_poly_s2,
    dimension_eigenspace,
    m_bar,
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
    "dimension_eigenspace",
    "dimension_identity",
    "from_matched_pivotal",
    "m_bar",
    "parse_literal",
    "q_matrix",
    "select_m",
    "verify_fusion",
    "verify_module",
]
