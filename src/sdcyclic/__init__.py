"""Self-dual cyclic and negacyclic codes of length p^s (p an odd prime)
over the chain ring F_{p^m} + u F_{p^m} with u^2 = 0: exact construction,
streaming enumeration, closed-form counting, and an independent
verification engine."""

from .binomial import binom_mod_p, g_entry
from .chainring import (
    RElem,
    RIdealGens,
    RVector,
    is_self_dual,
    is_self_orthogonal,
    span_dimension,
)
from .enumerator import (
    CaseDescriptor,
    CodeSpec,
    build_code,
    classify_cases,
    count_self_dual,
    descriptor_codes,
    descriptor_count,
    enumerate_codes,
    sample_codes,
    to_negacyclic,
)
from .fieldcore import FieldSpec, FqElem, find_irreducible, is_prime
from .gmatrix import build_g_direct, build_g_kron, g_truncated, min_level, solution_column
from .reciprocal import XPoly, basis_convert, solution_basis

__version__ = "0.1.0"

__all__ = [
    "CaseDescriptor",
    "CodeSpec",
    "FieldSpec",
    "FqElem",
    "RElem",
    "RIdealGens",
    "RVector",
    "XPoly",
    "basis_convert",
    "binom_mod_p",
    "build_code",
    "build_g_direct",
    "build_g_kron",
    "classify_cases",
    "count_self_dual",
    "descriptor_codes",
    "descriptor_count",
    "enumerate_codes",
    "find_irreducible",
    "g_entry",
    "g_truncated",
    "is_prime",
    "is_self_dual",
    "is_self_orthogonal",
    "min_level",
    "sample_codes",
    "solution_basis",
    "solution_column",
    "span_dimension",
    "to_negacyclic",
]
