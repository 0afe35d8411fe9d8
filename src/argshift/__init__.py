"""Exact-arithmetic workbench for argument-shift families in Poisson
algebras of Lie algebras: commutativity and maximal-dimension
certificates, regularity and codimension checks, skew pencil analysis.
"""

from .exactlin import MatQ, SubspaceQ, rat, rat_str
from .liealg import (AlgebraProfile, LieAlgebraData, make_classical,
                     make_semidirect, make_sl2_so2_contraction, make_takiff,
                     make_vinberg, make_z2_contraction, validate)
from .mfshift import (DEFICIT, EXACT, EXCESS, ShiftFamily, ShiftMember,
                      build_family, certify_commutative, degree_profile,
                      find_nonmaximality_witness, nonmembership_linear)
from .mpoly import MPoly, poly_gcd
from .poisson import (CasimirSet, KirillovForm, bracket, classical_casimirs,
                      estimate_index, frozen_bracket, is_casimir, kirillov,
                      takiff_lift)
from .regcert import (Codim2Certificate, FalsificationError, PlaneCertificate,
                      PlaneSpec, certify_codim2, certify_regular_plane,
                      find_regular_plane, is_regular, kostant_criterion,
                      verify_bols, verify_compl)
from .skewpencil import PencilAnalysis, SkewPencil, char_poly, verify_com1

__version__ = "0.1.0"

__all__ = [
    "AlgebraProfile", "CasimirSet", "Codim2Certificate", "DEFICIT", "EXACT",
    "EXCESS", "FalsificationError", "KirillovForm", "LieAlgebraData", "MPoly",
    "MatQ", "PencilAnalysis", "PlaneCertificate", "PlaneSpec", "ShiftFamily",
    "ShiftMember", "SkewPencil", "SubspaceQ", "bracket", "build_family",
    "certify_codim2", "certify_commutative", "certify_regular_plane",
    "char_poly", "classical_casimirs", "degree_profile", "estimate_index",
    "find_nonmaximality_witness", "find_regular_plane", "frozen_bracket",
    "is_casimir", "is_regular", "kirillov", "kostant_criterion",
    "make_classical", "make_semidirect", "make_sl2_so2_contraction",
    "make_takiff", "make_vinberg", "make_z2_contraction",
    "nonmembership_linear", "poly_gcd", "rat", "rat_str", "takiff_lift",
    "validate", "verify_bols", "verify_com1", "verify_compl",
]
