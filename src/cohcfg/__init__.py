"""Coherent configurations from permutation-group orbitals.

Construction of association schemes on exterior conjugate pairs and on
the monomial affine plane, 2-dimensional Weisfeiler-Leman closure and
point extensions, intersection tensors, algebraic fusion, automorphism
groups, and machine checks of the structural claims about these schemes.
"""

from .cc import (CoherentConfiguration, IntersectionTensor, FusionMap,
                 algebraic_fusion, induced_color_action)
from .analysis import (AutGroup, automorphism_group, base_number,
                       check_bound_201444a, check_cor_423939b,
                       is_schurian, is_separable_small, matching_graph)
from .claims import known_claims, verify_claim
from .errors import (ColorActionError, FormatError, IntegrityError,
                     ResourceLimitError, UsageError)
from .gf import Field
from .perm import PermGroup
from .report import VerificationReport
from .schemes import (hollmann_large, hollmann_small, passman_scheme,
                      trace_label_check)
from .wl import coherent_closure, extend_points, two_extension

__all__ = [
    "AutGroup", "CoherentConfiguration", "ColorActionError", "Field",
    "FormatError", "FusionMap", "IntegrityError", "IntersectionTensor",
    "PermGroup", "ResourceLimitError", "UsageError", "VerificationReport",
    "algebraic_fusion", "automorphism_group", "base_number",
    "check_bound_201444a", "check_cor_423939b", "coherent_closure",
    "extend_points", "hollmann_large", "hollmann_small",
    "induced_color_action", "is_schurian", "is_separable_small",
    "known_claims", "matching_graph", "passman_scheme", "trace_label_check",
    "two_extension", "verify_claim",
]

__version__ = "0.1.0"
