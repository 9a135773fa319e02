"""Ambiguity-space toolkit for blind linear deconvolution.

Construct the lifted convolution operator, every characterized family of its
rank-two kernel, the bordered-rotation decomposition of a vector, and
adversarial signal pairs proving unidentifiability; verify each construction
against the raw anti-diagonal sums.
"""

from .ambiguity import (
    AmbiguousPair,
    AttackSearchError,
    PairReport,
    attack,
    bordered_y_form,
    collinearity,
    rotational_family,
    shift_ambiguity,
    verify_pair,
)
from .core import (
    DEFAULT_TOL,
    RankError,
    ToleranceProfile,
    as_matrix,
    as_signal,
    convolve,
    hankel_basis,
    lift_apply,
    matrix_from_json,
    matrix_to_json,
    outer,
    rank_estimate,
    signal_from_json,
    signal_to_json,
)
from .nullspace import (
    ClassifiedElement,
    M2Certificate,
    N0Certificate,
    N2Certificate,
    NullspaceCertificate,
    RawCertificate,
    certificate_from_json,
    certificate_to_json,
    certificate_to_matrix,
    classify,
    is_in_rank2_nullspace,
    kernel_basis,
    m2_element,
    n0_element,
    n2_generate,
    n2_lift,
)
from .quotient import QuotientElement, RootFindingError, quotient_decompose, reconstruct

__version__ = "0.1.0"

__all__ = [
    "AmbiguousPair",
    "AttackSearchError",
    "ClassifiedElement",
    "DEFAULT_TOL",
    "M2Certificate",
    "N0Certificate",
    "N2Certificate",
    "NullspaceCertificate",
    "PairReport",
    "QuotientElement",
    "RankError",
    "RawCertificate",
    "RootFindingError",
    "ToleranceProfile",
    "as_matrix",
    "as_signal",
    "attack",
    "bordered_y_form",
    "certificate_from_json",
    "certificate_to_json",
    "certificate_to_matrix",
    "classify",
    "collinearity",
    "convolve",
    "hankel_basis",
    "is_in_rank2_nullspace",
    "kernel_basis",
    "lift_apply",
    "m2_element",
    "matrix_from_json",
    "matrix_to_json",
    "n0_element",
    "n2_generate",
    "n2_lift",
    "outer",
    "quotient_decompose",
    "rank_estimate",
    "reconstruct",
    "rotational_family",
    "shift_ambiguity",
    "signal_from_json",
    "signal_to_json",
    "verify_pair",
]
