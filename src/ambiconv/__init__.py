"""Ambiguity-space toolkit for blind linear deconvolution.

Construct the lifted convolution operator, every characterized family of its
rank-two kernel, the bordered-rotation decomposition of a vector, and
adversarial signal pairs proving unidentifiability; verify each construction
against the raw anti-diagonal sums.

Importing the package loads none of its modules: each public name is looked
up in ``_EXPORTS`` at its first use (PEP 562), which imports the module that
defines it and binds the name here, so later uses are ordinary lookups.
"""

import importlib

__version__ = "0.1.0"

# Each public name, once, under the module that defines it.
_EXPORTS = {
    "ambiguity": (
        "AmbiguousPair AttackSearchError PairReport attack bordered_y_form collinearity"
        " rotational_family shift_ambiguity verify_pair"
    ),
    "core": (
        "DEFAULT_TOL RankError ToleranceProfile as_matrix as_signal convolve hankel_basis"
        " lift_apply matrix_from_json matrix_to_json outer rank_estimate signal_from_json"
        " signal_to_json"
    ),
    "nullspace": (
        "ClassifiedElement M2Certificate N0Certificate N2Certificate NullspaceCertificate"
        " RawCertificate certificate_from_json certificate_to_json certificate_to_matrix"
        " classify is_in_rank2_nullspace kernel_basis m2_element n0_element n2_generate n2_lift"
    ),
    "quotient": "QuotientElement RootFindingError quotient_decompose reconstruct",
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, which its import binds here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_ORIGIN[name]}")
    globals()[name] = value = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_ORIGIN})
