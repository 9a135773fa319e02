"""Built-in reference example with published values, and its checks.

The dataset is a pair of integer seed pairs in R^11 x R^7 sharing one
convolution output, the rotated pairs derived from them at angles pi/3 and
pi/6, and the 3-decimal rounded values they were published with.  The checks
reproduce the integer identity exactly, the rounded vectors within 5e-4 per
entry, and the Hankel decomposition matrix for dimensions (3, 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambiguity import rotational_family
from .core import as_signal, convolve, hankel_basis

X1 = as_signal([1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 1])
Y1 = as_signal([1, 0, 0, 0, 1, 0, 0])
X2 = as_signal([1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0])
Y2 = as_signal([1, 0, 1, 0, 1, 0, 1])

# x1 * y1 == x2 * y2, computed in exact integer arithmetic.
Z_COMMON = as_signal([1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0])

THETA = math.pi / 3
PHI = math.pi / 6

# Published 3-decimal roundings of the rotated pairs and their common output.
X3_PRINTED = as_signal([-0.366, 0, 0.5, 0, 0, 0, 0, 0, -0.366, 0, 0.5])
Y3_PRINTED = as_signal([-0.366, 0, -0.866, 0, -0.366, 0, -0.866])
X4_PRINTED = as_signal([0.366, 0, 0.866, 0, 0, 0, 0, 0, 0.366, 0, 0.866])
Y4_PRINTED = as_signal([0.366, 0, -0.5, 0, 0.366, 0, -0.5])
Z34_PRINTED = as_signal(
    [0.134, 0, 0.134, 0, -0.299, 0, 0.134, 0, -0.299, 0, 0.134, 0, -0.299, 0, 0.134, 0, -0.433]
)

PRINTED_TOL = 5e-4
ROTATION_CONV_TOL = 1e-12


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str
    first_bad_index: int | None = None

    def to_json(self) -> dict:
        out = {"name": self.name, "ok": bool(self.ok), "detail": self.detail}
        if self.first_bad_index is not None:
            out["first_bad_index"] = int(self.first_bad_index)
        return out


def _compare(name: str, got: np.ndarray, want: np.ndarray, tol: float) -> CheckResult:
    if got.size != want.size:
        return CheckResult(name, False, f"length {got.size} != {want.size}", 0)
    gaps = np.abs(got - want)
    bad = np.flatnonzero(gaps > tol)
    if bad.size:
        i = int(bad[0])
        return CheckResult(
            name, False, f"entry {i + 1}: got {got[i]:.6f}, want {want[i]:.6f}", i
        )
    return CheckResult(name, True, f"max gap {float(np.max(gaps)):.2e} <= {tol:.0e}")


def run_reference_checks(x1=None, y1=None, x2=None, y2=None) -> list[CheckResult]:
    """Run every reference check; inputs default to the built-in dataset.

    Overrides exist so a corrupted fixture can be fed in as a negative
    control; the report then names the first failing entry.
    """
    # convolve and rotational_family validate the overrides, in this order.
    x1 = X1 if x1 is None else x1
    y1 = Y1 if y1 is None else y1
    x2 = X2 if x2 is None else x2
    y2 = Y2 if y2 is None else y2
    results = [
        _compare("convolve(x1, y1) equals the common output exactly", convolve(x1, y1), Z_COMMON, 0.0),
        _compare("convolve(x2, y2) equals the common output exactly", convolve(x2, y2), Z_COMMON, 0.0),
    ]

    try:
        x3, y3, x4, y4 = rotational_family(x1, x2, y1, y2, THETA, PHI)
    except ValueError as exc:
        results.append(CheckResult("rotational family seed condition", False, str(exc)))
        return results
    results.append(_compare("x3 matches the printed values", x3, X3_PRINTED, PRINTED_TOL))
    results.append(_compare("y3 matches the printed values", y3, Y3_PRINTED, PRINTED_TOL))
    results.append(_compare("x4 matches the printed values", x4, X4_PRINTED, PRINTED_TOL))
    results.append(_compare("y4 matches the printed values", y4, Y4_PRINTED, PRINTED_TOL))

    z3 = convolve(x3, y3)
    z4 = convolve(x4, y4)
    results.append(_compare("convolve(x3, y3) equals convolve(x4, y4)", z3, z4, ROTATION_CONV_TOL))
    results.append(
        _compare("convolve(x3, y3) matches the printed values", z3, Z34_PRINTED, PRINTED_TOL)
    )

    s3 = hankel_basis(3, 4)[2]
    want = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    ok = bool(np.array_equal(s3, want))
    results.append(
        CheckResult(
            "Hankel basis matrix 3 for (m, n) = (3, 4)",
            ok,
            "ones exactly where k + l = 4" if ok else "indicator pattern mismatch",
        )
    )
    return results
