"""Decompose a vector into bordered-rotation factor pairs.

A pair ``(w_star, gamma)`` with ``w_star`` one entry shorter than ``w``
reproduces ``w`` through the bordered product

    w(j) = w_star(j) cos(gamma) - w_star(j-1) sin(gamma),

with out-of-range ``w_star`` indices read as zero: the factorization
``W(z) = W*(z) (cos(gamma) - z sin(gamma))`` of generating polynomials.  Each
real root ``r = cot(gamma)`` of ``W`` gives two pairs, so there are at most
``2d-2``, and at least two for even ``d`` (odd degree).  ``quotient_decompose``
takes the real roots from companion-matrix eigenvalues, divides each linear
factor out by synthetic division from the end where the recurrence
contracts, and checks every quotient by reconstruction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, ToleranceProfile, _finite_scalar, as_signal

# Root isolation constants: acceptance band for near-real eigenvalues of the
# companion matrix, and the relative spacing below which roots are merged.
_REAL_BAND = 1e-8
_ROOT_MERGE = 1e-8


class RootFindingError(RuntimeError):
    """The companion-matrix eigenvalue solver failed to converge."""


@dataclass(frozen=True)
class QuotientElement:
    """One factor pair of a decomposition: w == reconstruct(w_star, gamma)."""

    w_star: np.ndarray
    gamma: float


def reconstruct(w_star, gamma: float, d: int | None = None) -> np.ndarray:
    """Forward map: w(j) = w_star(j) cos(gamma) - w_star(j-1) sin(gamma)."""
    ws = as_signal(w_star)
    if d is not None and d != ws.size + 1:
        raise ValueError(f"w_star has {ws.size} entries, expected d-1 = {d - 1}")
    out = _bordered(ws, _finite_scalar(gamma, "gamma"))
    out.flags.writeable = False
    return out


def _bordered(ws: np.ndarray, gamma: float) -> np.ndarray:
    """The forward map on a trusted 1-D float64 array."""
    return math.cos(gamma) * np.append(ws, 0.0) - math.sin(gamma) * np.insert(ws, 0, 0.0)


def quotient_decompose(w, tol: ToleranceProfile | None = None) -> list[QuotientElement]:
    """All factor pairs (w_star, gamma) reproducing w, up to tolerance.

    Requires ``|w(1)|`` and ``|w(d)|`` above the tol-scaled threshold.  Each
    distinct real root ``r`` of ``W(z) = sum_j w(j) z^(j-1)`` gives the angle
    ``gamma = atan2(1, r)`` with its quotient ``w_star``, and the mirror
    ``(-w_star, gamma + pi)``.  The list has at most ``2d-2`` elements; it is
    nonempty for even ``d`` and may be legitimately empty for odd ``d``.
    Every quotient is verified by reconstruction before inclusion.
    """
    return _decompose(as_signal(w), tol or DEFAULT_TOL)


def _decompose(ws: np.ndarray, tol: ToleranceProfile) -> list[QuotientElement]:
    """``quotient_decompose`` on a trusted 1-D float64 array."""
    if ws.size < 2:
        raise ValueError("decomposition needs d >= 2")
    accept = tol.threshold(ws)
    if abs(ws[0]) <= accept or abs(ws[-1]) <= accept:
        raise ValueError(
            "endpoint entries w(1) and w(d) must be bounded away from zero "
            f"(|{ws[0]:.3e}|, |{ws[-1]:.3e}| vs threshold {accept:.3e})"
        )

    try:
        roots = np.roots(ws[::-1])
    except np.linalg.LinAlgError as exc:
        raise RootFindingError(f"companion eigenvalue solver failed: {exc}") from exc
    real = sorted(
        float(r.real) for r in roots if abs(r.imag) <= _REAL_BAND * (1.0 + abs(r.real))
    )
    elements: list[QuotientElement] = []
    kept = -math.inf
    for r in real:
        if r - kept <= _ROOT_MERGE * (1.0 + abs(r)):
            continue  # near-duplicate of the last kept root
        kept = r
        gamma = math.atan2(1.0, r)
        a, b = math.cos(gamma), -math.sin(gamma)
        # Divide from the end where the recurrence contracts: an error grows
        # by |b/a| = 1/|r| per step from the low end and by |r| from the high.
        if abs(r) > 1.0:
            w_star = _divide_low(ws, a, b)
        else:
            w_star = _divide_low(ws[::-1], b, a)[::-1]
        if not np.all(np.isfinite(w_star)):
            continue
        residual = float(np.max(np.abs(_bordered(w_star, gamma) - ws)))
        # The acceptance scale includes the quotient itself: a genuine
        # factor pair with large dynamic range (gamma near a multiple of
        # pi/2) reconstructs w through cancellation of terms of size
        # max|w_star|, so its float residual floor is eps * max|w_star|.
        if residual <= tol.threshold(ws, w_star):
            for sign, angle in ((1.0, gamma), (-1.0, gamma + math.pi)):
                factor = sign * w_star
                factor.flags.writeable = False
                elements.append(QuotientElement(w_star=factor, gamma=angle))
    return elements


def _divide_low(ws: np.ndarray, a: float, b: float) -> np.ndarray:
    """The quotient q of ws = conv(q, (a, b)), solved from the low end."""
    q = [0.0]
    for wj in ws[:-1].tolist():
        q.append((wj - b * q[-1]) / a)
    return np.array(q[1:])
