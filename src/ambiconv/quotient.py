"""Decompose a vector into bordered-rotation factor pairs.

A pair ``(w_star, gamma)`` with ``w_star`` one entry shorter than ``w``
reproduces ``w`` through the bordered product

    w(j) = w_star(j) cos(gamma) - w_star(j-1) sin(gamma),

with out-of-range ``w_star`` indices read as zero: ``w`` is ``w_star``
convolved with ``(cos(gamma), -sin(gamma))``, the factorization
``W(z) = W*(z) (cos(gamma) - z sin(gamma))`` of generating polynomials.  The
real roots ``r = cot(gamma)`` of ``W`` are the real eigenvalues of its
companion matrix, from one direct LAPACK ``dgeev`` call (scipy's wrapper,
eigenvalues only); each linear factor is divided out by synthetic division
from the end where the recurrence contracts and checked by reconstruction.
Each root gives one pair plus, in ``quotient_decompose``, its mirror
``(-w_star, gamma + pi)``: at most ``2d-2`` pairs, at least two for even ``d``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgeev, dgeev_lwork

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
    """The forward map on a trusted 1-D float64 array: one 2-tap convolution."""
    return np.convolve(ws, (math.cos(gamma), -math.sin(gamma)))


def quotient_decompose(w, tol: ToleranceProfile | None = None) -> list[QuotientElement]:
    """All factor pairs (w_star, gamma) reproducing w, up to tolerance.

    Requires ``|w(1)|`` and ``|w(d)|`` above the tol-scaled threshold.  Each
    distinct real root ``r`` of ``W(z) = sum_j w(j) z^(j-1)`` gives the angle
    ``gamma = atan2(1, r)`` with its quotient ``w_star``, listed right
    before its mirror ``(-w_star, gamma + pi)``.  The list has at most
    ``2d-2`` elements; it is nonempty for even ``d`` and may be legitimately
    empty for odd ``d``.
    Every quotient is verified by reconstruction before inclusion.
    """
    ws = as_signal(w)
    tol = tol or DEFAULT_TOL
    peak, candidates = _candidates(ws, tol)
    elements: list[QuotientElement] = []
    for candidate in candidates:
        if _reconstructs(ws, peak, tol, candidate):
            _, gamma, w_star = candidate
            mirror = -w_star
            w_star.flags.writeable = mirror.flags.writeable = False
            elements += (
                QuotientElement(w_star=w_star, gamma=gamma),
                QuotientElement(w_star=mirror, gamma=gamma + math.pi),
            )
    return elements


def _candidates(
    ws: np.ndarray, tol: ToleranceProfile
) -> tuple[float, list[tuple[float, float, np.ndarray]]]:
    """The peak of a trusted 1-D float64 array and one unverified candidate
    ``(max|w_star|, gamma, w_star)`` per distinct real root, in increasing
    root order.  ``_reconstructs`` decides which candidates are factor pairs;
    mirrors are left to ``quotient_decompose``."""
    if ws.size < 2:
        raise ValueError("decomposition needs d >= 2")
    peak = float(np.abs(ws).max())
    accept = tol._at(peak)
    if abs(ws[0]) <= accept or abs(ws[-1]) <= accept:
        raise ValueError(
            "endpoint entries w(1) and w(d) must be bounded away from zero "
            f"(|{ws[0]:.3e}|, |{ws[-1]:.3e}| vs threshold {accept:.3e})"
        )

    candidates = []
    kept = -math.inf
    for r in _real_roots(ws, peak):
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
        w_peak = float(np.abs(w_star).max())
        if w_peak < math.inf:  # false for inf and NaN alike
            candidates.append((w_peak, gamma, w_star))
    return peak, candidates


def _reconstructs(ws: np.ndarray, peak: float, tol: ToleranceProfile, candidate) -> bool:
    """Whether a candidate of ``_candidates(ws, tol)`` reproduces ``ws``,
    whose largest |entry| is ``peak``, within tolerance."""
    w_peak, gamma, w_star = candidate
    residual = float(np.abs(_bordered(w_star, gamma) - ws).max())
    # The acceptance scale includes the quotient itself: a genuine factor
    # pair with large dynamic range (gamma near a multiple of pi/2)
    # reconstructs w through cancellation of terms of size max|w_star|, so
    # its float residual floor is eps * max|w_star|.
    return residual <= tol._at(max(peak, w_peak))


def _real_roots(ws: np.ndarray, peak: float) -> list[float]:
    """The real roots of ``W(z) = sum_j ws(j) z^(j-1)`` in increasing order:
    the eigenvalues, inside ``_REAL_BAND`` of the real axis, of its companion
    matrix (first row ``-ws(d-1..1) / ws(d)``, ones on the subdiagonal, the
    matrix numpy's ``roots`` builds).  ``peak`` is the largest |entry| of
    ``ws``; ``peak / |ws(d)|`` is the largest companion entry, or at most 1,
    so a row that would overflow is refused before numpy divides."""
    if not math.isfinite(peak / abs(float(ws[-1]))):
        raise RootFindingError(
            "companion eigenvalue solver failed: Array must not contain infs or NaNs"
        )
    n = ws.size - 1
    comp = np.eye(n, k=-1, order="F")
    comp[0] = -ws[-2::-1] / ws[-1]
    wr, wi, _, _, info = dgeev(
        comp, compute_vl=0, compute_vr=0, lwork=_workspace(n), overwrite_a=1
    )
    if info:
        raise RootFindingError(
            "companion eigenvalue solver failed: Eigenvalues did not converge"
        )
    real = zip(wr.tolist(), wi.tolist())
    return sorted(r for r, i in real if abs(i) <= _REAL_BAND * (1.0 + abs(r)))


@functools.lru_cache(maxsize=None)
def _workspace(n: int) -> int:
    """LAPACK's optimal ``dgeev`` workspace at order n, the size
    ``np.linalg.eigvals`` queries.  From n = 75 the Hessenberg QR takes a
    different path, with different rounding, when given less."""
    return int(dgeev_lwork(n, compute_vl=0, compute_vr=0)[0])


def _divide_low(ws: np.ndarray, a: float, b: float) -> np.ndarray:
    """The quotient q of ws = conv(q, (a, b)), solved from the low end."""
    q = [0.0]
    for wj in ws[:-1].tolist():
        q.append((wj - b * q[-1]) / a)
    return np.array(q[1:])
