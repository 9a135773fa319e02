"""Decompose a vector into bordered-rotation factor pairs.

A pair ``(w_star, gamma)`` with ``w_star`` one entry shorter than ``w``
reproduces ``w`` through the bordered product

    w(j) = w_star(j) cos(gamma) - w_star(j-1) sin(gamma),

with out-of-range ``w_star`` indices read as zero: ``w`` is ``w_star``
convolved with ``(cos(gamma), -sin(gamma))``, the factorization
``W(z) = W*(z) (cos(gamma) - z sin(gamma))`` of generating polynomials.  The
real roots ``r = cot(gamma)`` of ``W`` are the real eigenvalues of its
companion matrix, from one LAPACK ``dgeev`` call through numpy's own
eigenvalue gufunc, so no path through this module loads ``scipy.linalg``;
each linear factor is divided out by synthetic division from the end where
the recurrence contracts.  The division solves every equation of
``w = w_star * (cos(gamma), -sin(gamma))`` but one, so that one equation's
remainder is the whole factor test.
Each root gives one pair plus, in ``quotient_decompose``, its mirror
``(-w_star, gamma + pi)``: at most ``2d-2`` pairs, at least two for even ``d``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from numpy.linalg._umath_linalg import eigvals as _eigvals

from .core import (
    DEFAULT_TOL,
    NumericalError,
    ToleranceProfile,
    _correlate2,
    _finite_scalar,
    _frozen,
    _signal,
    as_signal,
)

# Root isolation constants: acceptance band for near-real eigenvalues of the
# companion matrix, and the relative spacing below which roots are merged.
# A double root splits into a complex pair up to about 1e-7 off the axis;
# the band keeps it, and the division remainder decides whether it is a factor.
_REAL_BAND = 1e-6
_ROOT_MERGE = 1e-8


class RootFindingError(NumericalError):
    """The companion-matrix eigenvalue solver failed to converge."""
    code = "root-finding-failed"


@dataclass(frozen=True)
class QuotientElement:
    """One factor pair of a decomposition: w == reconstruct(w_star, gamma)."""

    w_star: np.ndarray
    gamma: float


def reconstruct(w_star, gamma: float) -> np.ndarray:
    """Forward map: w(j) = w_star(j) cos(gamma) - w_star(j-1) sin(gamma), one
    entry longer than ``w_star``; ``ValueError`` if it overflows float64."""
    out = _bordered(as_signal(w_star), _finite_scalar(gamma, "gamma"))
    return _frozen(out, "the reconstruction overflows float64: rescale w_star")[0]


def _bordered(ws, gamma: float) -> np.ndarray:
    """The forward map on a trusted 1-D float64 array or list of floats: one
    2-tap correlation with the reversed taps, bit for bit
    ``np.convolve(ws, (cos(gamma), -sin(gamma)))`` at every length (each
    entry is one product or the sum of two), without its argument handling."""
    return _correlate2(ws, np.array((-math.sin(gamma), math.cos(gamma))), 2)


def quotient_decompose(w, tol: ToleranceProfile | None = None) -> list[QuotientElement]:
    """All factor pairs (w_star, gamma) reproducing w, up to tolerance.

    Requires ``|w(1)|`` and ``|w(d)|`` above the tol-scaled threshold.  Each
    distinct real root ``r`` of ``W(z) = sum_j w(j) z^(j-1)`` gives the angle
    ``gamma = atan2(1, r)`` with its quotient ``w_star``, listed right
    before its mirror ``(-w_star, gamma + pi)``.  The list has at most
    ``2d-2`` elements; it is nonempty for even ``d`` and may be legitimately
    empty for odd ``d``.
    A quotient is included only when the one equation its division leaves
    unsolved holds within tolerance.
    """
    ws, peak = _signal(w)
    tol = tol or DEFAULT_TOL
    if ws.size < 2:
        raise ValueError("decomposition needs d >= 2")
    _usable(ws, peak, tol, "w")
    elements: list[QuotientElement] = []
    for _, gamma, q in _candidates(ws, peak, tol):
        w_star = np.array(q)
        mirror = -w_star
        w_star.flags.writeable = mirror.flags.writeable = False
        elements += (
            QuotientElement(w_star=w_star, gamma=gamma),
            QuotientElement(w_star=mirror, gamma=gamma + math.pi),
        )
    return elements


def _usable(ws: np.ndarray, peak: float, tol: ToleranceProfile, name: str) -> None:
    """Refuse the trusted 1-D float64 array ``ws``, the signal ``name`` with
    largest |entry| ``peak``, if an endpoint is within tolerance of zero."""
    accept = tol._at(peak)
    for end in (0, -1):
        value = ws.item(end)
        if abs(value) <= accept:
            raise ValueError(
                f"endpoint {name}({end % ws.size + 1}) = {value:.3e} is within {accept:.3e} "
                "of zero (the border zero patterns are handled by shift_ambiguity instead)"
            )


def _candidates(
    ws: np.ndarray, peak: float, tol: ToleranceProfile
) -> list[tuple[float, float, list[float]]]:
    """One factor ``(max|w_star|, gamma, w_star)`` per distinct real root of
    a trusted 1-D float64 array, in increasing root order, with ``peak`` its
    largest |entry|.  A root is kept when its quotient is finite and its
    division remainder is at most ``tol._at(max(peak, max|w_star|))``;
    mirrors are left to ``quotient_decompose``.  Quotients are divided,
    measured and kept as lists of Python floats: only the factors a caller
    uses become arrays."""
    candidates = []
    kept = -math.inf
    w = ws.tolist()
    for r in _real_roots(ws, peak):
        if r - kept <= _ROOT_MERGE * (1.0 + abs(r)):
            continue  # near-duplicate of the last kept root
        kept = r
        gamma = math.atan2(1.0, r)
        a, b = math.cos(gamma), -math.sin(gamma)
        # Divide from the end where the recurrence contracts: an error grows
        # by |b/a| = 1/|r| per step from the low end and by |r| from the high.
        if abs(r) > 1.0:
            q, remainder = _divide_low(w, a, b)
        else:
            q, remainder = _divide_low(w[::-1], b, a)
            q.reverse()
        # With finite w, a and b the recurrence meets inf before any NaN, so
        # the peak is inf or NaN, and fails this test, for every nonfinite q.
        # The scale includes the quotient: a factor of large dynamic range
        # (gamma near a multiple of pi/2) reproduces w by cancelling terms of
        # size max|w_star|, so its remainder's float floor is eps max|w_star|.
        w_peak = max(map(abs, q))
        if w_peak < math.inf and abs(remainder) <= tol._at(max(peak, w_peak)):
            candidates.append((w_peak, gamma, q))
    return candidates


def _real_roots(ws: np.ndarray, peak: float) -> list[float]:
    """The real roots of ``W(z) = sum_j ws(j) z^(j-1)`` in increasing order:
    the eigenvalues, inside ``_REAL_BAND`` of the real axis, of its companion
    matrix (first row ``-ws(d-1..1) / ws(d)``, ones on the subdiagonal, the
    matrix numpy's ``roots`` builds).  ``peak`` is the largest |entry| of
    ``ws``; ``peak / |ws(d)|`` is the largest companion entry, or at most 1,
    so a row that would overflow is refused before numpy divides.  The
    eigenvalues come from the gufunc behind ``np.linalg.eigvals``; a ``dgeev``
    failure is its NaN output, or the exception a strict warnings or
    ``np.seterr`` policy makes of its invalid-value signal."""
    lead = ws.item(-1)
    if not math.isfinite(peak / abs(lead)):
        raise RootFindingError(
            "companion eigenvalue solver failed: Array must not contain infs or NaNs"
        )
    n = ws.size - 1
    comp = np.zeros(n * n)
    comp[n :: n + 1] = 1.0  # the unit subdiagonal, without np.eye's Python wrapper
    comp = comp.reshape(n, n)
    np.divide(ws[-2::-1], -lead, out=comp[0])
    try:
        eig = _eigvals(comp, signature="d->D").tolist()
    except (FloatingPointError, RuntimeWarning):
        eig = [math.nan]  # as numpy's own failure output
    if eig[0] != eig[0]:
        raise RootFindingError("companion eigenvalue solver failed: Eigenvalues did not converge")
    return sorted([z.real for z in eig if abs(z.imag) <= _REAL_BAND * (1.0 + abs(z.real))])


def _divide_low(w: list[float], a: float, b: float) -> tuple[list[float], float]:
    """The quotient q of w = conv(q, (a, b)) as a list, solved from the low
    end, and the remainder ``b q[-1] - w[-1]`` of the one equation left
    unsolved: every other entry of ``conv(q, (a, b)) - w`` is rounding."""
    q, prev = [], 0.0
    for wj in w[:-1]:
        prev = (wj - b * prev) / a
        q.append(prev)
    return q, b * prev - w[-1]
