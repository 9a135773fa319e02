"""Constructors of unidentifiable signal pairs, and a pair verifier.

Three constructions produce distinct pairs sharing one convolution output:

* ``rotational_family`` turns any two seed pairs with a common output into a
  two-angle family of further pairs with a common output,
* ``shift_ambiguity`` exploits the pathological zero patterns at the signal
  borders (overestimated model orders), where support shifting changes
  nothing about the output,
* ``attack`` builds a certificate pair for generic inputs of even length by
  decomposing both signals into bordered-rotation factors and swapping the
  two angles.

``verify_pair`` certifies unidentifiability: equal outputs and a certificate
first factor that is not collinear with the original (collinear pairs are
just the inherent scaling equivalence and never certify).
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    NumericalError,
    ToleranceProfile,
    _convolve,
    _finite_scalar,
    _frozen,
    _peak,
    _real_scalar,
    _signal,
    as_signal,
    signal_from_json,
    signal_to_json,
)
from .quotient import _bordered, _candidates, _usable

# Angle combinations closer than this to the degenerate set (cos(phi) = 0 or
# phi = theta mod pi) are skipped during the attack's candidate search.
DEGENERACY_EPS = 1e-6

# A pair whose first factors have |cosine similarity| above 1 - this margin
# is treated as the scaling equivalence class, not a genuine ambiguity.
COLLINEARITY_MARGIN = 1e-9

# The attack's search preference, not a certification rule: combinations
# above this collinearity are used only when no better one exists.
ATTACK_COLLINEARITY_BOUND = 1.0 - 1e-6


class AttackSearchError(NumericalError):
    """No valid angle combination was found (measure-zero event for generic
    inputs); carries diagnostics for triage."""
    code = "attack-search-failed"


@dataclass(frozen=True)
class AmbiguousPair:
    """An input pair plus a certificate pair with the same convolution."""

    x: np.ndarray
    y: np.ndarray
    x_alt: np.ndarray
    y_alt: np.ndarray
    residual: float
    collinearity: float

    def to_json(self) -> dict:
        return {
            "x": signal_to_json(self.x),
            "y": signal_to_json(self.y),
            "x_alt": signal_to_json(self.x_alt),
            "y_alt": signal_to_json(self.y_alt),
            "residual": float(self.residual),
            "collinearity": float(self.collinearity),
        }

    @staticmethod
    def from_json(obj) -> "AmbiguousPair":
        if not isinstance(obj, dict) or not {"x", "y", "x_alt", "y_alt"} <= set(obj):
            raise ValueError('pair JSON must carry "x", "y", "x_alt", "y_alt"')
        return AmbiguousPair(
            x=signal_from_json(obj["x"]),
            y=signal_from_json(obj["y"]),
            x_alt=signal_from_json(obj["x_alt"]),
            y_alt=signal_from_json(obj["y_alt"]),
            residual=_real_scalar(obj.get("residual", 0.0), 'pair JSON "residual"'),
            collinearity=_real_scalar(obj.get("collinearity", 0.0), 'pair JSON "collinearity"'),
        )


@dataclass(frozen=True)
class PairReport:
    residual: float
    collinearity: float
    certifies_unidentifiability: bool

    def to_json(self) -> dict:
        return {
            "residual": float(self.residual),
            "collinearity": float(self.collinearity),
            "certifies_unidentifiability": bool(self.certifies_unidentifiability),
        }


def collinearity(a, b) -> float:
    """|cosine similarity| of two signals, clamped to [0, 1]."""
    (av, peak_a), bv = _signal(a), as_signal(b)
    if av.size != bv.size:
        raise ValueError("signals must have equal length")
    return _collinearity(av, bv, peak_a)


def _collinearity(av: np.ndarray, bv: np.ndarray, peak_a: float) -> float:
    """``collinearity`` of trusted equal-length arrays, ``peak_a`` being max|av|.
    Each is first scaled by the power of two of its peak (exact in binary
    floating point), so no dot product under- or overflows; a peak in
    [0.5, 1), power 2**0, leaves its array as it is."""
    peak_b = _peak(bv)
    if peak_a == 0.0 or peak_b == 0.0:
        return 0.0
    exp_a, exp_b = math.frexp(peak_a)[1], math.frexp(peak_b)[1]
    if exp_a:
        av = np.ldexp(av, -exp_a)
    if exp_b:
        bv = np.ldexp(bv, -exp_b)
    na, nb = math.sqrt(float(av.dot(av))), math.sqrt(float(bv.dot(bv)))
    return min(1.0, abs(float(av.dot(bv))) / (na * nb))


def rotational_family(
    x1, x2, y1, y2, theta: float, phi: float, tol: ToleranceProfile | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Angle-parameterized family of pairs sharing one convolution output.

    Requires x1 and x2, and y1 and y2, of equal length, and the seed condition
    ``convolve(x1, y1) == convolve(x2, y2)``, with neither convolution
    overflowing float64.
    Returns ``(x1', y1', x2', y2')`` where

        x1' = x1 cos(theta) - x2 sin(theta),   y1' = y1 sin(phi) - y2 cos(phi),
        x2' = x1 cos(phi)  - x2 sin(phi),      y2' = y1 sin(theta) - y2 cos(theta).

    Both output pairs convolve to the same vector; ``theta == phi`` (mod pi)
    collapses the two pairs into one and is flagged with a warning.  Rotated
    factors that overflow float64 are refused with ``ValueError``.
    """
    x1s, x2s, y1s, y2s = map(as_signal, (x1, x2, y1, y2))
    for name, a, b in (("x", x1s, x2s), ("y", y1s, y2s)):
        if a.size != b.size:
            raise ValueError(f"{name}1 and {name}2 differ in length: {a.size} vs {b.size}")
    theta, phi = _finite_scalar(theta, "theta"), _finite_scalar(phi, "phi")
    tol = tol or DEFAULT_TOL
    residual, peak, peak_alt = _outputs(x1s, y1s, x2s, y2s)
    if residual > tol._at(max(peak, peak_alt)):
        raise ValueError("seed condition violated: convolve(x1, y1) != convolve(x2, y2)")
    if abs(math.sin(theta - phi)) <= DEGENERACY_EPS:
        warnings.warn(
            "theta == phi (mod pi): the two output pairs coincide and carry "
            "no ambiguity information",
            RuntimeWarning,
            stacklevel=2,
        )
    x1p = _rotated(x1s, x2s, math.cos(theta), math.sin(theta))
    y1p = _rotated(y1s, y2s, math.sin(phi), math.cos(phi))
    x2p = _rotated(x1s, x2s, math.cos(phi), math.sin(phi))
    y2p = _rotated(y1s, y2s, math.sin(theta), math.cos(theta))
    return x1p, y1p, x2p, y2p


def _rotated(a, b, c: float, s: float) -> np.ndarray:
    """``c a - s b`` of trusted arrays, frozen; ``ValueError`` if it
    overflows float64 (an overflowing product leaves an inf or NaN in it)."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = c * a - s * b
    return _frozen(out, "the rotated pairs overflow float64: rescale the seed pairs")[0]


def shift_ambiguity(x, y) -> AmbiguousPair:
    """Certificate pair for the border zero patterns.

    For ``x = (u, 0)`` and ``y = (0, v)`` the shifted pair is ``x' = (0, u)``
    and ``y' = (v, 0)`` (and mirrored for ``x(1) = y(n) = 0``).  Both
    convolutions accumulate the identical products in the identical order,
    so the residual is exactly zero; a convolution that overflows is refused.
    """
    (xs, x_peak), ys = _signal(x), as_signal(y)
    if not xs.any() or not ys.any():
        raise ValueError("x and y must be nonzero")
    if xs[-1] == 0.0 and ys[0] == 0.0:
        x_alt = np.concatenate(([0.0], xs[:-1]))
        y_alt = np.concatenate((ys[1:], [0.0]))
    elif xs[0] == 0.0 and ys[-1] == 0.0:
        x_alt = np.concatenate((xs[1:], [0.0]))
        y_alt = np.concatenate(([0.0], ys[:-1]))
    else:
        raise ValueError("no pathological zero pattern: need x(m) = y(1) = 0 or x(1) = y(n) = 0")
    return _pair(xs, ys, x_alt, y_alt, _collinearity(xs, x_alt, x_peak))[0]


def _pair(xs, ys, x_alt, y_alt, coll: float) -> tuple[AmbiguousPair, float]:
    """The certificate pair ``(x_alt, y_alt)`` of trusted arrays ``(xs, ys)``,
    frozen, with its residual and collinearity, and max|xs * ys|."""
    x_alt.flags.writeable = y_alt.flags.writeable = False
    residual, peak, _ = _outputs(xs, ys, x_alt, y_alt)
    return AmbiguousPair(xs, ys, x_alt, y_alt, residual, coll), peak


def _outputs(x, y, x_alt, y_alt) -> tuple[float, float, float]:
    """The largest |difference| of ``z = x * y`` and ``z_alt = x_alt * y_alt``
    (trusted arrays, ``x`` as long as ``x_alt``, ``y`` as ``y_alt``), then the
    ``_peak`` of each.  A pair is refused if z, z_alt or their difference
    overflows; the difference can overflow only where the two peaks sum to
    inf (or NaN), so only there is it watched."""
    z, z_alt = _convolve(x, y), _convolve(x_alt, y_alt)
    peak, peak_alt = _peak(z), _peak(z_alt)
    if peak + peak_alt < math.inf:
        return _peak(z - z_alt), peak, peak_alt
    with np.errstate(over="ignore", invalid="ignore"):
        residual = _peak(z - z_alt)  # nonfinite if z or z_alt is
    if residual < math.inf:
        return residual, peak, peak_alt
    raise ValueError("the convolution of the pair overflows float64: rescale the signals")


def bordered_y_form(v, angle: float) -> np.ndarray:
    """The column-bordered product of v against (sin(angle), -cos(angle)).

    Entrywise ``sin(angle) * (0, v) - cos(angle) * (v, 0)``, which equals
    ``-reconstruct(v, angle)``; the test suite validates it against the
    forward map.  An output that overflows float64 raises ``ValueError``.
    """
    out = -_bordered(as_signal(v), _finite_scalar(angle, "angle"))
    return _frozen(out, "the bordered product overflows float64: rescale v")[0]


def attack(x, y, tol: ToleranceProfile | None = None) -> AmbiguousPair:
    """Adversarial certificate pair for generic even-length inputs.

    Decomposes ``x`` into bordered-rotation factors ``(u, theta)`` and ``y``
    into ``(v, phi)``, ``x = u * (cos theta, -sin theta)`` and
    ``y = v * (cos phi, -sin phi)``, then swaps the angles, one real linear
    factor of ``X(z)`` for one of ``Y(z)``:

        x' = reconstruct(u, phi),   y' = reconstruct(v, theta).

    The difference of the lifted outer products is ``sin(theta - phi)``
    times the bordered-product kernel element ``n0_element(u, v)``, so both
    pairs convolve to the same output.  Candidates with ``|cos(phi)|`` or
    ``|sin(phi - theta)|`` at most ``DEGENERACY_EPS`` are skipped.
    Enumeration is deterministic (one element per real root, as mirrors only
    negate the certificate; x outer, y inner, small factor magnitudes first)
    and the first combination with collinearity at most
    ``ATTACK_COLLINEARITY_BOUND``, a search preference only, wins; when every
    valid combination lies above it (one real root in each signal, or
    clustered roots), the least-collinear one is returned instead.
    Certification is ``verify_pair``'s rule either way.  The factors are
    those of ``quotient_decompose``, each kept by its division remainder, so
    the result is the one the full decompositions give.  A pair whose
    convolution overflows is refused with ``ValueError``.
    """
    (xs, x_peak), (ys, y_peak) = _signal(x), _signal(y)
    return _attack(xs, x_peak, ys, y_peak, tol or DEFAULT_TOL)[0]


def _attack(
    xs: np.ndarray, x_peak: float, ys: np.ndarray, y_peak: float, tol: ToleranceProfile
) -> tuple[AmbiguousPair, float]:
    """``attack`` of frozen 1-D float64 arrays with finite entries, ``x_peak``
    and ``y_peak`` their largest |entries|: the pair holds them as given.
    Also returns max|xs * ys|, the scale its residual is judged against."""
    m, n = xs.size, ys.size
    if m < 4 or n < 4 or m % 2 or n % 2:
        raise ValueError(f"model orders must be even and >= 4, got ({m}, {n})")
    _usable(xs, x_peak, tol, "x")
    _usable(ys, y_peak, tol, "y")
    # Well-conditioned factors first: the certificate pair is verified by
    # recomputing convolutions, whose float error grows with the factor
    # magnitudes, so small-dynamic-range factors give the sharpest residual.
    x_factors = sorted(_candidates(xs, x_peak, tol), key=operator.itemgetter(0))
    y_factors = sorted(_candidates(ys, y_peak, tol), key=operator.itemgetter(0))

    # The first combination under the bound wins.  Two decompositions can
    # share an angle by accident, so until then keep the least-collinear
    # valid combination as a fallback.
    best = None
    for _, theta, u in x_factors:
        for _, phi, v in y_factors:
            if min(abs(math.cos(phi)), abs(math.sin(phi - theta))) <= DEGENERACY_EPS:
                continue
            x_alt = _bordered(u, phi)
            coll = _collinearity(xs, x_alt, x_peak)
            if coll <= ATTACK_COLLINEARITY_BOUND:
                return _pair(xs, ys, x_alt, _bordered(v, theta), coll)
            if best is None or coll < best[0]:
                best = (coll, x_alt, v, theta)
    if best is None:
        raise AttackSearchError(
            "no valid angle combination: "
            f"{len(x_factors)} factors of x and {len(y_factors)} of y kept "
            "(distinct real roots whose division remainder is within tolerance), "
            f"degeneracy threshold {DEGENERACY_EPS}; inputs x={xs.tolist()}, y={ys.tolist()}"
        )
    coll, x_alt, v, theta = best
    return _pair(xs, ys, x_alt, _bordered(v, theta), coll)


def verify_pair(pair: AmbiguousPair, tol: ToleranceProfile | None = None) -> PairReport:
    """Recompute both convolutions and certify (or refuse to certify).

    Certification needs the residual within tolerance of the common output
    scale and the first factors non-collinear; pairs related by the scaling
    equivalence ``(a x, y / a)`` have collinearity one and never certify.
    A pair whose convolutions, or their difference, overflow is refused with
    ``ValueError``.
    """
    tol = tol or DEFAULT_TOL
    (x, x_peak), y = _signal(pair.x), as_signal(pair.y)
    x_alt, y_alt = as_signal(pair.x_alt), as_signal(pair.y_alt)
    if x.size != x_alt.size or y.size != y_alt.size:
        raise ValueError("certificate pair dimensions do not match the original pair")
    residual, peak, _ = _outputs(x, y, x_alt, y_alt)
    coll = _collinearity(x, x_alt, x_peak)
    certifies = _certifies(residual, tol._at(peak), coll)
    return PairReport(residual=residual, collinearity=coll, certifies_unidentifiability=certifies)


def _certifies(residual: float, bound: float, coll: float) -> bool:
    """The one certification rule: the residual within ``bound``, a multiple
    of the common output's peak, and first factors that are not collinear."""
    return residual <= bound and coll < 1.0 - COLLINEARITY_MARGIN
