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

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    ToleranceProfile,
    _finite_scalar,
    as_signal,
    signal_from_json,
    signal_to_json,
)
from .quotient import _bordered, _candidates, _reconstructs

# Angle combinations closer than this to the degenerate set (cos(phi) = 0 or
# phi = theta mod pi) are skipped during the attack's candidate search.
DEGENERACY_EPS = 1e-6

# A pair whose first factors have |cosine similarity| above 1 - this margin
# is treated as the scaling equivalence class, not a genuine ambiguity.
COLLINEARITY_MARGIN = 1e-9

# The attack aims for certificates at least this far from collinear; angle
# combinations above the bound are only used when no better one exists.
ATTACK_COLLINEARITY_BOUND = 1.0 - 1e-6


class AttackSearchError(RuntimeError):
    """No valid angle combination was found (measure-zero event for generic
    inputs); carries diagnostics for triage."""


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
            residual=float(obj.get("residual", 0.0)),
            collinearity=float(obj.get("collinearity", 0.0)),
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
    av, bv = as_signal(a), as_signal(b)
    if av.size != bv.size:
        raise ValueError("signals must have equal length")
    return _collinearity(av, bv)


def _collinearity(av: np.ndarray, bv: np.ndarray) -> float:
    """``collinearity`` of trusted equal-length arrays.  Each is first scaled
    by the power of two of its peak (exact in binary floating point), so the
    dot products neither underflow nor overflow at any finite scale."""
    peak_a, peak_b = float(np.abs(av).max()), float(np.abs(bv).max())
    if peak_a == 0.0 or peak_b == 0.0:
        return 0.0
    av = np.ldexp(av, -math.frexp(peak_a)[1])
    bv = np.ldexp(bv, -math.frexp(peak_b)[1])
    na, nb = math.sqrt(float(av @ av)), math.sqrt(float(bv @ bv))
    return min(1.0, abs(float(av @ bv)) / (na * nb))


def rotational_family(
    x1, x2, y1, y2, theta: float, phi: float, tol: ToleranceProfile | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Angle-parameterized family of pairs sharing one convolution output.

    Requires the seed condition ``convolve(x1, y1) == convolve(x2, y2)``.
    Returns ``(x1', y1', x2', y2')`` where

        x1' = x1 cos(theta) - x2 sin(theta),   y1' = y1 sin(phi) - y2 cos(phi),
        x2' = x1 cos(phi)  - x2 sin(phi),      y2' = y1 sin(theta) - y2 cos(theta).

    Both output pairs convolve to the same vector; ``theta == phi`` (mod pi)
    collapses the two pairs into one and is flagged with a warning.
    """
    x1s, x2s = as_signal(x1), as_signal(x2)
    y1s, y2s = as_signal(y1), as_signal(y2)
    theta, phi = _finite_scalar(theta, "theta"), _finite_scalar(phi, "phi")
    tol = tol or DEFAULT_TOL
    z1 = np.convolve(x1s, y1s)
    z2 = np.convolve(x2s, y2s)
    if float(np.max(np.abs(z1 - z2))) > tol.threshold(z1, z2):
        raise ValueError("seed condition violated: convolve(x1, y1) != convolve(x2, y2)")
    if abs(math.sin(theta - phi)) <= DEGENERACY_EPS:
        warnings.warn(
            "theta == phi (mod pi): the two output pairs coincide and carry "
            "no ambiguity information",
            RuntimeWarning,
            stacklevel=2,
        )
    x1p = math.cos(theta) * x1s - math.sin(theta) * x2s
    y1p = math.sin(phi) * y1s - math.cos(phi) * y2s
    x2p = math.cos(phi) * x1s - math.sin(phi) * x2s
    y2p = math.sin(theta) * y1s - math.cos(theta) * y2s
    for arr in (x1p, y1p, x2p, y2p):
        arr.flags.writeable = False
    return x1p, y1p, x2p, y2p


def shift_ambiguity(x, y) -> AmbiguousPair:
    """Certificate pair for the border zero patterns.

    For ``x = (u, 0)`` and ``y = (0, v)`` the shifted pair is ``x' = (0, u)``
    and ``y' = (v, 0)`` (and mirrored for ``x(1) = y(n) = 0``).  Both
    convolutions accumulate the identical products in the identical order,
    so the residual is exactly zero.
    """
    xs, ys = as_signal(x), as_signal(y)
    if not xs.any() or not ys.any():
        raise ValueError("x and y must be nonzero")
    if xs[-1] == 0.0 and ys[0] == 0.0:
        x_alt = np.concatenate(([0.0], xs[:-1]))
        y_alt = np.concatenate((ys[1:], [0.0]))
    elif xs[0] == 0.0 and ys[-1] == 0.0:
        x_alt = np.concatenate((xs[1:], [0.0]))
        y_alt = np.concatenate(([0.0], ys[:-1]))
    else:
        raise ValueError(
            "no pathological zero pattern: need x(m) = y(1) = 0 or x(1) = y(n) = 0"
        )
    x_alt.flags.writeable = False
    y_alt.flags.writeable = False
    residual = float(np.max(np.abs(np.convolve(xs, ys) - np.convolve(x_alt, y_alt))))
    return AmbiguousPair(
        x=xs,
        y=ys,
        x_alt=x_alt,
        y_alt=y_alt,
        residual=residual,
        collinearity=_collinearity(xs, x_alt),
    )


def bordered_y_form(v, angle: float) -> np.ndarray:
    """The column-bordered product of v against (sin(angle), -cos(angle)).

    Entrywise ``sin(angle) * (0, v) - cos(angle) * (v, 0)``, which equals
    ``-reconstruct(v, angle)``.  The attack relies on this identity to reuse
    the decomposition solver for the second signal; the test suite validates
    it against the forward map.
    """
    out = -_bordered(as_signal(v), _finite_scalar(angle, "angle"))
    out.flags.writeable = False
    return out


def attack(x, y, tol: ToleranceProfile | None = None) -> AmbiguousPair:
    """Adversarial certificate pair for generic even-length inputs.

    Decomposes ``x`` into bordered-rotation factors ``(u, theta)`` and ``-y``
    into ``(v, phi)`` (so that ``y`` equals the column-bordered form of
    ``v`` at angle ``phi``), then swaps the angles, one real linear factor
    of ``X(z)`` for one of ``Y(z)``:

        x' = reconstruct(u, phi),   y' = bordered_y_form(v, theta).

    The difference of the lifted outer products is ``sin(phi - theta)``
    times a bordered-product kernel element, so both pairs convolve to the
    same output.  Candidates with ``|cos(phi)|`` or ``|sin(phi - theta)|``
    at most ``DEGENERACY_EPS`` are skipped.  Enumeration is deterministic
    (one element per real root, as mirrors only negate the certificate;
    x outer, y inner, small factor magnitudes first) and the first
    combination whose certificate factor stays non-collinear within
    ``ATTACK_COLLINEARITY_BOUND`` wins; if the two decompositions share
    every angle by accident, the least-collinear valid combination is
    returned instead.  Each factor is verified by reconstruction, as in
    ``quotient_decompose``, when the search reaches it: the result is the
    one the full decompositions would give, without checking the factors
    after the winning combination.
    """
    xs, ys = as_signal(x), as_signal(y)
    tol = tol or DEFAULT_TOL
    m, n = xs.size, ys.size
    if m < 4 or n < 4 or m % 2 or n % 2:
        raise ValueError(f"model orders must be even and >= 4, got ({m}, {n})")
    for name, vec in (("x", xs), ("y", ys)):
        accept = tol._at(float(np.abs(vec).max()))
        for end in (0, -1):
            if abs(vec[end]) <= accept:
                raise ValueError(
                    f"endpoint {name}({end % vec.size + 1}) is too close to zero "
                    "for the decomposition (the border zero patterns are handled "
                    "by shift_ambiguity instead)"
                )
    # Well-conditioned factors first: the certificate pair is verified by
    # recomputing convolutions, whose float error grows with the factor
    # magnitudes, so small-dynamic-range factors give the sharpest residual.
    # The sorts are stable, so checking each factor by reconstruction only
    # when the search reaches it keeps the order of sorting verified ones.
    neg_y = -ys
    x_peak, x_roots = _candidates(xs, tol)
    y_peak, y_roots = _candidates(neg_y, tol)
    x_roots.sort(key=lambda c: c[0])
    y_roots.sort(key=lambda c: c[0])

    @functools.cache
    def y_holds(k: int) -> bool:
        return _reconstructs(neg_y, y_peak, tol, y_roots[k])

    def combinations():
        for xc in x_roots:
            if _reconstructs(xs, x_peak, tol, xc):
                for k, yc in enumerate(y_roots):
                    if y_holds(k):
                        yield xc, yc

    best = None
    for (_, theta, u), (_, phi, v) in combinations():
        if abs(math.cos(phi)) <= DEGENERACY_EPS:
            continue
        if abs(math.sin(phi - theta)) <= DEGENERACY_EPS:
            continue
        x_alt = _bordered(u, phi)
        coll = _collinearity(xs, x_alt)
        # The first combination under the bound wins.  Two decompositions
        # can share an angle by accident, so until then keep the
        # least-collinear valid combination as a fallback.
        if best is None or coll < best[0]:
            best = (coll, x_alt, v, theta)
        if coll <= ATTACK_COLLINEARITY_BOUND:
            break
    if best is None:
        x_count = sum(_reconstructs(xs, x_peak, tol, c) for c in x_roots)
        y_count = sum(map(y_holds, range(len(y_roots))))
        raise AttackSearchError(
            "no valid angle combination: "
            f"{x_count} real roots of x, {y_count} of -y, "
            f"degeneracy threshold {DEGENERACY_EPS}; inputs x={xs.tolist()}, y={ys.tolist()}"
        )
    coll, x_alt, v, theta = best
    y_alt = -_bordered(v, theta)
    x_alt.flags.writeable = False
    y_alt.flags.writeable = False
    residual = float(np.abs(np.convolve(xs, ys) - np.convolve(x_alt, y_alt)).max())
    return AmbiguousPair(
        x=xs,
        y=ys,
        x_alt=x_alt,
        y_alt=y_alt,
        residual=residual,
        collinearity=coll,
    )


def verify_pair(pair: AmbiguousPair, tol: ToleranceProfile | None = None) -> PairReport:
    """Recompute both convolutions and certify (or refuse to certify).

    Certification needs the residual within tolerance of the common output
    scale and the first factors non-collinear; pairs related by the scaling
    equivalence ``(a x, y / a)`` have collinearity one and never certify.
    """
    tol = tol or DEFAULT_TOL
    x, y = as_signal(pair.x), as_signal(pair.y)
    x_alt, y_alt = as_signal(pair.x_alt), as_signal(pair.y_alt)
    if x.size != x_alt.size or y.size != y_alt.size:
        raise ValueError("certificate pair dimensions do not match the original pair")
    z = np.convolve(x, y)
    z_alt = np.convolve(x_alt, y_alt)
    residual = float(np.max(np.abs(z - z_alt)))
    coll = _collinearity(x, x_alt)
    certifies = residual <= tol.threshold(z) and coll < 1.0 - COLLINEARITY_MARGIN
    return PairReport(
        residual=residual, collinearity=coll, certifies_unidentifiability=certifies
    )
