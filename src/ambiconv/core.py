"""Dense vectors and matrices, linear convolution, and the lifted operator.

The lifted operator maps an ``m x n`` matrix to the length ``m+n-1`` vector
of its anti-diagonal sums; on a rank-one matrix ``outer(x, y)`` it reproduces
the linear convolution ``convolve(x, y)``.  Everything here is pure and
operates on immutable float64 arrays; integer-valued inputs stay exact
because all values remain far below 2**53.  Both primitives are numpy only:
the one correlation ``np.convolve`` makes, and one column sum over a skewed
copy of the matrix; the rank counts singular values from one LAPACK
``dgesdd`` call through numpy's own SVD gufunc, so no path through the
package loads scipy.  Two private numpy entry points skip Python wrappers,
with the same bits: the gufuncs of ``numpy.linalg._umath_linalg`` behind
``np.linalg.svd`` and ``eigvals``, and ``numpy._core.multiarray.correlate2``
(mode 2), the C function ``np.correlate(a, v, "full")`` calls after its
``array_function_dispatch`` wrapper.

Operands are validated at the public boundary only, each in one reduction:
``_signal`` and ``_matrix`` copy the input, and ``_frozen``, the one finite
check of operands and of results (a correlation sets no floating-point
flag), takes its peak (largest |entry|) with ``_peak``: one ``argmax`` over
the absolute values finds the first NaN from any position, as
``abs().max()`` propagates it, where Python's ``max`` skips one after a
larger entry; the test is ``peak < inf``.  One whitelist, ``_is_real``,
judges every entry, scalar and integer before a float64 conversion could
read ``"1.5"``, ``True`` or ``None`` as a number; float64 arrays skip it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy._core.multiarray import correlate2 as _correlate2
from numpy.linalg._umath_linalg import svd as _svd


_FLOAT64 = np.dtype(np.float64)


def _is_real(value) -> bool:
    """Whether ``value`` is one real number: a Python ``int`` or ``float``
    (``np.float64`` is one) but no ``bool``, or a numpy scalar or plain 0-d
    array of dtype kind f, i or u (``np.integer`` holds ``timedelta64``)."""
    if isinstance(value, (int, float)):
        return type(value) is not bool
    if isinstance(value, np.generic) or type(value) is np.ndarray and value.ndim == 0:
        return value.dtype.kind in "fiu"
    return False


def _real_scalar(value, name: str) -> float:
    """A scalar parameter as a float; ``ValueError`` naming it unless it is
    real (``_is_real``).  An integer beyond float64 reads as ±inf, as 1e400."""
    if not _is_real(value):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


@dataclass(frozen=True, kw_only=True)
class ToleranceProfile:
    """Scale-relative comparison tolerance.

    Every approximate comparison in the library uses the threshold
    ``rel_tol * scale``, where ``scale`` is the largest absolute entry among
    the operands, so no verdict depends on units: scaling every operand by a
    power of two scales each result by it exactly, while every value stays in
    float64's normal range.  ``rel_tol`` is keyword-only.
    """

    rel_tol: float = 1e-9

    def __post_init__(self):
        value = _real_scalar(self.rel_tol, "rel_tol")
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"rel_tol must be finite and nonnegative, got {value}")
        object.__setattr__(self, "rel_tol", value)

    def _at(self, scale: float) -> float:
        """The threshold ``rel_tol * scale`` at an already computed ``scale``
        (largest |entry|): the one formula behind every tolerance decision."""
        return self.rel_tol * scale


DEFAULT_TOL = ToleranceProfile()

# The campaigns of ``trials``, defined here so the CLI parser can list them
# without loading that module.
SUITES = ("attack", "quotient", "nullspace", "kernel", "structure")


def as_signal(x) -> np.ndarray:
    """Validate and return a signal as an immutable 1-D float64 array."""
    return _signal(x)[0]


def _signal(x) -> tuple[np.ndarray, float]:
    """``as_signal(x)`` and its largest |entry|, from one reduction."""
    arr = _real(x, "signal")
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"signal must be 1-D with length >= 1, got shape {arr.shape}")
    return _frozen(arr, "signal entries must be finite")


def _finite_scalar(value, name: str) -> float:
    """Validate a scalar parameter as a finite float, naming it on failure."""
    out = _real_scalar(value, name)
    if not math.isfinite(out):
        raise ValueError(f"{name} must be finite, got {out}")
    return out


def as_matrix(w) -> np.ndarray:
    """Validate and return a matrix as an immutable 2-D float64 array."""
    return _matrix(w)[0]


def _matrix(w) -> tuple[np.ndarray, float]:
    """``as_matrix(w)`` and its largest |entry|, from one reduction."""
    arr = _real(w, "matrix")
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"matrix must be 2-D with m, n >= 1, got shape {arr.shape}")
    return _frozen(arr, "matrix entries must be finite")


def _real(x, kind: str) -> np.ndarray:
    """A fresh float64 array of ``x``, a real number or a list, tuple or plain
    array of them (``_real_entries``); a plain float64 array skips the scan."""
    if type(x) is np.ndarray and x.dtype is _FLOAT64:
        return np.array(x, copy=True)
    if not _real_entries(x):
        raise ValueError(f"{kind} entries must be real numbers")
    try:
        return np.array(x, dtype=_FLOAT64)
    except ValueError:  # the one fault the entries leave: rows of unequal shapes
        raise ValueError(f"{kind} entries must form a rectangular array, not ragged rows") from None
    except OverflowError:  # an integer beyond float64, as a JSON 1e400 is inf
        raise ValueError(f"{kind} entries must be finite") from None


def _real_entries(x, depth: int = 1) -> bool:
    """Whether ``x`` is real, or a list, tuple or plain array whose entries,
    nested at most as deep as numpy's 64 dimensions, are: an array by its dtype
    kind, an object array entry by entry, a flat sequence once per item type."""
    if type(x) is np.ndarray:
        return x.dtype.kind in "fiu" or x.dtype.kind == "O" and all(map(_is_real, x.flat))
    if type(x) is not list and type(x) is not tuple:
        return _is_real(x)
    types = set(map(type, x))
    if types & {list, tuple, np.ndarray}:
        return depth < 64 and all(_real_entries(item, depth + 1) for item in x)
    return all(_is_real(next(item for item in x if type(item) is t)) for t in types)


def _frozen(arr: np.ndarray, message: str) -> tuple[np.ndarray, float]:
    """A fresh operand or result array, frozen, and its peak; ``ValueError``
    unless the peak, NaN for any NaN entry, is below inf."""
    peak = _peak(arr)
    if not peak < math.inf:
        raise ValueError(message)
    arr.setflags(write=False)
    return arr, peak


def _peak(a: np.ndarray) -> float:
    """The largest |entry| of a nonempty array as a Python float, NaN if any
    entry is NaN: ``argmax`` finds the first NaN, else the largest entry."""
    b = np.abs(a)
    return b.item(b.argmax())


def convolve(x, y) -> np.ndarray:
    """Linear convolution of two signals, output length m+n-1.

    Bilinear and commutative; exact on integer-valued inputs (``np.convolve``).
    An output that overflows float64 raises ``ValueError``.
    """
    out = _convolve(as_signal(x), as_signal(y))
    return _frozen(out, "the convolution overflows float64: rescale x or y")[0]


def _convolve(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``np.convolve(a, v)`` of trusted nonempty 1-D float64 arrays, bit for
    bit: the one correlation it makes, the longer operand first (``a`` when
    the lengths are equal), without its argument handling."""
    if v.size > a.size:
        a, v = v, a
    return _correlate2(a, v[::-1], 2)  # np.correlate(a, v[::-1], "full")


def outer(x, y) -> np.ndarray:
    """Rank-one lift of a signal pair: W(k,l) = x(k) * y(l); ``ValueError``
    if the largest product, that of the two peaks, overflows float64."""
    (xs, x_peak), (ys, y_peak) = _signal(x), _signal(y)
    if x_peak * y_peak == math.inf:
        raise ValueError("the outer product overflows float64: rescale x or y")
    w = np.outer(xs, ys)
    w.setflags(write=False)
    return w


def lift_apply(w) -> np.ndarray:
    """Anti-diagonal sums of a matrix: z(j) = sum of W(k,l) over k+l = j+1.

    Satisfies ``lift_apply(outer(x, y)) == convolve(x, y)``; sums that
    overflow float64 raise ``ValueError``.
    """
    out = _checked_lift(*_matrix(w))
    out.setflags(write=False)
    return out


def _lift(w: np.ndarray) -> np.ndarray:
    """``lift_apply`` on a trusted 2-D float64 array, in O(mn) memory and
    with nothing cached per shape.  A zero-padded copy read back in rows one
    entry shorter (a tall matrix: its columns, last first, one longer) puts
    entry (k, l) in column k+l; the column sum adds each anti-diagonal with k
    ascending, as a ``bincount`` over k+l does, signed zeros included."""
    m, n = w.shape
    if m <= n:
        flat = np.zeros(m * (n + m))
        flat.reshape(m, n + m)[:, :n] = w
        return np.add.reduce(flat[: m * (n + m - 1)].reshape(m, n + m - 1), axis=0)
    flat = np.zeros(n * (n + m))
    flat[: n * (n + m - 1)].reshape(n, n + m - 1)[:, n - 1 :] = w.T[::-1]
    return np.add.reduce(flat.reshape(n, n + m), axis=0)[:-1]


def _checked_lift(w: np.ndarray, peak: float) -> np.ndarray:
    """``_lift`` of a matrix with largest |entry| ``peak``; sums that overflow
    float64 raise ``ValueError`` (watched only where 2 min(m, n) peaks could)."""
    if peak * (2 * min(w.shape)) < math.inf:
        return _lift(w)
    try:
        with np.errstate(over="raise"):
            return _lift(w)
    except FloatingPointError:
        raise ValueError("the anti-diagonal sums overflow float64: rescale the matrix") from None


def hankel_basis(m: int, n: int) -> list[np.ndarray]:
    """The m+n-1 Hankel indicator matrices decomposing the lifted operator.

    Element j (0-based) has ones exactly on the j-th anti-diagonal, so
    ``lift_apply(W)[j] == <basis[j], W>`` (trace inner product) and the
    supports are pairwise disjoint; ``m`` and ``n`` are exact integers.
    """
    m, n = _exact_int(m, "m"), _exact_int(n, "n")
    if m < 1 or n < 1:
        raise ValueError("dimensions must be >= 1")
    rows = np.arange(m)[:, None]
    cols = np.arange(n)[None, :]
    basis = []
    for j in range(m + n - 1):
        s = (rows + cols == j).astype(float)
        s.setflags(write=False)
        basis.append(s)
    return basis


def rank_estimate(w, tol: ToleranceProfile | None = None) -> int:
    """Numerical rank: the singular values (one LAPACK ``dgesdd``, which scales
    a matrix near float64's limit itself) above the tol-scaled threshold;
    exact on modest integer-valued matrices.  ``RankError`` if it fails."""
    ws, peak = _matrix(w)
    return _rank(ws, (tol or DEFAULT_TOL)._at(peak))


class NumericalError(RuntimeError):
    """A solver that failed on valid input; ``code`` names the failure, and
    the CLI reports it as a structured error with exit code 1."""


class RankError(NumericalError):
    """The singular value solver behind the numerical rank failed to converge."""
    code = "rank-failed"


def _rank(w: np.ndarray, thresh: float) -> int:
    """``rank_estimate`` of a trusted 2-D float64 array, given its threshold,
    from the gufunc behind ``np.linalg.svd(w, compute_uv=False)``.  A failure
    is its NaN output, which would compare as a low rank, or the exception a
    strict warnings or ``np.seterr`` policy makes of its invalid-value signal."""
    try:
        sv = _svd(w, signature="d->d").tolist()
    except (FloatingPointError, RuntimeWarning):
        sv = [math.nan]  # as numpy's own failure output
    if sv[0] != sv[0]:
        raise RankError("singular value solver failed: SVD did not converge")
    return sum(map(thresh.__lt__, sv))


# --- JSON wire formats -----------------------------------------------------
#
# Signals:  {"len": d, "entries": [...]}
# Matrices: {"m": m, "n": n, "entries": [[row], ...]}


def signal_to_json(x) -> dict:
    xs = as_signal(x)
    return {"len": int(xs.size), "entries": xs.tolist()}


def _exact_int(value, name: str) -> int:
    """An integer argument or JSON field: a real number that is integral, so
    ``4.0`` passes, where ``int`` would read ``4.5`` or ``True`` as one."""
    if _is_real(value):
        number = value if isinstance(value, (int, float)) else value.item()
        if isinstance(number, int) or number.is_integer():
            return int(number)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def signal_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "entries" not in obj or "len" not in obj:
        raise ValueError('signal JSON must be {"len": d, "entries": [...]}')
    x = as_signal(obj["entries"])
    if _exact_int(obj["len"], 'signal JSON "len"') != x.size:
        raise ValueError(f'signal JSON "len" {obj["len"]} != entry count {x.size}')
    return x


def matrix_to_json(w) -> dict:
    ws = as_matrix(w)
    return {"m": int(ws.shape[0]), "n": int(ws.shape[1]), "entries": ws.tolist()}


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or not {"m", "n", "entries"} <= set(obj):
        raise ValueError('matrix JSON must be {"m": m, "n": n, "entries": [[...], ...]}')
    w = as_matrix(obj["entries"])
    if (_exact_int(obj["m"], 'matrix JSON "m"'), _exact_int(obj["n"], 'matrix JSON "n"')) != w.shape:
        raise ValueError(f'matrix JSON dims ({obj["m"]}, {obj["n"]}) != entry shape {w.shape}')
    return w
