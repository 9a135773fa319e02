"""Independent brute-force oracles the test suite checks the library against.

Everything here is deliberately written with plain Python loops (and exact
Fraction arithmetic where rank is concerned) so that no code path is shared
with the package implementations being tested.  The four exceptions are
bit-for-bit references that import nothing from the package: the
``bincount`` lift, the recursive corner-factorization classifier, the
array recurrence of the factor-swap generator and the array-based quotient
candidate builder, which the package's skewed column sum, flat classifier,
generator and list-based candidate builder must reproduce exactly.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
from scipy.linalg.lapack import dgeev, dgeev_lwork


def convolve_brute(x, y):
    """Direct piecewise-sum linear convolution, plain Python loops."""
    m, n = len(x), len(y)
    out = [0.0] * (m + n - 1)
    for l in range(m + n - 1):
        acc = 0.0
        for j in range(m):
            k = l - j
            if 0 <= k < n:
                acc += x[j] * y[k]
        out[l] = acc
    return np.array(out)


def antidiagonal_sums_brute(w):
    """Anti-diagonal sums via explicit cell enumeration."""
    w = np.asarray(w)
    m, n = w.shape
    out = [0.0] * (m + n - 1)
    for k in range(m):
        for l in range(n):
            out[k + l] += w[k, l]
    return np.array(out)


def rank_fraction(mat) -> int:
    """Exact rank by Gaussian elimination over the rationals.

    Intended for integer-valued inputs, where float-to-Fraction conversion
    is exact.
    """
    rows = [[Fraction(v).limit_denominator(10**12) for v in row] for row in np.asarray(mat)]
    n_rows = len(rows)
    n_cols = len(rows[0])
    rank = 0
    row = 0
    for col in range(n_cols):
        pivot = None
        for r in range(row, n_rows):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[row], rows[pivot] = rows[pivot], rows[row]
        for r in range(row + 1, n_rows):
            if rows[r][col] != 0:
                factor = rows[r][col] / rows[row][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[row])]
        rank += 1
        row += 1
        if row == n_rows:
            break
    return rank


def operator_matrix(m, n):
    """The (m+n-1) x (mn) coefficient matrix of the anti-diagonal sums,
    acting on row-major vectorized matrices."""
    a = np.zeros((m + n - 1, m * n))
    for k in range(m):
        for l in range(n):
            a[k + l, k * n + l] = 1.0
    return a


def lift_bincount(w):
    """Anti-diagonal sums as one ``bincount`` over k+l: the formulation whose
    summation order (row-major, from +0.0) the package's lift reproduces."""
    w = np.asarray(w, dtype=float)
    m, n = w.shape
    idx = (np.arange(m)[:, None] + np.arange(n)[None, :]).ravel()
    return np.bincount(idx, weights=w.ravel(), minlength=m + n - 1)


# --- reference corner-factorization classifier --------------------------------
#
# The recursive classifier the flat one replaced, kept verbatim in its
# arithmetic so the two can be compared bit for bit.  Certificates are dicts
# with the keys of the JSON wire format and numpy arrays as values.


def transpose_certificate(cert):
    """The certificate of the transposed matrix: n0(u, v)^T = n0(v, -u), and
    an n2 level's corner blocks trade places."""
    if cert["kind"] == "n0":
        return {"kind": "n0", "u": cert["v"], "v": -cert["u"]}
    if cert["kind"] == "n2":
        return {
            "kind": "n2",
            "u1": cert["v2"],
            "u2": cert["v1"],
            "v1": cert["u2"],
            "v2": cert["u1"],
            "inner": transpose_certificate(cert["inner"]),
        }
    return cert


def certificate_matrix(cert):
    """Top-right embedding of the first block plus bottom-left of the second."""
    if cert["kind"] == "n0":
        a = np.outer(cert["u"], cert["v"])
        b = -a
    else:
        a, b = np.outer(cert["u1"], cert["v1"]), np.outer(cert["u2"], cert["v2"])
    y = np.zeros((a.shape[0] + 1, a.shape[1] + 1))
    y[:-1, 1:] = a
    y[1:, :-1] += b
    return y


def n2_generate_reference(m, n, seed):
    """(matrix, certificate) of ``n2_generate(m, n, seed)`` from the plain
    array recurrence: p and q drawn as one (2, min(m, n)) array, then b, and
    every coefficient read as a numpy scalar.  An ``m > n`` element is the
    ``(n, m)`` one transposed."""
    rng = np.random.default_rng(seed)
    p, q = rng.uniform(-1.0, 1.0, (2, min(m, n)))
    b = rng.uniform(-1.0, 1.0, abs(n - m) + 1)
    p[0], p[-1], q[0], q[-1] = 1.0, 0.0, 0.0, 1.0
    levels = []
    while p.size > 1:
        c = q[-1] * p[0] - q[0] * p[-1]
        p, q = (q[0] * p - p[0] * q)[1:] / c, (q[-1] * p - p[-1] * q)[:-1]
        levels.append({"u1": -q, "u2": p, "v1": np.convolve(b, p), "v2": np.convolve(b, q)})
    bottom = levels.pop()
    cert = {"kind": "n0", "u": bottom["u1"], "v": bottom["v1"]}
    for level in reversed(levels):
        cert = {"kind": "n2", **level, "inner": cert}
    if m > n:
        cert = transpose_certificate(cert)
    return certificate_matrix(cert), cert


def classify_recursive(w, rel_tol=1e-9):
    """(certificate, refactorization residual) of a rank-two kernel element."""
    w = np.array(w, dtype=float)
    cert = _classify_level(w, rel_tol, float(np.max(np.abs(w))))
    if cert["kind"] == "raw":
        return cert, 0.0
    return cert, float(np.max(np.abs(w - certificate_matrix(cert))))


def _classify_level(w, rel_tol, peak):
    m, n = w.shape
    thresh = rel_tol * peak
    if m == 2:
        return {"kind": "n0", "u": np.ones(1), "v": w[0, 1:]}
    if n == 2:
        return transpose_certificate(
            _classify_level(np.ascontiguousarray(w.T), rel_tol, peak)
        )
    corner_bl = abs(w[m - 1, 0])
    corner_tr = abs(w[0, n - 1])
    if corner_bl <= thresh and corner_tr <= thresh:
        return {"kind": "raw"}
    if corner_tr > corner_bl:
        return transpose_certificate(
            _classify_level(np.ascontiguousarray(w.T), rel_tol, peak)
        )
    u2 = w[1:, 0]
    v2 = w[m - 1, : n - 1] / w[m - 1, 0]
    block = w[: m - 1, 1:].copy()
    block[1:, :-1] -= np.outer(u2[:-1], v2[1:])
    i, j = np.unravel_index(np.argmax(np.abs(block)), block.shape)
    if abs(block[i, j]) <= thresh:
        raise ValueError("top-right block vanishes")
    u1 = block[:, j]
    v1 = block[i] / block[i, j]
    inner = np.outer(u1, v1) + np.outer(u2, v2)
    inner_peak = float(np.max(np.abs(inner)))
    if inner_peak <= thresh:
        return {"kind": "n0", "u": u1, "v": v1}
    return {
        "kind": "n2",
        "u1": u1,
        "u2": u2,
        "v1": v1,
        "v2": v2,
        "inner": _classify_level(inner, rel_tol, inner_peak),
    }


# --- reference quotient candidate builder --------------------------------------
#
# The array-based builder the list-based one replaced: an ``np.eye``
# companion, ``dgeev`` with LAPACK's optimal workspace, synthetic division of
# numpy arrays and ``np.abs(w_star).max()`` as each quotient's peak.


def quotient_candidates(ws):
    """``(max|w_star|, gamma, w_star)`` per distinct real root of ``ws``,
    in increasing root order, for every root whose quotient is finite; the
    real band is 1e-6 and roots closer than 1e-8 (relative) are merged."""
    ws = np.asarray(ws, dtype=float)
    n = ws.size - 1
    comp = np.eye(n, k=-1, order="F")
    comp[0] = -ws[-2::-1] / ws[-1]
    lwork = int(dgeev_lwork(n, compute_vl=0, compute_vr=0)[0])
    wr, wi, _, _, info = dgeev(comp, compute_vl=0, compute_vr=0, lwork=lwork, overwrite_a=1)
    assert info == 0
    real = zip(wr.tolist(), wi.tolist())
    roots = sorted(r for r, i in real if abs(i) <= 1e-6 * (1.0 + abs(r)))
    candidates = []
    kept = -math.inf
    for r in roots:
        if r - kept <= 1e-8 * (1.0 + abs(r)):
            continue
        kept = r
        gamma = math.atan2(1.0, r)
        a, b = math.cos(gamma), -math.sin(gamma)
        if abs(r) > 1.0:
            w_star = _divide_low_array(ws, a, b)
        else:
            w_star = _divide_low_array(ws[::-1], b, a)[::-1]
        w_peak = float(np.abs(w_star).max())
        if w_peak < math.inf:
            candidates.append((w_peak, gamma, w_star))
    return candidates


def _divide_low_array(ws, a, b):
    q = [0.0]
    for wj in ws[:-1].tolist():
        q.append((wj - b * q[-1]) / a)
    return np.array(q[1:])


# --- certificate helpers, one Python frame per level -------------------------


def dataclass_repr(obj):
    """The repr ``dataclasses`` generates, built field by field, recursively."""
    if not dataclasses.is_dataclass(obj):
        return repr(obj)
    fields = (f for f in dataclasses.fields(obj) if f.repr)
    body = ", ".join(f"{f.name}={dataclass_repr(getattr(obj, f.name))}" for f in fields)
    return f"{type(obj).__qualname__}({body})"


def certificate_json_recursive(cert, level=0):
    """A certificate in the nested JSON form, built recursively level by
    level: each n2 level ``{"kind": "n2", "u1": ..., "v2": ..., "inner": ...}``
    holds the certificate below it."""
    if cert.kind == "n2":
        if level == len(cert.levels):
            return certificate_json_recursive(cert.bottom)
        row = cert.levels[level]
        vectors = {f: [float(v) for v in vec] for f, vec in zip(("u1", "u2", "v1", "v2"), row)}
        return {"kind": "n2", **vectors, "inner": certificate_json_recursive(cert, level + 1)}
    if cert.kind == "n0":
        return {"kind": "n0", "u": [float(v) for v in cert.u], "v": [float(v) for v in cert.v]}
    if cert.kind == "m2":
        return {"kind": "m2", "u": [float(v) for v in cert.u], "lambda": float(cert.lam)}
    return {"kind": "raw"}
