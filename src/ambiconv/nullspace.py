"""Constructors, membership test, and structural classifier for the
rank-two kernel of the lifted convolution operator.

Three families are constructed explicitly:

* ``n0_element``  -- the bordered-product family (two shifted copies of a
  rank-one block with opposite signs),
* ``n2_lift`` / ``n2_generate`` -- the dimension-recursive family that embeds
  a lower-dimensional kernel element into the top-right and bottom-left
  corner blocks.  ``n2_generate`` draws it from the factor-swap identity
  ``P (B Q) - Q (B P) = 0``: ``outer(p, b*q) - outer(q, b*p)`` lifts to zero
  with rank at most two, and a change of basis in span{P, Q} splits it into
  its two corner blocks, whose inner residual is the same swap one
  dimension down,
* ``m2_element`` -- the skew-symmetric square exception family whose corner
  entries vanish.

``classify`` runs the converse factorization: a kernel element with a
nonzero corner is ``E_TR(u1 v1^T) + E_BL(u2 v2^T)`` with the inner residual
``u1 v1^T + u2 v2^T`` in the kernel one dimension down, so reading both
blocks off the matrix level by level, in one flat loop, recovers a
certificate of the generating family.  Both directions run at any order in
O(mn) memory, and an n2 certificate is one flat table of levels, so its
repr and JSON serve any depth too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from .core import (
    DEFAULT_TOL,
    ToleranceProfile,
    _checked_lift,
    _convolve,
    _exact_int,
    _finite_scalar,
    _matrix,
    _peak,
    _rank,
    _real_scalar,
    _signal,
)


# --- certificates ------------------------------------------------------------


@dataclass(frozen=True)
class N0Certificate:
    """Parameters (u, v) of a bordered-product kernel element."""

    kind: ClassVar[str] = "n0"
    u: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class N2Certificate:
    """The corner-block factors of each n2 level, top down, over the
    certificate of the last level's inner residual.

    Row k of ``levels`` is ``(u1, u2, v1, v2)``: level k's matrix is
    ``E_TR(u1 v1^T) + E_BL(u2 v2^T)``, and its inner residual
    ``u1 v1^T + u2 v2^T`` is level k + 1's matrix, or ``bottom``'s below the
    last row.  ``bottom`` is an n0, m2 or raw certificate, never an n2 one.
    """

    kind: ClassVar[str] = "n2"
    levels: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]
    bottom: "N0Certificate | M2Certificate | RawCertificate"


@dataclass(frozen=True)
class M2Certificate:
    """Parameters (u, lambda) of the skew-symmetric square exception family."""

    kind: ClassVar[str] = "m2"
    u: np.ndarray
    lam: float


@dataclass(frozen=True)
class RawCertificate:
    """Kernel membership without a parametric factorization (both corner
    entries vanish)."""

    kind: ClassVar[str] = "raw"


NullspaceCertificate = Union[N0Certificate, N2Certificate, M2Certificate, RawCertificate]


@dataclass(frozen=True)
class ClassifiedElement:
    matrix: np.ndarray
    certificate: NullspaceCertificate
    refactorization_residual: float


_N2_VECTORS = ("u1", "u2", "v1", "v2")
_JSON_KEYS = {"n0": ("u", "v"), "n2": ("levels", "bottom"), "m2": ("u", "lambda"), "raw": ()}


def _floats(vec) -> list:
    """A certificate vector as Python floats, in one ``tolist`` call."""
    return np.asarray(vec, float).tolist()


def certificate_to_json(cert: NullspaceCertificate) -> dict:
    if isinstance(cert, N2Certificate):
        levels = [{f: _floats(vec) for f, vec in zip(_N2_VECTORS, row)} for row in cert.levels]
        return {"kind": "n2", "levels": levels, "bottom": certificate_to_json(cert.bottom)}
    if isinstance(cert, N0Certificate):
        return {"kind": "n0", "u": _floats(cert.u), "v": _floats(cert.v)}
    if isinstance(cert, M2Certificate):
        return {"kind": "m2", "u": _floats(cert.u), "lambda": float(cert.lam)}
    if isinstance(cert, RawCertificate):
        return {"kind": "raw"}
    raise TypeError(f"not a certificate: {cert!r}")


def certificate_from_json(obj) -> NullspaceCertificate:
    """Load a certificate, refusing, by level, one that no matrix has: an n2
    certificate without levels or over an n2 bottom, a level whose paired
    vectors differ in length, whose largest |u1(k) v1(l)| plus largest
    |u2(k) v2(l)| overflows float64 or that does not describe a matrix of
    the shape of the blocks of the level above it, an n0 certificate, at
    any level, whose twice largest |u(k) v(l)| overflows, or an m2 bottom
    with an all-zero ``u``, a ``lambda`` that is not a finite nonzero real
    or a largest |lambda u(k)| that overflows."""
    if _json_kind(obj) != "n2":
        return _bottom_from_json(obj, 1, None)
    rows = obj["levels"]
    if not isinstance(rows, list) or not rows:
        raise ValueError("certificate level 1 (n2): levels must be a nonempty list")
    levels, blocks = [], None
    for k, row in enumerate(rows, 1):
        where = f"certificate level {k} (n2)"
        if not isinstance(row, dict):
            raise ValueError(f"{where} must be an object with keys {', '.join(_N2_VECTORS)}")
        _require(row, _N2_VECTORS, where)
        (u1, pu1), (u2, pu2), (v1, pv1), (v2, pv2) = (_signal(row[f]) for f in _N2_VECTORS)
        for (a, x), (b, y) in ((("u1", u1), ("u2", u2)), (("v1", v1), ("v2", v2))):
            if x.size != y.size:
                raise ValueError(f"{where}: {a} has {x.size} entries but {b} has {y.size}")
        if pu1 * pv1 + pu2 * pv2 == math.inf:
            raise ValueError(f"{where}: the corner products u1 v1^T, u2 v2^T overflow float64")
        _fits_blocks(k, where, (u1.size + 1, v1.size + 1), blocks)
        levels.append((u1, u2, v1, v2))
        blocks = (u1.size, v1.size)
    return N2Certificate(tuple(levels), _bottom_from_json(obj["bottom"], k + 1, blocks))


def _json_kind(obj) -> str:
    """The ``kind`` of a certificate object, once it carries its kind's keys."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError('certificate JSON must carry a "kind" discriminator')
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _JSON_KEYS:
        raise ValueError(f"unknown certificate kind: {kind!r}")
    _require(obj, _JSON_KEYS[kind], f"{kind} certificate JSON")
    return kind


def _require(obj: dict, keys: tuple, what: str) -> None:
    missing = [key for key in keys if key not in obj]
    if missing:
        raise ValueError(f"{what} lacks {', '.join(missing)} (needs {', '.join(keys)})")


def _bottom_from_json(obj, level: int, blocks) -> NullspaceCertificate:
    """The n0, m2 or raw certificate ``obj`` at ``level``, under an n2 level
    with corner blocks of shape ``blocks`` (``None`` at the top)."""
    kind = _json_kind(obj)
    where = f"certificate level {level} ({kind})"
    if kind == "raw":
        return RawCertificate()
    if kind == "n2":
        raise ValueError(f"{where} is the bottom of an n2 certificate, which must be n0, m2 or raw")
    if kind == "n0":
        (u, u_peak), (v, v_peak) = _signal(obj["u"]), _signal(obj["v"])
        if u_peak * v_peak * 2.0 == math.inf:
            raise ValueError(f"{where}: the bordered product u v^T overflows float64")
        cert = N0Certificate(u=u, v=v)
        shape = (u.size + 1, v.size + 1)
    else:
        lam = _real_scalar(obj["lambda"], f"{where}: lambda")
        if not (math.isfinite(lam) and lam != 0.0):
            raise ValueError(f"{where}: lambda must be finite and nonzero, got {lam}")
        u, u_peak = _signal(obj["u"])
        if not u.any():
            raise ValueError(f"{where}: u must be nonzero")
        if u_peak * abs(lam) == math.inf:
            raise ValueError(f"{where}: the border lambda u overflows float64")
        cert = M2Certificate(u=u, lam=lam)
        shape = (cert.u.size + 2,) * 2
    _fits_blocks(level, where, shape, blocks)
    return cert


def _fits_blocks(level: int, where: str, shape: tuple[int, int], blocks) -> None:
    """Refuse ``level`` (named ``where``), describing a ``shape`` matrix, unless
    the n2 level above it, if any, has corner blocks of that shape."""
    if blocks is not None and shape != blocks:
        raise ValueError(
            f"{where} describes a {shape[0]}x{shape[1]} matrix, but the blocks of "
            f"level {level - 1} are {blocks[0]}x{blocks[1]}"
        )


def certificate_to_matrix(cert: NullspaceCertificate) -> np.ndarray:
    """Rebuild the matrix a certificate describes (raw certificates carry
    no parameters and cannot be rebuilt)."""
    if isinstance(cert, N0Certificate):
        return n0_element(cert.u, cert.v)
    if isinstance(cert, N2Certificate):
        u1, u2, v1, v2 = cert.levels[0]
        if u1.shape != u2.shape or v1.shape != v2.shape:  # a hand-built one
            raise ValueError("certificate level 1 (n2): paired vectors differ in length")
        return _embed(u1, v1, u2, v2)
    if isinstance(cert, M2Certificate):
        return m2_element(cert.u, cert.lam)
    raise ValueError("raw certificates have no parametric reconstruction")


# --- constructors ------------------------------------------------------------


def n0_element(u, v) -> np.ndarray:
    """Bordered-product kernel element Q(k,l) = u(k) v(l-1) - u(k-1) v(l).

    Out-of-range indices read as zero.  The matrix is the difference of the
    two corner embeddings of ``outer(u, v)``, so its anti-diagonal sums
    cancel pairwise (exactly for integer-valued inputs) and its rank is at
    most two.  ``ValueError`` if twice the largest |u(k) v(l)| overflows.
    """
    (us, u_peak), (vs, v_peak) = _signal(u), _signal(v)
    if u_peak * v_peak * 2.0 == np.inf:
        raise ValueError("the bordered product u v^T overflows float64: rescale u or v")
    return _embed(us, vs, -us, vs)  # (-u) v^T is -(u v^T), signed zeros included


def _embed(u1: np.ndarray, v1: np.ndarray, u2: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """``E_TR(u1 v1^T) + E_BL(u2 v2^T)``, read-only, of 1-D float64 factors of
    pairwise equal lengths: the top-right product written into its window."""
    y = np.zeros((u1.size + 1, v1.size + 1))
    np.multiply(u1[:, None], v1, out=y[:-1, 1:])
    y[1:, :-1] += u2[:, None] * v2
    y.setflags(write=False)
    return y


def n2_lift(u1, u2, v1, v2, tol: ToleranceProfile | None = None) -> np.ndarray:
    """Embed u1 v1^T top-right and u2 v2^T bottom-left, one dimension up.

    Requires the inner residual ``u1 v1^T + u2 v2^T`` to lie in the kernel
    one dimension down (checked against the anti-diagonal sums within
    ``rel_tol`` of its scale).  ``ValueError`` if the largest |u1(k) v1(l)|
    plus the largest |u2(k) v2(l)| overflows, or the sums do.
    """
    tol = tol or DEFAULT_TOL
    (u1s, u1_peak), (u2s, u2_peak) = _signal(u1), _signal(u2)
    (v1s, v1_peak), (v2s, v2_peak) = _signal(v1), _signal(v2)
    if u1s.size != u2s.size or v1s.size != v2s.size:
        raise ValueError("factor lengths must agree pairwise")
    if u1_peak * v1_peak + u2_peak * v2_peak == np.inf:
        raise ValueError("the corner products u1 v1^T, u2 v2^T overflow float64: rescale them")
    inner = u1s[:, None] * v1s
    inner += u2s[:, None] * v2s
    peak = _peak(inner)
    image_peak = _peak(_checked_lift(inner, peak))
    bound = tol._at(peak)
    if image_peak > bound:
        raise ValueError(
            "inner residual u1 v1^T + u2 v2^T is not in the lower-dimensional "
            f"kernel (|image| = {image_peak:.3e} > {bound:.3e})"
        )
    return _embed(u1s, v1s, u2s, v2s)


def _row(u1, u2, v1, v2, turns: int) -> tuple:
    """One n2 level's vectors, read-only, for the matrix they were read from
    after ``turns`` turns.  A turn T transposes: T(E_TR(u1 v1^T) +
    E_BL(u2 v2^T)) = E_TR(v2 u2^T) + E_BL(v1 u1^T)."""
    row = (v2, v1, u2, u1) if turns % 2 else (u1, u2, v1, v2)
    for vec in row:
        vec.setflags(write=False)
    return row


def _nest(levels: list, bottom, turns: int) -> NullspaceCertificate:
    """The certificate of ``levels`` (rows from ``_row``, top down) over
    ``bottom``: an n0's ``(u, v)`` read after ``turns`` turns (T(N0(u, v)) =
    N0(v, -u)), or ``None`` for raw."""
    cert: NullspaceCertificate = RawCertificate()
    if bottom is not None:
        u, v = bottom
        for _ in range(turns % 4):
            u, v = v, -u
        u.setflags(write=False)
        v.setflags(write=False)
        cert = N0Certificate(u=u, v=v)
    return N2Certificate(tuple(levels), cert) if levels else cert


def n2_generate(m: int, n: int, seed: int) -> tuple[np.ndarray, NullspaceCertificate]:
    """Seeded random element of the dimension-recursive kernel family.

    Built on the factor-swap identity ``P (B Q) - Q (B P) = 0``: with ``p``
    and ``q`` of length ``k = min(m, n)`` and ``b`` of length ``|n-m| + 1``
    drawn from ``default_rng(seed)`` (the end coefficients of ``p`` and ``q``
    fixed to (1, 0) and (0, 1)), ``W = outer(p, b*q) - outer(q, b*p)`` lifts
    to zero and has rank at most two; ``m``, ``n`` and ``seed`` are exact
    integers.  For ``m > n`` the ``(n, m)`` element is transposed, its
    certificate built in that form.  Returns the
    matrix together with its certificate, ``min(m, n) - 2`` levels over a
    bordered product; the matrix is rebuilt from the certificate, so the two
    agree bit for bit.  One flat loop makes the levels, in O(mn) memory at
    any order.
    """
    m, n, seed = _exact_int(m, "m"), _exact_int(n, "n"), _exact_int(seed, "seed")
    if m < 2 or n < 2:
        raise ValueError("dimensions must be >= 2")
    k = min(m, n)  # p, q and then b, drawn as one array
    draws = np.random.default_rng(seed).uniform(-1.0, 1.0, 2 * k + abs(n - m) + 1)
    p, q, b = draws[:k], draws[k : 2 * k], draws[2 * k :]
    # A = q0 P - p0 Q has no constant term, B = q[-1] P - p[-1] Q no leading
    # term, and the change of basis has determinant c.  So with P' = A / (cz)
    # and Q' = B, P(s)Q(t) - Q(s)P(t) = s P'(s)Q'(t) - t Q'(s)P'(t): W embeds
    # -q' (b*p')^T top-right and p' (b*q')^T bottom-left, and the inner
    # residual is the same swap on (p', q').  W's corners are b[0] c and
    # b[-1] c while its blocks grow as 1 / c; the end coefficients below,
    # a basis every span{P, Q} with c != 0 has, fix c = 1 at the top level.
    # Each level reads them as Python floats, which round as numpy scalars do.
    p[0], p[-1], q[0], q[-1] = 1.0, 0.0, 0.0, 1.0
    levels, turns = [], int(m > n)
    while True:
        p0, p1, q0, q1 = p.item(0), p.item(-1), q.item(0), q.item(-1)
        c = q1 * p0 - q0 * p1
        p, q = (q0 * p - p0 * q)[1:] / c, (q1 * p - p1 * q)[:-1]
        if p.size == 1:  # one-entry p' and q' make the inner residual p'q'(b - b) vanish
            cert = _nest(levels, (-q, _convolve(b, p)), turns)
            return certificate_to_matrix(cert), cert
        levels.append(_row(-q, p, _convolve(b, p), _convolve(b, q), turns))


def m2_element(u, lam: float) -> np.ndarray:
    """Skew-symmetric square kernel element with vanishing corner entries.

    Row/column 1 carry ``-u``/``u``; row/column n carry ``-lam*u``/``lam*u``.
    Skew-symmetry makes every anti-diagonal sum cancel exactly; the rank is
    exactly two for nonzero ``u`` and ``lam``.  ``ValueError`` if the largest
    |lam u(k)| overflows float64.
    """
    us, u_peak = _signal(u)
    if not us.any():
        raise ValueError("u must be nonzero")
    lam = _finite_scalar(lam, "lam")
    if lam == 0.0:
        raise ValueError("lambda must be nonzero")
    if u_peak * abs(lam) == math.inf:
        raise ValueError("the border lam u overflows float64: rescale u or lam")
    n = us.size + 2
    x = np.zeros((n, n))
    x[0, 1 : n - 1] = -us
    x[1 : n - 1, 0] = us
    x[1 : n - 1, n - 1] = lam * us
    x[n - 1, 1 : n - 1] = -lam * us
    x.setflags(write=False)
    return x


# --- kernel basis and membership ---------------------------------------------


def kernel_basis(m: int, n: int) -> list[np.ndarray]:
    """Basis of the full (rank-unconstrained) kernel of the lifted operator.

    Elimination on the ``(m+n-1) x (mn)`` coefficient matrix is closed-form
    because the constraint rows have pairwise disjoint supports: within each
    anti-diagonal the first cell is the pivot, and every further cell yields
    one basis element (+1 on the cell, -1 on the pivot).  Exactly
    ``mn - (m+n-1)`` elements; empty for ``m == 1`` or ``n == 1``.  ``m``
    and ``n`` are exact integers.
    """
    m, n = _exact_int(m, "m"), _exact_int(n, "n")
    if m < 1 or n < 1:
        raise ValueError("dimensions must be >= 1")
    basis = []
    for j in range(m + n - 1):
        cells = [(k, j - k) for k in range(max(0, j - n + 1), min(m - 1, j) + 1)]
        pivot = cells[0]
        for cell in cells[1:]:
            q = np.zeros((m, n))
            q[cell] = 1.0
            q[pivot] = -1.0
            q.setflags(write=False)
            basis.append(q)
    return basis


def is_in_rank2_nullspace(w, tol: ToleranceProfile | None = None) -> bool:
    """True iff rank <= 2 and the anti-diagonal sums vanish at tol scale;
    ``ValueError`` if the sums overflow float64."""
    return _in_rank2_nullspace(*_matrix(w), tol or DEFAULT_TOL)


def _in_rank2_nullspace(w: np.ndarray, peak: float, tol: ToleranceProfile) -> bool:
    """``is_in_rank2_nullspace`` on a trusted 2-D float64 array with largest
    |entry| ``peak``.  A matrix with at most two rows or columns has rank at
    most two, so its verdict is the anti-diagonal sums' alone, without an SVD."""
    thresh = tol._at(peak)
    return _peak(_checked_lift(w, peak)) <= thresh and (min(w.shape) <= 2 or _rank(w, thresh) <= 2)


# --- structural classifier ---------------------------------------------------


def classify(w, tol: ToleranceProfile | None = None) -> ClassifiedElement:
    """Recover a generating certificate for a rank-two kernel element.

    Follows the converse factorization ``W = E_TR(u1 v1^T) + E_BL(u2 v2^T)``,
    dividing by the larger corner: the bottom-left block is read off the
    first column and the last row, and the top-right block is what remains
    of the top-right window.  The classification is ``n0`` when the inner
    residual ``u1 v1^T + u2 v2^T`` vanishes, ``n2`` when it is a nonzero
    element of the lower-dimensional kernel (classified the same way), and
    ``raw`` when both corner entries vanish (the exception set, which the
    factorization does not cover).  One flat loop reads the levels and keeps
    compact copies of their vectors: O(mn) memory at any order.  A matrix
    whose factorization or sums overflow float64 is refused with
    ``ValueError``.
    """
    ws, peak = _matrix(w)
    tol = tol or DEFAULT_TOL
    if peak == 0.0:
        raise ValueError("cannot classify the zero matrix")
    if not _in_rank2_nullspace(ws, peak, tol):
        raise ValueError("matrix is not in the rank-two kernel at this tolerance")
    try:
        with np.errstate(over="raise", invalid="raise"):
            cert = _classify_cert(ws, tol, peak)
            raw = isinstance(cert, RawCertificate)
            residual = 0.0 if raw else _peak(ws - certificate_to_matrix(cert))
    except FloatingPointError:
        raise ValueError("the corner factorization overflows float64: rescale the matrix") from None
    return ClassifiedElement(matrix=ws, certificate=cert, refactorization_residual=residual)


def _classify_cert(w: np.ndarray, tol: ToleranceProfile, peak: float) -> NullspaceCertificate:
    """The certificate of a trusted 2-D float64 array with largest |entry|
    ``peak``.  Each pass reads one level, or turns the matrix (the view
    ``w.T``) to divide by the larger corner; ``_row`` and ``_nest`` apply the turns.  The
    loop owns ``w``, a copy or a view of one, and edits it in place; ``argmax``
    indexes in C order whatever the layout, so the pivots do not depend on it."""
    levels, turns, thresh = [], 0, tol._at(peak)
    w = w.copy()
    while True:
        m, n = w.shape
        # Any two-row element is the bordered product with rows (0, v), (-v, 0).
        if m == 2:
            return _nest(levels, (np.array([1.0]), w[0, 1:].copy()), turns)
        corner = w.item(m - 1, 0)
        if n == 2 or abs(w.item(0, n - 1)) > abs(corner):
            w, turns = w.T, turns + 1
            continue
        if abs(corner) <= thresh:  # the larger corner, so both vanish
            return _nest(levels, None, turns)
        # W = E_TR(u1 v1^T) + E_BL(u2 v2^T).  Only the bottom-left block
        # reaches the first column and the last row, so it is read off directly.
        u2 = w[1:, 0].copy()
        v2 = w[m - 1, : n - 1] / corner
        # The top-right window minus the bottom-left block's overlap is
        # u1 v1^T; factor it at its largest entry.
        block = w[: m - 1, 1:]
        block[1:, :-1] -= u2[:-1, None] * v2[1:]
        i, j = divmod(int(np.abs(block).argmax()), n - 1)
        pivot = block.item(i, j)
        if abs(pivot) <= thresh:
            raise ValueError("top-right block vanishes: matrix is numerically rank one")
        u1 = block[:, j].copy()
        v1 = block[i] / pivot
        w = u1[:, None] * v1
        w += u2[:, None] * v2
        peak = _peak(w)
        if peak <= thresh:
            return _nest(levels, (u1, v1), turns)
        levels.append(_row(u1, u2, v1, v2, turns))
        thresh = tol._at(peak)
