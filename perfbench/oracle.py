"""Independent checks of the program's outputs.

Plain Python loops over floats, sharing no code with the package (nor with
the test suite's oracles), so a defect in the package's kernels cannot hide
here.  Rank is judged from numpy's SVD, which the package does not use.
"""

from __future__ import annotations

import math

import numpy as np

# A certified pair must reproduce the common output to this share of its
# largest entry, and its first factors must be less collinear than the
# scaling equivalence (|cos| = 1) by this margin.
PAIR_RESIDUAL_REL = 1e-8
COLLINEARITY_MARGIN = 1e-9
# Kernel elements must lift to zero to this share of their largest entry,
# rebuilt elements must match the original to REBUILD_REL, and the third
# singular value must sit below RANK_REL times the first.
LIFT_REL = 1e-9
REBUILD_REL = 1e-8
RANK_REL = 1e-8


def convolve(x, y) -> list[float]:
    """Linear convolution, output length len(x) + len(y) - 1."""
    out = [0.0] * (len(x) + len(y) - 1)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            out[i + j] += xi * yj
    return out


def lift(w) -> list[float]:
    """The lifted forward map: anti-diagonal sums of a matrix given as rows."""
    rows = len(w)
    cols = len(w[0])
    out = [0.0] * (rows + cols - 1)
    for k in range(rows):
        row = w[k]
        for l in range(cols):
            out[k + l] += row[l]
    return out


def max_abs(values) -> float:
    return max((abs(v) for v in values), default=0.0)


def collinearity(a, b) -> float:
    """|cosine similarity| of two equal-length signals."""
    dot = sum(p * q for p, q in zip(a, b))
    na = math.sqrt(sum(p * p for p in a))
    nb = math.sqrt(sum(q * q for q in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return abs(dot) / (na * nb)


def pair_problem(x, y, x_alt, y_alt) -> str | None:
    """Why (x_alt, y_alt) fails to certify that (x, y) is unidentifiable.

    Returns None when the pair certifies: same lengths, the same convolution
    up to PAIR_RESIDUAL_REL of its scale, and first factors not collinear.
    """
    x, y = list(map(float, x)), list(map(float, y))
    x_alt, y_alt = list(map(float, x_alt)), list(map(float, y_alt))
    if len(x_alt) != len(x) or len(y_alt) != len(y):
        return f"certificate lengths {len(x_alt)}, {len(y_alt)} != {len(x)}, {len(y)}"
    z = convolve(x, y)
    residual = max_abs(p - q for p, q in zip(z, convolve(x_alt, y_alt)))
    bound = PAIR_RESIDUAL_REL * max_abs(z)
    if not residual <= bound:
        return f"convolution residual {residual:.3e} > {bound:.3e}"
    coll = collinearity(x, x_alt)
    if not coll < 1.0 - COLLINEARITY_MARGIN:
        return f"first factors collinear (|cos| = {coll!r})"
    return None


def kernel_problem(q, shape) -> str | None:
    """Why q is not a rank <= 2 element of the lifted operator's kernel."""
    q = np.asarray(q, dtype=float)
    if q.shape != shape:
        return f"shape {q.shape} != {shape}"
    scale = float(np.max(np.abs(q)))
    if scale == 0.0:
        return "zero matrix"
    image = max_abs(lift(q.tolist()))
    if not image <= LIFT_REL * scale:
        return f"lift residual {image:.3e} > {LIFT_REL * scale:.3e}"
    sv = np.linalg.svd(q, compute_uv=False)
    if sv.size > 2 and not sv[2] <= RANK_REL * sv[0]:
        return f"rank > 2 (singular values {sv[:3].tolist()})"
    return None


def rebuild_problem(original, rebuilt) -> str | None:
    """Why a matrix rebuilt from its certificate is not the original."""
    original = np.asarray(original, dtype=float)
    problem = kernel_problem(rebuilt, original.shape)
    if problem is not None:
        return f"rebuilt element: {problem}"
    gap = max_abs(
        p - q
        for row_p, row_q in zip(original.tolist(), np.asarray(rebuilt).tolist())
        for p, q in zip(row_p, row_q)
    )
    bound = REBUILD_REL * float(np.max(np.abs(original)))
    if not gap <= bound:
        return f"rebuilt element differs by {gap:.3e} > {bound:.3e}"
    return None
