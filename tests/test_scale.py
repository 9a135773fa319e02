"""Scale equivariance.  Every approximate decision compares against a
threshold relative to the operands' largest |entry|, and float64 arithmetic
commutes with scaling by a power of two while every value stays in its
normal range.  So scaling the operands by 2**k scales each result by 2**k
bit for bit and leaves every verdict unchanged, far from unit scale too."""

import math

import numpy as np
import pytest

from ambiconv import (
    attack,
    certificate_to_matrix,
    classify,
    is_in_rank2_nullspace,
    m2_element,
    n0_element,
    n2_generate,
    quotient_decompose,
    rank_estimate,
)
from ambiconv.trials import sample_signal

POWERS = (-600, -200, -40, 40, 200, 600)


@pytest.mark.parametrize("k", POWERS)
def test_quotient_decompose_is_scale_equivariant(k):
    rng = np.random.default_rng(25)
    for _ in range(60):
        w = sample_signal(rng, int(rng.integers(2, 17)))
        want = quotient_decompose(w)
        got = quotient_decompose(np.ldexp(w, k))
        assert len(got) == len(want)
        for g, e in zip(got, want):
            assert g.gamma == e.gamma
            assert np.array_equal(g.w_star, np.ldexp(e.w_star, k))


@pytest.mark.parametrize("k", POWERS)
def test_attack_is_scale_equivariant(k):
    rng = np.random.default_rng(26)
    for _ in range(30):
        m, n = rng.choice(range(4, 17, 2), size=2)
        x, y = sample_signal(rng, m), sample_signal(rng, n)
        want = attack(x, y)
        got = attack(np.ldexp(x, k), y)
        assert np.array_equal(got.x_alt, np.ldexp(want.x_alt, k))
        assert np.array_equal(got.y_alt, want.y_alt)
        assert got.collinearity == want.collinearity
        assert got.residual == math.ldexp(want.residual, k)


def kernel_elements():
    rng = np.random.default_rng(27)
    elements = [n2_generate(5, 7, 1)[0]]  # read as raw at 2**-40 under an absolute floor
    for seed in range(20):
        m, n = rng.integers(2, 13, size=2)
        elements.append(n2_generate(int(m), int(n), seed)[0])
        elements.append(n0_element(rng.uniform(-1, 1, m - 1), rng.uniform(-1, 1, n - 1)))
    elements += [m2_element(rng.uniform(-1, 1, d), rng.uniform(0.5, 2)) for d in range(1, 6)]
    return elements


KERNEL_ELEMENTS = kernel_elements()


def depth(cert):
    return len(cert.levels) if cert.kind == "n2" else 0


@pytest.mark.parametrize("k", POWERS)
def test_classify_is_scale_equivariant(k):
    for w in KERNEL_ELEMENTS:
        want, got = classify(w), classify(np.ldexp(w, k))
        assert got.certificate.kind == want.certificate.kind
        assert depth(got.certificate) == depth(want.certificate)
        if want.certificate.kind != "raw":
            rebuilt = certificate_to_matrix(got.certificate)
            assert np.array_equal(rebuilt, np.ldexp(certificate_to_matrix(want.certificate), k))
        assert got.refactorization_residual == math.ldexp(want.refactorization_residual, k)


def grid_matrices():
    """An n0, an n2 and a generic rank-min(m, n, 3) matrix per shape of the
    2..10 grid."""
    rng = np.random.default_rng(28)
    for m in range(2, 11):
        for n in range(2, 11):
            yield n0_element(rng.uniform(-1, 1, m - 1), rng.uniform(-1, 1, n - 1))
            yield n2_generate(m, n, seed=11 * m + n)[0]
            yield rng.standard_normal((m, 3)) @ rng.standard_normal((3, n))


GRID = list(grid_matrices())


@pytest.mark.parametrize("k", POWERS)
def test_rank_and_membership_verdicts_are_scale_invariant(k):
    for w in GRID:
        scaled = np.ldexp(w, k)
        assert rank_estimate(scaled) == rank_estimate(w), (w.shape, k)
        assert is_in_rank2_nullspace(scaled) == is_in_rank2_nullspace(w), (w.shape, k)


def test_tiny_rank_three_matrix_keeps_its_rank():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 6))
    assert rank_estimate(np.ldexp(w, -600)) == 3


def test_small_generic_matrix_is_not_in_the_kernel():
    assert not is_in_rank2_nullspace(1e-13 * np.random.default_rng(4).standard_normal((5, 5)))


def test_small_signal_decomposes():
    w = sample_signal(np.random.default_rng(5), 8)
    assert quotient_decompose(1e-12 * w)
