import json
import re
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

from ambiconv import (
    M2Certificate,
    N0Certificate,
    N2Certificate,
    RawCertificate,
    ToleranceProfile,
    certificate_from_json,
    certificate_to_json,
    certificate_to_matrix,
    classify,
    convolve,
    is_in_rank2_nullspace,
    kernel_basis,
    lift_apply,
    m2_element,
    n0_element,
    n2_generate,
    n2_lift,
    outer,
    rank_estimate,
)
from ambiconv import core
from oracles import (
    antidiagonal_sums_brute,
    certificate_json_recursive,
    classify_recursive,
    dataclass_repr,
    n2_generate_reference,
    operator_matrix,
    transpose_certificate,
)


N2_VECTORS = ("u1", "u2", "v1", "v2")


def two_block_embed(a, b):
    """The corner embedding as two whole blocks: ``a`` copied top-right into
    zeros, then ``b`` added bottom-left."""
    y = np.zeros((a.shape[0] + 1, a.shape[1] + 1))
    y[:-1, 1:] = a
    y[1:, :-1] += b
    return y


def signed_draws(rng, size):
    """Uniform entries on [-1, 1] with about a third set to 0.0 or -0.0."""
    x = rng.uniform(-1.0, 1.0, size)
    x[rng.random(size) < 0.35] = 0.0
    x[rng.random(size) < 0.2] = -0.0
    return x


def split(cert):
    """A certificate's n2 rows, top down, and the certificate under them."""
    if isinstance(cert, N2Certificate):
        return cert.levels, cert.bottom
    return (), cert


def reference_form(cert):
    """A package certificate in the oracles' nested dict form (numpy array
    values), built from the bottom up."""
    levels, bottom = split(cert)
    if isinstance(bottom, N0Certificate):
        out = {"kind": "n0", "u": bottom.u, "v": bottom.v}
    else:
        out = {"kind": bottom.kind}
    for row in reversed(levels):
        out = {"kind": "n2", **dict(zip(N2_VECTORS, row)), "inner": out}
    return out


def nested_json(obj):
    """Flat n2 certificate JSON in the nested form of the recursive oracle."""
    if obj["kind"] != "n2":
        return obj
    out = obj["bottom"]
    for row in reversed(obj["levels"]):
        out = {"kind": "n2", **{f: row[f] for f in N2_VECTORS}, "inner": out}
    return out


def assert_same_certificate(got, want):
    """Equal kinds, and every vector equal byte for byte, level by level."""
    while True:
        assert got["kind"] == want["kind"]
        for key in sorted(set(got) - {"kind", "inner"}):
            assert got[key].shape == want[key].shape
            assert got[key].tobytes() == want[key].tobytes(), key
        if got["kind"] != "n2":
            return
        got, want = got["inner"], want["inner"]


def certificate_depth(cert):
    return len(split(cert)[0])


def stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def random_n0(rng, m, n, corner_safe=False):
    u = rng.uniform(-1, 1, m - 1)
    v = rng.uniform(-1, 1, n - 1)
    if corner_safe:
        # bottom-left corner is -u(m-1) v(1); keep both factors generic
        u[-1] = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.0)
        v[0] = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.0)
    return n0_element(u, v), u, v


class TestN0Element:
    def test_smallest_case_hand_expanded(self):
        q = n0_element([1.0], [1.0])
        assert np.array_equal(q, [[0.0, 1.0], [-1.0, 0.0]])
        assert np.array_equal(lift_apply(q), [0.0, 0.0, 0.0])

    def test_overflowing_product_is_refused(self):
        # Unrefused, this warned and returned inf entries.
        with pytest.raises(ValueError, match="overflows float64: rescale"):
            n0_element([1e200, 1.0], [1e200, 2.0])
        assert n0_element([1e300], [2.0**20])[0, 1] == 1e300 * 2.0**20

    def test_matches_the_two_block_formula_byte_for_byte(self):
        # -(u v^T) and (-u) v^T agree to the bit, signed zeros included.
        rng = np.random.default_rng(53)
        for m in range(1, 13):
            for n in range(1, 13):
                u, v = signed_draws(rng, m), signed_draws(rng, n)
                block = u[:, None] * v
                assert n0_element(u, v).tobytes() == two_block_embed(block, -block).tobytes()

    def test_zero_factor_gives_zero_matrix(self):
        assert not n0_element([0.0, 0.0], [1.0, 2.0, 3.0]).any()

    def test_integer_draws_lift_to_exact_zero(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            m, n = rng.integers(2, 9, size=2)
            u = rng.integers(-9, 10, m - 1).astype(float)
            v = rng.integers(-9, 10, n - 1).astype(float)
            q = n0_element(u, v)
            assert np.array_equal(antidiagonal_sums_brute(q), np.zeros(m + n - 2 + 1))
            assert rank_estimate(q) <= 2

    def test_random_float_draw_r4_r6(self):
        rng = np.random.default_rng(8)
        u = rng.uniform(-1, 1, 4)
        v = rng.uniform(-1, 1, 6)
        q = n0_element(u, v)  # 5 x 7
        scale = np.max(np.abs(q))
        assert np.max(np.abs(antidiagonal_sums_brute(q))) <= 8 * np.finfo(float).eps * scale
        assert rank_estimate(q) <= 2

    def test_bordered_entry_formula(self):
        rng = np.random.default_rng(4)
        u = rng.uniform(-1, 1, 3)
        v = rng.uniform(-1, 1, 4)
        q = n0_element(u, v)
        ue = np.concatenate((u, [0.0]))
        up = np.concatenate(([0.0], u))
        ve = np.concatenate((v, [0.0]))
        vp = np.concatenate(([0.0], v))
        for k in range(4):
            for l in range(5):
                assert q[k, l] == pytest.approx(ue[k] * vp[l] - up[k] * ve[l], abs=1e-15)


class TestN2Lift:
    def test_degenerate_mixing_recovers_bordered_product(self):
        rng = np.random.default_rng(31)
        u1 = rng.uniform(-1, 1, 3)
        v1 = rng.uniform(-1, 1, 4)
        y = n2_lift(u1, -u1, v1, v1)
        assert np.array_equal(y, n0_element(u1, v1))

    def test_identity_mixed_explicit_case(self):
        # u* = (1), v* = (1, 1) in (2, 3), embedded up to (3, 4).
        y = n2_lift([1.0, 0.0], [0.0, -1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0])
        want = np.array(
            [[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0], [-1.0, -1.0, 0.0, 0.0]]
        )
        assert np.array_equal(y, want)
        assert np.array_equal(lift_apply(y), np.zeros(6))
        assert rank_estimate(y) == 2

    def test_random_mixing_of_inner_kernel_element(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            m, n = rng.integers(3, 8, size=2)
            u = rng.uniform(-1, 1, m - 2)
            v = rng.uniform(-1, 1, n - 2)
            a = rng.uniform(-1, 1, (2, 2))
            while abs(np.linalg.det(a)) < 0.2:
                a = rng.uniform(-1, 1, (2, 2))
            cols = np.column_stack(
                [np.concatenate((u, [0.0])), np.concatenate(([0.0], -u))]
            ) @ a
            rows = np.linalg.solve(
                a,
                np.vstack(
                    [np.concatenate(([0.0], v)), np.concatenate((v, [0.0]))]
                ),
            )
            y = n2_lift(cols[:, 0], cols[:, 1], rows[0], rows[1])
            scale = max(np.max(np.abs(y)), 1e-300)
            assert np.max(np.abs(antidiagonal_sums_brute(y))) <= 1e-12 * scale
            assert rank_estimate(y) <= 2

    def test_overflowing_corner_products_are_refused(self):
        # Unrefused, this warned and returned a matrix with inf and -inf.
        with pytest.raises(ValueError, match="overflow float64: rescale"):
            n2_lift([1e200], [1e200], [1e200, 1.0], [-1e200, 1.0])
        y = n2_lift([1e150], [-1e150], [1e150, 1.0], [1e150, 1.0])
        assert np.array_equal(y, n0_element([1e150], [1e150, 1.0]))

    def test_rejects_inner_outside_kernel(self):
        with pytest.raises(ValueError):
            n2_lift([1.0, 0.0], [0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])


class TestN2Generate:
    def test_arguments_are_exact_integers(self):
        matrix, _ = n2_generate(5, 7, 3)
        assert n2_generate(np.int32(5), 7.0, np.uint64(3))[0].tobytes() == matrix.tobytes()
        bad = ((3.5, 4, 0, "m"), (3, True, 0, "n"), (3, 4, 1.5, "seed"), (3, 4, True, "seed"))
        bad += ((np.timedelta64(3, "s"), 4, 0, "m"), (3, 4, np.timedelta64(3, "s"), "seed"))
        for m, n, seed, name in bad:
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                n2_generate(m, n, seed)

    def test_depth_zero_is_plain_bordered_product(self):
        matrix, cert = n2_generate(2, 6, seed=5)
        assert isinstance(cert, N0Certificate)
        assert np.array_equal(matrix, n0_element(cert.u, cert.v))

    def test_3x3_has_nonzero_corner_and_kernel_membership(self):
        matrix, cert = n2_generate(3, 3, seed=0)
        assert isinstance(cert, N2Certificate)
        scale = np.max(np.abs(matrix))
        assert max(abs(matrix[2, 0]), abs(matrix[0, 2])) > 1e-6 * scale
        assert np.max(np.abs(antidiagonal_sums_brute(matrix))) <= 1e-12 * scale

    def test_certificate_reconstructs_matrix(self):
        rng = np.random.default_rng(77)
        for _ in range(15):
            m, n = rng.integers(2, 11, size=2)
            matrix, cert = n2_generate(m, n, seed=int(rng.integers(2**32)))
            rebuilt = certificate_to_matrix(cert)
            assert rebuilt.shape == (m, n)
            gap = np.max(np.abs(rebuilt - matrix))
            assert gap <= 1e-12 * max(1.0, np.max(np.abs(matrix)))

    def test_nested_certificate_residuals_are_kernel_elements(self):
        _, cert = n2_generate(6, 9, seed=13)
        levels, bottom = split(cert)
        for u1, u2, v1, v2 in levels:
            inner = np.outer(u1, v1) + np.outer(u2, v2)
            scale = np.max(np.abs(inner))
            assert np.max(np.abs(lift_apply(inner))) <= 1e-11 * scale
            assert scale > 0
        assert isinstance(bottom, N0Certificate)
        assert len(levels) == 4  # min(m, n) - 2 factor-swap levels

    @pytest.mark.parametrize("m, n", [(16, 20), (24, 28), (32, 36), (64, 68), (68, 64)])
    def test_large_orders_round_trip(self, m, n):
        for seed in range(3):
            matrix, cert = n2_generate(m, n, seed)
            assert rank_estimate(matrix) <= 2
            levels, recovered = split(classify(matrix).certificate)
            assert isinstance(recovered, N0Certificate) and len(levels) == min(m, n) - 2
            # The generator's own certificate goes through the brute-force
            # oracle, so generator and classifier do not certify each other.
            # A level's rounding scales with its two blocks, which can be far
            # larger than their sum when its corner is small.
            levels, bottom = split(cert)
            for k, (u1, u2, v1, v2) in enumerate(levels):
                blocks = np.outer(u1, v1), np.outer(u2, v2)
                scale = max(np.max(np.abs(block)) for block in blocks)
                level = certificate_to_matrix(N2Certificate(levels[k:], bottom))
                for element in (level, blocks[0] + blocks[1]):
                    assert np.max(np.abs(antidiagonal_sums_brute(element))) <= 1e-12 * scale
            assert isinstance(bottom, N0Certificate) and len(levels) == min(m, n) - 2

    def test_transposed_orientation(self):
        matrix, cert = n2_generate(9, 4, seed=3)
        assert matrix.shape == (9, 4)
        scale = np.max(np.abs(matrix))
        assert np.max(np.abs(lift_apply(matrix))) <= 1e-11 * scale
        assert rank_estimate(matrix) <= 2
        rebuilt = certificate_to_matrix(cert)
        assert np.max(np.abs(rebuilt - matrix)) <= 1e-12 * max(1.0, scale)

    @pytest.mark.parametrize("m, n", [(3, 2), (5, 3), (9, 4), (12, 11), (30, 7)])
    def test_tall_element_is_wide_element_transposed(self, m, n):
        for seed in range(3):
            tall, tall_cert = n2_generate(m, n, seed)
            wide, wide_cert = n2_generate(n, m, seed)
            assert tall.tobytes() == np.ascontiguousarray(wide.T).tobytes()
            transposed = transpose_certificate(reference_form(wide_cert))
            assert_same_certificate(reference_form(tall_cert), transposed)

    @pytest.mark.parametrize("seed", [0, 5, 2**32 - 1])
    def test_matches_array_recurrence_reference(self, seed):
        # The matrix and every certificate vector, byte for byte, on the
        # grid, at a deep wide order and at its transpose.
        cells = [(m, n) for m in range(2, 13) for n in range(2, 13)] + [(40, 43), (43, 40)]
        for m, n in cells:
            matrix, cert = n2_generate(m, n, seed)
            want_matrix, want_cert = n2_generate_reference(m, n, seed)
            assert matrix.shape == want_matrix.shape
            assert matrix.tobytes() == want_matrix.tobytes(), (m, n)
            assert_same_certificate(reference_form(cert), want_cert)

    def test_any_order_without_recursion(self):
        # The levels come from one loop: 60 spare frames build 998 levels.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 60)
        try:
            matrix, cert = n2_generate(1001, 1000, 0)
        finally:
            sys.setrecursionlimit(limit)
        assert matrix.shape == (1001, 1000) and certificate_depth(cert) == 998


class TestM2Element:
    def test_n3_hand_verified(self):
        x = m2_element([1.0], 1.0)
        assert np.array_equal(x, [[0, -1, 0], [1, 0, 1], [0, -1, 0]])
        assert np.array_equal(lift_apply(x), np.zeros(5))
        assert rank_estimate(x) == 2

    def test_skew_symmetry_exact(self):
        rng = np.random.default_rng(2)
        for n in (3, 4, 6, 9):
            x = m2_element(rng.uniform(-1, 1, n - 2) + 0.1, float(rng.uniform(0.5, 2)))
            assert np.array_equal(x.T, -x)
            assert x[0, n - 1] == 0.0 and x[n - 1, 0] == 0.0
            assert np.array_equal(lift_apply(x), np.zeros(2 * n - 1))

    def test_n5_classifies_raw(self):
        x = m2_element([1.0, 2.0, 3.0], 2.0)
        assert np.array_equal(lift_apply(x), np.zeros(9))
        assert rank_estimate(x) == 2
        assert isinstance(classify(x).certificate, RawCertificate)

    def test_rejects_zero_parameters(self):
        with pytest.raises(ValueError):
            m2_element([0.0, 0.0], 1.0)
        with pytest.raises(ValueError):
            m2_element([1.0], 0.0)

    def test_overflowing_border_is_refused(self):
        # Unrefused, this warned and returned inf entries.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for u, lam in (([1e200], 1e200), ([1.0, -1e300], -1e10)):
                with pytest.raises(ValueError, match="overflows float64: rescale u or lam"):
                    m2_element(u, lam)
        assert m2_element([1e300, 1.0], 2.0**20)[1, 3] == 1e300 * 2.0**20


class TestKernelBasis:
    def test_dimensions_are_exact_integers(self):
        want = [q.tobytes() for q in kernel_basis(3, 4)]
        assert [q.tobytes() for q in kernel_basis(3.0, np.uint8(4))] == want
        bad = ((True, 3, "m"), (3, 2.5, "n"), (3, [4], "n"), (np.timedelta64(3, "s"), 3, "m"))
        for m, n, name in bad:
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                kernel_basis(m, n)

    def test_single_row_or_column_is_empty(self):
        assert kernel_basis(1, 7) == []
        assert kernel_basis(6, 1) == []

    def test_2xn_structure(self):
        for n in range(2, 13):
            basis = kernel_basis(2, n)
            assert len(basis) == n - 1
            for q in basis:
                assert q[0, 0] == 0.0 and q[1, n - 1] == 0.0
                assert np.array_equal(q[0, 1:], -q[1, : n - 1])

    def test_3x4_count(self):
        assert len(kernel_basis(3, 4)) == 6

    def test_basis_is_independent_and_spans_the_kernel(self):
        # Oracle: vectorized basis elements stack to a full-row-rank matrix
        # annihilated by the operator matrix, whose rank is m+n-1.
        for m, n in ((2, 5), (3, 4), (4, 4), (5, 7)):
            basis = kernel_basis(m, n)
            a = operator_matrix(m, n)
            assert np.linalg.matrix_rank(a) == m + n - 1
            stacked = np.vstack([q.ravel() for q in basis])
            assert not (a @ stacked.T).any()
            assert np.linalg.matrix_rank(stacked) == m * n - (m + n - 1)
            null_dim = a.shape[1] - np.linalg.matrix_rank(a)
            assert len(basis) == null_dim
            # cross-check against an SVD null space of the same operator
            assert scipy.linalg.null_space(a).shape[1] == len(basis)


class TestMembership:
    def test_constructed_elements_are_members(self):
        rng = np.random.default_rng(6)
        q, _, _ = random_n0(rng, 5, 6)
        assert is_in_rank2_nullspace(q)
        assert is_in_rank2_nullspace(m2_element([1.0, -2.0], 3.0))

    def test_rank_one_lift_with_nonzero_output_is_not(self):
        x, y = [1.0, 2.0], [3.0, 1.0, 4.0]
        assert np.max(np.abs(convolve(x, y))) > 0
        assert not is_in_rank2_nullspace(outer(x, y))

    def test_rank_three_kernel_element_is_not(self):
        # sum of three independent bordered products is in the linear kernel
        # but generically of rank three
        rng = np.random.default_rng(14)
        q = sum(random_n0(rng, 6, 6)[0] for _ in range(3))
        if rank_estimate(q) > 2:
            assert not is_in_rank2_nullspace(q)

    def test_shape_gate_agrees_with_the_rank(self, monkeypatch):
        # With at most two rows or columns the rank is at most two, so the
        # verdict, also classify's gate, is the anti-diagonal sums' alone.
        rng = np.random.default_rng(23)
        cases = []
        for k in range(1, 11):
            for shape in ((1, k), (k, 1), (2, k), (k, 2)):
                cases += [rng.standard_normal(shape), 1e-13 * rng.standard_normal(shape)]
                if min(shape) == 2 and k >= 2:
                    u, v = rng.standard_normal(shape[0] - 1), rng.standard_normal(shape[1] - 1)
                    cases += [n0_element(u, v), n2_generate(*shape, int(rng.integers(2**32)))[0]]
        wants = []
        for w in cases:
            thresh = core.DEFAULT_TOL.rel_tol * float(np.max(np.abs(w)))
            want = np.max(np.abs(lift_apply(w))) <= thresh and core._rank(w, thresh) <= 2
            wants.append(want)
        assert 0 < sum(wants) < len(wants)

        def no_svd(a, **_):
            raise AssertionError(f"SVD of a {a.shape} matrix")

        monkeypatch.setattr(core, "_svd", no_svd)
        for w, want in zip(cases, wants):
            assert is_in_rank2_nullspace(w) == want, w.shape
            if want and w.any() and min(w.shape) == 2:
                assert classify(w).certificate.kind == "n0", w.shape

    def test_element_near_float64_limit_is_member(self):
        # A 9x4 bordered product peaking at 1e308: its rank was read as 4
        # when dgeqp3 overflowed, so it was reported outside the kernel.
        q = n0_element(np.full(8, 1e154), np.array([1.0, -1.0, 0.7]) * 5e153)
        assert np.abs(q).max() == 1e308
        assert rank_estimate(q) == 2
        assert is_in_rank2_nullspace(q)
        # Of rank one, but its sums overflow: refused before the rank is read.
        with pytest.raises(ValueError, match="overflow float64: rescale"):
            is_in_rank2_nullspace(np.full((3, 3), 1e308))


class TestClassify:
    def test_round_trip_n0(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            m, n = rng.integers(2, 11, size=2)
            q, u, v = random_n0(rng, m, n, corner_safe=True)
            result = classify(q)
            assert isinstance(result.certificate, N0Certificate)
            scale = np.max(np.abs(q))
            assert result.refactorization_residual <= 1e-9 * scale

    def test_round_trip_n2(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            m, n = rng.integers(3, 11, size=2)
            q, cert = n2_generate(m, n, seed=int(rng.integers(2**32)))
            result = classify(q)
            assert isinstance(result.certificate, N2Certificate)
            assert result.refactorization_residual <= 1e-9 * np.max(np.abs(q))
            # the recovered inner residual is a kernel element one dim down
            u1, u2, v1, v2 = result.certificate.levels[0]
            inner = np.outer(u1, v1) + np.outer(u2, v2)
            assert np.max(np.abs(lift_apply(inner))) <= 1e-9 * np.max(np.abs(inner))

    def test_zero_first_row_n0_still_classifies(self):
        u = np.array([0.0, 1.0, 2.0])
        v = np.array([1.5, -1.0, 0.5])
        q = n0_element(u, v)
        result = classify(q)
        assert isinstance(result.certificate, N0Certificate)
        assert result.refactorization_residual <= 1e-9 * np.max(np.abs(q))

    def test_top_right_corner_branch(self):
        # force the bottom-left corner to vanish: u(m-1) = 0
        u = np.array([1.0, 2.0, 0.0])
        v = np.array([0.5, -1.0, 1.5])
        q = n0_element(u, v)
        assert q[3, 0] == 0.0 and q[0, 3] != 0.0
        result = classify(q)
        assert isinstance(result.certificate, N0Certificate)
        assert result.refactorization_residual <= 1e-9 * np.max(np.abs(q))

    def test_nested_certificates_are_kernel_elements(self):
        # every level's inner residual must lift to ~0 relative to its own
        # scale, including deep levels whose corners have decayed
        failures = []
        for m in range(9, 17):
            for n in range(9, 17):
                for seed in range(5):
                    levels, _ = split(classify(n2_generate(m, n, seed)[0]).certificate)
                    for depth, (u1, u2, v1, v2) in enumerate(levels):
                        inner = np.outer(u1, v1) + np.outer(u2, v2)
                        lift = np.max(np.abs(lift_apply(inner)))
                        if lift > 1e-9 * np.max(np.abs(inner)):
                            failures.append((m, n, seed, depth, float(lift)))
        assert not failures

    def test_overflowing_sums_are_refused(self):
        # The middle anti-diagonal sums to 2e308: a refusal, not "not a member".
        for func in (is_in_rank2_nullspace, classify):
            with pytest.raises(ValueError, match="overflow float64: rescale"):
                func(np.array([[0.0, 1e308, 1e308], [1e308, 1e308, 0.0]]))

    def test_rejects_zero_matrix_and_nonmembers(self):
        with pytest.raises(ValueError):
            classify(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            classify(outer([1.0, 2.0], [3.0, 1.0]))

    @pytest.mark.parametrize("m, n", [(8, 8), (8, 9), (9, 8)])
    def test_overflowing_nested_residual_is_refused(self, m, n):
        # The nested residuals grow past float64 two levels down: a refusal,
        # not an n2 certificate with NaN entries (or a RuntimeWarning).
        with pytest.raises(ValueError, match="overflows"):
            classify(n2_generate(m, n, 0)[0] * 1e307)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_flat_classifier_matches_recursive_reference(self, seed):
        # Bitwise-equal certificates and residuals to the recursive
        # classifier it replaced, on every grid cell and both orientations.
        rng = np.random.default_rng([seed, 13])
        for m in range(2, 13):
            for n in range(2, 13):
                q_n0 = random_n0(rng, m, n)[0]
                u = rng.uniform(-1, 1, m - 1)
                u[0] = u[-1] = 0.0  # both corners vanish: raw for m > 3, n > 2
                q_n2 = n2_generate(m, n, int(rng.integers(2**32)))[0]
                elements = [q_n0, q_n0.T, q_n2, q_n2.T]
                if m > 3 and n > 2:
                    elements.append(n0_element(u, rng.uniform(-1, 1, n - 1)))
                if m == n >= 3:
                    elements.append(m2_element(rng.uniform(-1, 1, n - 2), 1.5))
                for q in elements:
                    result = classify(q)
                    want, residual = classify_recursive(q)
                    assert_same_certificate(reference_form(result.certificate), want)
                    assert repr(result.refactorization_residual) == repr(residual)

    def test_certificate_does_not_depend_on_memory_layout(self):
        # Turns are views of the loop's own copy, and argmax indexes in C
        # order whatever the layout, so every pivot is the same.  (8, 6)
        # at seed 0 turns on its first pass: top-right corner the larger.
        w = n2_generate(8, 6, 0)[0]
        assert abs(w[0, -1]) > abs(w[-1, 0])
        n0 = random_n0(np.random.default_rng(9), 5, 7)[0]
        for q in (w, n2_generate(6, 8, 0)[0], n2_generate(9, 9, 4)[0], n0):
            want = classify(np.ascontiguousarray(q))
            got = classify(np.asfortranarray(q))
            assert json.dumps(certificate_to_json(got.certificate)) == json.dumps(
                certificate_to_json(want.certificate)
            )
            assert repr(got.refactorization_residual) == repr(want.refactorization_residual)

    def test_deep_element_classifies_without_recursion(self):
        q = n2_generate(150, 151, 0)[0]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 60)
        try:
            result = classify(q)
        finally:
            sys.setrecursionlimit(limit)
        assert certificate_depth(result.certificate) == 148
        assert result.refactorization_residual <= 1e-12 * np.max(np.abs(q))

    @pytest.mark.parametrize("m, n", [(7, 9), (9, 7), (2, 6), (6, 2), (5, 5)])
    def test_certificate_vectors_hold_no_matrix(self, m, n):
        # A vector that views a level's matrix would keep all of it alive.
        for q in (n2_generate(m, n, 3)[0], random_n0(np.random.default_rng(m), m, n)[0]):
            levels, bottom = split(classify(q).certificate)
            vectors = [vec for row in levels for vec in row]
            vectors += [getattr(bottom, f) for f in ("u", "v") if hasattr(bottom, f)]
            for vec in vectors:
                assert vec.base is None or vec.base.ndim == 1

    def test_two_row_elements_always_bordered_product(self):
        # both corners vanish yet the element is not raw for m = 2
        q = n0_element([2.0], [0.0, 1.0, 0.0])
        assert q[1, 0] == 0.0 and q[0, 3] == 0.0
        result = classify(q)
        assert isinstance(result.certificate, N0Certificate)


# One n2 level's vectors; ONE_LEVEL is an n2 certificate of it without a bottom.
ROW = {"u1": [1.0], "u2": [1.0], "v1": [1.0], "v2": [1.0]}
ONE_LEVEL = {"kind": "n2", "levels": [ROW]}
RAW = {"kind": "raw"}


def n2_json(*rows, bottom):
    return {"kind": "n2", "levels": list(rows), "bottom": bottom}


class TestCertificates:
    def test_json_round_trip_nested(self):
        _, cert = n2_generate(5, 6, seed=8)
        obj = certificate_to_json(cert)
        assert obj["kind"] == "n2" and len(obj["levels"]) == 3
        back = certificate_from_json(json.loads(json.dumps(obj)))
        assert len(back.levels) == len(cert.levels)
        for row, back_row in zip(cert.levels, back.levels):
            for vec, back_vec in zip(row, back_row):
                assert vec.tobytes() == back_vec.tobytes()
        assert isinstance(back.bottom, N0Certificate)
        assert back.bottom.u.tobytes() == cert.bottom.u.tobytes()
        assert back.bottom.v.tobytes() == cert.bottom.v.tobytes()

    @pytest.mark.parametrize(
        "kind, q",
        [
            ("n0", n0_element([0.5, -1.0, 2.0, 0.75], [1.5, -0.5, 1.0, 2.0])),
            ("n2", n2_generate(6, 7, seed=3)[0]),
            # top-right corner 6.0 outweighs the bottom-left corner -0.25
            ("n0", n0_element([3.0, 1.0, 0.5], [0.5, -1.0, 2.0])),
            ("n2", n2_generate(7, 5, seed=11)[0].T),
            ("n0", n0_element([1.0, -2.0, 0.5, 3.0], [1.5])),
            ("n0", n0_element([2.0], [1.0, -0.5, 3.0])),
        ],
        ids=["n0", "n2", "top_right_n0", "top_right_n2", "m_by_2", "2_by_n"],
    )
    def test_classified_certificate_json_round_trip(self, kind, q):
        cert = classify(q).certificate
        assert cert.kind == kind
        back = certificate_from_json(certificate_to_json(cert))
        gap = np.max(np.abs(certificate_to_matrix(back) - q))
        assert gap <= 1e-9 * np.max(np.abs(q))

    def test_m2_and_raw_json(self):
        m2 = M2Certificate(u=np.array([1.0, 2.0]), lam=1.5)
        obj = certificate_to_json(m2)
        assert obj == {"kind": "m2", "u": [1.0, 2.0], "lambda": 1.5}
        back = certificate_from_json(obj)
        assert back.lam == 1.5
        assert certificate_to_json(certificate_from_json({"kind": "raw"})) == {"kind": "raw"}

    @pytest.mark.parametrize("m, n", [(5, 9), (12, 12), (9, 5), (2, 6)])
    def test_json_and_repr_match_recursive_references(self, m, n):
        # Every level of generated and classified certificates, every bottom kind.
        matrix, generated = n2_generate(m, n, 1)
        certs = [generated, classify(matrix).certificate, classify(matrix.T).certificate]
        certs += [M2Certificate(u=np.array([1.0, -2.0]), lam=0.5), RawCertificate()]
        for cert in certs:
            levels, bottom = split(cert)
            # The certificate from each level down, then the bottom alone.
            for sub in [N2Certificate(levels[k:], bottom) for k in range(len(levels))] + [bottom]:
                assert repr(sub) == dataclass_repr(sub)
                want = json.dumps(certificate_json_recursive(sub))
                obj = certificate_to_json(sub)
                assert json.dumps(nested_json(obj)) == want
                back = certificate_from_json(json.loads(json.dumps(obj)))
                assert json.dumps(nested_json(certificate_to_json(back))) == want

    def test_deep_certificate_helpers_without_recursion(self):
        # A flat table: 60 spare frames serve 250 levels (JSON) and 1500 (repr).
        # Each JSON level's blocks have the shape of the level below, as
        # certificate_from_json requires, so the vectors grow by one entry
        # per level: 998 levels, as deep as n2_generate(1001, 1000, 0)'s
        # certificate, would carry its 2 million floats through json.dumps,
        # and the table is tested by depth, not width.
        rows = []
        for k in range(251, 1, -1):
            a = np.full(k, k / 7.0)
            rows.append((a, -a, a + 1.0, a - 1.0))
        cert = N2Certificate(tuple(rows), N0Certificate(u=np.array([0.5]), v=np.array([-1.5])))
        one = np.ones(1)
        chain = N2Certificate(((one, -one, one, one),) * 1500, M2Certificate(u=one, lam=2.0))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 60)
        try:
            obj = certificate_to_json(cert)
            again = certificate_to_json(certificate_from_json(obj))
            text = repr(chain)
        finally:
            sys.setrecursionlimit(limit)
        # The references, and json.dumps itself, need a frame or more per level.
        sys.setrecursionlimit(limit + 5000)
        try:
            want = json.dumps(certificate_json_recursive(cert))
            assert json.dumps(nested_json(obj)) == want
            assert json.dumps(nested_json(again)) == want
            assert text == dataclass_repr(chain)
        finally:
            sys.setrecursionlimit(limit)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            certificate_from_json({"kind": "n7"})

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"kind": "n0", "u": [1.0]}, "n0 certificate JSON lacks v (needs u, v)"),
            ({"kind": "n2"}, "n2 certificate JSON lacks levels, bottom (needs levels, bottom)"),
            (ONE_LEVEL, "n2 certificate JSON lacks bottom (needs levels, bottom)"),
            ({"kind": "m2", "u": [1.0]}, "m2 certificate JSON lacks lambda (needs u, lambda)"),
            (
                n2_json(ROW, bottom={"kind": "m2", "lambda": 2.0}),
                "m2 certificate JSON lacks u (needs u, lambda)",
            ),
            (
                n2_json({"u1": [1.0], "v2": [1.0]}, bottom=RAW),
                "certificate level 1 (n2) lacks u2, v1 (needs u1, u2, v1, v2)",
            ),
            # The nested form, one object per level, is not read.
            (
                {"kind": "n2", **ROW, "inner": RAW},
                "n2 certificate JSON lacks levels, bottom (needs levels, bottom)",
            ),
        ],
        ids=["n0", "n2", "n2-inner", "m2", "nested-m2", "n2-row", "nested-form"],
    )
    def test_missing_keys_name_the_kind_and_keys(self, obj, message):
        # A ValueError like signal_from_json's, never a bare KeyError.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            certificate_from_json(obj)

    @pytest.mark.parametrize(
        "obj, message",
        [
            (
                n2_json({**ROW, "u2": [1.0, 2.0]}, bottom=RAW),
                "certificate level 1 (n2): u1 has 1 entries but u2 has 2",
            ),
            (
                n2_json(ROW, {**ROW, "v2": [3.0, 4.0]}, bottom=RAW),
                "certificate level 2 (n2): v1 has 1 entries but v2 has 2",
            ),
            (
                {"kind": "m2", "u": [1.0], "lambda": float("nan")},
                "certificate level 1 (m2): lambda must be finite and nonzero, got nan",
            ),
            (
                n2_json(ROW, bottom={"kind": "m2", "u": [1.0], "lambda": 0.0}),
                "certificate level 2 (m2): lambda must be finite and nonzero, got 0.0",
            ),
            (
                {"kind": "m2", "u": [1.0], "lambda": -float("inf")},
                "certificate level 1 (m2): lambda must be finite and nonzero, got -inf",
            ),
            (
                {"kind": "m2", "u": [1.0], "lambda": [2.0]},
                "certificate level 1 (m2): lambda must be a real number, got [2.0]",
            ),
            (
                {"kind": "m2", "u": [1.0], "lambda": True},
                "certificate level 1 (m2): lambda must be a real number, got True",
            ),
            (
                # An integer beyond float64 reads as inf, as JSON's 1e400 does.
                {"kind": "m2", "u": [1.0], "lambda": 10**400},
                "certificate level 1 (m2): lambda must be finite and nonzero, got inf",
            ),
            (
                {"kind": "m2", "u": [0.0, 0.0], "lambda": 2.0},
                "certificate level 1 (m2): u must be nonzero",
            ),
            (
                n2_json(
                    {**ROW, "v1": [1.0, 2.0], "v2": [1.0, 2.0]},
                    bottom={"kind": "n0", "u": [1.0, 2.0, 3.0], "v": [1.0]},
                ),
                "certificate level 2 (n0) describes a 4x2 matrix, but the blocks of level 1 are 1x2",
            ),
            (
                n2_json(ROW, ROW, bottom=RAW),
                "certificate level 2 (n2) describes a 2x2 matrix, but the blocks of level 1 are 1x1",
            ),
            (
                n2_json(ROW, bottom={"kind": "m2", "u": [1.0], "lambda": 2.0}),
                "certificate level 2 (m2) describes a 3x3 matrix, but the blocks of level 1 are 1x1",
            ),
            (n2_json(bottom=RAW), "certificate level 1 (n2): levels must be a nonempty list"),
            (
                {"kind": "n2", "levels": ROW, "bottom": RAW},
                "certificate level 1 (n2): levels must be a nonempty list",
            ),
            (
                n2_json(ROW, [1.0], bottom=RAW),
                "certificate level 2 (n2) must be an object with keys u1, u2, v1, v2",
            ),
            (
                n2_json(ROW, bottom=n2_json(ROW, bottom=RAW)),
                "certificate level 2 (n2) is the bottom of an n2 certificate, "
                "which must be n0, m2 or raw",
            ),
            (
                n2_json({**ROW, "u1": [1e200], "v1": [1e200]}, bottom=RAW),
                "certificate level 1 (n2): the corner products u1 v1^T, u2 v2^T overflow float64",
            ),
            (
                # Each product is finite; their sum is not.
                n2_json(
                    ROW,
                    {"u1": [1e154], "u2": [1e154], "v1": [1.5e154], "v2": [-1.5e154]},
                    bottom=RAW,
                ),
                "certificate level 2 (n2): the corner products u1 v1^T, u2 v2^T overflow float64",
            ),
            (
                {"kind": "m2", "u": [1.0, -1e200], "lambda": 1e200},
                "certificate level 1 (m2): the border lambda u overflows float64",
            ),
            (
                n2_json(
                    {**ROW, "v1": [1.0, 2.0], "v2": [1.0, 2.0]},
                    bottom={"kind": "m2", "u": [1e300], "lambda": -1e10},
                ),
                "certificate level 2 (m2): the border lambda u overflows float64",
            ),
            (
                {"kind": "n0", "u": [1e200], "v": [1e200]},
                "certificate level 1 (n0): the bordered product u v^T overflows float64",
            ),
            (
                # Each product is finite; twice the largest is not.
                n2_json(
                    {"u1": [1.0, 1.0], "u2": [1.0, 1.0], "v1": [1.0, 1.0], "v2": [1.0, 1.0]},
                    bottom={"kind": "n0", "u": [1e154], "v": [-1e154]},
                ),
                "certificate level 2 (n0): the bordered product u v^T overflows float64",
            ),
        ],
        ids=[
            *("n2-u", "nested-n2-v", "m2-nan", "nested-m2-zero", "m2-inf", "m2-list-lambda"),
            *("m2-bool-lambda", "m2-int-beyond-float64"),
            *("m2-zero-u", "n0-under-n2", "n2-under-n2", "m2-under-n2"),
            *("no-levels", "levels-not-list", "row-not-object", "n2-bottom"),
            *("n2-overflow", "nested-n2-sum-overflow", "m2-overflow", "nested-m2-overflow"),
            *("n0-overflow", "nested-n0-overflow"),
        ],
    )
    def test_certificates_no_matrix_can_have_are_refused_at_load(self, obj, message):
        # Loading used to succeed (or raise a bare TypeError); rebuilding
        # the matrix then failed, or read the top level alone.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            certificate_from_json(json.loads(json.dumps(obj)))

    def test_largest_finite_products_still_load(self):
        row = {"u1": [1e154], "u2": [1e154], "v1": [1e154], "v2": [-1e150]}
        cert = certificate_from_json(n2_json(row, bottom=RAW))
        want = [[0.0, 1e154 * 1e154], [1e154 * -1e150, 0.0]]
        assert certificate_to_matrix(cert).tolist() == want
        m2 = certificate_from_json({"kind": "m2", "u": [1e300], "lambda": 1e8})
        assert certificate_to_matrix(m2)[1, 2] == 1e308
        n0 = certificate_from_json({"kind": "n0", "u": [1e154], "v": [-8e153]})
        assert certificate_to_matrix(n0).tolist() == [[0.0, -8e307], [8e307, 0.0]]

    def test_rebuild_matches_the_two_block_formula_byte_for_byte(self):
        rng = np.random.default_rng(59)
        for m in range(1, 13):
            for n in range(1, 13):
                u1, u2 = signed_draws(rng, m), signed_draws(rng, m)
                v1, v2 = signed_draws(rng, n), signed_draws(rng, n)
                cert = N2Certificate(((u1, u2, v1, v2),), RawCertificate())
                want = two_block_embed(u1[:, None] * v1, u2[:, None] * v2)
                assert certificate_to_matrix(cert).tobytes() == want.tobytes()

    def test_hand_built_level_of_unequal_lengths_is_refused(self):
        # The bottom-left product would broadcast into the window unnoticed.
        one, two = np.ones(1), np.ones(2)
        for row in ((two, one, two, two), (two, two, two, one)):
            with pytest.raises(ValueError, match="paired vectors differ in length"):
                certificate_to_matrix(N2Certificate((row,), RawCertificate()))

    def test_raw_has_no_reconstruction(self):
        with pytest.raises(ValueError):
            certificate_to_matrix(RawCertificate())


class TestDegreesOfFreedomAudit:
    def test_parameter_and_basis_counts(self):
        for m, n in ((3, 4), (5, 5), (2, 9), (7, 4)):
            u_params, v_params = m - 1, n - 1
            assert u_params + v_params - 1 == m + n - 3
            assert len(kernel_basis(m, n)) == m * n - (m + n - 1)
