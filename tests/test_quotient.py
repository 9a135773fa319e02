import math
import warnings

import numpy as np
import pytest

from ambiconv import ToleranceProfile, quotient_decompose, reconstruct
from ambiconv.trials import sample_signal
from oracles import convolve_brute


def residual(w, element):
    return float(np.max(np.abs(reconstruct(element.w_star, element.gamma) - w)))


class TestReconstruct:
    def test_trivial_angle(self):
        assert np.array_equal(reconstruct([1.0], 0.0, d=2), [1.0, 0.0])

    def test_inverse_of_d2_decomposition(self):
        gamma = math.atan2(0.8, 0.6)  # cos = 0.6, sin = 0.8
        got = reconstruct([5.0], -gamma)
        assert np.allclose(got, [3.0, 4.0], atol=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            reconstruct([1.0, 2.0], 0.3, d=5)

    def test_matches_degree_one_convolution(self):
        # the bordered product is convolution with (cos g, -sin g)
        rng = np.random.default_rng(3)
        w_star = rng.uniform(-1, 1, 6)
        g = 0.83
        want = convolve_brute(w_star, [math.cos(g), -math.sin(g)])
        assert np.allclose(reconstruct(w_star, g), want, atol=1e-14)


class TestBoundaryD2:
    def test_3_4_two_branches(self):
        elements = quotient_decompose([3.0, 4.0])
        assert len(elements) == 2
        by_sign = sorted(elements, key=lambda e: e.w_star[0])
        neg, pos = by_sign
        assert pos.w_star[0] == pytest.approx(5.0)
        assert neg.w_star[0] == pytest.approx(-5.0)
        assert math.cos(pos.gamma) == pytest.approx(0.6)
        assert math.sin(pos.gamma) == pytest.approx(-0.8)
        assert (neg.gamma - pos.gamma) % (2 * math.pi) == pytest.approx(math.pi)
        for e in elements:
            assert residual(np.array([3.0, 4.0]), e) <= 1e-12


class TestDecompose:
    def test_forward_generated_d4(self):
        w = reconstruct([1.0, 2.0, 1.0], math.pi / 5)
        elements = quotient_decompose(w)
        assert 0 < len(elements) <= 6
        assert min(residual(w, e) for e in elements) <= 1e-9
        gammas = [e.gamma for e in elements]
        assert any(abs(g - math.pi / 5) <= 1e-9 for g in gammas)

    def test_branch_constraints_hold(self):
        rng = np.random.default_rng(10)
        w = rng.uniform(-1, 1, 6)
        w[0], w[-1] = 1.3, -0.7
        for e in quotient_decompose(w):
            assert math.cos(e.gamma) == pytest.approx(w[0] / e.w_star[0], rel=1e-8)
            assert math.sin(e.gamma) == pytest.approx(-w[-1] / e.w_star[-1], rel=1e-8)

    def test_random_even_d_nonempty_and_bounded(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            d = int(rng.choice([4, 6, 8, 10]))
            w = rng.uniform(-1, 1, d)
            for end in (0, -1):
                w[end] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
            elements = quotient_decompose(w)
            assert 0 < len(elements) <= 2 * d - 2
            scale = np.max(np.abs(w))
            assert all(residual(w, e) <= 1e-8 * scale for e in elements)

    def test_odd_d_may_be_empty(self):
        # cubic with no real angle solution: all roots of the z-transform
        # polynomial are complex
        w = np.array([1.0, 0.0, 1.0])  # roots of 1 + z^2 are +-i
        assert quotient_decompose(w) == []

    def test_rejects_near_zero_endpoints(self):
        with pytest.raises(ValueError):
            quotient_decompose([0.0, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            quotient_decompose([1.0, 2.0, 3.0, 1e-13])

    def test_rejects_d1(self):
        with pytest.raises(ValueError):
            quotient_decompose([1.0])

    def test_round_trip_of_every_returned_element(self):
        rng = np.random.default_rng(9)
        w = rng.uniform(-1, 1, 8)
        w[0], w[-1] = -0.9, 1.1
        tol = ToleranceProfile()
        for e in quotient_decompose(w, tol):
            assert residual(w, e) <= tol.threshold(w, e.w_star)

    @pytest.mark.parametrize(
        "w_star, gamma",
        [
            ([1.0e5, 3.0e3, 90.0, 2.5, 1.0], math.pi / 2 - 1e-4),
            ([1.0, 2.5, 90.0, 3.0e3, 1.0e5], 1e-4),
            ([1.0, 2.5, 90.0, 3.0e3, 1.0e5], math.pi + 1e-4),
        ],
        ids=["near_half_pi", "near_zero", "near_pi"],
    )
    def test_large_dynamic_range_element_is_kept(self, w_star, gamma):
        # An angle close to a multiple of pi/2 makes the factor entries span
        # many orders of magnitude; the element must still be recovered.
        # Near pi/2 the root of W is tiny, near 0 or pi it is huge, so the
        # cases cover division from both ends.
        w_star = np.array(w_star)
        w = reconstruct(w_star, gamma)
        assert abs(w[0]) > 1e-3  # endpoints stay usable
        elements = quotient_decompose(w)
        assert elements
        best = min(residual(w, e) for e in elements)
        assert best <= 1e-9 * np.max(np.abs(w_star))

    @pytest.mark.parametrize("d", [32, 64, 128])
    def test_large_orders_nonempty_and_accurate(self, d):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = sample_signal(rng, d)
            elements = quotient_decompose(w)
            assert 0 < len(elements) <= 2 * d - 2
            scale = np.max(np.abs(w))
            assert all(residual(w, e) <= 1e-9 * scale for e in elements)

    def test_deterministic_output(self):
        rng = np.random.default_rng(123)
        w = rng.uniform(-1, 1, 10)
        w[0], w[-1] = 0.8, -0.6
        a = quotient_decompose(w)
        b = quotient_decompose(w)
        assert len(a) == len(b)
        for ea, eb in zip(a, b):
            assert np.array_equal(ea.w_star, eb.w_star) and ea.gamma == eb.gamma

    def test_root_finder_failure_is_reported(self, monkeypatch):
        from ambiconv import quotient

        def no_convergence(a, **_):
            # LAPACK's dgeev reports info > 0 when the QR iteration fails.
            n = a.shape[0]
            return np.zeros(n), np.zeros(n), np.zeros((1, 1)), np.zeros((1, 1)), n

        monkeypatch.setattr(quotient, "dgeev", no_convergence)
        with pytest.raises(quotient.RootFindingError, match="did not converge"):
            quotient_decompose([1.0, 0.5, -0.5, 2.0])

    @pytest.mark.parametrize("w", [[1e-300, 1e300, 1e-300], [1e-300, 1.0, 1e300, 1e-300]])
    def test_nonfinite_companion_is_root_finding_error(self, w):
        # The companion's first row -w(d-1..1) / w(d) would overflow to
        # -inf; the input is refused before numpy divides, without a warning.
        from ambiconv.quotient import RootFindingError

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RootFindingError, match="infs or NaNs"):
                quotient_decompose(w, ToleranceProfile(0.0, 0.0))

    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    def test_roots_agree_with_numpy_reference(self, scale):
        # Independent reference: numpy's polynomial root finder on W(z),
        # filtered by the same real band.  A tolerance, not bitwise equality:
        # numpy and scipy may link different BLAS builds.
        from ambiconv.quotient import _REAL_BAND

        rng = np.random.default_rng(2024)
        tol = ToleranceProfile(abs_tol=0.0)
        for d in range(2, 71):
            for _ in range(4):
                w = sample_signal(rng, d) * scale
                roots = np.roots(w[::-1])
                real = roots.real[np.abs(roots.imag) <= _REAL_BAND * (1.0 + np.abs(roots.real))]
                want = [math.atan2(1.0, r) for r in np.sort(real)]
                got = [e.gamma for e in quotient_decompose(w, tol)[::2]]
                assert len(got) == len(want), (d, got, want)
                assert np.allclose(got, want, rtol=1e-12, atol=0.0), (d, got, want)
