import math
import warnings

import numpy as np
import pytest

from ambiconv import DEFAULT_TOL, ToleranceProfile, quotient, quotient_decompose, reconstruct
from ambiconv.core import as_signal
from ambiconv.quotient import _bordered, _candidates, _real_roots
from ambiconv.trials import sample_signal
from oracles import convolve_brute, quotient_candidates


def residual(w, element):
    return float(np.max(np.abs(reconstruct(element.w_star, element.gamma) - w)))


class TestReconstruct:
    def test_trivial_angle(self):
        assert np.array_equal(reconstruct([1.0], 0.0), [1.0, 0.0])

    def test_inverse_of_d2_decomposition(self):
        gamma = math.atan2(0.8, 0.6)  # cos = 0.6, sin = 0.8
        got = reconstruct([5.0], -gamma)
        assert np.allclose(got, [3.0, 4.0], atol=1e-12)

    def test_output_is_one_entry_longer(self):
        # The length follows from w_star alone; the old d argument is gone.
        for size in (1, 2, 7):
            assert reconstruct(np.ones(size), 0.3).size == size + 1
        with pytest.raises(TypeError):
            reconstruct([1.0, 2.0], 0.3, d=3)

    def test_overflowing_reconstruction_is_refused(self):
        with pytest.raises(ValueError, match="overflows float64: rescale"):
            reconstruct([1.7e308, -1.7e308], math.pi / 4)
        # Past the 2-peak bound, an output that fits is still returned.
        assert np.isfinite(reconstruct([1.7e308, 1.7e308], math.pi / 4)).all()

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
        with pytest.raises(ValueError, match=r"endpoint w\(1\) .* shift_ambiguity"):
            quotient_decompose([0.0, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match=r"endpoint w\(4\)"):
            quotient_decompose([1.0, 2.0, 3.0, 1e-13])

    @pytest.mark.parametrize("k", [2, 3])
    def test_repeated_root_is_kept(self, k):
        # w = (z - r)^k a(z).  A k-fold root splits into eigenvalues about
        # eps^(1/k) |r| apart, at k = 2 often a complex pair; a factor pair
        # near r must still be returned.  An odd multiplicity keeps one
        # eigenvalue real.
        rng = np.random.default_rng(k)
        for _ in range(40):
            r = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0)
            w = sample_signal(rng, 4)
            for _ in range(k):
                w = np.convolve(w, [-r, 1.0])
            gammas = [e.gamma for e in quotient_decompose(w)]
            assert any(abs(g - math.atan2(1.0, r)) <= 1e-4 for g in gammas), (r, gammas)

    def test_rejects_d1(self):
        with pytest.raises(ValueError):
            quotient_decompose([1.0])

    def test_round_trip_of_every_returned_element(self):
        rng = np.random.default_rng(9)
        w = rng.uniform(-1, 1, 8)
        w[0], w[-1] = -0.9, 1.1
        tol = ToleranceProfile()
        for e in quotient_decompose(w, tol):
            assert residual(w, e) <= tol.rel_tol * max(map(abs, [*w, *e.w_star]))

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
        # numpy's eigvals gufunc reports a dgeev failure (info > 0) as NaN
        # output, or as the FloatingPointError that np.seterr(invalid="raise")
        # makes of its invalid-value signal.
        def nan_output(a, **_):
            return np.full(a.shape[0], complex(math.nan, math.nan))

        def raises(a, **_):
            raise FloatingPointError("invalid value encountered in eigvals")

        for fake in (nan_output, raises):
            monkeypatch.setattr(quotient, "_eigvals", fake)
            with pytest.raises(quotient.RootFindingError, match="did not converge"):
                quotient_decompose([1.0, 0.5, -0.5, 2.0])

    def test_root_finder_failure_under_warnings_as_errors(self, monkeypatch):
        # With RuntimeWarning an error, the invalid-value signal raises it
        # from the gufunc call instead of returning the NaN output.
        def warns(a, **_):
            warnings.warn("invalid value encountered in eigvals", RuntimeWarning, stacklevel=2)
            return np.full(a.shape[0], complex(math.nan, math.nan))

        monkeypatch.setattr(quotient, "_eigvals", warns)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
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
                quotient_decompose(w, ToleranceProfile(rel_tol=0.0))

    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    def test_roots_agree_with_numpy_reference(self, scale):
        # Independent reference: numpy's polynomial root finder on W(z),
        # filtered by the same real band.  A tolerance, not bitwise equality:
        # numpy and scipy may link different BLAS builds.
        from ambiconv.quotient import _REAL_BAND

        rng = np.random.default_rng(2024)
        tol = ToleranceProfile()
        for d in range(2, 71):
            for _ in range(4):
                w = sample_signal(rng, d) * scale
                roots = np.roots(w[::-1])
                real = roots.real[np.abs(roots.imag) <= _REAL_BAND * (1.0 + np.abs(roots.real))]
                want = [math.atan2(1.0, r) for r in np.sort(real)]
                got = [e.gamma for e in quotient_decompose(w, tol)[::2]]
                assert len(got) == len(want), (d, got, want)
                assert np.allclose(got, want, rtol=1e-12, atol=0.0), (d, got, want)


def candidate_bytes(candidates):
    """Each candidate's peak and angle as float hex, its quotient (a list or
    an array) as float64 bytes."""
    return [(p.hex(), g.hex(), np.asarray(w, dtype=float).tobytes()) for p, g, w in candidates]


CHECK_TOLS = [DEFAULT_TOL, ToleranceProfile(rel_tol=1e-12), ToleranceProfile(rel_tol=1e-14)]


def reproducing_candidates(ws, peak, tol):
    """The array-based reference candidates of tests/oracles.py kept by the
    full numpy residual max|conv(w_star, taps) - ws| at ``tol``."""
    kept = []
    for w_peak, gamma, w_star in quotient_candidates(ws):
        taps = (math.cos(gamma), -math.sin(gamma))
        if float(np.abs(np.convolve(w_star, taps) - ws).max()) <= tol._at(max(peak, w_peak)):
            kept.append((w_peak, gamma, w_star))
    return kept


class TestCandidates:
    # The list-based builder, which keeps a factor by its division remainder
    # alone, must reproduce the array-based reference filtered by the full
    # reconstruction residual byte for byte (every peak, angle and quotient
    # entry) at the default tolerance and at tighter ones.  ``check`` returns
    # the candidates at each tolerance of CHECK_TOLS.
    def check(self, w):
        ws = as_signal(w)
        peak = float(np.abs(ws).max())
        got = [_candidates(ws, peak, tol) for tol in CHECK_TOLS]
        want = [reproducing_candidates(ws, peak, tol) for tol in CHECK_TOLS]
        assert list(map(candidate_bytes, got)) == list(map(candidate_bytes, want))
        return got

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_array_reference(self, seed):
        rng = np.random.default_rng(seed)
        for d in range(2, 65):
            for scale in (1e-150, 1.0, 1e150):
                self.check(sample_signal(rng, d) * scale)

    def test_remainder_check_matches_numpy_residual(self):
        # Every accept/reject decision of the remainder check is the full
        # numpy residual's; at 1e-14 about one candidate in ten fails it.
        rng = np.random.default_rng(7)
        counts = np.zeros(len(CHECK_TOLS), dtype=int)
        for d in [*range(2, 65)] * 3:
            for scale in (1e-120, 1.0, 1e120):
                counts += [len(kept) for kept in self.check(sample_signal(rng, d) * scale)]
        assert counts[0] > 1000 and counts[-1] < counts[0]

    def test_roots_on_both_sides_of_the_unit_circle(self):
        # Each side divides from its own end: |r| > 1 from the low end,
        # |r| <= 1 from the high end (the reversed list).
        roots = [-7.0, -1.5, -1.0, -0.6, 0.25, 0.9, 1.0, 2.5, 40.0]
        w = np.poly(roots)[::-1]
        got = self.check(w)[0]
        want = [math.atan2(1.0, r) for r in roots]
        assert np.allclose([g for _, g, _ in got], want, rtol=1e-9, atol=0.0)

    def test_overflowing_quotient_is_excluded(self):
        # W(z) = k (z - 1)(z - 10) with 11 k near float64's limit: dividing
        # out the root 1 gives a quotient of peak 14.1 k, which overflows,
        # while the root 10 gives 10.05 k.  Both builders drop the first.
        k = 1.5e308 / 11.0
        got = self.check([10.0 * k, -11.0 * k, k])[0]
        assert [g for _, g, _ in got] == pytest.approx([math.atan2(1.0, 10.0)], rel=1e-12)
        assert self.check([1.7e308, 0.0, 0.0, 0.0, 0.0, -1.7e308]) == [[], [], []]


class TestBordered:
    @pytest.mark.parametrize("k", range(-4, 5))
    def test_correlation_is_the_2_tap_convolution_byte_for_byte(self, k):
        # At and one or two ulps around each multiple of pi/2, where cos or
        # sin is 0 or tiny, plus a generic angle beside each.
        rng = np.random.default_rng(k + 10)
        at = k * math.pi / 2
        near = [at, math.nextafter(at, math.inf), math.nextafter(at, -math.inf)]
        near.append(math.nextafter(near[1], math.inf))
        for gamma in near + [at + rng.uniform(0.1, 1.4)]:
            taps = (math.cos(gamma), -math.sin(gamma))
            for d in range(1, 81):
                ws = rng.uniform(-1.0, 1.0, d) * 10.0 ** rng.integers(-200, 200)
                want = np.convolve(ws, taps).tobytes()
                assert _bordered(ws, gamma).tobytes() == want, (gamma, d)
                assert _bordered(ws.tolist(), gamma).tobytes() == want, (gamma, d)


class TestCompanionSkeletons:
    def test_alternating_orders_give_the_fresh_matrix_roots(self):
        # Companion orders 4 -> 64 -> 4 -> 120 -> 64: each call must find the
        # roots of a companion built from scratch, as numpy's roots builds it,
        # whatever order the call before it had.
        rng = np.random.default_rng(11)
        for n in (4, 64, 4, 120, 64, 4):
            ws = sample_signal(rng, n + 1)
            comp = np.eye(n, k=-1)
            comp[0] = -ws[-2::-1] / ws[-1]
            eig = np.linalg.eigvals(comp).astype(complex).tolist()
            want = sorted(z.real for z in eig if abs(z.imag) <= 1e-6 * (1.0 + abs(z.real)))
            assert _real_roots(ws, float(np.abs(ws).max())) == want, n

    def test_gufunc_matches_public_eigvals_bit_for_bit(self):
        # quotient calls numpy's private eigvals gufunc directly; a numpy
        # release that changes it must fail here, not change the results.
        # Every order to 100 (past dgeev's switch to aggressive early
        # deflation at 75), then every 12th to 257: all of 1..257 take 7 s.
        rng = np.random.default_rng(257)
        for n in [*range(1, 101), *range(101, 258, 12)]:
            ws = sample_signal(rng, n + 1)
            comp = np.eye(n, k=-1)
            comp[0] = ws[-2::-1] / -ws[-1]
            got = quotient._eigvals(comp, signature="d->D")
            want = np.linalg.eigvals(comp)
            assert got.dtype == np.complex128 and got.shape == (n,), n
            assert got.real.tobytes() == want.real.tobytes(), n
            if want.dtype == np.complex128:
                assert got.imag.tobytes() == want.imag.tobytes(), n
            else:  # all imaginary parts were zero, and the wrapper dropped them
                assert not got.imag.any(), n
