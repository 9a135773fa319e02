import math

import numpy as np
import pytest

from ambiconv import (
    DEFAULT_TOL,
    AmbiguousPair,
    AttackSearchError,
    ToleranceProfile,
    attack,
    bordered_y_form,
    collinearity,
    convolve,
    n0_element,
    outer,
    quotient_decompose,
    reconstruct,
    rotational_family,
    shift_ambiguity,
    verify_pair,
)
from ambiconv.ambiguity import ATTACK_COLLINEARITY_BOUND, DEGENERACY_EPS
from ambiconv.reference import THETA, PHI, X1, X2, Y1, Y2, X3_PRINTED, Y4_PRINTED
from ambiconv.trials import sample_signal, trial_rng
from oracles import convolve_brute


def attack_suite_draw(seed, index):
    """The input pair of trial ``index`` of ``trials --suite attack --seed seed``."""
    rng = trial_rng(seed, index)
    m, n = (int(rng.choice(np.arange(4, 17, 2))) for _ in range(2))
    return sample_signal(rng, m), sample_signal(rng, n)


def clustered_root_pair():
    """x with one real root (0.5) and -y with three (0.5005, 0.501, 0.502):
    every combination lies above the attack's collinearity bound, the first
    in search order (1 - 2.7e-8) closer to collinear than the last
    (1 - 4.3e-7)."""

    def monic(roots):
        return np.real(np.poly(roots))[::-1]

    x = monic([0.5, 0.3 + 0.8j, 0.3 - 0.8j])
    y = -monic([0.5005, 0.501, 0.502, -0.4 + 0.9j, -0.4 - 0.9j])
    return x, y


def valid_combinations(x, y, tol=DEFAULT_TOL):
    """``(x_alt, y_alt, collinearity)`` of every combination the attack may
    return at ``tol``, in its documented order: x-elements outer, y-elements
    inner, each by increasing factor peak, degenerate angle pairs skipped."""

    def by_peak(elements):
        return sorted(elements, key=lambda e: float(np.max(np.abs(e.w_star))))

    for xe in by_peak(quotient_decompose(x, tol)):
        for ye in by_peak(quotient_decompose(-np.asarray(y), tol)):
            theta, phi = xe.gamma, ye.gamma
            if min(abs(math.cos(phi)), abs(math.sin(phi - theta))) <= DEGENERACY_EPS:
                continue
            x_alt = reconstruct(xe.w_star, phi)
            yield x_alt, bordered_y_form(ye.w_star, theta), collinearity(x, x_alt)


class TestRotationalFamily:
    def test_published_values(self):
        x3, y3, x4, y4 = rotational_family(X1, X2, Y1, Y2, THETA, PHI)
        assert np.max(np.abs(x3 - X3_PRINTED)) <= 5e-4
        assert np.max(np.abs(y4 - Y4_PRINTED)) <= 5e-4
        z3, z4 = convolve(x3, y3), convolve(x4, y4)
        assert np.max(np.abs(z3 - z4)) <= 1e-12
        assert z3[0] == pytest.approx(0.134, abs=5e-4)

    def test_common_output_asserted_by_recomputation(self):
        rng = np.random.default_rng(15)
        u = rng.uniform(-1, 1, 5)
        v = rng.uniform(-1, 1, 7)
        # seeds sharing an output: (u, 0) * (0, v) and (0, u) * (v, 0)
        x1 = np.concatenate((u, [0.0]))
        y1 = np.concatenate(([0.0], v))
        x2 = np.concatenate(([0.0], u))
        y2 = np.concatenate((v, [0.0]))
        x1p, y1p, x2p, y2p = rotational_family(x1, x2, y1, y2, 0.9, 0.3)
        gap = np.max(np.abs(convolve(x1p, y1p) - convolve(x2p, y2p)))
        assert gap <= 1e-12 * max(1.0, np.max(np.abs(convolve(x1p, y1p))))

    def test_seed_condition_enforced(self):
        with pytest.raises(ValueError):
            rotational_family([1.0, 2.0], [2.0, 1.0], [1.0], [1.0], 0.5, 0.25)

    def test_equal_angles_flagged(self):
        with pytest.warns(RuntimeWarning):
            x1p, _, x2p, _ = rotational_family(X1, X2, Y1, Y2, 0.7, 0.7)
        assert np.array_equal(x1p, x2p)


class TestShiftAmbiguity:
    def test_smallest_shift(self):
        pair = shift_ambiguity([1.0, 0.0], [0.0, 1.0])
        assert np.array_equal(pair.x_alt, [0.0, 1.0])
        assert np.array_equal(pair.y_alt, [1.0, 0.0])
        assert np.array_equal(convolve(pair.x, pair.y), [0.0, 1.0, 0.0])
        assert pair.residual == 0.0

    def test_trailing_zero_pattern(self):
        pair = shift_ambiguity([1.0, 2.0, 0.0], [0.0, 3.0, 4.0])
        assert np.array_equal(pair.x_alt, [0.0, 1.0, 2.0])
        assert np.array_equal(pair.y_alt, [3.0, 4.0, 0.0])
        assert pair.residual == 0.0
        want = convolve_brute([1.0, 2.0, 0.0], [0.0, 3.0, 4.0])
        assert np.array_equal(convolve(pair.x_alt, pair.y_alt), want)

    def test_mirrored_pattern(self):
        pair = shift_ambiguity([0.0, 1.0, 2.0], [3.0, 4.0, 0.0])
        assert np.array_equal(pair.x_alt, [1.0, 2.0, 0.0])
        assert np.array_equal(pair.y_alt, [0.0, 3.0, 4.0])
        assert pair.residual == 0.0

    def test_random_pairs_zero_residual_exact(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            m, n = rng.integers(2, 10, size=2)
            x = rng.uniform(-1, 1, m)
            y = rng.uniform(-1, 1, n)
            if rng.integers(2):
                x[-1], y[0] = 0.0, 0.0
            else:
                x[0], y[-1] = 0.0, 0.0
            pair = shift_ambiguity(x, y)
            assert pair.residual == 0.0
            assert pair.collinearity < 1.0 - 1e-9

    def test_rejects_missing_pattern(self):
        with pytest.raises(ValueError):
            shift_ambiguity([1.0, 2.0], [3.0, 4.0])

    def test_rejects_zero_signal(self):
        with pytest.raises(ValueError):
            shift_ambiguity([0.0, 0.0], [0.0, 1.0])


class TestBorderedYFormIdentity:
    def test_identity_against_forward_map(self):
        # The reduction the attack relies on: the column-bordered product of
        # v at angle a equals the negated forward map.
        rng = np.random.default_rng(33)
        for _ in range(50):
            v = rng.uniform(-1, 1, rng.integers(1, 9))
            a = rng.uniform(0, 2 * math.pi)
            assert np.allclose(
                bordered_y_form(v, a), -reconstruct(v, a), atol=1e-15, rtol=0
            )

    def test_componentwise_definition(self):
        v = np.array([2.0, -1.0, 0.5])
        a = 0.777
        got = bordered_y_form(v, a)
        lead = np.array([0.0, 2.0, -1.0, 0.5])
        trail = np.array([2.0, -1.0, 0.5, 0.0])
        assert np.array_equal(got, math.sin(a) * lead - math.cos(a) * trail)


class TestAttack:
    def test_worked_example(self):
        x = [1.0, 2.0, 3.0, 4.0]
        y = [1.0, 1.0, 2.0, 1.0]
        pair = attack(x, y)
        scale = np.max(np.abs(convolve(x, y)))
        assert pair.residual <= 1e-9 * scale
        assert pair.collinearity <= 1.0 - 1e-6
        assert verify_pair(pair).certifies_unidentifiability

    def test_outer_difference_is_bordered_product(self):
        # x y^T - x' y'^T equals sin(phi - theta) times a bordered-product
        # kernel element built from the two factor vectors.
        rng = np.random.default_rng(44)
        x = rng.uniform(-1, 1, 6)
        y = rng.uniform(-1, 1, 8)
        for vec in (x, y):
            vec[0] = 0.9
            vec[-1] = -0.8
        pair = attack(x, y)
        diff = outer(pair.x, pair.y) - outer(pair.x_alt, pair.y_alt)
        from ambiconv import lift_apply, rank_estimate

        assert np.max(np.abs(lift_apply(diff))) <= 1e-10 * max(np.max(np.abs(diff)), 1e-12)
        assert rank_estimate(diff) <= 2

    def test_monte_carlo_block(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            m, n = rng.choice([4, 6, 8, 10, 12, 14, 16], size=2)
            x = rng.uniform(-1, 1, m)
            y = rng.uniform(-1, 1, n)
            for vec in (x, y):
                for end in (0, -1):
                    while abs(vec[end]) <= 0.1:
                        vec[end] = rng.uniform(-1, 1)
            pair = attack(x, y)
            scale = np.max(np.abs(convolve(x, y)))
            assert pair.residual <= 1e-8 * scale
            assert pair.collinearity <= 1.0 - 1e-6

    @pytest.mark.parametrize(
        "tol, floor",
        [(DEFAULT_TOL, 190), (ToleranceProfile(0.0, 1e-15), 120)],
        ids=["default-tol", "tight-tol"],
    )
    def test_returns_first_combination_under_bound(self, tol, floor):
        # At the tight tolerance about 30% of the factors fail the
        # reconstruction check, often the smallest-peak one, so the attack's
        # lazy verification has to skip them exactly as the full
        # decomposition drops them.
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(200):
            m, n = rng.choice(np.arange(4, 17, 2), size=2)
            x, y = sample_signal(rng, m), sample_signal(rng, n)
            combinations = list(valid_combinations(x, y, tol))
            if not combinations:
                with pytest.raises(AttackSearchError):
                    attack(x, y, tol)
                continue
            pair = attack(x, y, tol)
            if pair.collinearity > ATTACK_COLLINEARITY_BOUND:
                continue  # the fallback, pinned below
            x_alt, y_alt, coll = next(
                c for c in combinations if c[2] <= ATTACK_COLLINEARITY_BOUND
            )
            # A mirror element (-w_star, gamma + pi) only negates the pair.
            sign = 1.0 if np.array_equal(pair.x_alt, x_alt) else -1.0
            assert np.array_equal(pair.x_alt, sign * x_alt)
            assert np.array_equal(pair.y_alt, sign * y_alt)
            assert pair.collinearity == coll
            checked += 1
        assert checked >= floor

    @pytest.mark.parametrize(
        "x, y",
        [attack_suite_draw(3, 1068), attack_suite_draw(6, 1063), clustered_root_pair()],
        ids=["suite-3-1068", "suite-6-1063", "clustered-roots"],
    )
    def test_fallback_returns_least_collinear_combination(self, x, y):
        # Every valid combination lies above the bound.  The two seeded
        # attack-suite draws have one real root per signal (collinearity
        # 0.99999909 at (3, 1068), m = 4, n = 12); the constructed pair has
        # three unequal combinations, so it tells "least" from "first".
        pair = attack(x, y)
        least = min(coll for _, _, coll in valid_combinations(x, y))
        assert pair.collinearity > ATTACK_COLLINEARITY_BOUND
        assert abs(pair.collinearity - least) <= 1e-15
        assert verify_pair(pair).certifies_unidentifiability

    @pytest.mark.parametrize("d", [32, 64, 128])
    def test_large_orders_certify(self, d):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, y = sample_signal(rng, d), sample_signal(rng, d)
            assert verify_pair(attack(x, y)).certifies_unidentifiability

    def test_no_valid_combination_is_attack_search_error(self):
        # X(z) = -Y(z) = (1 + z)(1 + z^2): one shared real root, so the only
        # angle pair has phi == theta and is degenerate.
        with pytest.raises(AttackSearchError, match="1 real roots of x, 1 of -y"):
            attack([1.0, 1.0, 1.0, 1.0], [-1.0, -1.0, -1.0, -1.0])

    def test_rejects_odd_or_small_orders(self):
        with pytest.raises(ValueError):
            attack([1.0, 2.0, 3.0], [1.0, 1.0, 2.0, 1.0])
        with pytest.raises(ValueError):
            attack([1.0, 2.0], [1.0, 1.0, 2.0, 1.0])

    def test_rejects_zero_endpoints_mentioning_shift(self):
        with pytest.raises(ValueError, match="shift_ambiguity"):
            attack([1.0, 2.0, 3.0, 0.0], [0.0, 1.0, 2.0, 1.0])


class TestVerifyPair:
    def test_shift_pair_certifies(self):
        pair = shift_ambiguity([1.0, 2.0, 0.0], [0.0, 3.0, 4.0])
        report = verify_pair(pair)
        assert report.residual == 0.0
        assert report.certifies_unidentifiability

    def test_scaling_pair_never_certifies(self):
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([2.0, -1.0])
        pair = AmbiguousPair(
            x=x, y=y, x_alt=2.0 * x, y_alt=y / 2.0, residual=0.0, collinearity=1.0
        )
        report = verify_pair(pair)
        assert report.residual <= 1e-12
        assert report.collinearity == pytest.approx(1.0)
        assert not report.certifies_unidentifiability

    def test_mismatched_outputs_do_not_certify(self):
        pair = AmbiguousPair(
            x=np.array([1.0, 0.0]),
            y=np.array([1.0, 1.0]),
            x_alt=np.array([0.0, 1.0]),
            y_alt=np.array([1.0, 2.0]),
            residual=0.0,
            collinearity=0.0,
        )
        assert not verify_pair(pair).certifies_unidentifiability

    def test_dimension_mismatch_rejected(self):
        pair = AmbiguousPair(
            x=np.array([1.0, 0.0]),
            y=np.array([1.0, 1.0]),
            x_alt=np.array([0.0, 1.0, 0.0]),
            y_alt=np.array([1.0]),
            residual=0.0,
            collinearity=0.0,
        )
        with pytest.raises(ValueError):
            verify_pair(pair)

    def test_json_round_trip(self):
        pair = shift_ambiguity([1.0, 0.0], [0.0, 2.0])
        back = AmbiguousPair.from_json(pair.to_json())
        assert np.array_equal(back.x_alt, pair.x_alt)
        assert back.residual == pair.residual


class TestCollinearity:
    def test_parallel_vectors(self):
        assert collinearity([1.0, 2.0], [-2.0, -4.0]) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert collinearity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_zero_vector_returns_zero(self):
        assert collinearity([0.0, 0.0], [1.0, 1.0]) == 0.0

    @pytest.mark.parametrize("scale", [1e-170, 1.0, 1e200])
    def test_scale_invariant_at_extreme_magnitudes(self, scale):
        # Plain dot products underflow to 0 near 1e-170 and overflow near
        # 1e200; neither may change the cosine.
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = np.array([1.0, 1.0, 2.0, 1.0])
        assert collinearity(scale * a, 2 * scale * a) == 1.0
        assert collinearity(scale * a, scale * b) == pytest.approx(collinearity(a, b))
        tiny = AmbiguousPair(
            x=scale * a, y=b, x_alt=2 * scale * a, y_alt=b / 2, residual=0.0, collinearity=0.0
        )
        assert not verify_pair(tiny).certifies_unidentifiability

    def test_attack_difference_matches_scaled_bordered_product(self):
        # With the factors the attack picked, x y^T - x' y'^T must equal
        # sin(phi - theta) times the bordered product of (u, v).
        from ambiconv import quotient_decompose

        x = np.array([0.5, 1.0, -0.25, 0.75])
        y = np.array([1.0, 0.5, 0.5, -1.0])
        pair = attack(x, y)
        used = [
            (xe, ye)
            for xe in quotient_decompose(x)
            for ye in quotient_decompose(-y)
            if np.allclose(reconstruct(xe.w_star, ye.gamma), pair.x_alt, atol=1e-9)
            and np.allclose(bordered_y_form(ye.w_star, xe.gamma), pair.y_alt, atol=1e-9)
        ]
        assert used, "the attack's factor pair must come from the decompositions"
        xe, ye = used[0]
        diff = outer(pair.x, pair.y) - outer(pair.x_alt, pair.y_alt)
        expected = math.sin(ye.gamma - xe.gamma) * n0_element(xe.w_star, ye.w_star)
        assert np.allclose(diff, expected, atol=1e-9 * max(1.0, np.max(np.abs(diff))))
