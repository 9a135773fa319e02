import math
import warnings

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
from ambiconv import trials
from ambiconv.ambiguity import (
    ATTACK_COLLINEARITY_BOUND,
    COLLINEARITY_MARGIN,
    DEGENERACY_EPS,
    _attack,
    _certifies,
    _collinearity,
    _outputs,
)
from ambiconv.core import _peak
from ambiconv.reference import THETA, PHI, X1, X2, Y1, Y2, X3_PRINTED, Y4_PRINTED
from ambiconv.trials import ATTACK_RESIDUAL_REL, attack_suite, sample_signal, trial_rng
from oracles import convolve_brute


def attack_suite_draw(seed, index):
    """The input pair of trial ``index`` of ``trials --suite attack --seed seed``."""
    rng = trial_rng(seed, index)
    m, n = (int(rng.choice(np.arange(4, 17, 2))) for _ in range(2))
    return sample_signal(rng, m), sample_signal(rng, n)


def monic(roots):
    """Ascending coefficients of the monic polynomial with these roots."""
    return np.real(np.poly(roots))[::-1]


def clustered_root_pair():
    """x with one real root (0.5) and y with three (0.5005, 0.501, 0.502):
    every combination lies above the attack's collinearity bound, the first
    in search order (1 - 2.7e-8) closer to collinear than the last
    (1 - 4.3e-7)."""
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
        for ye in by_peak(quotient_decompose(y, tol)):
            theta, phi = xe.gamma, ye.gamma
            if min(abs(math.cos(phi)), abs(math.sin(phi - theta))) <= DEGENERACY_EPS:
                continue
            x_alt = reconstruct(xe.w_star, phi)
            yield x_alt, reconstruct(ye.w_star, theta), collinearity(x, x_alt)


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

    @pytest.mark.parametrize(
        "x1, x2, y1, y2, message",
        [
            # Equal output lengths: the rotation itself could not broadcast.
            ([1.0, 2.0, 1.0], [1.0] * 4, [1.0] * 4, [1.0] * 3, "x1 and x2 differ in length: 3 vs 4"),
            # Unequal output lengths: the seed residual could not broadcast.
            ([1.0, 2.0], [2.0, 1.0], [1.0] * 3, [1.0] * 2, "y1 and y2 differ in length: 3 vs 2"),
        ],
    )
    def test_mismatched_lengths_are_named(self, x1, x2, y1, y2, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            rotational_family(x1, x2, y1, y2, 0.5, 0.25)

    def test_overflowing_rotated_factors_are_refused(self):
        # The seed outputs are finite (1.7e8 each); x1' and x2' are not.
        with pytest.raises(ValueError, match="overflow float64: rescale"):
            rotational_family([1.7e308], [-1.7e308], [1e-300], [-1e-300], math.pi / 4, 0.1)
        # Past the peak bound, rotated factors that fit are still returned.
        big, tiny = [1.7e308], [1e-300]
        x1p, _, x2p, _ = rotational_family(big, big, tiny, tiny, math.pi / 4, 0.1)
        assert abs(x1p[0]) <= 1e293 and np.isfinite(x2p).all()

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
        # The column-bordered product of v at angle a equals the negated
        # forward map.
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

    def test_overflowing_output_is_refused(self):
        # It returned -inf here, while reconstruct, its negation, refused.
        message = "^the bordered product overflows float64: rescale v$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                bordered_y_form([1.5e308, 1.5e308], -math.pi / 4)


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
        "tol, orders, draws, floor",
        [
            (DEFAULT_TOL, range(4, 17, 2), 200, 190),
            (ToleranceProfile(rel_tol=1e-15), range(4, 17, 2), 200, 120),
            (DEFAULT_TOL, (32, 48, 64), 40, 38),
            (ToleranceProfile(rel_tol=1e-15), (32, 48, 64), 40, 18),
        ],
        ids=["default-tol", "tight-tol", "default-tol-orders-32-64", "tight-tol-orders-32-64"],
    )
    def test_returns_first_combination_under_bound(self, tol, orders, draws, floor):
        # At the tight tolerance about 30% of the low-order factors fail the
        # remainder check, often the smallest-peak one, and at orders 32 to
        # 64 half the draws keep no combination: the attack has to skip
        # exactly the factors the full decomposition drops.
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(draws):
            m, n = rng.choice(orders, size=2)
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

    @pytest.mark.parametrize(
        "seed, index", [(3, 1068), (4, 170), (6, 1063), (9, 27), (10, 970)]
    )
    def test_suite_row_success_is_verify_pair_rule(self, seed, index):
        # The attack-suite draws that take the fallback: their certificates
        # lie above the attack's search bound, and the campaign must still
        # judge them by verify_pair's rule.
        row = attack_suite(index + 1, seed).rows[index]
        x, y = attack_suite_draw(seed, index)
        pair = attack(x, y)
        assert pair.collinearity > ATTACK_COLLINEARITY_BOUND
        assert row.success == verify_pair(pair).certifies_unidentifiability

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_suite_rows_match_the_full_scale_rule(self, seed):
        # The campaign judges each row against the output peak the attack
        # measured; every row must be the full-scale rule's, recomputed
        # through the public attack.  The campaign also reads both input
        # peaks off its float lists, so each row must carry the bits of the
        # private attack run on the ufunc peaks.
        for row in attack_suite(500, seed).rows:
            x, y = attack_suite_draw(seed, row.index)
            assert row.dims == {"m": x.size, "n": y.size}
            frozen = _attack(x, _peak(x), y, _peak(y), DEFAULT_TOL)[0]
            assert (row.residual.hex(), row.collinearity.hex()) == (
                frozen.residual.hex(),
                frozen.collinearity.hex(),
            )
            pair = attack(x, y)
            scale = float(np.abs(np.convolve(x, y)).max())
            ok = (
                pair.residual <= ATTACK_RESIDUAL_REL * scale
                and pair.collinearity < 1.0 - COLLINEARITY_MARGIN
            )
            assert (row.success, row.residual, row.collinearity) == (
                ok,
                pair.residual,
                pair.collinearity,
            )

    @pytest.mark.parametrize("above, success", [(False, True), (True, False)])
    def test_suite_falls_back_to_the_full_scale(self, monkeypatch, above, success):
        # Residuals at exactly 1e-8 max|x * y|, the peak the attack returns,
        # must pass; one ulp above must fail everywhere.
        def attack_at_bound(x, x_peak, y, y_peak, tol):
            peak = float(np.abs(np.convolve(x, y)).max())
            residual = ATTACK_RESIDUAL_REL * peak
            if above:
                residual = math.nextafter(residual, math.inf)
            return AmbiguousPair(x, y, x, y, residual, 0.5), peak

        monkeypatch.setattr(trials, "_attack", attack_at_bound)
        rows = attack_suite(200, 1).rows
        assert [row.success for row in rows] == [success] * 200

    def test_degenerate_cos_phi_is_skipped(self):
        # y has the root 1e-7, so its angle phi has |cos(phi)| = 1e-7.  That
        # factor has the smallest peak and sorts first; the attack skips it
        # and returns the first non-degenerate combination.
        x = monic([0.5, -0.3 + 0.8j, -0.3 - 0.8j])
        y = -monic([1e-7, 2.0, -3.0, 1j, -1j])
        first = min(quotient_decompose(y), key=lambda e: float(np.max(np.abs(e.w_star))))
        assert abs(math.cos(first.gamma)) <= DEGENERACY_EPS
        pair = attack(x, y)
        x_alt, y_alt, coll = next(valid_combinations(x, y))
        sign = 1.0 if np.array_equal(pair.x_alt, x_alt) else -1.0
        assert np.array_equal(pair.x_alt, sign * x_alt)
        assert np.array_equal(pair.y_alt, sign * y_alt)
        assert pair.collinearity == coll <= ATTACK_COLLINEARITY_BOUND

    @pytest.mark.parametrize("d", [32, 64, 128])
    def test_large_orders_certify(self, d):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, y = sample_signal(rng, d), sample_signal(rng, d)
            assert verify_pair(attack(x, y)).certifies_unidentifiability

    def test_no_valid_combination_is_attack_search_error(self):
        # X(z) = -Y(z) = (1 + z)(1 + z^2): one shared real root, so the only
        # angle pair has phi == theta and is degenerate.
        with pytest.raises(AttackSearchError, match="1 factors of x and 1 of y kept"):
            attack([1.0, 1.0, 1.0, 1.0], [-1.0, -1.0, -1.0, -1.0])

    def test_search_error_counts_kept_factors_not_real_roots(self):
        # x has the real root -0.908..., but at rel_tol = 0 its division
        # remainder, a rounding error, is over the threshold: x keeps no
        # factor, while y keeps its one.
        x, y = [1.0, 0.3, -0.7, 0.2], [0.5, 1.0, -0.25, 0.75]
        assert sum(abs(r.imag) == 0.0 for r in np.roots(x[::-1])) == 1
        with pytest.raises(AttackSearchError, match="0 factors of x and 1 of y kept"):
            attack(x, y, ToleranceProfile(rel_tol=0.0))

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

    def test_overflowing_pairs_are_refused(self):
        # x*y reaches 1e400: every pair function refuses it by name instead
        # of returning a NaN residual (RuntimeWarnings are errors in tests).
        x = [1e200, 2e200, -1e200, 3e200]
        y = [1e200, -2e200, 1e200, 2e200]
        pair = AmbiguousPair(
            x=np.array(x), y=np.array(y), x_alt=np.array(x), y_alt=np.array(y),
            residual=0.0, collinearity=1.0,
        )
        with pytest.raises(ValueError, match="overflows"):
            attack(x, y)
        with pytest.raises(ValueError, match="overflows"):
            shift_ambiguity([1e200, 2e200, 0.0], [0.0, 3e200, 4e200])
        with pytest.raises(ValueError, match="overflows"):
            verify_pair(pair)
        with pytest.raises(ValueError, match="overflows"):
            rotational_family(x, x, y, y, 0.3, 0.9)

    def test_overflowing_output_difference_is_refused(self):
        # Both outputs peak at 1.69e308 with opposite signs, so their
        # difference overflows: refused, without an overflow warning.
        big = np.array([1.3e154, 1.0])
        pair = AmbiguousPair(
            x=big, y=big, x_alt=big * [-1.0, 1.0], y_alt=big, residual=0.0, collinearity=0.0
        )
        with pytest.raises(ValueError, match="overflows float64: rescale the signals"):
            verify_pair(pair)
        # Where the peaks sum to inf but the difference stays finite, it is
        # still measured.
        x_alt = big * [1.0, 0.5]
        near = AmbiguousPair(x=big, y=big, x_alt=x_alt, y_alt=big, residual=0.0, collinearity=0.0)
        report = verify_pair(near)
        assert report.residual == np.abs(np.convolve(big, big) - np.convolve(x_alt, big)).max()
        assert not report.certifies_unidentifiability

    def test_json_round_trip(self):
        pair = shift_ambiguity([1.0, 0.0], [0.0, 2.0])
        back = AmbiguousPair.from_json(pair.to_json())
        assert np.array_equal(back.x_alt, pair.x_alt)
        assert back.residual == pair.residual

    @pytest.mark.parametrize("value", [[0.0], None, {}, "zero"], ids=repr)
    @pytest.mark.parametrize("field", ["residual", "collinearity"])
    def test_json_scalar_fields_must_be_real_numbers(self, field, value):
        obj = {**shift_ambiguity([1.0, 0.0], [0.0, 2.0]).to_json(), field: value}
        with pytest.raises(ValueError, match=f'pair JSON "{field}" must be a real number'):
            AmbiguousPair.from_json(obj)


class TestPairLayer:
    """The private pair measurements, bit for bit against plain numpy."""

    @pytest.mark.parametrize("exp", [-600, 600])
    def test_collinearity_is_the_scaled_cosine(self, exp):
        rng = np.random.default_rng(28)
        for d in range(1, 131):
            a, b = (np.ldexp(rng.uniform(-1.0, 1.0, d), exp) for _ in range(2))
            peak_a, peak_b = float(np.abs(a).max()), float(np.abs(b).max())
            sa = np.ldexp(a, -math.frexp(peak_a)[1])
            sb = np.ldexp(b, -math.frexp(peak_b)[1])
            cosine = abs(sa @ sb) / (np.linalg.norm(sa) * np.linalg.norm(sb))
            assert _collinearity(a, b, peak_a) == min(1.0, float(cosine))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_attack_returns_the_common_output_peak(self, seed):
        for index in range(100):
            x, y = attack_suite_draw(seed, index)
            try:
                _, peak = _attack(x, _peak(x), y, _peak(y), DEFAULT_TOL)
            except AttackSearchError:
                continue
            assert peak == float(np.abs(np.convolve(x, y)).max())

    def test_certifies_is_the_inclusive_residual_and_strict_collinearity_rule(self):
        edge = 1.0 - COLLINEARITY_MARGIN
        assert _certifies(1.0, 1.0, math.nextafter(edge, 0.0))
        assert not _certifies(math.nextafter(1.0, 2.0), 1.0, 0.0)
        assert not _certifies(0.0, 1.0, edge)
        assert not _certifies(math.nan, 1.0, 0.0)

    @pytest.mark.parametrize("exp", [-600, 600])
    def test_outputs_are_the_three_peaks(self, exp):
        rng = np.random.default_rng(28)
        for d in range(1, 131):
            n = int(rng.integers(1, 131))
            x, x_alt = (np.ldexp(rng.uniform(-1.0, 1.0, d), exp) for _ in range(2))
            y, y_alt = (rng.uniform(-1.0, 1.0, n) for _ in range(2))
            z, z_alt = np.convolve(x, y), np.convolve(x_alt, y_alt)
            expected = tuple(float(np.abs(v).max()) for v in (z - z_alt, z, z_alt))
            assert _outputs(x, y, x_alt, y_alt) == expected


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
        # sin(theta - phi) times the bordered product of (u, v).
        from ambiconv import quotient_decompose

        x = np.array([0.5, 1.0, -0.25, 0.75])
        y = np.array([1.0, 0.5, 0.5, -1.0])
        pair = attack(x, y)
        used = [
            (xe, ye)
            for xe in quotient_decompose(x)
            for ye in quotient_decompose(y)
            if np.allclose(reconstruct(xe.w_star, ye.gamma), pair.x_alt, atol=1e-9)
            and np.allclose(reconstruct(ye.w_star, xe.gamma), pair.y_alt, atol=1e-9)
        ]
        assert used, "the attack's factor pair must come from the decompositions"
        xe, ye = used[0]
        diff = outer(pair.x, pair.y) - outer(pair.x_alt, pair.y_alt)
        expected = math.sin(xe.gamma - ye.gamma) * n0_element(xe.w_star, ye.w_star)
        assert np.allclose(diff, expected, atol=1e-9 * max(1.0, np.max(np.abs(diff))))
