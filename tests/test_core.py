import itertools
import json
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ambiconv import (
    AmbiguousPair,
    ToleranceProfile,
    as_matrix,
    as_signal,
    attack,
    bordered_y_form,
    certificate_from_json,
    classify,
    convolve,
    hankel_basis,
    is_in_rank2_nullspace,
    lift_apply,
    m2_element,
    matrix_from_json,
    matrix_to_json,
    n2_lift,
    outer,
    rank_estimate,
    reconstruct,
    rotational_family,
    shift_ambiguity,
    signal_from_json,
    signal_to_json,
    verify_pair,
)
from ambiconv import core
from ambiconv.core import DEFAULT_TOL, RankError, _lift, _peak, _rank
from ambiconv.nullspace import n0_element, n2_generate
from oracles import antidiagonal_sums_brute, convolve_brute, lift_bincount, rank_fraction

X1 = [1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 1]
Y1 = [1, 0, 0, 0, 1, 0, 0]
Z_COMMON = [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0]

signal_entries = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=9
)


# One call per public scalar parameter, with that parameter set to t.
SCALAR_PARAMETER_CALLS = {
    "gamma": lambda t: reconstruct([1.0, 2.0], t),
    "angle": lambda t: bordered_y_form([1.0, 2.0], t),
    "theta": lambda t: rotational_family([1.0], [1.0], [1.0], [1.0], t, 0.5),
    "phi": lambda t: rotational_family([1.0], [1.0], [1.0], [1.0], 0.5, t),
    "lam": lambda t: m2_element([1.0], t),
}


# Nonfinite entries: a NaN in a middle position after a larger finite
# entry (which Python's max would skip), +inf and -inf.
NONFINITE_SIGNALS = {
    "nan-after-larger": [3.0, float("nan"), 1.0, 2.0],
    "inf": [1.0, 2.0, float("inf"), 1.0],
    "minus-inf": [1.0, -float("inf"), 2.0, 1.0],
    "int-beyond-float64": [1.0, 2.0, -(10**400), 1.0],  # a float64 conversion overflows
}
ONES = np.ones(4)

# One call per public entry that validates a signal, with that signal set to s.
SIGNAL_ENTRY_CALLS = {
    "as_signal": as_signal,
    "n0_element": lambda s: n0_element([1.0, 2.0], s),
    "outer": lambda s: outer([1.0], s),
    "convolve": lambda s: convolve(s, [1.0]),
    "n2_lift": lambda s: n2_lift(ONES, ONES, ONES, s),
    "attack": lambda s: attack([1.0, 2.0, 3.0, 4.0], s),
    "verify_pair": lambda s: verify_pair(AmbiguousPair(ONES, ONES, np.array(s), ONES, 0.0, 0.0)),
}

# The same for a matrix, whose second row is the signal s.
MATRIX_ENTRY_CALLS = {
    "as_matrix": as_matrix,
    "lift_apply": lift_apply,
    "rank_estimate": rank_estimate,
    "is_in_rank2_nullspace": is_in_rank2_nullspace,
    "classify": classify,
}


# Complex entries in both forms: a complex array, which a float64 cast would
# drop to its real part with only a warning, and a list holding one complex
# entry, which float() refuses with a bare TypeError.
COMPLEX_SIGNALS = {
    "complex-array": np.array([1 + 5j, 2.0, 3.0, 4.0]),
    "complex-entry": [1.0, 2.0, 3 + 0j, 4.0],
}
COMPLEX_ENTRY_CALLS = {
    "as_signal": lambda s: as_signal(s),
    "as_matrix": lambda s: as_matrix([np.ones(4), s]),
    "convolve": lambda s: convolve([1.0, 1.0, 2.0, 1.0], s),
    "attack": lambda s: attack(s, [1.0, 1.0, 2.0, 1.0]),
    "classify": lambda s: classify([[4.0, 0.5, 1.0, 2.0], s]),
}


class TestValidation:
    @pytest.mark.parametrize("form", sorted(COMPLEX_SIGNALS))
    @pytest.mark.parametrize("name", sorted(COMPLEX_ENTRY_CALLS))
    def test_complex_entries_are_refused(self, name, form):
        kind = "matrix" if name in ("as_matrix", "classify") else "signal"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{kind} entries must be real numbers$"):
                COMPLEX_ENTRY_CALLS[name](COMPLEX_SIGNALS[form])

    def test_object_entries_that_are_not_real_numbers_are_refused(self):
        with pytest.raises(ValueError, match="^signal entries must be real numbers$"):
            as_signal(np.array([1.0, 2 + 1j, "x"], dtype=object))

    @pytest.mark.parametrize(
        "call, entries",
        [
            (as_signal, ["1.5", "2"]),
            (as_signal, [b"3"]),
            (as_signal, [1.0, "2"]),
            (as_signal, np.array([1.0, "2"], dtype=object)),
            (as_signal, np.array([1.0, b"2"], dtype=object)),
            (as_matrix, [["1", "2"], ["3", "4"]]),
        ],
        ids=["str", "bytes", "mixed", "object-str", "object-bytes", "matrix-str"],
    )
    def test_string_entries_are_refused(self, call, entries):
        # float64 conversion would parse them as numbers.
        kind = "matrix" if call is as_matrix else "signal"
        with pytest.raises(ValueError, match=f"^{kind} entries must be real numbers$"):
            call(entries)

    @pytest.mark.parametrize(
        "call, entries",
        [
            (as_signal, [True, 2.0]),
            (as_signal, [1.0, None]),
            (as_signal, [np.True_, 2.0]),
            (as_signal, np.array([True, False])),
            (as_signal, np.array(["2020-01-01"], "datetime64[D]")),
            (as_signal, np.array([1, 2], "timedelta64[s]")),
            (as_signal, np.array([1.0, None], dtype=object)),
            (as_signal, np.array([1.0, True], dtype=object)),
            (as_matrix, [[1.0, 2.0], [False, 4.0]]),
            (as_matrix, np.array([[True, False]])),
            (as_matrix, np.array([["2020-01-01"]], "datetime64[D]")),
            (as_signal, [np.array(True), 2.0]),
            (as_signal, np.ma.array([1.0, 2.0], mask=[0, 1])),
            (as_matrix, [np.ma.array([1.0, 2.0], mask=[0, 1]), [3.0, 4.0]]),
            (as_signal, np.ma.array([1.0, 2.0])),
            (as_signal, bytearray(b"ab")),
        ],
        ids=[
            "bool-entry", "none-entry", "numpy-bool-entry", "bool-array", "datetime64",
            "timedelta64", "object-none", "object-bool", "matrix-bool", "matrix-bool-array",
            "matrix-datetime64", "0d-bool-entry", "masked-entry", "masked-row",
            "unmasked-masked-array", "bytearray",
        ],  # fmt: skip
    )
    def test_bool_null_and_time_entries_are_refused(self, call, entries):
        # float64 conversion would read them as 1, 0, NaN or a count of days,
        # a masked entry as the value under its mask and bytes as their codes.
        # An array subclass is refused whether or not an entry is masked.
        kind = "matrix" if call is as_matrix else "signal"
        with pytest.raises(ValueError, match=f"^{kind} entries must be real numbers$"):
            call(entries)

    @pytest.mark.parametrize("bad", [True, False, None], ids=["true", "false", "null"])
    @pytest.mark.parametrize("reader", ["signal", "matrix", "pair", "certificate"])
    def test_json_bool_and_null_entries_are_refused(self, reader, bad):
        pair = shift_ambiguity([1.0, 0.0], [0.0, 2.0]).to_json()
        pair["y_alt"]["entries"][0] = bad
        obj, load, kind = {
            "signal": ({"len": 2, "entries": [bad, 2.0]}, signal_from_json, "signal"),
            "matrix": ({"m": 1, "n": 2, "entries": [[2.0, bad]]}, matrix_from_json, "matrix"),
            "pair": (pair, AmbiguousPair.from_json, "signal"),
            "certificate": (
                {"kind": "n0", "u": [1.0, bad], "v": [1.0]}, certificate_from_json, "signal"
            ),
        }[reader]
        with pytest.raises(ValueError, match=f"^{kind} entries must be real numbers$"):
            load(json.loads(json.dumps(obj)))

    @pytest.mark.parametrize(
        "call, entries",
        [(as_matrix, [[1.0, 2.0], [3.0]]), (as_signal, [np.array([1.5]), 2.0])],
        ids=["matrix-short-row", "signal-array-entry"],
    )
    def test_ragged_rows_are_refused_by_kind(self, call, entries):
        # numpy's own message, about an "inhomogeneous shape", names no kind.
        kind = "matrix" if call is as_matrix else "signal"
        message = f"^{kind} entries must form a rectangular array, not ragged rows$"
        with pytest.raises(ValueError, match=message):
            call(entries)

    @pytest.mark.parametrize("depth", [40, 65, 900])
    def test_deeply_nested_entries_are_refused(self, depth):
        # numpy's object arrays stop at 32 dimensions with a RuntimeError, and
        # its arrays at 64; a walk of 900 levels would meet the recursion limit.
        entries = 1.0
        for _ in range(depth):
            entries = [entries]
        with pytest.raises(ValueError, match="^signal "):
            signal_from_json(json.loads(json.dumps({"len": 1, "entries": entries})))

    def test_float64_arrays_skip_the_entry_type_scan(self, monkeypatch):
        def scanned(entries):
            raise AssertionError("a float64 array was scanned")

        monkeypatch.setattr(core, "_real_entries", scanned)
        monkeypatch.setattr(core, "_is_real", scanned)
        assert as_signal(np.array([1.0, 2.0])).tolist() == [1.0, 2.0]
        assert as_matrix(np.eye(2)).tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_non_float64_real_inputs_convert_exactly(self):
        for x in ([1, 2, 3], np.float32([1.5, 2.0]), np.array([1.0, 2.5]).astype(">f8")):
            got = as_signal(x)
            assert got.dtype == np.float64 and got.dtype.isnative
            assert got.tolist() == [float(v) for v in x]

    def test_signal_rejects_nan(self):
        with pytest.raises(ValueError):
            as_signal([1.0, float("nan")])

    def test_signal_rejects_inf(self):
        with pytest.raises(ValueError):
            as_signal([float("inf")])

    def test_signal_rejects_empty_and_2d(self):
        with pytest.raises(ValueError):
            as_signal([])
        with pytest.raises(ValueError):
            as_signal([[1.0, 2.0]])

    def test_matrix_rejects_nonfinite_and_1d(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, float("nan")]])
        with pytest.raises(ValueError):
            as_matrix([1.0, 2.0])

    @pytest.mark.parametrize("bad", sorted(NONFINITE_SIGNALS))
    @pytest.mark.parametrize("name", sorted(SIGNAL_ENTRY_CALLS))
    def test_signal_entry_point_rejects_nonfinite(self, name, bad):
        with pytest.raises(ValueError, match="^signal entries must be finite$"):
            SIGNAL_ENTRY_CALLS[name](NONFINITE_SIGNALS[bad])

    @pytest.mark.parametrize("bad", sorted(NONFINITE_SIGNALS))
    @pytest.mark.parametrize("name", sorted(MATRIX_ENTRY_CALLS))
    def test_matrix_entry_point_rejects_nonfinite(self, name, bad):
        w = [[4.0, 0.5, 1.0, 2.0], NONFINITE_SIGNALS[bad]]
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            MATRIX_ENTRY_CALLS[name](w)

    def test_signals_are_immutable(self):
        x = as_signal([1.0, 2.0])
        with pytest.raises(ValueError):
            x[0] = 3.0

    @pytest.mark.parametrize(
        "bad, shown",
        [
            (float("nan"), "nan"),
            (float("inf"), "inf"),
            (-float("inf"), "-inf"),
            # float() raised a bare OverflowError here; JSON's 1e400 reads as inf.
            (10**400, "inf"),
            (-(10**400), "-inf"),
        ],
        ids=["nan", "inf", "-inf", "int-beyond-float64", "minus-int-beyond-float64"],
    )
    @pytest.mark.parametrize("name", sorted(SCALAR_PARAMETER_CALLS))
    def test_nonfinite_scalar_parameter_rejected_by_name(self, name, bad, shown):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {shown}$"):
            SCALAR_PARAMETER_CALLS[name](bad)

    @pytest.mark.parametrize(
        "bad",
        [
            *(1 + 2j, 1j, np.complex64(1.0), np.array(1j), [0.5], np.array([0.5]), "x", "0.5"),
            *(True, np.bool_(True), np.array(True), np.timedelta64(1, "s"), np.ma.masked),
            Fraction(1, 2),
        ],
        ids=[
            *("complex", "imaginary", "complex64", "0d-complex", "list", "array", "str"),
            *("numeric-str", "true", "numpy-bool", "0d-bool", "timedelta64", "masked"),
            "fraction",
        ],
    )
    @pytest.mark.parametrize("name", sorted(SCALAR_PARAMETER_CALLS))
    def test_non_real_scalar_parameter_rejected_by_name(self, name, bad):
        # float() alone raised a bare TypeError here, truncated a numpy
        # complex scalar to its real part with a ComplexWarning, parsed a
        # numeric string, read True (also as a 0-d array) as 1, a masked
        # constant as NaN with a warning, or a Fraction as its value.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
                SCALAR_PARAMETER_CALLS[name](bad)

    def test_tolerance_profile_rejects_negative(self):
        with pytest.raises(ValueError):
            ToleranceProfile(rel_tol=-1.0)

    def test_tolerance_profile_takes_rel_tol_by_keyword_only(self):
        # rel_tol is the one field and keyword-only, so neither abs_tol= nor
        # an old positional ToleranceProfile(a, r) can silently set rel_tol=a.
        with pytest.raises(TypeError):
            ToleranceProfile(abs_tol=0.0)
        with pytest.raises(TypeError):
            ToleranceProfile(1e-12)
        assert ToleranceProfile(rel_tol=1e-12).rel_tol == 1e-12

    @pytest.mark.parametrize(
        "bad",
        [float("nan"), float("inf"), -float("inf"), "1e-3", 1j, [1e-3], None, True, np.array(True)],
    )
    @pytest.mark.parametrize(
        "field, refusal",
        [
            # Every comparison is relative, so the removed absolute field is
            # refused whatever its value, not silently ignored.
            pytest.param(
                "abs_tol", (TypeError, "unexpected keyword argument 'abs_tol'"), id="abs_tol"
            ),
            pytest.param("rel_tol", (ValueError, "^rel_tol must be "), id="rel_tol"),
        ],
    )
    def test_tolerance_profile_rejects_nonfinite(self, field, refusal, bad):
        # A NaN threshold makes every comparison false and an infinite one
        # makes every comparison true, so either would silently pass or
        # refuse any input.  A field that is not one real number is named
        # too, not left to a bare TypeError.
        error, message = refusal
        with pytest.raises(error, match=message):
            ToleranceProfile(**{field: bad})


class TestConvolve:
    def test_published_integer_example_is_exact(self):
        assert np.array_equal(convolve(X1, Y1), np.array(Z_COMMON, dtype=float))

    def test_scalar_kernel_is_identity(self):
        x = [3.0, -1.0, 2.0, 7.0]
        assert np.array_equal(convolve(x, [1.0]), np.array(x))

    def test_scaling_pair_invariance_exact_on_integers(self):
        rng = np.random.default_rng(5)
        x = rng.integers(-9, 10, 6).astype(float)
        y = rng.integers(-9, 10, 4).astype(float)
        assert np.array_equal(convolve(2.0 * x, y / 2.0), convolve(x, y))

    def test_matches_brute_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            x = rng.uniform(-1, 1, rng.integers(1, 9))
            y = rng.uniform(-1, 1, rng.integers(1, 9))
            got = convolve(x, y)
            want = convolve_brute(x, y)
            assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))

    def test_one_call_form_is_np_convolve_bit_for_bit(self):
        # core._convolve, behind convolve, n2_generate and the pair outputs,
        # must keep np.convolve's operand order: an equal-length pair
        # correlated the other way round sums in another order.
        rng = np.random.default_rng(40)
        for la in range(1, 41):
            for lv in range(1, 41):
                a, v = rng.standard_normal(la), rng.standard_normal(lv)
                for x, y in ((a, v), (v, a)):
                    assert core._convolve(x, y).tobytes() == np.convolve(x, y).tobytes(), (la, lv)

    def test_overflowing_output_is_refused(self):
        # Finite inputs whose output overflows: a refusal, never inf or NaN.
        for x, y in (([1e200, 1.0], [1e200, 2.0]), ([1e200, 1e200], [1e200, -1e200])):
            with pytest.raises(ValueError, match="overflows float64: rescale"):
                convolve(x, y)
        # Past the peak bound, an output that fits is still returned.
        assert convolve([1e154, 1.0], [1e154, 2.0]).tolist() == [1e154 * 1e154, 3e154, 2.0]

    @settings(max_examples=60, deadline=None)
    @given(signal_entries, signal_entries)
    def test_commutative(self, x, y):
        assert np.allclose(convolve(x, y), convolve(y, x), rtol=1e-12, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_bilinear_in_first_argument(self, data):
        m = data.draw(st.integers(1, 8))
        entry = st.floats(min_value=-10, max_value=10, allow_nan=False)
        x1 = data.draw(st.lists(entry, min_size=m, max_size=m))
        x2 = data.draw(st.lists(entry, min_size=m, max_size=m))
        y = data.draw(signal_entries)
        lhs = convolve(np.add(x1, x2), y)
        rhs = convolve(x1, y) + convolve(x2, y)
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


class TestLiftApply:
    def test_fig_case_3x4_matches_brute(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(-1, 1, (3, 4))
        assert np.array_equal(lift_apply(w), antidiagonal_sums_brute(w))

    def test_zero_matrix(self):
        assert np.array_equal(lift_apply(np.zeros((4, 5))), np.zeros(8))

    def test_outer_lift_equals_convolution(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            m, n = rng.integers(1, 13, size=2)
            x = rng.uniform(-1, 1, m)
            y = rng.uniform(-1, 1, n)
            gap = np.max(np.abs(lift_apply(outer(x, y)) - convolve(x, y)))
            assert gap <= 1e-12

    @pytest.mark.parametrize("m, n", [(1, 9), (9, 1), (136, 140), (140, 136), (1, 1)])
    def test_lift_is_bincount_byte_for_byte(self, m, n):
        # Same summation order and signed zeros as one bincount over k+l.
        rng = np.random.default_rng([m, n])
        w = rng.uniform(-1, 1, (m, n)) * 10.0 ** rng.integers(-8, 9, (m, n))
        cells = rng.random((m, n))
        w[cells < 0.2] = -0.0
        w[cells > 0.9] = 0.0
        for case in (w, -np.zeros((m, n))):
            assert _lift(case).tobytes() == lift_bincount(case).tobytes()

    def test_overflowing_sums_are_refused(self):
        # Finite input whose sums overflow: a refusal, never inf entries.
        big = np.full((3, 3), 1e308)
        with pytest.raises(ValueError, match="overflows? float64: rescale"):
            lift_apply(big)
        # Sums near the limit that do not overflow are still returned.
        assert lift_apply([[1e308, -1e308]]).tolist() == [1e308, -1e308]
        assert lift_apply(big / 10)[2] == 3e307


class TestHankelBasis:
    def test_dimensions_are_exact_integers(self):
        # An integral float or a numpy integer is the integer; a fraction or a
        # bool is refused with a ValueError naming the argument.
        want = [s.tobytes() for s in hankel_basis(3, 4)]
        assert [s.tobytes() for s in hankel_basis(3.0, np.int64(4))] == want
        assert [s.tobytes() for s in hankel_basis(np.array(3), np.float32(4.0))] == want
        bad = ((2.5, 3, "m"), (3, True, "n"), (False, 3, "m"), ("3", 4, "m"))
        for m, n, name in (*bad, (np.timedelta64(3, "s"), 4, "m"), (True, 4, "m")):
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                hankel_basis(m, n)

    def test_3x4_matrix_j3(self):
        s3 = hankel_basis(3, 4)[2]
        want = np.array([[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=float)
        assert np.array_equal(s3, want)

    def test_single_row_gives_identity_decomposition(self):
        basis = hankel_basis(1, 5)
        stacked = np.vstack([s[0] for s in basis])
        assert np.array_equal(stacked, np.eye(5))

    def test_disjoint_supports_sum_to_all_ones(self):
        total = sum(hankel_basis(5, 7))
        assert np.array_equal(total, np.ones((5, 7)))

    def test_trace_inner_product_reproduces_lift(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m, n = rng.integers(1, 11, size=2)
            w = rng.uniform(-1, 1, (m, n))
            basis = hankel_basis(m, n)
            via_inner = np.array([float(np.sum(s * w)) for s in basis])
            assert np.max(np.abs(via_inner - lift_apply(w))) <= 1e-12


class TestPeak:
    @staticmethod
    def arrays():
        """1-D, C-, F-ordered and strided 2-D arrays at scales 2^-1000, 1 and
        2^1000, subnormals, and arrays of signed zeros."""
        rng = np.random.default_rng(41)
        base = rng.standard_normal((7, 9))
        for scale in (2.0**-1000, 1.0, 2.0**1000):
            a = base * scale
            yield from (a[3], a, np.asfortranarray(a), a[::2, ::3], a.T[1:, ::-2])
        yield np.array([5e-324, -1e-310, 2.5e-320])
        yield np.array([[-0.0, 0.0], [-0.0, -0.0]])
        yield np.array([-0.0])

    def test_equals_the_reduction_bit_for_bit(self):
        for a in self.arrays():
            got = _peak(a)
            assert type(got) is float
            assert got.hex() == float(np.max(np.abs(a))).hex()

    @pytest.mark.parametrize("at", [0, 3, 6])
    def test_any_nan_reads_nan_beside_infinities(self, at):
        a = np.array([1.0, np.inf, -2.0, 3.0, -np.inf, 0.5, 4.0])
        a[at] = np.nan
        for b in (a, a.reshape(1, 7), a[::-1]):
            got = _peak(b)
            assert type(got) is float and got != got

    def test_empty_input_is_refused(self):
        with pytest.raises(ValueError):
            _peak(np.zeros((0, 3)))


class TestOuterAndRank:
    def test_outer_example(self):
        assert np.array_equal(outer([1, 0], [0, 1]), [[0, 1], [0, 0]])

    def test_outer_zero_factor(self):
        assert not outer([0.0, 0.0], [1.0, 2.0]).any()

    def test_overflowing_outer_is_refused(self):
        # Refused before numpy multiplies, so no RuntimeWarning either.
        with pytest.raises(ValueError, match="overflows float64: rescale"):
            outer([1e200, 1.0], [1.0, 1e200])
        assert outer([1e154, 1.0], [1e154]).tolist() == [[1e154 * 1e154], [1e154]]

    def test_rank_zero_matrix(self):
        assert rank_estimate(np.zeros((4, 6))) == 0

    def test_rank_one_outer(self):
        assert rank_estimate(outer([1.0, 2.0, 3.0], [4.0, 5.0])) == 1

    def test_rank_two_bordered_product_vs_fraction_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            m, n = rng.integers(3, 7, size=2)
            u = rng.integers(-5, 6, m - 1).astype(float)
            v = rng.integers(-5, 6, n - 1).astype(float)
            q = n0_element(u, v)
            assert rank_estimate(q) == rank_fraction(q) <= 2

    # np.linalg.svd(w, compute_uv=False) is the reference: the same LAPACK
    # dgesdd behind numpy's public wrapper.  scipy's pivoted QR (dgeqp3) is
    # an independent check of the count at the default threshold; (136, 140)
    # lies past LAPACK's blocked crossovers (min(m, n) > 128).
    @pytest.mark.parametrize(
        "shape",
        [(1, 9), (9, 1), (2, 2), (10, 10), (40, 40), (64, 68), (136, 140)],
        ids=lambda shape: "x".join(map(str, shape)),
    )
    def test_rank_matches_pivoted_qr_reference(self, shape):
        m, n = shape
        rng = np.random.default_rng(m * 1000 + n)
        mats = [np.zeros(shape)]
        for r in (1, 2, 3):
            a = rng.integers(-5, 6, (m, r)).astype(float)
            mats.append(a @ rng.integers(-5, 6, (r, n)).astype(float))
        if min(shape) >= 2:
            mats += [n2_generate(m, n, seed)[0] for seed in range(2)]
        # scipy's pivots first: alternating the two libraries' OpenBLAS thread
        # pools makes each wait for the other's spinning threads.
        qr_pivots = [np.diag(scipy.linalg.qr(w, mode="r", pivoting=True)[0]) for w in mats]
        for w, pivots in zip(mats, qr_pivots):
            sv = np.linalg.svd(w, compute_uv=False)
            thresh = DEFAULT_TOL.rel_tol * float(np.max(np.abs(w)))
            expected = int(np.count_nonzero(sv > thresh))
            assert _rank(w, thresh) == rank_estimate(w) == expected
            assert expected == np.count_nonzero(np.abs(pivots) > thresh)
            # The count at a reference singular value and one ulp below it
            # matches only if that value agrees bit for bit; sample 8 of them.
            if w.any():
                for s in sv[:: max(1, sv.size // 8)]:
                    for t in (s, np.nextafter(s, -np.inf)):
                        assert _rank(w, t) == np.count_nonzero(sv > t)

    def test_rank2_verdict_matches_pivoted_qr(self):
        # scipy's dgeqp3 as an independent reference for the membership
        # test's rank <= 2 decision, on every kernel family and on generic
        # rank-3 products, over the 2..10 grid.
        rng = np.random.default_rng(21)
        for m in range(2, 11):
            for n in range(2, 11):
                for _ in range(20):
                    mats = [
                        n0_element(rng.standard_normal(m - 1), rng.standard_normal(n - 1)),
                        n2_generate(m, n, int(rng.integers(2**32)))[0],
                        rng.standard_normal((m, 3)) @ rng.standard_normal((3, n)),
                    ]
                    if m == n >= 3:
                        mats.append(m2_element(rng.standard_normal(n - 2), rng.uniform(0.5, 2)))
                    for w in mats:
                        thresh = DEFAULT_TOL.rel_tol * float(np.max(np.abs(w)))
                        pivots = np.diag(scipy.linalg.qr(w, mode="r", pivoting=True)[0])
                        want = np.count_nonzero(np.abs(pivots) > thresh) <= 2
                        assert (_rank(w, thresh) <= 2) == want, (m, n)

    # numpy's SVD gufunc reports a dgesdd failure (info > 0) as NaN output,
    # or as the FloatingPointError that np.seterr(invalid="raise") makes of
    # its invalid-value signal; a NaN must not read as a low rank.
    def test_svd_failure_is_reported(self, monkeypatch):
        def nan_output(a, **_):
            return np.full(min(a.shape), np.nan)

        def raises(a, **_):
            raise FloatingPointError("invalid value encountered in svd")

        w = n2_generate(5, 7, 1)[0]
        for fake in (nan_output, raises):
            monkeypatch.setattr(core, "_svd", fake)
            for check in (rank_estimate, is_in_rank2_nullspace, classify):
                with pytest.raises(RankError, match="did not converge"):
                    check(w)

    def test_svd_failure_under_warnings_as_errors(self, monkeypatch):
        # With RuntimeWarning an error, the invalid-value signal raises it
        # from the gufunc call instead of returning the NaN output.
        def warns(a, **_):
            warnings.warn("invalid value encountered in svd", RuntimeWarning, stacklevel=2)
            return np.full(min(a.shape), np.nan)

        monkeypatch.setattr(core, "_svd", warns)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RankError, match="did not converge"):
                rank_estimate(np.eye(3))

    def test_rank_near_float64_limit(self):
        # Unscaled, dgeqp3's Householder steps overflow here and every
        # pivot counted: full((3, 3), 1e308) read as rank 3.
        for shape in [(2, 2), (3, 3), (10, 11), (11, 10)]:
            w = np.full(shape, 1e308)
            assert rank_estimate(w) == 1
            w[0, 0] = -1.7e308
            assert rank_estimate(w) == 2


# Every kind of JSON value one position of a file can hold.
JSON_ATOMS = [1, 1.5, -0.0, 10**400, True, False, None, "1", [], {}, [1.0]]


def _number(atom):
    return type(atom) in (int, float)  # JSON's true and false are no numbers


def _finite(atom):
    return _number(atom) and abs(atom) <= sys.float_info.max  # 10**400 reads as inf


def _one(atom):
    return _number(atom) and atom == 1


def _pair_json(x_alt_entry, residual):
    pair = shift_ambiguity([1.0, 0.0], [0.0, 2.0]).to_json()
    pair["x_alt"]["entries"][0] = x_alt_entry
    return {**pair, "residual": residual}


# Each reader with atoms in its slots, and the rule each slot's atom must pass.
JSON_SLOTS = {
    "signal": (lambda a, b: (signal_from_json, {"len": 2, "entries": [a, b]}), (_finite,) * 2),
    "matrix-1x2": (
        lambda a, b: (matrix_from_json, {"m": 1, "n": 2, "entries": [[a, b]]}), (_finite,) * 2
    ),
    "matrix-2x1": (
        lambda a, b: (matrix_from_json, {"m": 2, "n": 1, "entries": [[a], [b]]}), (_finite,) * 2
    ),
    "pair": (lambda a, b: (AmbiguousPair.from_json, _pair_json(a, b)), (_finite, _number)),
    "n0-u": (
        lambda a, b: (certificate_from_json, {"kind": "n0", "u": [a, b], "v": [1.0]}),
        (_finite,) * 2,
    ),
    "m2-lambda": (
        lambda a: (certificate_from_json, {"kind": "m2", "u": [1.0], "lambda": a}),
        (lambda atom: _finite(atom) and atom != 0,),
    ),
    "len": (lambda a: (signal_from_json, {"len": a, "entries": [1.0]}), (_one,)),
    "m": (lambda a: (matrix_from_json, {"m": a, "n": 1, "entries": [[1.0]]}), (_one,)),
    "n": (lambda a: (matrix_from_json, {"m": 1, "n": a, "entries": [[1.0]]}), (_one,)),
}


class TestJson:
    def test_signal_round_trip(self):
        x = as_signal([1.5, -2.0, 0.0])
        obj = signal_to_json(x)
        assert obj == {"len": 3, "entries": [1.5, -2.0, 0.0]}
        assert np.array_equal(signal_from_json(json.loads(json.dumps(obj))), x)

    def test_matrix_round_trip(self):
        w = as_matrix([[1.0, 2.0], [3.0, 4.0]])
        obj = matrix_to_json(w)
        assert obj["m"] == 2 and obj["n"] == 2
        assert np.array_equal(matrix_from_json(obj), w)

    def test_signal_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            signal_from_json({"len": 4, "entries": [1.0, 2.0]})

    def test_matrix_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_json({"m": 3, "n": 2, "entries": [[1.0, 2.0]]})

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError):
            signal_from_json({"entries": [1.0]})
        with pytest.raises(ValueError):
            matrix_from_json({"entries": [[1.0]]})

    # int() would read 1.5 and True as 1 and "1" as 1, and refuse [1] with
    # a bare TypeError; an integral float such as 1.0 is an exact integer.
    NOT_INTEGERS = [[1], 1.5, True, "1", None, float("inf"), float("nan")]

    @pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
    def test_signal_len_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match='signal JSON "len" must be an integer'):
            signal_from_json({"len": value, "entries": [1.0]})
        assert signal_from_json({"len": 1.0, "entries": [1.0]}).tolist() == [1.0]

    @pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
    @pytest.mark.parametrize("field", ["m", "n"])
    def test_matrix_dims_must_be_integers(self, field, value):
        obj = {"m": 1, "n": 1, "entries": [[1.0]]}
        with pytest.raises(ValueError, match=f'matrix JSON "{field}" must be an integer'):
            matrix_from_json({**obj, field: value})
        assert matrix_from_json({**obj, field: 1.0}).tolist() == [[1.0]]

    @pytest.mark.parametrize("reader", sorted(JSON_SLOTS))
    def test_json_atoms_are_accepted_iff_real_numbers(self, reader):
        # JSON holds ints, floats, bools, null, strings, lists and objects, so
        # putting each of them in each slot pins every verdict of the readers.
        build, rules = JSON_SLOTS[reader]
        for atoms in itertools.product(JSON_ATOMS, repeat=len(rules)):
            load, obj = build(*atoms)
            obj = json.loads(json.dumps(obj))
            if all(rule(atom) for rule, atom in zip(rules, atoms)):
                load(obj)
            else:
                with pytest.raises(ValueError):
                    load(obj)
