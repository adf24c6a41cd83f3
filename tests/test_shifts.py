"""Weight sequences, shifts, their action on block vectors, and norm profiles."""

import tracemalloc

import numpy as np
import pytest

import shiftlab as sl

from conftest import dense_section, ei_shift, random_invertible, s_val

I2 = np.eye(2, dtype=complex)


def two_by_two(a, b, c, d):
    return np.array([[a, b], [c, d]], dtype=complex)


class TestWeightSequences:
    def test_periodic_negative_index(self):
        w0, w1 = np.diag([1.0, 2.0]), np.diag([3.0, 4.0])
        seq = sl.PeriodicWeights([w0, w1])
        np.testing.assert_allclose(seq.weight_at(-3), w1)

    def test_periodic_wraparound_invariant(self, rng):
        mats = [random_invertible(rng) for _ in range(3)]
        seq = sl.PeriodicWeights(mats)
        for n in range(-7, 8):
            np.testing.assert_allclose(seq.weight_at(n + 3), seq.weight_at(n))

    def test_eventually_identity_tail(self):
        seq = sl.EventuallyIdentityWeights(0, [np.diag([2.0, 2.0]), 3 * I2])
        np.testing.assert_allclose(seq.weight_at(7), I2)
        np.testing.assert_allclose(seq.weight_at(-1), I2)
        np.testing.assert_allclose(seq.weight_at(1), 3 * I2)

    def test_windowed_out_of_range(self):
        seq = sl.WindowedWeights(0, [I2, I2])
        with pytest.raises(sl.WindowAccessError):
            seq.weight_at(2)
        assert not seq.has_index(2)
        assert seq.has_index(1)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(sl.DimensionError):
            sl.PeriodicWeights([I2, np.eye(3)])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            sl.PeriodicWeights([np.array([[np.nan, 0], [0, 1]])])

    def test_reindex(self):
        seq = sl.EventuallyIdentityWeights(0, [2 * I2, 3 * I2])
        moved = sl.reindex_weights(seq, 3)
        np.testing.assert_allclose(moved.weight_at(-3), 2 * I2)
        np.testing.assert_allclose(moved.weight_at(-2), 3 * I2)
        np.testing.assert_allclose(moved.weight_at(0), I2)


class TestBilateralShift:
    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            sl.BilateralShift(sl.WindowedWeights(0, [I2, 0 * I2]))

    def test_quasi_invertible_flag(self):
        good = sl.BilateralShift(sl.PeriodicWeights([two_by_two(1, 1, -1, 1)]))
        assert good.quasi_invertible
        bad = sl.BilateralShift(
            sl.WindowedWeights(0, [np.diag([1.0, 1e-14])]))
        assert not bad.quasi_invertible


class TestApplyShift:
    """A shift acts on block vectors as the band at offset -1 of its dense
    section: ``(S x)_n = S_n x_{n-1}``."""

    @staticmethod
    def apply(shift, x, lo):
        """S x for the (N, d) blocks x on rows lo.., through the section."""
        m = dense_section(sl.single_band(-1, shift.weights), lo, lo + len(x) - 1)
        return (m @ x.ravel()).reshape(x.shape)

    def test_identity_weights_shift_support(self):
        f = sl.BilateralShift(sl.identity_weights(2))
        x = np.zeros((3, 2))
        x[1, 1] = 1.0                                   # e_1 at index 0 of [-1, 1]
        y = self.apply(f, x, -1)
        np.testing.assert_array_equal(y, np.roll(x, 1, axis=0))

    def test_known_pair_first_basis_vector(self):
        s = sl.load_example("ex31").shifts["S"]
        x = np.zeros((2, 2))
        x[0, 0] = 1.0                                   # e_0 at index 0 of [0, 1]
        y = self.apply(s, x, 0)
        np.testing.assert_allclose(y[1], [1.0, -1.0], atol=1e-14)

    def test_support_shift_and_norm_bound(self, rng):
        s = ei_shift(rng, dim=2, lo=-1, length=4)
        x = np.zeros((7, 2), dtype=complex)            # rows -3..3, support -2..2
        x[1:6] = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        y = self.apply(s, x, -3)
        np.testing.assert_array_equal(y[:2], 0)
        assert np.abs(y[2:]).max() > 0
        bound = max(sl.weight_norm_profile(s, -1, 3))
        assert np.linalg.norm(y) <= bound * np.linalg.norm(x) + 1e-12

    def test_matches_the_row_products(self, rng):
        # rows past a windowed sequence's stored range hold zero blocks
        s = sl.BilateralShift(sl.WindowedWeights(-3, [random_invertible(rng) for _ in range(8)]))
        x = rng.standard_normal((12, 2)) + 1j * rng.standard_normal((12, 2))
        y = self.apply(s, x, -5)
        for n in range(-5, 7):
            expected = s.weight(n) @ x[n - 1 + 5] if s.weights.has_index(n) else np.zeros(2)
            np.testing.assert_allclose(y[n + 5], expected, atol=1e-14)


class TestNormProfile:
    def test_identity_weights(self):
        f = sl.BilateralShift(sl.identity_weights(2))
        assert sl.weight_norm_profile(f, -3, 3) == [1.0] * 7

    def test_known_pair_plateaus(self):
        ex = sl.load_example("ex31")
        s, t = ex.shifts["S"], ex.shifts["T"]
        sqrt2 = np.sqrt(2.0)
        s_norms = sl.weight_norm_profile(s, -10, 10)
        for v, n in zip(s_norms, range(-10, 11)):
            assert abs(v - sqrt2 * abs(s_val(n))) < 1e-12
        maximal_s = [n for v, n in zip(s_norms, range(-10, 11))
                     if abs(v - sqrt2) < 1e-12]
        assert maximal_s == [-1, 0, 1]
        t_norms = sl.weight_norm_profile(t, -10, 10)
        maximal_t = [n for v, n in zip(t_norms, range(-10, 11))
                     if abs(v - sqrt2) < 1e-12]
        assert maximal_t == [-2, -1, 0, 1, 2]

    def test_windowed_access_error(self):
        s = sl.BilateralShift(sl.WindowedWeights(0, [I2]))
        with pytest.raises(sl.WindowAccessError):
            sl.weight_norm_profile(s, 0, 1)


def _three_variants(rng, dim=2, lo=-2, length=4):
    mats = [random_invertible(rng, dim) for _ in range(length)]
    return [sl.PeriodicWeights(mats), sl.EventuallyIdentityWeights(lo, mats),
            sl.WindowedWeights(lo, mats)]


# the eventually-identity and windowed variants above store rows -2 .. 1
ROW_RANGES = {
    "inside": (-1, 0),
    "whole-span": (-2, 1),
    "straddling-lo": (-5, -1),
    "straddling-hi": (0, 6),
    "covering": (-9, 9),
    "below": (-12, -6),
    "above": (4, 11),
    "one-row": (1, 1),
    "empty": (3, 2),
    "negative": (-17, -3),
}


class TestRows:
    @pytest.mark.parametrize("name", ROW_RANGES)
    def test_rows_match_weight_at(self, rng, name):
        lo, hi = ROW_RANGES[name]
        for seq in _three_variants(rng):
            stack, present = seq.rows(lo, hi)
            count = max(hi - lo + 1, 0)
            assert stack.shape == (count, 2, 2) and stack.dtype == complex
            assert present.shape == (count,) and present.dtype == bool
            for n, w, has in zip(range(lo, hi + 1), stack, present):
                assert has == seq.has_index(n)
                expected = seq.weight_at(n) if has else np.zeros((2, 2))
                np.testing.assert_array_equal(w, expected)

    def test_periodic_rows_wrap_at_negative_indices(self):
        mats = [k * I2 for k in (1.0, 2.0, 3.0)]
        stack, present = sl.PeriodicWeights(mats).rows(-4, 1)
        assert present.all()
        # -4 mod 3 = 2, then 0, 1, 2, 0, 1
        np.testing.assert_array_equal(stack[:, 0, 0], [3, 1, 2, 3, 1, 2])

    def test_periodic_rows_longer_than_the_range(self, rng):
        seq = sl.PeriodicWeights([random_invertible(rng) for _ in range(7)])
        stack, _ = seq.rows(-9, -7)
        for n, w in zip(range(-9, -6), stack):
            np.testing.assert_array_equal(w, seq.weight_at(n))

    def test_rows_are_a_copy(self, rng):
        for seq in _three_variants(rng):
            before = seq.weight_at(0).copy()
            stack, _ = seq.rows(-3, 3)
            stack[:] = 7.0
            np.testing.assert_array_equal(seq.weight_at(0), before)

    def test_described_items_follow_rows(self, rng):
        for seq in _three_variants(rng):
            stack, _ = seq.rows(seq.lo, seq.hi)
            items = seq.described_items()
            assert [n for n, _ in items] == list(range(seq.lo, seq.hi + 1))
            for (_, w), row in zip(items, stack):
                np.testing.assert_array_equal(w, row)


CONSTRUCTORS = {
    "periodic": lambda mats: sl.PeriodicWeights(mats),
    "eventually_identity": lambda mats: sl.EventuallyIdentityWeights(-1, mats),
    "windowed": lambda mats: sl.WindowedWeights(-1, mats),
}
BAD_WEIGHT_LISTS = {
    "empty": ([], ValueError),
    "non-square": ([np.ones((2, 3))], sl.DimensionError),
    "later-non-square": ([I2, np.ones((2, 3))], sl.DimensionError),
    "unequal": ([I2, np.eye(3)], sl.DimensionError),
    "vector": ([np.ones(2)], sl.DimensionError),
    "stack": ([np.ones((2, 2, 2))], sl.DimensionError),
    "zero-size": ([np.ones((0, 0))], sl.DimensionError),
    "nan": ([I2, np.array([[np.nan, 0], [0, 1]])], ValueError),
    "inf": ([np.array([[1, 0], [0, np.inf]])], ValueError),
    "complex-inf": ([np.array([[1, complex(0, np.inf)], [0, 1]])], ValueError),
}


class TestConstruction:
    @pytest.mark.parametrize("variant", CONSTRUCTORS)
    @pytest.mark.parametrize("case", BAD_WEIGHT_LISTS)
    def test_error_types(self, variant, case):
        mats, error = BAD_WEIGHT_LISTS[case]
        with pytest.raises(error):
            CONSTRUCTORS[variant](mats)

    def test_shape_error_names_the_weight(self):
        with pytest.raises(sl.DimensionError, match="weight 2"):
            sl.WindowedWeights(0, [I2, I2, np.eye(3)])

    @pytest.mark.parametrize("variant", CONSTRUCTORS)
    def test_complex_arrays_are_kept_not_copied(self, rng, variant):
        mats = [random_invertible(rng) for _ in range(3)]
        seq = CONSTRUCTORS[variant](mats)
        assert all(w is m for (_, w), m in zip(seq.described_items(), mats))

    def test_real_and_nested_list_input_is_converted(self):
        seq = sl.WindowedWeights(0, [np.eye(2), [[0, 1], [1, 0]]])
        assert seq.dim == 2
        assert seq.weight_at(1).dtype == complex
        np.testing.assert_array_equal(seq.weight_at(1), [[0, 1], [1, 0]])

    def test_long_window_of_repeated_matrices_stays_small(self):
        m = np.eye(4, dtype=complex)
        copy_bytes = 10_000 * m.nbytes          # one stacked (10^4, 4, 4) copy
        tracemalloc.start()
        try:
            seq = sl.WindowedWeights(0, [m] * 10_000)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert seq.hi == 9_999
        assert peak < copy_bytes / 4 and kept < copy_bytes / 4


#: A (N, d, d) array given in place of a list, and the error it raises.
BAD_STACKS = {
    "empty": (np.zeros((0, 2, 2), dtype=complex), ValueError),
    "non-square": (np.ones((3, 2, 3), dtype=complex), sl.DimensionError),
    "zero-size": (np.ones((3, 0, 0), dtype=complex), sl.DimensionError),
    "nan": (np.stack([I2, np.diag([np.nan, 1.0])]), ValueError),
    "complex-inf": (np.stack([I2, np.diag([complex(0, np.inf), 1.0])]), ValueError),
}


class TestStackHeldSequences:
    """A sequence given one complex (N, d, d) array holds that array as its
    stored rows and its table; it reads as the sequence of its rows."""

    @staticmethod
    def pair(rng, variant, dim=3, length=5):
        stack = rng.standard_normal((length, dim, dim)) + 1j * rng.standard_normal(
            (length, dim, dim))
        return stack, CONSTRUCTORS[variant](stack), CONSTRUCTORS[variant](list(stack.copy()))

    @pytest.mark.parametrize("variant", CONSTRUCTORS)
    def test_holds_the_array_given(self, rng, variant):
        stack, held, _ = self.pair(rng, variant)
        assert held._weights is stack and held._distinct is stack
        assert all(np.shares_memory(w, stack) for _, w in held.described_items())

    @pytest.mark.parametrize("variant", CONSTRUCTORS)
    def test_reads_as_the_list_built_sequence(self, rng, variant):
        _, held, listed = self.pair(rng, variant)
        assert (held.lo, held.hi, held.dim) == (listed.lo, listed.hi, listed.dim)
        assert [(n, w.tobytes()) for n, w in held.described_items()] == [
            (n, w.tobytes()) for n, w in listed.described_items()]
        for moved in (0, 3, -2):
            a, b = (sl.reindex_weights(seq, moved) for seq in (held, listed))
            for lo, hi in ROW_RANGES.values():
                (got, got_has), (want, want_has) = a.rows(lo, hi), b.rows(lo, hi)
                assert got.tobytes() == want.tobytes()
                assert got_has.tolist() == want_has.tolist()
                for n, has in zip(range(lo, hi + 1), want_has):
                    if has:
                        assert a.weight_at(n).tobytes() == b.weight_at(n).tobytes()
                got, _ = a.singular_values().gather(lo, hi, lambda table: table)
                want, _ = b.singular_values().gather(lo, hi, lambda table: table)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("variant", CONSTRUCTORS)
    def test_an_edit_in_place_is_read_again(self, rng, variant):
        stack, held, _ = self.pair(rng, variant)
        n = held.lo + 1                                   # the row stack[1] holds
        shift = sl.BilateralShift(held)
        before = sl.weight_norm_profile(shift, n, n)[0]
        stack[1] *= 2.0
        np.testing.assert_array_equal(held.rows(n, n)[0][0], stack[1])
        after = sl.weight_norm_profile(shift, n, n)[0]
        assert after == float(np.linalg.svd(stack[1], compute_uv=False)[0])
        assert after == pytest.approx(2.0 * before, rel=1e-14)

    @pytest.mark.parametrize("variant", CONSTRUCTORS)
    def test_rows_are_a_copy(self, rng, variant):
        stack, held, _ = self.pair(rng, variant)
        kept = stack.copy()
        rows, _ = held.rows(-3, 6)
        rows[:] = 7.0
        assert stack.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("variant", CONSTRUCTORS)
    def test_a_zero_row_is_named(self, rng, variant):
        stack, held, _ = self.pair(rng, variant)
        stack[3] = 0.0
        with pytest.raises(ValueError, match=f"at index {held.lo + 3} is zero"):
            sl.BilateralShift(CONSTRUCTORS[variant](stack))

    @pytest.mark.parametrize("variant", CONSTRUCTORS)
    @pytest.mark.parametrize("case", BAD_STACKS)
    def test_error_types(self, variant, case):
        stack, error = BAD_STACKS[case]
        with pytest.raises(error):
            CONSTRUCTORS[variant](stack)

    def test_a_real_stack_is_converted(self):
        seq = sl.WindowedWeights(0, np.stack([np.eye(2), [[0.0, 1.0], [1.0, 0.0]]]))
        assert seq.weight_at(1).dtype == complex
        np.testing.assert_array_equal(seq.weight_at(1), [[0, 1], [1, 0]])
