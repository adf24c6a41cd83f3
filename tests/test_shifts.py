"""Weight sequences, shifts, windowed vectors, and weight products."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftlab as sl
from shiftlab.matrices import frob, herm

from conftest import ei_shift, random_invertible, s_val

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
    def test_identity_weights_shift_support(self):
        f = sl.BilateralShift(sl.identity_weights(2))
        x = sl.WindowedVector.basis(2, 0, 1)
        y = sl.apply_shift(f, x)
        assert (y.lo, y.hi) == (1, 1)
        np.testing.assert_allclose(y.block(1), x.block(0))

    def test_known_pair_first_basis_vector(self):
        s = sl.load_example("ex31").shifts["S"]
        x = sl.WindowedVector.basis(2, 0, 0)
        y = sl.apply_shift(s, x)
        np.testing.assert_allclose(y.block(1), [1.0, -1.0], atol=1e-14)

    def test_zero_vector(self):
        f = sl.BilateralShift(sl.identity_weights(2))
        y = sl.apply_shift(f, sl.WindowedVector(0, np.zeros((3, 2))))
        assert y.norm() == 0.0

    def test_support_shift_and_norm_bound(self, rng):
        s = ei_shift(rng, dim=2, lo=-1, length=4)
        x = sl.WindowedVector(-2, rng.standard_normal((5, 2))
                              + 1j * rng.standard_normal((5, 2)))
        y = sl.apply_shift(s, x)
        assert (y.lo, y.hi) == (x.lo + 1, x.hi + 1)
        bound = max(sl.weight_norm_profile(s, x.lo + 1, x.hi + 1))
        assert y.norm() <= bound * x.norm() + 1e-12

    def test_dim_mismatch(self):
        f = sl.BilateralShift(sl.identity_weights(3))
        with pytest.raises(sl.DimensionError):
            sl.apply_shift(f, sl.WindowedVector.basis(2, 0, 0))


class TestWeightProducts:
    def test_single_factor(self, rng):
        s = ei_shift(rng, lo=0, length=3)
        np.testing.assert_allclose(sl.product_forward(s, 1, 1), s.weight(1))
        np.testing.assert_allclose(sl.product_backward_adjoint(s, 1, 1),
                                   herm(s.weight(0)))

    def test_identity_weights(self):
        f = sl.BilateralShift(sl.identity_weights(2))
        np.testing.assert_allclose(sl.product_forward(f, -4, 6), I2)
        np.testing.assert_allclose(sl.product_backward_adjoint(f, 3, 5), I2)

    def test_known_forward_product(self):
        s = sl.load_example("ex31").shifts["S"]
        np.testing.assert_allclose(sl.product_forward(s, 0, 2),
                                   two_by_two(0, 2, -2, 0), atol=1e-14)

    def test_known_backward_product(self):
        s = sl.load_example("ex31").shifts["S"]
        np.testing.assert_allclose(sl.product_backward_adjoint(s, 0, 2),
                                   two_by_two(0, -1, 1, 0), atol=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(-3, 3), st.integers(1, 5))
    def test_forward_recurrence(self, seed, m, n):
        s = ei_shift(np.random.default_rng(seed), lo=-2, length=5)
        left = sl.product_forward(s, m, n + 1)
        right = s.weight(m + n) @ sl.product_forward(s, m, n)
        assert frob(left - right) < 1e-12 * max(frob(left), 1.0)

    def test_backward_is_adjoint_of_reversed_forward(self, rng):
        for _ in range(20):
            s = ei_shift(rng, lo=-2, length=5)
            m = int(rng.integers(-2, 3))
            n = int(rng.integers(1, 5))
            direct = sl.product_backward_adjoint(s, m, n)
            via_forward = herm(sl.product_forward(s, m - n, n))
            np.testing.assert_allclose(direct, via_forward, atol=1e-12)

    def test_invalid_count(self, rng):
        s = ei_shift(rng)
        with pytest.raises(ValueError):
            sl.product_forward(s, 0, 0)


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
