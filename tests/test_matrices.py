"""Matrix predicates and decompositions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftlab as sl
from shiftlab.matrices import (
    condition_ratio,
    frob,
    frob_norms,
    herm,
    is_normal,
    operator_norm,
)

from conftest import random_matrix, random_unitary

I2 = np.eye(2)
SQ2 = np.sqrt(2.0)
PROJ_A = 0.5 * np.array([[1, -1j], [1j, 1]])


class TestTolerance:
    def test_defaults(self):
        tol = sl.Tolerance()
        assert tol.rel == 1e-10 and tol.abs == 1e-12

    def test_negative_rejected(self):
        # non-finite components are rejected with the negative ones
        for value in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                sl.Tolerance(rel=value)
            with pytest.raises(ValueError):
                sl.Tolerance(abs=value)

    def test_close_uses_both_parts(self):
        tol = sl.Tolerance(rel=0.0, abs=1e-3)
        assert tol.close(np.zeros((2, 2)), 1e-4 * I2)
        assert not tol.close(np.zeros((2, 2)), I2)

    def test_overflowed_residual_never_passes(self):
        # the Frobenius norm squares, so the residual 2e200 and the scale
        # 1e200 both overflow to inf
        assert not sl.DEFAULT_TOL.close([[1e200]], [[-1e200]])
        assert sl.DEFAULT_TOL.close([[1e200]], [[1e200]])
        tol = sl.Tolerance()
        assert list(tol.accepts(np.array([0.0, 1.0, math.inf, math.nan]), math.inf)) \
            == [True, False, False, False]
        assert not tol.accepts(math.nan, 1.0) and not tol.accepts(math.inf, 1.0)

    def test_close_rescales_norms_that_overflow(self):
        # the difference (about 1.7e184) and both norms overflow when squared
        assert sl.DEFAULT_TOL.close([[1e200]], [[np.nextafter(1e200, np.inf)]])
        assert not sl.DEFAULT_TOL.close([[1e200]], [[1.5e200]])

    def test_overflowed_gap_refutes_nothing(self):
        tol = sl.Tolerance()
        assert list(tol.refutes(np.array([0.0, 1.0, math.inf, math.nan]), 1.0)) \
            == [False, True, False, False]
        assert not tol.refutes(1.0, math.inf)


class TestPolarDecompose:
    def test_identity(self):
        w, p = sl.polar_decompose(I2)
        np.testing.assert_allclose(w, I2, atol=1e-14)
        np.testing.assert_allclose(p, I2, atol=1e-14)

    def test_rotation_like_block(self):
        # M*M = 2I forces P = sqrt(2) I and W = M / sqrt(2)
        m = np.array([[1, 1], [-1, 1]], dtype=complex)
        w, p = sl.polar_decompose(m)
        np.testing.assert_allclose(p, SQ2 * I2, atol=1e-12)
        np.testing.assert_allclose(w, m / SQ2, atol=1e-12)

    def test_scalar_phase(self):
        w, p = sl.polar_decompose(np.array([[-2.0]]))
        np.testing.assert_allclose(w, [[-1.0]], atol=1e-14)
        np.testing.assert_allclose(p, [[2.0]], atol=1e-14)

    def test_singular_input_still_gives_unitary_factor(self):
        m = np.array([[1.0, 0.0], [0.0, 0.0]])
        w, p = sl.polar_decompose(m)
        assert sl.is_unitary(w, sl.Tolerance(rel=1e-10, abs=1e-10))
        np.testing.assert_allclose(w @ p, m, atol=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(sl.DimensionError):
            sl.polar_decompose(np.ones((2, 3)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 5))
    def test_reconstruction_and_unitarity(self, seed, dim):
        m = random_matrix(np.random.default_rng(seed), dim)
        w, p = sl.polar_decompose(m)
        assert frob(herm(w) @ w - np.eye(dim)) < 1e-10
        assert frob(w @ p - m) < 1e-10 * max(frob(m), 1.0)
        evals = np.linalg.eigvalsh(p)
        assert evals.min() > -1e-12


class TestIsUnitary:
    def test_identity(self):
        assert sl.is_unitary(I2)

    def test_rotation(self):
        assert sl.is_unitary(np.array([[1, 1], [-1, 1]]) / SQ2)

    def test_projection_is_not(self):
        assert not sl.is_unitary(PROJ_A)


def _stack(kind, dim):
    """An (N, dim, dim) stack of the given kind."""
    rng = np.random.default_rng(dim)
    if kind == "random":
        return np.stack([random_matrix(rng, dim) for _ in range(5)])
    if kind == "singular":          # rank dim - 1; the zero matrix at dim 1
        mats = np.stack([random_matrix(rng, dim) for _ in range(4)])
        mats[:, :, -1] = 0.0
        return mats
    if kind == "zero":
        return np.zeros((3, dim, dim), dtype=complex)
    if kind == "empty":
        return np.zeros((0, dim, dim), dtype=complex)
    # one of each, with unitary and normal rows so the predicates also hold
    normal = random_unitary(rng, dim) @ np.diag(rng.uniform(0.5, 2.0, dim))
    normal = normal @ random_unitary(rng, dim)
    return np.stack([random_matrix(rng, dim), _stack("singular", dim)[0],
                     np.zeros((dim, dim)), random_unitary(rng, dim),
                     (normal + herm(normal)) / 2])


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["random", "singular", "zero", "empty", "mixed"])
class TestStacks:
    """On an (N, d, d) stack each predicate returns what the per-matrix calls
    return, matrix by matrix."""

    def test_norms_match_bitwise(self, kind, dim):
        stack = _stack(kind, dim)
        for func in (operator_norm, condition_ratio):
            got = func(stack)
            want = np.array([func(m) for m in stack], dtype=float)
            assert got.shape == (len(stack),)
            assert got.tobytes() == want.tobytes()

    def test_polar_factors_match_bitwise(self, kind, dim):
        stack = _stack(kind, dim)
        w, p = sl.polar_decompose(stack)
        assert w.shape == p.shape == stack.shape
        for i, m in enumerate(stack):
            wi, pi = sl.polar_decompose(m)
            assert w[i].tobytes() == wi.tobytes() and p[i].tobytes() == pi.tobytes()
        assert sl.nearest_unitary(stack).tobytes() == w.tobytes()

    def test_predicates_match(self, kind, dim):
        stack = _stack(kind, dim)
        tol = sl.DEFAULT_TOL
        other = stack + 1e-11 * np.roll(stack, 1, axis=0)
        for got, single in ((is_normal(stack, tol), lambda i: is_normal(stack[i], tol)),
                            (sl.is_unitary(stack, tol),
                             lambda i: sl.is_unitary(stack[i], tol)),
                            (tol.close(stack, other), lambda i: tol.close(stack[i], other[i]))):
            assert got.shape == (len(stack),)
            assert got.tolist() == [bool(single(i)) for i in range(len(stack))]

    def test_bound_is_elementwise(self, kind, dim):
        tol = sl.Tolerance(rel=1e-3, abs=1e-6)
        scales = np.linalg.norm(_stack(kind, dim), axis=(-2, -1))
        got = tol.bound(scales)
        assert got.shape == scales.shape
        assert got.tolist() == [tol.bound(x) for x in scales]


class TestStackInputs:
    def test_matrix_keeps_scalar_results(self, rng):
        m = random_matrix(rng, 3)
        assert type(operator_norm(m)) is float
        assert type(condition_ratio(m)) is float
        assert condition_ratio(np.zeros((2, 2))) == 0.0
        assert type(sl.DEFAULT_TOL.bound(2.0)) is float
        for value in (is_normal(m), sl.is_unitary(m), sl.DEFAULT_TOL.close(m, m)):
            assert isinstance(value, (bool, np.bool_)) and np.ndim(value) == 0
        w, p = sl.polar_decompose(m)
        assert w.shape == p.shape == (3, 3)

    @pytest.mark.parametrize("func", [condition_ratio, sl.polar_decompose,
                                      sl.nearest_unitary, is_normal, sl.is_unitary])
    def test_non_square_stack_rejected(self, func):
        with pytest.raises(sl.DimensionError):
            func(np.ones((4, 2, 3)))

    @pytest.mark.parametrize("func", [operator_norm, condition_ratio, sl.polar_decompose,
                                      sl.nearest_unitary, is_normal, sl.is_unitary])
    def test_nan_in_a_stack_rejected(self, func):
        stack = np.stack([np.eye(2)] * 3).astype(complex)
        stack[1, 0, 1] = complex(0.0, float("nan"))
        with pytest.raises(ValueError):
            func(stack)

    @pytest.mark.parametrize("shape", [(2,), (3, 0, 0), (2, 0)])
    def test_empty_or_vector_input_rejected(self, shape):
        with pytest.raises(sl.DimensionError):
            operator_norm(np.ones(shape))


class TestFrobNorms:
    def test_equals_numpy_without_overflow(self, rng):
        stack = np.stack([random_matrix(rng, 3) for _ in range(4)])
        assert np.array_equal(frob_norms(stack), np.linalg.norm(stack, axis=(-2, -1)))
        one = frob_norms(stack[0])
        assert isinstance(one, float) and one == np.linalg.norm(stack[0])

    def test_rescaled_only_where_squaring_overflows(self):
        stack = np.array([I2, 1e200 * I2, [[1e308 + 1e308j, 0], [0, 1e-300]],
                          [[math.inf, 0], [0, 1]]], dtype=complex)
        norms = frob_norms(stack)
        assert norms[0] == SQ2
        np.testing.assert_allclose(norms[1:3], [SQ2 * 1e200, SQ2 * 1e308], rtol=1e-15)
        assert norms[3] == math.inf
        assert frob_norms([[1e200, 0], [0, -1e200]]) == pytest.approx(SQ2 * 1e200, rel=1e-15)
