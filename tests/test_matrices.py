"""Matrix predicates and decompositions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftlab as sl
from shiftlab.matrices import frob, herm

from conftest import random_matrix

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
