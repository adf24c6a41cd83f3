"""Banded operators: band conventions, intertwining, unitarity, structure."""

import dataclasses

import numpy as np
import pytest

import shiftlab as sl
from shiftlab.bands import _BLOCK_ROWS
from shiftlab.matrices import frob, herm

from conftest import (
    conjugated_shift,
    dense_section,
    ei_shift,
    multi_band_unitary,
    random_diag_unitary,
    random_invertible,
    random_matrix,
    random_unitary,
    two_band_unitary,
)

I2 = np.eye(2, dtype=complex)


def const_band(mat):
    return sl.PeriodicWeights([mat])


S2 = sl.BilateralShift(sl.PeriodicWeights([2.0 * I2]))
S3 = sl.BilateralShift(sl.PeriodicWeights([2.0 * np.eye(3)]))
SINGULAR2 = sl.BilateralShift(sl.PeriodicWeights([np.diag([1.0, 0.0])]))


@pytest.mark.parametrize("call, error, message", [
    (lambda: sl.BandedOperator({}), ValueError, "at least one band"),
    (lambda: sl.BandedOperator({0.0: const_band(I2)}), TypeError, "not an integer"),
    (lambda: sl.BandedOperator({0: I2}), TypeError, "not a WeightSequence"),
    (lambda: sl.BandedOperator({0: const_band(I2), 1: const_band(np.eye(3))}),
     sl.DimensionError, "band 1 has dim 3, expected 2"),
    (lambda: sl.verify_intertwining(sl.BandedOperator({0: const_band(I2)}), S2, S3, 0, 2),
     sl.DimensionError, "share the block dimension"),
    (lambda: sl.conjugate_to_shift(sl.BandedOperator({0: const_band(I2)}), S3, 0, 2),
     sl.DimensionError, "share the block dimension"),
    (lambda: sl.check_diagonal_propagation(sl.BandedOperator({0: const_band(I2)}),
                                           SINGULAR2, S2, 0, 2),
     sl.PreconditionError, "quasi-invertible"),
], ids=["no-bands", "float-offset", "bare-matrix-band", "unequal-dims",
        "intertwining-dims", "conjugation-dims", "not-quasi-invertible"])
def test_argument_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()


def _checks():
    return sl.verify_unitary_banded(sl.BandedOperator({0: const_band(I2)}), 0, 1).checks


@pytest.mark.parametrize("value, expected", [
    (lambda: repr(sl.BandedOperator({-1: const_band(I2), 1: const_band(I2)}, label="U")),
     "BandedOperator 'U'(offsets=(-1, 1), dim=2)"),
    (lambda: repr(sl.BandedOperator({0: const_band(I2)})), "BandedOperator(offsets=(0,), dim=2)"),
    (lambda: repr(sl.BilateralShift(sl.PeriodicWeights([I2, 2 * I2]), label="S")),
     "BilateralShift 'S'(PeriodicWeights(period=2, dim=2))"),
    (lambda: repr(sl.BilateralShift(sl.WindowedWeights(3, [np.eye(3)]))),
     "BilateralShift(WindowedWeights(lo=3, hi=3, dim=3))"),
    (lambda: repr(sl.EventuallyIdentityWeights(-1, [I2] * 3)),
     "EventuallyIdentityWeights(lo=-1, hi=1, dim=2)"),
    # records compare equal to lists of records only; a tuple falls back to identity
    (lambda: _checks().__eq__(tuple(_checks())), NotImplemented),
    (lambda: (_checks() == tuple(_checks()), _checks() == list(_checks())), (False, True)),
], ids=["operator-labelled", "operator", "periodic-shift", "windowed-shift",
        "eventually-identity", "records-eq-tuple", "records-compare"])
def test_reprs_and_record_comparisons(value, expected):
    assert value() == expected


class TestDiagonalForm:
    """F^k D on the dense section: F is the band at offset -1 filled with
    identities, and F^k D is the single band -k holding ``D_{i-k}`` at row i."""

    def test_zero_power_identity(self):
        np.testing.assert_array_equal(dense_section(sl.identity_operator(2), -3, 3),
                                      np.eye(14))

    def test_one_power_is_forward_shift(self):
        f = sl.single_band(-1, sl.identity_weights(2))
        np.testing.assert_array_equal(dense_section(f, -3, 3),
                                      np.kron(np.eye(7, k=-1), np.eye(2)))

    def test_plain_diagonal(self, rng):
        entries = [random_invertible(rng) for _ in range(3)]
        d = dense_section(sl.single_band(0, sl.WindowedWeights(0, entries)), -1, 3)
        expected = np.zeros((10, 10), dtype=complex)
        for n, w in enumerate(entries, 1):
            expected[2 * n:2 * n + 2, 2 * n:2 * n + 2] = w
        np.testing.assert_array_equal(d, expected)

    def test_composition_against_repeated_shift(self, rng):
        # the sections of F^k and D multiply exactly: a section of F^k loses
        # no entry of D that lands inside it
        diag = sl.PeriodicWeights([random_invertible(rng) for _ in range(3)])
        lo, hi = -5, 5
        f = dense_section(sl.single_band(-1, sl.identity_weights(2)), lo, hi)
        d = dense_section(sl.single_band(0, diag), lo, hi)
        for k in range(-2, 3):
            power = np.linalg.matrix_power(f if k >= 0 else f.conj().T, abs(k))
            band = sl.single_band(-k, sl.reindex_weights(diag, -k))
            np.testing.assert_allclose(power @ d, dense_section(band, lo, hi), atol=1e-14)


class TestApplyBanded:
    """A banded operator acts on block vectors through its dense section."""

    def test_two_band_on_basis_vector(self):
        u = sl.load_example("ex31").operators["U"]
        x = np.zeros(6, dtype=complex)
        x[2] = 1.0                               # e_0 at index 0 of [-1, 1]
        y = (dense_section(u, -1, 1) @ x).reshape(3, 2)
        np.testing.assert_allclose(y[0], u.band(1).weight_at(-1) @ x[2:4], atol=1e-14)
        np.testing.assert_array_equal(y[1], 0)
        np.testing.assert_allclose(y[2], u.band(-1).weight_at(1) @ x[2:4], atol=1e-14)

    def test_matches_the_entrywise_sum(self, rng):
        u = sl.BandedOperator({
            -1: sl.PeriodicWeights([random_matrix(rng) for _ in range(3)]),
            0: sl.EventuallyIdentityWeights(-2, [random_matrix(rng) for _ in range(4)]),
            2: sl.WindowedWeights(-20, [random_matrix(rng) for _ in range(40)])})
        lo, hi = -7, 4
        m = dense_section(u, lo, hi)
        for i in range(lo, hi + 1):
            for j in range(lo, hi + 1):
                block = m[(i - lo) * 2:(i - lo + 1) * 2, (j - lo) * 2:(j - lo + 1) * 2]
                expected = (u.band(j - i).weight_at(i) if j - i in u.offsets
                            else np.zeros((2, 2)))
                np.testing.assert_array_equal(block, expected)


class TestCheckRecords:
    def test_records_are_slotted(self):
        assert not hasattr(sl.ConditionCheck("c", 0, 0.0, True), "__dict__")
        assert not hasattr(sl.SkippedCheck("c", 0), "__dict__")

    def test_to_jsonable_lists_every_field(self, rng):
        u = two_band_unitary(rng, span=(-4, 4))
        rep = sl.verify_unitary_two_band(u, -6, 6)
        assert rep.checks and rep.skipped
        out = rep.to_jsonable()
        assert out["checks"] == [dataclasses.asdict(c) for c in rep.checks]
        assert out["skipped"] == [dataclasses.asdict(c) for c in rep.skipped]


class TestVerifyIntertwining:
    def test_identity_intertwines_equal_shifts(self, rng):
        s = ei_shift(rng)
        rep = sl.verify_intertwining(sl.identity_operator(2), s, s, -5, 5)
        assert rep.passed

    def test_overflowed_residual_fails(self):
        # |1e200 - (-1e200)| squared overflows, and so does the scale; both
        # norms are taken again after scaling, and 2e200 fails at scale 1e200
        s = sl.BilateralShift(sl.PeriodicWeights([1e200 * np.eye(1)]))
        t = sl.BilateralShift(sl.PeriodicWeights([-1e200 * np.eye(1)]))
        u = sl.identity_operator(1)
        rep = sl.verify_intertwining(u, s, t, 0, 3)
        assert not rep.passed and rep.max_residual == 2e200
        assert sl.verify_intertwining(u, s, s, 0, 3).passed

    @pytest.mark.parametrize("scale", [1e200, -1e200, 1e200j])
    def test_huge_weights_one_ulp_apart_pass(self, scale):
        # the residual (about 1.7e184) and the scale overflow when squared
        near = scale * np.nextafter(1.0, 2.0)
        s = sl.BilateralShift(sl.PeriodicWeights([scale * np.eye(1)]))
        t = sl.BilateralShift(sl.PeriodicWeights([near * np.eye(1)]))
        rep = sl.verify_intertwining(sl.identity_operator(1), s, t, 0, 3)
        assert rep.passed and rep.max_residual == abs(near - scale) > 1e180

    def test_forward_shift_reindexes(self, rng):
        # F S = T F exactly when T_n = S_{n-1}
        s = ei_shift(rng, lo=0, length=3)
        t = sl.BilateralShift(sl.reindex_weights(s.weights, -1))
        f = sl.single_band(-1, sl.identity_weights(2))
        assert sl.verify_intertwining(f, s, t, -5, 5).passed
        bad = sl.verify_intertwining(f, s, s, -5, 5)
        assert not bad.passed
        fail = bad.first_failure()
        assert fail.condition == "band-1"
        assert fail.index is not None

    def test_agrees_with_vector_application(self, rng):
        # the verdict matches comparing A(Sx) with T(Ax) on a dense section
        # wide enough that the support of x never reaches its edges
        lo, hi = -6, 6
        for trial in range(10):
            s = ei_shift(rng, lo=-1, length=3)
            if trial % 2:
                t, vat = conjugated_shift(rng, s, diagonal=True)
                a = sl.single_band(0, sl.WindowedWeights(
                    lo, [vat(n) for n in range(lo, hi + 1)]))
            else:
                t = ei_shift(rng, lo=-1, length=3, label="T")
                a = sl.single_band(0, sl.PeriodicWeights([random_diag_unitary(rng, 2)]))
            rep = sl.verify_intertwining(a, s, t, -4, 4)
            x = np.zeros((hi - lo + 1, 2), dtype=complex)
            x[-2 - lo:3 - lo] = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
            dense_a = dense_section(a, lo, hi)
            shift = {w: dense_section(sl.single_band(-1, w.weights), lo, hi) for w in (s, t)}
            lhs = (dense_a @ shift[s] @ x.ravel()).reshape(x.shape)
            rhs = (shift[t] @ dense_a @ x.ravel()).reshape(x.shape)
            assert rep.passed == sl.Tolerance(rel=1e-9, abs=1e-9).close(lhs, rhs)
            assert rep.passed == bool(trial % 2)

    def test_window_edges_skipped_not_failed(self, rng):
        s = sl.BilateralShift(
            sl.WindowedWeights(-2, [random_invertible(rng) for _ in range(5)]))
        rep = sl.verify_intertwining(sl.identity_operator(2), s, s, -3, 3)
        assert rep.passed
        assert {sk.index for sk in rep.skipped} == {-3, 3}


class TestDiagonalPropagation:
    def test_constant_bands_pass_with_shifts(self):
        ex = sl.load_example("ex31")
        s, t, u = ex.shifts["S"], ex.shifts["T"], ex.operators["U"]
        rep = sl.check_diagonal_propagation(u, s, t, lo=-8, hi=8)
        assert rep.passed
        assert rep.context["band_support"][1]["nonzero"] == 17

    def test_mixed_support_band_fails_structurally(self):
        u = sl.load_example("five-entry-block").operators["U"]
        rep = sl.check_diagonal_propagation(u, lo=-4, hi=4)
        assert not rep.passed
        fails = {c.condition for c in rep.failures()}
        assert fails == {"support[+2]", "support[-2]"}
        named = rep.first_failure()
        assert named.index in range(-4, 5)

    def test_scalar_contradiction_detected(self):
        # a diagonal with a punched-out entry cannot intertwine invertible
        # scalar shifts: the intertwining precondition itself fails
        entries = [1.0, 1.0, 0.0, 1.0, 1.0]
        a = sl.single_band(
            0, sl.WindowedWeights(-2, [np.array([[x]]) for x in entries]))
        f = sl.BilateralShift(sl.identity_weights(1))
        with pytest.raises(sl.PreconditionError) as err:
            sl.check_diagonal_propagation(a, f, f, lo=-2, hi=2)
        assert err.value.index is not None

    def test_requires_both_shifts_or_none(self, rng):
        u = sl.identity_operator(2)
        with pytest.raises(ValueError):
            sl.check_diagonal_propagation(u, ei_shift(rng), None, lo=0, hi=1)


class TestTwoBandUnitarity:
    def test_complementary_projections_pass(self):
        u = sl.load_example("ex31").operators["U"]
        rep = sl.verify_unitary_two_band(u, -10, 10)
        assert rep.passed and rep.max_residual < 1e-14

    def test_nilpotent_pair_passes(self):
        u = sl.load_example("ex33-two-band").operators["U"]
        assert sl.verify_unitary_two_band(u, -8, 8).passed

    def test_equal_bands_fail_orthogonality(self):
        r = 1 / np.sqrt(2.0)
        u = sl.BandedOperator({-1: const_band(r * I2), 1: const_band(r * I2)})
        rep = sl.verify_unitary_two_band(u, -3, 3)
        assert not rep.passed
        assert any(c.condition == "same_row_orthogonality" and not c.passed
                   for c in rep.checks)

    def test_band_count_enforced(self):
        with pytest.raises(sl.PreconditionError):
            sl.verify_unitary_two_band(sl.identity_operator(2), -2, 2)


class TestTwoBandStructure:
    def test_projection_bands(self):
        u = sl.load_example("ex31").operators["U"]
        assert sl.check_two_band_structure(u, -8, 8).passed

    def test_non_projection_partial_isometries(self):
        u = sl.load_example("ex33-two-band").operators["U"]
        rep = sl.check_two_band_structure(u, -8, 8)
        assert rep.passed
        a = u.band(-1).weight_at(0)
        b = u.band(1).weight_at(0)
        tol = sl.DEFAULT_TOL
        for x in (a, b):
            # neither is an orthogonal projection (X* = X and X^2 = X)
            assert not (tol.close(x, herm(x)) and tol.close(x @ x, x))

    def test_scaled_band_breaks_precondition(self):
        u = sl.load_example("ex31").operators["U"]
        scaled = sl.BandedOperator({
            -1: const_band(2 * u.band(-1).weight_at(0)),
            1: const_band(u.band(1).weight_at(0)),
        })
        with pytest.raises(sl.PreconditionError):
            sl.check_two_band_structure(scaled, -3, 3)

    def test_random_two_band_unitaries_structure(self, rng):
        # structural consequences hold on randomly generated two-band
        # unitaries built from rank-complementary projections
        for _ in range(25):
            k1 = int(rng.integers(-2, 2))
            k2 = k1 + int(rng.integers(1, 3))
            u = two_band_unitary(rng, dim=int(rng.integers(2, 4)),
                                 k1=k1, k2=k2, span=(-6, 6))
            inner = 3
            assert sl.verify_unitary_two_band(u, -inner, inner).passed
            assert sl.check_two_band_structure(u, -inner, inner).passed


class TestThreeBandUnitarity:
    def test_known_three_band(self):
        u = sl.load_example("ex33-three-band").operators["U"]
        rep = sl.verify_unitary_three_band(u, -10, 10)
        assert rep.passed and rep.max_residual < 1e-12

    def test_middle_band_identity_only(self):
        zero = const_band(np.zeros((2, 2), dtype=complex))
        u = sl.BandedOperator({-1: zero, 0: const_band(I2), 1: zero})
        assert sl.verify_unitary_three_band(u, -4, 4).passed

    def test_overweight_rows_fail(self):
        r = 1 / np.sqrt(2.0)
        u = sl.BandedOperator({-1: const_band(r * I2), 0: const_band(I2),
                               1: const_band(r * I2)})
        rep = sl.verify_unitary_three_band(u, -3, 3)
        assert not rep.passed
        assert any(c.condition == "rows_identity" and not c.passed
                   for c in rep.checks)

    def test_wrong_band_pattern_rejected(self):
        u = sl.BandedOperator({0: const_band(I2), 2: const_band(0 * I2),
                               -2: const_band(0 * I2)})
        with pytest.raises(sl.PreconditionError):
            sl.verify_unitary_three_band(u, -2, 2)


class TestBandCountBound:
    def test_two_bands_on_c2(self):
        u = sl.load_example("ex31").operators["U"]
        rep = sl.check_band_count_bound(u, 2, -5, 5)
        assert rep.passed
        assert rep.context["effective_band_count"] == 2

    def test_identity_counts_one(self):
        rep = sl.check_band_count_bound(sl.identity_operator(2), 2, -3, 3)
        assert rep.passed
        assert rep.context["effective_band_count"] == 1

    def test_three_projection_bands_on_c2_fail(self):
        p1 = np.diag([1.0, 0.0]).astype(complex)
        p2 = np.diag([0.0, 1.0]).astype(complex)
        u = sl.BandedOperator({-1: const_band(p1), 0: const_band(p2),
                               1: const_band(p1)})
        rep = sl.check_band_count_bound(u, 2, -3, 3)
        assert not rep.passed
        assert rep.context["effective_band_count"] == 3
        assert any(c.condition == "projection_sum" and not c.passed
                   for c in rep.checks)

    def test_non_partial_isometry_entry_named(self):
        u = sl.BandedOperator({0: const_band(2 * I2)})
        with pytest.raises(sl.PreconditionError):
            sl.check_band_count_bound(u, 2, -2, 2)

    def test_resolution_family_respects_dimension(self, rng):
        # several bands built from an orthogonal resolution of the identity:
        # effective band count never exceeds the block dimension
        for _ in range(15):
            dim = int(rng.integers(2, 5))
            count = int(rng.integers(1, dim + 1))
            offsets = sorted(rng.choice(np.arange(-3, 4), size=count,
                                        replace=False).tolist())
            u = multi_band_unitary(rng, dim, offsets, span=(-7, 7))
            assert sl.verify_unitary_banded(u, -3, 3).passed
            rep = sl.check_band_count_bound(u, dim, -3, 3)
            assert rep.passed
            assert rep.context["effective_band_count"] <= dim


class TestConjugateToShift:
    def test_identity_returns_same_weights(self, rng):
        s = ei_shift(rng, lo=-1, length=3)
        res = sl.conjugate_to_shift(sl.identity_operator(2), s, -5, 5)
        assert res.is_shift
        for n in range(-4, 5):
            np.testing.assert_allclose(res.shift.weight(n), s.weight(n),
                                       atol=1e-12)

    def test_forward_shift_reindexes_weights(self, rng):
        s = ei_shift(rng, lo=0, length=3)
        res = sl.conjugate_to_shift(sl.single_band(-1, sl.identity_weights(2)), s, -5, 5)
        assert res.is_shift
        for n in range(-3, 4):
            np.testing.assert_allclose(res.shift.weight(n), s.weight(n - 1),
                                       atol=1e-12)

    def test_two_band_conjugation_gives_shift(self):
        ex = sl.load_example("ex33-two-band")
        u, s = ex.operators["U"], ex.shifts["S"]
        res = sl.conjugate_to_shift(u, s, -6, 6)
        assert res.is_shift
        # diagonal weights land on swapped coordinates of the neighbors
        for n in range(-4, 5):
            expected = np.diag([s.weight(n - 1)[1, 1], s.weight(n + 1)[0, 0]])
            np.testing.assert_allclose(res.shift.weight(n), expected,
                                       atol=1e-12)

    def test_round_trip_recovers_original(self):
        # U S U* = T with U unitary gives back S = U* T U, that is U S = T U
        ex = sl.load_example("ex33-two-band")
        u, s = ex.operators["U"], ex.shifts["S"]
        res = sl.conjugate_to_shift(u, s, -6, 6)
        assert res.is_shift
        rep = sl.verify_intertwining(u, s, res.shift, -4, 4)
        assert rep.passed and rep.checks and not rep.skipped

    def test_failure_reports_off_band_residuals(self, rng):
        # generic two-band unitary does not conjugate a generic diagonal
        # shift back to a shift
        u = two_band_unitary(rng, dim=2, k1=0, k2=1, span=(-10, 10))
        s = ei_shift(rng, lo=0, length=2)
        res = sl.conjugate_to_shift(u, s, -6, 6)
        if not res.is_shift:
            assert any(c.condition.startswith("off_band") and not c.passed
                       for c in res.report.checks)

    def test_non_unitary_rejected(self, rng):
        bad = sl.single_band(0, sl.PeriodicWeights([2 * I2]))
        with pytest.raises(sl.PreconditionError):
            sl.conjugate_to_shift(bad, ei_shift(rng), -3, 3)


class TestThreeBandStructuralTheorems:
    def test_spectral_premise_forces_zero_band(self, rng):
        # three-band pattern, unitary, conjugates a diagonal shift to a
        # shift, and the top band has 1 in the spectrum of C_n C_n* at two
        # adjacent rows: one band must vanish identically
        for _ in range(10):
            u, s = _three_band_premise_instance(rng)
            assert sl.verify_unitary_banded(u, -4, 4).passed
            c = u.band(1)
            for n in (0, 1):
                evc = np.linalg.eigvalsh(c.weight_at(n) @ herm(c.weight_at(n)))
                assert np.min(np.abs(evc - 1.0)) < 1e-10
            assert sl.conjugate_to_shift(u, s, -4, 4).is_shift
            zero_bands = [k for k in (-1, 0, 1)
                          if all(frob(u.band(k).weight_at(n)) < 1e-12
                                 for n in range(-4, 5))]
            assert zero_bands

    def test_known_three_band_dodges_spectral_premise(self):
        # all three bands nonzero and the conjugation is a shift, so the
        # spectral premise must fail: no eigenvalue of C_n C_n* equals 1
        u = sl.load_example("ex33-three-band").operators["U"]
        c = u.band(1)
        for n in range(-4, 5):
            evc = np.linalg.eigvalsh(c.weight_at(n) @ herm(c.weight_at(n)))
            assert np.min(np.abs(evc - 1.0)) > 0.4

    def test_small_middle_band_leaves_partial_isometry(self, rng):
        # rank(B_n) <= 1 throughout: at each row, the lower or the upper
        # band entry is a partial isometry
        for _ in range(10):
            u = _three_band_small_middle_instance(rng)
            a, b, c = u.band(-1), u.band(0), u.band(1)
            for n in range(-3, 4):
                rank_b = np.linalg.matrix_rank(b.weight_at(n), tol=1e-10)
                assert rank_b <= 1
                # partial isometry: X X* X = X
                assert any(sl.DEFAULT_TOL.close(x @ herm(x) @ x, x)
                           for x in (a.weight_at(n), c.weight_at(n)))


def _three_band_premise_instance(rng):
    """Two-band unitary padded to the three-band pattern, with a diagonal
    shift it conjugates to a shift; the nonzero extreme band has projection
    products with eigenvalue 1."""
    phases_a = np.exp(2j * np.pi * rng.random(2))
    phases_b = np.exp(2j * np.pi * rng.random(2))
    a_seq = sl.PeriodicWeights([np.array([[0, p], [0, 0]], dtype=complex)
                                for p in phases_a])
    c_seq = sl.PeriodicWeights([np.array([[0, 0], [p, 0]], dtype=complex)
                                for p in phases_b])
    zero = sl.PeriodicWeights([np.zeros((2, 2), dtype=complex)])
    u = sl.BandedOperator({-1: a_seq, 0: zero, 1: c_seq})
    d = [np.diag([1.0 + rng.random(), 1.0 + rng.random()]).astype(complex)
         for _ in range(2)]
    s = sl.BilateralShift(sl.PeriodicWeights(d))
    return u, s


def _three_band_small_middle_instance(rng):
    """Three-band pattern with rank-one middle band: one extreme band zero,
    the other split off by a rank-one projection."""
    p = np.diag([1.0, 0.0]).astype(complex)
    q = np.eye(2) - p
    v = [random_unitary(rng, 2) for _ in range(13)]

    def vat(n):
        return v[min(max(n, -6), 6) + 6]

    low = rng.random() < 0.5
    k_other = -1 if low else 1
    band_other = sl.WindowedWeights(
        -5, [p @ vat(n + k_other) for n in range(-5, 6)])
    band_mid = sl.WindowedWeights(-5, [q @ vat(n) for n in range(-5, 6)])
    zero = sl.PeriodicWeights([np.zeros((2, 2), dtype=complex)])
    bands = {0: band_mid, k_other: band_other, -k_other: zero}
    return sl.BandedOperator(bands)


# --- dense-matrix oracle for the windowed-condition engine -------------------

def block_norm(mat, lo, d, i, j):
    return np.linalg.norm(mat[(i - lo) * d:(i - lo + 1) * d, (j - lo) * d:(j - lo + 1) * d])


def with_perturbed_entry(rng, u, k, n, size=1e-3):
    """Copy of u, all bands windowed, with entry n of band k moved by ``size``."""
    bands = {}
    for kk in u.offsets:
        lo, hi = u.band(kk).described_range()
        bands[kk] = sl.WindowedWeights(lo, [
            u.band(kk).weight_at(i) + (size * random_matrix(rng, u.dim) if (kk, i) == (k, n) else 0)
            for i in range(lo, hi + 1)])
    return sl.BandedOperator(bands)


# (U U*)_{n+r, n+c} or (U* U)_{n+r, n+c} behind each named unitarity check
def two_band_blocks(k1, k2):
    k = k2 - k1
    return {"rows_identity": ("UU*", 0, 0), "same_row_orthogonality": ("U*U", k1, k2),
            "columns_identity": ("U*U", k2, k2), "staggered_orthogonality": ("UU*", k, 0)}


THREE_BAND_BLOCKS = {
    "rows_identity": ("UU*", 0, 0), "same_row_orthogonality": ("U*U", -1, 1),
    "gap_two_orthogonality": ("UU*", 0, 2), "gap_one_rows": ("UU*", 1, 0),
    "gap_one_columns": ("U*U", 0, 1), "columns_identity": ("U*U", 0, 0)}


def banded_block(name):
    side, d = name[:3], int(name[4:-1])
    return side, 0, d


def assert_unitarity_matches_dense(u, rep, block_of):
    reach = 2 * max(map(abs, u.offsets)) + 2
    lo, hi = rep.lo - reach, rep.hi + reach
    m = dense_section(u, lo, hi)
    eye = np.eye(m.shape[0])
    gram = {"UU*": m @ m.conj().T - eye, "U*U": m.conj().T @ m - eye}
    assert rep.checks
    for c in rep.checks:
        side, r, col = block_of(c.condition)
        expected = block_norm(gram[side], lo, u.dim, c.index + r, c.index + col)
        assert abs(c.residual - expected) <= 1e-12, (c, expected)


class TestEngineDenseOracle:
    """Every residual equals the Frobenius norm of the matching block of
    ``UU* - I``, ``U*U - I`` or ``AS - TA`` on a dense finite section."""

    @pytest.mark.parametrize("perturb", [False, True])
    def test_two_band(self, rng, perturb):
        for k1, k2 in ((-1, 1), (0, 2), (-2, -1)):
            u = two_band_unitary(rng, dim=3, k1=k1, k2=k2, span=(-14, 14))
            if perturb:
                u = with_perturbed_entry(rng, u, k1, 1)
            rep = sl.verify_unitary_two_band(u, -5, 5)
            assert rep.passed != perturb
            assert_unitarity_matches_dense(u, rep, two_band_blocks(k1, k2).get)
            assert_unitarity_matches_dense(u, sl.verify_unitary_banded(u, -5, 5),
                                           banded_block)

    @pytest.mark.parametrize("perturb", [False, True])
    def test_three_band(self, rng, perturb):
        u = multi_band_unitary(rng, 3, [-1, 0, 1], span=(-14, 14))
        if perturb:
            u = with_perturbed_entry(rng, u, 0, 2)
        rep = sl.verify_unitary_three_band(u, -5, 5)
        assert rep.passed != perturb
        assert_unitarity_matches_dense(u, rep, THREE_BAND_BLOCKS.get)
        assert_unitarity_matches_dense(u, sl.verify_unitary_banded(u, -5, 5),
                                       banded_block)

    @pytest.mark.parametrize("perturb", [False, True])
    def test_general_banded(self, rng, perturb):
        u = multi_band_unitary(rng, 4, [-2, 0, 1, 3], span=(-16, 16))
        if perturb:
            u = with_perturbed_entry(rng, u, 3, -1)
        rep = sl.verify_unitary_banded(u, -5, 5)
        assert rep.passed != perturb
        assert_unitarity_matches_dense(u, rep, banded_block)

    @pytest.mark.parametrize("perturb", [False, True])
    def test_diagonal_intertwiner(self, rng, perturb):
        for m in (-1, 0, 2):
            s = ei_shift(rng, lo=-2, length=5)
            t, vat = conjugated_shift(rng, s, m=m)
            a = sl.single_band(m, sl.WindowedWeights(-12, [vat(n) for n in range(-12, 13)]))
            if perturb:
                a = with_perturbed_entry(rng, a, m, 0)
            rep = sl.verify_intertwining(a, s, t, -5, 5)
            assert rep.passed != perturb
            lo, hi = -10, 10
            dense_a = dense_section(a, lo, hi)
            shift = {x: dense_section(sl.single_band(-1, x.weights), lo, hi) for x in (s, t)}
            defect = dense_a @ shift[s] - shift[t] @ dense_a
            for c in rep.checks:
                expected = block_norm(defect, lo, 2, c.index, c.index + m - 1)
                assert abs(c.residual - expected) <= 1e-12, (c, expected)

    def test_window_longer_than_a_block(self, rng):
        # storage ends past the first block, so checks and skips both cross
        # a block boundary; the order stays row by row
        hi, stored_hi = _BLOCK_ROWS + 8, _BLOCK_ROWS + 4
        full = two_band_unitary(rng, dim=2, k1=-1, k2=1, span=(-4, hi + 4))
        u = sl.BandedOperator({k: sl.WindowedWeights(-3, [
            full.band(k).weight_at(n) for n in range(-3, stored_hi + 1)]) for k in (-1, 1)})
        rep = sl.verify_unitary_two_band(u, 0, hi)

        def stored(n):
            return -3 <= n <= stored_hi

        checks, skipped = [], []
        for n in range(0, hi + 1):
            if stored(n):
                checks += [("rows_identity", n), ("same_row_orthogonality", n)]
            else:
                skipped.append(("rows_identity", n))
            if stored(n + 2):
                checks += [("columns_identity", n), ("staggered_orthogonality", n)]
            else:
                skipped.append(("columns_identity", n))
        assert [(c.condition, c.index) for c in rep.checks] == checks
        assert [(s.condition, s.index) for s in rep.skipped] == skipped
        assert rep.passed
        assert_unitarity_matches_dense(u, rep, two_band_blocks(-1, 1).get)
