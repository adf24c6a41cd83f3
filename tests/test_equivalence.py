"""Positive forms, screens, Gram chains, and the equivalence decision."""

import cmath

import numpy as np
import pytest

import shiftlab as sl
from shiftlab.matrices import frob, herm

from conftest import (
    conjugated_shift,
    ei_shift,
    perturb_one_singular_value,
    random_invertible,
    random_matrix,
    random_unitary,
    s_val,
)

I2 = np.eye(2, dtype=complex)


class TestPositiveForm:
    def test_identity_weights_fixed(self):
        s = sl.BilateralShift(sl.identity_weights(2))
        form = sl.positive_form(s, -3, 3)
        for n in range(-3, 4):
            np.testing.assert_allclose(form.shift.weight(n), I2, atol=1e-12)
        assert form.max_residual < 1e-12

    def test_scalar_weights_become_moduli(self, rng):
        vals = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        s = sl.BilateralShift(sl.WindowedWeights(
            -2, [np.array([[v]]) for v in vals]))
        form = sl.positive_form(s, -2, 2)
        for n, v in zip(range(-2, 3), vals):
            np.testing.assert_allclose(form.shift.weight(n), [[abs(v)]],
                                       atol=1e-12)

    def test_known_pair_scalar_positive_parts(self):
        # the positive parts are scalar multiples of the identity, so the
        # conjugation leaves them untouched
        s = sl.load_example("ex31").shifts["S"]
        form = sl.positive_form(s, -8, 8)
        for n in range(-8, 9):
            expected = np.sqrt(2.0) * abs(s_val(n)) * I2
            np.testing.assert_allclose(form.shift.weight(n), expected,
                                       atol=1e-12)

    def test_norms_preserved_and_positive(self, rng):
        for _ in range(10):
            s = ei_shift(rng, lo=-2, length=5)
            form = sl.positive_form(s, -4, 4)
            for n in range(-4, 5):
                tn = form.shift.weight(n)
                evals = np.linalg.eigvalsh(tn)
                assert evals.min() > 0.0
                assert abs(np.linalg.norm(tn, 2)
                           - np.linalg.norm(s.weight(n), 2)) < 1e-10

    def test_conjugation_verifies_as_intertwining(self, rng):
        s = ei_shift(rng, lo=0, length=4)
        form = sl.positive_form(s, -3, 6)
        rep = sl.verify_intertwining(form.diagonal, s, form.shift, -3, 6,
                                     sl.Tolerance(rel=1e-8, abs=1e-10))
        assert rep.passed

    def test_idempotent_up_to_machine_precision(self, rng):
        s = ei_shift(rng, lo=0, length=3)
        form = sl.positive_form(s, -2, 4)
        again = sl.positive_form(form.shift, -2, 4)
        for n in range(-2, 5):
            assert frob(again.shift.weight(n) - form.shift.weight(n)) < 1e-8

    def test_singular_weight_rejected(self):
        s = sl.BilateralShift(sl.WindowedWeights(0, [np.diag([1.0, 1e-13])]))
        with pytest.raises(sl.ConditioningError):
            sl.positive_form(s, 0, 0)


class TestNormOffsetScreen:
    def test_equal_shifts_contain_zero(self, rng):
        s = ei_shift(rng)
        assert 0 in sl.norm_offset_screen(s, s, -3, 3, -5, 5)

    def test_known_pair_is_empty(self):
        ex = sl.load_example("ex31")
        s, t = ex.shifts["S"], ex.shifts["T"]
        assert sl.norm_offset_screen(s, t, -8, 8, -4, 4) == set()

    def test_reindexed_copy_found_at_offset(self, rng):
        s = ei_shift(rng, lo=0, length=3)
        t = sl.BilateralShift(sl.reindex_weights(s.weights, 3))
        feasible = sl.norm_offset_screen(s, t, -5, 5, -8, 8)
        assert 3 in feasible


class TestEigenModuliScreen:
    def test_equal_shifts_pass(self, rng):
        s = ei_shift(rng)
        # weights need not be normal for s == t comparisons of moduli;
        # use diagonal (normal) weights
        s = sl.BilateralShift(sl.EventuallyIdentityWeights(
            0, [np.diag(rng.standard_normal(2) + 2.0).astype(complex)
                for _ in range(3)]))
        assert sl.eigen_moduli_screen(s, s, 0, -3, 5).passed

    def test_gap_pair_passes_at_zero(self):
        ex = sl.load_example("counterexample-sec2")
        s, t = ex.shifts["S"], ex.shifts["T"]
        assert sl.eigen_moduli_screen(s, t, 0, -3, 4).passed

    def test_spectrum_change_fails_at_index(self):
        ex = sl.load_example("counterexample-sec2")
        s, t = ex.shifts["S"], ex.shifts["T"]
        mats = [t.weight(0), np.diag([5.0, 2.0]).astype(complex)]
        t2 = sl.BilateralShift(sl.EventuallyIdentityWeights(0, mats))
        rep = sl.eigen_moduli_screen(s, t2, 0, -3, 4)
        assert not rep.passed
        assert rep.first_failure().index == 1

    def test_non_normal_weight_rejected(self):
        s = sl.BilateralShift(sl.EventuallyIdentityWeights(
            0, [np.array([[1.0, 1.0], [0.0, 1.0]])]))
        with pytest.raises(sl.PreconditionError) as err:
            sl.eigen_moduli_screen(s, s, 0, 0, 0)
        assert err.value.index == 0

    def test_dim_one_rejected(self):
        s = sl.BilateralShift(sl.identity_weights(1))
        with pytest.raises(sl.PreconditionError):
            sl.eigen_moduli_screen(s, s, 0, 0, 0)


class TestGramChains:
    def test_identity_weights_constant_chains(self):
        f = sl.BilateralShift(sl.identity_weights(2))
        chains = sl.gram_chains(f, f, 0, 0, 4)
        for chain in chains:
            for g in chain.matrices:
                np.testing.assert_allclose(g, I2, atol=1e-14)

    def test_depth_one_forward_gram(self, rng):
        s = ei_shift(rng, lo=-1, length=3)
        chains = sl.gram_chains(s, s, 2, 0, 1)
        np.testing.assert_allclose(chains.forward_s.matrices[0],
                                   herm(s.weight(2)) @ s.weight(2), atol=1e-13)

    def test_gram_equality_matches_vector_norms(self, rng):
        # A*A = B*B exactly when ||Ax|| = ||Bx|| for all x
        for _ in range(5):
            a = random_matrix(rng, 3)
            b = random_unitary(rng, 3) @ a
            assert frob(herm(a) @ a - herm(b) @ b) < 1e-12
            for _ in range(100):
                x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                assert abs(np.linalg.norm(a @ x) - np.linalg.norm(b @ x)) \
                    < 1e-10 * np.linalg.norm(x)

    def test_known_pair_admits_no_joint_conjugator(self):
        ex = sl.load_example("ex31")
        s, t = ex.shifts["S"], ex.shifts["T"]
        chains = sl.gram_chains(s, t, 0, 0, 3)
        found = sl.solve_joint_conjugator(chains.pairs())
        assert found.unitary is None


class TestSolveJointConjugator:
    def test_identity_pair(self):
        res = sl.solve_joint_conjugator([(I2, I2)])
        assert res.unitary is not None
        assert sl.is_unitary(res.unitary, sl.Tolerance(1e-8, 1e-8))

    def test_swap_forced(self):
        res = sl.solve_joint_conjugator([(np.diag([1.0, 4.0]),
                                          np.diag([4.0, 1.0]))])
        assert res.unitary is not None
        np.testing.assert_allclose(np.abs(res.unitary),
                                   [[0.0, 1.0], [1.0, 0.0]], atol=1e-8)

    def test_conflicting_pairs_certified_infeasible(self):
        res = sl.solve_joint_conjugator([
            (np.diag([1.0, 4.0]), np.diag([4.0, 1.0])),
            (np.diag([9.0, 4.0]), np.diag([9.0, 4.0]))])
        assert res.unitary is None
        assert res.certificate == "empty-nullspace"

    def test_spectrum_mismatch_certified(self):
        res = sl.solve_joint_conjugator([(np.diag([1.0, 4.0]),
                                          np.diag([1.0, 5.0]))])
        assert res.unitary is None
        assert res.certificate == "spectrum-mismatch"
        assert res.pair_index == 0

    def test_random_conjugations_recovered(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 4))
            u = random_unitary(rng, dim)
            gs = []
            for _ in range(3):
                a = random_matrix(rng, dim)
                gs.append(herm(a) @ a)
            pairs = [(g, u @ g @ herm(u)) for g in gs]
            res = sl.solve_joint_conjugator(pairs, seed=5)
            assert res.unitary is not None
            for g, gt in pairs:
                assert frob(herm(res.unitary) @ gt @ res.unitary - g) \
                    < 1e-8 * max(frob(g), 1.0)


class TestConstructDiagonalIntertwiner:
    def test_equal_shifts_identity_anchor(self, rng):
        s = ei_shift(rng, lo=0, length=3)
        entries = sl.construct_diagonal_intertwiner(s, s, 0, I2, -3, 5)
        for n, v in entries.items():
            np.testing.assert_allclose(v, I2, atol=1e-10)

    def test_scalar_weights_accumulate_phases(self):
        vals = [2.0 * cmath.exp(0.3j), 1.5 * cmath.exp(-1.1j),
                3.0 * cmath.exp(2.2j)]
        s = sl.BilateralShift(sl.EventuallyIdentityWeights(
            0, [np.array([[v]]) for v in vals]))
        t = sl.BilateralShift(sl.EventuallyIdentityWeights(
            0, [np.array([[abs(v)]]) for v in vals]))
        entries = sl.construct_diagonal_intertwiner(s, t, 0,
                                                    np.array([[1.0 + 0j]]),
                                                    -2, 4)
        # upward from the anchor, each step divides by the weight phase
        phase = 1.0 + 0j
        for n in range(0, 3):
            phase *= abs(vals[n]) / vals[n]
            np.testing.assert_allclose(entries[n][0, 0], phase, atol=1e-12)
        # beyond the support the entries stay constant
        np.testing.assert_allclose(entries[3], entries[4], atol=1e-12)

    def test_bad_anchor_reports_gram_violation(self, rng):
        s = ei_shift(rng, lo=0, length=2)
        t, _ = conjugated_shift(rng, s)
        bogus = random_unitary(rng, 2)
        try:
            entries = sl.construct_diagonal_intertwiner(s, t, 0, bogus, -3, 4)
        except sl.PreconditionError as err:
            assert err.index is not None
            return
        # a lucky anchor must still produce a verified witness
        witness = sl.single_band(0, sl.WindowedWeights(
            -4, [entries[n] for n in range(-4, 5)]))
        assert sl.verify_intertwining(witness, s, t, -3, 4,
                                      sl.Tolerance(1e-8, 1e-8)).passed


class TestDecide:
    def test_self_equivalence_identity_witness(self, rng):
        s = ei_shift(rng, lo=0, length=3)
        verdict = sl.decide_diagonal_equivalence(s, s, 0, seed=1)
        assert verdict.is_equivalent
        band = verdict.witness.band(0)
        lo, hi = band.described_range()
        for n in range(lo, hi + 1):
            w = band.weight_at(n)
            phase = w[0, 0] / abs(w[0, 0])
            np.testing.assert_allclose(w, phase * I2, atol=1e-8)

    def test_round_trip_witness_verifies(self, rng):
        for k in range(8):
            s = ei_shift(rng, lo=int(rng.integers(-2, 2)),
                         length=int(rng.integers(1, 4)))
            m = int(rng.integers(-2, 3))
            t, _ = conjugated_shift(rng, s, m=m)
            verdict = sl.decide_diagonal_equivalence(s, t, m, seed=k)
            assert verdict.is_equivalent
            assert verdict.witness_report.passed
            band = verdict.witness.band(m)
            for n, w in band.described_items():
                assert frob(herm(w) @ w - I2) < 1e-8

    def test_perturbed_spectrum_refuted(self, rng):
        for k in range(8):
            s = ei_shift(rng, lo=0, length=3)
            t, _ = conjugated_shift(rng, s)
            t_bad = perturb_one_singular_value(rng, t, factor=1.2)
            verdict = sl.decide_diagonal_equivalence(s, t_bad, 0, seed=k)
            assert verdict.is_not_equivalent
            assert verdict.obstruction.kind in ("norm-profile", "gram-spectrum",
                                                "eigenvalue-moduli")

    def test_obstruction_recomputes(self, rng):
        ex = sl.load_example("counterexample-sec2")
        s, t = ex.shifts["S"], ex.shifts["T"]
        verdict = sl.decide_diagonal_equivalence(s, t, 0)
        assert verdict.is_not_equivalent
        ob = verdict.obstruction
        assert ob.kind == "gram-spectrum"
        chains = sl.gram_chains(s, t, 0, 0, max(ob.index, 1))
        gs = chains.forward_s.matrices[ob.index - 1]
        gt = chains.forward_t.matrices[ob.index - 1]
        es = np.sort(np.linalg.eigvalsh(gs))
        et = np.sort(np.linalg.eigvalsh(gt))
        gap = np.max(np.abs(es - et))
        assert abs(gap - ob.residual) < 1e-9
        assert gap > 10 * sl.DEFAULT_TOL.bound(max(es.max(), et.max()))

    def test_norm_obstruction_recomputes(self, rng):
        s = ei_shift(rng, lo=0, length=2)
        t = sl.BilateralShift(sl.reindex_weights(s.weights, 4), label="T")
        verdict = sl.decide_diagonal_equivalence(s, t, 0)
        assert verdict.is_not_equivalent
        ob = verdict.obstruction
        assert ob.kind == "norm-profile"
        gap = abs(np.linalg.norm(s.weight(ob.index + 0), 2)
                  - np.linalg.norm(t.weight(ob.index), 2))
        assert abs(gap - ob.residual) < 1e-12

    def test_reindexing_invariance(self, rng):
        for k in range(4):
            s = ei_shift(rng, lo=0, length=3)
            if k % 2:
                t, _ = conjugated_shift(rng, s)
            else:
                t = perturb_one_singular_value(
                    rng, conjugated_shift(rng, s)[0])
            base = sl.decide_diagonal_equivalence(s, t, 0, seed=2)
            j = int(rng.integers(-3, 4))
            s2 = sl.BilateralShift(sl.reindex_weights(s.weights, j))
            t2 = sl.BilateralShift(sl.reindex_weights(t.weights, j))
            moved = sl.decide_diagonal_equivalence(s2, t2, 0, seed=2)
            assert moved.status == base.status

    def test_periodic_self_equivalence(self, rng):
        s = sl.BilateralShift(sl.PeriodicWeights(
            [random_invertible(rng), random_invertible(rng)]))
        verdict = sl.decide_diagonal_equivalence(s, s, 0, seed=0)
        assert verdict.is_equivalent

    def test_periodic_phase_twist_is_inconclusive(self):
        s = sl.BilateralShift(sl.PeriodicWeights([np.array([[2.0 + 0j]])]))
        t = sl.BilateralShift(sl.PeriodicWeights(
            [np.array([[2.0 * cmath.exp(0.7j)]])]))
        verdict = sl.decide_diagonal_equivalence(s, t, 0, seed=0)
        assert verdict.is_inconclusive
        assert "periodic" in verdict.reason

    def test_singular_weights_rejected(self):
        s = sl.BilateralShift(sl.WindowedWeights(0, [np.diag([1.0, 1e-14])]))
        with pytest.raises(sl.ConditioningError):
            sl.decide_diagonal_equivalence(s, s, 0, window=(0, 0), depth=1)

    def test_windowed_positive_form_round_trip(self, rng):
        # windowed output of the positive form clamps the decision window
        s = ei_shift(rng, lo=0, length=2)
        form = sl.positive_form(s, -2, 4)
        verdict = sl.decide_diagonal_equivalence(s, form.shift, 0, seed=2)
        assert verdict.is_equivalent


class TestDecideScan:
    def test_finds_offset_of_reindexed_conjugate(self, rng):
        s = ei_shift(rng, lo=0, length=3)
        t, _ = conjugated_shift(rng, s, m=2)
        verdict = sl.decide_diagonal_equivalence_scan(s, t, -4, 4, seed=3)
        assert verdict.is_equivalent
        assert verdict.offset == 2

    def test_empty_screen_is_certified(self):
        ex = sl.load_example("ex31")
        s, t = ex.shifts["S"], ex.shifts["T"]
        verdict = sl.decide_diagonal_equivalence_scan(s, t, -5, 5,
                                                      window=(-4, 4))
        assert verdict.is_not_equivalent
        assert verdict.obstruction.kind == "norm-profile"

    def test_reversed_range_refutes_nothing(self, rng):
        # an empty offset range must not come back as a certified verdict
        s = ei_shift(rng, lo=0, length=2)
        with pytest.raises(ValueError):
            sl.decide_diagonal_equivalence_scan(s, s, 2, -2)

    def test_deterministic_for_fixed_seed(self, rng):
        s = ei_shift(rng, lo=0, length=2)
        t, _ = conjugated_shift(rng, s)
        a = sl.decide_diagonal_equivalence_scan(s, t, -2, 2, seed=11)
        b = sl.decide_diagonal_equivalence_scan(s, t, -2, 2, seed=11)
        assert a.status == b.status and a.offset == b.offset
        band_a, band_b = a.witness.band(a.offset), b.witness.band(b.offset)
        for (n, wa), (_, wb) in zip(band_a.described_items(),
                                    band_b.described_items()):
            np.testing.assert_allclose(wa, wb, atol=0)
