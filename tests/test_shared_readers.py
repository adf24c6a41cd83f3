"""One decomposition per weight per decision.

The singular-value reader against per-row SVDs, the batched Gram chains
against the row loop they replaced, the number of SVD calls a refuted
decision makes, the ``eigvalsh`` calls of the solver's spectrum screen, the
absence of state kept between decisions, and the solver's choice of the
pair it reduces by.
"""

import tracemalloc

import numpy as np
import pytest

import shiftlab as sl
from shiftlab.matrices import herm, singular_ratio

from conftest import (
    conjugated_shift,
    ei_shift,
    random_invertible,
    random_matrix,
    random_unitary,
)


def _sequences(rng, dim=3):
    """One sequence of each variant, with a matrix repeated by reference."""
    mats = [random_invertible(rng, dim) for _ in range(4)]
    mats[2] = mats[0]
    return [sl.PeriodicWeights(mats[:3]),
            sl.EventuallyIdentityWeights(-2, mats),
            sl.WindowedWeights(3, mats)]


# inside, across and outside the stored spans, negative rows, and empty
WINDOWS = [(-2, 1), (3, 6), (-6, 9), (-20, -12), (10, 17), (-7, -7), (4, 3), (0, -5)]


class TestSingularValueReader:
    @pytest.mark.parametrize("lo, hi", WINDOWS)
    def test_rows_equal_per_row_svd_bitwise(self, rng, lo, hi):
        for seq in _sequences(rng):
            values = seq.singular_values()
            rows = range(lo, hi + 1)
            for j in range(seq.dim):
                got, present = values.gather(lo, hi, lambda table: table[:, j])
                assert got.shape == present.shape == (len(rows),)
                assert present.tolist() == [seq.has_index(n) for n in rows]
                expected = [np.linalg.svd(seq.weight_at(n), compute_uv=False)[j]
                            for n in rows if seq.has_index(n)]
                assert got[present].tolist() == expected, (seq, j)

    @pytest.mark.parametrize("lo, hi", WINDOWS)
    def test_norms_and_ratios_read_the_columns(self, rng, lo, hi):
        for seq in _sequences(rng):
            values = seq.singular_values()
            norms, has_n = values.norms(lo, hi)
            ratios, has_r = values.ratios(lo, hi)
            assert has_n.tolist() == has_r.tolist()
            for i, n in enumerate(range(lo, hi + 1)):
                if has_n[i]:
                    assert norms[i] == sl.matrices.operator_norm(seq.weight_at(n))
                    assert ratios[i] == sl.matrices.condition_ratio(seq.weight_at(n))

    def test_off_span_rows(self, rng):
        _, ei, win = _sequences(rng)
        smallest, present = ei.singular_values().gather(10, 12, lambda table: table[:, -1])
        assert smallest.tolist() == [1.0] * 3 and present.all()
        _, present = win.singular_values().norms(-3, 2)
        assert not present.any()

    def test_one_decomposition_per_distinct_matrix(self, rng):
        m = random_invertible(rng, 4)
        seq = sl.WindowedWeights(0, [m] * 1000)
        values = seq.singular_values()
        assert values.invertible
        assert values.table.shape == (2, 4)      # m, then the zero matrix off the span
        np.testing.assert_array_equal(values.table[0],
                                      np.linalg.svd(m, compute_uv=False))

    def test_a_short_range_decomposes_only_the_matrices_it_reaches(self, rng, monkeypatch):
        mats = [random_invertible(rng, 3) for _ in range(500)]
        values = sl.WindowedWeights(0, mats).singular_values()
        decomposed = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            decomposed.append(len(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        values.norms(100, 109)
        values.ratios(105, 114)                  # rows 105..109 are filled already
        values.norms(-3, -1)                     # three missing rows: the zero matrix
        assert decomposed == [10, 5, 1]
        assert values.invertible                 # the other 485 stored matrices
        values.norms(-10, 600)
        assert decomposed == [10, 5, 1, 485]

    def test_invertibility_reads_only_stored_matrices(self, rng):
        # the zero matrix a windowed sequence holds off its span is no weight
        good = sl.WindowedWeights(0, [random_invertible(rng) for _ in range(3)])
        assert good.singular_values().invertible
        bad = sl.WindowedWeights(0, [random_invertible(rng), np.diag([1.0, 1e-12])])
        assert not bad.singular_values().invertible
        assert singular_ratio(np.zeros((1, 2)))[0] == 0.0

    def test_widest_window_holds_rows_not_matrices(self, rng):
        dim, rows = 16, 200_001
        s = sl.BilateralShift(sl.PeriodicWeights([random_invertible(rng, dim)]))
        tracemalloc.start()
        try:
            feasible = sl.norm_offset_screen(s, s, 0, 0, -100_000, 100_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert feasible == {0}
        assert peak < rows * dim * 8 / 2         # well below one (rows, d) float array


def reference_gram_chains(s, t, m, k_base, depth):
    """The row loop ``gram_chains`` replaced: each chain stepped one
    single-matrix product at a time."""
    grams = np.empty((2, depth, 2, s.dim, s.dim), dtype=complex)
    for j, forward in enumerate((True, False)):
        for i, (shift, base) in enumerate(((s, m + k_base), (t, k_base))):
            acc = np.eye(shift.dim, dtype=complex)
            for n in range(depth):
                acc = (shift.weight(base + n) if forward
                       else herm(shift.weight(base - 1 - n))) @ acc
                grams[j, n, i] = herm(acc) @ acc
    return grams.reshape(2 * depth, 2, s.dim, s.dim)


def reindexed(shift, k):
    """The shift whose row n is row n + k of ``shift``, on the same arrays:
    ``gram_chains`` of reindexed shifts is anchored at row k."""
    return sl.BilateralShift(sl.reindex_weights(shift.weights, k))


class TestBatchedGramChains:
    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 16])
    def test_equal_to_the_row_loop_bitwise(self, rng, dim):
        for _ in range(6):
            s = ei_shift(rng, dim=dim, lo=int(rng.integers(-4, 2)),
                         length=int(rng.integers(1, 6)))
            t = sl.BilateralShift(sl.PeriodicWeights(
                [random_matrix(rng, dim) for _ in range(int(rng.integers(1, 4)))]))
            for m, k, depth in ((0, 0, 1), (int(rng.integers(-3, 4)), 1, 5),
                                (2, -1, 9)):
                for a, b in ((s, t), (t, s), (s, s)):
                    np.testing.assert_array_equal(
                        sl.gram_chains(reindexed(a, k), reindexed(b, k), m, depth),
                        reference_gram_chains(a, b, m, k, depth))

    def test_missing_rows_raise_where_the_row_loop_does(self, rng):
        # S stores rows -3..4 and T rows -1..2; each case lacks rows in a
        # different chain first.  Reindexed by k, the missing row moves by -k,
        # and the message is the row loop's on the reindexed shifts.
        s = sl.BilateralShift(sl.WindowedWeights(-3, [random_unitary(rng) for _ in range(8)]))
        t = sl.BilateralShift(sl.WindowedWeights(-1, [random_unitary(rng) for _ in range(4)]))
        seen = set()
        for a, b in ((s, t), (t, s), (s, s)):
            for m in range(-4, 5):
                for k in (-1, 0, 1):
                    a_k, b_k = reindexed(a, k), reindexed(b, k)
                    for depth in (1, 2, 3, 5):
                        try:
                            expected = reference_gram_chains(a, b, m, k, depth)
                        except sl.WindowAccessError as exc:
                            with pytest.raises(sl.WindowAccessError) as err:
                                sl.gram_chains(a_k, b_k, m, depth)
                            assert err.value.index == exc.index - k
                            with pytest.raises(sl.WindowAccessError) as ref:
                                reference_gram_chains(a_k, b_k, m, 0, depth)
                            assert str(err.value) == str(ref.value)
                            seen.add(exc.index)
                            continue
                        np.testing.assert_array_equal(sl.gram_chains(a_k, b_k, m, depth),
                                                      expected)
        assert len(seen) > 6


def _refuted_pair(rng, dim, kind, periodic=False):
    """T_n = V_n S_n W_{n-1}* with W = V (equivalent at offset 0) except
    where ``kind`` spoils it: the top singular value of one weight scaled
    by 1.25 ("norm"), its smallest scaled by 0.7 ("lower"), or one
    mismatched right factor ("gram")."""
    p = 3
    s_w = [random_invertible(rng, dim) for _ in range(p)]
    v = [random_unitary(rng, dim) for _ in range(p + 1)]      # v[n + 1] is V_n
    if periodic:
        v[0] = v[p]                                           # V_{-1} = V_{p-1}
    w = list(v)
    if kind == "gram":
        w[1] = random_unitary(rng, dim)
    t_w = [v[n + 1] @ s_w[n] @ herm(w[n]) for n in range(p)]
    if kind in ("norm", "lower"):
        x, sv, yh = np.linalg.svd(t_w[1])
        sv[0 if kind == "norm" else -1] *= 1.25 if kind == "norm" else 0.7
        t_w[1] = x @ np.diag(sv) @ yh
    if periodic:
        return (sl.BilateralShift(sl.PeriodicWeights(s_w)),
                sl.BilateralShift(sl.PeriodicWeights(t_w)))
    return (sl.BilateralShift(sl.EventuallyIdentityWeights(0, s_w)),
            sl.BilateralShift(sl.EventuallyIdentityWeights(0, t_w)))


def counting(monkeypatch, name):
    """Patch ``np.linalg.<name>`` to record each call in the returned list."""
    calls = []
    func = getattr(np.linalg, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return func(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestDecompositionCount:
    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("dim", [2, 4, 8])
    @pytest.mark.parametrize("kind, predicted", [("norm", "norm-profile"),
                                                 ("lower", "singular-values"),
                                                 ("gram", "gram-spectrum")])
    def test_refuted_decision_calls_svd_at_most_twice(self, rng, monkeypatch, periodic,
                                                      dim, kind, predicted):
        s, t = _refuted_pair(rng, dim, kind, periodic)
        calls = counting(monkeypatch, "svd")
        verdict = sl.decide_diagonal_equivalence(s, t, 0)
        monkeypatch.undo()
        assert verdict.is_not_equivalent
        assert verdict.obstruction.kind == predicted
        if kind != "gram":                        # at the spoiled row, mod the period
            assert verdict.obstruction.index % 3 == 1
        assert len(calls) <= 2

    @pytest.mark.parametrize("dim", [2, 4])
    def test_an_offset_scan_reads_each_shift_once(self, rng, monkeypatch, dim):
        # period 3: offsets -3, 0 and 3 pass the singular-value screen, and each is
        # refuted by its Gram spectra, which need no SVD
        s, t = _refuted_pair(rng, dim, "gram", periodic=True)
        feasible = sl.norm_offset_screen(s, t, -3, 3, -6, 8)
        assert {-3, 0, 3} <= feasible
        calls = counting(monkeypatch, "svd")
        verdict = sl.decide_diagonal_equivalence_scan(s, t, -3, 3)
        monkeypatch.undo()
        assert len(calls) == 2
        # the verdict of the last offset tried, as its own decision gives it
        last = sorted(feasible, key=lambda k: (abs(k), -k))[-1]
        alone = sl.decide_diagonal_equivalence(s, t, last)
        assert verdict.is_not_equivalent and alone.is_not_equivalent
        assert (verdict.offset, verdict.obstruction.kind, verdict.obstruction.index,
                verdict.obstruction.residual) == (
            alone.offset, alone.obstruction.kind, alone.obstruction.index,
            alone.obstruction.residual)
        assert verdict.obstruction.detail == (
            f"{alone.obstruction.detail} (last of {len(feasible)} offsets the "
            f"singular-value screen left)")

    @pytest.mark.parametrize("dim", [2, 5])
    @pytest.mark.parametrize("refuted", [0, 3, 7, None])
    def test_spectrum_screen_stops_at_the_first_refuted_pair(self, rng, monkeypatch,
                                                             dim, refuted):
        # eight pairs conjugated by one unitary; pair ``refuted`` has its target
        # doubled, so its spectra differ and no later pair may be decomposed;
        # with none refuted, each pair is decomposed once
        u = random_unitary(rng, dim)
        grams = [herm(a) @ a for a in (random_matrix(rng, dim) for _ in range(8))]
        pairs = [(g, (2.0 if i == refuted else 1.0) * (u @ g @ herm(u)))
                 for i, g in enumerate(grams)]
        calls = counting(monkeypatch, "eigvalsh")
        found = sl.solve_joint_conjugator(pairs)
        monkeypatch.undo()
        if refuted is None:
            assert found.unitary is not None
            assert len(calls) == len(pairs)
        else:
            assert (found.certificate, found.pair_index) == ("spectrum-mismatch", refuted)
            assert len(calls) == refuted + 1


class TestNoStateBetweenCalls:
    def test_an_edited_weight_is_read_again(self, rng):
        mats = [random_invertible(rng, 3) for _ in range(3)]
        s = sl.BilateralShift(sl.EventuallyIdentityWeights(0, mats))
        copies = [m.copy() for m in mats]
        t = sl.BilateralShift(sl.EventuallyIdentityWeights(0, copies))
        assert sl.decide_diagonal_equivalence(s, t, 0).is_equivalent
        assert sl.norm_offset_screen(s, t, 0, 0, -3, 5) == {0}
        copies[1] *= 2.0                          # in place: T now holds it
        verdict = sl.decide_diagonal_equivalence(s, t, 0)
        assert verdict.is_not_equivalent
        assert (verdict.obstruction.kind, verdict.obstruction.index) == ("norm-profile", 1)
        assert sl.norm_offset_screen(s, t, 0, 0, -3, 5) == set()
        assert sl.weight_norm_profile(t, 1, 1) == [2.0 * sl.weight_norm_profile(s, 1, 1)[0]]
        copies[2][:] = np.diag([1.0, 1.0, 1e-13])   # now singular
        assert not t.quasi_invertible
        with pytest.raises(sl.ConditioningError):
            sl.decide_diagonal_equivalence(s, t, 0)


    def test_an_edited_row_of_a_stack_is_read_again(self, rng):
        # a sequence given one (N, d, d) array holds it: the same reads see an edit
        stack = np.stack([random_invertible(rng, 3) for _ in range(3)])
        s = sl.BilateralShift(sl.EventuallyIdentityWeights(0, stack.copy()))
        t = sl.BilateralShift(sl.EventuallyIdentityWeights(0, stack))
        assert sl.decide_diagonal_equivalence(s, t, 0).is_equivalent
        stack[1] *= 2.0
        rows, _ = t.weights.rows(1, 1)
        np.testing.assert_array_equal(rows[0], stack[1])
        norms, _ = t.weights.singular_values().norms(1, 1)
        assert norms.tolist() == [np.linalg.svd(stack[1], compute_uv=False)[0]]
        verdict = sl.decide_diagonal_equivalence(s, t, 0)
        assert verdict.is_not_equivalent
        assert (verdict.obstruction.kind, verdict.obstruction.index) == ("norm-profile", 1)
        stack[2] = np.diag([1.0, 1.0, 1e-13])             # now singular
        assert not t.quasi_invertible
        with pytest.raises(sl.ConditioningError):
            sl.decide_diagonal_equivalence(s, t, 0)


class TestWitnessConditioning:
    def test_names_the_singular_row(self, rng):
        # forward rows read S_{n+m}, backward rows read T_n
        for m in (0, 2):
            mats = [random_unitary(rng) for _ in range(8)]
            mats[5] = np.diag([1.0, 1e-13])       # row 1 of a sequence stored from -4
            s = sl.BilateralShift(sl.EventuallyIdentityWeights(-4 + m, mats))
            with pytest.raises(sl.ConditioningError) as err:
                sl.diagonal_witness(s, s, m, np.eye(2), -6, 6)
            assert err.value.index == 1 + m
            assert str(err.value) == f"weight at n={1 + m} is not invertible"
            mats[5] = random_unitary(rng)
            mats[2] = np.diag([1e-13, 1.0])       # row -2
            t = sl.BilateralShift(sl.EventuallyIdentityWeights(-4, mats))
            with pytest.raises(sl.ConditioningError) as err:
                sl.diagonal_witness(t, t, 0, np.eye(2), -6, 6)
            assert err.value.index == -2


def _unitary_shift(rng, dim, first="unitary"):
    mats = [random_unitary(rng, dim) for _ in range(3)]
    if first == "generic":
        mats[0] = random_invertible(rng, dim)
    return sl.BilateralShift(sl.EventuallyIdentityWeights(0, mats))


class TestReducingPair:
    def test_unitary_weights_against_themselves(self, rng):
        # every Gram is I: the first pair keeps all 256 entries
        s = _unitary_shift(rng, 16)
        verdict = sl.decide_diagonal_equivalence(s, s, 0)
        assert verdict.is_equivalent and verdict.witness_report.passed
        assert sl.verify_intertwining(verdict.witness, s, s, -6, 6).passed
        found = sl.solve_joint_conjugator(sl.gram_chains(s, s, 0, 7))
        assert found.diagnostics["columns_kept"] < 256
        np.testing.assert_array_equal(found.unitary, np.eye(16))

    def test_unitary_first_weight_reduces_by_a_later_pair(self, rng):
        s = _unitary_shift(rng, 8)
        mats = [w for _, w in s.weights.described_items()]
        mats[1] = random_invertible(rng, 8)
        s = sl.BilateralShift(sl.EventuallyIdentityWeights(0, mats))
        t, _ = conjugated_shift(rng, s)
        verdict = sl.decide_diagonal_equivalence(s, t, 0)
        assert verdict.is_equivalent and verdict.witness_report.passed
        assert sl.verify_intertwining(verdict.witness, s, t, -6, 6,
                                      sl.Tolerance(1e-8, 1e-8)).passed
        pairs = sl.gram_chains(s, t, 0, 7)
        assert np.allclose(pairs[0, 0], np.eye(8))       # the first pair is scalar
        found = sl.solve_joint_conjugator(pairs)
        assert found.unitary is not None
        assert 0 < found.diagnostics["columns_kept"] < 64

    def test_rejected_identity_falls_through_to_the_full_system(self):
        # a near-scalar pair that the identity does not conjugate
        g = np.diag([1.0, 1.0 + 1e-3])
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        found = sl.solve_joint_conjugator([(g, swap @ g @ swap)])
        assert found.unitary is not None
        assert found.diagnostics["columns_kept"] == 4
        np.testing.assert_allclose(np.abs(found.unitary), swap, atol=1e-8)
