"""Positive forms, screens, Gram chains, and the equivalence decision."""

import cmath
import functools
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftlab as sl
from shiftlab.equivalence import _decision_scope
from shiftlab.matrices import frob, herm, is_normal

from conftest import (
    conjugated_shift,
    ei_shift,
    perturb_one_singular_value,
    random_invertible,
    random_matrix,
    random_unitary,
    s_val,
)
from d1_oracle import EQUIVALENT, oracle_decide, oracle_rows

I2 = np.eye(2, dtype=complex)


S2 = sl.BilateralShift(sl.PeriodicWeights([2.0 * I2]))
S3 = sl.BilateralShift(sl.PeriodicWeights([2.0 * np.eye(3)]))


@pytest.mark.parametrize("call, error, message", [
    (lambda: sl.gram_chains(S2, S3, 0, 2), sl.DimensionError, "share the block dimension"),
    (lambda: sl.gram_chains(S2, S2, 0, 0), ValueError, "positive integer"),
    (lambda: sl.decide_diagonal_equivalence(S2, S3, 0), sl.DimensionError,
     "share the block dimension"),
    (lambda: sl.positive_form(S2, 3, 2), ValueError, "hi must be >= lo"),
    (lambda: sl.diagonal_witness(S2, S2, 0, np.eye(3), -2, 2), sl.DimensionError,
     "wrong shape"),
], ids=["gram-dims", "gram-depth-0", "decide-dims", "positive-form-reversed",
        "witness-anchor-shape"])
def test_argument_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()


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

    def test_overflowing_positive_form_names_its_row(self):
        s = sl.BilateralShift(sl.PeriodicWeights([np.array([[1e308 + 1e308j]])]))
        with pytest.raises(sl.ConditioningError) as err:
            sl.positive_form(s, -2, 2)
        assert err.value.index == -2 and "n=-2" in str(err.value)

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

    def test_one_decomposition_of_the_rows(self, rng, monkeypatch):
        # the conditioning check and the polar factors share one SVD
        s = ei_shift(rng, lo=-2, length=5)
        calls = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        sl.positive_form(s, -4, 4)
        assert calls == [(9, 2, 2)]

    @pytest.mark.parametrize("window", [(-4, 4), (2, 7), (-9, -3)])
    def test_weights_are_those_of_the_polar_decomposition(self, rng, window):
        # bit for bit what polar_decompose of the rows gives
        lo, hi = window
        s = ei_shift(rng, dim=3, lo=-2, length=6)
        form = sl.positive_form(s, lo, hi)
        w, _ = s.weights.rows(lo, hi)
        unitaries, positives = sl.polar_decompose(w)
        anchor = min(max(0, lo - 1), hi) - (lo - 1)
        v = np.empty((hi - lo + 2, 3, 3), dtype=complex)
        v[anchor] = np.eye(3)
        for j in range(anchor + 1, len(v)):
            v[j] = unitaries[j - 1] @ v[j - 1]
        for j in range(anchor, 0, -1):
            v[j - 1] = herm(unitaries[j - 1]) @ v[j]
        t = herm(v[:-1]) @ positives @ v[:-1]
        t = 0.5 * (t + herm(t))
        assert form.shift.weights.rows(lo, hi)[0].tobytes() == t.tobytes()
        assert form.diagonal.band(0).rows(lo - 1, hi)[0].tobytes() == herm(v).tobytes()

    @pytest.mark.parametrize("singular", [None, 2])
    def test_a_decoded_shift_names_its_first_bad_row(self, rng, singular):
        # a parsed spec holds its weights as one stack, stored here on rows -1..4
        mats = np.stack([random_invertible(rng) for _ in range(6)])
        if singular is not None:
            mats[singular + 1] = np.diag([1.0, 1e-14])
        doc = {"dim": 2, "shifts": {"S": sl.specfile.encode_sequence(
            sl.WindowedWeights(-1, mats))}}
        s = sl.parse_shift_spec(json.dumps(doc)).shifts["S"]
        assert isinstance(s.weights._weights, np.ndarray)
        for lo, hi in ((-1, 4), (-1, 7), (-3, 4)):
            absent = -3 if lo < -1 else (5 if hi > 4 else None)
            # the row met first names the error: an absent row below the
            # store, else the singular row, else an absent row above it
            if absent == -3 or (absent is not None and singular is None):
                with pytest.raises(sl.WindowAccessError) as err:
                    sl.positive_form(s, lo, hi)
                assert err.value.index == absent
            elif singular is not None:
                with pytest.raises(sl.ConditioningError) as err:
                    sl.positive_form(s, lo, hi)
                assert err.value.index == singular and f"n={singular}" in str(err.value)
            else:
                assert sl.positive_form(s, lo, hi).max_residual < 1e-12


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

    def test_decide_refutes_a_moduli_gap_by_the_singular_value_screen(self, rng):
        # normal weights have their eigenvalue moduli as singular values: a
        # pair whose moduli differ at row 1 fails this screen there, and the
        # decision refutes it at that row by its singular-value screen
        for which, kind in ((0, "norm-profile"), (1, "singular-values")):
            q = [random_unitary(rng) for _ in range(3)]
            lam = [rng.uniform(0.5, 1.0, 2) * np.exp(2j * np.pi * rng.random(2))
                   for _ in range(3)]
            lam = [x[np.argsort(-np.abs(x))] for x in lam]      # moduli descending
            s_w = [q[n] @ np.diag(lam[n]) @ herm(q[n]) for n in range(3)]
            v = random_unitary(rng)
            t_w = [v @ w @ herm(v) for w in s_w]
            lam[1][which] *= 1.5 if which == 0 else 0.5
            t_w[1] = v @ q[1] @ np.diag(lam[1]) @ herm(q[1]) @ herm(v)
            s, t = (sl.BilateralShift(sl.EventuallyIdentityWeights(0, w)) for w in (s_w, t_w))
            rep = sl.eigen_moduli_screen(s, t, 0, -3, 5)
            assert not rep.passed and rep.first_failure().index == 1
            verdict = sl.decide_diagonal_equivalence(s, t, 0)
            assert verdict.is_not_equivalent
            assert (verdict.obstruction.kind, verdict.obstruction.index) == (kind, 1)
        # equal moduli and singular values: the Gram spectra refute
        ex = sl.load_example("counterexample-sec2")
        s, t = ex.shifts["S"], ex.shifts["T"]
        assert sl.eigen_moduli_screen(s, t, 0, -3, 4).passed
        assert sl.decide_diagonal_equivalence(s, t, 0).obstruction.kind == "gram-spectrum"

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
        pairs = sl.gram_chains(f, f, 0, 4)
        assert pairs.shape == (8, 2, 2, 2)
        for g in pairs.reshape(-1, 2, 2):
            np.testing.assert_allclose(g, I2, atol=1e-14)

    def test_depth_one_forward_gram(self, rng):
        s = ei_shift(rng, lo=-1, length=3)
        pairs = sl.gram_chains(s, s, 2, 1)
        np.testing.assert_allclose(pairs[0, 0],        # forward, S, depth 1
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

    def test_products_in_order_on_non_commuting_weights(self, rng):
        # P* P of the explicitly ordered products, the newest factor
        # leftmost: S_{b+n-1} ... S_b forward, S_{b-n}* ... S_{b-1}* backward;
        # anchored at row k by reindexing both shifts by k
        for _ in range(5):
            s = ei_shift(rng, lo=-2, length=5)
            t = ei_shift(rng, lo=-1, length=4)
            m, k, depth = int(rng.integers(-2, 3)), int(rng.integers(-1, 2)), 4
            pairs = sl.gram_chains(*(sl.BilateralShift(sl.reindex_weights(x.weights, k))
                                     for x in (s, t)), m, depth)
            assert pairs.shape == (2 * depth, 2, 2, 2)
            # rows 0..depth-1 are forward depths 1..depth, then backward
            for i, (shift, base) in enumerate(((s, m + k), (t, k))):
                fwd, bwd = pairs[:depth, i], pairs[depth:, i]
                for n in range(1, depth + 1):
                    p = functools.reduce(np.matmul, [shift.weight(base + j)
                                                     for j in reversed(range(n))])
                    q = functools.reduce(np.matmul, [herm(shift.weight(base - j))
                                                     for j in range(n, 0, -1)])
                    np.testing.assert_allclose(fwd[n - 1], herm(p) @ p,
                                               rtol=1e-12, atol=1e-12)
                    np.testing.assert_allclose(bwd[n - 1], herm(q) @ q,
                                               rtol=1e-12, atol=1e-12)

    def test_known_pair_admits_no_joint_conjugator(self):
        ex = sl.load_example("ex31")
        s, t = ex.shifts["S"], ex.shifts["T"]
        found = sl.solve_joint_conjugator(sl.gram_chains(s, t, 0, 3))
        assert found.unitary is None

    def test_missing_row_named_in_read_order(self, rng):
        # rows -7..2 stored, m = -3, depth 5: forward S reads rows -3..1 and
        # forward T rows 0..3, so row 3 is the first missing one (backward S,
        # read first, would name row -8)
        s = sl.BilateralShift(sl.WindowedWeights(
            -7, [random_unitary(rng) for _ in range(10)]), "S")
        with pytest.raises(sl.WindowAccessError) as err:
            sl.gram_chains(s, s, -3, 5)
        assert err.value.index == 3
        verdict = sl.decide_diagonal_equivalence(s, s, -3, depth=5, window=(1, 2))
        assert verdict.is_inconclusive
        assert "index 3 outside stored window [-7, 2]" in verdict.reason


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

    def test_ragged_pairs_rejected(self):
        for pairs in ([(I2, I2), (np.eye(3), np.eye(3))], [(I2, np.eye(3))],
                      [(np.ones((2, 3)), np.ones((2, 3)))], [(I2, I2, I2)]):
            with pytest.raises(sl.DimensionError):
                sl.solve_joint_conjugator(pairs)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError) as err:
            sl.solve_joint_conjugator([])
        assert not isinstance(err.value, sl.DimensionError)

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


def _stacked_system(pairs):
    """The Kronecker system of every constraint ``G_t U - U G_s = 0``."""
    dim = pairs[0][0].shape[0]
    eye = np.eye(dim)
    # row-major vec: vec(G_t U - U G_s) = (G_t (x) I - I (x) G_s^T) vec(U)
    return np.vstack([(np.kron(gt, eye) - np.kron(eye, gs.T))
                      / max(frob(gs), frob(gt), 1.0) for gs, gt in pairs])


def reference_conjugator(pairs, tol=sl.DEFAULT_TOL, seed=0, max_restarts=64):
    """Null space of the full stacked system by SVD, then the polar search.

    Returns (outcome, residual, nullspace_dim) with outcome one of
    "found", "spectrum-mismatch", "empty-nullspace", "singular-nullspace"
    and "inconclusive"; residual is the best constraint residual.  The thin
    SVD gives the same right singular vectors as the full one.
    """
    pairs = [(np.asarray(gs, dtype=complex), np.asarray(gt, dtype=complex))
             for gs, gt in pairs]
    for gs, gt in pairs:
        es = np.sort(np.linalg.eigvalsh(0.5 * (gs + herm(gs))))
        et = np.sort(np.linalg.eigvalsh(0.5 * (gt + herm(gt))))
        scale = max(np.max(np.abs(es)), np.max(np.abs(et)), 1.0)
        if np.max(np.abs(es - et)) > tol.bound(scale):
            return "spectrum-mismatch", None, 0
    dim = pairs[0][0].shape[0]
    _, svals, vh = np.linalg.svd(_stacked_system(pairs), full_matrices=False)
    cutoff = max(svals[0], 1.0) * max(tol.rel, 1e-11)
    basis = [vh[j].conj().reshape(dim, dim) for j in range(len(svals))
             if svals[j] <= cutoff]
    if not basis:
        return "empty-nullspace", None, 0
    rng = np.random.default_rng(seed)

    def candidates():
        yield from basis
        for _ in range(max_restarts):
            coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
            yield sum(c * b for c, b in zip(coeffs, basis))

    saw_nonsingular = False
    best = np.inf
    for x in candidates():
        svals_x = np.linalg.svd(x, compute_uv=False)
        if svals_x[-1] <= 1e-10 * max(svals_x[0], 1e-300):
            continue
        saw_nonsingular = True
        w = sl.nearest_unitary(x)
        worst = _constraint_residual(w, pairs)
        if worst <= tol.bound(1.0):
            return "found", worst, len(basis)
        best = min(best, worst)
    if not saw_nonsingular:
        return "singular-nullspace", None, len(basis)
    return "inconclusive", best, len(basis)


def _constraint_residual(w, pairs):
    return max(frob(herm(w) @ gt @ w - gs) / max(frob(gs), frob(gt), 1.0)
               for gs, gt in pairs)


def _outcome(res):
    if res.unitary is not None:
        return "found"
    return res.certificate or "inconclusive"


def _hermitian_with(rng, dim, evals):
    q = random_unitary(rng, dim)
    return q @ np.diag(evals) @ herm(q)


def _gram(rng, dim):
    a = random_matrix(rng, dim)
    return herm(a) @ a


def _corpus_grams(rng, kind, dim, count):
    """``count`` Hermitian matrices of one degenerate or generic kind."""
    if kind == "generic":
        return [_gram(rng, dim) for _ in range(count)]
    if kind == "repeated":
        return [_hermitian_with(rng, dim, rng.choice([1.0, 2.0, 3.5], size=dim))
                for _ in range(count)]
    if kind == "scalar":
        scalars = [rng.uniform(0.5, 3.0) * np.eye(dim)
                   for _ in range(int(rng.integers(1, 3)))]
        return scalars + _corpus_grams(rng, "repeated" if rng.random() < 0.5
                                       else "generic", dim, count)
    if kind == "block-commuting":
        q = random_unitary(rng, dim)
        cut = int(rng.integers(1, dim))
        mats = []
        for _ in range(count):
            m = np.zeros((dim, dim), dtype=complex)
            m[:cut, :cut] = _gram(rng, cut)
            m[cut:, cut:] = _gram(rng, dim - cut)
            mats.append(q @ m @ herm(q))
        return mats
    if kind == "near-gap":
        mats = []
        for _ in range(count):
            evals = rng.uniform(1.0, 3.0, size=dim)
            evals[1] = evals[0] * (1.0 + 10.0 ** rng.uniform(-13, -7))
            mats.append(_hermitian_with(rng, dim, evals))
        return mats
    if kind == "ill-conditioned":
        lo, hi = -6.0 * rng.random(), 6.0 * rng.random()
        return [_hermitian_with(rng, dim, 10.0 ** rng.uniform(lo, hi, size=dim))
                for _ in range(count)]
    raise ValueError(kind)


CORPUS_KINDS = ("generic", "repeated", "scalar", "block-commuting", "near-gap",
                "ill-conditioned", "noisy")


def _corpus_case(rng, kind, dim):
    """Pairs conjugated by one unitary; noisy or with a conflicting pair."""
    grams = _corpus_grams(rng, "generic" if kind == "noisy" else kind, dim,
                          int(rng.integers(1, 6)))
    u = random_unitary(rng, dim)
    targets = [u @ g @ herm(u) for g in grams]
    targets = [0.5 * (g + herm(g)) for g in targets]
    if kind == "noisy":
        eta = 10.0 ** rng.uniform(-16, -9)
        noise = [random_matrix(rng, dim) for _ in targets]
        targets = [g + eta * frob(g) * 0.5 * (e + herm(e)) / dim
                   for g, e in zip(targets, noise)]
    pairs = list(zip(grams, targets))
    if rng.random() < 0.3:
        # same spectrum, another conjugator
        i = int(rng.integers(0, len(pairs)))
        v = random_unitary(rng, dim)
        pairs[i] = (pairs[i][0], v @ pairs[i][0] @ herm(v))
    return pairs


@pytest.fixture(scope="module")
def differential_corpus():
    """(kind, pairs, reference outcome, solver result) for 840 seeded cases."""
    rng = np.random.default_rng(20261018)
    cases = []
    for i in range(840):
        kind = CORPUS_KINDS[i % len(CORPUS_KINDS)]
        pairs = _corpus_case(rng, kind, int(rng.integers(2, 9)))
        cases.append((kind, pairs, reference_conjugator(pairs, seed=i),
                      sl.solve_joint_conjugator(pairs, seed=i)))
    return cases


class TestConjugatorAgainstStackedSVD:
    """The eigenbasis solver against an SVD of the full stacked system."""

    def test_corpus_reaches_every_outcome(self, differential_corpus):
        outcomes = {ref[0] for _, _, ref, _ in differential_corpus}
        assert outcomes >= {"found", "empty-nullspace", "singular-nullspace",
                            "spectrum-mismatch"}

    def test_no_certificate_where_a_unitary_exists(self, differential_corpus):
        bound = sl.DEFAULT_TOL.bound(1.0)
        for kind, pairs, ref, res in differential_corpus:
            if ref[0] == "found":
                assert res.certificate not in ("empty-nullspace",
                                               "singular-nullspace"), kind
            if res.unitary is not None:
                assert sl.is_unitary(res.unitary, sl.Tolerance(1e-8, 1e-8))
                assert _constraint_residual(res.unitary, pairs) <= bound, kind

    def test_outcomes_match(self, differential_corpus):
        # a near-threshold reference find may be missed, never anything else
        bound = sl.DEFAULT_TOL.bound(1.0)
        exceptions = []
        for kind, pairs, (outcome, residual, _), res in differential_corpus:
            if _outcome(res) == outcome:
                continue
            assert (outcome, _outcome(res)) == ("found", "inconclusive"), kind
            assert residual >= bound / 10, kind
            exceptions.append(kind)
        assert len(exceptions) <= len(differential_corpus) // 100

    def test_null_space_dimension_matches(self, differential_corpus):
        for kind, _, (outcome, _, null_dim), res in differential_corpus:
            if outcome == "found" and res.unitary is not None:
                assert res.nullspace_dim == null_dim, kind


def _padded(rng, pairs):
    """``pairs`` with each pair repeated 1-3 times in a row and, before about
    half of them, a run of 1-2 pairs ``(cI, cI)`` with c in {1, 2.5}; and a
    label for each padded pair, ("pair", k) for a copy of pair k and
    ("scalar", c) for cI."""
    eye = np.eye(pairs[0][0].shape[0])
    padded, labels = [], []
    for k, pair in enumerate(pairs):
        if rng.random() < 0.5:
            c, count = float(rng.choice([1.0, 2.5])), int(rng.integers(1, 3))
            padded += [(c * eye, c * eye)] * count
            labels += [("scalar", c)] * count
        count = int(rng.integers(1, 4))
        padded += [pair] * count
        labels += [("pair", k)] * count
    return padded, labels


def _staying(labels):
    """Positions of the padded pairs the solver keeps: the first of each run
    of equal pairs unless it is scalar, and position 0 always."""
    return [j for j, label in enumerate(labels)
            if j == 0 or (label != labels[j - 1] and label[0] == "pair")]


def _norm_bound(pairs):
    """``||A||`` of the solver's cutoffs, summed over ``pairs``."""
    norms = np.array([(frob(gs), frob(gt)) for gs, gt in pairs])
    scales = np.maximum(norms.max(axis=1), 1.0)
    return float(np.sqrt(np.sum((norms.sum(axis=1) / scales) ** 2)))


@pytest.fixture(scope="module")
def padded_corpus(differential_corpus):
    """One corpus case in seven, each kind in turn, padded: (kind, padded
    pairs, labels, unpadded result, reference outcome on the padded list,
    solver result, and each system the solver solved as the
    ``_restricted_system`` inputs it got, the system and the singular values
    ``_right_singular`` returned)."""
    restricted = sl.equivalence._restricted_system
    right_singular = sl.equivalence._right_singular
    solved = []

    def recorded_system(h_s, h_t, scales, keep):
        system, rows, cols = restricted(h_s, h_t, scales, keep)
        solved.append({"h_s": h_s, "h_t": h_t, "keep": keep, "system": system})
        return system, rows, cols

    def recorded_svd(system):
        svals, vh = right_singular(system)
        solved[-1]["svals"] = svals
        return svals, vh

    cases = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sl.equivalence, "_restricted_system", recorded_system)
        patch.setattr(sl.equivalence, "_right_singular", recorded_svd)
        # case 7j + (j mod 7) has kind j mod 7
        for i in (7 * j + j % 7 for j in range(len(differential_corpus) // 7)):
            kind, pairs, _, unpadded = differential_corpus[i]
            padded, labels = _padded(np.random.default_rng(i), pairs)
            solved = []
            res = sl.solve_joint_conjugator(padded, seed=i)
            cases.append((kind, padded, labels, unpadded,
                          reference_conjugator(padded, seed=i), res, solved))
    return cases


def _built_from(labels, record, first):
    """Positions of the padded pairs that the system ``record`` stacks: every
    kept pair, or the first two for the head, which is the ``first`` system
    the solver solves."""
    kept = _staying(labels)
    built = kept[:len(record["h_s"])]
    assert built == kept or (len(built) == 2 and first)
    return built


def _reducing_basis(padded, built, record):
    """The eigenbases ``(y_s, y_t)`` of the pair the solver reduced by, and
    that pair's position among the stacked ones ``built``: the pair whose
    eigenbases move the stacked pairs onto the blocks ``record`` holds."""
    stack = np.array([padded[j] for j in built], dtype=complex)
    best = None
    for c, (gs, gt) in enumerate(stack):
        y_s = np.linalg.eigh(0.5 * (gs + herm(gs)))[1]
        y_t = np.linalg.eigh(0.5 * (gt + herm(gt)))[1]
        miss = max(np.max(np.abs(herm(y_s) @ stack[:, 0] @ y_s - record["h_s"])),
                   np.max(np.abs(herm(y_t) @ stack[:, 1] @ y_t - record["h_t"])))
        if best is None or miss < best[0]:
            best = (miss, y_s, y_t, c)
    miss, y_s, y_t, c = best
    assert miss <= 1e-12 * max(1.0, float(np.max(np.abs(stack))))
    return y_s, y_t, c


def _recording_systems(monkeypatch):
    """Patch ``_restricted_system`` to record the number of blocks of each
    system the solver builds, in the returned list."""
    blocks = []
    restricted = sl.equivalence._restricted_system

    def recorded(h_s, h_t, scales, keep):
        blocks.append(len(h_s))
        return restricted(h_s, h_t, scales, keep)

    monkeypatch.setattr(sl.equivalence, "_restricted_system", recorded)
    return blocks


class TestConjugatorOnPaddedPairs:
    """Repeats and scalar pairs change no outcome, margin or singular value."""

    def test_padding_reaches_both_kinds_of_drop(self, padded_corpus):
        assert len(padded_corpus) == 120
        assert {case[0] for case in padded_corpus} == set(CORPUS_KINDS)
        labels = [label for case in padded_corpus for label in case[2]]
        assert ("scalar", 1.0) in labels and ("scalar", 2.5) in labels
        assert any(len(_staying(case[2])) < len(case[2]) - 2 for case in padded_corpus)
        assert sum(1 for case in padded_corpus if case[6]) > len(padded_corpus) // 2

    def test_only_exact_scalar_pairs_leave(self, rng, monkeypatch):
        # (G, G) still constrains U to commute with G, and V (cI) V* differs
        # from cI in its last bits: both stay; (cI, cI) and repeats leave.
        # The head, the first two kept pairs, admits no unitary, so every
        # system after it stacks all three kept pairs
        g1, g2 = _gram(rng, 3), _gram(rng, 3)
        u, v = random_unitary(rng, 3), random_unitary(rng, 3)
        scalar = 2.5 * np.eye(3)
        rounded = v @ scalar @ herm(v)
        assert not np.array_equal(rounded, scalar)
        pairs = [(g1, u @ g1 @ herm(u)), (g2, g2), (g2, g2), (scalar, scalar),
                 (scalar, rounded)]
        blocks = _recording_systems(monkeypatch)
        sl.solve_joint_conjugator(pairs)
        assert blocks[0] == 2 and len(blocks) > 1 and set(blocks[1:]) == {3}

    def test_outcomes_match(self, padded_corpus):
        # as on the unpadded corpus: a near-threshold reference find may be
        # missed, never anything else
        bound = sl.DEFAULT_TOL.bound(1.0)
        exceptions = []
        for kind, padded, labels, unpadded, (outcome, residual, _), res, _ in padded_corpus:
            assert _outcome(res) == _outcome(unpadded), kind
            if res.certificate == "spectrum-mismatch":
                # named by its index in the padded list: the first copy
                assert res.pair_index == labels.index(("pair", unpadded.pair_index))
            if _outcome(res) == outcome:
                continue
            assert (outcome, _outcome(res)) == ("found", "inconclusive"), kind
            assert residual >= bound / 10, kind
            exceptions.append(kind)
        assert len(exceptions) <= 1
        for kind, padded, _, _, _, res, _ in padded_corpus:
            if res.unitary is not None:
                assert sl.is_unitary(res.unitary, sl.Tolerance(1e-8, 1e-8))
                assert _constraint_residual(res.unitary, padded) <= bound, kind

    def test_null_space_dimension_matches(self, padded_corpus):
        for kind, _, _, unpadded, (outcome, _, null_dim), res, _ in padded_corpus:
            if res.unitary is not None:
                assert res.nullspace_dim == unpadded.nullspace_dim, kind
                if outcome == "found":
                    assert res.nullspace_dim == null_dim, kind

    def test_cutoffs_count_every_padded_pair(self, padded_corpus):
        # the cutoffs rest on the pairs the system was built from, each
        # distinct pair once, unweighted: every kept pair, or the head when
        # its unitary passes them all
        rel = max(sl.DEFAULT_TOL.rel, 1e-11)
        checked = 0
        for kind, padded, labels, _, _, res, solved in padded_corpus:
            diag = res.diagnostics
            if "cutoff" not in diag:
                continue
            checked += 1
            record = solved[-1]         # the system the result rests on
            assert diag["columns_kept"] == np.count_nonzero(record["keep"])
            built = _built_from(labels, record, len(solved) == 1)
            if len(built) < len(_staying(labels)):
                assert res.unitary is not None and res.nullspace_dim == 1, kind
            kept = [padded[j] for j in built]
            norm_bound = _norm_bound(kept)
            if diag["tau"] is None:     # the full system: ||A|| is its top value
                top = np.linalg.svd(_stacked_system(kept), compute_uv=False)[0]
                assert diag["cutoff"] == diag["certify_cutoff"]
                assert diag["cutoff"] == pytest.approx(max(top, 1.0) * rel, rel=1e-13)
                continue
            cutoff = max(norm_bound, 1.0) * rel
            assert diag["cutoff"] == pytest.approx(cutoff, rel=1e-14), kind
            # the margin of the dropped entries, from the reducing pair's blocks
            _, _, c = _reducing_basis(padded, built, record)
            gs, gt = kept[c]
            h_s, h_t = record["h_s"][c], record["h_t"][c]
            leak = ((frob(h_t - np.diag(h_t.diagonal())) + frob(h_s - np.diag(h_s.diagonal())))
                    / max(frob(gs), frob(gt), 1.0))
            tau = max(sl.equivalence._TAU, 2.0 * (cutoff + leak))
            rho = (cutoff + leak) / tau
            assert diag["tau"] == pytest.approx(tau, rel=1e-12), kind
            assert diag["certify_cutoff"] == pytest.approx(
                (cutoff + norm_bound * rho) / math.sqrt(1.0 - rho * rho), rel=1e-12), kind
        assert checked > len(padded_corpus) // 2

    def test_padding_after_the_first_pair_changes_no_bit(self, differential_corpus):
        # with pair 0 first, the kept pairs are the unpadded list itself, so
        # the solver runs the same arithmetic on it
        padded_some = False
        for i, (kind, pairs, _, unpadded) in enumerate(differential_corpus[:300]):
            padded, labels = _padded(np.random.default_rng(i), pairs)
            start = labels.index(("pair", 0))
            padded, labels = padded[start:], labels[start:]
            padded_some |= len(padded) > len(pairs)
            res = sl.solve_joint_conjugator(padded, seed=i)
            assert res.certificate == unpadded.certificate, kind
            assert res.residual == unpadded.residual, kind
            assert res.nullspace_dim == unpadded.nullspace_dim, kind
            assert res.diagnostics == unpadded.diagnostics, kind
            if unpadded.unitary is None:
                assert res.unitary is None, kind
            else:
                assert np.array_equal(res.unitary, unpadded.unitary), kind
            first = None if unpadded.pair_index is None else labels.index(
                ("pair", unpadded.pair_index))
            assert res.pair_index == first, kind
        assert padded_some


class TestConjugatorCertificates:
    CONFLICTING = [(np.diag([1.0, 4.0]), np.diag([4.0, 1.0])),
                   (np.diag([9.0, 4.0]), np.diag([9.0, 4.0]))]

    def test_empty_nullspace_carries_its_margin(self):
        res = sl.solve_joint_conjugator(self.CONFLICTING)
        assert res.certificate == "empty-nullspace"
        diag = res.diagnostics
        assert set(diag) == {"cutoff", "certify_cutoff", "columns_kept", "tau"}
        assert diag["cutoff"] < diag["certify_cutoff"] < res.residual
        # recompute: the full system in the first pair's eigenbasis,
        # restricted to the kept entries X_ab
        gs1, gt1 = self.CONFLICTING[0]
        ls, ys = np.linalg.eigh(gs1)
        lt, yt = np.linalg.eigh(gt1)
        moved = [(herm(ys) @ gs @ ys, herm(yt) @ gt @ yt)
                 for gs, gt in self.CONFLICTING]
        gap = np.abs(lt[:, None] - ls[None, :]).ravel() / max(frob(gs1), frob(gt1), 1.0)
        kept = _stacked_system(moved)[:, gap <= diag["tau"]]
        assert kept.shape[1] == diag["columns_kept"]
        smallest = np.linalg.svd(kept, compute_uv=False)[-1]
        assert abs(smallest - res.residual) < 1e-12
        # dropping entries only raises the smallest singular value
        full = np.linalg.svd(_stacked_system(self.CONFLICTING), compute_uv=False)
        assert full[-1] <= res.residual + 1e-12

    def test_obstruction_reports_the_margin(self):
        diag = np.diag
        s = sl.BilateralShift(sl.EventuallyIdentityWeights(
            -1, [diag([3.0, 5.0]), diag([1.0, 2.0])]))
        t = sl.BilateralShift(sl.EventuallyIdentityWeights(
            -1, [diag([5.0, 3.0]), diag([1.0, 2.0])]))
        verdict = sl.decide_diagonal_equivalence(s, t, 0)
        assert verdict.is_not_equivalent
        ob = verdict.obstruction
        assert ob.kind == "conjugator-infeasible"
        assert ob.residual > ob.diagnostics["certify_cutoff"] > 0.0
        assert f"residual {ob.residual:.3e}" in verdict.summary()


def _moved_pairs(rng, dim, count):
    """``count`` random Gram pairs, moved into the eigenbases of the first
    pair as the solver moves them, and the solver's scale of each pair."""
    grams = [(_gram(rng, dim), _gram(rng, dim)) for _ in range(count)]
    _, y_s = np.linalg.eigh(grams[0][0])
    _, y_t = np.linalg.eigh(grams[0][1])
    moved = [(herm(y_s) @ gs @ y_s, herm(y_t) @ gt @ y_t) for gs, gt in grams]
    scales = np.array([max(frob(gs), frob(gt), 1.0) for gs, gt in moved])
    return moved, scales


class TestRestrictedSystem:
    """The scatter-filled restricted system and its QR-reduced SVD."""

    @pytest.mark.parametrize("dim", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("count", [1, 3, 8])
    @pytest.mark.parametrize("mask", ["random", "diagonal", "all"])
    def test_fill_equals_the_kronecker_columns(self, dim, count, mask):
        rng = np.random.default_rng(1000 * dim + 10 * count + len(mask))
        moved, scales = _moved_pairs(rng, dim, count)
        if mask == "random":
            keep = rng.random((dim, dim)) < 0.3
            keep[rng.integers(dim), rng.integers(dim)] = True
        else:
            keep = np.eye(dim, dtype=bool) if mask == "diagonal" else np.ones((dim, dim), bool)
        h_s = np.array([gs for gs, _ in moved])
        h_t = np.array([gt for _, gt in moved])
        system, rows, cols = sl.equivalence._restricted_system(h_s, h_t, scales, keep)
        assert np.array_equal(system, _stacked_system(moved)[:, keep.ravel()])
        assert np.array_equal(rows * dim + cols, np.flatnonzero(keep))

    @pytest.mark.parametrize("dim", [2, 4, 8, 12, 16])
    def test_scaling_is_bitwise_the_complex_quotient(self, dim):
        # the fill multiplies its float view by 1 / scales; on systems of the
        # decide workloads' sizes that gives, bit for bit, numpy's complex
        # division by the real scales
        rng = np.random.default_rng(dim)
        for count in (3, 8, 30):
            moved, scales = _moved_pairs(rng, dim, count)
            h_s = np.array([gs for gs, _ in moved])
            h_t = np.array([gt for _, gt in moved])
            for keep in (np.ones((dim, dim), bool), np.eye(dim, dtype=bool) | (
                    rng.random((dim, dim)) < 0.3)):
                raw, _, _ = sl.equivalence._restricted_system(h_s, h_t, np.ones(count), keep)
                system, _, _ = sl.equivalence._restricted_system(h_s, h_t, scales, keep)
                quotient = raw.reshape(count, dim, dim, -1) / scales[:, None, None, None]
                assert system.tobytes() == quotient.tobytes()

    def test_singular_values_match_the_system_svd(self, differential_corpus, padded_corpus,
                                                  monkeypatch):
        # every system the solver reduces, on the differential corpus
        original = sl.equivalence._right_singular
        seen = []

        def recorded(system):
            svals, vh = original(system)
            seen.append((system, svals, vh))
            return svals, vh

        monkeypatch.setattr(sl.equivalence, "_right_singular", recorded)
        for i, (_, pairs, _, res) in enumerate(differential_corpus):
            again = sl.solve_joint_conjugator(pairs, seed=i)
            assert _outcome(again) == _outcome(res)
        assert len(seen) > len(differential_corpus) // 2
        for system, svals, vh in seen:
            expected = np.linalg.svd(system, compute_uv=False)
            assert svals.shape == expected.shape == (system.shape[1],)
            assert np.max(np.abs(svals - expected)) <= 1e-13 * expected[0]
            # orthonormal right vectors, so the null-space basis stays orthonormal
            assert np.allclose(vh @ herm(vh), np.eye(len(vh)), atol=1e-12)
        # on the padded corpus, the system stacks one unweighted block per
        # pair it was built from, every kept pair or the head, and its
        # singular values are those of these pairs' blocks, moved into the
        # same eigenbases and restricted to the same entries
        checked = 0
        for _, padded, labels, _, _, _, solved in padded_corpus:
            dim = padded[0][0].shape[0]
            for i, record in enumerate(solved):
                built = _built_from(labels, record, i == 0)
                kept = [padded[j] for j in built]
                assert record["system"].shape == (len(kept) * dim * dim,
                                                  np.count_nonzero(record["keep"]))
                y_s, y_t, _ = _reducing_basis(padded, built, record)
                moved = [(herm(y_s) @ gs @ y_s, herm(y_t) @ gt @ y_t) for gs, gt in kept]
                full = _stacked_system(moved)[:, record["keep"].ravel()]
                expected = np.linalg.svd(full, compute_uv=False)
                # each block is scaled to norm at most 2, so a system of pairs
                # that agree to rounding is compared at that scale
                assert (np.max(np.abs(record["svals"] - expected))
                        <= 1e-13 * max(expected[0], 1.0))
                checked += 1
        assert checked > len(padded_corpus) // 2


class TestConjugatorScale:
    @pytest.mark.parametrize("dim", [8, 12, 16])
    def test_random_conjugation_recovered(self, rng, dim):
        u = random_unitary(rng, dim)
        pairs = [(g, u @ g @ herm(u)) for g in (_gram(rng, dim) for _ in range(8))]
        res = sl.solve_joint_conjugator(pairs, seed=dim)
        assert res.unitary is not None
        assert res.nullspace_dim == 1
        assert res.diagnostics["columns_kept"] < dim * dim
        for gs, gt in pairs:
            assert frob(herm(res.unitary) @ gt @ res.unitary - gs) \
                < 1e-8 * max(frob(gs), 1.0)
        # the conjugator is unique up to a phase
        phase = np.vdot(u, res.unitary) / dim
        assert frob(res.unitary - phase * u) < 1e-8


def _solved_on_every_pair(pairs, seed=0, tol=sl.DEFAULT_TOL):
    """The solver's stages past the screen on all of ``pairs``, which must
    all be kept, with spectra, scales and norm weights computed here as the
    solver computes them."""
    pairs = np.asarray(pairs, dtype=complex)
    spectra = np.array([np.linalg.eigvalsh(0.5 * (p + herm(p))) for p in pairs])
    norm_s, norm_t = (np.linalg.norm(pairs[:, i], axis=(1, 2)) for i in (0, 1))
    scales = np.maximum(np.maximum(norm_s, norm_t), 1.0)
    weights = ((norm_s + norm_t) / scales) ** 2
    return sl.equivalence._solve(pairs, spectra, scales, weights, tol, seed)


class TestConjugatorHead:
    """The head, the first two kept pairs, solved before the rest."""

    @pytest.mark.parametrize("dim", [2, 5, 16])
    def test_a_generic_family_is_solved_on_its_head(self, rng, monkeypatch, dim):
        u = random_unitary(rng, dim)
        pairs = [(g, u @ g @ herm(u)) for g in (_gram(rng, dim) for _ in range(6))]
        blocks = _recording_systems(monkeypatch)
        res = sl.solve_joint_conjugator(pairs)
        monkeypatch.undo()
        assert blocks == [2]
        assert res.unitary is not None and res.nullspace_dim == 1
        assert res.residual == _constraint_residual(res.unitary, pairs)
        assert res.residual <= sl.DEFAULT_TOL.bound(1.0)
        # the head system's cutoff, from the norms of its two pairs
        rel = max(sl.DEFAULT_TOL.rel, 1e-11)
        assert res.diagnostics["cutoff"] == pytest.approx(
            max(_norm_bound(pairs[:2]), 1.0) * rel, rel=1e-14)
        assert res.diagnostics["columns_kept"] < dim * dim
        phase = np.vdot(u, res.unitary) / dim
        assert frob(res.unitary - phase * u) < 1e-8

    @pytest.mark.parametrize("dim", [2, 5, 16])
    def test_a_later_pair_the_head_unitary_fails_is_solved_with_every_pair(
            self, rng, monkeypatch, dim):
        # pair 2 has the spectra of its conjugate by u but another conjugator:
        # the head's unitary fails it, and the system of all four pairs
        # certifies that no unitary exists, as if the head had not run
        u, v = random_unitary(rng, dim), random_unitary(rng, dim)
        grams = [_gram(rng, dim) for _ in range(4)]
        pairs = [(g, (v if i == 2 else u) @ g @ herm(v if i == 2 else u))
                 for i, g in enumerate(grams)]
        blocks = _recording_systems(monkeypatch)
        res = sl.solve_joint_conjugator(pairs)
        monkeypatch.undo()
        assert blocks == [2, 4]
        assert res.certificate == "empty-nullspace"
        diag = res.diagnostics
        rel = max(sl.DEFAULT_TOL.rel, 1e-11)
        assert diag["cutoff"] == pytest.approx(max(_norm_bound(pairs), 1.0) * rel, rel=1e-14)
        # recompute: the stacked system of every pair in the first pair's
        # eigenbasis, restricted to the kept entries X_ab
        gs1, gt1 = pairs[0]
        ls, ys = np.linalg.eigh(gs1)
        lt, yt = np.linalg.eigh(gt1)
        moved = [(herm(ys) @ gs @ ys, herm(yt) @ gt @ yt) for gs, gt in pairs]
        gap = np.abs(lt[:, None] - ls[None, :]).ravel() / max(frob(gs1), frob(gt1), 1.0)
        kept = _stacked_system(moved)[:, gap <= diag["tau"]]
        assert kept.shape[1] == diag["columns_kept"]
        smallest = np.linalg.svd(kept, compute_uv=False)[-1]
        assert abs(smallest - res.residual) <= 1e-12 * max(1.0, smallest)
        assert diag["cutoff"] < diag["certify_cutoff"] < res.residual

    @pytest.mark.parametrize("dim", [2, 5, 16])
    def test_a_commuting_head_leaves_the_unitary_of_every_pair(self, rng, monkeypatch, dim):
        # the head's Grams commute, so its null space holds every U D with D
        # diagonal in their common eigenbasis: the head settles nothing, and
        # the unitary is the one solved on every pair with a fresh generator
        u, q = random_unitary(rng, dim), random_unitary(rng, dim)
        head = [q @ np.diag(rng.uniform(1.0, 3.0, dim)) @ herm(q) for _ in range(2)]
        grams = head + [_gram(rng, dim) for _ in range(3)]
        pairs = [(g, u @ g @ herm(u)) for g in grams]
        blocks = _recording_systems(monkeypatch)
        res = sl.solve_joint_conjugator(pairs, seed=7)
        monkeypatch.undo()
        assert blocks[0] == 2 and len(blocks) > 1 and set(blocks[1:]) == {5}
        reference = _solved_on_every_pair(pairs, seed=7)
        assert res.unitary is not None
        assert np.array_equal(res.unitary, reference.unitary)
        assert (res.residual, res.nullspace_dim, res.diagnostics) == (
            reference.residual, reference.nullspace_dim, reference.diagnostics)


class TestConstructDiagonalIntertwiner:
    def test_equal_shifts_identity_anchor(self, rng):
        s = ei_shift(rng, lo=0, length=3)
        band = sl.diagonal_witness(s, s, 0, I2, -3, 5).band(0)
        for n in range(-4, 6):
            np.testing.assert_allclose(band.weight_at(n), I2, atol=1e-10)

    def test_scalar_weights_accumulate_phases(self):
        vals = [2.0 * cmath.exp(0.3j), 1.5 * cmath.exp(-1.1j),
                3.0 * cmath.exp(2.2j)]
        s = sl.BilateralShift(sl.EventuallyIdentityWeights(
            0, [np.array([[v]]) for v in vals]))
        t = sl.BilateralShift(sl.EventuallyIdentityWeights(
            0, [np.array([[abs(v)]]) for v in vals]))
        band = sl.diagonal_witness(s, t, 0, np.array([[1.0 + 0j]]), -2, 4).band(0)
        # upward from the anchor, each step divides by the weight phase
        phase = 1.0 + 0j
        for n in range(0, 3):
            phase *= abs(vals[n]) / vals[n]
            np.testing.assert_allclose(band.weight_at(n)[0, 0], phase, atol=1e-12)
        # beyond the support the entries stay constant
        np.testing.assert_allclose(band.weight_at(3), band.weight_at(4), atol=1e-12)

    def test_a_nan_anchor_is_not_unitary(self, rng):
        s = ei_shift(rng, lo=0, length=2)
        anchor = I2.copy()
        anchor[0, 1] = np.nan
        with pytest.raises(sl.PreconditionError, match="anchor matrix is not unitary"):
            sl.diagonal_witness(s, s, 0, anchor, -3, 4)

    def test_bad_anchor_reports_gram_violation(self, rng):
        s = ei_shift(rng, lo=0, length=2)
        t, _ = conjugated_shift(rng, s)
        bogus = random_unitary(rng, 2)
        try:
            witness = sl.diagonal_witness(s, t, 0, bogus, -3, 4)
        except sl.PreconditionError as err:
            assert err.index is not None
            return
        # a lucky anchor must still produce a verified witness
        assert sl.verify_intertwining(witness, s, t, -3, 4,
                                      sl.Tolerance(1e-8, 1e-8)).passed


class TestDecide:
    @pytest.mark.parametrize("scale,depth", [(1e30, 6), (1e160, 1)])
    def test_overflowing_grams_are_inconclusive(self, scale, depth):
        s = sl.BilateralShift(sl.PeriodicWeights([scale * I2]))
        verdict = sl.decide_diagonal_equivalence(s, s, 0)
        assert verdict.is_inconclusive
        assert verdict.reason.endswith(f"overflow the float range at depth {depth}")

    @pytest.mark.parametrize("variant", ["periodic", "eventually_identity", "windowed"])
    @pytest.mark.parametrize("scale", [1e-170, 1e-300, 5e-324])
    def test_tiny_scalar_weights_decide_without_error(self, variant, scale):
        # the norms of these weights underflow; the witness recursion divides
        # by them, and at 5e-324 its entries come out non-finite
        def shift(c):
            weights = {"periodic": lambda w: sl.PeriodicWeights([w]),
                       "eventually_identity": lambda w: sl.EventuallyIdentityWeights(0, [w]),
                       "windowed": lambda w: sl.WindowedWeights(-3, [w] * 7)}[variant]
            return sl.BilateralShift(weights(c * I2))
        verdict = sl.decide_diagonal_equivalence(shift(scale), shift(scale), 0)
        if scale == 5e-324:
            assert verdict.is_inconclusive
            assert "not unitary" in verdict.reason
        else:
            assert verdict.is_equivalent
            assert verdict.witness_report.passed
        assert not sl.decide_diagonal_equivalence(shift(scale), shift(2 * scale), 0).is_equivalent

    def test_large_finite_grams_still_decide(self):
        s = sl.BilateralShift(sl.PeriodicWeights([1e10 * I2]))
        assert sl.decide_diagonal_equivalence(s, s, 0).is_equivalent

    @pytest.mark.parametrize("window", [(5, 1), (0, -1)])
    def test_reversed_window_rejected_up_front(self, rng, window):
        s = ei_shift(rng, lo=0, length=2)
        with pytest.raises(ValueError, match="hi must be >= lo"):
            sl.decide_diagonal_equivalence(s, s, 0, window=window)

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
        # the singular-value screen refutes at the perturbed row, naming the
        # operator norm when the top value moved, before any Gram chain
        kinds = set()
        for k in range(8):
            s = ei_shift(rng, lo=0, length=3)
            t, _ = conjugated_shift(rng, s)
            t_bad = perturb_one_singular_value(rng, t, factor=1.2)
            verdict = sl.decide_diagonal_equivalence(s, t_bad, 0, seed=k)
            assert verdict.is_not_equivalent
            lo, hi = t.weights.described_range()
            (row,) = [n for n in range(lo, hi + 1) if t_bad.weight(n) is not t.weight(n)]
            moved = np.abs(np.linalg.svd(t_bad.weight(row), compute_uv=False)
                           - np.linalg.svd(s.weight(row), compute_uv=False)) > 1e-8
            kind = "norm-profile" if moved[0] else "singular-values"
            assert (verdict.obstruction.kind, verdict.obstruction.index) == (kind, row)
            kinds.add(kind)
        assert kinds == {"norm-profile", "singular-values"}

    def test_obstruction_recomputes(self, rng):
        ex = sl.load_example("counterexample-sec2")
        s, t = ex.shifts["S"], ex.shifts["T"]
        verdict = sl.decide_diagonal_equivalence(s, t, 0)
        assert verdict.is_not_equivalent
        ob = verdict.obstruction
        assert ob.kind == "gram-spectrum"
        gs, gt = sl.gram_chains(s, t, 0, max(ob.index, 1))[ob.index - 1]
        es = np.sort(np.linalg.eigvalsh(gs))
        et = np.sort(np.linalg.eigvalsh(gt))
        gap = np.max(np.abs(es - et))
        assert abs(gap - ob.residual) < 1e-9
        assert gap > 10 * sl.DEFAULT_TOL.bound(max(es.max(), et.max()))

    def test_backward_refutation_after_forward_repeats_is_named(self, rng):
        # S is stored on rows -3..1, so every forward product from depth 2 on
        # is S_1 S_0 and its Gram pair repeats; T_n = V_n S_n V_{n-1}* except
        # that T_{-1} has the right factor W, so only the backward chain,
        # from T_{-1} T_{-2} on, refutes
        dim = 3
        s_w = [random_invertible(rng, dim) for _ in range(5)]
        v = {n: random_unitary(rng, dim) for n in range(-4, 2)}
        w = random_unitary(rng, dim)
        t_w = [v[n] @ s_w[n + 3] @ herm(w if n == -1 else v[n - 1]) for n in range(-3, 2)]
        s = sl.BilateralShift(sl.EventuallyIdentityWeights(-3, s_w))
        t = sl.BilateralShift(sl.EventuallyIdentityWeights(-3, t_w))
        depth = _decision_scope(s, t, 0)[2]
        pairs = sl.gram_chains(s, t, 0, depth)
        assert all(np.array_equal(pairs[n], pairs[1]) for n in range(2, depth))
        # the first refuted pair, from a test-side eigvalsh of every pair
        first = None
        for direction in ("forward", "backward"):
            acc = {"S": np.eye(dim), "T": np.eye(dim)}
            for n in range(1, depth + 1):
                spectra = []
                for name, shift in (("S", s), ("T", t)):
                    row = shift.weight(n - 1) if direction == "forward" else herm(shift.weight(-n))
                    acc[name] = row @ acc[name]
                    spectra.append(np.linalg.eigvalsh(herm(acc[name]) @ acc[name]))
                gap = float(np.max(np.abs(spectra[0] - spectra[1])))
                scale = max(float(np.max(np.abs(spectra))), 1.0)
                if first is None and sl.DEFAULT_TOL.refutes(gap, scale):
                    first = (direction, n)
        assert first == ("backward", 2)
        verdict = sl.decide_diagonal_equivalence(s, t, 0)
        assert verdict.is_not_equivalent
        ob = verdict.obstruction
        assert (ob.kind, ob.index) == ("gram-spectrum", first[1])
        assert ob.detail == f"{first[0]} product Gram spectra differ at depth {first[1]}"

    @pytest.mark.parametrize("dim,length,m", [(2, 3, 1), (4, 3, -2), (8, 3, 0),
                                              (12, 2, -1), (16, 1, 1)])
    def test_decide_grid_style_equivalent_pairs(self, rng, dim, length, m):
        # eventually-identity pairs sized as the benchmark's: their Gram
        # chains repeat past the stored rows, and the null space the solver
        # finds is that of the full stacked system
        s = ei_shift(rng, dim=dim, lo=m, length=length)
        t, _ = conjugated_shift(rng, s, m=m)
        _, (lo, hi), depth, _ = _decision_scope(s, t, m)
        pairs = sl.gram_chains(s, t, m, depth)
        assert any(np.array_equal(a, b) for a, b in zip(pairs[1:], pairs[:-1]))
        verdict = sl.decide_diagonal_equivalence(s, t, m)
        assert verdict.is_equivalent and verdict.offset == m
        assert verdict.witness_report.passed
        assert sl.verify_intertwining(verdict.witness, s, t, lo, hi,
                                      sl.Tolerance(1e-8, 1e-10)).passed
        found = sl.solve_joint_conjugator(pairs)
        outcome, _, null_dim = reference_conjugator(pairs)
        assert (outcome, found.nullspace_dim) == ("found", null_dim)

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

    @pytest.mark.parametrize("window", [None, (4, 10)])
    def test_window_without_row_zero_is_inconclusive(self, rng, window):
        # the Gram chains start at the anchor rows 0 and -1, which rows 3..12 lack
        s = sl.BilateralShift(sl.WindowedWeights(
            3, [random_invertible(rng) for _ in range(10)]))
        verdict = sl.decide_diagonal_equivalence(s, s, 0, window=window, seed=0)
        assert verdict.is_inconclusive
        assert "index 0 outside stored window [3, 12]" in verdict.reason
        scan = sl.decide_diagonal_equivalence_scan(s, s, -1, 1, window=window, seed=0)
        assert scan.is_inconclusive and "index 0" in scan.reason

    def test_window_past_the_stored_rows_is_inconclusive(self, rng):
        # the chains fit in rows -5..4, the witness on the window (-3, 8) does not
        s = sl.BilateralShift(sl.WindowedWeights(
            -5, [random_invertible(rng) for _ in range(10)]))
        assert sl.decide_diagonal_equivalence(s, s, 0, seed=0).is_equivalent
        verdict = sl.decide_diagonal_equivalence(s, s, 0, window=(-3, 8), seed=0)
        assert verdict.is_inconclusive
        assert "witness construction failed: index 5 outside stored window" in verdict.reason

    def test_window_without_a_full_period_of_margin_is_inconclusive(self, rng):
        # period 3: the window [0, 1] holds witness rows -1..1, fewer than a
        # period plus one, so the certificate has nothing to compare
        s = sl.BilateralShift(sl.PeriodicWeights([random_invertible(rng) for _ in range(3)]))
        verdict = sl.decide_diagonal_equivalence(s, s, 0, window=(0, 1))
        assert verdict.is_inconclusive
        assert verdict.reason.endswith("window leaves no margin to compare a full period")
        assert sl.decide_diagonal_equivalence(s, s, 0, window=(0, 3)).is_equivalent

    def test_uncertified_search_failure_is_inconclusive(self, rng, monkeypatch):
        s = ei_shift(rng, lo=0, length=3)
        monkeypatch.setattr(sl.equivalence, "solve_joint_conjugator",
                            lambda pairs, tol, seed: sl.ConjugatorResult(None, nullspace_dim=3))
        verdict = sl.decide_diagonal_equivalence(s, s, 0)
        assert verdict.is_inconclusive
        assert verdict.reason == ("conjugator search exhausted without certificate "
                                  "(nullspace dim 3)")

    def test_failed_reverification_is_inconclusive(self, rng, monkeypatch):
        # the witness is re-verified against T with doubled weights, which it
        # cannot intertwine
        s = ei_shift(rng, lo=0, length=3)
        t, _ = conjugated_shift(rng, s)
        doubled = sl.BilateralShift(sl.EventuallyIdentityWeights(
            -1, [2.0 * t.weight(n) for n in range(-1, 4)]))
        verify = sl.equivalence.verify_intertwining
        monkeypatch.setattr(sl.equivalence, "verify_intertwining",
                            lambda w, s_, t_, lo, hi, tol: verify(w, s_, doubled, lo, hi, tol))
        verdict = sl.decide_diagonal_equivalence(s, t, 0)
        assert verdict.is_inconclusive
        assert verdict.reason == "constructed witness failed re-verification"


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

    def test_empty_screen_names_a_lower_singular_value(self, rng):
        # at offset 1 the operator norms agree on every row: only a smallest
        # singular value refutes it; 1 is the last offset of [0, 1] in |m|
        # order, so the scan returns the decision at 1
        s, t = lower_pair(rng, "eventually_identity", defects=1)
        assert sl.norm_offset_screen(s, t, -3, 3, -9, 9) == set()
        verdict = sl.decide_diagonal_equivalence_scan(s, t, 0, 1)
        alone = sl.decide_diagonal_equivalence(s, t, 1)
        assert verdict.is_not_equivalent and verdict.offset == 1
        assert verdict.obstruction.kind == "singular-values"
        # the row named is the defect: its smallest singular value is scaled
        n = verdict.obstruction.index
        sv_s, sv_t = (np.linalg.svd(w, compute_uv=False) for w in (s.weight(n + 1),
                                                                   t.weight(n)))
        np.testing.assert_allclose(sv_t, sv_s * [1.0, 1.0, 0.7])
        assert verdict.obstruction == alone.obstruction

    def test_reversed_range_refutes_nothing(self, rng):
        # an empty offset range must not come back as a certified verdict
        s = ei_shift(rng, lo=0, length=2)
        with pytest.raises(ValueError):
            sl.decide_diagonal_equivalence_scan(s, s, 2, -2)

    @pytest.mark.parametrize("window", [(5, 1), (0, -1)])
    def test_reversed_window_rejected_up_front(self, rng, window):
        # before any offset is screened or decided, not as an empty weight list
        s = ei_shift(rng, lo=0, length=2)
        with pytest.raises(ValueError, match="hi must be >= lo"):
            sl.decide_diagonal_equivalence_scan(s, s, -1, 1, window=window)

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


class TestPeriodicCertificate:
    def _pair(self, rng, scale=1.0):
        s = sl.BilateralShift(sl.EventuallyIdentityWeights(
            0, [random_unitary(rng) for _ in range(3)]), "S")
        t = sl.BilateralShift(sl.PeriodicWeights([scale * I2]), "T")
        return s, t

    def test_unitary_support_against_identity_at_every_offset(self, rng):
        # V_n = V_{n-1} S_{n+m}^{-1} is a unitary intertwiner at every offset;
        # the certificate's margins lie beyond S's span in witness rows n,
        # where S's index is n + m
        s, t = self._pair(rng)
        for m in range(-3, 4):
            verdict = sl.decide_diagonal_equivalence(s, t, m)
            assert verdict.is_equivalent, (m, verdict.reason)
            band = verdict.witness.band(m)
            first, hi = band.described_range()
            lo, hi = first + 1 - 10, hi + 10
            wide = sl.diagonal_witness(s, t, m, band.weight_at(-1), lo, hi)
            assert sl.verify_intertwining(wide, s, t, lo, hi).passed
            entries, present = wide.band(m).rows(lo - 1, hi)
            assert present.all() and sl.is_unitary(entries).all()

    def test_scaled_identity_is_never_equivalent(self, rng):
        s, t = self._pair(rng, scale=1.1)
        for m in range(-3, 4):
            assert not sl.decide_diagonal_equivalence(s, t, m).is_equivalent

    def test_entries_are_compared_in_one_pass(self, rng, monkeypatch):
        # both margins read the comparisons of one Tolerance.close call
        s = sl.BilateralShift(sl.PeriodicWeights([random_invertible(rng) for _ in range(3)]))
        calls = []
        close = sl.Tolerance.close
        monkeypatch.setattr(sl.Tolerance, "close",
                            lambda tol, x, y: calls.append(len(x)) or close(tol, x, y))
        assert sl.decide_diagonal_equivalence(s, s, 0).is_equivalent
        lo, hi = _decision_scope(s, s, 0)[1]
        assert calls == [hi - lo + 2 - 3]

    @pytest.mark.parametrize("period", [2, 3])
    def test_mixed_pair_certified_at_every_offset(self, rng, period):
        # T_n = V_n V_{n-1}* is periodic and unitary, so both shifts are
        # equivalent to F at every offset; with a margin of 2 rows around the
        # spans the window held too few rows past S's span for the periodic
        # certificate, and offsets m <= 0 were inconclusive
        s, _ = self._pair(rng)
        v = [random_unitary(rng) for _ in range(period)]
        t = sl.BilateralShift(sl.PeriodicWeights(
            [v[i] @ herm(v[i - 1]) for i in range(period)]), "T")
        squeezed = sl.BilateralShift(sl.PeriodicWeights(
            [v[i] @ np.diag([1.0, 0.7]) @ herm(v[i - 1]) for i in range(period)]), "T")
        for m in range(-4, 5):
            verdict = sl.decide_diagonal_equivalence(s, t, m)
            assert verdict.is_equivalent, (m, verdict.reason)
            assert sl.decide_diagonal_equivalence(s, squeezed, m).is_not_equivalent


def ref_auto_window(s, t, m):
    """The window rule as it stood in its own function, kept as reference."""
    periods = [x.weights.period for x in (s, t)
               if isinstance(x.weights, sl.PeriodicWeights)]
    period = math.lcm(*periods) if periods else None
    spans = []
    for shift, delta in ((s, -m), (t, 0)):
        rng = shift.weights.described_range()
        if rng is not None:
            spans.append((rng[0] + delta, rng[1] + delta))
    margin = 2 if period is None else max(2, period + 1)
    lo = min((a for a, _ in spans), default=0) - margin
    hi = max((b for _, b in spans), default=0) + margin
    if period is not None:
        lo = min(lo, -period - 2)
        hi = max(hi, period + 2)
    if isinstance(t.weights, sl.WindowedWeights):
        a, b = t.weights.described_range()
        lo, hi = max(lo, a), min(hi, b)
    if isinstance(s.weights, sl.WindowedWeights):
        a, b = s.weights.described_range()
        lo, hi = max(lo, a - m), min(hi, b - m)
    if hi < lo:
        raise sl.PreconditionError("no usable decision window")
    return (lo, hi)


def ref_auto_depth(s, t, m):
    """The depth rule as a reference.  Without a periodic weight it is exact:
    the forward chain reaches the last described row and the backward chain
    the first, ``max(hi - base + 1, base - lo)`` over the described ranges.
    With one, the largest reach from the base row plus 4 plus twice the
    combined period.  Either is capped at the rows a windowed shift stores."""
    reaches, exact = [], []
    for shift, base in ((s, m), (t, 0)):
        rng = shift.weights.described_range()
        if rng is not None:
            reaches.append(max(rng[1] - base, base - rng[0], 0))
            exact.append(max(rng[1] - base + 1, base - rng[0]))
    periods = [x.weights.period for x in (s, t)
               if isinstance(x.weights, sl.PeriodicWeights)]
    if periods:
        desired = 2 * math.lcm(*periods) + 4 + (max(reaches) if reaches else 0)
    else:
        desired = max(exact)
    caps = []
    for shift, base in ((s, m), (t, 0)):
        if isinstance(shift.weights, sl.WindowedWeights):
            a, b = shift.weights.described_range()
            caps.append(b - base + 1)
            caps.append(base - a)
    if caps:
        desired = min(desired, min(caps))
    return max(desired, 1)


VARIANTS = ("periodic", "eventually_identity", "windowed")


def _described_shift(variant, lo, length):
    weights = [np.eye(1)] * length
    if variant == "periodic":
        return sl.BilateralShift(sl.PeriodicWeights(weights))
    if variant == "eventually_identity":
        return sl.BilateralShift(sl.EventuallyIdentityWeights(lo, weights))
    return sl.BilateralShift(sl.WindowedWeights(lo, weights))


class TestDecisionScope:
    @pytest.mark.parametrize("variants", list(itertools.product(VARIANTS, repeat=2)))
    @settings(max_examples=120, deadline=None)
    @given(lo_s=st.integers(-12, 12), len_s=st.integers(1, 8),
           lo_t=st.integers(-12, 12), len_t=st.integers(1, 8), m=st.integers(-10, 10))
    def test_matches_the_reference_rules(self, variants, lo_s, len_s, lo_t, len_t, m):
        s = _described_shift(variants[0], lo_s, len_s)
        t = _described_shift(variants[1], lo_t, len_t)
        depth = ref_auto_depth(s, t, m)
        try:
            window = ref_auto_window(s, t, m)
        except sl.PreconditionError:
            with pytest.raises(sl.PreconditionError, match="no usable decision window"):
                _decision_scope(s, t, m)
        else:
            assert _decision_scope(s, t, m)[1:3] == (window, depth)
        # a given window is kept, never raises, and leaves the depth automatic
        spans, window, got_depth, period = _decision_scope(s, t, m, window=(0, 0))
        assert (window, got_depth) == ((0, 0), depth)
        expected = []
        for x, delta in ((s, m), (t, 0)):          # witness rows: S's index minus m
            rng = x.weights.described_range()
            if rng is not None:
                expected.append((rng[0] - delta, rng[1] - delta))
        assert spans == expected
        periods = [x.weights.period for x in (s, t) if x.weights.variant == "periodic"]
        assert period == (math.lcm(*periods) if periods else None)
        assert _decision_scope(s, t, m, window=(0, 0), depth=3)[2] == 3


def _exactness_pair(seed, dim, lo, length, m, kind, windowed):
    """An eventually-identity S on rows lo..lo+length-1 and a T built from
    it: equivalent to S at offset m ("conjugate"), with the singular values
    of S at offset m but independent unitary factors ("twisted"), or
    conjugate with one singular value scaled ("defect").  ``windowed`` names
    the shift ("s" or "t") stored instead as windowed on its span plus a
    margin of identity rows, or is None."""
    rng = np.random.default_rng(seed)
    s = ei_shift(rng, dim, lo, length)
    t, _ = conjugated_shift(rng, s, m)
    if kind == "twisted":
        t = sl.BilateralShift(sl.EventuallyIdentityWeights(t.weights.lo, [
            random_unitary(rng, dim) @ w @ random_unitary(rng, dim)
            for w in t.weights._weights]))
    elif kind == "defect":
        t = perturb_one_singular_value(rng, t)
    if windowed is not None:
        pad = int(rng.integers(0, 4))
        x = s if windowed == "s" else t
        eye = [np.eye(dim)] * pad
        x = sl.BilateralShift(sl.WindowedWeights(x.weights.lo - pad,
                                                 eye + list(x.weights._weights) + eye))
        s, t = (x, t) if windowed == "s" else (s, x)
    return s, t


def _decide_recording(s, t, m, depth=None):
    """The verdict of ``decide`` and the ``nullspace_dim`` of each
    conjugator search it ran."""
    solve, found = sl.equivalence.solve_joint_conjugator, []

    def recorded(pairs, **kwargs):
        found.append(solve(pairs, **kwargs))
        return found[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sl.equivalence, "solve_joint_conjugator", recorded)
        verdict = sl.decide_diagonal_equivalence(s, t, m, depth=depth)
    return verdict, [res.nullspace_dim for res in found]


def _verdict_fields(verdict):
    ob = verdict.obstruction
    return (verdict.status, verdict.offset, ob and ob.kind, ob and ob.index)


EXACTNESS_PAIRS = dict(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4),
                       lo=st.integers(-6, 6), length=st.integers(1, 4),
                       m=st.integers(-3, 3),
                       kind=st.sampled_from(["conjugate", "twisted", "defect"]))


class TestExactDepth:
    """Without a periodic weight the automatic depth is exact: past it every
    Gram pair repeats the last one of its direction."""

    @settings(max_examples=80, deadline=None)
    @given(**EXACTNESS_PAIRS)
    def test_deeper_pairs_repeat_the_last_automatic_pair(self, seed, dim, lo, length, m,
                                                         kind):
        s, t = _exactness_pair(seed, dim, lo, length, m, kind, None)
        depth = _decision_scope(s, t, m)[2]
        chains = sl.gram_chains(s, t, m, depth)
        deeper = sl.gram_chains(s, t, m, depth + 3)
        for j in (0, 1):                # forward, then backward
            assert np.array_equal(deeper[j * (depth + 3):][:depth],
                                  chains[j * depth:][:depth])
            for n in range(depth, depth + 3):
                assert np.array_equal(deeper[j * (depth + 3) + n],
                                      chains[j * depth + depth - 1])
        verdict, nulls = _decide_recording(s, t, m)
        again, nulls_again = _decide_recording(s, t, m, depth=depth + 5)
        assert _verdict_fields(again) == _verdict_fields(verdict)
        assert nulls_again == nulls
        if kind == "conjugate":
            assert verdict.is_equivalent
        elif kind == "defect":
            assert verdict.is_not_equivalent

    @settings(max_examples=60, deadline=None)
    @given(windowed=st.sampled_from(["s", "t"]), **EXACTNESS_PAIRS)
    def test_a_windowed_shift_caps_it_at_its_stored_rows(self, seed, dim, lo, length, m,
                                                         kind, windowed):
        # no deeper pair exists: the chains one row past the cap need a row
        # the stored window lacks, so a deeper decision is settled by the
        # screen or is inconclusive
        s, t = _exactness_pair(seed, dim, lo, length, m, kind, windowed)
        spans, _, depth, _ = _decision_scope(s, t, m)
        a, b = spans[0] if windowed == "s" else spans[1]
        assert depth == max(min(max(max(y + 1, -x) for x, y in spans), b + 1, -a), 1)
        with pytest.raises(sl.WindowAccessError):
            sl.gram_chains(s, t, m, depth + 3)
        verdict, _ = _decide_recording(s, t, m)
        again, _ = _decide_recording(s, t, m, depth=depth + 5)
        if verdict.is_not_equivalent and verdict.obstruction.kind in ("norm-profile",
                                                                       "singular-values"):
            assert _verdict_fields(again) == _verdict_fields(verdict)
        else:
            assert again.is_inconclusive and "stored windows lack" in again.reason


# --- batched readers against per-row reference loops -------------------------
#
# The screens, the norm profile and the positive form read whole windows at
# once through ``WeightSequence.rows``; the references below read one row at
# a time through ``has_index``/``weight``.

def ref_profile_mismatch(s, t, k, lo, hi, tol=sl.DEFAULT_TOL):
    """First (n, kind, |gap|) on rows both store where a singular value of
    ``S_{n+k}`` differs from that of ``T_n``, beyond the bound at the larger
    top value; the first differing value names the kind."""
    for n in range(lo, hi + 1):
        if not (s.weights.has_index(n + k) and t.weights.has_index(n)):
            continue
        a = np.linalg.svd(s.weight(n + k), compute_uv=False)
        b = np.linalg.svd(t.weight(n), compute_uv=False)
        for j in range(s.dim):
            gap = float(abs(a[j] - b[j]))
            if gap > tol.bound(max(a[0], b[0])):
                return n, "singular-values" if j else "norm-profile", gap
    return None


def ref_eigen_moduli(s, t, k, lo, hi, tol=sl.DEFAULT_TOL):
    """((n, gap, passed) checks, skipped rows), or ("not normal", name, n)."""
    checks, skipped = [], []
    for n in range(lo, hi + 1):
        if not (s.weights.has_index(n + k) and t.weights.has_index(n)):
            skipped.append(n)
            continue
        ws, wt = s.weight(n + k), t.weight(n)
        for name, w in (("S", ws), ("T", wt)):
            if not is_normal(w, tol):
                return "not normal", name, n
        ms = np.sort(np.abs(np.linalg.eigvals(ws)))
        mt = np.sort(np.abs(np.linalg.eigvals(wt)))
        gap = float(np.max(np.abs(ms - mt)))
        checks.append((n, gap, gap <= tol.bound(max(ms.max(), mt.max(), 1.0))))
    return checks, skipped


def ref_positive_form(s, lo, hi):
    """(positive weights, diagonal entries on lo-1..hi, max residual)."""
    polar = {}
    for n in range(lo, hi + 1):
        if sl.matrices.condition_ratio(s.weight(n)) <= 1e-10:
            raise sl.ConditioningError(f"weight at n={n}", index=n)
        polar[n] = sl.polar_decompose(s.weight(n))
    anchor = min(max(0, lo - 1), hi)
    v = {anchor: np.eye(s.dim, dtype=complex)}
    for n in range(anchor + 1, hi + 1):
        v[n] = polar[n][0] @ v[n - 1]
    for n in range(anchor, lo - 1, -1):
        v[n - 1] = herm(polar[n][0]) @ v[n]
    weights, res = [], 0.0
    for n in range(lo, hi + 1):
        tn = herm(v[n - 1]) @ polar[n][1] @ v[n - 1]
        tn = 0.5 * (tn + herm(tn))
        weights.append(tn)
        res = max(res, frob(herm(v[n]) @ s.weight(n) - tn @ herm(v[n - 1])))
    return weights, [herm(v[n]) for n in range(lo - 1, hi + 1)], res


def _normal_weight(rng, dim=2):
    u = random_unitary(rng, dim)
    return u @ np.diag(rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) @ herm(u)


def gapped_pair(rng, normal=False, defects=1, lo_s=-6, hi_s=9, lo_t=-3, hi_t=12):
    """Windowed S on [lo_s, hi_s] and T on [lo_t, hi_t] with
    ``T_n = U_n S_{n+1} U_n*`` (same norms and moduli at offset 1) where S
    stores row n + 1, fresh weights elsewhere, and ``defects`` rows of T
    replaced.  The spans overlap only in part, so every window has gaps."""
    make = _normal_weight if normal else random_invertible
    s_w = [make(rng) for _ in range(lo_s, hi_s + 1)]
    t_w = []
    for n in range(lo_t, hi_t + 1):
        if lo_s <= n + 1 <= hi_s:
            u = random_unitary(rng)
            t_w.append(u @ s_w[n + 1 - lo_s] @ herm(u))
        else:
            t_w.append(make(rng))
    for row in rng.choice(len(t_w), size=defects, replace=False):
        t_w[row] = make(rng)
    return (sl.BilateralShift(sl.WindowedWeights(lo_s, s_w), label="S"),
            sl.BilateralShift(sl.WindowedWeights(lo_t, t_w), label="T"))


def lower_pair(rng, variant, defects=1, dim=3):
    """S of the given variant with six stored rows from -2 (periodic: from
    0), and T with ``T_n = U_n S_{n+1} W_n*`` wherever S defines row n + 1,
    so the pair has the same singular values at offset 1, except that
    ``defects`` stored rows of T have their smallest singular value scaled
    by 0.7.  A windowed T stores rows -5..4, past S's window at both ends."""
    mats = [random_invertible(rng, dim) for _ in range(6)]
    if variant == "periodic":
        s, t_lo, t_hi = sl.PeriodicWeights(mats), 0, 5
    else:
        s = getattr(sl, {"eventually_identity": "EventuallyIdentityWeights",
                         "windowed": "WindowedWeights"}[variant])(-2, mats)
        t_lo, t_hi = (-5, 4) if variant == "windowed" else (-3, 2)
    t_w = [random_unitary(rng, dim) @ s.weight_at(n + 1) @ random_unitary(rng, dim)
           if s.has_index(n + 1) else random_invertible(rng, dim)
           for n in range(t_lo, t_hi + 1)]
    for row in rng.choice(len(t_w), size=defects, replace=False):
        x, sv, yh = np.linalg.svd(t_w[row])
        sv[-1] *= 0.7
        t_w[row] = x @ np.diag(sv) @ yh
    t = (sl.PeriodicWeights(t_w) if variant == "periodic" else
         type(s)(t_lo, t_w))
    return sl.BilateralShift(s, label="S"), sl.BilateralShift(t, label="T")


WINDOWS = [(-10, 15), (-4, 8), (0, 0), (10, 20), (-20, -12), (3, 2)]
VARIANTS = ["periodic", "eventually_identity", "windowed"]


class TestBatchedReadersAgainstRowLoops:
    @pytest.mark.parametrize("defects", [0, 1, 3])
    def test_norm_offset_screen(self, rng, defects):
        # gapped windowed pairs, and pairs of each variant that differ only
        # in a smallest singular value; offsets -3..3 reach rows a windowed
        # S or T lacks
        lower = 0
        for _ in range(10):
            pairs = [gapped_pair(rng, defects=defects),
                     *(lower_pair(rng, variant, defects) for variant in VARIANTS)]
            for s, t in pairs:
                for lo, hi in WINDOWS:
                    mism = {k: ref_profile_mismatch(s, t, k, lo, hi) for k in range(-3, 4)}
                    expected = {k for k, found in mism.items() if found is None}
                    assert sl.norm_offset_screen(s, t, -3, 3, lo, hi) == expected
                    lower += mism[1] is not None and mism[1][1] == "singular-values"
        assert (lower > 50) == (defects > 0)

    def test_norm_screen_of_the_decision(self, rng):
        refuted = {"norm-profile": 0, "singular-values": 0}
        for i in range(20):
            for s, t in (gapped_pair(rng, defects=2), lower_pair(rng, VARIANTS[i % 3], 2)):
                for k in (-1, 0, 1):
                    for lo, hi in WINDOWS[:4]:
                        mism = ref_profile_mismatch(s, t, k, lo, hi)
                        verdict = sl.decide_diagonal_equivalence(s, t, k, depth=1,
                                                                  window=(lo, hi))
                        o = verdict.obstruction
                        if mism is None:
                            assert o is None or o.kind not in refuted
                        else:
                            refuted[mism[1]] += 1
                            assert (o.index, o.kind, o.residual) == mism
        assert min(refuted.values()) > 20

    def test_norm_screen_across_row_blocks(self, rng):
        # spans longer than ``_BLOCK_ROWS``, so the profiles are read in blocks
        s, t = gapped_pair(rng, defects=2, lo_s=-300, hi_s=900, lo_t=-250, hi_t=1000)
        for lo, hi in [(-400, 1100), (0, 700), (-260, -250)]:
            expected = {k for k in range(-2, 3)
                        if ref_profile_mismatch(s, t, k, lo, hi) is None}
            assert sl.norm_offset_screen(s, t, -2, 2, lo, hi) == expected
        profile = sl.weight_norm_profile(s, -300, 900)
        np.testing.assert_allclose(
            profile, [np.linalg.norm(s.weight(n), 2) for n in range(-300, 901)], rtol=1e-15)

    @pytest.mark.parametrize("defects", [0, 2])
    def test_eigen_moduli_screen(self, rng, defects):
        for _ in range(10):
            s, t = gapped_pair(rng, normal=True, defects=defects)
            for k in (0, 1, 2):
                for lo, hi in WINDOWS:
                    checks, skipped = ref_eigen_moduli(s, t, k, lo, hi)
                    rep = sl.eigen_moduli_screen(s, t, k, lo, hi)
                    assert [c.index for c in rep.checks] == [n for n, _, _ in checks]
                    assert [c.passed for c in rep.checks] == [p for _, _, p in checks]
                    np.testing.assert_allclose([c.residual for c in rep.checks],
                                               [g for _, g, _ in checks], atol=1e-14)
                    assert [x.index for x in rep.skipped] == skipped
                    assert {c.condition for c in rep.checks + rep.skipped} <= {"eigen_moduli"}

    def test_eigen_moduli_screen_names_the_first_non_normal_weight(self, rng):
        s, t = gapped_pair(rng, normal=True, defects=0)

        def spoiled(shift, row):
            w = dict(shift.weights.described_items())
            w[row] = random_invertible(rng)      # generic, hence not normal
            return sl.BilateralShift(sl.WindowedWeights(shift.weights.lo,
                                                        [w[n] for n in sorted(w)]))

        # T alone, S alone, and both at the same row n (S_{n+1} and T_n)
        for pair in ((s, spoiled(t, 4)), (spoiled(s, 3), t), (spoiled(s, 3), spoiled(t, 2))):
            for k in (0, 1):
                expected = ref_eigen_moduli(*pair, k, -10, 15)
                with pytest.raises(sl.PreconditionError) as err:
                    sl.eigen_moduli_screen(*pair, k, -10, 15)
                assert expected[0] == "not normal"
                assert str(err.value) == f"{expected[1]}-weight at n={expected[2]} is not normal"
                assert err.value.index == expected[2]

    def test_weight_norm_profile(self, rng):
        s, _ = gapped_pair(rng)
        for shift in (s, ei_shift(rng, lo=-2, length=5),
                      sl.BilateralShift(sl.PeriodicWeights([random_invertible(rng)
                                                            for _ in range(3)]))):
            np.testing.assert_allclose(
                sl.weight_norm_profile(shift, -6, 9),
                [np.linalg.norm(shift.weight(n), 2) for n in range(-6, 9 + 1)], rtol=1e-15)
        with pytest.raises(sl.WindowAccessError) as err:
            sl.weight_norm_profile(s, -2, 12)
        assert err.value.index == 10

    @pytest.mark.parametrize("window", [(-6, 9), (-4, 3), (2, 2), (-9, 0), (5, 12)])
    def test_positive_form(self, rng, window):
        lo, hi = window
        for s in (gapped_pair(rng)[0], ei_shift(rng, lo=-2, length=5)):
            try:
                expected = ref_positive_form(s, lo, hi)
            except IndexError as exc:            # WindowAccessError
                with pytest.raises(type(exc)) as err:
                    sl.positive_form(s, lo, hi)
                assert err.value.index == exc.index
                continue
            form = sl.positive_form(s, lo, hi)
            weights, diagonal, res = expected
            got = [w for _, w in form.shift.weights.described_items()]
            np.testing.assert_allclose(got, weights, atol=1e-13)
            got = [w for _, w in form.diagonal.band(0).described_items()]
            np.testing.assert_allclose(got, diagonal, atol=1e-13)
            assert abs(form.max_residual - res) < 1e-13

    def test_positive_form_names_the_first_bad_row(self, rng):
        # an ill-conditioned row before the missing ones is reported first
        mats = [random_invertible(rng) for _ in range(6)]
        mats[2] = np.diag([1.0, 1e-14])
        s = sl.BilateralShift(sl.WindowedWeights(0, mats))
        with pytest.raises(sl.ConditioningError) as err:
            sl.positive_form(s, 0, 9)
        assert err.value.index == 2
        with pytest.raises(sl.WindowAccessError) as err:
            sl.positive_form(s, -3, 9)
        assert err.value.index == -3


def conjugate_pair(rng, variant, m, dim=2):
    """S of the given variant and T with ``T_n = V_n S_{n+m} V_{n-1}*`` for
    unitaries V_n: of S's period 3 for periodic S, constant past the stored
    rows for eventually-identity S, and on the rows -2-m..3-m, where S_{n+m}
    is stored, for windowed S (rows -2..3)."""
    if variant == "eventually_identity":
        s = ei_shift(rng, dim, lo=-2, length=6)
        return s, conjugated_shift(rng, s, m)[0]
    mats = [random_invertible(rng, dim) for _ in range(6 if variant == "windowed" else 3)]
    if variant == "periodic":
        s = sl.BilateralShift(sl.PeriodicWeights(mats), "S")
        v = [random_unitary(rng, dim) for _ in range(3)]
        t_w = [v[n] @ s.weight(n + m) @ herm(v[n - 1]) for n in range(3)]
        return s, sl.BilateralShift(sl.PeriodicWeights(t_w), "T")
    s = sl.BilateralShift(sl.WindowedWeights(-2, mats), "S")
    v = {n: random_unitary(rng, dim) for n in range(-3 - m, 4 - m)}
    t_w = [v[n] @ s.weight(n + m) @ herm(v[n - 1]) for n in range(-2 - m, 4 - m)]
    return s, sl.BilateralShift(sl.WindowedWeights(-2 - m, t_w), "T")


def by_abs_offset(k_min, k_max):
    return sorted(range(k_min, k_max + 1), key=lambda k: (abs(k), -k))


def verdict_fields(verdict):
    """Everything a verdict states but its witness: status, offset, the
    obstruction in every field, and the reason."""
    return verdict.status, verdict.offset, verdict.obstruction, verdict.reason


class TestScanVerdictIsADecision:
    """A scan returns one of its decisions' verdicts, unchanged."""

    @pytest.mark.parametrize("window", [None, (-3, 4)])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_scan_invariants(self, rng, variant, window):
        seen = {status: 0 for status in sl.VerdictStatus}
        for _ in range(2):
            pairs = [conjugate_pair(rng, variant, 1), lower_pair(rng, variant, 0, dim=2),
                     lower_pair(rng, variant, 1, dim=2)]
            for s, t in pairs:
                for k_min, k_max in [(-3, 3), (0, 2), (1, 3), (-3, -1)]:
                    verdict = sl.decide_diagonal_equivalence_scan(s, t, k_min, k_max,
                                                                  window=window)
                    seen[verdict.status] += 1
                    # the verdict is the decision at an offset of the range
                    assert k_min <= verdict.offset <= k_max
                    alone = sl.decide_diagonal_equivalence(s, t, verdict.offset, None,
                                                           window)
                    assert verdict_fields(verdict) == verdict_fields(alone)
                    if verdict.is_not_equivalent and verdict.obstruction.kind in (
                            "norm-profile", "singular-values"):
                        assert isinstance(verdict.obstruction.index, int)
                    # the rule over every offset decided alone
                    each = [sl.decide_diagonal_equivalence(s, t, k, window=window)
                            for k in by_abs_offset(k_min, k_max)]
                    first = next((v for v in each if v.is_equivalent), None)
                    if first is not None:
                        assert verdict.is_equivalent and verdict.offset == first.offset
                    elif any(v.is_inconclusive for v in each):
                        assert verdict.is_inconclusive
                    else:
                        assert verdict.is_not_equivalent
        assert seen[sl.VerdictStatus.NOT_EQUIVALENT] > 0
        if window is None:
            assert seen[sl.VerdictStatus.EQUIVALENT] > 0

    @pytest.mark.parametrize("singular", ["S", "T"])
    @pytest.mark.parametrize("screen_leaves", [True, False])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_singular_weights_raise(self, rng, variant, screen_leaves, singular):
        # as ``decide`` does, whether or not the screen leaves an offset to decide
        mats = [random_invertible(rng) for _ in range(3)]
        mats[1] = np.diag([1.0, 0.0])
        make = {"periodic": sl.PeriodicWeights,
                "eventually_identity": functools.partial(sl.EventuallyIdentityWeights, 0),
                "windowed": functools.partial(sl.WindowedWeights, 0)}[variant]
        bad = sl.BilateralShift(make(mats))
        other = sl.BilateralShift(make([w * (1.0 if screen_leaves else 3.0) for w in mats]))
        s, t = (bad, other) if singular == "S" else (other, bad)
        assert bool(sl.norm_offset_screen(s, t, -2, 2, -12, 12)) == screen_leaves
        with pytest.raises(sl.ConditioningError):
            sl.decide_diagonal_equivalence_scan(s, t, -2, 2)


class TestScanSkipsOffsetsWithoutAWindow:
    """T stores rows -1..1 and S rows 2..4 with the same weights, so
    ``S_{n+3} = T_n``; at offset m the stored windows overlap only for
    1 <= m <= 5."""

    S = sl.BilateralShift(sl.WindowedWeights(2, [c * np.eye(1) for c in (2.0, 3.0, 5.0)]))
    T = sl.BilateralShift(sl.WindowedWeights(-1, [c * np.eye(1) for c in (2.0, 3.0, 5.0)]))

    def test_a_one_offset_scan_is_the_decision(self):
        verdict = sl.decide_diagonal_equivalence_scan(self.S, self.T, 3, 3)
        alone = sl.decide_diagonal_equivalence(self.S, self.T, 3)
        assert alone.is_equivalent
        assert verdict_fields(verdict) == verdict_fields(alone)
        assert verdict.witness_report.max_residual == alone.witness_report.max_residual

    @pytest.mark.parametrize("k_min, k_max", [(-1, 3), (0, 3), (-5, 5), (3, 7)])
    def test_offsets_without_a_window_are_passed_over(self, k_min, k_max):
        verdict = sl.decide_diagonal_equivalence_scan(self.S, self.T, k_min, k_max)
        assert verdict.is_equivalent and verdict.offset == 3

    @pytest.mark.parametrize("k_min, k_max", [(1, 2), (4, 9), (-3, 2)])
    def test_refuted_scans_name_an_offset_with_a_window(self, k_min, k_max):
        verdict = sl.decide_diagonal_equivalence_scan(self.S, self.T, k_min, k_max)
        assert verdict.is_not_equivalent and 1 <= verdict.offset <= 5
        alone = sl.decide_diagonal_equivalence(self.S, self.T, verdict.offset)
        assert verdict_fields(verdict) == verdict_fields(alone)

    @pytest.mark.parametrize("k_min, k_max", [(-3, 0), (6, 8), (0, 0)])
    def test_a_range_without_any_window_raises(self, k_min, k_max):
        message = f"no usable decision window at any offset in \\[{k_min}, {k_max}\\]"
        with pytest.raises(sl.PreconditionError, match=message):
            sl.decide_diagonal_equivalence_scan(self.S, self.T, k_min, k_max)

    def test_a_given_window_is_used_at_every_offset(self):
        # with a window every offset is decided, as ``decide`` decides it
        verdict = sl.decide_diagonal_equivalence_scan(self.S, self.T, -1, 3, window=(-1, 1))
        assert verdict.is_equivalent and verdict.offset == 3


# Moduli of the dim-1 pairs: a few of order one, and a few near the
# invertibility threshold, each at least a factor 1.5 from the next.
D1_MODULI = (0.5, 1.0, 2.0, 3.0,
             *(k * sl.INVERTIBILITY_THRESHOLD for k in (0.5, 1.0, 2.0)))


def _d1_shift(variant, lo, moduli, phases):
    weights = [np.array([[r * cmath.exp(1j * phi)]]) for r, phi in zip(moduli, phases)]
    if variant == "periodic":
        return sl.BilateralShift(sl.PeriodicWeights(weights))
    if variant == "eventually_identity":
        return sl.BilateralShift(sl.EventuallyIdentityWeights(lo, weights))
    return sl.BilateralShift(sl.WindowedWeights(lo, weights))


@st.composite
def d1_pairs(draw):
    """(S, T, m): T drawn on its own, or with the moduli of S_{n+m} at its
    rows n (equivalent), maybe with one modulus redrawn (a near miss)."""
    moduli = st.lists(st.sampled_from(D1_MODULI), min_size=1, max_size=4)
    m, lo = draw(st.integers(-2, 2)), draw(st.integers(-4, 2))
    variant, mod_s = draw(st.sampled_from(VARIANTS)), draw(moduli)
    if draw(st.booleans()):
        variant_t, lo_t = variant, lo - m
        mod_t = [mod_s[(n + m) % len(mod_s)] for n in range(len(mod_s))] \
            if variant == "periodic" else list(mod_s)
        if draw(st.booleans()):
            mod_t[draw(st.integers(0, len(mod_t) - 1))] = draw(st.sampled_from(D1_MODULI))
    else:
        variant_t, lo_t, mod_t = (draw(st.sampled_from(VARIANTS)), draw(st.integers(-4, 2)),
                                  draw(moduli))
    phases = st.floats(0.0, 2 * math.pi)
    s = _d1_shift(variant, lo, mod_s, [draw(phases) for _ in mod_s])
    t = _d1_shift(variant_t, lo_t, mod_t, [draw(phases) for _ in mod_t])
    return s, t, m


class TestD1Oracle:
    """dim-1 decisions against Shields' criterion (``d1_oracle``):
    ``|S_{n+m}| = |T_n|`` for every n, or every n of the window."""

    @settings(max_examples=400, deadline=None)
    @given(d1_pairs())
    def test_no_certificate_contradicts_the_oracle(self, pair):
        s, t, m = pair
        rows = oracle_rows(s, t, m)
        if not rows:
            with pytest.raises(sl.PreconditionError, match="no usable decision window"):
                sl.decide_diagonal_equivalence(s, t, m)
            return
        verdict = sl.decide_diagonal_equivalence(s, t, m)
        truth = oracle_decide(s, t, m)
        if not verdict.is_inconclusive:
            assert verdict.status.value == truth
            return
        # The two known gaps.  ROADMAP item 14: an equivalent pair with a
        # periodic shift, whose witness need not repeat with the period.
        # Item 4: a windowed pair whose stored windows lack row 0 or -1,
        # where the Gram chains are anchored.
        kinds = {type(x.weights) for x in (s, t)}
        periodic_gap = (truth == EQUIVALENT and sl.PeriodicWeights in kinds
                        and "periodic horizon" in verdict.reason)
        anchor_gap = (sl.WindowedWeights in kinds and not (-1 in rows and 0 in rows)
                      and "anchored at row 0" in verdict.reason)
        assert periodic_gap or anchor_gap, (truth, verdict.reason)
