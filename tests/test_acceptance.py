"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a single PASS line on success (visible with ``pytest -s``
or in the captured output); the test name carries the criterion number so a
plain ``pytest -v`` run shows one pass/fail line per criterion as well.
"""

import time

import numpy as np
import pytest

import shiftlab as sl
from shiftlab.cli import cli_main
from shiftlab.matrices import frob, herm

from conftest import (
    conjugated_shift,
    ei_shift,
    multi_band_unitary,
    perturb_one_singular_value,
    s_val,
    two_band_unitary,
)
from u2_oracle import oracle_decide, oracle_depth, oracle_gram_pairs, spectra_gap

I2 = np.eye(2, dtype=complex)


def _announce(number, text):
    print(f"criterion {number} PASS: {text}")


def test_criterion_1_two_band_intertwiner_reproduction():
    start = time.perf_counter()
    ex = sl.load_example("ex31")
    s, t, u = ex.shifts["S"], ex.shifts["T"], ex.operators["U"]
    unit = sl.verify_unitary_two_band(u, -12, 12)
    inter = sl.verify_intertwining(u, s, t, -12, 12)
    elapsed = time.perf_counter() - start
    assert unit.passed and unit.max_residual < 1e-10
    assert inter.passed and inter.max_residual < 1e-10
    assert elapsed < 1.0
    _announce(1, f"two-band unitarity and US=TU on [-12, 12], max residual "
                 f"{max(unit.max_residual, inter.max_residual):.2e}, "
                 f"{elapsed:.3f}s")


def test_criterion_2_norm_obstruction():
    ex = sl.load_example("ex31")
    s, t = ex.shifts["S"], ex.shifts["T"]
    sqrt2 = np.sqrt(2.0)
    s_norms = sl.weight_norm_profile(s, -10, 10)
    s_gap = max(abs(v - sqrt2 * abs(s_val(n)))
                for v, n in zip(s_norms, range(-10, 11)))
    assert s_gap < 1e-10
    t_norms = sl.weight_norm_profile(t, -10, 10)
    t_gap = max(abs(v - sqrt2 * max(abs(s_val(n - 1)), abs(s_val(n + 1))))
                for v, n in zip(t_norms, range(-10, 11)))
    assert t_gap < 1e-10
    feasible = sl.norm_offset_screen(s, t, -8, 8, -4, 4)
    assert feasible == set()
    verdict = sl.decide_diagonal_equivalence(s, t, 0, window=(-4, 4))
    assert verdict.is_not_equivalent
    scan = sl.decide_diagonal_equivalence_scan(s, t, -5, 5, window=(-4, 4))
    assert scan.is_not_equivalent
    _announce(2, f"norm profiles match (gaps {s_gap:.2e}/{t_gap:.2e}), "
                 f"screen empty on [-8, 8], decision not_equivalent")


def test_criterion_3_positive_form():
    rng = np.random.default_rng(31)
    worst_norm_gap = 0.0
    worst_intertwine = 0.0
    min_eig = np.inf
    for _ in range(200):
        length = int(rng.integers(1, 6))
        lo = int(rng.integers(-3, 3))
        s = ei_shift(rng, dim=2, lo=lo, length=length)
        lo_w, hi_w = lo - 1, lo + length
        form = sl.positive_form(s, lo_w, hi_w)
        for n in range(lo_w, hi_w + 1):
            tn = form.shift.weight(n)
            min_eig = min(min_eig, float(np.linalg.eigvalsh(tn).min()))
            worst_norm_gap = max(worst_norm_gap,
                                 abs(np.linalg.norm(tn, 2)
                                     - np.linalg.norm(s.weight(n), 2)))
        worst_intertwine = max(worst_intertwine, form.max_residual)
        rep = sl.verify_intertwining(form.diagonal, s, form.shift, lo_w, hi_w,
                                     sl.Tolerance(rel=1e-8, abs=1e-10))
        assert rep.passed
    assert min_eig > 0.0
    assert worst_norm_gap < 1e-8
    assert worst_intertwine < 1e-8

    worst_scalar = 0.0
    for _ in range(50):
        vals = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        vals[np.abs(vals) < 0.1] = 1.0
        s1 = sl.BilateralShift(sl.WindowedWeights(
            -1, [np.array([[v]]) for v in vals]))
        form = sl.positive_form(s1, -1, 2)
        for n, v in zip(range(-1, 3), vals):
            worst_scalar = max(worst_scalar,
                               abs(form.shift.weight(n)[0, 0] - abs(v)))
    assert worst_scalar < 1e-12
    _announce(3, f"200 positive forms: min eigenvalue {min_eig:.3f} > 0, "
                 f"norm gap {worst_norm_gap:.2e}, conjugation residual "
                 f"{worst_intertwine:.2e}, scalar moduli gap "
                 f"{worst_scalar:.2e}")


def test_criterion_4_three_band_example():
    ex = sl.load_example("ex33-three-band")
    u, s = ex.operators["U"], ex.shifts["S"]
    unit = sl.verify_unitary_three_band(u, -10, 10)
    assert unit.passed
    assert unit.max_residual < 1e-12
    for n in range(-10, 11):
        np.testing.assert_allclose(
            s.weight(n), ((-1) ** (n % 2)) * np.array([[0, 1], [1, 0]]),
            atol=0)
    inter = sl.verify_intertwining(u, s, s, -10, 10)
    assert inter.passed and inter.max_residual < 1e-12
    _announce(4, f"three-band unitarity ({unit.max_residual:.2e}) and US=SU "
                 f"({inter.max_residual:.2e}) on [-10, 10]")


def test_criterion_5_decision_soundness_round_trip():
    rng = np.random.default_rng(51)
    for k in range(100):
        s = ei_shift(rng, dim=2, lo=int(rng.integers(-2, 2)),
                     length=int(rng.integers(1, 4)))
        t, _ = conjugated_shift(rng, s, diagonal=True)
        verdict = sl.decide_diagonal_equivalence(s, t, 0, seed=k)
        assert verdict.is_equivalent, f"instance {k}: {verdict.summary()}"
        assert verdict.witness_report.passed
        assert verdict.witness_report.max_residual < 1e-8
        band = verdict.witness.band(0)
        for _, w in band.described_items():
            assert frob(herm(w) @ w - I2) < 1e-8
    for k in range(100):
        s = ei_shift(rng, dim=2, lo=int(rng.integers(-2, 2)),
                     length=int(rng.integers(1, 4)))
        t, _ = conjugated_shift(rng, s, diagonal=True)
        factor = 1.12 if k % 2 else 0.88
        t_bad = perturb_one_singular_value(rng, t, factor=factor)
        verdict = sl.decide_diagonal_equivalence(s, t_bad, 0, seed=k)
        assert verdict.is_not_equivalent, f"instance {k}: {verdict.summary()}"
    _announce(5, "100 diagonal conjugations equivalent with verified "
                 "witnesses; 100 spectrum perturbations refuted")


def _discrete_weight(rng):
    values = np.array([0, 1, -1, 2, -2, 1j, -1j], dtype=complex)
    while True:
        m = rng.choice(values, size=(2, 2))
        if np.abs(np.linalg.det(m)) >= 0.99:
            return m


def _discrete_shift(rng):
    length = int(rng.integers(1, 4))
    return sl.BilateralShift(sl.EventuallyIdentityWeights(
        0, [_discrete_weight(rng) for _ in range(length)]))


def test_criterion_6_oracle_agreement():
    rng = np.random.default_rng(61)
    corpus = []
    while len(corpus) < 25:
        s = _discrete_shift(rng)
        t, _ = conjugated_shift(rng, s, diagonal=bool(rng.integers(0, 2)))
        corpus.append((s, t))
    rejected = 0
    while len(corpus) < 50:
        s = _discrete_shift(rng)
        t = _discrete_shift(rng)
        pairs = oracle_gram_pairs(s, t, 0, oracle_depth(s, t, 0))
        if spectra_gap(pairs) <= 1e-3:
            rejected += 1
            assert rejected < 200, "generator failed to find certified pairs"
            continue
        corpus.append((s, t))

    disagreements = []
    for idx, (s, t) in enumerate(corpus):
        status, info = oracle_decide(s, t, 0)
        verdict = sl.decide_diagonal_equivalence(s, t, 0, seed=idx)
        decided = verdict.status.value
        if verdict.is_inconclusive or decided != status:
            disagreements.append((idx, decided, status, info.get("route")))
    assert not disagreements, f"oracle disagreements: {disagreements}"
    _announce(6, "decision agrees with the U(2)-grid oracle on all 50 "
                 "instances (25 equivalent, 25 not)")


def test_criterion_7_moduli_screen_not_sufficient():
    ex = sl.load_example("counterexample-sec2")
    s, t = ex.shifts["S"], ex.shifts["T"]
    np.testing.assert_allclose(s.weight(0), np.diag([2.0, 1.0]))
    np.testing.assert_allclose(t.weight(0), np.diag([1.0, 2.0]))
    np.testing.assert_allclose(s.weight(1), np.diag([3.0, 2.0]))
    np.testing.assert_allclose(t.weight(1), np.diag([3.0, 2.0]))
    screen = sl.eigen_moduli_screen(s, t, 0, -3, 4)
    assert screen.passed
    verdict = sl.decide_diagonal_equivalence(s, t, 0)
    assert verdict.is_not_equivalent
    assert verdict.obstruction.kind == "gram-spectrum"
    _announce(7, "eigenvalue-moduli screen passes at offset 0 yet the "
                 "decision is not_equivalent (necessary, not sufficient)")


def test_criterion_8_structure_theorems_randomized():
    rng = np.random.default_rng(81)
    for _ in range(100):
        dim = int(rng.integers(2, 4))
        k1 = int(rng.integers(-2, 2))
        k2 = k1 + int(rng.integers(1, 3))
        u = two_band_unitary(rng, dim=dim, k1=k1, k2=k2, span=(-7, 7))
        assert sl.verify_unitary_two_band(u, -3, 3).passed
        assert sl.check_two_band_structure(u, -3, 3).passed
    for _ in range(40):
        dim = int(rng.integers(2, 5))
        count = int(rng.integers(1, dim + 1))
        offsets = sorted(rng.choice(np.arange(-3, 4), size=count,
                                    replace=False).tolist())
        u = multi_band_unitary(rng, dim, offsets, span=(-7, 7))
        rep = sl.check_band_count_bound(u, dim, -3, 3)
        assert rep.passed
        assert rep.context["effective_band_count"] <= dim
    _announce(8, "100 two-band unitaries satisfy the structure "
                 "consequences; band counts never exceed the dimension")


def test_criterion_9_five_entry_block_obstruction(tmp_path):
    report = sl.run_example("five-entry-block")
    assert report.all_expected
    assert report.exit_code() == 1
    prop = [c for c in report.checks if c.name == "diagonal_propagation"][0]
    failures = [c for c in prop.details["report"]["checks"] if not c["passed"]]
    assert failures and all(isinstance(c["index"], int) for c in failures)
    assert cli_main(["example", "five-entry-block", "--quiet",
                     "--json", str(tmp_path / "r.json")]) == 1
    _announce(9, "mixed-support diagonals detected with a named index; "
                 "exit code 1 through the CLI")
