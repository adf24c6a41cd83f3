"""Window reports hold their checks as columns: every reading of a report
agrees with the same records held in plain lists."""

import dataclasses
import json

import numpy as np
import pytest

import shiftlab as sl
from shiftlab import bands
from shiftlab.bands import _emit

from conftest import (
    ei_shift,
    multi_band_unitary,
    random_matrix,
    random_unitary,
    two_band_unitary,
)


class PlainReport:
    """The report read from plain lists of records, one loop per reading."""

    def __init__(self, rep):
        self.lo, self.hi, self.context = rep.lo, rep.hi, rep.context
        self.checks, self.skipped = list(rep.checks), list(rep.skipped)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self):
        return max((c.residual for c in self.checks), default=0.0)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def first_failure(self):
        bad = self.failures()
        return bad[0] if bad else None

    def summary(self):
        state = "pass" if self.passed else "FAIL"
        head = (f"[{state}] window [{self.lo}, {self.hi}]: "
                f"{len(self.checks)} checks, {len(self.skipped)} skipped, "
                f"max residual {self.max_residual:.3e}")
        worst = self.first_failure()
        if worst is not None:
            head += f"; first failure {worst.condition} at n={worst.index}"
        return head

    def to_jsonable(self):
        return {
            "window": [self.lo, self.hi],
            "passed": self.passed,
            "max_residual": self.max_residual,
            "checks": [{"condition": c.condition, "index": c.index,
                        "residual": c.residual, "passed": c.passed} for c in self.checks],
            "skipped": [{"condition": s.condition, "index": s.index, "reason": s.reason}
                        for s in self.skipped],
            "context": self.context,
        }


def same(a, b):
    """Equal, records compared field by field and NaN equal to NaN."""
    def plain(x):
        if isinstance(x, list):
            return [plain(v) for v in x]
        return dataclasses.astuple(x) if dataclasses.is_dataclass(x) else x
    return json.dumps(plain(a), sort_keys=True) == json.dumps(plain(b), sort_keys=True)


def assert_matches_plain_lists(rep):
    plain = PlainReport(rep)
    assert same(list(rep.checks), [rep.checks[i] for i in range(len(rep.checks))])
    assert same(list(rep.skipped), [rep.skipped[i] for i in range(len(rep.skipped))])
    assert rep.passed == plain.passed
    assert same(rep.max_residual, plain.max_residual)
    assert same(rep.failures(), plain.failures())
    assert same(rep.first_failure(), plain.first_failure())
    assert rep.summary() == plain.summary()
    out = rep.to_jsonable()
    assert same(out, plain.to_jsonable())
    for c in out["checks"]:
        assert (type(c["index"]), type(c["residual"]), type(c["passed"])) == (int, float, bool)
    for s in out["skipped"]:
        assert type(s["index"]) is int
    for c in rep.checks:
        assert (type(c.index), type(c.residual), type(c.passed)) == (int, float, bool)


def windowed(u, lo, hi):
    """Copy of u with every band stored on [lo, hi] only."""
    return sl.BandedOperator({k: sl.WindowedWeights(lo, [
        u.band(k).weight_at(n) for n in range(lo, hi + 1)]) for k in u.offsets})


def perturbed(rng, u, k, n):
    """Copy of u, every band windowed, with entry n of band k moved."""
    bands_ = {}
    for kk in u.offsets:
        lo, hi = u.band(kk).described_range()
        bands_[kk] = sl.WindowedWeights(lo, [
            u.band(kk).weight_at(i) + (1e-3 * random_matrix(rng, u.dim) if (kk, i) == (k, n)
                                       else 0) for i in range(lo, hi + 1)])
    return sl.BandedOperator(bands_)


def normal_shift(rng, lo, count, moduli=None):
    weights = []
    for _ in range(count):
        q = random_unitary(rng)
        lam = (moduli if moduli is not None else rng.uniform(0.5, 2.0, 2)) \
            * np.exp(2j * np.pi * rng.random(2))
        weights.append(q @ np.diag(lam) @ q.conj().T)
    return sl.BilateralShift(sl.WindowedWeights(lo, weights))


def reports(rng):
    """(name, report) for every producer on clean, truncated and defective
    input, including an empty window."""
    ex31 = sl.load_example("ex31")
    s31, t31, u31 = ex31.shifts["S"], ex31.shifts["T"], ex31.operators["U"]
    two = two_band_unitary(rng, dim=2, k1=-1, k2=1, span=(-6, 6))
    three = multi_band_unitary(rng, 3, (-1, 0, 1), span=(-6, 6))
    s = ei_shift(rng, lo=-1, length=3)
    eye = sl.identity_operator(2)
    wide = two_band_unitary(rng, dim=2, k1=0, k2=1, span=(-10, 10))
    ns = normal_shift(rng, -6, 13)
    out = [
        ("intertwining/clean", sl.verify_intertwining(u31, s31, t31, -8, 8)),
        ("intertwining/truncated", sl.verify_intertwining(windowed(eye, -3, 3), s, s, -6, 6)),
        ("intertwining/defective",
         sl.verify_intertwining(perturbed(rng, windowed(eye, -5, 5), 0, 1), s, s, -4, 4)),
        ("intertwining/empty", sl.verify_intertwining(eye, s, s, 3, 2)),
        ("propagation/clean", sl.check_diagonal_propagation(u31, s31, t31, -8, 8)),
        ("propagation/truncated", sl.check_diagonal_propagation(windowed(u31, -3, 3),
                                                                lo=-6, hi=6)),
        ("propagation/defective", sl.check_diagonal_propagation(
            sl.load_example("five-entry-block").operators["U"], lo=-4, hi=4)),
        ("propagation/empty", sl.check_diagonal_propagation(u31, lo=3, hi=2)),
        ("count/clean", sl.check_band_count_bound(u31, 2, -5, 5)),
        ("count/truncated", sl.check_band_count_bound(two, 2, -9, 9)),
        ("count/defective", sl.check_band_count_bound(sl.BandedOperator(
            {k: sl.PeriodicWeights([np.diag(d).astype(complex)])
             for k, d in ((-1, [1.0, 0.0]), (0, [0.0, 1.0]), (1, [1.0, 0.0]))}), 2, -3, 3)),
        ("conjugate/clean", sl.conjugate_to_shift(eye, s, -5, 5).report),
        ("conjugate/truncated", sl.conjugate_to_shift(two, s, -9, 9).report),
        ("conjugate/defective", sl.conjugate_to_shift(wide, s, -6, 6).report),
        ("eigen_moduli/clean", sl.eigen_moduli_screen(ns, ns, 0, -6, 6)),
        ("eigen_moduli/truncated", sl.eigen_moduli_screen(ns, ns, 1, -9, 9)),
        ("eigen_moduli/defective", sl.eigen_moduli_screen(
            ns, normal_shift(rng, -6, 13, moduli=np.array([3.0, 4.0])), 0, -6, 6)),
    ]
    unitary = {"banded": sl.verify_unitary_banded, "two_band": sl.verify_unitary_two_band,
               "structure": sl.check_two_band_structure}
    for name, verify in unitary.items():
        out += [(f"{name}/clean", verify(two, -3, 3)),
                (f"{name}/truncated", verify(two, -9, 9)),
                (f"{name}/empty", verify(two, 3, 2))]
        if name != "structure":     # a defect there is a precondition error
            out.append((f"{name}/defective", verify(perturbed(rng, two, 1, 0), -3, 3)))
    out += [("three_band/clean", sl.verify_unitary_three_band(three, -3, 3)),
            ("three_band/truncated", sl.verify_unitary_three_band(three, -9, 9)),
            ("three_band/defective",
             sl.verify_unitary_three_band(perturbed(rng, three, 0, 0), -3, 3))]
    return out


def test_every_producer_reads_as_plain_lists(rng):
    seen = set()
    for name, rep in reports(rng):
        assert_matches_plain_lists(rep)
        kind = name.split("/")[1]
        seen.add((kind, bool(rep.checks), bool(rep.skipped), rep.passed))
    # the cases reach checks, skips and failures
    assert ("truncated", True, True, True) in seen
    assert any(kind == "defective" and not passed for kind, _, _, passed in seen)
    assert ("empty", False, False, True) in seen


@pytest.mark.parametrize("row_major", [True, False])
def test_emit_order_and_values_match_a_row_loop(rng, row_major):
    """``_emit`` against the loop it replaces, on random masks over windows
    longer than a block, with non-finite residuals included."""
    for count in (0, 1, 7, bands._BLOCK_ROWS + 5):
        conds = 4
        mask = rng.random((conds, count)) < 0.6
        res = rng.random((conds, count))
        res[rng.random((conds, count)) < 0.05] = np.nan
        res[rng.random((conds, count)) < 0.05] = np.inf
        passed = rng.random((conds, count)) < 0.8
        names = [f"c{c}" for c in range(conds)]
        lo = int(rng.integers(-50, 50))
        rep = sl.WindowReport(lo, lo + count - 1)
        _emit(rep.checks, names, mask, row_major, res, passed)
        _emit(rep.skipped, names, ~mask, row_major)
        pairs = ([(c, r) for r in range(count) for c in range(conds)] if row_major
                 else [(c, r) for c in range(conds) for r in range(count)])
        assert same(list(rep.checks), [
            sl.ConditionCheck(names[c], lo + r, float(res[c, r]), bool(passed[c, r]))
            for c, r in pairs if mask[c, r]])
        assert [(s.condition, s.index) for s in rep.skipped] == [
            (names[c], lo + r) for c, r in pairs if not mask[c, r]]
        assert_matches_plain_lists(rep)


def test_leading_nan_residual_is_the_maximum():
    # as Python's max over the records: a NaN first wins, a NaN later is passed over
    for res, expected in (([np.nan, 2.0, 1.0], "NaN"), ([1.0, np.nan, 2.0], "2.0")):
        rep = sl.WindowReport(0, 2)
        _emit(rep.checks, ["c"], np.ones((1, 3), dtype=bool), True,
              np.array([res]), np.zeros((1, 3), dtype=bool))
        assert json.dumps(rep.max_residual) == expected
        assert_matches_plain_lists(rep)


def test_reading_counts_and_json_builds_no_record(rng, monkeypatch):
    made = []
    real = bands.ConditionCheck

    def counting(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(bands, "ConditionCheck", counting)
    u = two_band_unitary(rng, dim=2, k1=-1, k2=1, span=(-40, 40))
    rep = sl.verify_unitary_banded(u, -30, 30)
    assert len(rep.checks) > 100 and rep.passed
    rep.to_jsonable()
    rep.summary()
    assert rep.failures() == [] and rep.first_failure() is None
    assert made == []
    rep.checks[-1]
    assert len(made) == 1


class TestSequenceProtocol:
    @pytest.fixture
    def rep(self, rng):
        u = two_band_unitary(rng, dim=2, k1=-1, k2=1, span=(-4, 4))
        rep = sl.verify_unitary_two_band(u, -6, 6)
        assert len(rep.checks) > 3 and len(rep.skipped) > 1
        return rep

    def test_indexing(self, rep):
        records = list(rep.checks)
        n = len(records)
        for i in (0, 1, n - 1, -1, -n):
            assert rep.checks[i] == records[i]
        assert rep.checks[np.int64(2)] == records[2]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                rep.checks[i]
        with pytest.raises(IndexError):
            sl.WindowReport(0, 1).skipped[0]

    def test_slices(self, rep):
        records = list(rep.checks)
        for key in (slice(None), slice(2, 5), slice(-3, None), slice(None, None, -2),
                    slice(5, 2), slice(100, 200)):
            assert rep.checks[key] == records[key]

    def test_iterates_again_and_concatenates(self, rep):
        assert list(rep.checks) == list(rep.checks)
        assert rep.checks == list(rep.checks) and rep.checks != list(rep.skipped)
        assert list(reversed(rep.skipped)) == list(rep.skipped)[::-1]
        joined = rep.checks + rep.skipped
        assert joined == list(rep.checks) + list(rep.skipped)
        assert rep.checks[0] in rep.checks and rep.checks.count(rep.checks[0]) == 1

    def test_read_only(self, rep):
        assert not hasattr(rep.checks, "append") and not hasattr(rep.checks, "extend")
        with pytest.raises(TypeError):
            rep.checks[0] = rep.checks[1]


# --- stored per signature, against the eager storage it replaces -------------


class EagerRecords:
    """Records stored row by row: each segment expanded to its (C, N) arrays,
    its entries found with ``np.nonzero`` and appended as whole columns."""

    def __init__(self, dtypes):
        self.names = []
        self.columns = [np.empty(0, dtype) for dtype in (np.intp, np.intp, *dtypes)]

    def add(self, names, conds, rows, *values):
        new = (np.asarray(conds) + len(self.names), rows, *values)
        self.columns = [np.concatenate([old, np.asarray(col, old.dtype)])
                        for old, col in zip(self.columns, new)]
        self.names.extend(names)

    def emit(self, names, mask, row_major, *values):
        if row_major:
            rows, conds = np.nonzero(mask.T)
        else:
            conds, rows = np.nonzero(mask)
        self.add(names, conds, rows, *(v[conds, rows] for v in values))

    def records(self, make, lo):
        conds, rows, *values = (col.tolist() for col in self.columns)
        return [make(self.names[c], lo + r, *v) for c, r, *v in zip(conds, rows, *values)]


def random_signatures(rng, count):
    """An inverse over ``count`` rows in which each of S signatures has a row."""
    sigs = int(rng.integers(1, count + 1)) if count else 0
    inverse = np.concatenate([np.arange(sigs), rng.integers(0, sigs, count - sigs)])
    rng.shuffle(inverse)
    return sigs, inverse.astype(np.intp)


def random_checks(rng, conds, sigs):
    """A (C, S) mask, residuals with NaN and infinities, and verdicts."""
    mask = rng.random((conds, sigs)) < rng.choice([0.2, 0.7, 1.0])
    res = rng.random((conds, sigs))
    for special in (np.nan, np.inf, -np.inf):
        res[rng.random((conds, sigs)) < 0.05] = special
    passed = rng.random((conds, sigs)) < rng.choice([0.9, 1.0])
    return mask, res, passed


def both_storages(rng, count, row_major):
    """One random report in the signature form and the same records stored
    eagerly: two check segments in opposite orders, then one explicit-row
    record (as ``check_band_count_bound`` appends ``band_count``), and the
    skips."""
    lo = int(rng.integers(-50, 50))
    rep = sl.WindowReport(lo, lo + count - 1)
    checks, skipped = EagerRecords((float, bool)), EagerRecords(())
    sigs, inverse = random_signatures(rng, count)
    for order in (row_major, not row_major):
        conds = int(rng.integers(1, 5))
        names = [f"c{c}" for c in range(conds)]
        mask, res, passed = random_checks(rng, conds, sigs)
        _emit(rep.checks, names, mask, order, res, passed, inverse=inverse)
        checks.emit(names, mask[:, inverse], order, res[:, inverse], passed[:, inverse])
        _emit(rep.skipped, names, ~mask, order, inverse=inverse)
        skipped.emit(names, ~mask[:, inverse], order)
    value, ok = float(rng.choice([0.0, 2.0, np.nan])), bool(rng.random() < 0.5)
    rep.checks._add(["band_count"], [0], [0], [value], [ok])
    checks.add(["band_count"], [0], [0], [value], [ok])
    return rep, checks, skipped


@pytest.mark.parametrize("row_major", [True, False])
def test_signature_form_reads_as_the_eager_storage(rng, row_major):
    for count in (0, 1, 2, 7, 40, bands._BLOCK_ROWS + 5):
        for _ in range(6):
            rep, checks, skipped = both_storages(rng, count, row_major)
            lo = rep.lo
            records = checks.records(sl.ConditionCheck, lo)
            eager = PlainReport(rep)
            eager.checks, eager.skipped = records, skipped.records(sl.SkippedCheck, lo)
            # the aggregates first: none of them expands a row
            assert len(rep.checks) == len(records)
            assert len(rep.skipped) == len(eager.skipped)
            assert rep.passed == bool(checks.columns[3].all())
            res = checks.columns[2]
            assert same(rep.max_residual, max(float(res[0]), float(np.fmax.reduce(res))))
            assert same(rep.first_failure(), eager.first_failure())
            assert same(rep.failures(), eager.failures())
            assert rep.summary() == eager.summary()
            assert same(rep.to_jsonable(), eager.to_jsonable())
            assert same(list(rep.checks), records)
            assert same(list(rep.skipped), eager.skipped)
            for ours, theirs in ((rep.checks, checks), (rep.skipped, skipped)):
                assert ours._names == theirs.names
                assert [col.dtype for col in ours._columns] == [
                    col.dtype for col in theirs.columns]
                assert [col.tobytes() for col in ours._columns] == [
                    col.tobytes() for col in theirs.columns]


def test_counts_verdict_and_summary_expand_no_row(rng, monkeypatch):
    calls = []
    expand = bands._expand

    def counted(seg, mask):
        calls.append(mask.shape)
        return expand(seg, mask)

    monkeypatch.setattr(bands, "_expand", counted)
    u = sl.single_band(0, sl.PeriodicWeights([np.eye(1, dtype=complex)]))
    wide = sl.verify_unitary_banded(u, -10**5, 10**5)
    truncated = sl.verify_unitary_two_band(
        two_band_unitary(rng, dim=2, k1=-1, k2=1, span=(-40, 40)), -60, 60)
    counts = []
    for rep in (wide, truncated):
        counts.append((len(rep.checks), len(rep.skipped)))
        assert rep.passed and rep.max_residual < 1e-12
        assert rep.summary().startswith(f"[pass] window [{rep.lo}, {rep.hi}]: "
                                        f"{counts[-1][0]} checks, {counts[-1][1]} skipped")
    assert counts[0] == (400_002, 0)
    assert counts[1][1] > 0
    assert calls == []
    # a record read by position expands the row columns once, and keeps them
    assert wide.checks[-1] == sl.ConditionCheck("U*U[+0]", 10**5, 0.0, True)
    assert wide.checks[0].index == -10**5 and len(calls) == 1
    out = truncated.to_jsonable()
    truncated.to_jsonable()
    assert len(calls) == 3
    assert (len(out["checks"]), len(out["skipped"])) == counts[1]
