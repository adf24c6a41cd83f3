"""The windowed engine evaluates each distinct row once, and this cannot be seen.

``bands._evaluate`` evaluates every window, of one block or of many, once
per signature, the tuple of table entries its factors read at a row, and
copies the results to every row with that signature.  The same operators
are built here twice, once repeating a period of arrays by reference and
once with every row a distinct copy, and every verifier must report the
same columns, bit for bit, on both.  Then the products are counted: on a
periodic operator their row axis stays at the number of signatures, for a
window shorter than a block as for a long one, and a short window of a
long all-distinct store copies only the rows it reads.
"""

import math
import tracemalloc

import numpy as np
import pytest

import shiftlab as sl
from shiftlab import bands

from conftest import random_invertible, random_unitary

PERIOD = 3
WINDOWS = {"one-block": (-40, 60), "three-blocks": (-300, 900)}
DEFECT = {"one-block": 17, "three-blocks": 437}


def _projections(rng, dim, parts):
    """``parts`` mutually orthogonal projections summing to the identity
    (some zero when ``parts`` exceeds ``dim``)."""
    u = random_unitary(rng, dim)
    cuts = np.linspace(0, dim, parts + 1).round().astype(int)
    return [u[:, a:b] @ u[:, a:b].conj().T for a, b in zip(cuts, cuts[1:])]


def _system(rng, dim):
    """One period of entries: a diagonal unitary V, shifts S and
    ``T_n = V_n S_n V_{n-1}*``, a two-band unitary on offsets -1, +1 and a
    three-band one on -1, 0, +1 whose entries are partial isometries."""
    vs = [random_unitary(rng, dim) for _ in range(PERIOD)]
    s = [random_invertible(rng, dim) for _ in range(PERIOD)]
    t = [vs[r] @ s[r] @ vs[r - 1].conj().T for r in range(PERIOD)]
    two = dict(zip((-1, 1), _projections(rng, dim, 2)))
    three = dict(zip((-1, 0, 1), _projections(rng, dim, 3)))
    return {
        "V": {0: vs}, "S": s, "T": t,
        "U2": {k: [p @ vs[(r + k) % PERIOD] for r in range(PERIOD)] for k, p in two.items()},
        "U3": {k: [p @ vs[(r + k) % PERIOD] for r in range(PERIOD)] for k, p in three.items()},
    }


def _stored(period, lo, hi, copy, defect=None):
    """Windowed entries ``period[n mod 3]`` on [lo, hi], by reference or each
    a copy; the entry at row ``defect`` is scaled by 1.001."""
    entries = []
    for n in range(lo, hi + 1):
        w = period[n % PERIOD]
        entries.append(w * 1.001 if n == defect else w.copy() if copy else w)
    return sl.WindowedWeights(lo, entries)


def _build(system, window, copy, truncated, defect):
    """The operators and shifts of ``system`` stored on the window plus a
    margin, or only up to three quarters of the window."""
    lo, hi = window
    end = lo + 3 * (hi - lo) // 4 if truncated else hi + 3
    out = {name: sl.BandedOperator({k: _stored(period, lo - 3, end, copy,
                                               defect if k == 0 and name == "V" else None)
                                    for k, period in system[name].items()})
           for name in ("V", "U2", "U3")}
    for name in ("S", "T"):
        out[name] = sl.BilateralShift(_stored(system[name], lo - 3, end, copy), label=name)
    return out


VERIFIERS = {
    "intertwining": lambda ops, lo, hi: sl.verify_intertwining(ops["V"], ops["S"], ops["T"], lo, hi),
    "unitary-banded": lambda ops, lo, hi: sl.verify_unitary_banded(ops["U3"], lo, hi),
    "unitary-two-band": lambda ops, lo, hi: sl.verify_unitary_two_band(ops["U2"], lo, hi),
    "unitary-three-band": lambda ops, lo, hi: sl.verify_unitary_three_band(ops["U3"], lo, hi),
    "two-band-structure": lambda ops, lo, hi: sl.check_two_band_structure(ops["U2"], lo, hi),
    "diagonal-propagation": lambda ops, lo, hi: sl.check_diagonal_propagation(
        ops["V"], ops["S"], ops["T"], lo, hi),
    "band-count-bound": lambda ops, lo, hi: sl.check_band_count_bound(ops["U3"], 3, lo, hi),
    "conjugate-to-shift": lambda ops, lo, hi: sl.conjugate_to_shift(ops["V"], ops["S"], lo, hi),
    "defect-unitarity": lambda ops, lo, hi: sl.verify_unitary_banded(ops["V"], lo, hi),
}


def _outcome(verifier, ops, lo, hi):
    """Everything a caller can read of a verifier's result, as exact bytes."""
    try:
        value = VERIFIERS[verifier](ops, lo, hi)
    except sl.PreconditionError as exc:
        return ("raised", str(exc), exc.index)
    weights = None
    if isinstance(value, sl.ConjugationResult):
        if value.shift is not None:
            seq = value.shift.weights
            weights = seq.lo, seq.hi, seq.rows(seq.lo, seq.hi)[0].tobytes()
        value = value.report
    columns = [(records._names, [col.tobytes() for col in records._columns])
               for records in (value.checks, value.skipped)]
    return columns, repr(value.context), weights


@pytest.mark.parametrize("dim", [2, 6])
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("store", ["full", "truncated", "defect"])
@pytest.mark.parametrize("verifier", VERIFIERS)
def test_shared_and_copied_rows_report_the_same_bits(rng, dim, window, store, verifier):
    system = _system(rng, dim)
    lo, hi = WINDOWS[window]
    defect = DEFECT[window] if store == "defect" else None
    shared, copied = (_build(system, (lo, hi), copy, store == "truncated", defect)
                      for copy in (False, True))
    assert len(shared["U3"].band(0)._distinct) == PERIOD
    assert len(copied["U3"].band(0)._distinct) == len(copied["U3"].band(0)._weights)
    assert _outcome(verifier, shared, lo, hi) == _outcome(verifier, copied, lo, hi)


def test_the_cases_cover_both_kernels_and_both_paths():
    assert min(hi - lo + 1 for lo, hi in WINDOWS.values()) <= bands._BLOCK_ROWS
    assert max(hi - lo + 1 for lo, hi in WINDOWS.values()) > 2 * bands._BLOCK_ROWS


@pytest.mark.parametrize("dim", [2, 6])
@pytest.mark.parametrize("window", WINDOWS)
def test_a_defect_is_named_at_its_own_row(rng, dim, window):
    lo, hi = WINDOWS[window]
    row = DEFECT[window]
    ops = _build(_system(rng, dim), (lo, hi), False, False, row)
    rep = sl.verify_unitary_banded(ops["V"], lo, hi)
    assert [(c.condition, c.index) for c in rep.failures()] == [("UU*[+0]", row),
                                                                ("U*U[+0]", row)]
    rep = sl.verify_intertwining(ops["V"], ops["S"], ops["T"], lo, hi)
    assert [c.index for c in rep.failures()] == [row, row + 1]
    with pytest.raises(sl.PreconditionError, match=f"n={row}"):
        sl.conjugate_to_shift(ops["V"], ops["S"], lo, hi)


def test_signatures_group_rows_by_their_whole_tuple(rng):
    # ten columns of 2^20 declared values make a 200-bit key, so the key
    # must be renumbered on the way
    count = 3000
    columns = [(rng.integers(0, 3, count), 2**20) for _ in range(10)]
    rows, inverse = bands._signatures(columns, count)
    tuples = list(zip(*(values.tolist() for values, _ in columns)))
    assert len(rows) == len(set(tuples))
    assert [tuples[rows[i]] for i in inverse] == tuples


@pytest.mark.parametrize("lo, hi", [(0, 9_999), (0, 120)])
def test_products_run_once_per_signature(rng, monkeypatch, lo, hi):
    system = _system(rng, 2)
    u = sl.BandedOperator({k: sl.PeriodicWeights(v) for k, v in system["U2"].items()})
    s = sl.BilateralShift(sl.PeriodicWeights(system["S"]))
    arrays = {id(w) for k in u.offsets for w in u.band(k)._distinct}
    bound = math.lcm(*(u.band(k).period for k in u.offsets)) * len(arrays)
    widths = []
    mul = bands._mul

    def counted(a, b):
        widths.append(max(a.shape[0], b.shape[0]))
        return mul(a, b)

    monkeypatch.setattr(bands, "_mul", counted)
    assert sl.verify_unitary_two_band(u, lo, hi).passed
    assert sl.verify_unitary_banded(u, lo, hi).passed
    assert sl.check_two_band_structure(u, lo, hi).passed
    assert len(sl.conjugate_to_shift(u, s, lo, hi).report.checks) > hi - lo
    assert widths and max(widths) <= bound


def test_a_short_window_of_a_long_store_copies_only_its_rows(rng):
    dim, count = 2, 100_000
    entries = list(rng.standard_normal((count, dim, dim)) + 0j)
    seq = sl.WindowedWeights(0, entries)
    assert len(seq._distinct) == count
    u = sl.single_band(0, seq)
    store = count * dim * dim * 16
    lo, hi = 50_000, 50_009
    tracemalloc.start()
    try:
        rep = sl.verify_unitary_banded(u, lo, hi)
        stack, present = seq.rows(lo, hi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rep.checks) == 2 * 10 and present.all()
    np.testing.assert_array_equal(stack, entries[lo:hi + 1])
    assert peak < store / 100
