"""The windowed verifiers against a per-row numpy loop, at block dims 1 to 16.

``bands._evaluate`` multiplies rows-first block stacks with ``matmul``.
Each public verifier is recomputed here one row at a time, with the
factors its docstring names, ``@`` for every product and
``np.linalg.norm(lhs - rhs)`` for every residual, on windows shorter and
longer than a block.  Records, skips and pass flags must be equal;
residuals must agree to 1e-12 relative to the size of the condition's
sides.
"""

import functools
import math

import numpy as np
import pytest

import shiftlab as sl
from shiftlab import bands

from conftest import random_matrix, random_unitary, two_band_unitary

DIMS = [1, 2, 3, 4, 5, 6, 8, 16]
TOL = sl.DEFAULT_TOL
REL = 1e-12


def test_the_cases_cover_both_kernels_the_cut_off_and_two_blocks():
    lo, hi = CASES["longer-than-a-block"][0]
    assert hi - lo + 1 > bands._BLOCK_ROWS


class Missing(Exception):
    """A factor's sequence does not store the row."""


def at(seq, n, adjoint=False):
    if not seq.has_index(n):
        raise Missing
    w = seq.weight_at(n)
    return w.conj().T if adjoint else w


# the reference overflows where the engine does (the "huge" case); there it
# must fail, with a non-finite residual, not warn
_OVERFLOW_OK = np.errstate(over="ignore", invalid="ignore")


@_OVERFLOW_OK
def norm(x):
    """``np.linalg.norm``, taken again of x over its largest entry where the
    squares overflow; an infinite or NaN entry keeps the norm non-finite."""
    out = np.linalg.norm(x)
    if math.isinf(out):
        top = np.abs(x).max()
        if np.isfinite(top):
            out = top * np.linalg.norm(x / top)
    return float(out)


@_OVERFLOW_OK
def reference(lo, hi, groups, row_major=True):
    """Records ``(name, n, residual, passed, size)`` and skips ``(name, n)``.

    ``groups`` lists ``(skip, conds, within)``: ``conds`` are ``(name, f)``
    with ``f(n) = (lhs, rhs, scale)``, raising Missing where a factor is
    not stored; the group is skipped as ``skip`` at such a row, and with
    ``within`` runs only on rows where that earlier group ran."""
    records, skips = [], []
    for n in range(lo, hi + 1):
        ran = []
        for g, (skip, conds, within) in enumerate(groups):
            if within is not None and not ran[within]:
                ran.append(False)
                continue
            try:
                values = [(name, *f(n)) for name, f in conds]
            except Missing:
                skips.append((g, skip, n))
                ran.append(False)
                continue
            ran.append(True)
            for c, (name, lhs, rhs, scale) in enumerate(values):
                res = norm(lhs - rhs)
                records.append(((g, c), name, n, res, bool(TOL.accepts(res, scale)),
                                max(norm(lhs), norm(rhs))))
    if not row_major:
        records.sort(key=lambda r: r[0])
        skips.sort(key=lambda s: s[0])
    return [r[1:] for r in records], [s[1:] for s in skips]


def assert_report(rep, expected):
    records, skips = expected
    assert [(c.condition, c.index, c.passed) for c in rep.checks] == \
        [(name, n, ok) for name, n, _, ok, _ in records]
    assert [(s.condition, s.index) for s in rep.skipped] == skips
    for c, (_, _, res, _, size) in zip(rep.checks, records):
        if math.isfinite(res) and math.isfinite(c.residual):
            assert abs(c.residual - res) <= REL * max(size, 1.0), (c, res)
        else:       # an overflow fails as a non-finite residual on both sides
            assert not (math.isfinite(res) or math.isfinite(c.residual)), (c, res)
            assert not c.passed


def first_failure(expected):
    return next(((name, n) for name, n, _, ok, _ in expected[0] if not ok), None)


def side_scale(lhs, rhs):
    return max(norm(lhs), norm(rhs))


# --- reference verifiers, one row at a time ---------------------------------

def ref_intertwining(a, s, t, lo, hi):
    groups = []
    for k in a.offsets:
        def f(n, band=a.band(k), k=k):
            lhs = at(band, n) @ at(s.weights, n + k)
            rhs = at(t.weights, n) @ at(band, n - 1)
            return lhs, rhs, side_scale(lhs, rhs)
        groups.append((f"band{k:+d}", [(f"band{k:+d}", f)], None))
    return reference(lo, hi, groups, row_major=False)


def ref_unitary_banded(u, lo, hi):
    offs, eye = u.offsets, np.eye(u.dim)
    groups = []
    for d in sorted({k - kk for k in offs for kk in offs}):
        rhs = eye if d == 0 else 0 * eye
        def uu(n, d=d, rhs=rhs):        # (U U*)_{n, n+d}
            return sum(at(u.band(k), n) @ at(u.band(k - d), n + d, True)
                       for k in offs if k - d in offs), rhs, 1.0
        def u_u(n, d=d, rhs=rhs):       # (U* U)_{n, n+d}
            return sum(at(u.band(k), n - k, True) @ at(u.band(k + d), n - k)
                       for k in offs if k + d in offs), rhs, 1.0
        groups += [(f"UU*[{d:+d}]", [(f"UU*[{d:+d}]", uu)], None),
                   (f"U*U[{d:+d}]", [(f"U*U[{d:+d}]", u_u)], None)]
    return reference(lo, hi, groups)


def ref_unitary_two_band(u, lo, hi):
    k1, k2 = u.offsets
    k, eye = k2 - k1, np.eye(u.dim)
    a, b = u.band(k1), u.band(k2)
    return reference(lo, hi, [
        ("rows_identity", [
            ("rows_identity", lambda n: (
                at(a, n) @ at(a, n, True) + at(b, n) @ at(b, n, True), eye, 1.0)),
            ("same_row_orthogonality", lambda n: (at(a, n, True) @ at(b, n), 0 * eye, 1.0))],
         None),
        ("columns_identity", [
            ("columns_identity", lambda n: (
                at(a, n + k, True) @ at(a, n + k) + at(b, n, True) @ at(b, n), eye, 1.0)),
            ("staggered_orthogonality", lambda n: (
                at(a, n + k) @ at(b, n, True), 0 * eye, 1.0))],
         None)])


def ref_unitary_three_band(u, lo, hi):
    a, b, c = (u.band(k) for k in (-1, 0, 1))
    eye, zero = np.eye(u.dim), np.zeros((u.dim, u.dim))
    return reference(lo, hi, [
        ("rows_identity", [
            ("rows_identity", lambda n: (
                at(a, n) @ at(a, n, True) + at(b, n) @ at(b, n, True)
                + at(c, n) @ at(c, n, True), eye, 1.0)),
            ("same_row_orthogonality", lambda n: (at(a, n, True) @ at(c, n), zero, 1.0))],
         None),
        ("gap_two_orthogonality", [("gap_two_orthogonality", lambda n: (
            at(c, n) @ at(a, n + 2, True), zero, 1.0))], None),
        ("gap_one_rows", [
            ("gap_one_rows", lambda n: (
                at(a, n + 1) @ at(b, n, True) + at(b, n + 1) @ at(c, n, True), zero, 1.0)),
            ("gap_one_columns", lambda n: (
                at(a, n + 1, True) @ at(b, n + 1) + at(b, n, True) @ at(c, n), zero, 1.0))],
         None),
        ("columns_identity", [("columns_identity", lambda n: (
            at(a, n + 1, True) @ at(a, n + 1) + at(b, n, True) @ at(b, n)
            + at(c, n - 1, True) @ at(c, n - 1), eye, 1.0))], None)])


def ref_two_band_structure(u, lo, hi):
    k1, k2 = u.offsets
    a, b = u.band(k1), u.band(k2)
    zero = np.zeros((u.dim, u.dim))

    def isometry(w):
        return lambda n: (at(w, n) @ at(w, n, True) @ at(w, n), at(w, n),
                          max(norm(at(w, n)), 1.0))
    return reference(lo, hi, [
        ("partial_isometry", [
            (f"partial_isometry[{k1:+d}]", isometry(a)),
            (f"partial_isometry[{k2:+d}]", isometry(b)),
            ("range_orthogonality", lambda n: (at(a, n, True) @ at(b, n), zero, 1.0))],
         None),
        ("corange_orthogonality", [("corange_orthogonality", lambda n: (
            at(a, n + k2 - k1) @ at(b, n, True), zero, 1.0))], 0)])


def stored_norms(seq, lo, hi):
    """Entry norms on rows lo..hi, None where the row is not stored."""
    return [norm(seq.weight_at(n)) if seq.has_index(n) else None
            for n in range(lo, hi + 1)]


@_OVERFLOW_OK
def ref_band_count(u, bound, lo, hi):
    """Records as ``ref_*``, or the (band, row) of the first stored nonzero
    entry that is not a partial isometry."""
    effective = []
    for k in u.offsets:
        w = u.band(k)
        nonzero = [n for n, x in zip(range(lo, hi + 1), stored_norms(w, lo, hi))
                   if x is not None and x > TOL.abs]
        for n in nonzero:
            x = at(w, n)
            lhs = x @ x.conj().T @ x
            if not TOL.accepts(norm(lhs - x), max(norm(lhs), norm(x))):
                return k, n
        if nonzero:
            effective.append((k, w))
    eye, zero = np.eye(u.dim), np.zeros((u.dim, u.dim))
    conds = [("projection_sum", lambda n: (
        sum(at(w, n) @ at(w, n, True) for _, w in effective), eye, 1.0))]
    for i, (ki, wi) in enumerate(effective):
        for kj, wj in effective[i + 1:]:
            conds.append((f"mutual_orthogonality[{ki:+d},{kj:+d}]", lambda n, wi=wi, wj=wj: (
                at(wi, n) @ at(wi, n, True) @ at(wj, n) @ at(wj, n, True), zero, 1.0)))
    records, skips = reference(lo, hi, [("projection_sum", conds, None)])
    excess = len(effective) - bound
    return records + [("band_count", lo, max(excess, 0), excess <= 0, 1.0)], skips


@_OVERFLOW_OK
def ref_conjugate(u, s, lo, hi):
    """Records and skips of ``conjugate_to_shift``, and the (N, d, d) values
    of ``(U S U*)_{n, n-1}`` (None where not stored)."""
    offs = u.offsets
    deltas = sorted({k - kk - 1 for k in offs for kk in offs})

    def entry(n, d):          # (U S U*)_{n, n+d}
        return sum(at(u.band(k), n) @ at(s.weights, n + k) @ at(u.band(k - 1 - d), n + d, True)
                   for k in offs if k - 1 - d in offs)

    values, skips = {}, []
    for n in range(lo, hi + 1):
        for d in deltas:
            try:
                values[d, n] = entry(n, d)
            except Missing:
                skips.append((f"conjugated[{d:+d}]", n))
    main = [values[-1, n] for n in range(lo, hi + 1) if (-1, n) in values]
    scale = max([1.0, *map(norm, main)])
    records = [(f"off_band[{d:+d}]", n, norm(values[d, n]),
                bool(TOL.accepts(norm(values[d, n]), scale)), scale)
               for d in deltas if d != -1 for n in range(lo, hi + 1) if (d, n) in values]
    records += [("shift_weight_nonzero", n, norm(values[-1, n]), norm(values[-1, n]) > TOL.abs,
                 norm(values[-1, n])) for n in range(lo, hi + 1) if (-1, n) in values]
    return (records, skips), [values.get((-1, n)) for n in range(lo, hi + 1)]


# --- operators ---------------------------------------------------------------

def windowed(seq, lo, hi, edit=None):
    """``seq`` stored on rows lo..hi only; ``edit(n, w)`` replaces entries."""
    return sl.WindowedWeights(lo, [seq.weight_at(n) if edit is None else edit(n, seq.weight_at(n))
                                   for n in range(lo, hi + 1)])


def restore(u, lo, hi, edit=None):
    return sl.BandedOperator({k: windowed(u.band(k), lo, hi, edit) for k in u.offsets})


def two_band(rng, d, span):
    return two_band_unitary(rng, d, -1, 1, span, rank=max(1, d // 2))


def three_band(rng, d, span):
    """Product of a {0, +1} and a {-1, 0} two-band unitary, stored where
    every factor is."""
    x = two_band_unitary(rng, d, 0, 1, span, rank=max(1, d // 2))
    y = two_band_unitary(rng, d, -1, 0, span, rank=max(1, d // 2))
    rows = range(span[0] + 1, span[1] - 1)
    x0, x1, y0, ym = x.band(0), x.band(1), y.band(0), y.band(-1)
    return sl.BandedOperator({
        -1: sl.WindowedWeights(rows[0], [x0.weight_at(n) @ ym.weight_at(n) for n in rows]),
        0: sl.WindowedWeights(rows[0], [x0.weight_at(n) @ y0.weight_at(n)
                                        + x1.weight_at(n) @ ym.weight_at(n + 1) for n in rows]),
        1: sl.WindowedWeights(rows[0], [x1.weight_at(n) @ y0.weight_at(n + 1) for n in rows])})


def intertwined(rng, d, span):
    """A single-band unitary V and shifts S, T with ``V S = T V``."""
    lo, hi = span
    v = [random_unitary(rng, d) for _ in range(lo - 1, hi + 1)]
    s = [random_matrix(rng, d) for _ in range(lo, hi + 1)]
    t = [v[i + 1] @ s[i] @ v[i].conj().T for i in range(hi - lo + 1)]
    return (sl.single_band(0, sl.WindowedWeights(lo - 1, v)),
            sl.BilateralShift(sl.WindowedWeights(lo, s)),
            sl.BilateralShift(sl.WindowedWeights(lo, t)))


# (window, stored span, planted defect row, entry scale) of each case
CASES = {
    "clean": ((-8, 8), (-14, 14), None, 1.0),
    "truncated": ((-8, 8), (-5, 6), None, 1.0),
    "defect": ((-8, 8), (-14, 14), 3, 1.0),
    "longer-than-a-block": ((-260, 260), (-266, 266), None, 1.0),
    "huge": ((-8, 8), (-14, 14), None, 1e200),
}


@functools.lru_cache(maxsize=None)
def case_operators(dim, case):
    """The window and the operators of a case, built once per dim and case."""
    (lo, hi), (slo, shi), row, scale = CASES[case]
    rng = np.random.default_rng([dim, list(CASES).index(case)])

    def edit(n, w):
        return w * scale * (1.001 if n == row else 1.0)

    span = (slo - 3, shi + 3)
    u2 = restore(two_band(rng, dim, span), slo, shi, edit)
    u3 = restore(three_band(rng, dim, span), slo, shi, edit)
    v, s, t = intertwined(rng, dim, span)
    return (lo, hi), u2, u3, restore(v, slo, shi, edit), s, t


def precondition_or_report(call):
    try:
        return call()
    except sl.PreconditionError as exc:
        return exc


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("dim", DIMS)
class TestAgainstRowLoop:
    def test_unitarity_verifiers(self, dim, case):
        (lo, hi), u2, u3, _, _, _ = case_operators(dim, case)
        for u in (u2, u3):
            assert_report(sl.verify_unitary_banded(u, lo, hi), ref_unitary_banded(u, lo, hi))
        assert_report(sl.verify_unitary_two_band(u2, lo, hi), ref_unitary_two_band(u2, lo, hi))
        assert_report(sl.verify_unitary_three_band(u3, lo, hi),
                      ref_unitary_three_band(u3, lo, hi))
        expected = ref_unitary_banded(u2, lo, hi)
        assert (first_failure(expected) is None) == (case in ("clean", "truncated",
                                                              "longer-than-a-block"))
        if case == "truncated":
            assert expected[1]

    def test_intertwining(self, dim, case):
        (lo, hi), u2, _, v, s, t = case_operators(dim, case)
        expected = ref_intertwining(v, s, t, lo, hi)
        assert_report(sl.verify_intertwining(v, s, t, lo, hi), expected)
        # a huge intertwiner passes: its residual stays finite through the rescaling
        assert (first_failure(expected) is None) == (case != "defect")
        if case == "huge":
            assert all(math.isfinite(res) and size > 1e160 for _, _, res, _, size in expected[0])
        # two bands that intertwine nothing: every residual is a real defect
        assert_report(sl.verify_intertwining(u2, s, t, lo, hi), ref_intertwining(u2, s, t, lo, hi))

    def test_two_band_structure(self, dim, case):
        (lo, hi), u2, _, _, _, _ = case_operators(dim, case)
        got = precondition_or_report(lambda: sl.check_two_band_structure(u2, lo, hi))
        unitary = ref_unitary_two_band(u2, lo, hi)
        if first_failure(unitary) is not None:
            assert isinstance(got, sl.PreconditionError)
            assert got.index == first_failure(unitary)[1]
            return
        assert_report(got, ref_two_band_structure(u2, lo, hi))

    def test_band_count_bound(self, dim, case):
        (lo, hi), u2, u3, _, _, _ = case_operators(dim, case)
        for u in (u2, u3):
            got = precondition_or_report(lambda: sl.check_band_count_bound(u, dim, lo, hi))
            expected = ref_band_count(u, dim, lo, hi)
            if len(expected) == 2 and isinstance(expected[0], list):
                assert_report(got, expected)
            else:
                assert isinstance(got, sl.PreconditionError)
                assert f"band {expected[0]:+d} at n={expected[1]}" in str(got)

    def test_conjugate_to_shift(self, dim, case):
        # V S V* is a shift; U S U* of a two-band U is not, off the shift band
        (lo, hi), u2, _, v, s, _ = case_operators(dim, case)
        for u in (v, u2):
            got = precondition_or_report(lambda: sl.conjugate_to_shift(u, s, lo, hi))
            unitary = ref_unitary_banded(u, lo, hi)
            if first_failure(unitary) is not None:
                assert isinstance(got, sl.PreconditionError)
                assert got.index == first_failure(unitary)[1]
                continue
            expected, values = ref_conjugate(u, s, lo, hi)
            assert_report(got.report, expected)
            assert got.is_shift == all(ok for _, _, _, ok, _ in expected[0])
            assert got.is_shift or u is u2      # V S V* always is
            if got.is_shift:
                weights = got.shift.weights
                for n, x in zip(range(lo, hi + 1), values):
                    assert (x is not None) == weights.has_index(n)
                    if x is not None:
                        assert norm(weights.weight_at(n) - x) <= REL * max(norm(x), 1.0)

    def test_diagonal_propagation(self, dim, case):
        (lo, hi), u2, _, _, _, _ = case_operators(dim, case)
        rep = sl.check_diagonal_propagation(u2, lo=lo, hi=hi)
        for k in u2.offsets:
            norms = [x for x in stored_norms(u2.band(k), lo, hi) if x is not None]
            nonzero = sum(x > TOL.abs for x in norms)
            assert rep.context["band_support"][k] == {"nonzero": nonzero,
                                                      "zero": len(norms) - nonzero}
        assert [(c.condition, c.index) for c in rep.skipped] == [
            (f"support[{k:+d}]", n) for k in u2.offsets for n in range(lo, hi + 1)
            if not u2.band(k).has_index(n)]
