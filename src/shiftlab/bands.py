"""Banded operators on two-sided block sequences, with verification ops.

A banded operator stores finitely many diagonals ("bands").  Band offset k
holds the entries ``U_{n, n+k}``, indexed by the row n, so the matrix entry
at position (i, j) is ``bands[j - i].weight_at(i)``.  Under this convention a
bilateral shift is the single band at offset -1 and the unweighted shift F is
that band filled with identities.

All verifiers are tables for one engine, run on an explicit index window
[lo, hi].  A condition at row n equates a sum of products of entries
``W_{n+j}`` or ``W_{n+j}*`` with the identity, zero or another such sum; its
residual is the Frobenius norm of the difference.  Where a windowed sequence
lacks an entry that a group of conditions needs, the group is skipped and
recorded, never failed.

Each sequence a window needs is read once, over the window plus the shifts
its factors reach, as a table holding each matrix those rows read once and
each row's index into it (``WeightSequence._reached``); this module never
maps an index to a stored matrix itself.  A condition at row n depends
only on the table entries its factors read there, the row's signature, so
every window is evaluated once per distinct signature, on one row that
has it; the residuals, verdicts and availability are kept per signature,
with each row's signature beside them.  A periodic operator then costs one
evaluation per row of its combined period whatever the window's length; a
window of all-distinct rows costs what it did row by row.  Signatures are evaluated
in blocks of ``_BLOCK_ROWS``, so working memory for the products does not
grow with the window.  A residual depends only on its row's matrices,
never on the rows it is evaluated with, so the grouping gives the bits a
row-by-row evaluation gives.

Each block holds its stacks rows-first, as (rows, d, d) arrays, and every
product is one ``matmul`` over the block.  Since each signature is
evaluated once, the products of a periodic or eventually-identity
operator are a few rows wide, too narrow for a second kernel tuned to
wide stacks to pay; only windows of all-distinct rows at block dims up
to 3 would run faster with one.

A report keeps its checks and skips as they were evaluated: one residual
and verdict per (condition, signature) and each row's signature, in row
order or condition order.  Its counts, verdict, worst residual, first
failure and summary cost the signatures, plus at most one pass over the
rows' signatures; the row columns (condition, row, residual, verdict) are
expanded once, when records are listed or read by position.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, PreconditionError
from .matrices import DEFAULT_TOL, Tolerance, frob_norms, herm
from .shifts import (
    BilateralShift,
    WeightSequence,
    WindowedWeights,
    identity_weights,
    _sorted_distinct,
)


_OUTSIDE = "index outside a stored window"
_BLOCK_ROWS = 512        # rows evaluated at once; keeps working memory flat


@dataclass(slots=True)
class ConditionCheck:
    condition: str
    index: int
    residual: float
    passed: bool


@dataclass(slots=True)
class SkippedCheck:
    condition: str
    index: int
    reason: str = _OUTSIDE


class _Segment(NamedTuple):
    """Records of the conditions ``names[base:base + C]`` on the N positions
    of a window, stored per signature.

    ``mask[c, s]`` holds where condition c has a record on the positions of
    signature s, and ``values`` are (C, S) arrays of the further fields.
    ``inverse`` gives each position's signature, and every signature has a
    position; ``rows`` gives each position's row offset (None: the position
    itself).  Records run position by position, conditions ascending within
    one (``row_major``), or condition by condition.
    """

    base: int
    mask: np.ndarray
    values: tuple
    inverse: np.ndarray
    rows: np.ndarray | None
    row_major: bool


def _expand(seg: _Segment, mask):
    """Columns (condition, row, *values) of the records of ``seg`` on the
    entries ``mask`` keeps, in the segment's order."""
    if seg.row_major:
        pos, conds = np.nonzero(mask.T[seg.inverse])
    else:
        conds, pos = np.nonzero(mask[:, seg.inverse])
    sigs = seg.inverse[pos]
    return (conds + seg.base, pos if seg.rows is None else seg.rows[pos],
            *(v[conds, sigs] for v in seg.values))


class _Records(Sequence):
    """Read-only sequence of check records, held as segments stored per
    signature (``_Segment``).

    Each record is ``make(name, lo + row, *values)``.  The count and the
    first record a selection keeps are read from the segments; the row
    columns (condition, row, *values) are expanded once, when a record is
    read by position or all are listed, and kept.
    """

    def __init__(self, make, lo: int, dtypes: tuple):
        self._make, self._lo, self._dtypes = make, operator.index(lo), dtypes
        self._names, self._segments = [], []

    def _append(self, names, mask, values, inverse, rows=None, row_major=True):
        values = tuple(np.asarray(v, dtype) for v, dtype in zip(values, self._dtypes))
        self._segments.append(_Segment(len(self._names), mask, values, inverse, rows, row_major))
        self._names.extend(names)
        vars(self).pop("_columns", None)

    def _add(self, names, conds, rows, *values):
        """Append the records ``(names[conds[i]], lo + rows[i], *values[i])``,
        each at a position of its own."""
        at = np.arange(len(conds))
        mask = np.zeros((len(names), len(at)), dtype=bool)
        mask[conds, at] = True
        # a value is read only where the mask holds, so one row serves every condition
        self._append(names, mask, [np.broadcast_to(v, mask.shape) for v in values], at,
                     np.asarray(rows, np.intp))

    def _first(self, select):
        """Fields (name, index, *values) of the first record on the entries
        ``select(segment)`` keeps, or None."""
        for seg in self._segments:
            mask = select(seg)
            if mask.any():
                if seg.row_major:
                    p = int(np.argmax(mask.any(axis=0)[seg.inverse]))
                    c = int(np.argmax(mask[:, seg.inverse[p]]))
                else:
                    c = int(np.argmax(mask.any(axis=1)))
                    p = int(np.argmax(mask[c][seg.inverse]))
                row = p if seg.rows is None else int(seg.rows[p])
                return (self._names[seg.base + c], self._lo + row,
                        *(v[c, seg.inverse[p]].item() for v in seg.values))
        return None

    @functools.cached_property
    def _columns(self):
        empty = [np.empty(0, dtype) for dtype in (np.intp, np.intp, *self._dtypes)]
        parts = [_expand(seg, seg.mask) for seg in self._segments]
        return tuple(map(np.concatenate, zip(empty, *parts)))

    def _build(self, columns):
        conds, rows, *values = (col.tolist() for col in columns)
        return map(self._make, map(self._names.__getitem__, conds),
                   map(self._lo.__add__, rows), *values)

    def __len__(self):
        # every signature has a position, so the counts run over all of them
        return sum(int(seg.mask.sum(axis=0) @ np.bincount(seg.inverse))
                   for seg in self._segments)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return list(self._build(col[key] for col in self._columns))
        i, n = operator.index(key), len(self._columns[0])
        if not -n <= i < n:
            raise IndexError("record index out of range")
        return next(self._build(col[i % n:i % n + 1] for col in self._columns))

    def __iter__(self):
        return self._build(self._columns)

    def __add__(self, other):
        return [*self, *other]

    def __eq__(self, other):
        if not isinstance(other, (list, _Records)):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None

    def __repr__(self):
        return repr(list(self))


def _failing(seg: _Segment):
    """Entries of a check segment whose records fail."""
    return seg.mask & ~seg.values[1]


@dataclass
class WindowReport:
    """Outcome of verifying a family of indexed conditions on [lo, hi].

    ``checks`` and ``skipped`` are read-only sequences of ``ConditionCheck``
    and ``SkippedCheck`` records, stored per signature; the counts, the
    verdict, the worst residual, the first failure and ``summary`` read
    them without expanding rows, ``failures`` expands only the failing
    entries.
    """

    lo: int
    hi: int
    context: dict = field(default_factory=dict)
    checks: _Records = field(init=False)
    skipped: _Records = field(init=False)

    def __post_init__(self):
        self.checks = _Records(ConditionCheck, self.lo, (float, bool))
        self.skipped = _Records(SkippedCheck, self.lo, ())

    @property
    def passed(self) -> bool:
        return not any(_failing(seg).any() for seg in self.checks._segments)

    @property
    def max_residual(self) -> float:
        first = self.checks._first(operator.attrgetter("mask"))
        if first is None:
            return 0.0
        res = np.concatenate([seg.values[0][seg.mask] for seg in self.checks._segments])
        # as Python's max over the records: a leading NaN wins, later NaNs are passed over
        return max(first[2], float(np.fmax.reduce(res)))

    def failures(self):
        return [record for seg in self.checks._segments if (bad := _failing(seg)).any()
                for record in self.checks._build(_expand(seg, bad))]

    def first_failure(self):
        fields = self.checks._first(_failing)
        return None if fields is None else self.checks._make(*fields)

    def summary(self) -> str:
        state = "pass" if self.passed else "FAIL"
        head = (f"[{state}] window [{self.lo}, {self.hi}]: "
                f"{len(self.checks)} checks, {len(self.skipped)} skipped, "
                f"max residual {self.max_residual:.3e}")
        worst = self.first_failure()
        if worst is not None:
            head += f"; first failure {worst.condition} at n={worst.index}"
        return head

    def to_jsonable(self) -> dict:
        conds, rows, res, passed = self.checks._columns
        names, lo = self.checks._names, self.checks._lo
        checks = [{"condition": names[c], "index": lo + r, "residual": x, "passed": p}
                  for c, r, x, p in zip(conds.tolist(), rows.tolist(), res.tolist(),
                                        passed.tolist())]
        conds, rows = self.skipped._columns
        names = self.skipped._names
        skipped = [{"condition": names[c], "index": lo + r, "reason": _OUTSIDE}
                   for c, r in zip(conds.tolist(), rows.tolist())]
        context = self.context
        if "band_support" in context:       # keyed by band offset; JSON keys are strings
            context = {**context, "band_support": {
                str(k): v for k, v in context["band_support"].items()}}
        return {
            "window": [self.lo, self.hi],
            "passed": self.passed,
            "max_residual": self.max_residual,
            "checks": checks,
            "skipped": skipped,
            "context": context,
        }


class BandedOperator:
    """Operator with finitely many nonzero diagonals.

    ``bands`` maps an integer offset k to the weight sequence of the entries
    ``U_{n, n+k}`` (indexed by the row n).
    """

    def __init__(self, bands: dict, label: str = ""):
        if not bands:
            raise ValueError("a banded operator needs at least one band")
        items = sorted(bands.items())
        dim = None
        for k, seq in items:
            if not isinstance(k, int):
                raise TypeError(f"band offset {k!r} is not an integer")
            if not isinstance(seq, WeightSequence):
                raise TypeError(f"band {k} is not a WeightSequence")
            if dim is None:
                dim = seq.dim
            elif seq.dim != dim:
                raise DimensionError(
                    f"band {k} has dim {seq.dim}, expected {dim}")
        self._bands = dict(items)
        self._dim = dim
        self.label = label

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def offsets(self):
        return tuple(sorted(self._bands))

    def band(self, k: int) -> WeightSequence:
        return self._bands[k]

    def __repr__(self):
        name = f" {self.label!r}" if self.label else ""
        return f"BandedOperator{name}(offsets={self.offsets}, dim={self.dim})"


def single_band(offset: int, seq: WeightSequence, label: str = "") -> BandedOperator:
    return BandedOperator({offset: seq}, label=label)


def identity_operator(dim: int) -> BandedOperator:
    return single_band(0, identity_weights(dim), label="identity")


# --- the windowed-condition engine -------------------------------------------


class _At(NamedTuple):
    """Factor at row n: entry n + shift of ``seq``, or its adjoint."""

    seq: WeightSequence
    shift: int = 0
    adjoint: bool = False

    @property
    def H(self) -> "_At":
        return self._replace(adjoint=not self.adjoint)


# Sums are tuples of products, products tuples of factors.
_ZERO, _ONE = (), ((),)      # the empty sum; the sum of the empty product


class _Cond(NamedTuple):
    """``lhs = rhs`` within ``tol.bound`` of the largest of the numbers and
    sum norms in ``scale``."""

    name: str
    lhs: tuple
    rhs: tuple = _ZERO
    scale: tuple = (1.0,)


class _Group(NamedTuple):
    """Conditions skipped together, once, as ``skip``; with ``within`` only
    on rows where that earlier group ran."""

    skip: str
    conds: tuple
    within: int | None = None


def _mul(a, b):
    """Matrix products of two (M, d, d) stacks, row by row."""
    return np.matmul(a, b)


def _signatures(columns, count: int):
    """Rows 0..count-1 grouped by the tuple of values ``columns`` hold there.

    ``columns`` lists ``(values, size)``: an (N,) array of integers in
    [0, size).  Returns one representative row per distinct tuple and, for
    each row, the index of its tuple among them.  The tuples are combined
    into one integer key per row; where the next column would overflow it,
    the key is first renumbered by its distinct values.
    """
    key, radix = np.zeros(count, dtype=np.int64), 1
    for values, size in columns:
        if radix * size > np.iinfo(np.int64).max:
            distinct, key = _sorted_distinct(key)
            radix = len(distinct)
        key = key * size + values
        radix *= size
    distinct, inverse = _sorted_distinct(key)
    rows = np.empty(len(distinct), dtype=np.intp)
    rows[inverse] = np.arange(count)
    return rows, inverse


@np.errstate(over="ignore", invalid="ignore")    # an overflowed residual fails
def _evaluate(conds, lo: int, hi: int, dim: int, tol: Tolerance,
              keep: int | None = None):
    """Residuals, their acceptance under ``tol`` and availability (every
    factor stored) of ``conds`` on rows lo..hi, once per signature: (C, S)
    arrays, the (S, d, d) values of ``conds[keep].lhs`` when ``keep`` is
    given, and the (N,) signature of each row."""
    count = max(hi - lo + 1, 0)
    eye = np.eye(dim, dtype=complex)
    pairs = dict.fromkeys((f.seq, f.shift) for cond in conds
                          for s in (cond.lhs, cond.rhs, *cond.scale) if isinstance(s, tuple)
                          for product in s for f in product)
    reach = {}                          # least and greatest shift of each sequence
    for seq, shift in pairs:
        first, last = reach.get(seq, (shift, shift))
        reach[seq] = min(first, shift), max(last, shift)
    # each sequence once, over the window plus its reach: the table of the
    # matrices its rows hold and each row's index into it
    tables = {}
    for seq, (first, last) in reach.items():
        table, index, present = seq._reached(lo + first, hi + last)
        tables[seq] = first, table, index, present
    # a row's values depend only on the table entries its factors read, so
    # the window is evaluated once per distinct tuple of them
    columns = []
    for seq, shift in pairs:
        first, table, index, _ = tables[seq]
        if len(table) > 1:
            columns.append((index[shift - first:shift - first + count], len(table)))
    rows, inverse = _signatures(columns, count)
    res = np.zeros((len(conds), len(rows)))
    passed = np.zeros((len(conds), len(rows)), dtype=bool)
    has = np.ones((len(conds), len(rows)), dtype=bool)
    kept = None if keep is None else np.zeros((len(rows), dim, dim), dtype=complex)
    for start in range(0, len(rows), _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, len(rows))
        stacks = {}
        for seq, shift in pairs:
            first, table, index, present = tables[seq]
            at = rows[start:stop] + (shift - first)
            stacks[seq, shift] = table.take(index.take(at), axis=0), present.take(at)

        def factor(f, mask):
            w, present = stacks[f.seq, f.shift]
            mask &= present
            return herm(w) if f.adjoint else w

        def total(terms, mask):
            return sum((functools.reduce(_mul, [factor(f, mask) for f in product] or [eye])
                        for product in terms), 0.0)

        for c, cond in enumerate(conds):
            mask = has[c, start:stop]
            # scale entries that repeat lhs or rhs read their sums from here
            sums = {cond.lhs: total(cond.lhs, mask), cond.rhs: total(cond.rhs, mask)}
            res[c, start:stop] = frob_norms(sums[cond.lhs] - sums[cond.rhs])
            scale = functools.reduce(np.maximum, [
                s if isinstance(s, float) else frob_norms(sums[s] if s in sums else total(s, mask))
                for s in cond.scale])
            passed[c, start:stop] = tol.accepts(res[c, start:stop], scale)
            if c == keep:
                kept[start:stop] = sums[cond.lhs]
    return res, passed, has, kept, inverse


def _emit(out: _Records, names, mask, row_major: bool, *columns, inverse=None):
    """Append to ``out`` a record for each row n and condition c where the
    (C, S) ``mask`` holds at the row's signature ``inverse[n]``, naming c by
    ``names[c]`` and taking its values from the (C, S) ``columns``, row by
    row or condition by condition.  Without ``inverse`` every row is a
    signature of its own.  The records are stored per signature."""
    if inverse is None:
        inverse = np.arange(mask.shape[1])
    out._append(names, mask, columns, inverse, row_major=row_major)


def _verify(rep: WindowReport, groups, dim: int, tol: Tolerance,
            row_major: bool = True) -> WindowReport:
    """Evaluate condition groups, a bare condition being a group of its own,
    on the report's window and record them."""
    groups = [g if isinstance(g, _Group) else _Group(g.name, (g,)) for g in groups]
    conds = [c for g in groups for c in g.conds]
    res, passed, has, _, inverse = _evaluate(conds, rep.lo, rep.hi, dim, tol)
    sizes = [len(g.conds) for g in groups]
    ran, missed = [], []
    for g, end in zip(groups, np.cumsum(sizes)):
        ready = has[end - len(g.conds):end].all(axis=0)
        gate = True if g.within is None else ran[g.within]
        ran.append(ready & gate)
        missed.append(~ready & gate)
    _emit(rep.checks, [c.name for c in conds], np.repeat(np.array(ran), sizes, axis=0),
          row_major, res, passed, inverse=inverse)
    _emit(rep.skipped, [g.skip for g in groups], np.array(missed), row_major, inverse=inverse)
    return rep


def _require(rep: WindowReport, failure: str):
    """Raise PreconditionError naming the first failed check of ``rep``."""
    bad = rep.first_failure()
    if bad is not None:
        raise PreconditionError(f"{failure} ({bad.condition} at n={bad.index})",
                                residual=bad.residual, index=bad.index)


def _gram(u: BandedOperator, side: str, d: int, row: int = 0) -> tuple:
    """Entry (i, i+d) of ``U U*`` (side "UU*") or ``U* U`` (side "U*U") at
    row i = n + row, summed over the bands k in ascending order."""
    offs = u.offsets
    if side == "UU*":      # sum_k U_{i, i+k} (U_{i+d, i+k})*
        return tuple((_At(u.band(k), row), _At(u.band(k - d), row + d).H)
                     for k in offs if k - d in offs)
    # sum_k (U_{i-k, i})* U_{i-k, i+d}
    return tuple((_At(u.band(k), row - k).H, _At(u.band(k + d), row - k))
                 for k in offs if k + d in offs)


# --- verifiers ---------------------------------------------------------------

def verify_intertwining(a: BandedOperator, s: BilateralShift, t: BilateralShift,
                        lo: int, hi: int, tol: Tolerance = DEFAULT_TOL) -> WindowReport:
    """Check ``A S = T A`` entrywise on the window.

    For each stored band offset k and each row i in [lo, hi] the condition is
    ``A_{i,i+k} S_{i+k} = T_i A_{i-1, i-1+k}``; every other entry of A S and
    T A is structurally zero on both sides.  Checks are listed band by band.
    """
    if not (a.dim == s.dim == t.dim):
        raise DimensionError("operator and shifts must share the block dimension")
    conds = []
    for k in a.offsets:
        lhs = ((_At(a.band(k)), _At(s.weights, k)),)
        rhs = ((_At(t.weights), _At(a.band(k), -1)),)
        conds.append(_Cond(f"band{k:+d}", lhs, rhs, scale=(lhs, rhs)))
    return _verify(WindowReport(lo, hi), conds, a.dim, tol, row_major=False)


def verify_unitary_banded(u: BandedOperator, lo: int, hi: int,
                          tol: Tolerance = DEFAULT_TOL) -> WindowReport:
    """Check ``U U* = I`` and ``U* U = I`` entrywise on the window.

    Works for any band pattern; the specialized two- and three-band
    verifiers below report the same conditions under structural names.
    """
    offs = u.offsets
    return _verify(WindowReport(lo, hi), [
        _Cond(f"{side}[{d:+d}]", _gram(u, side, d), _ONE if d == 0 else _ZERO)
        for d in sorted({k - kk for k in offs for kk in offs})
        for side in ("UU*", "U*U")], u.dim, tol)


def verify_unitary_two_band(u: BandedOperator, lo: int, hi: int,
                            tol: Tolerance = DEFAULT_TOL) -> WindowReport:
    """Unitarity of an operator with exactly two stored bands k1 < k2.

    Writing A_n, B_n for the entries on the lower and upper band and
    ``k = k2 - k1``, the operator is unitary exactly when, for every n:

    * rows resolve the identity:    ``A_n A_n* + B_n B_n* = I``
    * columns resolve the identity: ``A_{n+k}* A_{n+k} + B_n* B_n = I``
    * staggered ranges orthogonal:  ``A_{n+k} B_n* = 0``
    * same-row kernels orthogonal:  ``A_n* B_n = 0``
    """
    offs = u.offsets
    if len(offs) != 2:
        raise PreconditionError(f"expected exactly 2 bands, found {len(offs)}")
    k1, k2 = offs
    k = k2 - k1
    return _verify(WindowReport(lo, hi, context={"offsets": [k1, k2]}), [
        _Group("rows_identity", (
            _Cond("rows_identity", _gram(u, "UU*", 0), _ONE),
            _Cond("same_row_orthogonality", _gram(u, "U*U", k, k1)))),
        _Group("columns_identity", (
            _Cond("columns_identity", _gram(u, "U*U", 0, k2), _ONE),
            _Cond("staggered_orthogonality", _gram(u, "UU*", -k, k)))),
    ], u.dim, tol)


def verify_unitary_three_band(u: BandedOperator, lo: int, hi: int,
                              tol: Tolerance = DEFAULT_TOL) -> WindowReport:
    """Unitarity of an operator with bands exactly at offsets -1, 0, +1.

    With A_n, B_n, C_n the entries at offsets -1, 0, +1, the six condition
    families checked for each n are the structurally nonzero entries of
    ``U U* - I`` and ``U* U - I``:

    * ``A_n A_n* + B_n B_n* + C_n C_n* = I``
    * ``C_n A_{n+2}* = 0``
    * ``A_{n+1} B_n* + B_{n+1} C_n* = 0``
    * ``A_{n+1}* A_{n+1} + B_n* B_n + C_{n-1}* C_{n-1} = I``
    * ``A_n* C_n = 0``
    * ``B_n* C_n + A_{n+1}* B_{n+1} = 0``
    """
    if u.offsets != (-1, 0, 1):
        raise PreconditionError(
            f"expected bands exactly at offsets (-1, 0, +1), found {u.offsets}")
    return _verify(WindowReport(lo, hi), [
        _Group("rows_identity", (
            _Cond("rows_identity", _gram(u, "UU*", 0), _ONE),
            _Cond("same_row_orthogonality", _gram(u, "U*U", 2, -1)))),
        _Cond("gap_two_orthogonality", _gram(u, "UU*", 2)),
        _Group("gap_one_rows", (
            _Cond("gap_one_rows", _gram(u, "UU*", -1, 1)),
            _Cond("gap_one_columns", _gram(u, "U*U", 1)))),
        _Cond("columns_identity", _gram(u, "U*U", 0), _ONE),
    ], u.dim, tol)


def check_two_band_structure(u: BandedOperator, lo: int, hi: int,
                             tol: Tolerance = DEFAULT_TOL) -> WindowReport:
    """Structural consequences of two-band unitarity.

    Requires ``verify_unitary_two_band`` to pass on the window; then asserts
    that every band entry is a partial isometry, that same-row entries have
    orthogonal ranges, and that staggered co-ranges are orthogonal.
    """
    _require(verify_unitary_two_band(u, lo, hi, tol),
             "operator is not unitary on the window")
    k1, k2 = u.offsets
    a, b = _At(u.band(k1)), _At(u.band(k2))
    isometry = [_Cond(f"partial_isometry[{k:+d}]", ((w, w.H, w),), ((w,),),
                      scale=(((w,),), 1.0)) for k, w in ((k1, a), (k2, b))]
    return _verify(WindowReport(lo, hi), [
        _Group("partial_isometry", (*isometry, _Cond("range_orthogonality", ((a.H, b),)))),
        _Group("corange_orthogonality", (_Cond(
            "corange_orthogonality", ((_At(a.seq, k2 - k1), b.H),)),), within=0),
    ], u.dim, tol)


def check_diagonal_propagation(a: BandedOperator,
                               s: BilateralShift | None = None,
                               t: BilateralShift | None = None,
                               lo: int = 0, hi: int = 0,
                               tol: Tolerance = DEFAULT_TOL) -> WindowReport:
    """Check that every band is either entirely nonzero or entirely zero.

    An operator intertwining two shifts with invertible weights propagates
    any nonzero entry along its whole diagonal, so a band mixing zero and
    nonzero entries certifies that no such intertwining exists.  When shifts
    are supplied, the intertwining relation and their quasi-invertibility
    are verified first as preconditions.
    """
    if (s is None) != (t is None):
        raise ValueError("supply both shifts or neither")
    if s is not None:
        if not (s.quasi_invertible and t.quasi_invertible):
            raise PreconditionError("shifts must have quasi-invertible weights")
        _require(verify_intertwining(a, s, t, lo, hi, tol),
                 "intertwining fails on the window")
    names = [f"support[{k:+d}]" for k in a.offsets]
    norms, _, has, _, inverse = _evaluate([_Cond(name, ((_At(a.band(k)),),))
                                           for name, k in zip(names, a.offsets)],
                                          lo, hi, a.dim, tol)
    rep = WindowReport(lo, hi)
    _emit(rep.skipped, names, ~has, False, inverse=inverse)
    weight = np.bincount(inverse)       # rows per signature; each has one
    counts, rows, mixed = {}, [], []
    for k, norm, stored in zip(a.offsets, norms, has):
        nonzero = norm > tol.abs
        classes = (stored & nonzero, stored & ~nonzero)
        sizes = [int(weight[cls].sum()) for cls in classes]
        counts[k] = {"nonzero": sizes[0], "zero": sizes[1]}
        mixed.append(all(sizes))
        # name the first index of the minority class (nonzero on a tie)
        minority = classes[sizes[1] < sizes[0]]
        rows.append(int(np.argmax(minority[inverse])) if mixed[-1] else 0)
    rep.checks._add(names, range(len(names)), rows, np.zeros(len(names)), np.logical_not(mixed))
    rep.context["band_support"] = counts
    return rep


def check_band_count_bound(u: BandedOperator, bound: int, lo: int, hi: int,
                           tol: Tolerance = DEFAULT_TOL) -> WindowReport:
    """Row-wise projection structure and the band-count bound.

    Requires every stored entry on the window to be a partial isometry
    (raises otherwise, naming the entry).  For each row n the products
    ``U_{n,n+k} U_{n,n+k}*`` must then be orthogonal projections with
    mutually orthogonal ranges summing to the identity, which forces the
    number of effectively nonzero bands to be at most the block dimension.
    The effective count is reported in ``context``.
    """
    offs = u.offsets
    bands = [_At(u.band(k)) for k in offs]
    # rows 2j and 2j + 1: entry norms of band j, and their distance from
    # being partial isometries under ``tol.close``
    res, passed, has, _, inverse = _evaluate([cond for w in bands for cond in (
        _Cond("norm", ((w,),)),
        _Cond("partial_isometry", ((w, w.H, w),), ((w,),), scale=(((w, w.H, w),), ((w,),))))],
        lo, hi, u.dim, tol)
    nonzero = has[::2] & (res[::2] > tol.abs)
    broken = nonzero & ~passed[1::2]
    if broken.any():        # the first broken entry, band by band
        j = int(np.argmax(broken.any(axis=1)))
        r = int(np.argmax(broken[j][inverse]))
        raise PreconditionError(
            f"entry on band {offs[j]:+d} at n={lo + r} is not a partial isometry",
            index=lo + r, residual=float(res[2 * j + 1, inverse[r]]))
    effective = [(k, w) for k, w, nz in zip(offs, bands, nonzero) if nz.any()]
    rep = _verify(WindowReport(lo, hi), [_Group("projection_sum", (
        _Cond("projection_sum", tuple((w, w.H) for _, w in effective), _ONE),
        *(_Cond(f"mutual_orthogonality[{ki:+d},{kj:+d}]", ((wi, wi.H, wj, wj.H),))
          for (ki, wi), (kj, wj) in itertools.combinations(effective, 2))))],
        u.dim, tol)
    excess = len(effective) - bound
    rep.checks._add(["band_count"], [0], [0], [max(excess, 0)], [excess <= 0])
    rep.context.update(effective_band_count=len(effective), bound=bound)
    return rep


@dataclass
class ConjugationResult:
    """Outcome of conjugating a shift by a banded unitary."""

    shift: BilateralShift | None
    report: WindowReport

    @property
    def is_shift(self) -> bool:
        return self.shift is not None


def conjugate_to_shift(u: BandedOperator, s: BilateralShift, lo: int, hi: int,
                       tol: Tolerance = DEFAULT_TOL) -> ConjugationResult:
    """Compute ``U S U*`` on the window and read it back as a shift.

    Succeeds when the conjugated operator has all its weight concentrated on
    the shift band (offset -1) with every weight nonzero; otherwise returns
    a failure report listing the off-band residuals, diagonal by diagonal.

    Raises
    ------
    PreconditionError
        when U is not unitary on the window.
    """
    if u.dim != s.dim:
        raise DimensionError("operator and shift must share the block dimension")
    _require(verify_unitary_banded(u, lo, hi, tol),
             "operator is not unitary on the window")
    offs = u.offsets
    deltas = sorted({k - kk - 1 for k in offs for kk in offs})
    # (U S U*)_{i, i+d} = sum_k U_{i, i+k} S_{i+k} (U_{i+d, i+k-1})*
    conds = [_Cond(f"off_band[{d:+d}]", tuple(
        (_At(u.band(k)), _At(s.weights, k), _At(u.band(k - 1 - d), d).H)
        for k in offs if k - 1 - d in offs)) for d in deltas]
    main = deltas.index(-1)
    norms, _, has, values, inverse = _evaluate(conds, lo, hi, u.dim, tol, keep=main)
    rep = WindowReport(lo, hi)
    _emit(rep.skipped, [f"conjugated[{d:+d}]" for d in deltas], ~has, True, inverse=inverse)
    scale = norms[main][has[main]].max(initial=1.0)
    off_band = has & (np.arange(len(deltas)) != main)[:, None]
    _emit(rep.checks, [c.name for c in conds], off_band, False, norms,
          tol.accepts(norms, scale), inverse=inverse)
    band = slice(main, main + 1)
    _emit(rep.checks, ["shift_weight_nonzero"], has[band], False, norms[band],
          norms[band] > tol.abs, inverse=inverse)
    rows = np.flatnonzero(has[main][inverse])
    rep.context["row_range"] = [int(rows[0]) + lo, int(rows[-1]) + lo] if rows.size else None
    shift = None
    if rep.passed and rows.size and rows[-1] - rows[0] + 1 == rows.size:
        shift = BilateralShift(
            WindowedWeights(int(rows[0]) + lo, values[inverse[rows[0]:rows[-1] + 1]]),
            label=f"conj({s.label})" if s.label else "")
    return ConjugationResult(shift, rep)
