"""Bilateral operator-valued weighted shifts with finitely described weights.

A shift S acts on two-sided block vectors by ``(S x)_n = S_n x_{n-1}``; as an
infinite matrix its weights sit on the band just below the main diagonal,
``S_{n, n-1} = S_n``.  Weight sequences come in three finite descriptions:
periodic, eventually-identity, and windowed.

Every variant stores the matrices of rows lo..hi and states only what the
other rows hold.  A periodic sequence states its period: row n holds the
stored matrix of row n mod p.  The two span variants state two facts, and
``WeightSequence`` turns them into every read: the multiple of the identity
their off-span rows hold (the identity for eventually-identity, zero for
windowed) and whether those rows exist (a windowed sequence lacks them, so
``weight_at`` raises there and ``has_index`` is false).  Each variant
writes its own ``weight_at``, the read of one row.  A sequence stores its
matrices in one of two forms, fixed by what it was given:

* a list of matrices: a tuple of the arrays given (never one stacked copy,
  so a long window repeating a few matrices stays small), the same array
  object given twice stored once;
* one (N, d, d) array (a stack): that array itself when it is complex (a
  converted copy otherwise), row i holding row lo + i.  Its rows are
  distinct by construction, so the stack is also the table of distinct
  matrices below, and the checks made when the sequence is made (finite
  entries, a shift's nonzero weights) are single array operations.  The
  spec decoder, ``positive_form`` and ``conjugate_to_shift`` build
  sequences this way.

Either form holds the caller's complex arrays, not copies: an edit in
place is seen by the next read.

``weight_at(n)`` reads one row; ``rows(lo, hi)`` reads a range as a new
(N, d, d) stack with the mask of the rows the sequence defines;
``reindex_weights`` moves a sequence along the indices, keeping its variant
and its stored matrices.  Only this module maps indices to stored matrices.
Every range read starts from ``_reached``: a table holding each matrix the
rows read once (all stored matrices when there are no more of them than
rows), and each row's index into it.  ``rows`` gathers the table along
that index; the verifiers' engine keeps the table and the index, and
evaluates each distinct combination of table entries once.  The Gram
chains, the positive form, the eigenvalue screen and the periodic-witness
certificate read ranges through ``rows``.

Singular values have one reader, ``singular_values()``: a table with one
row per distinct stored matrix (and one for the matrix the variant puts
off its span), onto which any range of rows maps by the variant's index
rule.  Each read decomposes the matrices it reaches that are not yet in
the table, with one batched SVD.  Quasi-invertibility, norm profiles and
the conditioning checks of ``equivalence`` read it one value per row, so a
range of N rows costs O(N) floats whatever the block dimension; the
singular-value screen of ``equivalence`` reads all d values of each row, a
block of rows at a time, so its memory does not grow with the range.  A
reader is made per call and never kept: a sequence holds the caller's
arrays, which the caller may change.  Only which stored rows share one
array is worked out once, when the sequence is made.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .errors import DimensionError, WindowAccessError
from .matrices import INVERTIBILITY_THRESHOLD, require_square, singular_ratio


def identity_matrix(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def _validated(weights):
    """The weights as complex arrays, checked in one pass: nonempty, one
    square shape, finite entries.  Complex arrays are kept as given, not
    copied, so a window repeating a few matrices stays small.

    Returns the stored rows, the table of their distinct matrices and, for
    each row, the index of its matrix in that table.  A list gives a tuple
    of arrays and the sequence of its distinct arrays (distinct as objects,
    in order of first appearance); an (N, d, d) array is itself both the
    stored rows and the table, each row its own entry."""
    if isinstance(weights, np.ndarray) and weights.ndim == 3:
        stack = np.asarray(weights, dtype=complex)
        if not len(stack):
            raise ValueError("weight list must be nonempty")
        if stack.shape[1] != stack.shape[2] or not stack.shape[1]:
            require_square(stack[0], "weight 0")      # raises; every row has its shape
        if not np.isfinite(stack).all():
            raise ValueError("matrix entries must be finite")
        return stack, stack, np.arange(len(stack), dtype=np.min_scalar_type(len(stack)))
    mats = tuple(np.asarray(w, dtype=complex) for w in weights)
    if not mats:
        raise ValueError("weight list must be nonempty")
    shape = mats[0].shape
    by_id = {id(m): m for m in mats}
    distinct = list(by_id.values())
    if (len(shape) != 2 or shape[0] != shape[1] or not shape[0]
            or any(m.shape != shape for m in distinct)):
        i = next((i for i, m in enumerate(mats) if m.shape != shape), 0)
        if mats[i].ndim > 2:
            raise DimensionError(f"expected a matrix, got ndim={mats[i].ndim}")
        require_square(mats[i], f"weight {i}")     # raises unless square
        raise DimensionError(f"weight {i} has shape {mats[i].shape}, expected {shape}")
    if not np.isfinite(np.array(distinct)).all():
        raise ValueError("matrix entries must be finite")
    dtype = np.min_scalar_type(len(distinct))      # a window of few arrays stays small
    if len(distinct) == len(mats):
        return mats, mats, np.arange(len(mats), dtype=dtype)
    index = {key: i for i, key in enumerate(by_id)}
    return mats, distinct, np.fromiter((index[id(m)] for m in mats), dtype, len(mats))


def _sorted_distinct(values: np.ndarray):
    """The distinct entries of a 1-D integer array in ascending order, and
    the index of each entry among them: ``np.unique`` with
    ``return_inverse``, by one sort and one binary search.  (numpy 2.4's
    ``np.unique`` finds distinct integers with a hash table whose code adds
    about 1 MB to a process's resident size on first use.)"""
    ordered = np.sort(values)
    first = np.empty(len(ordered), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = ordered[first]
    return distinct, np.searchsorted(distinct, values)


class WeightSequence(ABC):
    """Two-sided sequence of dim x dim complex matrices.

    Every variant stores the matrices of rows lo..hi.  This class reads the
    other rows from two facts a span variant states: ``_off_span``, the
    multiple of the identity they hold, and ``_off_span_defined``, whether
    they exist.  A periodic sequence has no off-span rows (``_off_span`` is
    None) and states its own index rule.  ``rows`` reads any range at once,
    and ``singular_values`` the singular values of any range.
    """

    variant: str
    _off_span: float | None = None     # the multiple of I on rows off [lo, hi]
    _off_span_defined = True           # whether the rows off [lo, hi] exist
    _outside = None                    # the matrix of the rows off [lo, hi]

    def __init__(self, lo: int, weights):
        self._weights, self._distinct, self._slots = _validated(weights)
        self.lo = int(lo)
        self.hi = self.lo + len(self._weights) - 1
        self.dim = self._weights[0].shape[0]
        if self._off_span is not None:
            self._outside = self._off_span * identity_matrix(self.dim)

    @abstractmethod
    def weight_at(self, n: int) -> np.ndarray:
        """Matrix at index n.  Windowed sequences raise outside their range."""

    def has_index(self, n: int) -> bool:
        """Whether ``weight_at(n)`` is defined."""
        return self._off_span_defined or self.lo <= n <= self.hi

    def rows(self, lo: int, hi: int):
        """Rows lo..hi at once: a new (N, d, d) stack of ``weight_at(n)``,
        zero where it is undefined, and the (N,) ``has_index`` mask."""
        table, index, present = self._reached(lo, hi)
        return table.take(index, axis=0), present

    def _table_rows(self, lo: int, hi: int):
        """Rows lo..hi as (N,) indices into ``_distinct``, with
        ``len(_distinct)`` where the row holds ``_outside``, and the (N,)
        ``has_index`` mask: true on the stored span, ``_off_span_defined``
        off it."""
        count = max(hi - lo + 1, 0)
        a, b = (min(max(i, 0), count) for i in (self.lo - lo, self.hi + 1 - lo))
        rows = np.full(count, len(self._distinct))
        rows[a:b] = self._slots[lo + a - self.lo:lo + b - self.lo]
        present = np.full(count, self._off_span_defined)
        present[a:b] = True
        return rows, present

    @property
    def _table_size(self) -> int:
        """Rows of the table ``_table_rows`` indexes: the distinct stored
        matrices, then ``_outside`` if the variant has one."""
        return len(self._distinct) + (self._outside is not None)

    def _matrices(self, slots) -> np.ndarray:
        """The table rows ``slots`` as a new (K, d, d) stack: the distinct
        stored matrix ``_distinct[i]``, or ``_outside`` for
        i = ``len(_distinct)``."""
        outside = len(self._distinct)
        if isinstance(self._distinct, np.ndarray):       # a stack: one gather
            mats = self._distinct.take(np.minimum(slots, outside - 1), axis=0)
            if self._outside is not None:
                mats[slots == outside] = self._outside
            return mats
        mats = [self._distinct[i] if i < outside else self._outside for i in slots.tolist()]
        return np.array(mats, dtype=complex).reshape(len(mats), self.dim, self.dim)

    def _reached(self, lo: int, hi: int):
        """Rows lo..hi as a table of the matrices they reach: a (K, d, d)
        stack of ``_matrices``, the (N,) index of each row's matrix in it
        and the (N,) ``has_index`` mask.  The table holds each matrix once:
        every table row when there are no more of them than rows (the
        ``_table_rows`` indices are then the index), else only the distinct
        table rows the range reads, so a short range of a long stored span
        copies only the matrices it holds."""
        slots, present = self._table_rows(lo, hi)
        if self._table_size <= len(slots):
            return self._matrices(np.arange(self._table_size)), slots, present
        reached, index = _sorted_distinct(slots)
        return self._matrices(reached), index, present

    def singular_values(self) -> SingularValues:
        """A new reader of the singular values of every row."""
        return SingularValues(self)

    def described_items(self):
        """``(n, W_n)`` over the explicitly stored entries."""
        return [(self.lo + i, w) for i, w in enumerate(self._weights)]

    def described_range(self):
        """(lo, hi) of the stored entries; None when every index is stored
        implicitly (periodic)."""
        return (self.lo, self.hi)

    def __repr__(self):
        return f"{type(self).__name__}(lo={self.lo}, hi={self.hi}, dim={self.dim})"


class SingularValues:
    """The singular values of every row of a weight sequence.

    ``table`` holds the descending singular values of each distinct stored
    matrix (the table of ``_validated``: one per array object of a list,
    one per row of a stack), then those
    of the sequence's ``_outside`` matrix if it has one.  Rows map onto the
    table by the variant's index rule: ``n mod p`` (periodic), the
    identity's all-ones row off the span (eventually-identity), and the
    zero matrix's row where a windowed sequence lacks the row, which the
    ``has_index`` mask marks.  A table row is filled when a read first
    reaches it, by one batched ``np.linalg.svd`` per read, so a short range
    of a long stored span decomposes only the matrices it holds; rows not
    filled yet are NaN.
    """

    def __init__(self, seq: WeightSequence):
        self._seq = seq
        self.table = np.full((seq._table_size, seq.dim), np.nan)
        self._unfilled = seq._table_size

    def _fill(self, rows=None):
        """Decompose the table rows ``rows`` (every row when None) that are
        not filled yet."""
        if not self._unfilled:
            return
        todo = np.isnan(self.table[:, 0])
        if rows is not None:
            wanted = np.zeros_like(todo)
            wanted[rows] = True
            todo &= wanted
        todo = np.flatnonzero(todo)
        if todo.size:
            self.table[todo] = np.linalg.svd(self._seq._matrices(todo), compute_uv=False)
            self._unfilled -= todo.size

    @property
    def invertible(self) -> bool:
        """Every stored matrix passes the invertibility threshold.  Fills the
        whole table, so later reads decompose nothing more."""
        self._fill()
        return bool(np.all(singular_ratio(self.table[:len(self._seq._distinct)])
                           > INVERTIBILITY_THRESHOLD))

    def gather(self, lo: int, hi: int, func):
        """``func(table)[r]`` for the table row r of each row lo..hi, where
        ``func`` maps the (K, d) table to one value per table row, and the
        ``has_index`` mask."""
        rows, present = self._seq._table_rows(lo, hi)
        self._fill(rows)
        return func(self.table)[rows], present

    def norms(self, lo: int, hi: int):
        """Operator norms of rows lo..hi, and the ``has_index`` mask."""
        return self.gather(lo, hi, lambda table: table[:, 0])

    def ratios(self, lo: int, hi: int):
        """smin/smax of rows lo..hi, and the ``has_index`` mask."""
        return self.gather(lo, hi, singular_ratio)


class PeriodicWeights(WeightSequence):
    """``weight_at(n) = W_{n mod p}`` for stored matrices W_0 .. W_{p-1}.

    States its period and its own index rule, ``_table_rows``: every index
    is a row of the stored span, moved by a multiple of p, so there are no
    off-span rows."""

    variant = "periodic"

    def __init__(self, weights):
        super().__init__(0, weights)

    @property
    def period(self) -> int:
        return len(self._weights)

    def weight_at(self, n: int) -> np.ndarray:
        return self._weights[n % self.period]

    def _table_rows(self, lo: int, hi: int):
        rows = self._slots.take(np.arange(lo, hi + 1) % self.period)
        return rows, np.ones(len(rows), dtype=bool)

    def described_range(self):
        return None

    def __repr__(self):
        return f"PeriodicWeights(period={self.period}, dim={self.dim})"


class EventuallyIdentityWeights(WeightSequence):
    """Stored matrices on [lo, hi]; the identity everywhere else.

    States one fact: its off-span rows hold the identity (``_off_span`` 1)."""

    variant = "eventually_identity"
    _off_span = 1.0

    def weight_at(self, n: int) -> np.ndarray:
        return self._weights[n - self.lo] if self.lo <= n <= self.hi else self._outside


class WindowedWeights(WeightSequence):
    """Stored matrices on [lo, hi]; no other row exists.

    States two facts: its off-span rows do not exist
    (``_off_span_defined``), so ``weight_at`` raises an access error there
    and ``has_index`` is false, and ``rows`` fills them with zero
    (``_off_span`` 0)."""

    variant = "windowed"
    _off_span = 0.0
    _off_span_defined = False

    def weight_at(self, n: int) -> np.ndarray:
        if self.lo <= n <= self.hi:
            return self._weights[n - self.lo]
        raise WindowAccessError(
            f"index {n} outside stored window [{self.lo}, {self.hi}]", index=n)


def _require_rows(seq: WeightSequence, lo: int, present: np.ndarray):
    """Raise as ``weight_at`` does at the first row, counted from lo, that
    the ``has_index`` mask ``present`` lacks."""
    if not present.all():
        seq.weight_at(lo + int(np.argmin(present)))


def identity_weights(dim: int) -> PeriodicWeights:
    return PeriodicWeights([identity_matrix(dim)])


def reindex_weights(seq: WeightSequence, j: int) -> WeightSequence:
    """New sequence of the same variant with ``weight_at(n) = seq.weight_at(n + j)``."""
    if isinstance(seq, PeriodicWeights):
        return PeriodicWeights([seq.weight_at(i + j) for i in range(seq.period)])
    return type(seq)(seq.lo - j, seq._weights)


class BilateralShift:
    """Shift with weights ``{S_n}``: ``(S x)_n = S_n x_{n-1}``.

    A stored weight with every entry zero is refused, naming its row; any
    other is kept, however small its norm."""

    def __init__(self, weights: WeightSequence, label: str = ""):
        if not isinstance(weights, WeightSequence):
            raise TypeError("weights must be a WeightSequence")
        # a weight is zero only when every entry is, whatever its norm rounds to
        zero = np.flatnonzero(~np.asarray(weights._distinct).any(axis=(-2, -1))[weights._slots])
        if zero.size:
            raise ValueError(f"shift weight at index {weights.lo + zero[0]} is zero")
        self.weights = weights
        self.label = label

    @property
    def dim(self) -> int:
        return self.weights.dim

    def weight(self, n: int) -> np.ndarray:
        return self.weights.weight_at(n)

    @property
    def quasi_invertible(self) -> bool:
        """Every described weight passes the invertibility threshold."""
        return self.weights.singular_values().invertible

    def __repr__(self):
        name = f" {self.label!r}" if self.label else ""
        return f"BilateralShift{name}({self.weights!r})"


def weight_norm_profile(shift: BilateralShift, lo: int, hi: int):
    """Operator norms ``||S_n||`` for n = lo .. hi."""
    if hi < lo:
        raise ValueError("hi must be >= lo")
    norms, present = shift.weights.singular_values().norms(lo, hi)
    _require_rows(shift.weights, lo, present)
    return norms.tolist()
