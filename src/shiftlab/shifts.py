"""Bilateral operator-valued weighted shifts with finitely described weights.

A shift S acts on two-sided block vectors by ``(S x)_n = S_n x_{n-1}``; as an
infinite matrix its weights sit on the band just below the main diagonal,
``S_{n, n-1} = S_n``.  Weight sequences come in three finite descriptions:
periodic, eventually-identity, and windowed.

Every variant stores the matrices of rows lo..hi as a tuple of the arrays it
was given (never one stacked copy, so a long window repeating a few matrices
stays small) and differs only in what the other rows hold: the stored
matrices again (periodic), the identity (eventually-identity) or nothing
(windowed).  ``weight_at(n)`` reads one row; ``rows(lo, hi)`` reads a range
as an (N, d, d) stack with the mask of the rows the sequence defines.  Only
this module maps indices to stored matrices: the readers of a range (norm
profiles, the verifiers' engine, the screens of ``equivalence``) go through
``rows``, and those reading whole stored spans do so in blocks of
``_BLOCK_ROWS`` rows, so their working memory does not grow with the span.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .errors import DimensionError, WindowAccessError
from .matrices import (
    DEFAULT_TOL,
    INVERTIBILITY_THRESHOLD,
    Tolerance,
    condition_ratio,
    operator_norm,
    require_square,
)


def identity_matrix(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def _validated(weights) -> tuple:
    """The weights as complex arrays, checked in one pass over the list:
    nonempty, one square shape, finite entries.  Complex arrays are kept as
    given, not copied, so a window repeating a few matrices stays small."""
    mats = tuple(np.asarray(w, dtype=complex) for w in weights)
    if not mats:
        raise ValueError("weight list must be nonempty")
    shape = mats[0].shape
    distinct = list({id(m): m for m in mats}.values())
    if (len(shape) != 2 or shape[0] != shape[1] or not shape[0]
            or any(m.shape != shape for m in distinct)):
        i = next((i for i, m in enumerate(mats) if m.shape != shape), 0)
        if mats[i].ndim > 2:
            raise DimensionError(f"expected a matrix, got ndim={mats[i].ndim}")
        require_square(mats[i], f"weight {i}")     # raises unless square
        raise DimensionError(f"weight {i} has shape {mats[i].shape}, expected {shape}")
    if not np.isfinite(np.stack(distinct)).all():
        raise ValueError("matrix entries must be finite")
    return mats


class WeightSequence(ABC):
    """Two-sided sequence of dim x dim complex matrices.

    Every variant stores the matrices of rows lo..hi; the variant decides
    what the other rows hold.  ``rows`` reads any range at once.
    """

    variant: str

    def __init__(self, lo: int, weights):
        self._weights = _validated(weights)
        self.lo = int(lo)
        self.hi = self.lo + len(self._weights) - 1
        self.dim = self._weights[0].shape[0]

    @abstractmethod
    def weight_at(self, n: int) -> np.ndarray:
        """Matrix at index n.  Windowed sequences raise outside their range."""

    def has_index(self, n: int) -> bool:
        """Whether ``weight_at(n)`` is defined."""
        return True

    @abstractmethod
    def rows(self, lo: int, hi: int):
        """Rows lo..hi at once: an (N, d, d) stack of ``weight_at(n)``, zero
        where it is undefined, and the (N,) ``has_index`` mask."""

    def described_items(self):
        """``(n, W_n)`` over the explicitly stored entries."""
        return [(self.lo + i, w) for i, w in enumerate(self._weights)]

    def described_range(self):
        """(lo, hi) of the stored entries; None when every index is stored
        implicitly (periodic)."""
        return (self.lo, self.hi)

    def _span_rows(self, lo: int, hi: int, outside):
        """Rows lo..hi with ``outside`` off the stored span, and the mask of
        the rows inside it."""
        count = max(hi - lo + 1, 0)
        # rows [a, b) of the range are stored
        a, b = (min(max(i, 0), count) for i in (self.lo - lo, self.hi + 1 - lo))
        stack = np.empty((count, self.dim, self.dim), dtype=complex)
        stack[:a] = stack[b:] = outside
        if a < b:
            stack[a:b] = self._weights[lo + a - self.lo:lo + b - self.lo]
        inside = np.zeros(count, dtype=bool)
        inside[a:b] = True
        return stack, inside


class PeriodicWeights(WeightSequence):
    """``weight_at(n) = W_{n mod p}`` for stored matrices W_0 .. W_{p-1}."""

    variant = "periodic"

    def __init__(self, weights):
        super().__init__(0, weights)

    @property
    def period(self) -> int:
        return len(self._weights)

    def weight_at(self, n: int) -> np.ndarray:
        return self._weights[n % self.period]

    def rows(self, lo: int, hi: int):
        count = max(hi - lo + 1, 0)
        stack = np.empty((count, self.dim, self.dim), dtype=complex)
        for r in range(min(self.period, count)):    # rows r, r + p, ... agree
            stack[r::self.period] = self._weights[(lo + r) % self.period]
        return stack, np.ones(count, dtype=bool)

    def described_range(self):
        return None

    def __repr__(self):
        return f"PeriodicWeights(period={self.period}, dim={self.dim})"


class EventuallyIdentityWeights(WeightSequence):
    """Stored matrices on [lo, hi]; the identity everywhere else."""

    variant = "eventually_identity"

    def __init__(self, lo: int, weights):
        super().__init__(lo, weights)
        self._eye = identity_matrix(self.dim)

    def weight_at(self, n: int) -> np.ndarray:
        return self._weights[n - self.lo] if self.lo <= n <= self.hi else self._eye

    def rows(self, lo: int, hi: int):
        stack, _ = self._span_rows(lo, hi, self._eye)
        return stack, np.ones(len(stack), dtype=bool)

    def __repr__(self):
        return (f"EventuallyIdentityWeights(lo={self.lo}, hi={self.hi}, "
                f"dim={self.dim})")


class WindowedWeights(WeightSequence):
    """Stored matrices on [lo, hi]; any other index is an access error."""

    variant = "windowed"

    def weight_at(self, n: int) -> np.ndarray:
        if self.lo <= n <= self.hi:
            return self._weights[n - self.lo]
        raise WindowAccessError(
            f"index {n} outside stored window [{self.lo}, {self.hi}]", index=n)

    def has_index(self, n: int) -> bool:
        return self.lo <= n <= self.hi

    def rows(self, lo: int, hi: int):
        return self._span_rows(lo, hi, 0)

    def __repr__(self):
        return f"WindowedWeights(lo={self.lo}, hi={self.hi}, dim={self.dim})"


_BLOCK_ROWS = 512        # rows read at once from long ranges; keeps working memory flat


def _blockwise(seq: WeightSequence, lo: int, hi: int, func):
    """``func`` of the stack of ``seq.rows(lo, hi)``, evaluated on blocks of
    ``_BLOCK_ROWS`` rows and concatenated, and the ``has_index`` mask."""
    values, present = [], []
    for a in range(lo, max(hi, lo) + 1, _BLOCK_ROWS):     # one empty block if hi < lo
        stack, has = seq.rows(a, min(a + _BLOCK_ROWS - 1, hi))
        values.append(func(stack))
        present.append(has)
    return np.concatenate(values), np.concatenate(present)


def _require_rows(seq: WeightSequence, lo: int, present: np.ndarray):
    """Raise as ``weight_at`` does at the first row, counted from lo, that
    the ``has_index`` mask ``present`` lacks."""
    if not present.all():
        seq.weight_at(lo + int(np.argmin(present)))


def identity_weights(dim: int) -> PeriodicWeights:
    return PeriodicWeights([identity_matrix(dim)])


def reindex_weights(seq: WeightSequence, j: int) -> WeightSequence:
    """New sequence with ``weight_at(n) = seq.weight_at(n + j)``."""
    return map_weights(seq, lambda w: w, delta=j)


def map_weights(seq: WeightSequence, func, delta: int = 0) -> WeightSequence:
    """Transform ``weight_at(n) -> func(seq.weight_at(n + delta))``.

    Preserves the variant.  For eventually-identity input ``func`` must fix
    the identity matrix, otherwise the implicit tail would be misdescribed.
    """
    if isinstance(seq, PeriodicWeights):
        return PeriodicWeights([func(seq.weight_at(i + delta)) for i in range(seq.period)])
    eye = identity_matrix(seq.dim)
    if isinstance(seq, EventuallyIdentityWeights) and not DEFAULT_TOL.close(func(eye), eye):
        raise ValueError("transform must fix the identity for "
                         "eventually-identity sequences")
    return type(seq)(seq.lo - delta, [func(w) for w in seq._weights])


class BilateralShift:
    """Shift with weights ``{S_n}``: ``(S x)_n = S_n x_{n-1}``."""

    def __init__(self, weights: WeightSequence, label: str = ""):
        if not isinstance(weights, WeightSequence):
            raise TypeError("weights must be a WeightSequence")
        norms, _ = _blockwise(weights, weights.lo, weights.hi,
                              lambda w: np.linalg.norm(w, axis=(-2, -1)))
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise ValueError(f"shift weight at index {weights.lo + zero[0]} is zero")
        self.weights = weights
        self.label = label

    @property
    def dim(self) -> int:
        return self.weights.dim

    def weight(self, n: int) -> np.ndarray:
        return self.weights.weight_at(n)

    def has_weight(self, n: int) -> bool:
        return self.weights.has_index(n)

    @property
    def quasi_invertible(self) -> bool:
        """Every described weight passes the invertibility threshold."""
        seq = self.weights
        ratios, _ = _blockwise(seq, seq.lo, seq.hi, condition_ratio)
        return bool(np.all(ratios > INVERTIBILITY_THRESHOLD))

    def __repr__(self):
        name = f" {self.label!r}" if self.label else ""
        return f"BilateralShift{name}({self.weights!r})"


class WindowedVector:
    """Finitely supported block vector: blocks on [lo, hi], zero outside."""

    def __init__(self, lo: int, blocks):
        arr = np.asarray(blocks, dtype=complex)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise DimensionError("blocks must form a nonempty (count, dim) array")
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise ValueError("vector entries must be finite")
        self.lo = int(lo)
        self.blocks = arr

    @property
    def hi(self) -> int:
        return self.lo + self.blocks.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.blocks.shape[1]

    def block(self, n: int) -> np.ndarray:
        if self.lo <= n <= self.hi:
            return self.blocks[n - self.lo]
        return np.zeros(self.dim, dtype=complex)

    def norm(self) -> float:
        return float(np.linalg.norm(self.blocks))

    @classmethod
    def basis(cls, dim: int, index: int, coordinate: int) -> "WindowedVector":
        """Standard basis block vector: e_coordinate placed at index."""
        block = np.zeros(dim, dtype=complex)
        block[coordinate] = 1.0
        return cls(index, block[None, :])

    def allclose(self, other: "WindowedVector", tol: Tolerance = DEFAULT_TOL) -> bool:
        """Whether ``tol.close`` holds for the two vectors, each padded with
        zero blocks to the union of their ranges, as (count, dim) arrays."""
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        padded = [[x.block(n) for n in range(lo, hi + 1)] for x in (self, other)]
        return bool(tol.close(*padded))

    def __repr__(self):
        return f"WindowedVector(lo={self.lo}, hi={self.hi}, dim={self.dim})"


def apply_shift(shift: BilateralShift, x: WindowedVector) -> WindowedVector:
    """Image of x under the shift; support moves from [lo, hi] to [lo+1, hi+1]."""
    if shift.dim != x.dim:
        raise DimensionError(
            f"shift dim {shift.dim} does not match vector dim {x.dim}")
    w, present = shift.weights.rows(x.lo + 1, x.hi + 1)
    _require_rows(shift.weights, x.lo + 1, present)
    return WindowedVector(x.lo + 1, (w @ x.blocks[:, :, None])[:, :, 0])


def weight_norm_profile(shift: BilateralShift, lo: int, hi: int):
    """Operator norms ``||S_n||`` for n = lo .. hi."""
    if hi < lo:
        raise ValueError("hi must be >= lo")
    norms, present = _blockwise(shift.weights, lo, hi, operator_norm)
    _require_rows(shift.weights, lo, present)
    return norms.tolist()
