"""Dense complex matrix predicates and decompositions.

Everything here operates on plain ``numpy`` arrays with complex entries.
Matrices are small (a few hundred rows at most), so all routines use dense
LAPACK-backed factorizations.

Every predicate and decomposition acts on a single matrix or on an
(N, d, d) stack, on the last two axes as ``herm`` does: a stack gives an
array of results, one per matrix, equal to the per-matrix calls.  These are
the only definitions of the numerical conventions (tolerance, invertibility,
operator norm, polar factors); the readers of weight stacks elsewhere call
them rather than restating them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

#: A matrix counts as (quasi-)invertible when smin/smax exceeds this ratio.
INVERTIBILITY_THRESHOLD = 1e-10


@dataclass(frozen=True)
class Tolerance:
    """Two-part comparison tolerance.

    ``X`` and ``Y`` compare equal when
    ``||X - Y||_F <= abs + rel * max(||X||_F, ||Y||_F)`` and that bound is
    finite, or when ``X - Y`` is zero (see ``accepts``).
    """

    rel: float = 1e-10
    abs: float = 1e-12

    def __post_init__(self):
        if not (0 <= self.rel < math.inf and 0 <= self.abs < math.inf):
            raise ValueError("tolerance components must be finite and nonnegative")

    def bound(self, scale):
        """Largest residual accepted at the given scale, or at each scale of
        an array."""
        return self.abs + self.rel * (scale if isinstance(scale, np.ndarray) else float(scale))

    def accepts(self, residual, scale):
        """Whether a residual passes at its scale, elementwise for arrays:
        it is within a finite bound, or zero.  An overflowed residual (inf
        or NaN) never passes; under an overflowed scale only zero does."""
        bound = self.bound(scale)
        if isinstance(bound, np.ndarray):
            return residual <= np.where(bound < math.inf, bound, 0.0)
        return residual <= (bound if bound < math.inf else 0.0)

    def refutes(self, gap, scale):
        """Whether a gap certifies a difference, elementwise for arrays: it is
        finite and beyond the bound.  An overflowed gap refutes nothing."""
        return (gap > self.bound(scale)) & (gap < math.inf)

    @np.errstate(over="ignore", invalid="ignore")   # an overflowed norm fails
    def close(self, x: np.ndarray, y: np.ndarray):
        """Whether X and Y compare equal; for stacks, pair by pair."""
        x = np.asarray(x, dtype=complex)
        y = np.asarray(y, dtype=complex)
        return self.accepts(frob_norms(x - y), np.maximum(frob_norms(x), frob_norms(y)))


DEFAULT_TOL = Tolerance()


def as_matrix(m) -> np.ndarray:
    """Coerce a matrix or a stack of matrices to a complex array, rejecting
    empty matrices and non-finite entries (an empty stack is accepted)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2:
        raise DimensionError(f"expected a matrix, got ndim={a.ndim}")
    if not (a.shape[-2] and a.shape[-1]):
        raise DimensionError("matrix must be nonempty")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def require_square(m, what: str = "matrix") -> np.ndarray:
    a = as_matrix(m)
    if a.shape[-2] != a.shape[-1]:
        raise DimensionError(f"{what} must be square, got shape {a.shape}")
    return a


def herm(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose, of each matrix of a stack."""
    return np.asarray(m).conj().swapaxes(-1, -2)


def frob(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


@np.errstate(over="ignore", invalid="ignore")     # an overflow is redone below
def frob_norms(m: np.ndarray):
    """Frobenius norm over the last two axes: a float for one matrix, an
    array for a stack.

    ``np.linalg.norm`` squares the entries, so a norm above about 1e154
    overflows to inf.  Only where it did, the norm is taken again of the
    matrix divided by its largest real or imaginary part, and scaled back;
    a matrix with an infinite entry keeps the norm inf.
    """
    m = np.asarray(m)
    out = np.asarray(np.linalg.norm(m, axis=(-2, -1)))
    over = np.isinf(out)
    if over.any():
        big = m[over]
        top = np.maximum(np.abs(big.real).max(axis=(-2, -1)),
                         np.abs(big.imag).max(axis=(-2, -1)))
        scaled = top * np.linalg.norm(big / top[:, None, None], axis=(-2, -1))
        out[over] = np.where(top < math.inf, scaled, math.inf)
    return _scalar_or_array(out)


def _scalar_or_array(a: np.ndarray):
    """A float for the result of a single matrix, else the array."""
    return float(a) if a.ndim == 0 else a


def operator_norm(m: np.ndarray):
    """Largest singular value."""
    return _scalar_or_array(np.linalg.svd(as_matrix(m), compute_uv=False)[..., 0])


def singular_ratio(s: np.ndarray) -> np.ndarray:
    """smin/smax of descending singular values on the last axis; 0.0 where
    they are all zero."""
    top = s[..., 0]
    return s[..., -1] / (top + (top == 0.0))    # zero matrix: 0 / 1


def condition_ratio(m: np.ndarray):
    """smin/smax of the matrix; 0.0 for the zero matrix."""
    return _scalar_or_array(singular_ratio(
        np.linalg.svd(require_square(m), compute_uv=False)))


def polar_decompose(m):
    """Split a square matrix as ``M = W P`` with W unitary and P >= 0.

    Computed from the SVD ``M = X S Y*`` as ``W = X Y*`` and ``P = Y S Y*``,
    which fixes W canonically even when M is singular.  P equals the
    positive square root of ``M* M``.

    Returns
    -------
    (W, P) : pair of ndarrays
    """
    return polar_factors(*np.linalg.svd(require_square(m)))


def polar_factors(x, s, yh):
    """The polar factors ``(W, P)`` of ``M = X S Y*`` from its SVD
    ``np.linalg.svd(M)``, as ``polar_decompose(M)`` returns them; for a
    caller that reads the singular values too and decomposes once."""
    w = x @ yh
    p = herm(yh) @ (s[..., :, None] * yh)
    return w, 0.5 * (p + herm(p))


def is_normal(a, tol: Tolerance = DEFAULT_TOL):
    """True when ``A* A`` equals ``A A*``."""
    a = require_square(a)
    return tol.close(herm(a) @ a, a @ herm(a))


def is_unitary(a, tol: Tolerance = DEFAULT_TOL):
    """True when ``A* A`` and ``A A*`` both equal the identity."""
    a = require_square(a)
    eye = np.eye(a.shape[-1])
    return tol.close(herm(a) @ a, eye) & tol.close(a @ herm(a), eye)


def nearest_unitary(m) -> np.ndarray:
    """Unitary polar factor; the closest unitary in Frobenius norm."""
    w, _ = polar_decompose(m)
    return w
