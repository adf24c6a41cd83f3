"""Dense complex matrix predicates and decompositions.

Everything here operates on plain ``numpy`` arrays with complex entries.
Matrices are small (a few hundred rows at most), so all routines use dense
LAPACK-backed factorizations.
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
    ``||X - Y||_F <= abs + rel * max(||X||_F, ||Y||_F)``.
    """

    rel: float = 1e-10
    abs: float = 1e-12

    def __post_init__(self):
        if not (0 <= self.rel < math.inf and 0 <= self.abs < math.inf):
            raise ValueError("tolerance components must be finite and nonnegative")

    def bound(self, scale: float) -> float:
        """Largest residual accepted at the given scale."""
        return self.abs + self.rel * float(scale)

    def close(self, x: np.ndarray, y: np.ndarray) -> bool:
        x = np.asarray(x, dtype=complex)
        y = np.asarray(y, dtype=complex)
        scale = max(np.linalg.norm(x), np.linalg.norm(y))
        return np.linalg.norm(x - y) <= self.bound(scale)


DEFAULT_TOL = Tolerance()


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={a.ndim}")
    if a.size == 0:
        raise DimensionError("matrix must be nonempty")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    return a


def require_square(m, what: str = "matrix") -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"{what} must be square, got shape {a.shape}")
    return a


def herm(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose, of each matrix of a stack."""
    return np.asarray(m).conj().swapaxes(-1, -2)


def frob(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(as_matrix(m), 2))


def condition_ratio(m: np.ndarray) -> float:
    """smin/smax of the matrix; 0.0 for the zero matrix."""
    s = np.linalg.svd(require_square(m), compute_uv=False)
    if s[0] == 0.0:
        return 0.0
    return float(s[-1] / s[0])


def polar_decompose(m, tol: Tolerance = DEFAULT_TOL):
    """Split a square matrix as ``M = W P`` with W unitary and P >= 0.

    Computed from the SVD ``M = X S Y*`` as ``W = X Y*`` and ``P = Y S Y*``,
    which fixes W canonically even when M is singular.  P equals the
    positive square root of ``M* M``.

    Returns
    -------
    (W, P) : pair of ndarrays
    """
    a = require_square(m)
    x, s, yh = np.linalg.svd(a)
    w = x @ yh
    p = herm(yh) @ (s[:, None] * yh)
    p = 0.5 * (p + herm(p))
    return w, p


def is_normal(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    a = require_square(a)
    return tol.close(herm(a) @ a, a @ herm(a))


def is_unitary(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when ``A* A`` and ``A A*`` both equal the identity."""
    a = require_square(a)
    eye = np.eye(a.shape[0])
    return tol.close(herm(a) @ a, eye) and tol.close(a @ herm(a), eye)


def nearest_unitary(m) -> np.ndarray:
    """Unitary polar factor; the closest unitary in Frobenius norm."""
    w, _ = polar_decompose(m)
    return w
