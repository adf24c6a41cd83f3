"""Dense complex matrix predicates and decompositions.

Everything here operates on plain ``numpy`` arrays with complex entries.
Matrices are small (a few hundred rows at most), so all routines use dense
LAPACK-backed factorizations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConditioningError,
    DecompositionError,
    DimensionError,
    PreconditionError,
    RankError,
)

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
        if self.rel < 0 or self.abs < 0:
            raise ValueError("tolerance components must be nonnegative")

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


def is_quasi_invertible(m, threshold: float = INVERTIBILITY_THRESHOLD) -> bool:
    """Invertibility with a conditioning margin: smin/smax > threshold."""
    return condition_ratio(m) > threshold


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


def is_partial_isometry(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when ``A A* A = A``.

    Equivalent to ``A* A`` being an orthogonal projection, i.e. A acts
    isometrically on the orthogonal complement of its kernel.
    """
    a = require_square(a)
    return tol.close(a @ herm(a) @ a, a)


def is_orthogonal_projection(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    a = require_square(a)
    return tol.close(a, herm(a)) and tol.close(a @ a, a)


def nearest_unitary(m) -> np.ndarray:
    """Unitary polar factor; the closest unitary in Frobenius norm."""
    w, _ = polar_decompose(m)
    return w


def metric_unitary_from_pair(s, t, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Return the unitary V with ``V S = T``, given ``S* S = T* T``.

    S must be invertible (conditioning threshold); the Gram equality
    ``S* S = T* T`` is the finite-dimensional form of ``||Sx|| = ||Tx||``
    for all x, and forces ``V = T S^{-1}`` to be unitary.

    Raises
    ------
    ConditioningError
        when S is singular or too ill-conditioned.
    PreconditionError
        when the Gram matrices disagree beyond tolerance; the error carries
        the residual ``||S*S - T*T||_F``.
    """
    s = require_square(s, "S")
    t = require_square(t, "T")
    if s.shape != t.shape:
        raise DimensionError(f"shape mismatch: {s.shape} vs {t.shape}")
    if not is_quasi_invertible(s):
        raise ConditioningError(
            f"S is singular or ill-conditioned (smin/smax = {condition_ratio(s):.3e})")
    gs = herm(s) @ s
    gt = herm(t) @ t
    if not tol.close(gs, gt):
        raise PreconditionError(
            "S*S and T*T disagree; no metric-preserving unitary exists",
            residual=frob(gs - gt))
    # right-inverse via solve: V = T S^{-1}  <=>  V S = T
    v = np.linalg.solve(s.T, t.T).T
    return v


def _commutator_ok(a, b) -> float:
    """Residual of [A, B] against the scale ||A||_F ||B||_F."""
    return frob(a @ b - b @ a)


def simultaneous_diagonalize(ms, tol: Tolerance = DEFAULT_TOL, seed: int = 0):
    """Jointly diagonalize commuting normal matrices by one unitary.

    Parameters
    ----------
    ms : sequence of square matrices, all the same size, each normal,
        pairwise commuting (both checked within ``tol``).
    seed : int
        Seed for the random linear combinations used to split spectra.

    Returns
    -------
    (V, Ds) : V unitary, Ds the list of diagonal matrices with
        ``V* M_i V = D_i``.

    Raises
    ------
    PreconditionError
        naming the first non-normal matrix or non-commuting pair.
    DecompositionError
        if no diagonalizing basis is found after several retries (does not
        happen for inputs satisfying the preconditions).
    """
    mats = [require_square(m, f"matrix {i}") for i, m in enumerate(ms)]
    if not mats:
        raise ValueError("need at least one matrix")
    dim = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.shape[0] != dim:
            raise DimensionError(f"matrix {i} has shape {m.shape}, expected ({dim}, {dim})")
        if not is_normal(m, tol):
            raise PreconditionError(f"matrix {i} is not normal", index=i,
                                    residual=frob(herm(m) @ m - m @ herm(m)))
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            res = _commutator_ok(mats[i], mats[j])
            if res > tol.bound(frob(mats[i]) * frob(mats[j])):
                raise PreconditionError(
                    f"matrices {i} and {j} do not commute", index=(i, j), residual=res)

    rng = np.random.default_rng(seed)
    for _ in range(8):
        v = _joint_eigenbasis(mats, rng)
        ds = [herm(v) @ m @ v for m in mats]
        good = True
        for m, d in zip(mats, ds):
            off = d - np.diag(np.diag(d))
            if frob(off) > tol.bound(max(frob(m), 1.0)):
                good = False
                break
        if good:
            return v, [np.diag(np.diag(d)) for d in ds]
    raise DecompositionError("failed to find a joint eigenbasis; inputs may be "
                             "borderline non-commuting at this tolerance")


def _joint_eigenbasis(mats, rng) -> np.ndarray:
    """Recursive generic-combination eigenbasis for commuting normal matrices."""
    dim = mats[0].shape[0]
    if dim == 1:
        return np.eye(1, dtype=complex)
    # Scalar blocks need no further splitting.
    if all(frob(m - m[0, 0] * np.eye(dim)) <= 1e-13 * max(frob(m), 1.0) for m in mats):
        return np.eye(dim, dtype=complex)

    h = np.zeros((dim, dim), dtype=complex)
    for m in mats:
        scale = max(frob(m), 1.0)
        c, d = rng.standard_normal(2)
        h += (c / scale) * 0.5 * (m + herm(m))
        h += (d / scale) * (m - herm(m)) / 2j
    vals, vecs = np.linalg.eigh(h)

    gap = 1e-8 * max(float(np.abs(vals).max()), 1.0)
    basis = np.zeros((dim, dim), dtype=complex)
    start = 0
    col = 0
    for stop in range(1, dim + 1):
        if stop < dim and vals[stop] - vals[stop - 1] <= gap:
            continue
        block = vecs[:, start:stop]
        if stop - start == 1:
            basis[:, col:col + 1] = block
        else:
            sub = [herm(block) @ m @ block for m in mats]
            w = _joint_eigenbasis(sub, rng)
            basis[:, col:col + (stop - start)] = block @ w
        col += stop - start
        start = stop
    return basis


def rank1_positive_decomposition(parts, total, tol: Tolerance = DEFAULT_TOL):
    """Coefficients a_i >= 0 with ``A_i = a_i C`` when ``C = sum A_i`` has rank 1.

    Each A_i must be positive semidefinite and the A_i must sum to C within
    tolerance.  The coefficients are ``trace(A_i) / trace(C)`` and sum to 1.

    Raises
    ------
    RankError
        when C is not (numerically) rank one.
    PreconditionError
        when an A_i is not PSD or the sum does not match C.
    DecompositionError
        when some ``A_i`` is not proportional to C after the fit.
    """
    mats = [require_square(a, f"summand {i}") for i, a in enumerate(parts)]
    c = require_square(total, "sum")
    if not mats:
        raise ValueError("need at least one summand")
    for i, a in enumerate(mats):
        if a.shape != c.shape:
            raise DimensionError(f"summand {i} has shape {a.shape}, expected {c.shape}")
        if not tol.close(a, herm(a)):
            raise PreconditionError(f"summand {i} is not Hermitian", index=i)
        lo = float(np.linalg.eigvalsh(0.5 * (a + herm(a))).min())
        if lo < -tol.bound(max(frob(a), 1.0)):
            raise PreconditionError(
                f"summand {i} is not positive semidefinite (min eigenvalue {lo:.3e})",
                index=i, residual=-lo)
    acc = sum(mats)
    if not tol.close(acc, c):
        raise PreconditionError("summands do not add up to the given total",
                                residual=frob(acc - c))
    svals = np.linalg.svd(c, compute_uv=False)
    if svals[0] <= tol.abs:
        raise RankError("total is numerically zero (rank 0)")
    if len(svals) > 1 and svals[1] > tol.bound(svals[0]):
        raise RankError(
            f"total has rank > 1 (second singular value {svals[1]:.3e})")

    trc = float(np.trace(c).real)
    coeffs = []
    for i, a in enumerate(mats):
        ai = max(float(np.trace(a).real) / trc, 0.0)
        if not tol.close(a, ai * c):
            raise DecompositionError(
                f"summand {i} is not proportional to the total "
                f"(residual {frob(a - ai * c):.3e})")
        coeffs.append(ai)
    return coeffs
