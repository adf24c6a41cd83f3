"""Canonical forms and the diagonal-form unitary-equivalence decision.

The decision procedure reduces "is there a unitary intertwiner supported on
one diagonal?" to finitely many matrix conditions: a weight-norm screen, an
eigenvalue-moduli screen for normal 2x2 weights, and the Gram-chain
conditions, which ask for one unitary conjugating two families of positive
matrices.  A found conjugator is turned into a full diagonal witness by a
two-sided recursion and re-verified; certified failures carry a recomputable
obstruction.

The joint conjugator is solved in the eigenbases of the first Gram pair.
There the first constraint is diagonal, so only the conjugator entries
joining (nearly) equal eigenvalues stay unknown: about d of them for a
simple spectrum, not d^2, which removes the d^6 cost of an SVD of the full
Kronecker system.  Dropping the other entries can only raise singular
values, and by a bounded amount, so infeasibility is certified against a
correspondingly looser cutoff; where the reduced system can neither verify a
unitary nor certify, the full system decides (see
``solve_joint_conjugator``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .bands import (
    BandedOperator,
    ConditionCheck,
    SkippedCheck,
    WindowReport,
    _emit,
    single_band,
    verify_intertwining,
)
from .errors import ConditioningError, DimensionError, PreconditionError, WindowAccessError
from .matrices import (
    DEFAULT_TOL,
    INVERTIBILITY_THRESHOLD,
    Tolerance,
    condition_ratio,
    frob,
    herm,
    is_normal,
    nearest_unitary,
    operator_norm,
    polar_decompose,
)
from .shifts import (
    BilateralShift,
    WindowedWeights,
    _blockwise,
    _require_rows,
)


class VerdictStatus(str, Enum):
    EQUIVALENT = "equivalent"
    NOT_EQUIVALENT = "not_equivalent"
    INCONCLUSIVE = "inconclusive"


@dataclass
class Obstruction:
    """A recomputable reason why no diagonal-form intertwiner exists."""

    kind: str          # "norm-profile" | "eigenvalue-moduli" | "gram-spectrum"
                       # | "conjugator-infeasible"
    offset: int
    index: int | None
    residual: float
    detail: str
    diagnostics: dict = field(default_factory=dict)   # the solver's margins


@dataclass
class EquivalenceVerdict:
    status: VerdictStatus
    offset: int | None = None
    witness: BandedOperator | None = None
    witness_report: WindowReport | None = None
    obstruction: Obstruction | None = None
    reason: str | None = None

    @property
    def is_equivalent(self) -> bool:
        return self.status is VerdictStatus.EQUIVALENT

    @property
    def is_not_equivalent(self) -> bool:
        return self.status is VerdictStatus.NOT_EQUIVALENT

    @property
    def is_inconclusive(self) -> bool:
        return self.status is VerdictStatus.INCONCLUSIVE

    def summary(self) -> str:
        if self.is_equivalent:
            return (f"equivalent at offset {self.offset} "
                    f"(witness max residual {self.witness_report.max_residual:.3e})")
        if self.is_not_equivalent:
            o = self.obstruction
            at = f" at n={o.index}" if o.index is not None else ""
            return (f"not equivalent at offset {o.offset}: {o.kind}{at} "
                    f"(residual {o.residual:.3e})")
        return f"inconclusive: {self.reason}"


def gram_chains(s: BilateralShift, t: BilateralShift, m: int, k_base: int,
                depth: int) -> np.ndarray:
    """Gram matrices of the matched forward and backward weight products.

    Forward, for n = 1..depth: products ``S_{m+k+n-1} ... S_{m+k}`` against
    ``T_{k+n-1} ... T_k`` (k = k_base).  Backward: adjoint products
    ``S_{m+k-n}* ... S_{m+k-1}*`` against ``T_{k-n}* ... T_{k-1}*``.  A
    unitary V satisfies all the metric equalities exactly when
    ``V* G_t V = G_s`` for every pair.

    Returns the (2*depth, 2, d, d) array of pairs ``(G_s, G_t)`` = ``P* P``:
    forward depths 1..depth, then backward depths 1..depth.  Weights are
    read forward S, forward T, backward S, backward T, each outward from its
    anchor row, so a missing row is the first one that order meets.
    """
    if depth < 1:
        raise ValueError("depth must be a positive integer")
    if s.dim != t.dim:
        raise DimensionError("shifts must share the block dimension")
    grams = np.empty((2, depth, 2, s.dim, s.dim), dtype=complex)
    for j, forward in enumerate((True, False)):
        for i, (shift, base) in enumerate(((s, m + k_base), (t, k_base))):
            acc = np.eye(shift.dim, dtype=complex)
            for n in range(depth):
                # each new factor sits leftmost: the next row forward, or
                # the adjoint of the next row backward
                acc = (shift.weight(base + n) if forward
                       else herm(shift.weight(base - 1 - n))) @ acc
                grams[j, n, i] = herm(acc) @ acc
    return grams.reshape(2 * depth, 2, s.dim, s.dim)


@dataclass
class ConjugatorResult:
    """Search outcome for a joint unitary conjugator.

    ``certificate`` is set when the absence of a solution is certified:
    "spectrum-mismatch" (some pair has different eigenvalues),
    "empty-nullspace" (the linear constraints only admit zero), or
    "singular-nullspace" (every sampled solution of the linear constraints
    was singular, so none can be unitary).  ``diagnostics`` records the
    cutoffs and the kept unknowns the answer rests on.
    """

    unitary: np.ndarray | None
    certificate: str | None = None
    pair_index: int | None = None
    residual: float = 0.0
    nullspace_dim: int = 0
    diagnostics: dict = field(default_factory=dict)


def _eigen_mismatch(g_s, g_t):
    """Largest gap between the sorted spectra of two Hermitian matrices."""
    es = np.sort(np.linalg.eigvalsh(0.5 * (g_s + herm(g_s))))
    et = np.sort(np.linalg.eigvalsh(0.5 * (g_t + herm(g_t))))
    gap = float(np.max(np.abs(es - et)))
    scale = max(float(np.max(np.abs(es))), float(np.max(np.abs(et))), 1.0)
    return gap, scale


#: First-pair eigenvalue gap, relative to that pair's scale, beyond which an
#: entry of the conjugator in the eigenbasis is dropped from the system.
_TAU = 1e-2
#: Random combinations of the null-space basis tried after the basis itself.
_RESTARTS = 64


def solve_joint_conjugator(pairs, tol: Tolerance = DEFAULT_TOL,
                           seed: int = 0) -> ConjugatorResult:
    """Find a unitary U with ``U* G_t U = G_s`` for every pair (G_s, G_t).

    ``pairs`` is a list of pairs or the (P, 2, d, d) array of ``gram_chains``.
    Each constraint is linear, ``G_t U - U G_s = 0``, block i scaled by
    ``s_i = max(||G_s||_F, ||G_t||_F, 1)``; call the stacked system A.  It is
    solved in the eigenbases of the first pair, ``G_s1 = Y_s L_s Y_s*`` and
    ``G_t1 = Y_t L_t Y_t*``: with ``U = Y_t X Y_s*`` block i becomes
    ``(Y_t* G_t Y_t) X - X (Y_s* G_s Y_s)``, a unitary change of both the
    unknown and each block's output, so the singular values are unchanged.
    Block 1 is now diagonal, entry ``X_ab`` scaled by
    ``delta_ab = (l_t,a - l_s,b) / s_1``, and only the k entries with
    ``|delta_ab| <= tau`` are kept (about d for a simple spectrum instead of
    d^2).  The restricted system is filled without Kronecker products and
    reduced by a thin SVD.

    The span of singular values ``<= c`` is searched for a unitary element
    by projecting candidate combinations to their unitary polar factor; the
    polar factor of any nonsingular null element satisfies the constraints
    again, and every returned unitary is checked against the pairs.  Here
    ``c = max(||A||, 1) * max(tol.rel, 1e-11)`` with ``||A||`` a cheap upper
    bound on the stacked norm, so c is at least the cutoff of an SVD of the
    full system.  Infeasibility is certified against the looser cutoff
    ``c_r = (c + ||A|| rho) / sqrt(1 - rho^2)``, ``rho = (c + e) / tau``,
    where e bounds the off-diagonal rounding of block 1: any v with
    ``||A v|| <= c ||v||`` has a dropped part of at most ``rho ||v||``, so
    the full null space maps onto a subspace of the same dimension on which
    the restricted system stays below ``c_r``.  No restricted singular
    value below ``c_r`` therefore certifies ``empty-nullspace`` for the full
    system too.  When the restricted system can neither verify a unitary
    nor certify, the full system (every entry kept, ``||A||`` its largest
    singular value, ``c_r = c``) settles the pairs, so a certificate never
    rests on the dropped entries.

    Certified results carry the smallest singular value of the system they
    rest on as ``residual``; ``diagnostics`` holds ``cutoff``,
    ``certify_cutoff``, ``columns_kept`` and ``tau``.
    """
    try:
        pairs = np.asarray(pairs, dtype=complex)
    except ValueError as exc:       # ragged input
        raise DimensionError("constraint pairs have inconsistent shapes") from exc
    if not len(pairs):
        raise ValueError("need at least one constraint pair")
    if pairs.ndim != 4 or pairs.shape[1] != 2 or pairs.shape[2] != pairs.shape[3]:
        raise DimensionError("constraint pairs must form a (P, 2, d, d) array, "
                             f"got shape {pairs.shape}")
    dim = pairs.shape[2]
    for i, (gs, gt) in enumerate(pairs):
        gap, scale = _eigen_mismatch(gs, gt)
        if gap > tol.bound(scale):
            return ConjugatorResult(None, certificate="spectrum-mismatch",
                                    pair_index=i, residual=gap)

    g_s, g_t = pairs[:, 0], pairs[:, 1]
    norm_s = np.linalg.norm(g_s, axis=(1, 2))
    norm_t = np.linalg.norm(g_t, axis=(1, 2))
    scales = np.maximum(np.maximum(norm_s, norm_t), 1.0)
    _, y_s = np.linalg.eigh(0.5 * (g_s[0] + herm(g_s[0])))
    _, y_t = np.linalg.eigh(0.5 * (g_t[0] + herm(g_t[0])))
    h_s = herm(y_s) @ g_s @ y_s
    h_t = herm(y_t) @ g_t @ y_t
    diag_s, diag_t = h_s[0].diagonal(), h_t[0].diagonal()
    scale1 = float(scales[0])
    leak = (frob(h_t[0] - np.diag(diag_t)) + frob(h_s[0] - np.diag(diag_s))) / scale1
    delta = np.abs(diag_t[:, None] - diag_s[None, :]) / scale1
    norm_bound = float(np.sqrt(np.sum(((norm_s + norm_t) / scales) ** 2)))
    rel = max(tol.rel, 1e-11)
    bound_cutoff = max(norm_bound, 1.0) * rel
    # tau stays at least twice the cutoff, so rho <= 1/2
    tau = max(_TAU, 2.0 * (bound_cutoff + leak))
    rng = np.random.default_rng(seed)
    eye = np.eye(dim)

    def candidates(x_basis):
        basis = y_t @ x_basis @ herm(y_s)
        yield from basis
        for _ in range(_RESTARTS):
            coeffs = (rng.standard_normal(len(basis))
                      + 1j * rng.standard_normal(len(basis)))
            yield np.tensordot(coeffs, basis, axes=1)

    def search(x_basis):
        """(verified unitary or None, best residual, saw a nonsingular one)."""
        saw_nonsingular = False
        best = math.inf
        for x in candidates(x_basis):
            if condition_ratio(x) <= INVERTIBILITY_THRESHOLD:
                continue
            saw_nonsingular = True
            w = nearest_unitary(x)
            worst = float(np.max(np.linalg.norm(herm(w) @ g_t @ w - g_s,
                                                axis=(1, 2)) / scales))
            if worst <= tol.bound(1.0):
                return w, worst, True
            best = min(best, worst)
        return None, best, saw_nonsingular

    def attempt(keep):
        """Solve on the entries X_ab with ``keep[a, b]``; None if unsettled."""
        rows, cols = np.nonzero(keep)
        # column j is X = e_r e_c^T: entry (p, q) of H_t X - X H_s is
        # H_t[p, r] [q == c] - [p == r] H_s[c, q]
        system = (h_t[:, :, None, rows] * eye[None, None, :, cols]
                  - eye[None, :, None, rows]
                  * h_s[:, cols, :].transpose(0, 2, 1)[:, None])
        system = (system / scales[:, None, None, None]).reshape(-1, len(rows))
        _, svals, vh = np.linalg.svd(system, full_matrices=False)
        reduced = len(rows) < dim * dim
        if reduced:
            cutoff = bound_cutoff
            rho = (cutoff + leak) / tau
            certify_cutoff = ((cutoff + norm_bound * rho)
                              / math.sqrt(1.0 - rho * rho))
        else:
            cutoff = certify_cutoff = max(float(svals[0]), 1.0) * rel
        diagnostics = {"cutoff": cutoff, "certify_cutoff": certify_cutoff,
                       "columns_kept": len(rows), "tau": tau if reduced else None}
        smallest = float(svals[-1])
        if smallest > certify_cutoff:
            return ConjugatorResult(None, certificate="empty-nullspace",
                                    residual=smallest, diagnostics=diagnostics)
        null = np.flatnonzero(svals <= cutoff)
        x_basis = np.zeros((len(null), dim, dim), dtype=complex)
        x_basis[:, rows, cols] = vh[null].conj()
        w, best, saw_nonsingular = search(x_basis)
        if w is not None:
            return ConjugatorResult(w, residual=best, nullspace_dim=len(null),
                                    diagnostics=diagnostics)
        if reduced:
            return None
        if not saw_nonsingular:
            return ConjugatorResult(None, certificate="singular-nullspace",
                                    residual=smallest, nullspace_dim=len(null),
                                    diagnostics=diagnostics)
        return ConjugatorResult(None, nullspace_dim=len(null), residual=best,
                                diagnostics={**diagnostics,
                                             "note": "nonsingular null elements "
                                                     "found but none verified"})

    found = attempt(delta <= tau)
    return found if found is not None else attempt(np.ones_like(delta, dtype=bool))


@dataclass
class PositiveForm:
    shift: BilateralShift
    diagonal: BandedOperator
    max_residual: float


def positive_form(s: BilateralShift, lo: int, hi: int,
                  tol: Tolerance = DEFAULT_TOL) -> PositiveForm:
    """Diagonal conjugation of a shift to one with positive weights.

    Polar-decomposes each weight ``S_n = U_n P_n`` and accumulates the
    unitary factors into a diagonal operator whose entries D_n satisfy
    ``D_n S_n = T_n D_{n-1}`` with ``T_n = V_{n-1}* P_n V_{n-1}`` Hermitian
    positive (definite when the weights are invertible).  Conjugation by a
    unitary preserves operator norms, so ``||T_n|| = ||S_n||``.

    Returns
    -------
    PositiveForm(shift, diagonal, max_residual)
        ``shift`` holds the positive weights on [lo, hi] (windowed);
        ``diagonal`` is the conjugating diagonal operator on [lo-1, hi];
        ``max_residual`` is the worst intertwining defect (machine level).
    """
    if hi < lo:
        raise ValueError("hi must be >= lo")
    w, present = s.weights.rows(lo, hi)
    # rows the sequence lacks are zero, so they count as singular here
    bad = np.flatnonzero(condition_ratio(w) <= INVERTIBILITY_THRESHOLD)
    if bad.size:
        n = lo + int(bad[0])
        _require_rows(s.weights, lo, present[:bad[0] + 1])     # raises if row n is absent
        raise ConditioningError(f"weight at n={n} is singular or ill-conditioned", index=n)
    unitaries, positives = polar_decompose(w)

    # v[j] is V_{lo-1+j}
    anchor = min(max(0, lo - 1), hi) - (lo - 1)
    v = np.empty((hi - lo + 2, s.dim, s.dim), dtype=complex)
    v[anchor] = np.eye(s.dim)
    for j in range(anchor + 1, len(v)):
        v[j] = unitaries[j - 1] @ v[j - 1]
    for j in range(anchor, 0, -1):
        v[j - 1] = herm(unitaries[j - 1]) @ v[j]

    t_weights = herm(v[:-1]) @ positives @ v[:-1]
    t_weights = 0.5 * (t_weights + herm(t_weights))
    res = np.linalg.norm(herm(v[1:]) @ w - t_weights @ herm(v[:-1]), axis=(-2, -1))

    shift = BilateralShift(WindowedWeights(lo, t_weights),
                           label=f"positive({s.label})" if s.label else "")
    diagonal = single_band(0, WindowedWeights(lo - 1, herm(v)),
                           label="positive-form conjugator")
    return PositiveForm(shift, diagonal, float(res.max()))


def _norm_mismatches(s, t, k_min, k_max, lo, hi, tol):
    """For each offset k in [k_min, k_max], the first (n, |gap|) where
    ``||S_{n+k}|| != ||T_n||`` on the window, or None.  Each shift's norm
    profile is computed once, over the rows the offsets reach."""
    count = max(hi - lo + 1, 0)
    norm_s, has_s = _blockwise(s.weights, lo + k_min, hi + k_max, operator_norm)
    norm_t, has_t = _blockwise(t.weights, lo, hi, operator_norm)
    out = []
    for j in range(k_max - k_min + 1):
        a = norm_s[j:j + count]
        gap = np.abs(a - norm_t)
        bad = np.flatnonzero(has_s[j:j + count] & has_t
                             & (gap > tol.bound(np.maximum(a, norm_t))))
        out.append((lo + int(bad[0]), float(gap[bad[0]])) if bad.size else None)
    return out


def norm_offset_screen(s: BilateralShift, t: BilateralShift, k_min: int,
                       k_max: int, lo: int, hi: int,
                       tol: Tolerance = DEFAULT_TOL) -> set:
    """Offsets k in [k_min, k_max] with ``||S_{n+k}|| = ||T_n||`` on the window.

    An empty result certifies that no diagonal-form intertwiner with offset
    in the range exists.
    """
    mismatches = _norm_mismatches(s, t, k_min, k_max, lo, hi, tol)
    return {k for k, mism in enumerate(mismatches, k_min) if mism is None}


def eigen_moduli_screen(s: BilateralShift, t: BilateralShift, k: int,
                        lo: int, hi: int,
                        tol: Tolerance = DEFAULT_TOL) -> WindowReport:
    """Compare eigenvalue-moduli multisets of ``S_{n+k}`` and ``T_n``.

    Valid screen for 2x2 normal weights: a diagonal-form intertwiner at
    offset k forces the moduli to agree at every n, so any failure refutes
    equivalence at that offset.
    """
    if s.dim != 2 or t.dim != 2:
        raise PreconditionError("eigenvalue-moduli screen requires dim 2")
    ws, has_s = s.weights.rows(lo + k, hi + k)
    wt, has_t = t.weights.rows(lo, hi)
    both = has_s & has_t
    abnormal = [both & ~is_normal(w, tol) for w in (ws, wt)]
    bad = np.flatnonzero(abnormal[0] | abnormal[1])
    if bad.size:
        n = lo + int(bad[0])
        name = "S" if abnormal[0][bad[0]] else "T"
        raise PreconditionError(f"{name}-weight at n={n} is not normal", index=n)
    ms, mt = (np.sort(np.abs(np.linalg.eigvals(w)), axis=-1) for w in (ws, wt))
    gap = np.abs(ms - mt).max(axis=-1)
    scale = np.maximum(np.maximum(ms.max(axis=-1), mt.max(axis=-1)), 1.0)
    rep = WindowReport(lo, hi)
    names = ["eigen_moduli"]
    _emit(rep.checks, ConditionCheck, lo, names, both[None], False, gap[None],
          (gap <= tol.bound(scale))[None])
    _emit(rep.skipped, SkippedCheck, lo, names, ~both[None], False)
    return rep


def diagonal_witness(s: BilateralShift, t: BilateralShift, m: int,
                     u0: np.ndarray, lo: int, hi: int,
                     tol: Tolerance = DEFAULT_TOL,
                     unitary_tol: float = 1e-8) -> BandedOperator:
    """Single-band intertwiner at offset m built from the anchor unitary.

    The band holds the entries ``V_n`` for rows ``lo-1 .. hi`` of the
    single-band operator at offset m that intertwines S into T.  The entries
    obey ``V_n S_{n+m} = T_n V_{n-1}`` with the anchor ``V_{-1} = u0``;
    upward entries use weight inverses of S, downward entries inverses of T.
    Each entry is checked for unitarity, which holds exactly when the Gram
    conditions held for ``u0`` at the required depth.

    Raises
    ------
    PreconditionError
        naming the first row whose entry drifts from unitarity beyond
        ``unitary_tol`` (the Gram precondition failed at that depth).
    ConditioningError
        when a required weight inverse is ill-conditioned.
    """
    u0 = np.asarray(u0, dtype=complex)
    if u0.shape != (s.dim, s.dim):
        raise DimensionError("anchor unitary has the wrong shape")
    eye = np.eye(s.dim)
    if frob(herm(u0) @ u0 - eye) > unitary_tol:
        raise PreconditionError("anchor matrix is not unitary",
                                residual=frob(herm(u0) @ u0 - eye))

    def checked(n, mat):
        res = frob(herm(mat) @ mat - eye)
        if res > unitary_tol:
            raise PreconditionError(
                f"diagonal entry at n={n} is not unitary; the metric "
                f"conditions fail at this depth", residual=res, index=n)
        return mat

    def solve(a, x, n):
        """``a^{-1} x`` for a (possibly transposed) weight a of row n."""
        if condition_ratio(a) <= INVERTIBILITY_THRESHOLD:
            raise ConditioningError(f"weight at n={n} is not invertible", index=n)
        return np.linalg.solve(a, x)

    entries = {-1: u0}
    for n in range(0, hi + 1):          # V_n = T_n V_{n-1} S_{n+m}^{-1}
        entries[n] = checked(n, t.weight(n) @ solve(s.weight(n + m).T,
                                                    entries[n - 1].T, n + m).T)
    for n in range(-1, lo - 1, -1):     # V_{n-1} = T_n^{-1} V_n S_{n+m}
        entries[n - 1] = checked(n - 1, solve(t.weight(n),
                                              entries[n] @ s.weight(n + m), n))
    mats = [entries[n] for n in range(lo - 1, hi + 1)]
    return single_band(m, WindowedWeights(lo - 1, mats), label="diagonal witness")


def _decision_scope(s, t, m, window=None, depth=None):
    """The rows and depth a decision at offset m reads, fixed once.

    Returns ``(spans, window, depth, period)``.  ``spans`` are the described
    ranges of S and T in witness rows n, where S's index is n + m; ``period``
    is the lcm of the periods, or None.  The automatic window covers the
    spans with a margin of 2 rows, and [-period - 2, period + 2] for periodic
    weights.  The automatic depth is the largest reach of a span from the
    anchor rows 0/-1, plus 4, plus twice the period for periodic weights:
    eventually-identity products stabilize once the supports are exhausted,
    periodic ones are sampled over two periods.  Windowed descriptions clip
    the window and cap the depth at the rows they store.  A given window or
    depth is kept; an automatic window that comes out empty raises
    ``PreconditionError``.
    """
    spans, stored, periods = [], [], []
    for seq, delta in ((s.weights, -m), (t.weights, 0)):
        rng = seq.described_range()
        if rng is None:
            periods.append(seq.period)
            continue
        spans.append((rng[0] + delta, rng[1] + delta))
        if isinstance(seq, WindowedWeights):
            stored.append(spans[-1])
    period = math.lcm(*periods) if periods else None
    lo = min((a for a, _ in spans), default=0) - 2
    hi = max((b for _, b in spans), default=0) + 2
    reach = max((max(b, -a, 0) for a, b in spans), default=0) + 4
    if period is not None:
        lo, hi = min(lo, -period - 2), max(hi, period + 2)
        reach += 2 * period
    for a, b in stored:
        lo, hi = max(lo, a), min(hi, b)
        reach = min(reach, b + 1, -a)
    if window is None:
        if hi < lo:
            raise PreconditionError("stored weight windows leave no usable "
                                    f"decision window at offset {m}")
        window = (lo, hi)
    return spans, window, max(reach, 1) if depth is None else depth, period


def _inconclusive(m, reason):
    return EquivalenceVerdict(VerdictStatus.INCONCLUSIVE, offset=m, reason=reason)


def _not_equivalent(m, kind, index, residual, detail, diagnostics=None):
    return EquivalenceVerdict(
        VerdictStatus.NOT_EQUIVALENT, offset=m,
        obstruction=Obstruction(kind, m, index, residual, detail,
                                diagnostics or {}))


def decide_diagonal_equivalence(s: BilateralShift, t: BilateralShift, m: int,
                                depth: int | None = None,
                                window: tuple | None = None,
                                tol: Tolerance = DEFAULT_TOL,
                                seed: int = 0) -> EquivalenceVerdict:
    """Decide unitary equivalence by a single-band intertwiner at offset m.

    Pipeline: weight-norm screen at offset m, eigenvalue-moduli screen (2x2
    normal weights), Gram chains to the stabilization depth, joint-conjugator
    search, then construction and re-verification of the full diagonal
    witness.  Verdicts are certified relative to the window; for periodic
    weights an Equivalent verdict additionally requires the witness entries
    to repeat with the combined period, otherwise the result is
    ``inconclusive`` rather than an extrapolation.
    """
    if s.dim != t.dim:
        raise DimensionError("shifts must share the block dimension")
    for name, shift in (("S", s), ("T", t)):
        if not shift.quasi_invertible:
            raise ConditioningError(f"{name} has weights failing the "
                                    f"invertibility threshold")
    spans, (lo, hi), depth, period = _decision_scope(s, t, m, window, depth)

    mism = _norm_mismatches(s, t, m, m, lo, hi, tol)[0]
    if mism is not None:
        n, gap = mism
        return _not_equivalent(m, "norm-profile", n, gap,
                               f"||S_{{n+{m}}}|| != ||T_n|| at n={n}")

    if s.dim == 2 and all(_blockwise(x.weights, x.weights.lo, x.weights.hi,
                                     lambda w: is_normal(w, tol))[0].all() for x in (s, t)):
        rep = eigen_moduli_screen(s, t, m, lo, hi, tol)
        if not rep.passed:
            bad = rep.first_failure()
            return _not_equivalent(m, "eigenvalue-moduli", bad.index, bad.residual,
                                   f"eigenvalue moduli differ at n={bad.index}")

    try:
        pairs = gram_chains(s, t, m, 0, depth)
    except WindowAccessError as exc:
        return _inconclusive(m, f"the Gram chains anchored at row 0 need a weight "
                                f"the stored windows lack: {exc}")
    found = solve_joint_conjugator(pairs, tol=tol, seed=seed)
    if found.unitary is None:
        if found.certificate == "spectrum-mismatch":
            i = found.pair_index
            direction = "forward" if i < depth else "backward"
            step = (i % depth) + 1
            return _not_equivalent(
                m, "gram-spectrum", step, found.residual,
                f"{direction} product Gram spectra differ at depth {step}")
        if found.certificate in ("empty-nullspace", "singular-nullspace"):
            return _not_equivalent(
                m, "conjugator-infeasible", None, found.residual,
                f"no unitary satisfies the metric conditions to depth {depth} "
                f"({found.certificate})", found.diagnostics)
        return _inconclusive(m, f"conjugator search exhausted without certificate "
                                f"(nullspace dim {found.nullspace_dim})")

    verify_tol = Tolerance(rel=max(tol.rel, 1e-8), abs=max(tol.abs, 1e-10))
    try:
        witness = diagonal_witness(s, t, m, found.unitary, lo, hi, tol)
    except (PreconditionError, ConditioningError, WindowAccessError) as exc:
        return _inconclusive(m, f"witness construction failed: {exc}")
    wrep = verify_intertwining(witness, s, t, lo, hi, verify_tol)
    if not wrep.passed:
        return _inconclusive(m, "constructed witness failed re-verification")

    if period is not None:
        ok, why = _periodic_witness_certificate(witness, m, period, spans,
                                                lo, hi, verify_tol)
        if not ok:
            return _inconclusive(m, f"metric conditions hold to depth {depth} but the "
                                    f"witness does not certify the periodic horizon: {why}")
    return EquivalenceVerdict(VerdictStatus.EQUIVALENT, offset=m,
                              witness=witness, witness_report=wrep)


def _periodic_witness_certificate(witness, m, period, spans, lo, hi, tol):
    """A periodic witness extends to all indices; check entries repeat.

    Beyond the described ``spans`` (in witness rows) the recursion
    ``V_n S_{n+m} = T_n V_{n-1}`` has periodic coefficients, so
    ``V_{n+period} = V_n`` on both window margins implies it for every
    index.  Empty margins mean the window is too small to certify.
    """
    band = witness.band(m)
    upper_start = max([b for _, b in spans], default=lo - 1) + 1
    lower_end = min([a for a, _ in spans], default=hi + 1) - 1

    def entries_repeat(a, b):
        w, present = band.rows(a, b)
        both = present[:-period] & present[period:]
        if not both.any():
            return False, "window leaves no margin to compare a full period"
        differ = np.flatnonzero(both & ~tol.close(w[:-period], w[period:]))
        if differ.size:
            n = a + int(differ[0])
            return False, f"entries at n={n} and n={n + period} differ"
        return True, ""

    for a, b in ((max(upper_start, lo - 1), hi), (lo - 1, min(lower_end, hi))):
        ok, why = entries_repeat(a, b)
        if not ok:
            return False, why
    return True, ""


def decide_diagonal_equivalence_scan(s: BilateralShift, t: BilateralShift,
                                     k_min: int, k_max: int,
                                     depth: int | None = None,
                                     window: tuple | None = None,
                                     tol: Tolerance = DEFAULT_TOL,
                                     seed: int = 0) -> EquivalenceVerdict:
    """Scan offsets in [k_min, k_max], trying norm-feasible ones first.

    Returns the first Equivalent verdict (offsets ordered by |m|, positive
    first on ties); otherwise Inconclusive if any offset was inconclusive;
    otherwise NotEquivalent with the scan summary as obstruction.

    Raises
    ------
    ValueError
        when ``k_min > k_max``: an empty range refutes nothing.
    """
    if k_min > k_max:
        raise ValueError(f"empty offset range [{k_min}, {k_max}]")
    if window is None:
        base_lo, base_hi = _decision_scope(s, t, 0)[1]
        spread = max(abs(k_min), abs(k_max))
        lo, hi = base_lo - spread, base_hi + spread
    else:
        lo, hi = window
    feasible = sorted(norm_offset_screen(s, t, k_min, k_max, lo, hi, tol),
                      key=lambda k: (abs(k), -k))
    if not feasible:
        return _not_equivalent(
            0, "norm-profile", None, 0.0,
            f"no offset in [{k_min}, {k_max}] matches the weight-norm profile")
    inconclusive = []
    last = None
    for m in feasible:
        verdict = decide_diagonal_equivalence(s, t, m, depth=depth,
                                              window=window, tol=tol, seed=seed)
        if verdict.is_equivalent:
            return verdict
        if verdict.is_inconclusive:
            inconclusive.append(verdict)
        last = verdict
    if inconclusive:
        return inconclusive[0]
    verdict = last
    verdict.obstruction.detail += (
        f" (last of {len(feasible)} norm-feasible offsets scanned)")
    return verdict
