"""Canonical forms and the diagonal-form unitary-equivalence decision.

The decision procedure reduces "is there a unitary intertwiner supported on
one diagonal?" to finitely many matrix conditions: a singular-value screen
and the Gram-chain conditions, which ask for one unitary conjugating two
families of positive matrices.  A diagonal-form intertwiner at offset m
gives ``T_n = V_n S_{n+m} V_{n-1}*`` with every ``V_n`` unitary, so
``S_{n+m}`` and ``T_n`` have the same singular values at every row; the
screen compares all of them, row by row, at any block dimension (for d = 1
this is Shields' criterion that the weight moduli match).  A found
conjugator is turned into a full diagonal witness by a two-sided recursion
and re-verified; certified failures carry a recomputable obstruction.

A decision decomposes each shift's weights once: one batched SVD of the
distinct stored matrices per shift (``WeightSequence.singular_values``),
read three times, by the quasi-invertibility check, the singular-value
screen and the conditioning checks of the witness recursion.  The Gram
chains read each shift's rows once and advance as one batched product.  So
a decision that the screen or the Gram spectra refute makes two SVD calls.
An equivalent decision makes those two, one per linear system the
conjugator solver solves (of the square triangle of the system's QR
factorization) and one per candidate its span search tries (no system and
no candidate when the identity passes): each candidate's conditioning and
unitary polar factor come from its one SVD.
An offset scan reads the pair of readers once, for its screen over every
offset, and passes them to every decision.

The joint conjugator is solved in the eigenbases of one Gram pair: the
first, unless it keeps all d^2 unknowns (a scalar Gram, say); then the
pair that keeps the fewest.  There that constraint is diagonal, so only
the conjugator entries joining (nearly) equal eigenvalues stay unknown:
about d of them for a simple spectrum, not d^2, which removes the d^6 cost
of an SVD of the full Kronecker system.  Dropping the other entries can
only raise singular values, and by a bounded amount, so infeasibility is
certified against a correspondingly looser cutoff; where the reduced
system can neither verify a unitary nor certify, the full system decides.
When every pair is (nearly) scalar the identity is tried before the full
system.  Each distinct constraint is solved once: a pair bitwise equal to
the one before it, or of one multiple of I on both sides, adds no
constraint and is neither decomposed nor stacked.  Two generic pairs
already pin the conjugator up to a phase, so the system of the first two
kept pairs, the head, is solved first; its unitary is returned only if it
passes every kept pair, and otherwise every kept pair is solved as if the
head had not run.  ``solve_joint_conjugator`` runs these stages on module
functions: the spectrum screen fills one array of spectra, one row per
kept pair, and stops at the first refuted pair, ``_solve`` runs the
stages past the screen on the head or on every kept pair, ``_kept`` counts
the kept entries of every pair of a system at once, ``_restricted_system``
builds the scaled system on a keep mask, and ``_unitary_in_span`` searches
a null-space basis for a unitary.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .bands import (
    _BLOCK_ROWS,
    BandedOperator,
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
    frob,
    herm,
    is_normal,
    polar_factors,
    singular_ratio,
)
from .shifts import (
    BilateralShift,
    WindowedWeights,
    _require_rows,
)


class VerdictStatus(str, Enum):
    EQUIVALENT = "equivalent"
    NOT_EQUIVALENT = "not_equivalent"
    INCONCLUSIVE = "inconclusive"


@dataclass
class Obstruction:
    """A recomputable reason why no diagonal-form intertwiner exists."""

    kind: str          # "norm-profile" | "singular-values" | "gram-spectrum"
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


def gram_chains(s: BilateralShift, t: BilateralShift, m: int,
                depth: int) -> np.ndarray:
    """Gram matrices of the matched forward and backward weight products.

    Forward, for n = 1..depth: products ``S_{m+n-1} ... S_m`` against
    ``T_{n-1} ... T_0``.  Backward: adjoint products ``S_{m-n}* ... S_{m-1}*``
    against ``T_{-n}* ... T_{-1}*``.  A unitary V satisfies all the metric
    equalities exactly when ``V* G_t V = G_s`` for every pair.  To anchor
    at another row k, reindex both shifts by k (``reindex_weights``).

    Returns the (2*depth, 2, d, d) array of pairs ``(G_s, G_t)`` = ``P* P``:
    forward depths 1..depth, then backward depths 1..depth.  Weights are
    read forward S, forward T, backward S, backward T, each outward from its
    anchor row, so a missing row is the first one that order meets.

    Each shift's rows are read once; the four products then advance
    together, one batched ``matmul`` per depth, and every Gram comes from
    one batched ``P* P``.
    """
    if depth < 1:
        raise ValueError("depth must be a positive integer")
    if s.dim != t.dim:
        raise DimensionError("shifts must share the block dimension")
    anchors = ((s, m), (t, 0))
    stacks = [shift.weights.rows(base - depth, base + depth - 1) for shift, base in anchors]
    for forward in (True, False):
        for (shift, base), (_, present) in zip(anchors, stacks):
            outward = present[depth:] if forward else present[depth - 1::-1]
            if not outward.all():
                n = int(np.argmin(outward))
                shift.weight(base + n if forward else base - 1 - n)    # raises
    # factors[j, n, i]: direction j (forward, backward), depth n + 1, shift i
    factors = np.empty((2, depth, 2, s.dim, s.dim), dtype=complex)
    for i, (w, _) in enumerate(stacks):
        factors[0, :, i] = w[depth:]
        factors[1, :, i] = herm(w[depth - 1::-1])
    products = np.empty_like(factors)
    acc = np.eye(s.dim, dtype=complex)
    for n in range(depth):
        # each new factor sits leftmost: the next row forward, or the
        # adjoint of the next row backward
        acc = products[:, n] = factors[:, n] @ acc
    grams = np.matmul(herm(products), products, out=factors)
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


#: Eigenvalue gap of the reducing pair, relative to that pair's scale, beyond
#: which an entry of the conjugator in its eigenbasis is dropped from the system.
_TAU = 1e-2
#: Random combinations of the null-space basis tried after the basis itself.
_RESTARTS = 64


def _kept(spectra, scales, width):
    """For each pair i, the entries ``X_ab`` whose eigenvalues differ by at
    most ``width * scales[i]``, counted from the (P, 2, d) ascending spectra
    ``(es, et)`` of the pairs."""
    es, et = spectra[:, 0], spectra[:, 1]
    near = np.abs(et[:, :, None] - es[:, None, :]) <= width * scales[:, None, None]
    return np.count_nonzero(near, axis=(1, 2))


def _restricted_system(h_s, h_t, scales, keep):
    """The stacked system ``(H_t X - X H_s) / s_i`` of the (P, d, d) blocks
    ``h_s``, ``h_t`` on the entries ``X_ab`` with ``keep[a, b]``: a
    (P d^2, k) matrix, and the kept ``rows``, ``cols``."""
    rows, cols = np.nonzero(keep)
    j = np.arange(len(rows))
    # column j is X = e_r e_c^T: entry (p, q) of H_t X - X H_s is
    # H_t[p, r] [q == c] - [p == r] H_s[c, q], so each block of a column has
    # at most 2d - 1 nonzero entries; they are written into zeros
    system = np.zeros(h_s.shape + (len(rows),), dtype=complex)     # (P, d, d, k)
    system[:, :, cols, j] = h_t[:, :, rows]
    system[:, rows, :, j] -= h_s[:, cols, :].transpose(1, 0, 2)     # indexed as (k, P, d)
    # divided in place, as floats: numpy divides a + bi by a real s as by
    # s + 0j, which multiplies (a + b*0, b - a*0) by 1 / s, so the product
    # has the quotient's bits wherever neither part is -0.0
    parts = system.view(float)
    parts *= (1 / scales)[:, None, None, None]
    return system.reshape(-1, len(rows)), rows, cols


def _right_singular(system):
    """Singular values and right singular vectors of a tall ``system``.

    Householder QR first, then the SVD of the square triangle R (Chan's
    R-SVD): R has the singular values and right vectors of ``system``, to the
    same backward error, and the tall left factor is never formed.
    """
    return np.linalg.svd(np.linalg.qr(system, mode="r"))[1:]


def _unitary_in_span(basis, pairs, scales, tol, rng):
    """A unitary U with ``U* G_t U = G_s`` for every pair, sought in the
    span of the (k, d, d) ``basis``.

    Tries the basis elements, then ``_RESTARTS`` random complex
    combinations drawn from ``rng``.  A span of one dimension draws none:
    every combination is a multiple of its element, whose polar factor it
    has up to a phase.  Each candidate is decomposed once: its
    SVD gives both its conditioning, so singular candidates are skipped, and
    its unitary polar factor.  A factor is accepted when ``tol.accepts`` its
    worst pair residual scaled by ``scales``.  Returns
    ``(unitary or None, best residual, saw a nonsingular candidate)``.
    """
    k = len(basis)
    draws = () if k == 1 else (
        np.tensordot(rng.standard_normal(k) + 1j * rng.standard_normal(k), basis, axes=1)
        for _ in range(_RESTARTS))
    saw_nonsingular, best = False, math.inf
    for x in itertools.chain(basis, draws):
        left, values, yh = np.linalg.svd(x)
        if singular_ratio(values) <= INVERTIBILITY_THRESHOLD:
            continue
        saw_nonsingular = True
        w, _ = polar_factors(left, values, yh)
        worst = float(np.max(np.linalg.norm(herm(w) @ pairs[:, 1] @ w - pairs[:, 0],
                                            axis=(1, 2)) / scales))
        if tol.accepts(worst, 1.0):
            return w, worst, True
        best = min(best, worst)
    return None, best, saw_nonsingular


def solve_joint_conjugator(pairs, tol: Tolerance = DEFAULT_TOL,
                           seed: int = 0) -> ConjugatorResult:
    """Find a unitary U with ``U* G_t U = G_s`` for every pair (G_s, G_t).

    ``pairs`` is a list of pairs or the (P, 2, d, d) array of ``gram_chains``.
    The stages, in order:

    1. **Spectrum screen.**  One keep mask drops every pair bitwise equal
       to the one before it, and every pair whose two Grams are one
       multiple of I; pair 0 is always kept.  One ``eigvalsh`` per kept
       pair, in order, fills an array of spectra; the first pair whose
       spectra differ is certified ``spectrum-mismatch`` under its index in
       ``pairs`` and no later pair is decomposed.  A dropped pair has the
       spectra of a kept one or equal spectra, so it is never the first
       refuted pair.
    2. **Head.**  With three kept pairs or more, stages 3 to 5 first run on
       the system of the first two kept pairs alone, the head, and only on
       its restricted entries.  When that system's null space has one
       dimension, the polar factor of its element is checked with
       ``tol.accepts`` against every kept pair, each at its own scale, and
       returned if it passes, with ``nullspace_dim`` 1 and the head
       system's diagnostics.  In every other case (an empty or larger null
       space, a singular element or a factor that fails some pair, a head
       that keeps all d^2 entries, fewer than three kept pairs) the head
       settles nothing, and stages 3 to 6 run on every kept pair with a
       fresh generator, as without the head.  Two pairs, because two
       generic Hermitian matrices generate all of M_d (Burnside), so their
       common conjugator is unique up to a phase; one pair leaves its
       commutant, of dimension d at least.  The head is sound: a returned
       unitary passes the acceptance that a unitary of the full system must
       pass, and every certificate still comes from stages 1 and 3 to 6 on
       every kept pair.
    3. **Reducing pair.**  ``_kept`` counts, for every pair of the system,
       the entries its spectra keep, and the pair is chosen from the counts.
    4. **Restricted system** (``_restricted_system``), scatter-filled, then
       reduced by Householder QR and the SVD of the k x k triangle
       (``_right_singular``).
    5. **Span search** (``_unitary_in_span``) in the singular vectors below
       the cutoff.
    6. The full system, when the restricted one settles nothing.

    Each constraint is linear, ``G_t U - U G_s = 0``, block i scaled by
    ``s_i = max(||G_s||_F, ||G_t||_F, 1)``; call the stacked system of the
    kept pairs A.  A dropped pair repeats a block of A or adds a zero
    block, so A has the null space of the stack of every pair and singular
    values no larger: dropping pairs can lose a certificate, never make one.
    The scales, ``||A||`` and the cutoffs are taken over the pairs of the
    system: every kept pair, or the head's two.  A
    is solved in the eigenbases of one pair c, ``G_sc = Y_s L_s Y_s*`` and
    ``G_tc = Y_t L_t Y_t*``: with ``U = Y_t X Y_s*`` block i becomes
    ``(Y_t* G_t Y_t) X - X (Y_s* G_s Y_s)``, a unitary change of both the
    unknown and each block's output, so the singular values are unchanged.
    Block c is now diagonal, entry ``X_ab`` scaled by
    ``delta_ab = (l_t,a - l_s,b) / s_c``, and only the k entries with
    ``|delta_ab| <= tau`` are kept (about d for a simple spectrum instead of
    d^2).  The restricted system is filled without Kronecker products: the
    nonzero entries of its k columns are written into a zero array.

    The reducing pair c is the first pair unless that keeps all d^2
    entries; then it is the pair that keeps the fewest.  When every pair
    keeps all d^2 entries (scalar Grams, say) the identity is tried first,
    and returned if it passes ``tol.accepts`` against every pair.

    The span of singular values ``<= c`` is searched for a unitary element
    by projecting candidate combinations to their unitary polar factor; the
    polar factor of any nonsingular null element satisfies the constraints
    again, and every returned unitary is checked against the kept pairs (a
    repeat has its predecessor's residual; ``(cI, cI)`` only U's drift from
    unitary).  Here
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
    An accepted identity solves no system and keeps no columns.
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
    # a pair bitwise equal to the one before it repeats that constraint, and
    # one of a single multiple of I on both sides constrains nothing: only
    # the other pairs are kept; pair 0 always is
    keep = ~(pairs == pairs[:, :1, :1, :1] * np.eye(dim)).all(axis=(1, 2, 3))
    keep[1:] &= (pairs[1:] != pairs[:-1]).any(axis=(1, 2, 3))
    keep[0] = True
    pairs = pairs[keep]
    # pair by pair, so a refuted pair stops the screen before the next eigvalsh
    spectra = np.empty(pairs.shape[:3])
    for j, pair in enumerate(pairs):
        spectra[j] = np.linalg.eigvalsh(0.5 * (pair + herm(pair)))
        gap = float(np.max(np.abs(spectra[j, 0] - spectra[j, 1])))
        if tol.refutes(gap, max(float(np.max(np.abs(spectra[j]))), 1.0)):
            return ConjugatorResult(None, certificate="spectrum-mismatch",
                                    pair_index=int(np.flatnonzero(keep)[j]), residual=gap)

    norm_s = np.linalg.norm(pairs[:, 0], axis=(1, 2))
    norm_t = np.linalg.norm(pairs[:, 1], axis=(1, 2))
    scales = np.maximum(np.maximum(norm_s, norm_t), 1.0)
    block_bounds = ((norm_s + norm_t) / scales) ** 2
    if len(pairs) > 2:
        found = _solve(pairs, spectra, scales, block_bounds, tol, seed, head=True)
        if found is not None:
            return found
    return _solve(pairs, spectra, scales, block_bounds, tol, seed)


def _solve(pairs, spectra, scales, block_bounds, tol, seed, head=False):
    """Stages 3 to 6 of ``solve_joint_conjugator`` on the (P, 2, d, d) kept
    ``pairs``, with their (P, 2, d) spectra, scales ``s_i`` and
    ``((||G_s,i||_F + ||G_t,i||_F) / s_i)^2``; a unitary is checked against
    every pair.

    With ``head`` (stage 2), the system is built from the first two pairs
    only, and the result is None unless that system keeps fewer than d^2
    entries, its null space has one dimension and the polar factor of its
    element passes every pair: the head certifies nothing.
    """
    dim = pairs.shape[2]
    count = 2 if head else len(pairs)
    g_s, g_t = pairs[:count, 0], pairs[:count, 1]
    norm_bound = float(np.sqrt(np.sum(block_bounds[:count])))
    rel = max(tol.rel, 1e-11)
    bound_cutoff = max(norm_bound, 1.0) * rel

    counts = _kept(spectra[:count], scales[:count], max(_TAU, 2.0 * bound_cutoff))
    c = 0 if counts[0] < dim * dim else int(np.argmin(counts))
    if counts[c] == dim * dim:
        if head:
            return None
        worst = float(np.max(np.linalg.norm(g_t - g_s, axis=(1, 2)) / scales))
        if tol.accepts(worst, 1.0):
            # no system is solved: block i has the singular values
            # |l_t,a - l_s,b| / s_i, so each pair bounds the null space,
            # and the tightest bound is exact for commuting pairs
            return ConjugatorResult(np.eye(dim, dtype=complex), residual=worst,
                                    nullspace_dim=_kept(spectra, scales, rel).min(),
                                    diagnostics={"columns_kept": 0,
                                                 "note": "the identity satisfies "
                                                         "every pair"})
    _, y_s = np.linalg.eigh(0.5 * (g_s[c] + herm(g_s[c])))
    _, y_t = np.linalg.eigh(0.5 * (g_t[c] + herm(g_t[c])))
    h_s = herm(y_s) @ g_s @ y_s
    h_t = herm(y_t) @ g_t @ y_t
    diag_s, diag_t = h_s[c].diagonal(), h_t[c].diagonal()
    scale_c = float(scales[c])
    leak = (frob(h_t[c] - np.diag(diag_t)) + frob(h_s[c] - np.diag(diag_s))) / scale_c
    delta = np.abs(diag_t[:, None] - diag_s[None, :]) / scale_c
    # tau stays at least twice the cutoff, so rho <= 1/2
    tau = max(_TAU, 2.0 * (bound_cutoff + leak))
    rng = np.random.default_rng(seed)

    def attempt(entries):
        """Solve on the entries X_ab with ``entries[a, b]``; None if unsettled."""
        system, rows, cols = _restricted_system(h_s, h_t, scales[:count], entries)
        svals, vh = _right_singular(system)
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
        null = np.flatnonzero(svals <= cutoff)
        if head and len(null) != 1:
            return None
        smallest = float(svals[-1])
        if smallest > certify_cutoff:
            return ConjugatorResult(None, certificate="empty-nullspace",
                                    residual=smallest, diagnostics=diagnostics)
        x_basis = np.zeros((len(null), dim, dim), dtype=complex)
        x_basis[:, rows, cols] = vh[null].conj()
        w, best, saw_nonsingular = _unitary_in_span(y_t @ x_basis @ herm(y_s), pairs,
                                                    scales, tol, rng)
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

    entries = delta <= tau
    if head:
        # the head solves no system of every entry
        return None if entries.all() else attempt(entries)
    found = attempt(entries)
    return found if found is not None else attempt(np.ones_like(delta, dtype=bool))


@dataclass
class PositiveForm:
    shift: BilateralShift
    diagonal: BandedOperator
    max_residual: float


@np.errstate(over="ignore", invalid="ignore")    # overflow is caught below
def positive_form(s: BilateralShift, lo: int, hi: int) -> PositiveForm:
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

    Raises
    ------
    ConditioningError
        naming the first singular weight, or the first row whose positive
        weight or conjugator overflows the float range.
    """
    if hi < lo:
        raise ValueError("hi must be >= lo")
    w, present = s.weights.rows(lo, hi)
    # one SVD per row, for the conditioning check and the polar factors;
    # rows the sequence lacks read as the zero matrix, so they count as singular
    x, values, yh = np.linalg.svd(w)
    bad = np.flatnonzero(singular_ratio(values) <= INVERTIBILITY_THRESHOLD)
    if bad.size:
        n = lo + int(bad[0])
        _require_rows(s.weights, lo, present[:bad[0] + 1])     # raises if row n is absent
        raise ConditioningError(f"weight at n={n} is singular or ill-conditioned", index=n)
    unitaries, positives = polar_factors(x, values, yh)

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
    # row lo - 1 + j holds v[j] and, from row lo on, t_weights[j - 1]
    finite = np.isfinite(v).all(axis=(1, 2))
    finite[1:] &= np.isfinite(t_weights).all(axis=(1, 2))
    if not finite.all():
        n = lo - 1 + int(np.argmin(finite))
        raise ConditioningError(f"positive weight or conjugator at n={n} overflows "
                                "the float range", index=n)
    res = np.linalg.norm(herm(v[1:]) @ w - t_weights @ herm(v[:-1]), axis=(-2, -1))

    shift = BilateralShift(WindowedWeights(lo, t_weights),
                           label=f"positive({s.label})" if s.label else "")
    diagonal = single_band(0, WindowedWeights(lo - 1, herm(v)),
                           label="positive-form conjugator")
    return PositiveForm(shift, diagonal, float(res.max()))


def _profile_mismatches(values, k_min, k_max, lo, hi, tol):
    """For each offset k in [k_min, k_max], the first row n of the window
    where ``S_{n+k}`` and ``T_n`` have different singular values, as
    ``(n, kind, gap)``, or None.

    A value differs when ``tol`` refutes its gap at the scale of the larger
    top value of the row.  ``kind`` and ``gap`` come from the first value
    that differs: "norm-profile" for the top value, the operator norm, and
    "singular-values" for a lower one.  ``values`` is the ``(S, T)`` pair of
    ``SingularValues``; the rows are gathered in blocks of ``_BLOCK_ROWS``, so
    memory stays flat however wide the window.
    """
    values_s, values_t = values
    out = [None] * (k_max - k_min + 1)
    for a in range(lo, hi + 1, _BLOCK_ROWS):
        b = min(a + _BLOCK_ROWS, hi + 1)
        sv_s, has_s = values_s.gather(a + k_min, b - 1 + k_max, lambda table: table)
        sv_t, has_t = values_t.gather(a, b - 1, lambda table: table)
        # columns first, so a row's largest gap is a maximum across columns;
        # it decides the row, since no gap exceeds the row's scale
        sv_s, sv_t = np.ascontiguousarray(sv_s.T), np.ascontiguousarray(sv_t.T)
        for j in (j for j, mism in enumerate(out) if mism is None):
            sv_k = sv_s[:, j:j + b - a]
            gap, scale = np.abs(sv_k - sv_t), np.maximum(sv_k[0], sv_t[0])
            bad = np.flatnonzero(has_s[j:j + b - a] & has_t
                                 & tol.refutes(gap.max(axis=0), scale))
            if bad.size:
                i = int(bad[0])
                col = int(np.argmax(tol.refutes(gap[:, i], scale[i])))
                out[j] = (a + i, "singular-values" if col else "norm-profile",
                          float(gap[col, i]))
        if None not in out:
            break
    return out


def norm_offset_screen(s: BilateralShift, t: BilateralShift, k_min: int,
                       k_max: int, lo: int, hi: int,
                       tol: Tolerance = DEFAULT_TOL) -> set:
    """Offsets k in [k_min, k_max] at which ``S_{n+k}`` and ``T_n`` have the
    same singular values on the window, the operator norm among them.

    An empty result certifies that no diagonal-form intertwiner with offset
    in the range exists.
    """
    values = (s.weights.singular_values(), t.weights.singular_values())
    mismatches = _profile_mismatches(values, k_min, k_max, lo, hi, tol)
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
    _emit(rep.checks, names, both[None], False, gap[None], tol.accepts(gap, scale)[None])
    _emit(rep.skipped, names, ~both[None], False)
    return rep


#: Frobenius drift ``||V* V - I||`` a witness entry may have and still count
#: as unitary.  The anchor meets the Gram conditions only to ``tol`` (1e-10
#: relative by default), and each step of the recursion through a weight
#: inverse can amplify that error, so the bound is two orders looser; it is
#: also the relative floor of the tolerance ``decide`` re-verifies the
#: witness with.  A fixed literal: it follows neither ``tol`` nor d.
_WITNESS_UNITARY_TOL = 1e-8


def diagonal_witness(s: BilateralShift, t: BilateralShift, m: int,
                     u0: np.ndarray, lo: int, hi: int, *,
                     _values=None) -> BandedOperator:
    """Single-band intertwiner at offset m built from the anchor unitary.

    The band holds the entries ``V_n`` for rows ``lo-1 .. hi`` of the
    single-band operator at offset m that intertwines S into T.  The entries
    obey ``V_n S_{n+m} = T_n V_{n-1}`` with the anchor ``V_{-1} = u0``;
    upward entries use weight inverses of S, downward entries inverses of T.
    Each entry is checked for unitarity, which holds exactly when the Gram
    conditions held for ``u0`` at the required depth.  Each weight inverted
    is checked for conditioning first, from the shifts' singular values:
    ``_values``, the ``(S, T)`` pair of ``singular_values()`` a caller has
    already read, or read here.

    Raises
    ------
    PreconditionError
        naming the first row whose entry drifts from unitarity beyond
        ``_WITNESS_UNITARY_TOL`` (the Gram precondition failed at that depth),
        or is not finite (the recursion overflowed, on subnormal weights say).
    ConditioningError
        when a required weight inverse is ill-conditioned.
    """
    u0 = np.asarray(u0, dtype=complex)
    if u0.shape != (s.dim, s.dim):
        raise DimensionError("anchor unitary has the wrong shape")
    eye = np.eye(s.dim)
    drift = frob(herm(u0) @ u0 - eye)
    if not drift <= _WITNESS_UNITARY_TOL:           # a NaN drift fails too
        raise PreconditionError("anchor matrix is not unitary", residual=drift)

    def checked(n, mat):
        res = frob(herm(mat) @ mat - eye)
        if not res <= _WITNESS_UNITARY_TOL:
            raise PreconditionError(
                f"diagonal entry at n={n} is not unitary; the metric "
                f"conditions fail at this depth", residual=res, index=n)
        return mat

    def solve(a, x, n, ratio):
        """``a^{-1} x`` for a (possibly transposed) weight a of row n, whose
        smin/smax is ``ratio``."""
        if ratio <= INVERTIBILITY_THRESHOLD:
            raise ConditioningError(f"weight at n={n} is not invertible", index=n)
        return np.linalg.solve(a, x)

    values_s, values_t = _values or (s.weights.singular_values(),
                                     t.weights.singular_values())
    ratio_s, _ = values_s.ratios(m, hi + m)      # S_{n+m} for n = 0 .. hi
    ratio_t, _ = values_t.ratios(lo, -1)         # T_n for n = lo .. -1
    entries = {-1: u0}
    for n in range(0, hi + 1):          # V_n = T_n V_{n-1} S_{n+m}^{-1}
        entries[n] = checked(n, t.weight(n) @ solve(s.weight(n + m).T, entries[n - 1].T,
                                                    n + m, ratio_s[n]).T)
    for n in range(-1, lo - 1, -1):     # V_{n-1} = T_n^{-1} V_n S_{n+m}
        entries[n - 1] = checked(n - 1, solve(t.weight(n), entries[n] @ s.weight(n + m),
                                              n, ratio_t[n - lo]))
    mats = [entries[n] for n in range(lo - 1, hi + 1)]
    return single_band(m, WindowedWeights(lo - 1, mats), label="diagonal witness")


def _decision_scope(s, t, m, window=None, depth=None):
    """The rows and depth a decision at offset m reads, fixed once.

    Returns ``(spans, window, depth, period)``.  ``spans`` are the described
    ranges of S and T in witness rows n, where S's index is n + m; ``period``
    is the lcm of the periods, or None.  The automatic window covers the
    spans with a margin of 2 rows, widened to ``period + 1`` rows when a
    period exists (the periodic certificate needs that many rows past each
    span), and [-period - 2, period + 2] for periodic weights.  Without a
    periodic weight the automatic depth is ``max(b + 1, -a)`` over the
    spans [a, b]: the forward chain then holds every row up to b and the
    backward chain every row down to a, so every deeper pair repeats the
    last one of its direction (each new factor is I), and this depth is
    exact.  With one, it is the largest reach of a span from the anchor
    rows 0/-1, plus 4, plus twice the period: periodic products are sampled
    over two periods.  Windowed descriptions clip the window and cap the
    depth at the rows they store.  A given window or
    depth is kept; a given window with ``hi < lo`` raises ``ValueError``, and
    an automatic window that comes out empty raises ``PreconditionError``.
    """
    if window is not None and window[1] < window[0]:
        raise ValueError("hi must be >= lo")
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
    margin = 2 if period is None else max(2, period + 1)
    lo = min((a for a, _ in spans), default=0) - margin
    hi = max((b for _, b in spans), default=0) + margin
    if period is None:      # then both shifts have a span
        reach = max(max(b + 1, -a) for a, b in spans)
    else:
        lo, hi = min(lo, -period - 2), max(hi, period + 2)
        reach = max((max(b, -a, 0) for a, b in spans), default=0) + 4 + 2 * period
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


@np.errstate(over="ignore", invalid="ignore")    # overflow is caught below or fails
def decide_diagonal_equivalence(s: BilateralShift, t: BilateralShift, m: int,
                                depth: int | None = None,
                                window: tuple | None = None,
                                tol: Tolerance = DEFAULT_TOL,
                                seed: int = 0, *, _values=None) -> EquivalenceVerdict:
    """Decide unitary equivalence by a single-band intertwiner at offset m.

    Pipeline: singular-value screen at offset m (refuting as "norm-profile"
    when the operator norms differ at the first differing row, else as
    "singular-values"), Gram chains to the stabilization depth,
    joint-conjugator search, then construction and re-verification of the
    full diagonal witness.  Verdicts are certified relative to the window;
    for periodic weights an Equivalent verdict additionally requires the
    witness entries to repeat with the combined period, otherwise the
    result is ``inconclusive`` rather than an extrapolation, as it is when a
    Gram product overflows the float range.  Each shift's singular values are
    read once: ``_values``, the ``(S, T)`` pair of ``singular_values()`` a
    caller has already read, or read here.
    """
    if s.dim != t.dim:
        raise DimensionError("shifts must share the block dimension")
    values = _values or (s.weights.singular_values(), t.weights.singular_values())
    for name, reader in zip("ST", values):
        if not reader.invertible:
            raise ConditioningError(f"{name} has weights failing the "
                                    f"invertibility threshold")
    spans, (lo, hi), depth, period = _decision_scope(s, t, m, window, depth)

    mism = _profile_mismatches(values, m, m, lo, hi, tol)[0]
    if mism is not None:
        n, kind, gap = mism
        return _not_equivalent(m, kind, n, gap, f"the singular values of S_{{n+{m}}} "
                                                f"and T_n differ at n={n}")

    try:
        pairs = gram_chains(s, t, m, depth)
    except WindowAccessError as exc:
        return _inconclusive(m, f"the Gram chains anchored at row 0 need a weight "
                                f"the stored windows lack: {exc}")
    if not np.isfinite(pairs).all():
        finite = np.isfinite(pairs).all(axis=(1, 2, 3)).reshape(2, depth).all(axis=0)
        return _inconclusive(m, f"the Gram products overflow the float range at depth "
                                f"{int(np.argmin(finite)) + 1}")
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

    verify_tol = Tolerance(rel=max(tol.rel, _WITNESS_UNITARY_TOL),
                           abs=max(tol.abs, 1e-10))
    try:
        witness = diagonal_witness(s, t, m, found.unitary, lo, hi, _values=values)
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
    index.  The witness stores every row ``lo-1 .. hi``, so its entries are
    read once and each is compared once with the entry a period on; the
    comparisons are then read on the upper margin (rows past every span),
    then on the lower one.  An empty margin means the window is too small
    to certify.
    """
    w, _ = witness.band(m).rows(lo - 1, hi)
    rows = np.arange(lo - 1, hi + 1 - period)       # row n compares with n + period
    same = tol.close(w[:-period], w[period:])
    upper_start = max([b for _, b in spans], default=lo - 1) + 1
    lower_end = min([a for a, _ in spans], default=hi + 1) - 1
    for margin in (rows >= upper_start, rows + period <= lower_end):
        if not margin.any():
            return False, "window leaves no margin to compare a full period"
        differ = np.flatnonzero(margin & ~same)
        if differ.size:
            n = int(rows[differ[0]])
            return False, f"entries at n={n} and n={n + period} differ"
    return True, ""


def decide_diagonal_equivalence_scan(s: BilateralShift, t: BilateralShift,
                                     k_min: int, k_max: int,
                                     depth: int | None = None,
                                     window: tuple | None = None,
                                     tol: Tolerance = DEFAULT_TOL,
                                     seed: int = 0) -> EquivalenceVerdict:
    """Scan offsets in [k_min, k_max] in order of |m|, positive first on
    ties, and return one of their decisions' verdicts, unchanged.

    Only offsets with a usable decision window are decided: every offset
    when a window is given, else those whose automatic window is not empty.
    One singular-value screen over every such offset, on the hull of their
    windows, filters them; those it leaves are decided in order, and when
    it leaves none the last usable offset of the order is decided, which
    its own screen refutes at a row.  The verdict is the first Equivalent
    one; else the first Inconclusive one; else the last decision's
    NotEquivalent one.

    Raises
    ------
    ValueError
        when ``k_min > k_max``: an empty range refutes nothing; or when a
        given window has ``hi < lo``.
    PreconditionError
        when no offset of the range has a usable decision window.
    ConditioningError
        when weights fail the invertibility threshold, as ``decide`` does.
    """
    if k_min > k_max:
        raise ValueError(f"empty offset range [{k_min}, {k_max}]")
    windows = {}
    for m in range(k_min, k_max + 1):
        try:
            windows[m] = _decision_scope(s, t, m, window)[1]
        except PreconditionError:       # this offset's stored windows do not overlap
            pass
    if not windows:
        raise PreconditionError("stored weight windows leave no usable decision "
                                f"window at any offset in [{k_min}, {k_max}]")
    lo, hi = min(a for a, _ in windows.values()), max(b for _, b in windows.values())
    # one singular-value reader per shift serves the screen and every decision
    values = (s.weights.singular_values(), t.weights.singular_values())
    mismatches = _profile_mismatches(values, k_min, k_max, lo, hi, tol)
    order = sorted(windows, key=lambda k: (abs(k), -k))
    verdicts = []
    # with none left, the last usable offset of the order
    for m in [k for k in order if mismatches[k - k_min] is None] or order[-1:]:
        verdicts.append(decide_diagonal_equivalence(s, t, m, depth=depth, window=window,
                                                    tol=tol, seed=seed, _values=values))
        if verdicts[-1].is_equivalent:
            return verdicts[-1]
    return next((v for v in verdicts if v.is_inconclusive), verdicts[-1])
