"""Random matrices for the workload generators, and plain-numpy helpers the
ground-truth checks share.  Nothing here calls shiftlab."""

from __future__ import annotations

import numpy as np


def unitary(rng, d):
    """Haar-random unitary."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def weight(rng, d, smin=0.5, smax=2.0):
    """Random invertible matrix with singular values in [smin, smax]."""
    return unitary(rng, d) @ np.diag(rng.uniform(smin, smax, d)) @ unitary(rng, d)


def projection(rng, d, rank):
    """Orthogonal projection of the given rank onto a random subspace."""
    basis = unitary(rng, d)[:, :rank]
    return basis @ basis.conj().T


def block_weight(rng, p):
    """Random invertible matrix commuting with the projection p."""
    q = np.eye(len(p)) - p
    return p @ weight(rng, len(p)) @ p + q @ weight(rng, len(p)) @ q


def scale_top_singular(m, factor):
    """``m`` with its largest singular value multiplied by ``factor``."""
    x, s, yh = np.linalg.svd(m)
    s = s.copy()
    s[0] *= factor
    return (x * s) @ yh


def herm(m):
    return np.swapaxes(np.asarray(m).conj(), -1, -2)


def max_frob(stack):
    """Largest Frobenius norm over a stack of matrices (0 when empty)."""
    stack = np.asarray(stack)
    if stack.size == 0:
        return 0.0
    return float(np.max(np.linalg.norm(stack, axis=(-2, -1))))


def unitary_defect(stack):
    """Largest ``||W* W - I||_F`` over a stack of square matrices."""
    stack = np.asarray(stack)
    eye = np.eye(stack.shape[-1])
    return max_frob(herm(stack) @ stack - eye)


def decode_matrix(rows):
    """Matrix from the spec encoding: rows of ``[re, im]`` pairs."""
    a = np.asarray(rows, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def encode_matrix(m):
    """Spec encoding of a complex matrix: rows of ``[re, im]`` pairs."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def single_band_problems(entries, offset, s_at, t_at, rel=1e-7):
    """Plain-numpy recheck of a single-band intertwiner ``A S = T A``.

    ``entries`` maps row n to the band entry ``A_{n, n+offset}``; ``s_at``
    and ``t_at`` give the generator's own weights.  Checks that every entry
    is unitary and that ``A_n S_{n+offset} = T_n A_{n-1}`` on every row
    whose predecessor is stored.
    """
    rows = sorted(entries)
    if not rows:
        return ["witness has no entries"]
    problems = []
    stack = np.stack([entries[n] for n in rows])
    defect = unitary_defect(stack)
    if defect > 1e-6:
        problems.append(f"witness entries not unitary (defect {defect:.2e})")
    pairs = [n for n in rows[1:] if n - 1 in entries]
    if pairs:
        a_n = np.stack([entries[n] for n in pairs])
        a_prev = np.stack([entries[n - 1] for n in pairs])
        s = np.stack([s_at(n + offset) for n in pairs])
        t = np.stack([t_at(n) for n in pairs])
        resid = max_frob(a_n @ s - t @ a_prev)
        scale = max(max_frob(s), max_frob(t), 1.0)
        if resid > rel * scale:
            problems.append(f"witness fails A S = T A (residual {resid:.2e})")
    return problems
