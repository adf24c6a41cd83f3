"""Shields' oracle for dim-1 diagonal-form equivalence at a fixed offset.

A scalar bilateral shift is unitarily equivalent to the shift whose weights
are the moduli |w_n| (A. L. Shields, "Weighted shift operators and analytic
function theory", Topics in Operator Theory, Math. Surveys 13, AMS 1974,
section 1).  So two injective scalar shifts S and T are related at offset m
by a unitary of diagonal form, ``V_n S_{n+m} = T_n V_{n-1}`` with every V_n
unimodular, exactly when ``|S_{n+m}| = |T_n|`` for every n: then
``V_n = T_n V_{n-1} / S_{n+m}`` is unimodular, row after row, from any
unimodular ``V_{-1}``.

The oracle compares the moduli row by row.  It reads the stored weights and
nothing else of shiftlab, so it shares no code with the Gram chains, the
conjugator solver or the witness recursion it cross-checks.
"""

from __future__ import annotations

import math

import shiftlab as sl

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent"

# Moduli equal up to the rounding of |r e^{i phi}| agree; the moduli the
# tests draw otherwise differ by a factor of 1.5 or more.
_REL = 1e-9


def oracle_rows(s: sl.BilateralShift, t: sl.BilateralShift, m: int) -> range:
    """The rows n at which ``|S_{n+m}| = |T_n|`` is compared.

    With a windowed shift these are the rows n where both weights are
    stored: every n of the window, and an empty range when the stored
    windows do not overlap.  Otherwise each sequence repeats with its
    period past its described span (an eventually-identity one with period
    1), so rows from one lcm of the periods below every span to one above
    it cover every n.
    """
    spans, stored, period = [], [], 1
    for seq, delta in ((s.weights, -m), (t.weights, 0)):
        described = seq.described_range()
        if described is None:
            period = math.lcm(period, seq.period)
            continue
        spans.append((described[0] + delta, described[1] + delta))
        if isinstance(seq, sl.WindowedWeights):
            stored.append(spans[-1])
    if stored:
        return range(max(a for a, _ in stored), min(b for _, b in stored) + 1)
    lo = min((a for a, _ in spans), default=0) - period
    hi = max((b for _, b in spans), default=0) + period
    return range(lo, hi + 1)


def _modulus(shift: sl.BilateralShift, n: int) -> float:
    return abs(complex(shift.weight(n)[0, 0]))


def oracle_decide(s: sl.BilateralShift, t: sl.BilateralShift, m: int) -> str:
    """Shields' verdict at offset m on ``oracle_rows``."""
    if s.dim != 1 or t.dim != 1:
        raise ValueError("the d = 1 oracle decides scalar shifts only")
    same = all(math.isclose(_modulus(s, n + m), _modulus(t, n), rel_tol=_REL)
               for n in oracle_rows(s, t, m))
    return EQUIVALENT if same else NOT_EQUIVALENT
