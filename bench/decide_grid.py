"""decide-grid: library equivalence decisions at block dims 2 to 16.

Three kinds of pair go through the one entry point
``decide_diagonal_equivalence``:

* constructed-equivalent pairs ``T_n = V_n S_{n+m} V_{n-1}*`` reach the
  joint-conjugator solver, which is most of their time from dim 8 up;
* norm-refuted pairs, one singular value of one T weight scaled, stop at
  the weight-norm screen;
* Gram-refuted pairs, whose per-index unitary factors do not match, keep
  every weight norm but change the singular values of a weight product.
  They stop at the Gram-spectrum screen at the top of
  ``solve_joint_conjugator``, before the stacked system is built.

So a solver change should move the first kind and leave the other two
unmoved.  A few offset scans ride along on the small equivalent pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import gen
import shiftlab as sl
from harness import Op, Outcome, Workload

DIMS = (2, 4, 8, 12, 16)
# Eventually-identity pairs store S on [m, m+L-1] and T on [0, L-1], which
# gives an automatic Gram depth of L+3; periodic pairs get 2*period+4.  The
# sizes keep one pass near three seconds: dim 16 decides at depth 4, and the
# periodic dim-16 pair that would reach the solver (depth 6, about 3 s) is
# left out, its refuted kinds kept.
EI_SUPPORT = {2: 3, 4: 3, 8: 3, 12: 2, 16: 1}
PERIOD = {2: 2, 4: 2, 8: 2, 12: 1, 16: 1}
OFFSET = {"ei": {2: 1, 4: -2, 8: 0, 12: -1, 16: 1},
          "periodic": {2: -1, 4: 2, 8: 1, 12: 0, 16: -1}}
KINDS = ("equivalent", "norm", "gram")
PREDICTED = {"norm": "norm-profile", "gram": "gram-spectrum"}
SCAN_DIMS = (2, 4)
WARMUP_MAX_DIM = 4


@dataclass
class Pair:
    kind: str
    m: int
    s: sl.BilateralShift
    t: sl.BilateralShift
    s_at: Callable
    t_at: Callable
    s_w: list       # stored weights: S from index m (EI) or 0, T from 0
    t_w: list


def _ei_weights(rng, d, kind, length):
    """S on [0, L-1] (to be placed at m) and T on [0, L-1]."""
    if kind == "gram":
        length = max(length, 2)
    s_w = [gen.weight(rng, d) for _ in range(length)]
    # V_{-1} .. V_{L-1}; V is constant beyond both ends, so T is the
    # identity outside [0, L-1].
    v = {n: gen.unitary(rng, d) for n in range(-1, length)}
    right = dict(v)
    if kind == "gram":
        right[0] = gen.unitary(rng, d)      # T_1 = V_1 S_{1+m} W_0*, W_0 != V_0
    t_w = [v[n] @ s_w[n] @ right[n - 1].conj().T for n in range(length)]
    return s_w, t_w


def _periodic_weights(rng, d, kind, p):
    s_w = [gen.weight(rng, d) for _ in range(p)]
    v = [gen.unitary(rng, d) for _ in range(p)]
    right = list(v)
    if kind == "gram":
        right[0] = gen.unitary(rng, d)
    return s_w, v, right


def make_pair(rng, family, d, kind, m, size):
    """A pair of the given kind at offset m; ``size`` is the support length
    of an eventually-identity pair or the period of a periodic one."""
    eye = np.eye(d, dtype=complex)
    while True:
        if family == "ei":
            s_w, t_w = _ei_weights(rng, d, kind, size)
            length = len(s_w)

            def s_at(n, s_w=s_w):
                return s_w[n - m] if 0 <= n - m < len(s_w) else eye

            def t_at(n, t_w=t_w):
                return t_w[n] if 0 <= n < len(t_w) else eye
        else:
            s_w, v, right = _periodic_weights(rng, d, kind, size)
            p = len(s_w)
            length = p
            t_w = [v[n] @ s_w[(n + m) % p] @ right[(n - 1) % p].conj().T
                   for n in range(p)]

            def s_at(n, s_w=s_w):
                return s_w[n % len(s_w)]

            def t_at(n, t_w=t_w):
                return t_w[n % len(t_w)]
        if kind == "norm":
            j = int(rng.integers(length))
            t_w[j] = gen.scale_top_singular(t_w[j], 1.25)
        if _confirm(kind, m, s_at, t_at, length):
            break
    if family == "ei":
        s = sl.BilateralShift(sl.EventuallyIdentityWeights(m, s_w), label="S")
        t = sl.BilateralShift(sl.EventuallyIdentityWeights(0, t_w), label="T")
    else:
        s = sl.BilateralShift(sl.PeriodicWeights(s_w), label="S")
        t = sl.BilateralShift(sl.PeriodicWeights(t_w), label="T")
    return Pair(kind, m, s, t, s_at, t_at, s_w, t_w)


def _confirm(kind, m, s_at, t_at, length):
    """Independent numpy evidence for the pair's ground truth."""
    if kind == "equivalent":
        return True   # equivalent by construction; the witness is rechecked
    if kind == "norm":
        gaps = [abs(np.linalg.norm(t_at(n), 2) - np.linalg.norm(s_at(n + m), 2))
                for n in range(length)]
        return max(gaps) > 0.1
    # Gram-refuted: an intertwiner would make T_1 T_0 and S_{1+m} S_m
    # unitarily equivalent, so differing singular values refute it.
    st = np.linalg.svd(t_at(1) @ t_at(0), compute_uv=False)
    ss = np.linalg.svd(s_at(1 + m) @ s_at(m), compute_uv=False)
    return float(np.max(np.abs(st - ss))) > 1e-6 * float(ss[0])


def check_decision(pair: Pair):
    def check(verdict, exc):
        if exc is not None:
            return Outcome([f"raised {type(exc).__name__}: {exc}"])
        status = verdict.status.value
        out = Outcome(verdict=status)
        if verdict.witness_report is not None:
            out.checks = len(verdict.witness_report.checks)
        if pair.kind == "equivalent":
            # An inconclusive answer is no wrong certificate, but it is a
            # failed decision: giving up must not read as a speed-up.
            if status != "equivalent":
                out.wrong_verdict = status == "not_equivalent"
                out.problems.append(f"equivalent pair {status}: {verdict.summary()}")
        elif status == "equivalent":
            out.wrong_verdict = True
            out.problems.append("refuted pair certified equivalent")
        elif status == "inconclusive":
            out.problems.append(f"refuted pair inconclusive: {verdict.reason}")
        elif verdict.obstruction.kind != PREDICTED[pair.kind]:
            out.problems.append(f"obstruction {verdict.obstruction.kind}, "
                                f"predicted {PREDICTED[pair.kind]}")
        if status == "equivalent":
            band = verdict.witness.band(verdict.offset)
            bad = gen.single_band_problems(dict(band.described_items()),
                                           verdict.offset, pair.s_at, pair.t_at)
            if bad:
                out.wrong_verdict = True
                out.problems.extend(bad)
        return out
    return check


def build(seed: int, workdir=None) -> Workload:
    rng = np.random.default_rng(seed)
    ops, warmup = [], []
    equivalent = {}
    for family in ("ei", "periodic"):
        for d in DIMS:
            for kind in KINDS:
                if family == "periodic" and d == 16 and kind == "equivalent":
                    continue
                size = (EI_SUPPORT if family == "ei" else PERIOD)[d]
                pair = make_pair(rng, family, d, kind, OFFSET[family][d], size)
                if kind == "equivalent":
                    equivalent[family, d] = pair
                op = Op(f"decide/{family}/d{d}/{kind}",
                        lambda p=pair: sl.decide_diagonal_equivalence(p.s, p.t, p.m),
                        check_decision(pair))
                ops.append(op)
                if d <= WARMUP_MAX_DIM:
                    warmup.append(op)
    for family in ("ei", "periodic"):
        for d in SCAN_DIMS:
            pair = equivalent[family, d]
            op = Op(f"scan/{family}/d{d}",
                    lambda p=pair: sl.decide_diagonal_equivalence_scan(
                        p.s, p.t, p.m - 1, p.m + 1),
                    check_decision(pair))
            ops.append(op)
            warmup.append(op)
    return Workload(ops, warmup)
