"""verify-window: the eight windowed verifiers of ``shiftlab.bands``.

Operators are two-band unitaries ``U = D M E`` (M puts complementary
projections P, Q on bands -1 and +1, D and E are diagonal unitaries) with
shifts S, T such that ``U S = T U``, and three-band unitaries made as the
product of a {0, +1} and a {-1, 0} two-band unitary.  Block dims are 2 to 4
and windows run from 10^2 to 10^4 indices.  Besides clean operators, some
store their bands only up to three quarters of the window, so the skip path
runs, and some carry one planted defective entry, so the failure path runs.
The conjugator solver never runs here: per-check Python loops are the cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import gen
import shiftlab as sl
from harness import Op, Outcome, Workload

DIMS = (2, 3, 4)
PERIOD = 3
# Window length of each of the 23 ops of one dim; the pattern is rotated by
# seven places per dim so each verifier meets several sizes.  One pass then
# takes about five seconds.
WINDOW_PATTERN = (100, 1000, 100, 316, 1000, 100, 10000, 100, 1000, 316, 100,
                  1000, 3162, 100, 316, 100, 1000, 100, 100, 316, 100, 1000, 100)
DEFECT_SIZE = 1e-3
MARGIN = 3           # stored indices beyond each end of a "full" window
WARMUP_WINDOW = 100


@dataclass
class System:
    """One period of band entries (and of shift weights) by index."""

    bands: dict
    s: list | None = None
    t: list | None = None

    def periodic(self):
        op = sl.BandedOperator({k: sl.PeriodicWeights(v) for k, v in self.bands.items()},
                               label="U")
        if self.s is None:
            return op, None, None
        return (op, sl.BilateralShift(sl.PeriodicWeights(self.s), label="S"),
                sl.BilateralShift(sl.PeriodicWeights(self.t), label="T"))

    def windowed(self, lo, hi, edits=None):
        """Everything stored on [lo, hi]; ``edits`` maps (band, row) to an
        entry replacing the true one."""
        edits = edits or {}
        rows = range(lo, hi + 1)
        op = sl.BandedOperator(
            {k: sl.WindowedWeights(lo, [edits.get((k, n), at(v, n)) for n in rows])
             for k, v in self.bands.items()}, label="U")
        if self.s is None:
            return op, None, None
        return (op,
                sl.BilateralShift(sl.WindowedWeights(lo, [at(self.s, n) for n in rows]),
                                  label="S"),
                sl.BilateralShift(sl.WindowedWeights(lo, [at(self.t, n) for n in rows]),
                                  label="T"))


def at(period, n):
    return period[n % PERIOD]


def _table(f):
    return [f(n) for n in range(PERIOD)]


def two_band_system(rng, d, low=-1, high=1, with_shifts=True):
    """``U`` with P on band ``low`` and Q on band ``high``, and the shifts
    ``S = E* W E`` and ``T = D (M W M*) D*`` for a weight W commuting with P."""
    p = gen.projection(rng, d, max(1, d // 2))
    q = np.eye(d) - p
    dd = _table(lambda n: gen.unitary(rng, d))
    ee = _table(lambda n: gen.unitary(rng, d))
    bands = {low: _table(lambda n: at(dd, n) @ p @ at(ee, n + low)),
             high: _table(lambda n: at(dd, n) @ q @ at(ee, n + high))}
    if not with_shifts:
        return System(bands)
    ww = _table(lambda n: gen.block_weight(rng, p))
    return System(
        bands,
        s=_table(lambda n: at(ee, n).conj().T @ at(ww, n) @ at(ee, n - 1)),
        t=_table(lambda n: at(dd, n) @ (p @ at(ww, n + low) @ p + q @ at(ww, n + high) @ q)
                 @ at(dd, n - 1).conj().T))


def single_band_system(rng, d):
    """Diagonal unitary V with shifts S and ``T_n = V_n S_n V_{n-1}*``."""
    v = _table(lambda n: gen.unitary(rng, d))
    s = _table(lambda n: gen.weight(rng, d))
    return System({0: v}, s=s,
                  t=_table(lambda n: at(v, n) @ at(s, n) @ at(v, n - 1).conj().T))


def three_band_system(rng, d):
    """Product of a {0, +1} and a {-1, 0} two-band unitary."""
    ua = two_band_system(rng, d, 0, 1, with_shifts=False).bands
    ub = two_band_system(rng, d, -1, 0, with_shifts=False).bands
    return System({
        -1: _table(lambda n: at(ua[0], n) @ at(ub[-1], n)),
        0: _table(lambda n: at(ua[0], n) @ at(ub[0], n) + at(ua[1], n) @ at(ub[-1], n + 1)),
        1: _table(lambda n: at(ua[1], n) @ at(ub[0], n + 1))})


def confirm(system):
    """numpy evidence that U is unitary and, with shifts, that U S = T U.

    Checks ``U U* = I`` and ``U* U = I`` on a finite block section: rows
    and columns far enough inside it see every band."""
    offs = sorted(system.bands)
    d = system.bands[offs[0]][0].shape[0]
    size = 4 * PERIOD + 2 * (offs[-1] - offs[0])
    full = np.zeros((size * d, size * d), dtype=complex)
    for i in range(size):
        for k in offs:
            if 0 <= i + k < size:
                full[i * d:(i + 1) * d, (i + k) * d:(i + k + 1) * d] = at(system.bands[k], i)
    inner = slice(PERIOD * d, (size - PERIOD) * d)
    eye = np.eye(size * d)
    worst = max(np.abs((full @ full.conj().T - eye)[inner, inner]).max(),
                np.abs((full.conj().T @ full - eye)[inner, inner]).max())
    if system.s is not None:
        shift = lambda w: np.block([[at(w, i) if j == i - 1 else np.zeros((d, d))
                                     for j in range(size)] for i in range(size)])
        lhs, rhs = full @ shift(system.s), shift(system.t) @ full
        worst = max(worst, np.abs((lhs - rhs)[inner, inner]).max())
    if worst > 1e-9:
        raise AssertionError(f"generated operator fails its construction ({worst:.2e})")


def _report(value):
    return value.report if isinstance(value, sl.ConjugationResult) else value


def expect_pass(extra=None):
    def check(value, exc):
        if exc is not None:
            return Outcome([f"raised {type(exc).__name__}: {exc}"])
        rep = _report(value)
        out = Outcome(checks=len(rep.checks))
        if not rep.passed:
            bad = rep.first_failure()
            out.problems.append(f"failed {bad.condition} at n={bad.index}")
        if rep.skipped:
            out.problems.append(f"{len(rep.skipped)} checks skipped on a stored window")
        if extra is not None:
            out.problems.extend(extra(value))
        return out
    return check


def expect_skips(stored_hi):
    """Passes, with skips only where a condition reaches past the store."""
    def check(value, exc):
        if exc is not None:
            return Outcome([f"raised {type(exc).__name__}: {exc}"])
        out = Outcome(checks=len(value.checks))
        if not value.passed:
            out.problems.append("failed on a truncated but correct operator")
        if not value.skipped:
            out.problems.append("no checks skipped past the stored window")
        early = [s.index for s in value.skipped if s.index < stored_hi - 2]
        if early:
            out.problems.append(f"skipped inside the store at n={early[0]}")
        return out
    return check


def expect_fail_near(row):
    def check(value, exc):
        if exc is not None:
            return Outcome([f"raised {type(exc).__name__}: {exc}"])
        out = Outcome(checks=len(value.checks))
        bad = value.failures()
        if not bad:
            out.problems.append(f"defect at n={row} not detected")
        far = [c.index for c in bad if abs(c.index - row) > MARGIN]
        if far:
            out.problems.append(f"failure at n={far[0]}, defect is at n={row}")
        return out
    return check


def expect_precondition(row=None):
    def check(value, exc):
        if not isinstance(exc, sl.PreconditionError):
            got = type(exc).__name__ if exc is not None else "a result"
            return Outcome([f"expected PreconditionError, got {got}"])
        if row is not None and exc.index != row:
            return Outcome([f"error names n={exc.index}, defect is at n={row}"])
        return Outcome()
    return check


def _conjugated_is_t(system):
    def extra(res):
        if not res.is_shift:
            return ["conjugated operator is not a shift"]
        items = res.shift.weights.described_items()
        got = np.stack([w for _, w in items])
        want = np.stack([at(system.t, n) for n, _ in items])
        resid = gen.max_frob(got - want)
        return [] if resid <= 1e-8 * max(gen.max_frob(want), 1.0) else [
            f"conjugated shift differs from T (residual {resid:.2e})"]
    return extra


def _effective_two(rep):
    count = rep.context.get("effective_band_count")
    return [] if count == 2 else [f"effective band count {count}, expected 2"]


def _ops_for_dim(rng, d, windows):
    one = single_band_system(rng, d)
    two = two_band_system(rng, d)
    three = three_band_system(rng, d)
    for system in (one, two, three):
        confirm(system)
    u1, s1, t1 = one.periodic()
    u2, s2, t2 = two.periodic()
    u3, _, _ = three.periodic()
    tol = sl.DEFAULT_TOL
    b = sl.bands
    ops = []

    def add(name, call, check):
        n = windows[len(ops)]
        ops.append(Op(f"{name}/d{d}/w{n}", lambda: call(n - 1), check))

    # clean, periodic description
    add("intertwining/one", lambda hi: b.verify_intertwining(u1, s1, t1, 0, hi, tol),
        expect_pass())
    add("intertwining/two", lambda hi: b.verify_intertwining(u2, s2, t2, 0, hi, tol),
        expect_pass())
    add("unitary_banded/two", lambda hi: b.verify_unitary_banded(u2, 0, hi, tol),
        expect_pass())
    add("unitary_two_band", lambda hi: b.verify_unitary_two_band(u2, 0, hi, tol),
        expect_pass())
    add("two_band_structure", lambda hi: b.check_two_band_structure(u2, 0, hi, tol),
        expect_pass())
    add("band_count_bound", lambda hi: b.check_band_count_bound(u2, d, 0, hi, tol),
        expect_pass(_effective_two))
    add("diagonal_propagation/two",
        lambda hi: b.check_diagonal_propagation(u2, s2, t2, 0, hi, tol), expect_pass())
    add("conjugate_to_shift", lambda hi: b.conjugate_to_shift(u2, s2, 0, hi, tol),
        expect_pass(_conjugated_is_t(two)))
    add("unitary_three_band", lambda hi: b.verify_unitary_three_band(u3, 0, hi, tol),
        expect_pass())
    add("unitary_banded/three", lambda hi: b.verify_unitary_banded(u3, 0, hi, tol),
        expect_pass())
    add("diagonal_propagation/three",
        lambda hi: b.check_diagonal_propagation(u3, lo=0, hi=hi, tol=tol), expect_pass())

    # windowed descriptions sized to each op's window
    def windowed(system, name, run, make_check, store_end=None, edit=None):
        n = windows[len(ops)]
        hi_store = n - 1 + MARGIN if store_end is None else store_end(n)
        row = int(rng.integers(n // 4, 3 * n // 4))
        edits = {}
        if edit is not None:
            band, entry = edit(row)
            edits[band, row] = entry
        u, s, t = system.windowed(-MARGIN, hi_store, edits)
        check = make_check(hi_store if store_end is not None else row)
        ops.append(Op(f"{name}/d{d}/w{n}", lambda: run(u, s, t, n - 1), check))

    short = lambda n: n - n // 4
    perturb = lambda row: (-1, at(two.bands[-1], row) + DEFECT_SIZE * gen.weight(rng, d))
    windowed(two, "intertwining/skip", lambda u, s, t, hi:
             b.verify_intertwining(u, s, t, 0, hi, tol), expect_skips, short)
    windowed(two, "unitary_banded/skip", lambda u, s, t, hi:
             b.verify_unitary_banded(u, 0, hi, tol), expect_skips, short)
    windowed(two, "unitary_two_band/skip", lambda u, s, t, hi:
             b.verify_unitary_two_band(u, 0, hi, tol), expect_skips, short)
    windowed(three, "unitary_three_band/skip", lambda u, s, t, hi:
             b.verify_unitary_three_band(u, 0, hi, tol), expect_skips, short)
    windowed(two, "unitary_two_band/defect", lambda u, s, t, hi:
             b.verify_unitary_two_band(u, 0, hi, tol), expect_fail_near, edit=perturb)
    windowed(two, "unitary_banded/defect", lambda u, s, t, hi:
             b.verify_unitary_banded(u, 0, hi, tol), expect_fail_near, edit=perturb)
    windowed(two, "intertwining/defect", lambda u, s, t, hi:
             b.verify_intertwining(u, s, t, 0, hi, tol), expect_fail_near, edit=perturb)
    windowed(two, "two_band_structure/defect", lambda u, s, t, hi:
             b.check_two_band_structure(u, 0, hi, tol),
             lambda row: expect_precondition(), edit=perturb)
    windowed(two, "band_count_bound/defect", lambda u, s, t, hi:
             b.check_band_count_bound(u, d, 0, hi, tol), expect_precondition,
             edit=perturb)
    windowed(two, "conjugate_to_shift/defect", lambda u, s, t, hi:
             b.conjugate_to_shift(u, s, 0, hi, tol),
             lambda row: expect_precondition(), edit=perturb)
    windowed(two, "diagonal_propagation/zero_entry", lambda u, s, t, hi:
             b.check_diagonal_propagation(u, lo=0, hi=hi, tol=tol), expect_fail_near,
             edit=lambda row: (1, np.zeros((d, d), dtype=complex)))
    windowed(three, "unitary_three_band/defect", lambda u, s, t, hi:
             b.verify_unitary_three_band(u, 0, hi, tol), expect_fail_near,
             edit=lambda row: (0, at(three.bands[0], row)
                               + DEFECT_SIZE * gen.weight(rng, d)))
    return ops


def build(seed: int, workdir=None) -> Workload:
    rng = np.random.default_rng(seed)
    ops = []
    warm_rng = np.random.default_rng([seed, 1])
    warmup = []
    for i, d in enumerate(DIMS):
        shift = 7 * i
        pattern = WINDOW_PATTERN[shift:] + WINDOW_PATTERN[:shift]
        ops.extend(_ops_for_dim(rng, d, pattern))
        warmup.extend(_ops_for_dim(warm_rng, d, [WARMUP_WINDOW] * len(pattern)))
    return Workload(ops, warmup)
