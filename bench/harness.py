"""Measurement core of the benchmark: operations, the closed-loop runner,
the host-speed probe, the failure tally, the tail-percentile rule and the
span tracer.

Nothing here imports shiftlab.  Workloads hand in operations as callables
together with a ground-truth check, and the runner times only the call.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

# Percentiles tried for the tail, in hundredths of a percent so that ranks
# are computed in integer arithmetic.
TAIL_LADDER = (5000, 7500, 9000, 9500, 9900, 9950, 9990, 9995, 9999)
TAIL_MIN_BEYOND = 10


def nearest_rank(sorted_values, hundredths: int):
    """Nearest-rank percentile: (value, number of samples ranked above it)."""
    n = len(sorted_values)
    rank = max(1, -(-hundredths * n // 10000))
    return sorted_values[rank - 1], n - rank


def tail_percentile(values):
    """The highest ladder percentile with at least ten samples beyond it.

    Returns ``(percentile, value, beyond)``.  With fewer than twenty samples
    no percentile qualifies and the median is returned with its own count.
    """
    s = sorted(values)
    best = None
    for q in TAIL_LADDER:
        value, beyond = nearest_rank(s, q)
        if beyond >= TAIL_MIN_BEYOND:
            best = (q / 100.0, value, beyond)
    if best is None:
        value, beyond = nearest_rank(s, 5000)
        best = (50.0, value, beyond)
    return best


# The probe's time on the reference machine (2 vCPUs of a shared host,
# Intel Xeon, Python 3.11, numpy 2.4 with OpenBLAS on one thread), as the
# median over 3000 runs.  Calibrated times read as on that machine.
REFERENCE_PROBE_S = 1.2e-3
_PROBE_MATRIX = (np.random.default_rng(12345).standard_normal((6, 12))
                 .view(np.complex128))


def probe():
    """A fixed piece of work of about a millisecond, in the two kinds the
    program spends its time on: an interpreted loop and small LAPACK calls.
    It never changes, so its time measures only how fast the host runs."""
    total = 0
    for i in range(15000):
        total += i * i
    for _ in range(10):
        np.linalg.svd(_PROBE_MATRIX)
    return total


def time_probe() -> float:
    t0 = time.perf_counter()
    probe()
    return time.perf_counter() - t0


def calibrated(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, scaled to the
    reference machine.  The host's speed drifts by a third and more within
    minutes (it is shared); the probe, timed next to the measurement, drifts
    with it, and the ratio does not."""
    return seconds * REFERENCE_PROBE_S / probe_s


@dataclass
class Outcome:
    """What a ground-truth check concluded about one operation."""

    problems: list = field(default_factory=list)
    checks: int = 0              # windowed ConditionChecks in the output
    verdict: str | None = None   # status, when the operation is a decision
    wrong_verdict: bool = False  # a certified verdict contradicting truth


@dataclass
class Op:
    """One call into the program and the check of its result.

    ``check(value, exc)`` receives the return value, or the exception the
    call raised.  ``known_defect`` names a failure the program is known to
    have at the commit the benchmark was written against.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any, BaseException | None], Outcome]
    known_defect: str | None = None


@dataclass
class Workload:
    """The operations of one pass, and the shorter list run to warm up."""

    ops: list
    warmup: list


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    decisions: int = 0
    inconclusive: int = 0
    wrong_verdicts: int = 0
    checks: int = 0
    failures: Counter = field(default_factory=Counter)
    first_problem: dict = field(default_factory=dict)
    known_defects: dict = field(default_factory=dict)

    def record(self, op: Op, outcome: Outcome):
        self.attempted += 1
        self.checks += outcome.checks
        if outcome.verdict is not None:
            self.decisions += 1
            self.inconclusive += outcome.verdict == "inconclusive"
        self.wrong_verdicts += bool(outcome.wrong_verdict)
        if outcome.problems or outcome.wrong_verdict:
            self.failed += 1
            self.failures[op.name] += 1
            self.first_problem.setdefault(
                op.name, "; ".join(outcome.problems) or "wrong verdict")
            if op.known_defect:
                self.known_defects[op.name] = op.known_defect

    @property
    def unexpected_failures(self) -> int:
        return sum(n for name, n in self.failures.items()
                   if name not in self.known_defects)

    @property
    def correct(self) -> bool:
        """No wrong certified verdict and no failure beyond the known
        defects; those still count in ``failed``."""
        return self.wrong_verdicts == 0 and self.unexpected_failures == 0

    def fractions(self):
        failed_frac = self.failed / self.attempted if self.attempted else 0.0
        inconclusive_frac = (self.inconclusive / self.decisions
                             if self.decisions else 0.0)
        return failed_frac, inconclusive_frac


def checked(op: Op, value, exc) -> Outcome:
    """Run the op's check; a check that raises is itself a failure."""
    try:
        return op.check(value, exc)
    except Exception as err:  # the run must go on and report it
        return Outcome(problems=[f"check raised {type(err).__name__}: {err}"])


def run_cycles(ops, seconds: float, tally: Tally, tracer=None, min_passes: int = 1):
    """Closed loop, one client: call the ops in order, one at a time.

    Whole passes over ``ops`` are repeated until ``seconds`` of wall time
    have passed and at least ``min_passes`` are done, so every run holds
    the same mix.  The host-speed probe runs right before each call; only
    the call is timed as the operation, and the ground-truth check runs
    between calls.  Returns, for each pass, an ``(op seconds, probe
    seconds)`` pair per op.
    """
    passes = []
    began = time.perf_counter()
    while True:
        samples = []
        for op in ops:
            probe_s = time_probe()
            value = exc = None
            span = tracer.begin_op() if tracer is not None else None
            t0 = time.perf_counter()
            try:
                value = op.call()
            except Exception as err:  # judged by the op's check
                exc = err
            samples.append((time.perf_counter() - t0, probe_s))
            if span is not None:
                tracer.close(span)
            tally.record(op, checked(op, value, exc))
        passes.append(samples)
        if time.perf_counter() - began >= seconds and len(passes) >= min_passes:
            return passes


class Tracer:
    """In-memory spans: name, start, end, parent span and operation id.

    Spans open and close on one thread in strict nesting, so a span's
    children never overlap and its self time is its duration minus the sum
    of its children's durations.
    """

    OP_SPAN = "bench.op"

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_op(self) -> int:
        self._op += 1
        return self.open(self.intern(self.OP_SPAN))

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` with a span around each call; ``on_result(out, args,
        kwargs)`` sees every normal return."""
        nid = self.intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(out, args, kwargs)
            return out
        return traced

    def counted(self, name: str, fn):
        """``fn`` with a call counter and no span, for hot accessors."""
        counts = self.counts

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counting

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.op_id, dtype=np.int32))

    def save(self, path):
        name_id, start, end, parent, op_id = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            start=start, end=end, parent=parent, op_id=op_id)


def self_times(start, end, parent):
    """Per-span self time: duration minus the durations of direct children."""
    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child],
                          minlength=len(dur))
    return dur - covered


def aggregate(tracer: Tracer):
    """``{span name: (calls, self seconds)}`` over all recorded spans."""
    name_id, start, end, parent, _ = tracer.arrays()
    own = self_times(start, end, parent)
    k = len(tracer.names)
    calls = np.bincount(name_id, minlength=k)
    self_s = np.bincount(name_id, weights=own, minlength=k)
    return {name: (int(calls[i]), float(self_s[i]))
            for i, name in enumerate(tracer.names)}

