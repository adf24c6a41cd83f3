"""Self-tests of the benchmark harness: the tail-percentile rule, self time
over nested spans, failure counting and the metric list.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from harness import (  # noqa: E402
    REFERENCE_PROBE_S,
    Op,
    Outcome,
    Tally,
    Tracer,
    aggregate,
    calibrated,
    checked,
    nearest_rank,
    run_cycles,
    self_times,
    tail_percentile,
)


# -- tail percentile ------------------------------------------------------

def test_nearest_rank_counts_samples_beyond():
    values = list(range(1, 101))
    assert nearest_rank(values, 9000) == (90, 10)
    assert nearest_rank(values, 9500) == (95, 5)
    assert nearest_rank(values, 5000) == (50, 50)


@pytest.mark.parametrize("n, percentile, beyond", [
    (100, 90.0, 10),      # p95 would leave only 5 beyond
    (199, 90.0, 19),      # p95 leaves 9
    (200, 95.0, 10),
    (999, 95.0, 49),      # p99 leaves 9
    (1000, 99.0, 10),
    (20, 50.0, 10),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, percentile, beyond):
    pct, value, got_beyond = tail_percentile([float(i) for i in range(1, n + 1)])
    assert (pct, got_beyond) == (percentile, beyond)
    assert value == n - beyond


def test_tail_falls_back_to_median_below_twenty_samples():
    assert tail_percentile([3.0, 1.0, 2.0]) == (50.0, 2.0, 1)


def test_tail_ignores_sample_order():
    values = [5.0, 1.0, 9.0, 3.0] * 30
    assert tail_percentile(values) == tail_percentile(sorted(values))


# -- self time over nested spans ------------------------------------------

def _spans():
    # A [0, 10] holds B [1, 4] (which holds C [2, 3]) and D [5, 9];
    # E [20, 22] is a second root.
    start = [0.0, 1.0, 2.0, 5.0, 20.0]
    end = [10.0, 4.0, 3.0, 9.0, 22.0]
    parent = [-1, 0, 1, 0, -1]
    return start, end, parent


def test_self_time_subtracts_direct_children_only():
    own = self_times(*_spans())
    assert list(own) == [3.0, 2.0, 1.0, 4.0, 2.0]


def test_self_times_of_a_tree_sum_to_its_root_duration():
    own = self_times(*_spans())
    assert own[:4].sum() == 10.0


def test_tracer_spans_nest_and_aggregate():
    tracer = Tracer()
    inner = tracer.wrap("layer.inner", lambda: sum(range(1000)))
    outer = tracer.wrap("layer.outer", lambda: [inner() for _ in range(3)])
    for _ in range(2):
        op = tracer.begin_op()
        outer()
        tracer.close(op)
    agg = aggregate(tracer)
    assert agg["layer.outer"][0] == 2
    assert agg["layer.inner"][0] == 6
    assert agg[Tracer.OP_SPAN][0] == 2
    name_id, start, end, parent, op_id = tracer.arrays()
    roots = parent == -1
    total = float((end - start)[roots].sum())
    assert sum(s for _, s in agg.values()) == pytest.approx(total)
    assert set(op_id) == {0, 1}


def test_tracer_closes_span_when_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")
    wrapped = tracer.wrap("layer.boom", boom)
    with pytest.raises(ValueError):
        wrapped()
    after = tracer.wrap("layer.after", lambda: None)
    after()
    _, _, _, parent, _ = tracer.arrays()
    assert list(parent) == [-1, -1]


def test_on_result_sees_return_value():
    seen = []
    tracer = Tracer()
    f = tracer.wrap("layer.f", lambda x: x * 2, lambda out, args, kw: seen.append((out, args)))
    assert f(4) == 8
    assert seen == [(8, (4,))]


def test_counted_wrapper_counts_without_spans():
    tracer = Tracer()
    f = tracer.counted("shifts.weight_at", lambda n: n)
    for n in range(5):
        f(n)
    assert tracer.counts["shifts.weight_at"] == 5
    assert len(tracer.start) == 0


# -- failure counting -----------------------------------------------------

def _op(name, known=None):
    return Op(name, lambda: None, lambda value, exc: Outcome(), known)


def test_tally_counts_failures_verdicts_and_checks():
    tally = Tally()
    tally.record(_op("a"), Outcome(checks=5, verdict="equivalent"))
    tally.record(_op("b"), Outcome(problems=["bad"], verdict="inconclusive"))
    tally.record(_op("b"), Outcome(problems=["worse"]))
    tally.record(_op("c"), Outcome(wrong_verdict=True, verdict="not_equivalent"))
    assert (tally.attempted, tally.failed, tally.checks) == (4, 3, 5)
    assert (tally.decisions, tally.inconclusive, tally.wrong_verdicts) == (3, 1, 1)
    assert tally.failures == {"b": 2, "c": 1}
    assert tally.first_problem == {"b": "bad", "c": "wrong verdict"}
    assert tally.fractions() == (0.75, 1 / 3)
    assert not tally.correct


def test_known_defects_fail_but_keep_the_run_correct():
    tally = Tally()
    tally.record(_op("ok"), Outcome())
    tally.record(_op("nan", known="NaN escapes"), Outcome(problems=["raised ValueError"]))
    assert tally.failed == 1 and tally.correct
    assert tally.known_defects == {"nan": "NaN escapes"}
    tally.record(_op("other"), Outcome(problems=["exit 0, expected 2"]))
    assert not tally.correct


def test_a_check_that_raises_is_a_failure_not_an_abort():
    def check(value, exc):
        raise KeyError("witness")
    outcome = checked(Op("x", lambda: None, check), None, None)
    assert outcome.problems and "KeyError" in outcome.problems[0]


def test_run_cycles_counts_an_unexpected_raise_and_goes_on():
    def boom():
        raise RuntimeError("unexpected")

    def check(value, exc):
        return Outcome([f"raised {type(exc).__name__}"] if exc else [])
    ops = [Op("boom", boom, check), Op("fine", lambda: 1, check)]
    tally = Tally()
    passes = run_cycles(ops, 0.0, tally)
    assert len(passes) == 1 and len(passes[0]) == 2
    assert all(op_s >= 0 and probe_s > 0 for op_s, probe_s in passes[0])
    assert len(run_cycles(ops, 0.0, Tally(), min_passes=3)) == 3
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.first_problem == {"boom": "raised RuntimeError"}


# -- host-speed calibration -----------------------------------------------

def test_calibration_scales_by_reference_over_probe_time():
    assert calibrated(0.010, REFERENCE_PROBE_S) == pytest.approx(0.010)
    # A host running at half speed doubles both the op and the probe.
    assert calibrated(0.020, 2 * REFERENCE_PROBE_S) == pytest.approx(0.010)


def test_other_threads_cpu_counts_a_busy_thread():
    import threading
    import time

    import run
    before = run.other_threads_cpu_s()
    stop = time.perf_counter() + 0.3

    def spin():
        while time.perf_counter() < stop:
            pass
    worker = threading.Thread(target=spin)
    worker.start()
    worker.join()
    assert run.other_threads_cpu_s() - before > 0.1


def test_inconclusive_on_an_equivalent_pair_fails_the_run():
    from types import SimpleNamespace

    import numpy as np
    sys.path.insert(0, str(BENCH.parent / "src"))
    import decide_grid
    pair = decide_grid.make_pair(np.random.default_rng(0), "ei", 2, "equivalent", 1, 3)
    verdict = SimpleNamespace(status=SimpleNamespace(value="inconclusive"),
                              witness_report=None, reason="search exhausted",
                              summary=lambda: "inconclusive: search exhausted")
    outcome = decide_grid.check_decision(pair)(verdict, None)
    assert outcome.problems and not outcome.wrong_verdict
    tally = Tally()
    tally.record(_op("decide"), outcome)
    assert tally.inconclusive == 1 and tally.failed == 1 and not tally.correct


# -- the metric list matches BENCHMARK.json -------------------------------

def test_metric_lists_match_benchmark_json():
    import layers
    import run
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == layers.metric_units()
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
