#!/usr/bin/env python3
"""shiftlab benchmark.

    python3 bench/run.py --workload decide-grid --seed 1 --seconds 30 --trace 0

Runs one workload in this process as a closed loop with a single client:
one call into shiftlab at a time, each checked against the ground truth
its generator built.  BLAS runs on one thread.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it runs half the time
untraced and half with spans around the public functions of every layer,
and reports the per-layer metrics.  Times are calibrated for the host's
speed: a fixed probe runs next to each measurement, and each time is scaled
by the probe's reference time over its measured time (``harness.calibrated``).
The raw times are printed and stored as well.  Human-readable lines come
first; the last line of standard output is one JSON object.  The full result, with
the environment, goes to ``bench/results/``; spans of a traced run go
there as ``.npz``.

``--workload all`` runs the three workloads one after another, each in its
own process, and prints their results as one JSON object whose metrics are
named ``<workload>.<metric>``.  The exit code is 0 when a result is printed
and correct, 1 otherwise.  The program is imported from ``src/`` of the
checkout that holds this file, never from an installed copy.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402  (the thread count must be set before numpy loads)
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = {"decide-grid": "decide_grid", "verify-window": "verify_window",
             "cli-specs": "cli_specs"}
SETUP_REPEATS = 3
SETUP_PROBES = 5     # probes before and after each set-up, for its calibration
# Passes after each set-up at the least.  The six passes of a run give
# cli-specs 222 and verify-window 414 samples, enough for p95 (which needs
# 200 for ten beyond it), so a slow host does not drop their tail to p90.
# decide-grid's passes are short; it makes eight or more in a run.
MIN_PASSES_PER_SETUP = 2
# CPU seconds that threads other than the measuring one may use in a run.
# Busy threads left behind by the program would slow the probe and so make
# calibrated times read faster; beyond this the run is not correct.
OTHER_THREADS_CPU_LIMIT_S = 0.5
# Times the import in a fresh interpreter, so each set-up repeat pays it.
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import numpy, shiftlab; print(time.perf_counter() - t)")

END_TO_END = (("setup_s", "s"), ("op_ms_p50", "ms"), ("op_ms_tail", "ms"),
              ("ops_per_s", "1/s"), ("checks_per_s", "1/s"), ("peak_rss_mb", "MB"))
# Printed and stored with every result but not bounded: they are zero on a
# healthy run, and their change is judged by ``correct`` and ``failed``.
OUTCOME_METRICS = (("failed_frac", "ratio"), ("inconclusive_frac", "ratio"),
                   ("wrong_verdicts", "count"))
# The timings before calibration, and the probe's median time: printed and
# stored, not bounded, as they move with the host.
RAW_METRICS = (("setup_s_raw", "s"), ("op_ms_p50_raw", "ms"), ("op_ms_tail_raw", "ms"),
               ("ops_per_s_raw", "1/s"), ("probe_ms", "ms"))


def parse_args(argv):
    p = argparse.ArgumentParser(description="shiftlab benchmark")
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import shiftlab from this checkout."""
    if not (SRC / "shiftlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no shiftlab sources under {SRC}; "
                         "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import shiftlab
    if Path(shiftlab.__file__).resolve().parent != SRC / "shiftlab":
        raise SystemExit(f"error: imported shiftlab from {shiftlab.__file__}")


def fresh_import_s():
    """Seconds a fresh interpreter takes to import numpy and shiftlab."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def git_commit():
    """Commit of the checkout, or None when it is not the top of a git
    repository (a copy inside another repository is not that one's commit)."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(seed):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "git_commit": git_commit(), "seed": seed}


def set_up(module, seed, workdir):
    """Build the inputs and warm up; the workload and seconds spent."""
    from harness import Tally, checked
    began = time.perf_counter()
    workload = module.build(seed, workdir)
    scratch = Tally()
    for op in workload.warmup:
        try:
            value, exc = op.call(), None
        except Exception as err:  # judged by the op's check
            value, exc = None, err
        scratch.record(op, checked(op, value, exc))
    return workload, time.perf_counter() - began


def median_probe_s():
    """Median time of ``SETUP_PROBES`` host-speed probes."""
    from harness import time_probe
    return statistics.median(time_probe() for _ in range(SETUP_PROBES))


def measure(module, seed, workdir, seconds, tally):
    """Set up ``SETUP_REPEATS`` times, spread over the run, and split the
    ``seconds`` of passes between them, so set-up is sampled across the
    same stretch of time as the operations.  Each set-up is an import in a
    fresh interpreter plus input generation and warm-up; the same seed
    gives the same inputs every time.  A set-up is calibrated by the mean
    of the probe medians taken right before and right after it.  Returns
    the last workload built, the passes and the median set-up seconds,
    calibrated and raw."""
    from harness import calibrated, run_cycles
    passes, setups, raw_setups, spent = [], [], [], 0.0
    for k in range(SETUP_REPEATS):
        before = median_probe_s()
        import_s = fresh_import_s()
        workload, build_s = set_up(module, seed, workdir)
        raw_setups.append(import_s + build_s)
        setups.append(calibrated(import_s + build_s, (before + median_probe_s()) / 2))
        began = time.perf_counter()
        passes += run_cycles(workload.ops, (seconds - spent) / (SETUP_REPEATS - k), tally,
                             min_passes=MIN_PASSES_PER_SETUP)
        spent += time.perf_counter() - began
    return workload, passes, statistics.median(setups), statistics.median(raw_setups)


def calibrated_samples(passes):
    """Calibrated op seconds of each pass."""
    from harness import calibrated
    return [[calibrated(t, probe) for t, probe in pass_samples] for pass_samples in passes]


def per_op_ms(ops, passes):
    """Median calibrated time of each operation over the passes, in ms."""
    cal = calibrated_samples(passes)
    return {op.name: statistics.median(s[i] for s in cal) * 1e3
            for i, op in enumerate(ops)}


def end_to_end(passes, tally, setup_s, raw_setup_s):
    """End-to-end metrics of the untraced passes.  Rates are per second of
    time spent inside shiftlab, over the whole run."""
    from harness import tail_percentile
    samples = [t for pass_samples in calibrated_samples(passes) for t in pass_samples]
    raw = [t for pass_samples in passes for t, _ in pass_samples]
    busy = sum(samples)
    pct, tail, beyond = tail_percentile(samples)
    failed_frac, inconclusive_frac = tally.fractions()
    values = {"setup_s": setup_s,
              "op_ms_p50": statistics.median(samples) * 1e3,
              "op_ms_tail": tail * 1e3,
              "ops_per_s": len(samples) / busy,
              "checks_per_s": tally.checks / busy,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "failed_frac": failed_frac, "inconclusive_frac": inconclusive_frac,
              "wrong_verdicts": tally.wrong_verdicts,
              "setup_s_raw": raw_setup_s,
              "op_ms_p50_raw": statistics.median(raw) * 1e3,
              "op_ms_tail_raw": tail_percentile(raw)[1] * 1e3,
              "ops_per_s_raw": len(raw) / sum(raw),
              "probe_ms": statistics.median(p for s in passes for _, p in s) * 1e3}
    tail_info = {"percentile": pct, "samples": len(samples), "beyond": beyond,
                 "passes": len(passes)}
    return values, tail_info


def other_threads_cpu_s():
    """CPU seconds used so far by threads of this process other than the
    calling one."""
    return time.process_time() - time.thread_time()


def run_one(args):
    other_cpu_before = other_threads_cpu_s()
    import_program()
    from harness import Tally, Tracer, run_cycles
    module = importlib.import_module(WORKLOADS[args.workload])
    workdir = HERE / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tally = Tally()
        if not args.trace:
            workload, passes, setup_s, raw_setup_s = measure(module, args.seed, workdir,
                                                             args.seconds, tally)
            values, tail_info = end_to_end(passes, tally, setup_s, raw_setup_s)
            by_op = per_op_ms(workload.ops, passes)
            units = dict(END_TO_END + OUTCOME_METRICS + RAW_METRICS)
            reported = [name for name, _ in END_TO_END]
            spans = None
        else:
            import layers
            workload, _ = set_up(module, args.seed, workdir)
            untraced = [t for s in calibrated_samples(
                run_cycles(workload.ops, args.seconds / 2, tally)) for t in s]
            tracer, counts = Tracer(), layers.LayerCounts()
            restore = layers.install(tracer, counts)
            try:
                traced = [t for s in calibrated_samples(
                    run_cycles(workload.ops, args.seconds / 2, tally, tracer)) for t in s]
            finally:
                restore()
            values = layers.per_layer_metrics(tracer, counts,
                                              statistics.median(untraced) * 1e3,
                                              statistics.median(traced) * 1e3)
            tail_info = by_op = None
            units = dict(layers.metric_units())
            reported = list(units)
            spans = tracer
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    other_cpu = other_threads_cpu_s() - other_cpu_before
    correct = tally.correct and other_cpu <= OTHER_THREADS_CPU_LIMIT_S

    env = environment(args.seed)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {tally.attempted}  failed {tally.failed}  correct {correct}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, unit in units.items():
        note = ""
        if name == "op_ms_tail":
            note = (f"  (p{tail_info['percentile']:g} of {tail_info['samples']} samples,"
                    f" {tail_info['beyond']} beyond, {tail_info['passes']} passes)")
        print(f"{name} = {values[name]:.6g} {unit}{note}")
    for name, count in sorted(tally.failures.items()):
        known = tally.known_defects.get(name)
        print(f"failed {name} x{count}: {tally.first_problem[name]}"
              + (f"  [known defect: {known}]" if known else ""))
    print(f"other_threads_cpu_s = {other_cpu:.6g} s")
    if other_cpu > OTHER_THREADS_CPU_LIMIT_S:
        print(f"not correct: threads other than the measuring one used {other_cpu:.3g} s "
              f"of CPU (limit {OTHER_THREADS_CPU_LIMIT_S} s), which skews the calibration")

    result = {"correct": correct, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in reported}}
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, workload=args.workload, seconds=args.seconds, env=env,
                  all_metrics={name: {"value": values[name], "unit": units[name]}
                               for name in units},
                  tail=tail_info, op_ms_median=by_op, failures=dict(tally.failures),
                  first_problem=tally.first_problem, known_defects=tally.known_defects,
                  other_threads_cpu_s=other_cpu)
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=2, sort_keys=True))
    if spans is not None:
        spans.save(RESULTS / f"{stem}-spans.npz")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run([sys.executable, __file__, "--workload", name,
                                "--seed", str(args.seed), "--seconds", str(args.seconds),
                                "--trace", str(args.trace)],
                               stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(child.stdout)
        lines = child.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"error: {name} printed no result (exit {child.returncode})",
                  file=sys.stderr)
            return 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{metric}": value
                                    for metric, value in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(HERE))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
