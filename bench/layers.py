"""The layers the traced run times, and the per-layer metrics it reports.

The layers are the package modules.  Each public function named below gets
a span around every call, wherever a module holds a reference to it: the
package namespace, its own module, and every module that imported the name
(``shiftlab.equivalence.verify_intertwining``, the names ``cli`` and
``corpus`` import).  The hot weight accessors of ``shifts`` are counted
instead, without spans, so their time stays in the caller's self time, as
does the time of private stages such as ``_norm_mismatch``.
"""

from __future__ import annotations

import importlib
import os
import sys
from collections import Counter
from dataclasses import dataclass, field

from harness import Tracer, aggregate

FUNCTIONS = {
    "equivalence": ("decide_diagonal_equivalence", "decide_diagonal_equivalence_scan",
                    "gram_chains", "solve_joint_conjugator", "eigen_moduli_screen",
                    "norm_offset_screen", "diagonal_witness", "positive_form"),
    "bands": ("verify_intertwining", "verify_unitary_banded", "verify_unitary_two_band",
              "verify_unitary_three_band", "check_two_band_structure",
              "check_band_count_bound", "check_diagonal_propagation", "conjugate_to_shift"),
    "matrices": ("operator_norm", "condition_ratio", "polar_decompose", "is_normal"),
    "specfile": ("load_spec_file", "encode_operator", "encode_shift"),
    "cli": ("cli_main",),
    "corpus": ("run_example",),
}
METHODS = {"reports": (("RunReport", "to_json"),)}
COUNTED = {"shifts.weight": (("BilateralShift", "weight"),),
           "shifts.weight_at": (("PeriodicWeights", "weight_at"),
                                ("EventuallyIdentityWeights", "weight_at"),
                                ("WindowedWeights", "weight_at"))}
COMPLEX_BYTES = 16

EXTRA_METRICS = (
    ("equivalence.conjugator.nullspace_dim_mean", "dims"),
    ("equivalence.conjugator.system_bytes", "B_computed"),
    ("equivalence.settled_before_solver_frac", "ratio"),
    ("equivalence.verdict.equivalent", "count"),
    ("equivalence.verdict.not_equivalent", "count"),
    ("equivalence.verdict.inconclusive", "count"),
    ("bands.checks", "count"),
    ("bands.skipped", "count"),
    ("bands.us_per_check", "us"),
    ("specfile.bytes_read", "B"),
    ("reports.bytes_written", "B"),
    ("trace.overhead_ms_p50", "ms"),
    ("trace.layer_self_share", "ratio"),
)


def span_names():
    names = [f"{module}.{fn}" for module, fns in FUNCTIONS.items() for fn in fns]
    names += [f"{module}.{cls}.{meth}" for module, methods in METHODS.items()
              for cls, meth in methods]
    return names


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name in span_names():
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(f"{name}.calls", "count") for name in COUNTED]
    return out + list(EXTRA_METRICS)


@dataclass
class LayerCounts:
    """Counts taken from the results the traced functions return."""

    verdicts: Counter = field(default_factory=Counter)
    nullspace_dims: list = field(default_factory=list)
    system_bytes: int = 0
    checks: int = 0
    skipped: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def on_verdict(self, verdict, args, kwargs):
        self.verdicts[verdict.status.value] += 1

    def on_conjugator(self, result, args, kwargs):
        if result.certificate == "spectrum-mismatch":
            return          # settled before the stacked system was built
        self.nullspace_dims.append(result.nullspace_dim)
        pairs = args[0] if args else kwargs["pairs"]
        d = len(pairs[0][0])
        # the stacked Kronecker system: len(pairs)*d^2 rows, d^2 columns
        self.system_bytes = max(self.system_bytes, len(pairs) * d ** 4 * COMPLEX_BYTES)

    def on_window_report(self, out, args, kwargs):
        report = getattr(out, "report", out)
        self.checks += len(report.checks)
        self.skipped += len(report.skipped)

    def on_spec_read(self, model, args, kwargs):
        self.bytes_read += os.path.getsize(args[0] if args else kwargs["path"])

    def on_report_json(self, text, args, kwargs):
        self.bytes_written += len(text.encode("utf-8"))


def install(tracer: Tracer, counts: LayerCounts):
    """Wrap every layer function; returns a callable that undoes it."""
    for module in (*FUNCTIONS, *METHODS, "shifts"):
        importlib.import_module(f"shiftlab.{module}")
    mods = [m for name, m in sys.modules.items()
            if name == "shiftlab" or name.startswith("shiftlab.")]
    hooks = {"equivalence.decide_diagonal_equivalence": counts.on_verdict,
             "equivalence.solve_joint_conjugator": counts.on_conjugator,
             "specfile.load_spec_file": counts.on_spec_read}
    hooks.update({f"bands.{fn}": counts.on_window_report for fn in FUNCTIONS["bands"]})
    undo = []

    def rebind(original, replacement):
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    undo.append((mod, attr, original))

    for module, fns in FUNCTIONS.items():
        mod = sys.modules[f"shiftlab.{module}"]
        for fn in fns:
            name = f"{module}.{fn}"
            original = getattr(mod, fn)
            rebind(original, tracer.wrap(name, original, hooks.get(name)))
    for module, methods in METHODS.items():
        mod = sys.modules[f"shiftlab.{module}"]
        for cls_name, meth in methods:
            cls = getattr(mod, cls_name)
            original = vars(cls)[meth]
            setattr(cls, meth, tracer.wrap(f"{module}.{cls_name}.{meth}", original,
                                           counts.on_report_json))
            undo.append((cls, meth, original))
    for name, methods in COUNTED.items():
        mod = sys.modules["shiftlab.shifts"]
        for cls_name, meth in methods:
            cls = getattr(mod, cls_name)
            original = vars(cls)[meth]
            setattr(cls, meth, tracer.counted(name, original))
            undo.append((cls, meth, original))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return restore


def per_layer_metrics(tracer: Tracer, counts: LayerCounts, untraced_p50_ms: float,
                      traced_p50_ms: float):
    """``{name: value}`` for every name of ``metric_units()``."""
    agg = aggregate(tracer)
    values = {}
    layer_self = 0.0
    bands_self = 0.0
    for name in span_names():
        calls, self_s = agg.get(name, (0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
        layer_self += self_s
        if name.startswith("bands."):
            bands_self += self_s
    for name in COUNTED:
        values[f"{name}.calls"] = tracer.counts[name]
    dims = counts.nullspace_dims
    decides = agg.get("equivalence.decide_diagonal_equivalence", (0, 0.0))[0]
    # Each decide calls the solver at most once, and nothing else calls it.
    solved = agg.get("equivalence.solve_joint_conjugator", (0, 0.0))[0]
    _, op_self = agg.get(Tracer.OP_SPAN, (0, 0.0))
    op_time = op_self + layer_self    # every layer span sits inside an op span
    values.update({
        "equivalence.conjugator.nullspace_dim_mean": sum(dims) / len(dims) if dims else 0.0,
        "equivalence.conjugator.system_bytes": counts.system_bytes,
        "equivalence.settled_before_solver_frac":
            (decides - solved) / decides if decides else 0.0,
        "equivalence.verdict.equivalent": counts.verdicts["equivalent"],
        "equivalence.verdict.not_equivalent": counts.verdicts["not_equivalent"],
        "equivalence.verdict.inconclusive": counts.verdicts["inconclusive"],
        "bands.checks": counts.checks,
        "bands.skipped": counts.skipped,
        "bands.us_per_check": bands_self / counts.checks * 1e6 if counts.checks else 0.0,
        "specfile.bytes_read": counts.bytes_read,
        "reports.bytes_written": counts.bytes_written,
        "trace.overhead_ms_p50": traced_p50_ms - untraced_p50_ms,
        "trace.layer_self_share": layer_self / op_time if op_time else 0.0,
    })
    return values
