"""Reading and writing shift-specification documents.

The on-disk form is JSON.  Complex scalars are two-element arrays
``[re, im]``; matrices are row-major nested arrays of those pairs.  A
document declares the block dimension, named shifts, optional named banded
operators, and task blocks to run::

    {
      "dim": 2,
      "shifts": {
        "S": {"variant": "periodic", "weights": [ ...matrices... ]},
        "T": {"variant": "eventually_identity", "lo": 0, "weights": [...]},
        "R": {"variant": "windowed", "lo": -3, "weights": [...]}
      },
      "operators": {
        "U": {"bands": {"-1": {...sequence...}, "1": {...sequence...}}}
      },
      "tasks": [
        {"op": "verify_intertwining", "operator": "U", "s": "S", "t": "T",
         "window": [-8, 8]}
      ]
    }

``run_spec`` runs the task blocks into a run report.  It is the one task
runner: ``shiftlab verify``, the other CLI commands (each states its own
task blocks) and the bundled examples of ``corpus`` all go through it.
Each task op is defined once, as an entry of ``_OPS`` (its required keys,
its ``expect`` values and its runner), and every task block passes
``_validate_task`` before it runs, wherever it came from.
"""

from __future__ import annotations

import gc
import json
import math
import re
from dataclasses import dataclass, field
from itertools import chain
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .bands import (
    BandedOperator,
    check_band_count_bound,
    check_diagonal_propagation,
    check_two_band_structure,
    conjugate_to_shift,
    verify_intertwining,
    verify_unitary_banded,
    verify_unitary_three_band,
    verify_unitary_two_band,
)
from .equivalence import (
    VerdictStatus,
    decide_diagonal_equivalence,
    decide_diagonal_equivalence_scan,
    eigen_moduli_screen,
    norm_offset_screen,
    positive_form,
)
from .errors import SpecFormatError
from .matrices import DEFAULT_TOL, Tolerance
from .reports import ReportCheck, RunReport
from .shifts import (
    BilateralShift,
    EventuallyIdentityWeights,
    PeriodicWeights,
    WeightSequence,
    WindowedWeights,
    weight_norm_profile,
)

@dataclass
class SpecModel:
    """A fully resolved specification document."""

    dim: int
    shifts: dict = field(default_factory=dict)
    operators: dict = field(default_factory=dict)
    tasks: list = field(default_factory=list)


def encode_matrix(m) -> list:
    """Rows of ``[re, im]`` pairs; for a stack of matrices, a list of those."""
    a = np.ascontiguousarray(m, dtype=complex)
    return a.view(float).reshape(*a.shape, 2).tolist()


#: The largest magnitude of a row or offset a document names (a stored row
#: ``lo .. lo + N - 1`` of a sequence; an end of a task's ``window``,
#: ``k_range`` or ``m_range``, its ``m`` or ``k``): ten times the longest
#: window the benchmarks run, so no task steps through an unbounded range of
#: rows or allocates arrays for it; the automatic window and depth of a
#: ``decide`` task, which grow with the stored spans, stay bounded too.
_INDEX_LIMIT = 10**5


def _is_int(x) -> bool:
    """A JSON integer; booleans are not numbers here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_finite_number(x) -> bool:
    """A JSON number other than a boolean, NaN or an infinity."""
    if not (_is_int(x) or isinstance(x, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:       # an integer beyond the float range
        return False


def decode_matrix(data, path: str, dim: int | None = None) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise SpecFormatError("matrix must be a nonempty nested array", path=path)
    rows = []
    width = None
    for i, row in enumerate(data):
        if not isinstance(row, list) or not row:
            raise SpecFormatError("matrix row must be a nonempty array",
                                  path=f"{path}[{i}]")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SpecFormatError("matrix rows have unequal lengths",
                                  path=f"{path}[{i}]")
        out = []
        for j, cell in enumerate(row):
            if (not isinstance(cell, list) or len(cell) != 2
                    or not all(map(_is_finite_number, cell))):
                raise SpecFormatError(
                    "matrix entry must be a [re, im] pair of finite numbers",
                    path=f"{path}[{i}][{j}]")
            out.append(complex(cell[0], cell[1]))
        rows.append(out)
    mat = np.array(rows, dtype=complex)
    if mat.shape[0] != mat.shape[1]:
        raise SpecFormatError(f"matrix must be square, got {mat.shape}", path=path)
    if dim is not None and mat.shape[0] != dim:
        raise SpecFormatError(
            f"matrix has dimension {mat.shape[0]}, document declares {dim}",
            path=path)
    return mat


def _decode_weights(raw: list, path: str, dim: int):
    """A nonempty weight list as decoded matrices.

    A well-formed list (an (N, dim, dim, 2) nest of lists holding finite
    ``int``/``float`` scalars) is checked one nesting level at a time, each
    level by C-level passes over its flattening, and converted in one step
    to an (N, dim, dim) complex stack, each entry bitwise
    ``complex(re, im)``.  Any other list goes through ``decode_matrix`` one
    matrix at a time, which names its first bad cell.
    """
    level = raw
    for width in (dim, dim, 2):
        if set(map(type, level)) != {list} or set(map(len, level)) != {width}:
            break
        level = list(chain.from_iterable(level))
    else:
        if set(map(type, level)) <= {int, float}:
            try:
                pairs = np.array(level, dtype=float)
            except OverflowError:       # an integer beyond the float range
                pass
            else:
                if np.isfinite(pairs).all():
                    return pairs.view(complex).reshape(len(raw), dim, dim)
    return [decode_matrix(w, f"{path}[{i}]", dim) for i, w in enumerate(raw)]


def encode_sequence(seq: WeightSequence) -> dict:
    out = {"variant": seq.variant, "weights": encode_matrix(seq.rows(seq.lo, seq.hi)[0])}
    rng = seq.described_range()
    if rng is not None:
        out["lo"] = rng[0]
    return out


def decode_sequence(data, path: str, dim: int) -> WeightSequence:
    if not isinstance(data, dict):
        raise SpecFormatError("weight sequence must be an object", path=path)
    variant = data.get("variant")
    raw = data.get("weights")
    if not isinstance(raw, list) or not raw:
        raise SpecFormatError("weights must be a nonempty array",
                              path=f"{path}.weights")
    mats = _decode_weights(raw, f"{path}.weights", dim)
    if variant == "periodic":
        return PeriodicWeights(mats)
    if variant in ("eventually_identity", "windowed"):
        lo = data.get("lo")
        if not _is_int(lo):
            raise SpecFormatError(f"variant {variant!r} requires integer 'lo'",
                                  path=f"{path}.lo")
        if lo < -_INDEX_LIMIT or lo + len(raw) - 1 > _INDEX_LIMIT:
            raise SpecFormatError(f"stored rows lo .. lo + {len(raw) - 1} must lie "
                                  f"within [-{_INDEX_LIMIT}, {_INDEX_LIMIT}]",
                                  path=f"{path}.lo")
        cls = (EventuallyIdentityWeights if variant == "eventually_identity"
               else WindowedWeights)
        return cls(lo, mats)
    raise SpecFormatError(f"unknown variant {variant!r}", path=f"{path}.variant")


def encode_shift(shift: BilateralShift) -> dict:
    return encode_sequence(shift.weights)


def encode_operator(op: BandedOperator) -> dict:
    return {"bands": {str(k): encode_sequence(op.band(k)) for k in op.offsets}}


def decode_operator(data, path: str, dim: int) -> BandedOperator:
    if not isinstance(data, dict) or not isinstance(data.get("bands"), dict):
        raise SpecFormatError("operator must be an object with a 'bands' map",
                              path=path)
    if not data["bands"]:
        raise SpecFormatError("'bands' must name at least one band", path=f"{path}.bands")
    bands = {}
    for key, seq in data["bands"].items():
        try:
            offset = int(key)
            # only the canonical text, so that no two keys ("1", "01", "+1") name one band
            if key != str(offset):
                raise ValueError
        except ValueError:
            raise SpecFormatError(f"band offset {key!r} is not an integer in canonical "
                                  "form", path=f"{path}.bands") from None
        bands[offset] = decode_sequence(seq, f"{path}.bands.{key}", dim)
    return BandedOperator(bands)


# --- task ops -----------------------------------------------------------------

_PASS_FAIL = ("pass", "fail")
#: The window of a task that names none; a ``decide`` task instead leaves
#: its window to the decision procedure.
_DEFAULT_WINDOW = (-8, 8)
#: The ``mode`` values of a ``verify_unitary`` task: mode M runs
#: ``verify_unitary_M``.
_UNITARY_MODES = ("banded", "three_band", "two_band")
#: The largest ``depth``; the Gram chains of a decision hold
#: ``(2 * depth, 2, d, d)`` matrices.
_DEPTH_LIMIT = 10**4
#: The most (offset, row) pairs a ``norm_offset_screen`` task compares: its
#: ``k_range`` width times its window rows.  The screen's cost grows with
#: both and with the block dim, since a pair compares d singular values: at
#: this budget a dim-16 period-1 shift against itself, where every offset
#: passes and so reads every row, took 0.6-0.7 s (2 cores, numpy 2.4, one
#: BLAS thread; 0.06 s when the screen compared operator norms alone).
_SCREEN_BUDGET = 10**7
#: The widest ``m_range`` of a ``decide`` task: it may run one decision per
#: offset.
_SCAN_LIMIT = 100
#: The offsets a ``norm_offset_screen`` task that names none compares.
_DEFAULT_K_RANGE = (-4, 4)


class _Op(NamedTuple):
    """A task op: the keys it requires, the values its ``expect`` takes
    (None: it takes no ``expect``) and its runner.

    ``run(c)`` reads the task ``c.task``, its resolved names (``c.operator``,
    ``c.s``, ``c.t``, ``c.shift``; None when absent), its window ``c.lo``,
    ``c.hi`` and the run's ``c.tol`` and ``c.seed``.  It returns the fields
    of the task's report check other than its name, and the witness the
    report keeps under the task's label, or None.  Every runner calls the
    functions of this module's namespace at call time, so rebinding one of
    these names (as a tracer does) reaches every task that uses it.
    """

    keys: tuple
    expect: tuple | None
    run: Callable


def _verification(check):
    """The runner of an op whose ``check(c)`` is a window report that passes
    or fails, judged against ``expect`` (default ``pass``)."""
    def run(c):
        rep = check(c)
        expect = c.task.get("expect", "pass")
        return dict(kind="verification", passed=rep.passed, expected=expect,
                    observed=rep.summary(), expectation_met=rep.passed == (expect == "pass"),
                    details={"report": rep.to_jsonable()}), None
    return run


def _conjugate(c):
    res = conjugate_to_shift(c.operator, c.s, c.lo, c.hi, c.tol)
    expect = c.task.get("expect", "shift")
    details = {"report": res.report.to_jsonable()}
    if res.is_shift:
        details["shift"] = encode_shift(res.shift)
    return dict(kind="verification", passed=res.is_shift, expected=expect,
                observed="shift" if res.is_shift else "not a shift",
                expectation_met=res.is_shift == (expect == "shift"),
                details=details), details.get("shift")


def _positive_form(c):
    form = positive_form(c.shift, c.lo, c.hi)
    witness = {"shift": encode_shift(form.shift), "diagonal": encode_operator(form.diagonal)}
    return dict(kind="value", passed=True, expected="positive-weight form",
                observed=f"max intertwining residual {form.max_residual:.3e}",
                expectation_met=True, details={"max_residual": form.max_residual}), witness


def _norms(c):
    return dict(kind="value", passed=True, expected="profile",
                observed=f"norms on [{c.lo}, {c.hi}]", expectation_met=True,
                details={"norms": weight_norm_profile(c.shift, c.lo, c.hi)}), None


def _screen(c):
    k_lo, k_hi = c.task.get("k_range", _DEFAULT_K_RANGE)
    feasible = sorted(norm_offset_screen(c.s, c.t, k_lo, k_hi, c.lo, c.hi, c.tol))
    expect = c.task.get("expect_feasible")
    return dict(kind="screen", passed=None,
                expected="any" if expect is None else str(sorted(expect)),
                observed=f"feasible offsets {feasible}",
                expectation_met=expect is None or feasible == sorted(expect),
                details={"feasible": feasible}), None


def _decide(c):
    kwargs = dict(depth=c.task.get("depth"), window=c.task.get("window"), tol=c.tol,
                  seed=c.seed)
    if "m" in c.task:
        verdict = decide_diagonal_equivalence(c.s, c.t, c.task["m"], **kwargs)
    else:
        verdict = decide_diagonal_equivalence_scan(c.s, c.t, *c.task["m_range"], **kwargs)
    expect = c.task.get("expect")
    details = {"summary": verdict.summary()}
    if verdict.witness is not None:
        details["witness"] = encode_operator(verdict.witness)
    if verdict.obstruction is not None:
        details["obstruction"] = vars(verdict.obstruction)
    return dict(kind="verdict", passed=None, expected=expect or "any verdict",
                observed=verdict.status.value,
                expectation_met=expect is None or verdict.status.value == expect,
                details=details), details.get("witness")


#: Every task op.  A ``decide`` task also needs exactly one of ``m`` and
#: ``m_range``; a ``diagonal_propagation`` task takes both ``s`` and ``t``
#: or neither.
_OPS = {
    "verify_intertwining": _Op(("operator", "s", "t"), _PASS_FAIL, _verification(
        lambda c: verify_intertwining(c.operator, c.s, c.t, c.lo, c.hi, c.tol))),
    "verify_unitary": _Op(("operator",), _PASS_FAIL, _verification(
        lambda c: globals()["verify_unitary_" + c.task.get("mode", "banded")](
            c.operator, c.lo, c.hi, c.tol))),
    "two_band_structure": _Op(("operator",), _PASS_FAIL, _verification(
        lambda c: check_two_band_structure(c.operator, c.lo, c.hi, c.tol))),
    "diagonal_propagation": _Op(("operator",), _PASS_FAIL, _verification(
        lambda c: check_diagonal_propagation(c.operator, c.s, c.t, c.lo, c.hi, c.tol))),
    "band_count_bound": _Op(("operator",), _PASS_FAIL, _verification(
        lambda c: check_band_count_bound(c.operator, c.task.get("bound", c.operator.dim),
                                         c.lo, c.hi, c.tol))),
    "conjugate_to_shift": _Op(("operator", "s"), ("shift", "not_shift"), _conjugate),
    "positive_form": _Op(("shift",), None, _positive_form),
    "norms": _Op(("shift",), None, _norms),
    "norm_offset_screen": _Op(("s", "t"), None, _screen),
    "eigen_moduli_screen": _Op(("s", "t"), _PASS_FAIL, _verification(
        lambda c: eigen_moduli_screen(c.s, c.t, c.task.get("k", 0), c.lo, c.hi, c.tol))),
    "decide": _Op(("s", "t"), tuple(status.value for status in VerdictStatus), _decide),
}


def _validate_task(task, index: int, model: SpecModel):
    """Raise SpecFormatError, with the JSON path, unless ``task`` (the
    block at ``tasks[index]``) is one ``run_spec`` can run on ``model``."""
    path = f"tasks[{index}]"
    if not isinstance(task, dict):
        raise SpecFormatError("task must be an object", path=path)
    op = task.get("op")
    if not isinstance(op, str) or op not in _OPS:
        raise SpecFormatError(f"unknown task op {op!r}", path=f"{path}.op")
    for key in _OPS[op].keys:
        if key not in task:
            raise SpecFormatError(f"task op {op!r} requires {key!r}",
                                  path=f"{path}.{key}")
    if op == "decide" and ("m" in task) == ("m_range" in task):
        raise SpecFormatError("task op 'decide' requires exactly one of 'm' "
                              "and 'm_range'", path=f"{path}.m")
    if op == "diagonal_propagation" and ("s" in task) != ("t" in task):
        raise SpecFormatError("task op 'diagonal_propagation' takes both 's' and 't' "
                              "or neither", path=f"{path}.{'t' if 's' in task else 's'}")
    for key, names, kind in (("s", model.shifts, "shift"),
                             ("t", model.shifts, "shift"),
                             ("shift", model.shifts, "shift"),
                             ("operator", model.operators, "operator")):
        name = task.get(key)
        if key in task and not (isinstance(name, str) and name in names):
            raise SpecFormatError(f"undefined {kind} {name!r}",
                                  path=f"{path}.{key}")
    for key in ("window", "k_range", "m_range"):
        pair = task.get(key)
        if key in task and not (isinstance(pair, list) and len(pair) == 2
                                and all(map(_is_int, pair)) and pair[0] <= pair[1]):
            raise SpecFormatError(f"'{key}' must be two integers [LO, HI] with "
                                  f"LO <= HI", path=f"{path}.{key}")
    for key in ("m", "k", "bound"):
        if key in task and not _is_int(task[key]):
            raise SpecFormatError(f"'{key}' must be an integer", path=f"{path}.{key}")
    for key in ("window", "k_range", "m_range", "m", "k"):
        value = task.get(key, 0)
        if max(map(abs, value if isinstance(value, list) else [value])) > _INDEX_LIMIT:
            raise SpecFormatError(f"'{key}' must lie within [-{_INDEX_LIMIT}, "
                                  f"{_INDEX_LIMIT}]", path=f"{path}.{key}")
    if op == "norm_offset_screen":
        (k_lo, k_hi), (lo, hi) = (task.get("k_range", _DEFAULT_K_RANGE),
                                  task.get("window", _DEFAULT_WINDOW))
        if (k_hi - k_lo + 1) * (hi - lo + 1) > _SCREEN_BUDGET:
            raise SpecFormatError(f"'k_range' width times 'window' rows must not exceed "
                                  f"{_SCREEN_BUDGET}", path=f"{path}.k_range")
    if "m_range" in task and task["m_range"][1] - task["m_range"][0] + 1 > _SCAN_LIMIT:
        raise SpecFormatError(f"'m_range' must span at most {_SCAN_LIMIT} offsets",
                              path=f"{path}.m_range")
    depth = task.get("depth")
    if depth is not None and not (_is_int(depth) and 1 <= depth <= _DEPTH_LIMIT):
        raise SpecFormatError(f"'depth' must be an integer in [1, {_DEPTH_LIMIT}] "
                              "or null", path=f"{path}.depth")
    if "mode" in task and task["mode"] not in _UNITARY_MODES:
        raise SpecFormatError(f"'mode' must be one of {list(_UNITARY_MODES)}",
                              path=f"{path}.mode")
    expect_values = _OPS[op].expect
    if "expect" in task and task["expect"] not in (expect_values or ()):
        allowed = (f"one of {list(expect_values)}" if expect_values
                   else f"absent for task op {op!r}")
        raise SpecFormatError(f"'expect' must be {allowed}", path=f"{path}.expect")
    feasible = task.get("expect_feasible")
    if "expect_feasible" in task and not (isinstance(feasible, list)
                                          and all(map(_is_int, feasible))):
        raise SpecFormatError("'expect_feasible' must be an array of integers",
                              path=f"{path}.expect_feasible")
    if not isinstance(task.get("label", ""), str):
        raise SpecFormatError("'label' must be a string", path=f"{path}.label")


#: A text nested deeper than this is read by ``json`` alone (a spec document
#: nests 9 deep).  orjson reads any depth by recursing on the native stack
#: and overflows it, a crash and not an exception, between 1.2 * 10^5 and
#: 1.5 * 10^5 deep on an 8 MB stack; ``json`` refuses, as an error, what is
#: too deep for the interpreter's recursion limit.
_FAST_READ_DEPTH = 255
#: A JSON string literal, escapes included, or an unterminated one to the
#: end of the text: every match attempt succeeds, so removing them takes
#: one pass (a failed attempt at each of n quotes would rescan the text).
_STRING = re.compile(rb'"[^"\\]*(?:\\.[^"\\]*)*(?:"|\\?\Z)', re.DOTALL)
_BRACKET_STEPS = bytes.maketrans(b"[{]}", b"\x01\x01\xff\xff")
_NOT_BRACKETS = bytes(sorted(set(range(256)).difference(b"[]{}")))


def _nesting_depth(raw: bytes) -> int:
    """The deepest nesting of arrays and objects in the JSON text ``raw``,
    counted without recursion: with the string literals removed, each
    bracket left steps the depth up or down.  In a text that is not JSON it
    is at least the depth a reader reaches before the first error."""
    steps = _STRING.sub(b"", raw).translate(_BRACKET_STEPS, _NOT_BRACKETS)
    return int(np.frombuffer(steps, np.int8).cumsum().max(initial=0))


def _holds_wide_float(value) -> bool:
    """Whether a JSON value holds a float of magnitude 2**63 or more, which
    orjson also reads from an integer literal past the 64-bit range."""
    stack = [value]
    while stack:
        x = stack.pop()
        if isinstance(x, dict):
            stack.extend(x.values())
        elif isinstance(x, list):
            stack.extend(x)
        elif isinstance(x, float) and abs(x) >= 2.0**63:
            return True
    return False


def _fast_model(text: str) -> SpecModel | None:
    """The model orjson reads from ``text``, or None where ``json`` must read it.

    orjson refuses some texts ``json`` reads (``NaN`` and ``Infinity``
    tokens, numbers past the float range, lone surrogate escapes), and reads
    an integer past 64 bits as a float, where ``json`` reads it exactly.  So
    ``json`` reads a text orjson refuses or that nests too deep for it, a
    document that fails validation (an integer read as a float may be the
    fault), and one whose task blocks, which the model keeps as read, hold a
    float of that magnitude.  Every other number orjson reads bitwise as
    ``json`` does.
    """
    import orjson     # here, not at the top: commands that read no spec never load it
    try:
        raw = text.encode("utf-8")
    except UnicodeEncodeError:      # a lone surrogate code point
        return None
    if _nesting_depth(raw) > _FAST_READ_DEPTH:
        return None
    try:
        doc = orjson.loads(raw)
    except orjson.JSONDecodeError:
        return None
    try:
        model = _resolve(doc)
    except SpecFormatError:
        return None
    return None if _holds_wide_float(model.tasks) else model


def _resolve(doc) -> SpecModel:
    """The model of a read document, or SpecFormatError naming the path of
    its first bad value."""
    if not isinstance(doc, dict):
        raise SpecFormatError("document must be a JSON object", path="$")
    dim = doc.get("dim")
    if not _is_int(dim) or dim < 1:
        raise SpecFormatError("'dim' must be a positive integer", path="dim")
    model = SpecModel(dim=dim)
    shifts = doc.get("shifts", {})
    if not isinstance(shifts, dict):
        raise SpecFormatError("'shifts' must be an object", path="shifts")
    for name, data in shifts.items():
        seq = decode_sequence(data, f"shifts.{name}", dim)
        try:
            model.shifts[name] = BilateralShift(seq, label=name)
        except ValueError as exc:
            raise SpecFormatError(str(exc), path=f"shifts.{name}") from None
    operators = doc.get("operators", {})
    if not isinstance(operators, dict):
        raise SpecFormatError("'operators' must be an object", path="operators")
    for name, data in operators.items():
        op = decode_operator(data, f"operators.{name}", dim)
        op.label = name
        model.operators[name] = op
    tasks = doc.get("tasks", [])
    if not isinstance(tasks, list):
        raise SpecFormatError("'tasks' must be an array", path="tasks")
    for i, task in enumerate(tasks):
        _validate_task(task, i, model)
        model.tasks.append(dict(task))
    return model


def parse_shift_spec(text: str) -> SpecModel:
    """Parse a specification document into resolved objects.

    Syntax errors carry line/column positions; semantic errors carry the
    JSON path of the offending element.  All names referenced by tasks must
    resolve.

    orjson reads the text, at several times the speed of ``json``, which
    reads it where orjson cannot (``_fast_model``).  Every error is raised
    from the document as ``json`` read it, so the accepted documents, their
    models and each refusal's message are those of ``json`` alone.

    The cyclic garbage collector is paused while the document is parsed and
    decoded, and left as it was found after: the parse builds tens of
    thousands of lists, none in a cycle and all alive until decoding ends,
    which young collections would otherwise walk and promote again and again.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        model = _fast_model(text)
        if model is not None:
            return model
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecFormatError(f"invalid JSON: {exc.msg}", line=exc.lineno,
                                  column=exc.colno) from None
        except (ValueError, RecursionError) as exc:     # an over-long integer; nesting too deep
            raise SpecFormatError(f"invalid JSON: {exc}") from None
        return _resolve(doc)
    finally:
        if enabled:
            gc.enable()


def serialize_model(model: SpecModel, indent: int = 2) -> str:
    """Serialize back to document text; parsing it again gives an equal model."""
    doc = {
        "dim": model.dim,
        "shifts": {name: encode_shift(s) for name, s in model.shifts.items()},
        "operators": {name: encode_operator(op)
                      for name, op in model.operators.items()},
        "tasks": model.tasks,
    }
    return json.dumps(doc, indent=indent, sort_keys=True)


def load_spec_file(path) -> SpecModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SpecFormatError(f"document is not UTF-8 text: {exc.reason}") from None
    return parse_shift_spec(text)


def run_spec(model: SpecModel, name: str, title: str,
             tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> RunReport:
    """Run the task blocks of ``model`` in order; one report check per task.

    Every task must pass the spec validator first, wherever it came from;
    a bad one raises SpecFormatError naming its path before any task runs.
    A task without a ``window`` runs on ``[-8, 8]``, except ``decide``,
    which leaves the window to the decision procedure.  Asserted
    obstructions are expected failures, so a report can be fully "as
    expected" while its exit code still signals that an obstruction was found.
    """
    for i, task in enumerate(model.tasks):
        _validate_task(task, i, model)
    report = RunReport(name=name, title=title, seed=seed,
                       tolerance={"rel": tol.rel, "abs": tol.abs})
    for task in model.tasks:
        lo, hi = task.get("window", _DEFAULT_WINDOW)
        c = SimpleNamespace(task=task, lo=lo, hi=hi, tol=tol, seed=seed,
                            operator=model.operators.get(task.get("operator")),
                            **{key: model.shifts.get(task.get(key))
                               for key in ("s", "t", "shift")})
        fields, witness = _OPS[task["op"]].run(c)
        label = task.get("label", task["op"])
        if witness is not None:
            report.witnesses[label] = witness
        report.add(ReportCheck(name=label, **fields))
    return report
