"""Machine-readable run reports with a human-readable summary."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


@dataclass
class ReportCheck:
    """One named outcome in a run report.

    ``kind`` is "verification" (a windowed check that can pass or fail),
    "screen" (a feasibility result), "verdict" (an equivalence decision), or
    "value" (a computed quantity compared against a stated expectation).
    ``passed`` records the observed truth of the check itself;
    ``expectation_met`` records whether the outcome matched what the example
    or task declared it should be.
    """

    name: str
    kind: str
    passed: bool | None
    expected: str
    observed: str
    expectation_met: bool
    details: dict = field(default_factory=dict)


@dataclass
class RunReport:
    name: str
    title: str
    seed: int
    tolerance: dict
    checks: list = field(default_factory=list)
    witnesses: dict = field(default_factory=dict)
    #: a refuted equivalence fails the run (the ``decide`` command); it is
    #: an outcome like any other where a task block asserts it
    refutation_fails: bool = False

    def add(self, check: ReportCheck):
        self.checks.append(check)

    @property
    def all_expected(self) -> bool:
        return all(c.expectation_met for c in self.checks)

    def exit_code(self) -> int:
        """0 clean, 1 a verification failed, an expectation broke or (with
        ``refutation_fails``) a verdict refuted equivalence, 3 an
        inconclusive verdict surfaced."""
        if any(not c.expectation_met or (c.kind == "verification" and c.passed is False)
               or (c.kind == "verdict" and self.refutation_fails
                   and c.observed == "not_equivalent") for c in self.checks):
            return 1
        if any(c.kind == "verdict" and c.observed == "inconclusive"
               for c in self.checks):
            return 3
        return 0

    def human_lines(self):
        lines = [f"== {self.name}: {self.title}"]
        for c in self.checks:
            flag = "ok " if c.expectation_met else "XX "
            state = ""
            if c.passed is not None:
                state = "pass" if c.passed else "fail"
            elif c.kind == "verdict":
                state = c.details["summary"]
            lines.append(f"  [{flag}] {c.name}: {c.observed}"
                         + (f" ({state})" if state else "")
                         + (f" -- expected {c.expected}"
                            if not c.expectation_met else ""))
        lines.append(f"  exit code {self.exit_code()}")
        return lines

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "title": self.title,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "exit_code": self.exit_code(),
            "checks": [vars(c) for c in self.checks],
            "witnesses": self.witnesses,
        }

    def to_json(self) -> str:
        """Compact strict JSON text of ``to_jsonable()``.

        orjson writes it, at several times the speed of ``json``: floats in
        their shortest round-trip form, which reads back bitwise (spelled
        ``0.00001`` and ``1e16`` where ``json`` writes ``1e-05`` and
        ``1e+16``), and text as UTF-8, not ``\\u`` escapes.  Keys follow the
        order in which the report built them, not sorted order: the same
        report always builds them in the same order, so the text is
        deterministic.  The text is written in one pass (``_orjson_text``),
        and is that of ``orjson.dumps(self.to_jsonable())``.

        A non-finite float (an overflowed residual, say) is written as the
        string ``"Infinity"``, ``"-Infinity"`` or ``"NaN"``.  A report that
        holds one, or that orjson refuses (an integer past 64 bits, a lone
        surrogate), is written by ``json``, after one walk that replaces
        them (and changes nothing else that ``json`` writes).  A report is
        a tree (one witness may sit in it twice, which is no cycle), so
        ``json`` skips its check for circular references.
        """
        data = self.to_jsonable()
        text = _orjson_text(data)
        if text is None:
            text = json.dumps(_finite(data), separators=(",", ":"), allow_nan=False,
                              check_circular=False)
        return text


def _orjson_text(data: dict) -> str | None:
    """The text of ``orjson.dumps(data)`` for a report's tree, or None where
    it holds a non-finite float or a value orjson refuses.

    orjson writes a non-finite float as ``null``, as it writes None.  So
    each value of ``data``, and each element of a list value (a check, say),
    is written alone and once; a piece whose text holds ``null`` is read
    back and compared with itself.  Read back a piece at a time, the
    report's tree is never held twice in memory.  Each piece is decoded as
    soon as it is written, so orjson's bytes are freed at once, and the
    pieces are joined in one copy.  The keys of ``data`` are the plain
    names ``to_jsonable`` gives, which JSON spells as they are.
    """
    import orjson     # here, not at the top: commands that write no report never load it
    pieces = []
    for key, value in data.items():
        pieces.append('%s"%s":' % ("," if pieces else "{", key))
        listed = isinstance(value, list)
        if listed:
            pieces.append("[")
        for i, item in enumerate(value if listed else [value]):
            try:
                text = orjson.dumps(item)
            except orjson.JSONEncodeError:
                return None
            if b"null" in text and orjson.loads(text) != item:
                return None
            if i:
                pieces.append(",")
            pieces.append(text.decode())
        if listed:
            pieces.append("]")
    pieces.append("}")
    return "".join(pieces)


def _finite(obj):
    """``obj`` with each non-finite float replaced by its JSON token as a string."""
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "NaN" if math.isnan(obj) else ("Infinity" if obj > 0 else "-Infinity")
    return obj
