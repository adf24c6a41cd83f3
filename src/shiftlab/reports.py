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

    def add(self, check: ReportCheck):
        self.checks.append(check)

    @property
    def all_expected(self) -> bool:
        return all(c.expectation_met for c in self.checks)

    def exit_code(self) -> int:
        """0 clean, 1 a verification failed or an expectation broke,
        3 an inconclusive verdict surfaced."""
        if any(not c.expectation_met for c in self.checks):
            return 1
        if any(c.kind == "verification" and c.passed is False
               for c in self.checks):
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
        """Compact encoding: without ``indent``, ``json`` keeps its C encoder.

        Keys follow the order in which the report built them, not sorted
        order: sorting would reorder every per-check dict, a large share of
        the encoding time of a long window.  The same report always builds
        them in the same order, so the text is deterministic.  A report is
        a tree of dicts and lists (one witness may sit in it twice, which is
        no cycle), so the encoder skips its check for circular references.

        The output is strict JSON: a non-finite float (an overflowed
        residual, say) is written as the string ``"Infinity"``,
        ``"-Infinity"`` or ``"NaN"``.  Only a report holding one is walked to
        replace them, so every other report is encoded in one pass.
        """
        data = self.to_jsonable()
        try:
            return json.dumps(data, separators=(",", ":"), allow_nan=False,
                              check_circular=False)
        except ValueError:
            return json.dumps(_finite(data), separators=(",", ":"), check_circular=False)


def _finite(obj):
    """``obj`` with each non-finite float replaced by its JSON token as a string."""
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "NaN" if math.isnan(obj) else ("Infinity" if obj > 0 else "-Infinity")
    return obj
