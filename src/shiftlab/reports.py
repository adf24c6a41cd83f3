"""Machine-readable run reports with a human-readable summary."""

from __future__ import annotations

import json
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
        """Compact encoding: without ``indent``, ``json`` keeps its C encoder."""
        return json.dumps(self.to_jsonable(), separators=(",", ":"), sort_keys=True)
