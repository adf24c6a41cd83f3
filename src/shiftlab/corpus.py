"""Bundled demonstration instances, shipped as spec documents.

Each example is a file ``examples/<name>.json`` whose task blocks assert
the facts its report is expected to show; ``run_example`` runs it through
the same task runner as ``shiftlab verify``.  Weights are stored as JSON
floats, which round-trip exactly, so surd entries like 1/sqrt(2) keep their
residuals at machine epsilon.
"""

from __future__ import annotations

from pathlib import Path

from .matrices import DEFAULT_TOL, Tolerance
from .reports import RunReport
from .specfile import SpecModel, load_spec_file, run_spec

_EXAMPLES = Path(__file__).with_name("examples")

EXAMPLE_NAMES = tuple(sorted(path.stem for path in _EXAMPLES.glob("*.json")))


def load_example(name: str) -> SpecModel:
    """The parsed spec document of a bundled example."""
    if name not in EXAMPLE_NAMES:
        raise KeyError(f"unknown example {name!r}; choose from {EXAMPLE_NAMES}")
    return load_spec_file(_EXAMPLES / f"{name}.json")


def run_example(name: str, tol: Tolerance = DEFAULT_TOL,
                seed: int = 0) -> RunReport:
    """Run the task blocks of a bundled example.

    The report equals that of ``shiftlab verify`` on the example's file,
    except for its name and title.
    """
    return run_spec(load_example(name), name, f"examples/{name}.json", tol, seed)
