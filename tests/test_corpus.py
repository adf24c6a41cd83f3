"""Bundled demonstration instances run their whole pipelines as expected."""

import json

import pytest

import shiftlab as sl


@pytest.mark.parametrize("name", sl.EXAMPLE_NAMES)
def test_all_expectations_met(name):
    report = sl.run_example(name)
    broken = [c.name for c in report.checks if not c.expectation_met]
    assert not broken, f"unexpected outcomes in {name}: {broken}"


@pytest.mark.parametrize("name,code", [
    ("ex31", 0),
    ("ex33-two-band", 0),
    ("ex33-three-band", 0),
    ("counterexample-sec2", 0),
    ("five-entry-block", 1),
])
def test_exit_codes(name, code):
    assert sl.run_example(name).exit_code() == code


@pytest.mark.parametrize("name", sl.EXAMPLE_NAMES)
def test_reports_deterministic(name):
    a = sl.run_example(name, seed=7).to_json()
    b = sl.run_example(name, seed=7).to_json()
    assert a == b


def test_compact_json_parses_to_the_jsonable_report():
    report = sl.run_example("ex33-two-band")
    assert json.loads(report.to_json()) == report.to_jsonable()


def test_unknown_name_rejected():
    with pytest.raises(KeyError):
        sl.run_example("ex99")


def test_five_entry_block_names_an_index():
    report = sl.run_example("five-entry-block")
    prop = [c for c in report.checks if c.name == "diagonal_propagation"][0]
    assert prop.passed is False and prop.expectation_met
    failures = [c for c in prop.details["report"]["checks"] if not c["passed"]]
    assert failures and all(isinstance(c["index"], int) for c in failures)
