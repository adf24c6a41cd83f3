"""Command-line interface: subcommands, exit codes, reports."""

import gc
import json
import math
import os
import struct

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftlab as sl
from shiftlab import cli
from shiftlab.cli import cli_main

from conftest import (
    EVERY_OP_TASKS,
    MALFORMED_SPECS,
    conjugated_shift,
    ei_shift,
    every_op_model,
    float64_from_bits,
    malformed_spec,
)


def write_spec(tmp_path, model, name="model.json"):
    path = tmp_path / name
    path.write_text(sl.serialize_model(model), encoding="utf-8")
    return str(path)


@pytest.fixture
def pair_spec(tmp_path, rng):
    s = ei_shift(rng, lo=0, length=2)
    t, _ = conjugated_shift(rng, s)
    model = sl.SpecModel(dim=2, shifts={"S": s, "T": t})
    model.tasks.append({"op": "decide", "s": "S", "t": "T", "m": 0,
                        "window": [-4, 4], "expect": "equivalent"})
    return write_spec(tmp_path, model)


class TestExamples:
    def test_ex31_exits_clean(self, capsys):
        assert cli_main(["example", "ex31"]) == 0
        out = capsys.readouterr().out
        assert "not_equivalent" in out

    def test_five_entry_block_signals_obstruction(self, capsys):
        assert cli_main(["example", "five-entry-block"]) == 1

    def test_unknown_example_is_usage_error(self, capsys):
        assert cli_main(["example", "ex99"]) == 2

    def test_quiet_suppresses_output(self, capsys):
        cli_main(["example", "ex33-three-band", "--quiet"])
        assert capsys.readouterr().out == ""

    def test_json_report_written(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert cli_main(["example", "ex31", "--json", str(out), "--quiet"]) == 0
        data = json.loads(out.read_text())
        assert data["exit_code"] == 0
        assert any(c["name"] == "norm_offset_screen" for c in data["checks"])

    @pytest.mark.parametrize("name", sl.EXAMPLE_NAMES)
    def test_verify_on_the_example_file_gives_the_same_report(self, tmp_path, name):
        path = os.path.join(os.path.dirname(sl.corpus.__file__), "examples",
                            f"{name}.json")
        runs = []
        for argv in (["verify", path], ["example", name]):
            out = tmp_path / "report.json"
            code = cli_main([*argv, "--json", str(out), "--quiet"])
            data = json.loads(out.read_text())
            del data["name"], data["title"]
            runs.append((code, data))
        assert runs[0] == runs[1]

    def test_reports_deterministic_across_runs(self, tmp_path):
        outs = []
        for k in range(2):
            path = tmp_path / f"r{k}.json"
            cli_main(["example", "counterexample-sec2", "--seed", "5",
                      "--json", str(path), "--quiet"])
            outs.append(path.read_text())
        assert outs[0] == outs[1]


class TestVerify:
    def test_task_blocks_run(self, pair_spec, capsys):
        assert cli_main(["verify", pair_spec]) == 0

    def test_malformed_document(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"dim\": 2,", encoding="utf-8")
        assert cli_main(["verify", str(bad)]) == 2
        assert "line" in capsys.readouterr().err

    # written as text: json.dumps cannot write an integer of 5000 digits
    HOSTILE_TEXTS = {
        "integer-of-5000-digits": ('{"dim": 1, "shifts": {"S": {"variant": "windowed", "lo": '
                                   + "1" * 5000 + ', "weights": [[[[2, 0]]]]}}}').encode(),
        "not-utf-8": b'{"dim": 1, "label": "\xff\xfe"}',
        "nested-10^5-deep": b'{"dim": 1, "x": ' + b"[" * 10**5 + b"]" * 10**5 + b"}",
        # an unterminated string of escaped quotes, where a scan that retried
        # at each quote would take time quadratic in its length
        "unterminated-string-of-10^5-escaped-quotes": b'{"dim": 1, "s": "' + b'\\"' * 10**5,
        # counted as brackets, the string would cancel the nesting after it;
        # orjson, which recurses on the native stack, would crash on it
        "nested-3*10^5-deep-after-a-string-of-closing-brackets":
            b'{"dim": 1, "s": "' + b"]" * (3 * 10**5) + b'", "x": '
            + b"[" * (3 * 10**5) + b"]" * (3 * 10**5) + b"}",
    }

    @pytest.mark.parametrize("name", sorted(HOSTILE_TEXTS))
    def test_hostile_document_exits_two(self, tmp_path, capsys, name):
        spec = tmp_path / "hostile.json"
        spec.write_bytes(self.HOSTILE_TEXTS[name])
        assert cli_main(["verify", str(spec)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    # spec texts that orjson reads otherwise than json, or refuses, and the
    # outcome json gives them: (text, exit code, the path an error names)
    _WEIGHT = ('{"dim": 1, "shifts": {"S": {"variant": "periodic", "weights": [[[[%s, 0]]]]}}, '
               '"operators": {"U": {"bands": {"0": {"variant": "periodic", '
               '"weights": [[[[1, 0]]]]}}}}, "tasks": [%s]}')
    TEXTS = {
        "bound-10^25": (_WEIGHT % ("2", '{"op": "band_count_bound", "operator": "U", '
                                        '"bound": 1' + "0" * 25 + "}"), 0, None),
        "expect-feasible-10^25": (_WEIGHT % ("2", '{"op": "norm_offset_screen", "s": "S", '
                                                  '"t": "S", "k_range": [0, 1], '
                                                  '"expect_feasible": [0, 1, 1' + "0" * 25
                                                  + "]}"), 1, None),
        "label-lone-surrogate": (_WEIGHT % ("2", '{"op": "norms", "shift": "S", '
                                                 '"label": "\\ud800"}'), 0, None),
        "weight-1e400": (_WEIGHT % ("1e400", ""), 2, "shifts.S.weights[0][0][0]"),
        "weight-Infinity": (_WEIGHT % ("Infinity", ""), 2, "shifts.S.weights[0][0][0]"),
        "weight-NaN": (_WEIGHT % ("NaN", ""), 2, "shifts.S.weights[0][0][0]"),
    }

    @pytest.mark.parametrize("name", sorted(TEXTS))
    def test_text_outcome(self, tmp_path, capsys, name):
        text, code, path = self.TEXTS[name]
        spec = tmp_path / "spec.json"
        spec.write_text(text, encoding="utf-8")
        assert cli_main(["verify", str(spec), "--quiet"]) == code
        if path is not None:
            assert f"(at {path})" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert cli_main(["verify", "/nonexistent/spec.json"]) == 2

    def test_directory_as_spec_or_report_exits_two(self, tmp_path, capsys):
        assert cli_main(["verify", str(tmp_path)]) == 2
        assert cli_main(["example", "ex31", "--json", str(tmp_path), "--quiet"]) == 2
        assert capsys.readouterr().err.count("error: ") == 2

    @pytest.mark.parametrize("name", sorted(MALFORMED_SPECS))
    def test_malformed_spec_exits_two_naming_path(self, tmp_path, capsys, name):
        doc, path = malformed_spec(name)
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(doc), encoding="utf-8")
        assert cli_main(["verify", str(spec)]) == 2
        assert f"(at {path})" in capsys.readouterr().err

    def test_failed_expectation_exits_one(self, tmp_path, rng, capsys):
        ex = sl.load_example("counterexample-sec2")
        s, t = ex.shifts["S"], ex.shifts["T"]
        model = sl.SpecModel(dim=2, shifts={"S": s, "T": t})
        model.tasks.append({"op": "decide", "s": "S", "t": "T", "m": 0,
                            "window": [-3, 4], "expect": "equivalent"})
        assert cli_main(["verify", write_spec(tmp_path, model)]) == 1

    def test_overflowed_intertwining_residual_exits_one(self, tmp_path, capsys):
        model = sl.SpecModel(dim=1, operators={"U": sl.identity_operator(1)})
        for name, scale in (("S", 1e200), ("T", -1e200)):
            model.shifts[name] = sl.BilateralShift(
                sl.PeriodicWeights([scale * np.eye(1)]), name)
        model.tasks.append({"op": "verify_intertwining", "operator": "U",
                            "s": "S", "t": "T", "window": [0, 3]})
        assert cli_main(["verify", write_spec(tmp_path, model)]) == 1
        model.tasks[0]["t"] = "S"
        assert cli_main(["verify", write_spec(tmp_path, model)]) == 0

    @pytest.mark.parametrize("scale,residual", [(1e200, 2e200), (1e308, "Infinity")])
    def test_overflowed_report_is_strict_json(self, tmp_path, capsys, scale, residual):
        model = sl.SpecModel(dim=1, operators={"U": sl.identity_operator(1)})
        for name, weight in (("S", scale), ("T", -scale)):
            model.shifts[name] = sl.BilateralShift(
                sl.PeriodicWeights([weight * np.eye(1)]), name)
        model.tasks.append({"op": "verify_intertwining", "operator": "U",
                            "s": "S", "t": "T", "window": [0, 3]})
        out = tmp_path / "report.json"
        assert cli_main(["verify", write_spec(tmp_path, model), "--json", str(out)]) == 1

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        report = json.loads(out.read_text(), parse_constant=reject)
        assert report["checks"][0]["details"]["report"]["max_residual"] == residual


class TestDecideCommand:
    def test_self_equivalence_exit_zero(self, tmp_path, rng, capsys):
        s = ei_shift(rng, lo=0, length=2)
        model = sl.SpecModel(dim=2, shifts={"X": s})
        spec = write_spec(tmp_path, model)
        assert cli_main(["decide", spec, "--s", "X", "--t", "X", "--m", "0"]) == 0

    def test_not_equivalent_exit_one(self, tmp_path, capsys):
        ex = sl.load_example("counterexample-sec2")
        s, t = ex.shifts["S"], ex.shifts["T"]
        model = sl.SpecModel(dim=2, shifts={"S": s, "T": t})
        spec = write_spec(tmp_path, model)
        assert cli_main(["decide", spec, "--s", "S", "--t", "T", "--m", "0"]) == 1

    def test_inconclusive_exit_three(self, tmp_path, capsys):
        twist = 2.0 * np.exp(0.7j)
        model = sl.SpecModel(dim=1)
        model.shifts["A"] = sl.BilateralShift(
            sl.PeriodicWeights([np.array([[2.0 + 0j]])]), "A")
        model.shifts["B"] = sl.BilateralShift(
            sl.PeriodicWeights([np.array([[twist]])]), "B")
        spec = write_spec(tmp_path, model)
        assert cli_main(["decide", spec, "--s", "A", "--t", "B", "--m", "0"]) == 3

    @pytest.mark.parametrize("scale", [1e30, 1e160])
    def test_overflowing_grams_exit_three(self, tmp_path, scale, capsys):
        s = sl.BilateralShift(sl.PeriodicWeights([scale * np.eye(2)]))
        spec = write_spec(tmp_path, sl.SpecModel(dim=2, shifts={"S": s}))
        assert cli_main(["decide", spec, "--s", "S", "--t", "S", "--m", "0"]) == 3
        assert "overflow the float range" in capsys.readouterr().out

    @pytest.mark.parametrize("offset", [["--m", "0"], ["--m-range", "-1", "1"]])
    def test_window_without_row_zero_exits_three(self, tmp_path, rng, offset):
        # inconclusive, not an obstruction: the decision is anchored at row 0
        s = sl.BilateralShift(sl.WindowedWeights(
            3, [np.eye(2) + 0.1 * rng.standard_normal((2, 2)) for _ in range(10)]), "S")
        spec = write_spec(tmp_path, sl.SpecModel(dim=2, shifts={"S": s}))
        out = tmp_path / "report.json"
        assert cli_main(["decide", spec, "--s", "S", "--t", "S", *offset,
                         "--json", str(out), "--quiet"]) == 3
        assert "index 0 outside stored window [3, 12]" in out.read_text()

    def test_human_report_gives_the_verdict_reason(self, tmp_path, rng, capsys):
        s = sl.BilateralShift(sl.WindowedWeights(
            3, [np.eye(2) + 0.1 * rng.standard_normal((2, 2)) for _ in range(10)]), "S")
        spec = write_spec(tmp_path, sl.SpecModel(dim=2, shifts={"S": s}))
        assert cli_main(["decide", spec, "--s", "S", "--t", "S", "--m", "0"]) == 3
        line = next(x for x in capsys.readouterr().out.splitlines() if "[ok ]" in x)
        assert ": inconclusive (inconclusive: " in line
        assert "index 0 outside stored window [3, 12]" in line

    @pytest.mark.parametrize("lo", [10**30, 10**5 + 1, -10**5 - 1])
    def test_shift_stored_past_the_index_limit_exits_two(self, tmp_path, capsys, lo):
        # its automatic window and depth would grow with lo
        spec = tmp_path / "far.json"
        spec.write_text(json.dumps({"dim": 1, "shifts": {"S": {
            "variant": "windowed", "lo": lo, "weights": [[[[2.0, 0.0]]]]}}}))
        assert cli_main(["decide", str(spec), "--s", "S", "--t", "S", "--m", "0"]) == 2
        assert "(at shifts.S.lo)" in capsys.readouterr().err

    def test_m_range_scan(self, tmp_path, rng, capsys):
        s = ei_shift(rng, lo=0, length=2)
        t, _ = conjugated_shift(rng, s, m=1)
        model = sl.SpecModel(dim=2, shifts={"S": s, "T": t})
        spec = write_spec(tmp_path, model)
        assert cli_main(["decide", spec, "--s", "S", "--t", "T",
                         "--m-range", "-3", "3"]) == 0

    def test_undefined_name(self, tmp_path, rng, capsys):
        model = sl.SpecModel(dim=2, shifts={"S": ei_shift(rng)})
        spec = write_spec(tmp_path, model)
        assert cli_main(["decide", spec, "--s", "S", "--t", "Zed",
                         "--m", "0"]) == 2


class TestExitCodeAgreement:
    """The process exit code, the report's ``exit_code`` and the last human
    line agree, for every verdict of the ``decide`` command and task."""

    @staticmethod
    def scalar_spec(tmp_path, tasks=(), **weights):
        shifts = {name: sl.BilateralShift(sl.PeriodicWeights([np.array([[w]])]), name)
                  for name, w in weights.items()}
        return write_spec(tmp_path, sl.SpecModel(dim=1, shifts=shifts, tasks=list(tasks)))

    @staticmethod
    def run(tmp_path, capsys, argv):
        out = tmp_path / "report.json"
        code = cli_main([*argv, "--json", str(out)])
        last = capsys.readouterr().out.splitlines()[-1]
        return code, json.loads(out.read_text(encoding="utf-8"))["exit_code"], last

    def test_refuted_decide_exits_one(self, tmp_path, capsys):
        spec = self.scalar_spec(tmp_path, S=2.0 + 0j, T=3.0 + 0j)
        code, field, last = self.run(tmp_path, capsys,
                                     ["decide", spec, "--s", "S", "--t", "T", "--m", "0"])
        assert (code, field, last) == (1, 1, "  exit code 1")

    def test_refuted_decide_scan_exits_one(self, tmp_path, capsys):
        spec = self.scalar_spec(tmp_path, S=2.0 + 0j, T=3.0 + 0j)
        code, field, last = self.run(tmp_path, capsys, ["decide", spec, "--s", "S", "--t", "T",
                                                        "--m-range", "-1", "1"])
        assert (code, field, last) == (1, 1, "  exit code 1")

    @pytest.mark.parametrize("task", [{"expect": "not_equivalent"}, {}])
    def test_verify_task_with_the_refutation_exits_zero(self, tmp_path, capsys, task):
        spec = self.scalar_spec(tmp_path, [{"op": "decide", "s": "S", "t": "T", "m": 0, **task}],
                                S=2.0 + 0j, T=3.0 + 0j)
        assert self.run(tmp_path, capsys, ["verify", spec]) == (0, 0, "  exit code 0")

    def test_verify_task_expecting_equivalence_exits_one(self, tmp_path, capsys):
        spec = self.scalar_spec(tmp_path, [{"op": "decide", "s": "S", "t": "T", "m": 0,
                                            "expect": "equivalent"}], S=2.0 + 0j, T=3.0 + 0j)
        assert self.run(tmp_path, capsys, ["verify", spec]) == (1, 1, "  exit code 1")

    def test_inconclusive_decide_exits_three(self, tmp_path, capsys):
        spec = self.scalar_spec(tmp_path, A=2.0 + 0j, B=2.0 * np.exp(0.7j))
        code, field, last = self.run(tmp_path, capsys,
                                     ["decide", spec, "--s", "A", "--t", "B", "--m", "0"])
        assert (code, field, last) == (3, 3, "  exit code 3")

    def test_equivalent_decide_exits_zero(self, tmp_path, capsys):
        spec = self.scalar_spec(tmp_path, S=2.0 + 0j)
        code, field, last = self.run(tmp_path, capsys,
                                     ["decide", spec, "--s", "S", "--t", "S", "--m", "0"])
        assert (code, field, last) == (0, 0, "  exit code 0")


class TestBadNumericArguments:
    @pytest.fixture
    def spec(self, tmp_path, rng):
        u = sl.load_example("ex31").operators["U"]
        s = ei_shift(rng, lo=0, length=2)
        model = sl.SpecModel(dim=2, shifts={"S": s}, operators={"U": u})
        return write_spec(tmp_path, model)

    @pytest.mark.parametrize("argv", [
        ["decide", "--s", "S", "--t", "S", "--m-range", "2", "-2"],
        ["decide", "--s", "S", "--t", "S", "--m", "0", "--window", "3", "1"],
        ["norms", "--shift", "S", "--window", "3", "1"],
        ["positive-form", "--shift", "S", "--window", "3", "1"],
        ["bands", "--op", "U", "--mode", "two", "--window", "3", "1"],
    ])
    def test_usage_error(self, spec, capsys, argv):
        assert cli_main([argv[0], spec, *argv[1:]]) == 2
        assert "LO <= HI" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,path", [
        (["decide", "--s", "S", "--t", "S", "--m-range", "2", "-2"], "tasks[0].m_range"),
        (["decide", "--s", "S", "--t", "S", "--m", "0", "--depth", "0"], "tasks[0].depth"),
        (["decide", "--s", "S", "--t", "X", "--m", "0"], "tasks[0].t"),
        (["norms", "--shift", "X", "--window", "0", "1"], "tasks[0].shift"),
        (["bands", "--op", "X", "--mode", "three"], "tasks[0].operator"),
        (["bands", "--op", "U", "--mode", "count", "--window", "3", "1"], "tasks[0].window"),
        (["bands", "--op", "U", "--mode", "two", "--window", "0", str(10**30)],
         "tasks[0].window"),
        (["decide", "--s", "S", "--t", "S", "--m", str(-10**30)], "tasks[0].m"),
        (["decide", "--s", "S", "--t", "S", "--m", "0", "--depth", "10001"], "tasks[0].depth"),
    ])
    def test_bad_flag_names_its_task_path(self, spec, capsys, argv, path):
        assert cli_main([argv[0], spec, *argv[1:]]) == 2
        assert capsys.readouterr().err.rstrip().endswith(f"(at {path})")

    def test_zero_depth_is_usage_error(self, spec, capsys):
        assert cli_main(["decide", spec, "--s", "S", "--t", "S", "--m", "0",
                         "--depth", "0"]) == 2

    @pytest.mark.parametrize("flag,value", [("--tol-rel", "-1"), ("--tol-rel", "nan"),
                                            ("--tol-abs", "inf")])
    def test_bad_tolerance_is_usage_error(self, flag, value, capsys):
        assert cli_main(["example", "ex31", flag, value]) == 2
        assert f"{flag} must be finite and nonnegative" in capsys.readouterr().err

    def test_single_offset_range_still_decides(self, spec, capsys):
        assert cli_main(["decide", spec, "--s", "S", "--t", "S",
                         "--m-range", "0", "0"]) == 0

    def test_m_range_budget(self, spec, capsys):
        assert cli_main(["decide", spec, "--s", "S", "--t", "S",
                         "--m-range", "0", "100"]) == 2
        assert capsys.readouterr().err.rstrip().endswith("(at tasks[0].m_range)")
        assert cli_main(["decide", spec, "--s", "S", "--t", "S",
                         "--m-range", "-99", "0"]) == 0


class TestOtherCommands:
    def test_norms(self, tmp_path, rng, capsys):
        model = sl.SpecModel(dim=2, shifts={"S": ei_shift(rng)})
        spec = write_spec(tmp_path, model)
        assert cli_main(["norms", spec, "--shift", "S",
                         "--window", "-3", "3"]) == 0

    def test_positive_form(self, tmp_path, rng, capsys):
        model = sl.SpecModel(dim=2, shifts={"S": ei_shift(rng)})
        spec = write_spec(tmp_path, model)
        out = tmp_path / "pf.json"
        assert cli_main(["positive-form", spec, "--shift", "S",
                         "--window", "-3", "5", "--json", str(out)]) == 0
        data = json.loads(out.read_text())
        assert "positive-form S" in data["witnesses"]

    def test_bands_two_mode(self, tmp_path, capsys):
        u = sl.load_example("ex31").operators["U"]
        model = sl.SpecModel(dim=2, operators={"U": u})
        spec = write_spec(tmp_path, model)
        assert cli_main(["bands", spec, "--op", "U", "--mode", "two",
                         "--window", "-5", "5"]) == 0
        assert cli_main(["bands", spec, "--op", "U", "--mode", "count",
                         "--window", "-5", "5"]) == 0

    def test_bands_count_explicit_zero_bound(self, tmp_path, capsys):
        u = sl.load_example("ex31").operators["U"]
        spec = write_spec(tmp_path, sl.SpecModel(dim=2, operators={"U": u}))
        out = tmp_path / "count.json"
        assert cli_main(["bands", spec, "--op", "U", "--mode", "count",
                         "--bound", "0", "--json", str(out), "--quiet"]) == 1
        report = json.loads(out.read_text())["checks"][0]["details"]["report"]
        assert report["context"]["bound"] == 0

    def test_overflowing_positive_form_exits_one(self, tmp_path, capsys):
        s = sl.BilateralShift(sl.PeriodicWeights([np.array([[1e308 + 1e308j]])]))
        spec = write_spec(tmp_path, sl.SpecModel(dim=1, shifts={"S": s}))
        assert cli_main(["positive-form", spec, "--shift", "S", "--window", "-3", "3"]) == 1
        assert "at n=-3 overflows the float range" in capsys.readouterr().err

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        u = sl.load_example("ex31").operators["U"]
        spec = write_spec(tmp_path, sl.SpecModel(dim=2, operators={"U": u}))
        windows = []
        for extra in (["--window", "-5", "5"], []):
            out = tmp_path / "two.json"
            assert cli_main(["bands", spec, "--op", "U", "--mode", "two", *extra,
                             "--json", str(out), "--quiet"]) == 0
            checks = json.loads(out.read_text())["checks"]
            windows.append([c["details"]["report"]["window"] for c in checks])
        # without --window each task runs on the task default [-8, 8]
        assert windows == [[[-5, 5]] * 2, [[-8, 8]] * 2]
        assert cli._build_parser() is cli._build_parser()

    def test_usage_error_without_subcommand(self, capsys):
        assert cli_main([]) == 2


def _reject(token):
    raise ValueError(f"non-standard JSON token {token}")


class TestReportText:
    """The text ``--json`` writes is the report's compact strict JSON, with
    keys in the order the report built them, byte-identical across runs."""

    @pytest.fixture
    def spec(self, tmp_path):
        return write_spec(tmp_path, every_op_model(), "every-op.json")

    ARGV = {
        "verify": ["verify"],
        "positive-form": ["positive-form", "--shift", "S", "--window", "-3", "3"],
        "decide-m": ["decide", "--s", "S", "--t", "T", "--m", "0"],
        "decide-m-range": ["decide", "--s", "S", "--t", "T", "--m-range", "-1", "1"],
        **{f"example-{name}": ["example", name] for name in sl.EXAMPLE_NAMES},
    }

    @pytest.mark.parametrize("command", ARGV)
    def test_written_text_is_the_report(self, tmp_path, spec, monkeypatch, command):
        argv = list(self.ARGV[command])
        if argv[0] != "example":
            argv.insert(1, spec)
        runner = "run_example" if argv[0] == "example" else "run_spec"
        reports = []

        def recorded(*args, _run=getattr(cli, runner), **kwargs):
            reports.append(_run(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, runner, recorded)
        texts = []
        for k in range(2):
            out = tmp_path / f"report-{k}.json"
            cli_main([*argv, "--json", str(out), "--quiet"])
            texts.append(out.read_text(encoding="utf-8"))
        assert texts[0] == texts[1]
        report = reports[0]
        if argv[0] == "verify":
            assert len(report.checks) == len(EVERY_OP_TASKS)
        assert texts[0] == report.to_json() + "\n"
        data = json.loads(texts[0], parse_constant=_reject)
        assert data == report.to_jsonable()
        assert texts[0] == orjson.dumps(data).decode() + "\n"
        assert list(data) == ["name", "title", "seed", "tolerance", "exit_code", "checks",
                              "witnesses"]


def _bitwise(obj):
    """``obj`` with each float replaced by its bytes, so == compares floats
    bitwise and a non-finite one equals itself."""
    if isinstance(obj, dict):
        return {key: _bitwise(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_bitwise(value) for value in obj]
    return struct.pack("<d", obj) if isinstance(obj, float) else obj


def _spelled(obj):
    """``obj`` with each non-finite float replaced by the string a report
    writes for it."""
    if isinstance(obj, dict):
        return {key: _spelled(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_spelled(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "NaN" if math.isnan(obj) else ("Infinity" if obj > 0 else "-Infinity")
    return obj


class TestReportEncoding:
    """A report's text reads back as its jsonable tree, floats bitwise, with
    each non-finite float, at any depth, written as a string."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1).map(float64_from_bits), min_size=8, max_size=8),
           st.integers(0, 7), st.sampled_from([math.nan, math.inf, -math.inf, None]))
    def test_text_reads_back_as_the_tree(self, x, place, special):
        # a drawn bit pattern is non-finite one time in 2048, so most
        # examples put a NaN or an infinity at a drawn place
        if special is not None:
            x[place] = special
        rep = sl.WindowReport(0, 2)
        rep.checks._add(["c0", "c1"], [0, 1, 0], [0, 1, 2], x[:3], [True, False, True])
        report = sl.RunReport(name="r", title="t", seed=0, tolerance={"rel": 0.0, "abs": x[3]})
        report.add(sl.ReportCheck(name="window", kind="verification", passed=rep.passed,
                                  expected="pass", observed=rep.summary(),
                                  expectation_met=True,
                                  details={"report": rep.to_jsonable(), "value": x[4],
                                           "nested": [[x[5]], {"deeper": [None, x[6]]}]}))
        report.add(sl.ReportCheck(name="screen", kind="screen", passed=None, expected="any",
                                  observed="", expectation_met=True))
        report.witnesses["W"] = {"bands": {"0": {"variant": "windowed", "lo": 0,
                                                 "weights": [[[[x[7], x[0]]]]]}}}
        data = json.loads(report.to_json(), parse_constant=_reject)
        assert _bitwise(data) == _bitwise(_spelled(report.to_jsonable()))

    @pytest.mark.parametrize("seed", [10**23, 2**64])
    def test_seed_past_64_bits_is_kept(self, tmp_path, capsys, seed):
        out = tmp_path / "report.json"
        assert cli_main(["example", "ex31", "--seed", str(seed), "--json", str(out),
                         "--quiet"]) == 0
        assert json.loads(out.read_text(encoding="utf-8"), parse_constant=_reject)["seed"] == seed

    def test_lone_surrogate_label_is_written(self, tmp_path, capsys):
        model = sl.SpecModel(dim=1, shifts={"S": sl.BilateralShift(
            sl.PeriodicWeights([2 * np.eye(1)]), "S")})
        model.tasks.append({"op": "norms", "shift": "S", "label": "\ud800"})
        out = tmp_path / "report.json"
        assert cli_main(["verify", write_spec(tmp_path, model), "--json", str(out),
                         "--quiet"]) == 0
        report = json.loads(out.read_text(encoding="utf-8"), parse_constant=_reject)
        assert report["checks"][0]["name"] == "\ud800"


class TestOnePassWriter:
    """``to_json`` writes each value of the report, and each check, once with
    orjson, and its text is that of one ``orjson.dumps`` of the whole."""

    @staticmethod
    def every_op_report():
        """A ``verify`` report of every task op; its screen and its verdicts
        hold ``passed: None``."""
        report = sl.run_spec(every_op_model(), "verify", "every-op.json")
        kinds = {c.kind for c in report.checks if c.passed is None}
        assert kinds == {"screen", "verdict"}
        return report

    @pytest.mark.parametrize("name", [*sl.EXAMPLE_NAMES, "every-op"])
    def test_text_is_one_dump(self, name):
        report = self.every_op_report() if name == "every-op" else sl.run_example(name)
        assert report.to_json() == orjson.dumps(report.to_jsonable()).decode()

    def test_each_piece_is_dumped_once(self, monkeypatch):
        report = self.every_op_report()
        data = report.to_jsonable()
        assert b"null" in orjson.dumps(data)
        calls = []

        def dumps(obj, *args, _dumps=orjson.dumps, **kwargs):
            calls.append(obj)
            return _dumps(obj, *args, **kwargs)

        monkeypatch.setattr(orjson, "dumps", dumps)
        report.to_json()
        *head, witnesses = [value for value in data.values() if not isinstance(value, list)]
        assert list(data)[-2:] == ["checks", "witnesses"]
        assert calls == [*head, *data["checks"], witnesses]

    @pytest.mark.parametrize("residual, token", [(math.nan, "NaN"), (math.inf, "Infinity")])
    def test_non_finite_residual_is_written_by_json(self, monkeypatch, residual, token):
        report = self.every_op_report()
        report.checks[0].details["max_residual"] = residual
        calls = []

        def dumps(obj, *args, _dumps=json.dumps, **kwargs):
            calls.append(obj)
            return _dumps(obj, *args, **kwargs)

        monkeypatch.setattr(json, "dumps", dumps)
        text = report.to_json()
        assert len(calls) == 1
        assert f'"max_residual":"{token}"' in text
        assert json.loads(text, parse_constant=_reject)["checks"][1:] == \
            json.loads(orjson.dumps(report.to_jsonable()))["checks"][1:]


class TestCollectorPause:
    """``cli_main`` runs each command with the cyclic garbage collector
    paused, and leaves it as it found it, however the command ends."""

    @pytest.fixture(params=[True, False], ids=["from-enabled", "from-disabled"])
    def start(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @staticmethod
    def near_singular_spec(tmp_path):
        s = sl.BilateralShift(sl.PeriodicWeights([np.diag([1.0, 1e-12]).astype(complex)]))
        return write_spec(tmp_path, sl.SpecModel(dim=2, shifts={"S": s}))

    @staticmethod
    def dim_true_spec(tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(malformed_spec("dim-true")[0]), encoding="utf-8")
        return str(spec)

    # argv and the exit code of each way a command ends
    COMMANDS = {
        "exit-0": (lambda tmp_path: ["example", "ex31"], 0),
        "exit-1": (lambda tmp_path: ["example", "five-entry-block"], 1),
        "exit-3": (lambda tmp_path: ["decide", TestExitCodeAgreement.scalar_spec(
            tmp_path, A=2.0 + 0j, B=2.0 * np.exp(0.7j)), "--s", "A", "--t", "B", "--m", "0"], 3),
        "usage-error": (lambda tmp_path: ["decide"], 2),
        "spec-format-error": (lambda tmp_path: ["verify", TestCollectorPause.dim_true_spec(
            tmp_path)], 2),
        "shiftlab-error": (lambda tmp_path: ["decide", TestCollectorPause.near_singular_spec(
            tmp_path), "--s", "S", "--t", "S", "--m", "0"], 1),
    }

    @pytest.mark.parametrize("case", COMMANDS)
    def test_state_is_restored(self, tmp_path, monkeypatch, capsys, start, case):
        argv, code = self.COMMANDS[case]
        argv = argv(tmp_path)
        during = []

        def build(_build=cli._build_parser):
            during.append(gc.isenabled())
            return _build()

        monkeypatch.setattr(cli, "_build_parser", build)
        assert cli_main(argv) == code
        assert during == [False]
        assert gc.isenabled() is start

    def test_state_is_restored_when_an_exception_escapes(self, pair_spec, monkeypatch, start):
        def run_spec(*args, **kwargs):
            raise RuntimeError(f"collector enabled: {gc.isenabled()}")

        monkeypatch.setattr(cli, "run_spec", run_spec)
        with pytest.raises(RuntimeError, match="collector enabled: False"):
            cli_main(["verify", pair_spec, "--quiet"])
        assert gc.isenabled() is start


class TestSeedHandling:
    def test_env_seed_used(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SHIFTLAB_SEED", "123")
        out = tmp_path / "a.json"
        cli_main(["example", "ex31", "--json", str(out), "--quiet"])
        assert json.loads(out.read_text())["seed"] == 123

    def test_flag_beats_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SHIFTLAB_SEED", "123")
        out = tmp_path / "b.json"
        cli_main(["example", "ex31", "--seed", "9", "--json", str(out),
                  "--quiet"])
        assert json.loads(out.read_text())["seed"] == 9

    def test_non_integer_env_seed_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("SHIFTLAB_SEED", "abc")
        assert cli_main(["example", "ex31"]) == 2
        assert "SHIFTLAB_SEED must be a nonnegative integer" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, pair_spec, capsys):
        # a negative seed would reach the solver's random generator
        assert cli_main(["decide", pair_spec, "--s", "S", "--t", "T", "--m", "0",
                         "--seed", "-1"]) == 2
        assert "--seed must be a nonnegative integer" in capsys.readouterr().err


class TestWitnessReingestion:
    def test_decide_witness_reverifies_via_spec_file(self, tmp_path, rng,
                                                     capsys):
        s = ei_shift(rng, lo=0, length=2)
        t, _ = conjugated_shift(rng, s)
        model = sl.SpecModel(dim=2, shifts={"S": s, "T": t})
        model.tasks.append({"op": "decide", "s": "S", "t": "T", "m": 0,
                            "window": [-4, 4], "label": "decision"})
        spec = write_spec(tmp_path, model)
        out = tmp_path / "report.json"
        assert cli_main(["verify", spec, "--json", str(out), "--quiet"]) == 0
        witness = json.loads(out.read_text())["witnesses"]["decision"]

        doc = json.loads(sl.serialize_model(model))
        doc["operators"] = {"W": witness}
        doc["tasks"] = [{"op": "verify_intertwining", "operator": "W",
                         "s": "S", "t": "T", "window": [-3, 3]}]
        respec = tmp_path / "reingest.json"
        respec.write_text(json.dumps(doc), encoding="utf-8")
        assert cli_main(["verify", str(respec), "--tol-rel", "1e-8"]) == 0
