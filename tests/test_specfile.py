"""Specification-document parsing, resolution, and round-tripping."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftlab as sl
from shiftlab import specfile
from shiftlab.specfile import (
    decode_matrix,
    decode_sequence,
    encode_matrix,
    encode_operator,
    encode_sequence,
    encode_shift,
)

from conftest import (
    EVERY_OP_TASKS,
    MALFORMED_SPECS,
    conjugated_shift,
    ei_shift,
    every_op_model,
    malformed_spec,
    random_matrix,
)

EXAMPLES_DIR = os.path.join(os.path.dirname(sl.corpus.__file__), "examples")

I2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


def minimal_doc():
    return {
        "dim": 1,
        "shifts": {"S": {"variant": "periodic", "weights": [[[[2.0, 0.0]]]]}},
    }


class TestMatrixEncoding:
    def test_round_trip(self):
        m = np.array([[1 + 2j, 0], [-0.5j, 3]], dtype=complex)
        decoded = decode_matrix(encode_matrix(m), "x")
        np.testing.assert_allclose(decoded, m)

    def test_bad_cell_rejected(self):
        with pytest.raises(sl.SpecFormatError) as err:
            decode_matrix([[[1.0]]], "weights[0]")
        assert "re, im" in str(err.value)

    def test_non_square_rejected(self):
        with pytest.raises(sl.SpecFormatError):
            decode_matrix([[[1.0, 0.0], [0.0, 0.0]]], "x")


def _per_cell_decode(data, path, dim):
    """The reference for ``decode_sequence`` on a periodic list: every
    matrix read by ``decode_matrix``, cell by cell."""
    return sl.PeriodicWeights([decode_matrix(w, f"{path}.weights[{i}]", dim)
                               for i, w in enumerate(data["weights"])])


def _decoded(decode, data, dim):
    """The stored weights, bit for bit, or the error's text and path."""
    try:
        seq = decode(data, "shifts.S", dim)
    except sl.SpecFormatError as exc:
        return str(exc), exc.path
    return [(n, w.shape, w.dtype, w.tobytes()) for n, w in seq.described_items()]


#: Scalars a JSON weight cell may hold, valid ones among them.
_CELL_SCALARS = [True, False, "1", None, math.nan, math.inf, -math.inf, 10 ** 400,
                 -10 ** 400, 2 ** 70, -0.0, 1e308, -1e308, 0]
#: Other things found where a [re, im] cell belongs.
_ODD_CELLS = [[], [1.0], [1.0, 0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], 1.0, "x", None, {}]
#: Other things found where a matrix or a row belongs.
_ODD_MATRICES = [3, "m", {}, [], [[]], None]


def _replace_scalar(raw, k, i, j, c, value):
    raw[k][i][j][c] = value


def _replace_cell(raw, k, i, j, c, value):
    raw[k][i][j] = value


def _ragged_row(raw, k, i, j, c, value):
    del raw[k][i][j]


def _extra_cell(raw, k, i, j, c, value):
    raw[k][i].append([1.0, 0.0])


def _wrong_dim(raw, k, i, j, c, value):
    raw[k] = encode_matrix(np.eye(len(raw[k]) + 1))


def _replace_matrix(raw, k, i, j, c, value):
    raw[k] = value


def _replace_row(raw, k, i, j, c, value):
    raw[k][i] = value


_FAULTS = ([(_replace_scalar, v) for v in _CELL_SCALARS]
           + [(_replace_cell, v) for v in _ODD_CELLS]
           + [(_ragged_row, None), (_extra_cell, None), (_wrong_dim, None)]
           + [(_replace_matrix, v) for v in _ODD_MATRICES]
           + [(_replace_row, v) for v in _ODD_MATRICES])


@st.composite
def _weight_documents(draw):
    """(JSON-decoded periodic sequence, dim): 1-5 matrices of dim 1-3 with
    finite numbers, and at most one fault at a random position."""
    dim = draw(st.integers(1, 3))
    count = draw(st.integers(1, 5))
    scalar = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.integers(-2 ** 80, 2 ** 80))
    raw = [[[[draw(scalar), draw(scalar)] for _ in range(dim)] for _ in range(dim)]
           for _ in range(count)]
    fault = draw(st.none() | st.sampled_from(_FAULTS))
    if fault is not None:
        apply, value = fault
        k, i, j = (draw(st.integers(0, n - 1)) for n in (count, dim, dim))
        apply(raw, k, i, j, draw(st.integers(0, 1)), value)
    return json.loads(json.dumps({"variant": "periodic", "weights": raw})), dim


class TestWeightListDecoding:
    @settings(max_examples=400, deadline=None)
    @given(_weight_documents())
    def test_matches_the_per_cell_reference(self, case):
        data, dim = case
        assert _decoded(decode_sequence, data, dim) == _decoded(_per_cell_decode, data, dim)

    def test_well_formed_list_is_converted_in_one_step(self, monkeypatch):
        raw = [encode_matrix(np.array([[1, -0.0j], [2 ** 70, 1e308]])) for _ in range(3)]
        monkeypatch.setattr(specfile, "decode_matrix", None)    # any call fails
        seq = decode_sequence({"variant": "windowed", "lo": -1, "weights": raw}, "x", 2)
        assert [n for n, _ in seq.described_items()] == [-1, 0, 1]
        assert np.signbit(seq.weight_at(0)[0, 1].imag)

    @pytest.mark.parametrize("variant", ["periodic", "eventually_identity", "windowed"])
    def test_well_formed_list_is_held_as_one_stack(self, rng, variant):
        mats = np.stack([random_matrix(rng, 3) for _ in range(4)])
        data = {"variant": variant, "lo": -2, "weights": encode_matrix(mats)}
        seq = decode_sequence(json.loads(json.dumps(data)), "x", 3)
        assert isinstance(seq._weights, np.ndarray) and seq._distinct is seq._weights
        assert seq._weights.tobytes() == mats.tobytes()

    def test_fallback_names_the_first_bad_cell(self):
        raw = [encode_matrix(np.eye(2)) for _ in range(3)]
        raw[1][1][0] = [0.0, True]
        raw[2][0][0] = [math.nan, 0.0]
        with pytest.raises(sl.SpecFormatError) as err:
            decode_sequence({"variant": "periodic", "weights": raw}, "shifts.S", 2)
        assert err.value.path == "shifts.S.weights[1][1][0]"

    def test_encoding_matches_the_per_cell_encoding(self, rng):
        mats = [random_matrix(rng, 3) for _ in range(4)]
        mats[1][0, 2] = complex(-0.0, -0.0)
        # a list of arrays, a stack of them, and a stack not contiguous in memory
        for weights in (mats, np.stack(mats), np.stack(mats).swapaxes(1, 2).conj()):
            for seq in (sl.PeriodicWeights(weights), sl.WindowedWeights(-2, weights),
                        sl.EventuallyIdentityWeights(5, weights)):
                per_cell = [[[[z.real, z.imag] for z in row] for row in w.tolist()]
                            for _, w in seq.described_items()]
                # json.dumps tells -0.0 from 0.0, which == does not
                assert json.dumps(encode_sequence(seq)["weights"]) == json.dumps(per_cell)

    def test_thousand_weight_window_round_trips(self, rng):
        mats = rng.standard_normal((1000, 2, 2)) + 1j * rng.standard_normal((1000, 2, 2))
        mats[7, 0, 1] = complex(-0.0, 0.0)
        model = sl.SpecModel(dim=2, shifts={
            "W": sl.BilateralShift(sl.WindowedWeights(-500, mats), "W")})
        text = sl.serialize_model(model)
        back = sl.parse_shift_spec(text)
        assert sl.serialize_model(back) == text
        items = back.shifts["W"].weights.described_items()
        assert [n for n, _ in items] == list(range(-500, 500))
        assert np.stack([w for _, w in items]).tobytes() == mats.tobytes()


class TestParse:
    def test_minimal_document(self):
        model = sl.parse_shift_spec(json.dumps(minimal_doc()))
        assert model.dim == 1
        assert set(model.shifts) == {"S"}
        np.testing.assert_allclose(model.shifts["S"].weight(5), [[2.0]])

    def test_syntax_error_carries_position(self):
        with pytest.raises(sl.SpecFormatError) as err:
            sl.parse_shift_spec("{\n  \"dim\": 2,\n  oops\n}")
        assert err.value.line == 3

    def test_unknown_variant(self):
        doc = minimal_doc()
        doc["shifts"]["S"]["variant"] = "mystery"
        with pytest.raises(sl.SpecFormatError) as err:
            sl.parse_shift_spec(json.dumps(doc))
        assert "variant" in str(err.value)

    def test_dimension_mismatch(self):
        doc = minimal_doc()
        doc["dim"] = 2
        with pytest.raises(sl.SpecFormatError) as err:
            sl.parse_shift_spec(json.dumps(doc))
        assert "dimension" in str(err.value)

    def test_undefined_task_reference(self):
        doc = minimal_doc()
        doc["tasks"] = [{"op": "norms", "shift": "missing", "window": [0, 1]}]
        with pytest.raises(sl.SpecFormatError) as err:
            sl.parse_shift_spec(json.dumps(doc))
        assert "missing" in str(err.value)

    def test_unknown_task_op(self):
        doc = minimal_doc()
        doc["tasks"] = [{"op": "summon"}]
        with pytest.raises(sl.SpecFormatError):
            sl.parse_shift_spec(json.dumps(doc))

    def test_zero_shift_weight_rejected(self):
        doc = {"dim": 1, "shifts": {"S": {
            "variant": "windowed", "lo": 0, "weights": [[[[0.0, 0.0]]]]}}}
        with pytest.raises(sl.SpecFormatError):
            sl.parse_shift_spec(json.dumps(doc))

    def test_operator_band_offsets(self):
        doc = {
            "dim": 2,
            "shifts": {},
            "operators": {"U": {"bands": {
                "-1": {"variant": "periodic", "weights": [I2]},
                "2": {"variant": "windowed", "lo": 0, "weights": [I2, I2]},
            }}},
        }
        model = sl.parse_shift_spec(json.dumps(doc))
        assert model.operators["U"].offsets == (-1, 2)


class TestMalformed:
    @pytest.mark.parametrize("name", sorted(MALFORMED_SPECS))
    def test_rejected_at_its_json_path(self, name):
        doc, path = malformed_spec(name)
        with pytest.raises(sl.SpecFormatError) as err:
            sl.parse_shift_spec(json.dumps(doc))
        assert err.value.path == path

    @pytest.mark.parametrize("key,pair", [("window", [-3, -3]), ("k_range", [-2, 2]),
                                          ("m_range", [0, 0])])
    def test_integer_ranges_accepted(self, key, pair):
        doc = minimal_doc()
        task = {"op": "decide", "s": "S", "t": "S", key: pair}
        if key != "m_range":
            task["m"] = 0       # a decide task names exactly one of m, m_range
        doc["tasks"] = [task]
        assert sl.parse_shift_spec(json.dumps(doc)).tasks[0][key] == pair

    def test_index_and_depth_limits_accepted(self):
        # parsing runs no task, so the limits themselves cost nothing here
        doc = minimal_doc()
        doc["tasks"] = [
            {"op": "decide", "s": "S", "t": "S", "m_range": [-10**5, -10**5 + 99],
             "window": [-10**5, 10**5], "depth": 10**4},
            {"op": "decide", "s": "S", "t": "S", "m": -10**5},
            {"op": "norm_offset_screen", "s": "S", "t": "S", "k_range": [-10**5, 10**5]}]
        assert len(sl.parse_shift_spec(json.dumps(doc)).tasks) == 3

    def test_stored_rows_at_the_index_limit_accepted(self):
        cell = [[[2.0, 0.0]]]
        doc = minimal_doc()
        doc["shifts"] = {"A": {"variant": "windowed", "lo": -10**5, "weights": [cell]},
                         "B": {"variant": "eventually_identity", "lo": 10**5 - 1,
                               "weights": [cell, cell]}}
        doc["operators"] = {"U": {"bands": {"1": {"variant": "windowed", "lo": 10**5,
                                                  "weights": [cell]}}}}
        model = sl.parse_shift_spec(json.dumps(doc))
        assert model.shifts["A"].weights.described_range() == (-10**5, -10**5)
        assert model.shifts["B"].weights.described_range() == (10**5 - 1, 10**5)
        assert model.operators["U"].band(1).described_range() == (10**5, 10**5)

    def test_work_budgets_accepted_at_their_edges(self):
        # 100 offsets times 10**5 rows, 200001 offsets times 49 rows, the
        # default window under the widest k_range, and a 100-offset scan
        doc = minimal_doc()
        doc["tasks"] = [
            {"op": "norm_offset_screen", "s": "S", "t": "S", "k_range": [0, 99],
             "window": [1, 10**5]},
            {"op": "norm_offset_screen", "s": "S", "t": "S", "k_range": [-10**5, 10**5],
             "window": [0, 48]},
            {"op": "norm_offset_screen", "s": "S", "t": "S", "k_range": [-10**5, 10**5]},
            {"op": "decide", "s": "S", "t": "S", "m_range": [10**5 - 99, 10**5]}]
        assert len(sl.parse_shift_spec(json.dumps(doc)).tasks) == 4

    @pytest.mark.parametrize("task", [
        {"op": "verify_unitary", "operator": "U", "mode": mode, "expect": expect}
        for mode in ("banded", "two_band", "three_band") for expect in ("pass", "fail")
    ] + [
        {"op": "conjugate_to_shift", "operator": "U", "s": "S", "expect": expect}
        for expect in ("shift", "not_shift")
    ] + [
        {"op": "decide", "s": "S", "t": "S", "m_range": [0, 1], "expect": status.value}
        for status in sl.VerdictStatus
    ] + [
        {"op": "norm_offset_screen", "s": "S", "t": "S", "expect_feasible": feasible}
        for feasible in ([], [-1, 2])
    ])
    def test_expectations_accepted(self, task):
        doc = minimal_doc()
        doc["operators"] = {"U": {"bands": {"0": doc["shifts"]["S"]}}}
        doc["tasks"] = [task]
        assert sl.parse_shift_spec(json.dumps(doc)).tasks == [task]


class TestRoundTrip:
    def test_serialize_parse_serialize_stable(self, rng):
        weights = [np.eye(2) + 0.1j * np.ones((2, 2)), 2 * np.eye(2)]
        model = sl.SpecModel(dim=2)
        model.shifts["P"] = sl.BilateralShift(sl.PeriodicWeights(weights), "P")
        model.shifts["E"] = sl.BilateralShift(
            sl.EventuallyIdentityWeights(-1, weights), "E")
        model.shifts["W"] = sl.BilateralShift(
            sl.WindowedWeights(2, weights), "W")
        model.operators["U"] = sl.BandedOperator(
            {0: sl.PeriodicWeights([np.eye(2)]),
             -2: sl.WindowedWeights(0, weights)}, "U")
        model.tasks.append({"op": "norms", "shift": "P", "window": [0, 3]})
        text = sl.serialize_model(model)
        reparsed = sl.parse_shift_spec(text)
        assert sl.serialize_model(reparsed) == text
        np.testing.assert_allclose(reparsed.shifts["E"].weight(0),
                                   weights[1])
        np.testing.assert_allclose(reparsed.operators["U"].band(-2).weight_at(1),
                                   weights[1])
        assert reparsed.tasks == model.tasks

    def test_corpus_pair_round_trips(self):
        ex = sl.load_example("ex31")
        s, t, u = ex.shifts["S"], ex.shifts["T"], ex.operators["U"]
        model = sl.SpecModel(dim=2, shifts={"S": s, "T": t},
                             operators={"U": u})
        model.tasks.append({"op": "verify_intertwining", "operator": "U",
                            "s": "S", "t": "T", "window": [-3, 3]})
        text = sl.serialize_model(model)
        back = sl.parse_shift_spec(text)
        rep = sl.verify_intertwining(back.operators["U"], back.shifts["S"],
                                     back.shifts["T"], -3, 3)
        assert rep.passed


def _stored_weights(model):
    """``{sequence name: [(index, weight), ...]}`` over shifts and bands."""
    seqs = {f"shift {name}": s.weights for name, s in model.shifts.items()}
    seqs.update({f"operator {name} band {k}": op.band(k)
                 for name, op in model.operators.items() for k in op.offsets})
    return {name: list(seq.described_items()) for name, seq in seqs.items()}


class TestBundledExamples:
    def test_names_are_the_bundled_files(self):
        files = {f[:-len(".json")] for f in os.listdir(EXAMPLES_DIR)
                 if f.endswith(".json")}
        assert set(sl.EXAMPLE_NAMES) == files == {
            "ex31", "ex33-two-band", "ex33-three-band", "counterexample-sec2",
            "five-entry-block"}

    @pytest.mark.parametrize("name", sl.EXAMPLE_NAMES)
    def test_file_is_canonical_and_round_trips_bit_identically(self, name):
        with open(os.path.join(EXAMPLES_DIR, f"{name}.json"), encoding="utf-8") as fh:
            text = fh.read()
        model = sl.load_example(name)
        assert model.tasks
        assert sl.serialize_model(model) + "\n" == text
        back = sl.parse_shift_spec(sl.serialize_model(model))
        before, after = _stored_weights(model), _stored_weights(back)
        assert before.keys() == after.keys()
        for key, items in before.items():
            assert [n for n, _ in items] == [n for n, _ in after[key]]
            for (_, w), (_, w_back) in zip(items, after[key]):
                assert w.tobytes() == w_back.tobytes(), key

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            sl.load_example("ex99")

    def test_conjugation_witness_is_the_stored_shift(self):
        report = sl.run_example("ex33-two-band")
        stored = sl.load_example("ex33-two-band").shifts["T'"]
        assert report.witnesses["conjugation_is_shift"] == encode_shift(stored)


class TestRunSpec:
    @pytest.mark.parametrize("key,value", [("m", 1), ("m_range", [-2, 2])])
    def test_decide_without_window_uses_the_library_policy(self, rng, key, value):
        s = ei_shift(rng, lo=0, length=2)
        t, _ = conjugated_shift(rng, s, m=1)
        model = sl.SpecModel(dim=2, shifts={"S": s, "T": t},
                             tasks=[{"op": "decide", "s": "S", "t": "T", key: value}])
        check, = sl.run_spec(model, "decide", "no window").checks
        if key == "m":
            verdict = sl.decide_diagonal_equivalence(s, t, value)
        else:
            verdict = sl.decide_diagonal_equivalence_scan(s, t, *value)
        assert verdict.is_equivalent and verdict.offset == 1
        assert check.observed == verdict.status.value
        assert check.details["summary"] == verdict.summary()
        assert check.details["witness"] == encode_operator(verdict.witness)

    def test_tasks_are_validated_before_any_runs(self, rng):
        s = ei_shift(rng, lo=0, length=2)
        model = sl.SpecModel(dim=2, shifts={"S": s},
                             tasks=[{"op": "norms", "shift": "S"},
                                    {"op": "norms", "shift": "S", "window": [3, 1]}])
        with pytest.raises(sl.SpecFormatError) as err:
            sl.run_spec(model, "norms", "reversed window")
        assert err.value.path == "tasks[1].window"

    def test_runners_call_the_module_functions_at_call_time(self, monkeypatch):
        # a tracer rebinds these names in shiftlab.specfile; every task op's
        # runner must reach the rebound function
        names = ("verify_intertwining", "verify_unitary_banded", "verify_unitary_two_band",
                 "verify_unitary_three_band", "check_two_band_structure",
                 "check_diagonal_propagation", "check_band_count_bound",
                 "conjugate_to_shift", "positive_form", "weight_norm_profile",
                 "norm_offset_screen", "eigen_moduli_screen",
                 "decide_diagonal_equivalence", "decide_diagonal_equivalence_scan")
        called = set()
        for name in names:
            fn = getattr(specfile, name)
            monkeypatch.setattr(specfile, name, lambda *a, _f=fn, _n=name, **k:
                                called.add(_n) or _f(*a, **k))
        model = every_op_model()
        report = sl.run_spec(model, "all ops", "every task op")
        assert len(report.checks) == len(EVERY_OP_TASKS)
        assert called == set(names)
