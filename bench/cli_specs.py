"""cli-specs: in-process ``cli_main`` runs over generated spec files.

Spec files at block dims 2 to 4 use all three sequence variants, with a
windowed shift of up to 10^3 weights.  The runs cover ``verify`` over task
blocks holding all eleven task ops, ``decide`` with ``--m`` and
``--m-range``, ``positive-form``, ``norms``, ``bands`` in its three modes
and ``example`` for the five bundled instances, all with ``--json`` and
``--quiet``.  The witness a ``decide`` run emits is pasted into a new spec
and verified again, so the spec format is written as well as read.  Two
malformed specs (a NaN weight, ``"dim": true``) must exit 2.

The cost is spec parsing, report encoding, the task runner and small
per-matrix LAPACK calls; the conjugator solver is a small share.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import decide_grid as dg
import gen
import shiftlab.cli
import verify_window as vw
from harness import Op, Outcome, Workload

DIMS = (2, 3, 4)
OFFSET = {2: 1, 3: -1, 4: 2}
R_LENGTH = {2: 250, 3: 500, 4: 1000}   # windowed shift for positive-form, norms
HALF_WINDOW = {2: 60, 3: 90, 4: 120}   # verification tasks run on [-W, W]
DEFECT_WINDOW = 200
DECIDE_WINDOW = [-6, 6]
# Exit code and the verdicts each bundled example documents.
EXAMPLES = {
    "ex31": (0, {"decide_scan[-5,5]": "not_equivalent"}),
    "ex33-two-band": (0, {}),
    "ex33-three-band": (0, {}),
    "counterexample-sec2": (0, {"decide[m=0]": "not_equivalent"}),
    "five-entry-block": (1, {}),
}
KNOWN_DEFECTS = {
    "nan-weight": "a NaN weight escapes cli_main as an uncaught ValueError",
    "dim-true": '"dim": true is accepted as dimension 1 and exits 0',
}


def seq(variant, weights, lo=None):
    out = {"variant": variant, "weights": [gen.encode_matrix(w) for w in weights]}
    if lo is not None:
        out["lo"] = lo
    return out


def decode_seq(data):
    """``{index: matrix}`` from a spec sequence with a ``lo``."""
    return {data["lo"] + i: gen.decode_matrix(w) for i, w in enumerate(data["weights"])}


def _normal_pair(rng):
    """Periodic 2x2 normal weights N1 and ``N2_n = V N1_n V*``."""
    n1 = []
    for _ in range(2):
        q = gen.unitary(rng, 2)
        lam = rng.uniform(0.5, 2.0, 2) * np.exp(2j * np.pi * rng.random(2))
        n1.append(q @ np.diag(lam) @ q.conj().T)
    v = gen.unitary(rng, 2)
    return n1, [v @ w @ v.conj().T for w in n1]


def _feasible_offsets(pair, k_lo, k_hi, lo, hi):
    """Offsets whose weight norms match on [lo, hi], by plain numpy."""
    def norm(w):
        return float(np.linalg.norm(w, 2))
    out = []
    for k in range(k_lo, k_hi + 1):
        gaps = [abs(norm(pair.s_at(n + k)) - norm(pair.t_at(n))) for n in range(lo, hi + 1)]
        if max(gaps) <= 1e-8:
            out.append(k)
    return out


class Spec:
    """One generated spec document at one dimension and its ground truth."""

    def __init__(self, rng, d):
        self.d = d
        m = self.m = OFFSET[d]
        self.ei = dg.make_pair(rng, "ei", d, "equivalent", m, 3)
        self.refuted = dg.make_pair(rng, "ei", d, "norm", m, 3)
        self.per = dg.make_pair(rng, "periodic", d, "equivalent", -m, 2)
        self.two, self.three = vw.two_band_system(rng, d), vw.three_band_system(rng, d)
        for system in (self.two, self.three):
            vw.confirm(system)
        self.r_lo = -(R_LENGTH[d] // 2)
        self.r_w = [gen.weight(rng, d) for _ in range(R_LENGTH[d])]
        self.shifts = {
            "S": seq("eventually_identity", self.ei.s_w, m),
            "T": seq("eventually_identity", self.ei.t_w, 0),
            "Sn": seq("eventually_identity", self.refuted.s_w, m),
            "Tn": seq("eventually_identity", self.refuted.t_w, 0),
            "SP": seq("periodic", self.per.s_w),
            "TP": seq("periodic", self.per.t_w),
            "SU": seq("periodic", self.two.s),
            "TU": seq("periodic", self.two.t),
            "R": seq("windowed", self.r_w, self.r_lo),
        }
        operators = {
            "U2": {"bands": {str(k): seq("periodic", v) for k, v in self.two.bands.items()}},
            "U3": {"bands": {str(k): seq("periodic", v) for k, v in self.three.bands.items()}},
        }
        w = HALF_WINDOW[d]
        win = [-w, w]
        tasks = [
            {"op": "verify_intertwining", "operator": "U2", "s": "SU", "t": "TU"},
            {"op": "verify_unitary", "operator": "U2", "mode": "two_band"},
            {"op": "verify_unitary", "operator": "U3", "mode": "three_band"},
            {"op": "verify_unitary", "operator": "U2", "mode": "banded"},
            {"op": "two_band_structure", "operator": "U2"},
            {"op": "diagonal_propagation", "operator": "U2", "s": "SU", "t": "TU"},
            {"op": "band_count_bound", "operator": "U2", "bound": d},
            {"op": "conjugate_to_shift", "operator": "U2", "s": "SU", "expect": "shift"},
        ]
        for i, task in enumerate(tasks):
            task.update(window=win, label=f"{i}:{task['op']}")
        r_win = [self.r_lo, self.r_lo + R_LENGTH[d] - 1]
        self.feasible = _feasible_offsets(self.ei, m - 2, m + 2, *DECIDE_WINDOW)
        tasks += [
            {"op": "positive_form", "shift": "R", "window": r_win, "label": "positive_form"},
            {"op": "norms", "shift": "R", "window": r_win, "label": "norms"},
            {"op": "norm_offset_screen", "s": "S", "t": "T", "k_range": [m - 2, m + 2],
             "window": DECIDE_WINDOW, "expect_feasible": self.feasible,
             "label": "norm_offset_screen"},
            {"op": "decide", "s": "S", "t": "T", "m": m, "window": DECIDE_WINDOW,
             "expect": "equivalent", "label": "decide"},
        ]
        self.expect_fail = set()
        if d == 2:
            n1, n2 = _normal_pair(rng)
            self.shifts.update(N1=seq("periodic", n1), N2=seq("periodic", n2))
            tasks.append({"op": "eigen_moduli_screen", "s": "N1", "t": "N2", "k": 0,
                          "window": win, "label": "eigen_moduli_screen"})
        if d == 3:
            row = int(rng.integers(DEFECT_WINDOW // 4, 3 * DEFECT_WINDOW // 4))
            lo = -vw.MARGIN
            bands = {}
            for k, v in self.two.bands.items():
                mats = [vw.at(v, n) for n in range(lo, DEFECT_WINDOW + vw.MARGIN)]
                if k == -1:
                    mats[row - lo] = mats[row - lo] + vw.DEFECT_SIZE * gen.weight(rng, d)
                bands[str(k)] = seq("windowed", mats, lo)
            operators["UD"] = {"bands": bands}
            tasks.append({"op": "verify_unitary", "operator": "UD", "mode": "two_band",
                          "window": [0, DEFECT_WINDOW - 1], "expect": "fail",
                          "label": "planted_defect"})
            self.expect_fail.add("planted_defect")
        self.doc = {"dim": d, "shifts": self.shifts, "operators": operators,
                    "tasks": tasks}

    # ground truth of the report contents -------------------------------

    def r_at(self, n):
        return self.r_w[n - self.r_lo]

    def task_problems(self, report, out):
        by_name = {c["name"]: c for c in report["checks"]}
        problems = []
        for c in report["checks"]:
            should_pass = c["name"] not in self.expect_fail
            if c["kind"] == "verification" and c["passed"] != should_pass:
                problems.append(f"{c['name']}: passed={c['passed']}")
        problems += self.conjugated_problems(report["witnesses"]["7:conjugate_to_shift"])
        problems += self.positive_form_problems(report["witnesses"]["positive_form"])
        problems += self.norms_problems(by_name["norms"]["details"]["norms"])
        if by_name["norm_offset_screen"]["details"]["feasible"] != self.feasible:
            problems.append("norm_offset_screen differs from numpy")
        problems += self.verdict_problems(by_name["decide"], "equivalent", self.ei, out)
        return problems

    def conjugated_problems(self, encoded):
        rows = decode_seq(encoded)
        got = np.stack(list(rows.values()))
        want = np.stack([vw.at(self.two.t, n) for n in rows])
        resid = gen.max_frob(got - want)
        return [] if resid <= 1e-8 * max(gen.max_frob(want), 1.0) else [
            f"conjugated shift differs from TU ({resid:.2e})"]

    def positive_form_problems(self, witness):
        rows = decode_seq(witness["shift"])
        p = np.stack(list(rows.values()))
        problems = []
        if gen.max_frob(p - gen.herm(p)) > 1e-8 * gen.max_frob(p):
            problems.append("positive form weights are not Hermitian")
        if np.linalg.eigvalsh(0.5 * (p + gen.herm(p))).min() <= 0:
            problems.append("positive form weights are not positive definite")
        problems += self.norms_problems([np.linalg.norm(w, 2) for w in p],
                                        lo=min(rows))
        return problems

    def norms_problems(self, norms, lo=None):
        lo = self.r_lo if lo is None else lo
        want = [np.linalg.norm(self.r_at(n), 2) for n in range(lo, lo + len(norms))]
        gap = float(np.max(np.abs(np.asarray(norms) - want)))
        return [] if gap <= 1e-8 * max(want) else [f"weight norms differ by {gap:.2e}"]

    @staticmethod
    def verdict_problems(check, expected, pair, out):
        """Compare a verdict with the truth; recheck a witness with numpy."""
        observed = check["observed"]
        problems = []
        if observed != expected:
            problems.append(f"{check['name']}: {observed}, truth {expected}")
            out.wrong_verdict |= observed != "inconclusive"
        witness = check["details"].get("witness")
        if witness is not None:
            (key, band), = witness["bands"].items()
            bad = gen.single_band_problems(decode_seq(band), int(key), pair.s_at, pair.t_at)
            out.wrong_verdict |= bool(bad)
            problems += bad
        return problems


def _condition_checks(report):
    return sum(len(c["details"]["report"]["checks"]) for c in report["checks"]
               if "report" in c["details"])


def cli_op(name, argv, report_path, expected_exit, content=None, known_defect=None):
    """``cli_main(argv + --json --quiet)``, judged by its exit code and by
    ``content(report, outcome)`` on the JSON report it wrote."""
    argv = [*argv, "--json", str(report_path), "--quiet"]

    def check(code, exc):
        if exc is not None:
            return Outcome([f"raised {type(exc).__name__}: {exc}"])
        out = Outcome()
        if code != expected_exit:
            out.problems.append(f"exit {code}, expected {expected_exit}")
        if expected_exit == 2:
            return out
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report_path.unlink()   # a later run must write its own
        out.checks = _condition_checks(report)
        out.problems += [f"{c['name']}: expectation not met" for c in report["checks"]
                         if not c["expectation_met"]]
        if content is not None:
            out.problems += content(report, out)
        return out

    return Op(name, lambda: shiftlab.cli.cli_main(argv), check, known_defect)


def _decide_content(spec, pair, expected, paste_to=None):
    def content(report, out):
        check = report["checks"][-1]
        out.verdict = check["observed"]
        problems = spec.verdict_problems(check, expected, pair, out)
        if paste_to is not None:
            _paste_witness(spec, check["details"].get("witness"), paste_to)
        return problems
    return content


def _paste_witness(spec, witness, path):
    """Write a spec re-verifying the emitted witness, or remove a stale one."""
    if witness is None:
        path.unlink(missing_ok=True)
        return
    (_, band), = witness["bands"].items()
    lo, count = band["lo"], len(band["weights"])
    doc = {"dim": spec.d, "shifts": {"S": spec.shifts["S"], "T": spec.shifts["T"]},
           "operators": {"W": witness},
           "tasks": [{"op": "verify_intertwining", "operator": "W", "s": "S", "t": "T",
                      "window": [lo + 1, lo + count - 1], "label": "pasted witness"}]}
    path.write_text(json.dumps(doc), encoding="utf-8")


def _write_malformed(workdir):
    nan = workdir / "nan-weight.json"
    nan.write_text(json.dumps({
        "dim": 1,
        "shifts": {"S": {"variant": "periodic", "weights": [[[[float("nan"), 0.0]]]]}},
        "tasks": [{"op": "norms", "shift": "S", "window": [0, 3]}]}), encoding="utf-8")
    dim_true = workdir / "dim-true.json"
    dim_true.write_text(json.dumps({
        "dim": True, "shifts": {"S": {"variant": "periodic", "weights": [[[[2.0, 0.0]]]]}},
        "tasks": [{"op": "norms", "shift": "S", "window": [0, 3]}]}), encoding="utf-8")
    return {"nan-weight": nan, "dim-true": dim_true}


def _ops_for_spec(spec, workdir):
    d, m = spec.d, spec.m
    path = workdir / f"spec-d{d}.json"
    path.write_text(json.dumps(spec.doc), encoding="utf-8")
    pasted = workdir / f"witness-d{d}.json"
    out = lambda name: workdir / f"report-{name}-d{d}.json"
    w = HALF_WINDOW[d]
    r_win = [str(spec.r_lo), str(spec.r_lo + R_LENGTH[d] - 1)]
    verify_exit = 1 if spec.expect_fail else 0
    return [
        cli_op(f"verify/d{d}", ["verify", str(path)], out("verify"), verify_exit,
               lambda report, o: spec.task_problems(report, o)),
        cli_op(f"decide-m/d{d}", ["decide", str(path), "--s", "S", "--t", "T", "--m", str(m)],
               out("decide"), 0, _decide_content(spec, spec.ei, "equivalent", pasted)),
        cli_op(f"verify-pasted-witness/d{d}", ["verify", str(pasted)], out("pasted"), 0),
        cli_op(f"decide-m-range/d{d}",
               ["decide", str(path), "--s", "SP", "--t", "TP",
                "--m-range", str(-m - 1), str(-m + 1)],
               out("scan"), 0, _decide_content(spec, spec.per, "equivalent")),
        cli_op(f"decide-refuted/d{d}",
               ["decide", str(path), "--s", "Sn", "--t", "Tn", "--m", str(m)],
               out("refuted"), 1, _decide_content(spec, spec.refuted, "not_equivalent")),
        cli_op(f"positive-form/d{d}",
               ["positive-form", str(path), "--shift", "R", "--window", *r_win],
               out("positive"), 0,
               lambda report, o: spec.positive_form_problems(
                   report["witnesses"]["positive-form R"])),
        cli_op(f"norms/d{d}", ["norms", str(path), "--shift", "R", "--window", *r_win],
               out("norms"), 0,
               lambda report, o: spec.norms_problems(report["checks"][0]["details"]["norms"])),
        cli_op(f"bands-two/d{d}", ["bands", str(path), "--op", "U2", "--mode", "two",
                                   "--window", str(-w), str(w)], out("two"), 0),
        cli_op(f"bands-three/d{d}", ["bands", str(path), "--op", "U3", "--mode", "three",
                                     "--window", str(-w), str(w)], out("three"), 0),
        cli_op(f"bands-count/d{d}", ["bands", str(path), "--op", "U2", "--mode", "count",
                                     "--window", str(-w), str(w)], out("count"), 0),
    ]


def _example_content(verdicts):
    def content(report, out):
        by_name = {c["name"]: c for c in report["checks"]}
        return [f"{name}: {by_name[name]['observed']}, documented {want}"
                for name, want in verdicts.items() if by_name[name]["observed"] != want]
    return content


def build(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    ops = []
    for d in DIMS:
        ops += _ops_for_spec(Spec(rng, d), workdir)
    warmup = ops[:len(ops) // len(DIMS)]          # the dim-2 spec
    for name, (code, verdicts) in EXAMPLES.items():
        ops.append(cli_op(f"example/{name}", ["example", name],
                          workdir / f"report-{name}.json", code, _example_content(verdicts)))
    for name, path in _write_malformed(workdir).items():
        ops.append(cli_op(f"malformed/{name}", ["verify", str(path)],
                          workdir / f"report-{name}.json", 2,
                          known_defect=KNOWN_DEFECTS[name]))
    return Workload(ops, warmup + ops[-len(EXAMPLES) - len(KNOWN_DEFECTS):])
