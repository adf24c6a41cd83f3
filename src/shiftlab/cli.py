"""Command-line interface.

Subcommands
-----------
verify <spec>            run the task blocks of a specification document
positive-form <spec>     positive-weight form of a named shift
decide <spec>            diagonal-form equivalence decision for two shifts
bands <spec>             band-structure verification of a named operator
example <name>           run a bundled demonstration instance
norms <spec>             weight-norm profile of a named shift

Exit codes: 0 all checks passed / verdict produced, 1 a verification failed
(an obstruction was found), 2 usage or parse error, 3 inconclusive verdict.
The random seed comes from --seed, else the SHIFTLAB_SEED environment
variable, else 0.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bands import (
    check_band_count_bound,
    check_diagonal_propagation,
    check_two_band_structure,
    conjugate_to_shift,
    verify_intertwining,
    verify_unitary_banded,
    verify_unitary_three_band,
    verify_unitary_two_band,
)
from .corpus import EXAMPLE_NAMES, run_example
from .equivalence import (
    VerdictStatus,
    decide_diagonal_equivalence,
    decide_diagonal_equivalence_scan,
    eigen_moduli_screen,
    norm_offset_screen,
    positive_form,
)
from .errors import ShiftLabError, SpecFormatError
from .matrices import Tolerance
from .reports import ReportCheck, RunReport
from .shifts import weight_norm_profile
from .specfile import encode_operator, encode_shift, load_spec_file

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-rel", type=float, default=1e-10,
                        help="relative tolerance (default 1e-10)")
    common.add_argument("--tol-abs", type=float, default=1e-12,
                        help="absolute tolerance floor (default 1e-12)")
    common.add_argument("--seed", type=int, default=None,
                        help="random seed (default: SHIFTLAB_SEED or 0)")
    common.add_argument("--json", metavar="PATH", default=None,
                        help="write the machine-readable report to PATH")
    common.add_argument("--quiet", action="store_true",
                        help="suppress the human-readable summary")

    parser = argparse.ArgumentParser(
        prog="shiftlab",
        description="Verification toolkit for bilateral operator-valued "
                    "weighted shifts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="run the task blocks of a spec file")
    p.add_argument("spec")

    p = sub.add_parser("positive-form", parents=[common],
                       help="positive-weight form of a shift")
    p.add_argument("spec")
    p.add_argument("--shift", required=True)
    p.add_argument("--window", nargs=2, type=int, required=True,
                   metavar=("LO", "HI"))

    p = sub.add_parser("decide", parents=[common],
                       help="diagonal-form equivalence decision")
    p.add_argument("spec")
    p.add_argument("--s", required=True)
    p.add_argument("--t", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--m", type=int)
    group.add_argument("--m-range", nargs=2, type=int, metavar=("LO", "HI"))
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--window", nargs=2, type=int, default=None,
                   metavar=("LO", "HI"))

    p = sub.add_parser("bands", parents=[common],
                       help="band-structure verification")
    p.add_argument("spec")
    p.add_argument("--op", required=True)
    p.add_argument("--mode", choices=("two", "three", "count"), required=True)
    p.add_argument("--window", nargs=2, type=int, default=(-8, 8),
                   metavar=("LO", "HI"))
    p.add_argument("--bound", type=int, default=None,
                   help="band-count bound (default: block dimension)")

    p = sub.add_parser("example", parents=[common],
                       help="run a bundled demonstration instance")
    p.add_argument("name", choices=EXAMPLE_NAMES)

    p = sub.add_parser("norms", parents=[common],
                       help="weight-norm profile of a shift")
    p.add_argument("spec")
    p.add_argument("--shift", required=True)
    p.add_argument("--window", nargs=2, type=int, required=True,
                   metavar=("LO", "HI"))
    return parser


def _verdict_exit(status: VerdictStatus) -> int:
    if status is VerdictStatus.EQUIVALENT:
        return EXIT_OK
    if status is VerdictStatus.NOT_EQUIVALENT:
        return EXIT_FAILED
    return EXIT_INCONCLUSIVE


def _verification_check(report, name, rep, expect_pass=True):
    report.add(ReportCheck(
        name=name, kind="verification", passed=rep.passed,
        expected="pass" if expect_pass else "fail",
        observed=rep.summary(), expectation_met=(rep.passed == expect_pass),
        details={"report": rep.to_jsonable()}))


def _verdict_check(report, name, verdict, expect: str | None = None):
    met = True if expect is None else verdict.status.value == expect
    details = {"summary": verdict.summary()}
    if verdict.witness is not None:
        details["witness"] = encode_operator(verdict.witness)
        report.witnesses[name] = details["witness"]
    if verdict.obstruction is not None:
        details["obstruction"] = vars(verdict.obstruction)
    report.add(ReportCheck(name=name, kind="verdict", passed=None,
                           expected=expect or "any verdict",
                           observed=verdict.status.value,
                           expectation_met=met, details=details))
    return verdict


def _run_task(task, model, report, tol, seed):
    op = task["op"]
    window = task.get("window", [-8, 8])
    lo, hi = int(window[0]), int(window[1])
    label = task.get("label", op)
    shifts = model.shifts
    operators = model.operators

    if op == "verify_intertwining":
        rep = verify_intertwining(operators[task["operator"]],
                                  shifts[task["s"]], shifts[task["t"]],
                                  lo, hi, tol)
        _verification_check(report, label, rep,
                            task.get("expect", "pass") == "pass")
    elif op == "verify_unitary":
        u = operators[task["operator"]]
        mode = task.get("mode", "banded")
        fn = {"two_band": verify_unitary_two_band,
              "three_band": verify_unitary_three_band,
              "banded": verify_unitary_banded}[mode]
        _verification_check(report, label, fn(u, lo, hi, tol),
                            task.get("expect", "pass") == "pass")
    elif op == "two_band_structure":
        rep = check_two_band_structure(operators[task["operator"]], lo, hi, tol)
        _verification_check(report, label, rep,
                            task.get("expect", "pass") == "pass")
    elif op == "diagonal_propagation":
        s = shifts[task["s"]] if "s" in task else None
        t = shifts[task["t"]] if "t" in task else None
        rep = check_diagonal_propagation(operators[task["operator"]],
                                         s, t, lo, hi, tol)
        _verification_check(report, label, rep,
                            task.get("expect", "pass") == "pass")
    elif op == "band_count_bound":
        u = operators[task["operator"]]
        bound = task.get("bound", u.dim)
        rep = check_band_count_bound(u, bound, lo, hi, tol)
        _verification_check(report, label, rep,
                            task.get("expect", "pass") == "pass")
    elif op == "conjugate_to_shift":
        res = conjugate_to_shift(operators[task["operator"]],
                                 shifts[task["s"]], lo, hi, tol)
        expect = task.get("expect", "shift")
        met = res.is_shift == (expect == "shift")
        details = {"report": res.report.to_jsonable()}
        if res.is_shift:
            details["shift"] = encode_shift(res.shift)
            report.witnesses[label] = details["shift"]
        report.add(ReportCheck(name=label, kind="verification",
                               passed=res.is_shift, expected=expect,
                               observed="shift" if res.is_shift else "not a shift",
                               expectation_met=met, details=details))
    elif op == "positive_form":
        form = positive_form(shifts[task["shift"]], lo, hi, tol)
        report.witnesses[label] = {
            "shift": encode_shift(form.shift),
            "diagonal": encode_operator(form.diagonal),
        }
        report.add(ReportCheck(
            name=label, kind="value", passed=True,
            expected="positive-weight form",
            observed=f"max intertwining residual {form.max_residual:.3e}",
            expectation_met=True,
            details={"max_residual": form.max_residual}))
    elif op == "norms":
        profile = weight_norm_profile(shifts[task["shift"]], lo, hi)
        report.add(ReportCheck(
            name=label, kind="value", passed=True, expected="profile",
            observed=f"norms on [{lo}, {hi}]", expectation_met=True,
            details={"norms": profile}))
    elif op == "norm_offset_screen":
        k_lo, k_hi = task.get("k_range", [-4, 4])
        feasible = sorted(norm_offset_screen(shifts[task["s"]], shifts[task["t"]],
                                             int(k_lo), int(k_hi), lo, hi, tol))
        expect = task.get("expect_feasible")
        met = True if expect is None else feasible == sorted(expect)
        report.add(ReportCheck(
            name=label, kind="screen", passed=None,
            expected=str(sorted(expect)) if expect is not None else "any",
            observed=f"feasible offsets {feasible}", expectation_met=met,
            details={"feasible": feasible}))
    elif op == "eigen_moduli_screen":
        rep = eigen_moduli_screen(shifts[task["s"]], shifts[task["t"]],
                                  int(task.get("k", 0)), lo, hi, tol)
        _verification_check(report, label, rep,
                            task.get("expect", "pass") == "pass")
    elif op == "decide":
        s, t = shifts[task["s"]], shifts[task["t"]]
        depth = task.get("depth")
        if "m" in task:
            verdict = decide_diagonal_equivalence(
                s, t, int(task["m"]), depth=depth, window=(lo, hi),
                tol=tol, seed=seed)
        else:
            m_lo, m_hi = task["m_range"]
            verdict = decide_diagonal_equivalence_scan(
                s, t, int(m_lo), int(m_hi), depth=depth, window=(lo, hi),
                tol=tol, seed=seed)
        _verdict_check(report, label, verdict, task.get("expect"))
    else:  # pragma: no cover - guarded by the spec parser
        raise ValueError(f"unhandled task op {op!r}")


def _emit(report: RunReport, args) -> int:
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
            fh.write("\n")
    if not args.quiet:
        for line in report.human_lines():
            print(line)
    return report.exit_code()


def cli_main(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        for key in ("window", "m_range"):
            pair = getattr(args, key, None)
            if pair is not None and pair[0] > pair[1]:
                parser.error(f"--{key.replace('_', '-')} LO HI needs LO <= HI")
        if getattr(args, "depth", None) is not None and args.depth < 1:
            parser.error("--depth must be a positive integer")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    tol = Tolerance(rel=args.tol_rel, abs=args.tol_abs)
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("SHIFTLAB_SEED", "0"))

    try:
        if args.command == "example":
            report = run_example(args.name, tol=tol, seed=seed)
            return _emit(report, args)

        model = load_spec_file(args.spec)
        report = RunReport(name=args.command, title=args.spec, seed=seed,
                           tolerance={"rel": tol.rel, "abs": tol.abs})
        if args.command == "verify":
            for task in model.tasks:
                _run_task(task, model, report, tol, seed)
            return _emit(report, args)
        if args.command == "positive-form":
            _require_name(model.shifts, args.shift, "shift")
            lo, hi = args.window
            _run_task({"op": "positive_form", "shift": args.shift,
                       "window": [lo, hi], "label": f"positive-form {args.shift}"},
                      model, report, tol, seed)
            return _emit(report, args)
        if args.command == "norms":
            _require_name(model.shifts, args.shift, "shift")
            lo, hi = args.window
            _run_task({"op": "norms", "shift": args.shift, "window": [lo, hi],
                       "label": f"norms {args.shift}"}, model, report, tol, seed)
            return _emit(report, args)
        if args.command == "decide":
            _require_name(model.shifts, args.s, "shift")
            _require_name(model.shifts, args.t, "shift")
            task = {"op": "decide", "s": args.s, "t": args.t,
                    "label": f"decide {args.s} vs {args.t}"}
            if args.depth is not None:
                task["depth"] = args.depth
            if args.window is not None:
                task["window"] = list(args.window)
            else:
                from .equivalence import _auto_window
                base = args.m if args.m is not None else 0
                task["window"] = list(_auto_window(model.shifts[args.s],
                                                   model.shifts[args.t], base))
            if args.m is not None:
                task["m"] = args.m
            else:
                task["m_range"] = list(args.m_range)
            _run_task(task, model, report, tol, seed)
            code = _emit(report, args)
            if code == EXIT_OK:
                observed = report.checks[-1].observed
                return _verdict_exit(VerdictStatus(observed))
            return code
        if args.command == "bands":
            _require_name(model.operators, args.op, "operator")
            lo, hi = args.window
            u = model.operators[args.op]
            if args.mode == "two":
                _run_task({"op": "verify_unitary", "operator": args.op,
                           "mode": "two_band", "window": [lo, hi],
                           "label": f"two-band unitarity {args.op}"},
                          model, report, tol, seed)
                _run_task({"op": "two_band_structure", "operator": args.op,
                           "window": [lo, hi],
                           "label": f"two-band structure {args.op}"},
                          model, report, tol, seed)
            elif args.mode == "three":
                _run_task({"op": "verify_unitary", "operator": args.op,
                           "mode": "three_band", "window": [lo, hi],
                           "label": f"three-band unitarity {args.op}"},
                          model, report, tol, seed)
            else:
                _run_task({"op": "band_count_bound", "operator": args.op,
                           "bound": args.bound or u.dim, "window": [lo, hi],
                           "label": f"band count {args.op}"},
                          model, report, tol, seed)
            return _emit(report, args)
        raise AssertionError(f"unhandled command {args.command}")
    except SpecFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyError as exc:
        print(f"error: unresolved name {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ShiftLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


def _require_name(table, name, what):
    if name not in table:
        raise SpecFormatError(f"undefined {what} {name!r}", path=what)


def main():  # pragma: no cover - thin wrapper
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    main()
