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
The random seed, a nonnegative integer, comes from --seed, else the
SHIFTLAB_SEED environment variable, else 0.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import replace

from .corpus import EXAMPLE_NAMES, run_example
from .errors import ShiftLabError, SpecFormatError
from .matrices import Tolerance
from .reports import RunReport
from .specfile import collector_paused, load_spec_file, run_spec

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
_WRITE_SLICE = 1 << 16     # characters of report text per write


@functools.cache      # one parser per process; parsing does not change it
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
    p.add_argument("--window", nargs=2, type=int, metavar=("LO", "HI"))
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


def _emit(report: RunReport, args) -> int:
    if args.json:
        text = report.to_json()
        with open(args.json, "w", encoding="utf-8") as fh:
            # a text file encodes each write whole: in slices, a long
            # report is never held twice, as text and as its UTF-8 bytes
            for start in range(0, len(text), _WRITE_SLICE):
                fh.write(text[start:start + _WRITE_SLICE])
            fh.write("\n")
    if not args.quiet:
        for line in report.human_lines():
            print(line)
    return report.exit_code()


def cli_main(argv) -> int:
    """Run one command line and return its exit code.

    The whole command (argument parsing, reading the spec, running its tasks
    and writing the report) runs with the cyclic garbage collector paused
    (``collector_paused``), which is left as it was found, however the
    command ends: a report and the objects it is built from are acyclic
    trees, freed by reference counting, which collections would only walk.
    The command's objects are freed before the collector resumes, so its
    first collection does not walk them either.
    """
    with collector_paused():
        return _run_command(argv)


def _run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        for key in ("tol_rel", "tol_abs"):
            if not 0 <= getattr(args, key) < math.inf:
                parser.error(f"--{key.replace('_', '-')} must be finite and nonnegative")
        seed, source = args.seed, "--seed"
        if seed is None:
            seed, source = os.environ.get("SHIFTLAB_SEED", "0"), "SHIFTLAB_SEED"
        if not str(seed).strip().isdecimal():
            parser.error(f"{source} must be a nonnegative integer, got {seed!r}")
        seed = int(seed)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    tol = Tolerance(rel=args.tol_rel, abs=args.tol_abs)

    try:
        if args.command == "example":
            return _emit(run_example(args.name, tol=tol, seed=seed), args)
        model = load_spec_file(args.spec)
        if args.command != "verify":
            model = replace(model, tasks=_command_tasks(args))
        report = run_spec(model, args.command, args.spec, tol, seed)
        report.refutation_fails = args.command == "decide"
        return _emit(report, args)
    except (SpecFormatError, OSError) as exc:       # OSError: an unreadable or unwritable path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ShiftLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


def _command_tasks(args):
    """The task blocks a subcommand other than ``verify`` stands for.  The
    spec validator checks them, so a bad flag is named by its task path."""
    given = {key: getattr(args, key) for key in ("window", "depth", "bound")
             if getattr(args, key, None) is not None}
    if args.command in ("positive-form", "norms"):
        return [{"op": args.command.replace("-", "_"), "shift": args.shift,
                 "label": f"{args.command} {args.shift}", **given}]
    if args.command == "decide":
        offset = {"m": args.m} if args.m is not None else {"m_range": args.m_range}
        return [{"op": "decide", "s": args.s, "t": args.t,
                 "label": f"decide {args.s} vs {args.t}", **offset, **given}]
    given["operator"] = args.op
    if args.mode == "two":
        return [{"op": "verify_unitary", "mode": "two_band",
                 "label": f"two-band unitarity {args.op}", **given},
                {"op": "two_band_structure", "label": f"two-band structure {args.op}",
                 **given}]
    if args.mode == "three":
        return [{"op": "verify_unitary", "mode": "three_band",
                 "label": f"three-band unitarity {args.op}", **given}]
    return [{"op": "band_count_bound", "label": f"band count {args.op}", **given}]


def main():  # pragma: no cover - thin wrapper
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    main()
