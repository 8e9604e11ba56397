"""Command-line front end.

    symcomp run FILE            run a session script
    symcomp paper [NAME|--all]  run built-in sessions, print checkpoint table
    symcomp oracle EXPR|FILE    random-evaluation check of an identity

Exit codes: 0 all assertions pass, 1 assertion failure, 2 parse or
engine error.  `SYMCOMP_SEED` overrides the default seed (an explicit
`--seed` wins over the environment).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .core import SCALAR, VECTOR, Env, SymbolTable, canonicalize
from .errors import SymcompError
from .oracle import check_identity
from .parser import parse_expr, parse_script
from .printer import print_expr
from .rawexpr import idents
from .sessions import (
    SessionReport,
    builtin_session_names,
    golden_loader,
    run_builtin_session,
    run_session,
)

DEFAULT_TRIALS = 100
GREEK_SCALARS = ("alpha", "beta", "lambda", "mu")


def _default_seed() -> int:
    raw = os.environ.get("SYMCOMP_SEED")
    if raw is None:
        return 42
    try:
        return int(raw)
    except ValueError:
        raise SymcompError(f"SYMCOMP_SEED must be an integer, got {raw!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="seed for oracle trials (default 42 or $SYMCOMP_SEED)")
    common.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                        help="oracle trial count (default 100)")
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument("--verbose", action="store_true",
                        help="print every intermediate canonical form")

    parser = argparse.ArgumentParser(prog="symcomp",
                                     description="Identity checker for symmetric compositions")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[common], help="run a session script")
    p_run.add_argument("path", help="script file; goldens resolve next to it under goldens/")

    p_paper = sub.add_parser("paper", parents=[common], help="run built-in sessions")
    p_paper.add_argument("session", nargs="?", default=None,
                         help=f"one of {', '.join(builtin_session_names())}")
    p_paper.add_argument("--all", action="store_true", help="run the whole catalog")

    p_oracle = sub.add_parser("oracle", parents=[common],
                              help="random-evaluation identity check")
    p_oracle.add_argument("expr", help="an expression, or a file containing one")
    return parser


def _emit_report(report: SessionReport, as_json: bool, out) -> None:
    if as_json:
        out.write(json.dumps(report.to_jsonable(), indent=2) + "\n")
    else:
        out.write("\n".join(report.lines()) + "\n")


def _cmd_run(args, seed: int, out) -> int:
    path = Path(args.path)
    text = path.read_text(encoding="utf-8")
    session = parse_script(text, path.stem)
    trace = (lambda line: out.write(line + "\n")) if args.verbose else None
    report = run_session(session, goldens=golden_loader(path.parent / "goldens"),
                         seed=seed, default_trials=args.trials, trace=trace)
    _emit_report(report, args.json, out)
    return 0 if report.passed else 1


def _cmd_paper(args, seed: int, out) -> int:
    if args.all or args.session is None:
        names = builtin_session_names()
    else:
        if args.session not in builtin_session_names():
            raise SymcompError(f"unknown session {args.session!r}; "
                               f"catalog: {', '.join(builtin_session_names())}")
        names = (args.session,)
    trace = (lambda line: out.write(line + "\n")) if args.verbose else None
    reports = [run_builtin_session(name, seed=seed, default_trials=args.trials,
                                   trace=trace) for name in names]
    if args.json:
        payload = {"sessions": [r.to_jsonable() for r in reports],
                   "pass": all(r.passed for r in reports)}
        out.write(json.dumps(payload, indent=2) + "\n")
    else:
        for report in reports:
            _emit_report(report, False, out)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_oracle(args, seed: int, out) -> int:
    source = args.expr
    try:
        is_file = Path(source).is_file()
    except (OSError, ValueError):
        is_file = False
    if is_file:
        source = Path(source).read_text(encoding="utf-8")
    raw = parse_expr(source)
    # Bare expressions carry no declarations: the conventional Greek
    # names are scalars, everything else is a vector symbol.
    symbols = SymbolTable()
    for node in idents(raw):
        if symbols.sort_of(node.name) is None:
            symbols.declare(node.name,
                            SCALAR if node.name in GREEK_SCALARS else VECTOR)
    value = canonicalize(raw, Env(symbols))
    report = check_identity(value, args.trials, seed)
    if args.json:
        out.write(report.to_json() + "\n")
    else:
        status = "pass" if report.passed else "FAIL"
        out.write(f"{status}: {print_expr(value)} on {report.trials} trials\n")
        if not report.passed:
            out.write("counterexample: "
                      + json.dumps(report.counterexample.to_jsonable()) + "\n")
    return 0 if report.passed else 1


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        seed = args.seed if args.seed is not None else _default_seed()
        if args.trials < 1:
            raise SymcompError("--trials must be at least 1")
        if args.command == "run":
            return _cmd_run(args, seed, out)
        if args.command == "paper":
            return _cmd_paper(args, seed, out)
        return _cmd_oracle(args, seed, out)
    except (SymcompError, OSError, json.JSONDecodeError) as err:
        print(f"symcomp: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
