"""Command-line front end.

    symcomp run FILE            run a session script
    symcomp paper [NAME|--all]  run built-in sessions, print checkpoint table
    symcomp oracle EXPR|FILE    random-evaluation check of an identity

Commands only route: each hands its parsed arguments to the library and
returns the report it gets back.  Reports write their own output,
`lines()` as text and `to_jsonable()` for --json; `_emit` writes it and
turns the verdict into the exit code.

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
from .oracle import DEFAULT_SEED, DEFAULT_TRIALS, IdentityReport, check_identity, check_trials
from .parser import GREEK, parse_expr, parse_script
from .rawexpr import idents
from .sessions import (
    SessionReport,
    _read_text,
    builtin_session_names,
    golden_loader,
    run_builtin_session,
    run_session,
)

GREEK_SCALARS = tuple(GREEK.values())


def _default_seed() -> int:
    raw = os.environ.get("SYMCOMP_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise SymcompError(f"SYMCOMP_SEED must be an integer, got {raw!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help=f"seed for oracle trials (default {DEFAULT_SEED} or $SYMCOMP_SEED)")
    common.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                        help=f"oracle trial count (default {DEFAULT_TRIALS})")
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


def _emit(result, as_json: bool, out) -> int:
    """Write a command's result to `out` and return the exit code of its
    verdict: 0 if it passed, else 1.  A result is one report, or the list
    of session reports that `paper` returns, which --json writes as one
    document `{"sessions": [...], "pass": ...}`.  Without --json each
    report writes its own text lines."""
    reports = result if isinstance(result, list) else [result]
    passed = all(r.passed for r in reports)
    if as_json:
        document = ({"sessions": [r.to_jsonable() for r in reports], "pass": passed}
                    if reports is result else result.to_jsonable())
        out.write(json.dumps(document, indent=2) + "\n")
    else:
        out.write("".join(line + "\n" for r in reports for line in r.lines()))
    return 0 if passed else 1


def _cmd_run(args, seed: int, trace) -> SessionReport:
    path = Path(args.path)
    session = parse_script(_read_text(path), path.stem)
    return run_session(session, goldens=golden_loader(path.parent / "goldens"),
                       seed=seed, default_trials=args.trials, trace=trace)


def _cmd_paper(args, seed: int, trace) -> list[SessionReport]:
    if args.all and args.session is not None:
        raise SymcompError("give a session name or --all, not both")
    names = builtin_session_names() if args.session is None else (args.session,)
    return [run_builtin_session(name, seed=seed, default_trials=args.trials, trace=trace)
            for name in names]


def _cmd_oracle(args, seed: int, trace) -> IdentityReport:
    """A bare expression has no steps, so `trace` is unused."""
    source = args.expr
    try:
        is_file = Path(source).is_file()
    except (OSError, ValueError):
        is_file = False
    if is_file:
        source = _read_text(Path(source))
    raw = parse_expr(source)
    # Bare expressions carry no declarations: the conventional Greek
    # names are scalars, everything else is a vector symbol.
    symbols = SymbolTable()
    for node in idents(raw):
        if symbols.sort_of(node.name) is None:
            symbols.declare(node.name,
                            SCALAR if node.name in GREEK_SCALARS else VECTOR)
    return check_identity(canonicalize(raw, Env(symbols)), args.trials, seed)


_COMMANDS = {"run": _cmd_run, "paper": _cmd_paper, "oracle": _cmd_oracle}


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        seed = args.seed if args.seed is not None else _default_seed()
        check_trials(args.trials)
        trace = (lambda line: out.write(line + "\n")) if args.verbose else None
        return _emit(_COMMANDS[args.command](args, seed, trace), args.json, out)
    except (SymcompError, OSError) as err:
        print(f"symcomp: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
