"""Session execution: replays checkpointed derivations against the engine.

A session is a parsed script: its `let` steps and assertions, together
with its symbol table.  The parser resolves every declaration, name,
kind (expression or coefficient matrix) and rule set, so the runner
only computes each `let` value into one name -> value map and evaluates
the assertions.  Assertions become labeled checkpoints (C1, C2, ...) in
a report.  A step that fails raises a SessionExecutionError at the
step's own span: `line:column: session NAME: cause`.  The built-in
catalog ships the linearization sessions (L1, L2), the four
zero-identity sessions (Z1-Z4), and the main cubic-norm session (M)
with its ten checkpoints.  Its scripts NAME.scs and their goldens
(under goldens/) are plain files in the `sessions` directory beside
this module, found through `__file__` and read as UTF-8 like any user
script.

Goldens are read by kind: `assert_equal` and `assert_factored` read the
expression golden NAME.expr, `assert_matrix` the matrix golden
NAME.json.  A golden file is read again at every run, so an edit shows
at the next run, but the parse tree of each golden text (an expression
golden, or one cell of a matrix golden) is built once per process and
kept by its text.  Parse trees are frozen and canonicalization never
changes them, so runs share them; a text that does not parse is not
kept, and every run reports its error again.
"""
from __future__ import annotations

import json
from collections.abc import Callable
from functools import cache, lru_cache
from pathlib import Path

from .core import Env, Expr, SymbolTable, canonicalize, equal, require
from .errors import EngineError, Record, SourceSpan, SymcompError
from .oracle import DEFAULT_SEED, DEFAULT_TRIALS, check_identity
from .parser import (
    Assertion,
    Let,
    LetApply,
    LetCoeff,
    LetExpr,
    LetSubst,
    Session,
    parse_expr,
    parse_script,
)
from .polyops import CoeffMatrix, coeff, coeff_matrix, subst_raw
from .printer import print_expr
from .rules import apply_fixpoint, apply_once
from . import polyops
from . import rawexpr as rx


# --- reports -----------------------------------------------------------------


class CheckpointResult(Record):
    __slots__ = ("label", "kind", "passed", "expected", "actual", "note")
    _defaults = ("",)

    def to_jsonable(self) -> dict:
        return {
            "label": self.label,
            "kind": self.kind,
            "pass": self.passed,
            "expected": self.expected,
            "actual": self.actual,
            "note": self.note,
        }


class SessionReport(Record):
    __slots__ = ("name", "checkpoints")

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checkpoints)

    def to_jsonable(self) -> dict:
        return {
            "session": self.name,
            "pass": self.passed,
            "checkpoints": [c.to_jsonable() for c in self.checkpoints],
        }

    def lines(self) -> list[str]:
        out = [f"session {self.name}"]
        for c in self.checkpoints:
            status = "pass" if c.passed else "FAIL"
            out.append(f"  {c.label:<4} {c.kind:<9} {status}")
            if c.note:
                out.append(f"       note: {c.note}")
            if not c.passed:
                out.append(f"       expected: {c.expected}")
                out.append(f"       actual:   {c.actual}")
        out.append(f"  => {'PASS' if self.passed else 'FAIL'}")
        return out


class SessionExecutionError(SymcompError):
    """Wraps an engine error with the session's name and the span of the
    failing step."""

    def __init__(self, session: str, span: SourceSpan, cause: Exception):
        super().__init__(f"session {session}: {cause}", span)
        self.session = session
        self.cause = cause


# --- execution ---------------------------------------------------------------

# `load(name)` is the text of the expression golden NAME.expr,
# `load(name, matrix=True)` that of the matrix golden NAME.json.
GoldenLoader = Callable[..., str]


def run_session(session: Session, *, goldens: GoldenLoader | None = None,
                seed: int = DEFAULT_SEED, default_trials: int = DEFAULT_TRIALS,
                trace: Callable[[str], None] | None = None) -> SessionReport:
    """Execute a session's `let` steps in order and evaluate its
    checkpoints.  `goldens` and `trace` must be None or callable."""
    require(session, Session, "run_session argument session must be a Session")
    require(goldens, (type(None), Callable),
            "run_session argument goldens must be callable or None")
    require(trace, (type(None), Callable), "run_session argument trace must be callable or None")
    symbols = session.symbols
    values: dict[str, Expr | CoeffMatrix] = {}
    results: list[CheckpointResult] = []

    def golden_text(name: str, matrix: bool = False) -> str:
        if goldens is None:
            raise EngineError(f"no goldens directory available for @{name}")
        return goldens(name, matrix=matrix)

    def emit(text: Callable[[], str]):
        # The line is built only when someone reads the trace.
        if trace is not None:
            trace(text())

    for stmt in session.statements:
        try:
            if isinstance(stmt, Let):
                value = _let_value(stmt, symbols, values)
                values[stmt.name] = value
                emit(lambda: f"{stmt.name} = "
                     + (value.to_json() if isinstance(value, CoeffMatrix) else print_expr(value)))
            else:
                results.append(_run_assertion(
                    stmt, symbols, values, golden_text, seed, default_trials))
                emit(lambda: f"{stmt.label}: {'pass' if results[-1].passed else 'FAIL'}")
        except SymcompError as err:
            raise SessionExecutionError(session.name, stmt.span, err) from err
    return SessionReport(session.name, tuple(results))


def _let_value(stmt: Let, symbols: SymbolTable, values: dict) -> Expr | CoeffMatrix:
    if isinstance(stmt, LetExpr):
        return canonicalize(stmt.raw, Env(symbols, values))
    source = values[stmt.source]
    if isinstance(stmt, LetApply):
        rewrite = apply_once if stmt.once else apply_fixpoint
        return rewrite(source, stmt.ruleset, symbols)
    if isinstance(stmt, LetSubst):
        return subst_raw(source, dict(stmt.bindings), symbols, Env(symbols, values))
    if isinstance(stmt, LetCoeff):
        return coeff(source, dict(stmt.key))
    return coeff_matrix(source, stmt.vars)


def _run_assertion(stmt: Assertion, symbols: SymbolTable, values: dict,
                   golden_text: GoldenLoader, seed: int,
                   default_trials: int) -> CheckpointResult:
    value = values[stmt.name]
    if stmt.kind == "matrix":
        payload = _matrix_golden(stmt.golden, golden_text(stmt.golden, matrix=True))
        ok, expected_text, actual_text = _compare_matrix(stmt.golden, value, payload, symbols)
        return CheckpointResult(stmt.label, stmt.kind, ok, expected_text, actual_text,
                                note=payload.get("note", ""))
    if stmt.kind == "zero":
        return CheckpointResult(stmt.label, stmt.kind, value.is_zero, "0", print_expr(value))
    if stmt.kind == "oracle":
        trials = stmt.trials if stmt.trials is not None else default_trials
        report = check_identity(value, trials, seed)
        detail = "exact zero on all trials" if report.passed else report.counterexample.to_json()
        return CheckpointResult(stmt.label, stmt.kind, report.passed,
                                f"0 on {trials} trials", detail)
    # equal / factored
    # A golden is read only now, so it may name a matrix: such a name
    # stays unbound and fails as an undeclared identifier.
    env = Env(symbols, {n: v for n, v in values.items() if not isinstance(v, CoeffMatrix)})
    if stmt.golden is None:
        expected = canonicalize(stmt.expected_raw, env)
    else:
        expected = _expr_golden(stmt.golden, golden_text(stmt.golden), env)
    ok = polyops.factored_equal(value, expected) if stmt.kind == "factored" \
        else equal(value, expected)
    return CheckpointResult(stmt.label, stmt.kind, ok,
                            print_expr(expected), print_expr(value))


# Golden texts whose parse trees are kept; a replay of the built-in
# catalog parses 20.
_GOLDEN_TREES = 256


@lru_cache(maxsize=_GOLDEN_TREES)
def _golden_tree(text: str) -> rx.RawExpr:
    """The parse tree of a golden text, built once per text.  A parse
    error propagates and is not kept."""
    return parse_expr(text)


def _expr_golden(name: str, text: str, env: Env) -> Expr:
    """The canonical value of an expression golden.  An error in its text
    names the golden, before its place in the text."""
    try:
        return canonicalize(_golden_tree(text), env)
    except SymcompError as err:
        raise SymcompError(f"golden @{name}: {err}") from err


def _matrix_golden(name: str, text: str) -> dict:
    """The payload of a matrix golden: a JSON object with "vars", a list
    of two names, "rows", a list of lists of expression texts, and
    optionally "note", a text."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise EngineError(f"matrix golden @{name} is not JSON: {err}") from None
    names, rows = (payload.get("vars"), payload.get("rows")) if isinstance(payload, dict) \
        else (None, None)
    if not (isinstance(names, list) and len(names) == 2
            and all(isinstance(n, str) for n in names)
            and isinstance(rows, list)
            and all(isinstance(row, list) and all(isinstance(t, str) for t in row)
                    for row in rows)
            and isinstance(payload.get("note", ""), str)):
        raise EngineError(f'matrix golden @{name} must be an object with "vars", '
                          'a list of two names, "rows", a list of lists of expressions, '
                          'and optionally "note", a text')
    return payload


def _compare_matrix(name: str, actual: CoeffMatrix, payload: dict,
                    symbols: SymbolTable) -> tuple[bool, str, str]:
    """Compare a matrix with the payload of golden `name`, cell by cell;
    an error in the text of cell [i][j] (indices from 0, the degrees of
    the two symbols) names it as golden @NAME[i][j]."""
    expected_vars = tuple(payload["vars"])
    rows = payload["rows"]
    expected_text = json.dumps(payload, indent=2)
    actual_text = actual.to_json()
    if expected_vars != actual.vars:
        return False, expected_text, actual_text
    if len(rows) != len(actual.rows) or any(
            len(r) != len(ar) for r, ar in zip(rows, actual.rows)):
        return False, expected_text, actual_text
    env = Env(symbols)
    for i, (row, actual_row) in enumerate(zip(rows, actual.rows)):
        for j, (entry_text, actual_entry) in enumerate(zip(row, actual_row)):
            expected_entry = _expr_golden(f"{name}[{i}][{j}]", entry_text, env)
            if not equal(expected_entry, actual_entry):
                return False, expected_text, actual_text
    return True, expected_text, actual_text


def _read_text(path: Path) -> str:
    """The text of a script, expression or golden file, which must be
    UTF-8; otherwise a SymcompError that names the file."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise SymcompError(
            f"{path} is not UTF-8 text: {err.reason} at byte {err.start}") from None


# --- built-in catalog ---------------------------------------------------------

SESSION_ORDER = ("L1", "L2", "Z1", "Z2", "Z3", "Z4", "M")


def builtin_session_names() -> tuple[str, ...]:
    return SESSION_ORDER


def _data_dir() -> Path:
    return Path(__file__).with_name("sessions")


def load_builtin_session(name: str) -> Session:
    """The parsed catalog session `name`, read and parsed once per
    process; an unknown name raises on every call."""
    require(name, str, "load_builtin_session argument name must be a str")
    return _load_builtin_session(name)


@cache
def _load_builtin_session(name: str) -> Session:
    if name not in SESSION_ORDER:
        raise EngineError(f"unknown session {name!r}; catalog: {', '.join(SESSION_ORDER)}")
    return parse_script(_read_text(_data_dir() / f"{name}.scs"), name)


def golden_loader(base: Path) -> GoldenLoader:
    """Goldens in the directory `base`: the expression golden NAME.expr,
    or with `matrix=True` the matrix golden NAME.json.  The other suffix
    is never tried."""

    def load(name: str, matrix: bool = False) -> str:
        kind, file = ("matrix", f"{name}.json") if matrix else ("expression", f"{name}.expr")
        path = base / file
        if not path.is_file():
            raise EngineError(f"missing golden @{name}: no {kind} golden {file} under {base}")
        return _read_text(path)

    return load


def builtin_golden_loader() -> GoldenLoader:
    return golden_loader(_data_dir() / "goldens")


def run_builtin_session(name: str, *, seed: int = DEFAULT_SEED,
                        default_trials: int = DEFAULT_TRIALS,
                        trace: Callable[[str], None] | None = None) -> SessionReport:
    require(name, str, "run_builtin_session argument name must be a str")
    require(trace, (type(None), Callable),
            "run_builtin_session argument trace must be callable or None")
    session = load_builtin_session(name)
    return run_session(session, goldens=builtin_golden_loader(), seed=seed,
                       default_trials=default_trials, trace=trace)
