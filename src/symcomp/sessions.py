"""Session execution: replays checkpointed derivations against the engine.

A session is a parsed script (declarations, `let` steps, assertions).
Assertions become labeled checkpoints (C1, C2, ...) in a report.  The
built-in catalog ships the linearization sessions (L1, L2), the four
zero-identity sessions (Z1-Z4), and the main cubic-norm session (M)
with its ten checkpoints.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from importlib.resources import files
from typing import Callable

from .core import (
    Env,
    Expr,
    ScalarExpr,
    SymbolTable,
    VectorExpr,
    b_of,
    canonicalize,
    dot,
    equal,
    q_of,
)
from .errors import EngineError, SymcompError
from .oracle import check_identity
from .parser import (
    Assertion,
    DeclSymbols,
    DefRule,
    LetApply,
    LetCoeff,
    LetExpr,
    LetMatrix,
    LetSubst,
    Session,
    parse_expr,
    parse_script,
)
from .polyops import CoeffMatrix, coeff, coeff_matrix, subst_raw
from .printer import print_expr
from .rules import RuleSet, apply_fixpoint, apply_once, builtin_ruleset
from . import polyops


# --- cubic-composition constructions ----------------------------------------


def cubic_form(v: VectorExpr) -> ScalarExpr:
    """The cubic scalar b(v, v.v)."""
    return b_of(v, dot(v, v))


def commutator(u: VectorExpr, v: VectorExpr) -> VectorExpr:
    return dot(u, v) - dot(v, u)


@dataclass(frozen=True)
class CubicElement:
    """An element of the cubic composition built on scalars plus vectors."""

    scalar_part: ScalarExpr
    vector_part: VectorExpr


def cubic_norm(e: CubicElement) -> ScalarExpr:
    """Norm of a cubic element: s^3 - 3 s q(v) + b(v, v.v)."""
    s, v = e.scalar_part, e.vector_part
    return s ** 3 - 3 * (s * q_of(v)) + cubic_form(v)


# --- reports -----------------------------------------------------------------


@dataclass(frozen=True)
class CheckpointResult:
    label: str
    kind: str
    passed: bool
    expected: str
    actual: str
    note: str = ""

    def to_jsonable(self) -> dict:
        return {
            "label": self.label,
            "kind": self.kind,
            "pass": self.passed,
            "expected": self.expected,
            "actual": self.actual,
            "note": self.note,
        }


@dataclass(frozen=True)
class SessionReport:
    name: str
    checkpoints: tuple[CheckpointResult, ...]

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
    """Wraps an engine error with the index of the failing step."""

    def __init__(self, session: str, step_index: int, cause: Exception):
        super().__init__(f"session {session}, step {step_index}: {cause}")
        self.session = session
        self.step_index = step_index
        self.cause = cause


# --- execution ---------------------------------------------------------------

GoldenLoader = Callable[[str], str]


def run_session(session: Session, *, goldens: GoldenLoader | None = None,
                seed: int = 42, default_trials: int = 100,
                trace: Callable[[str], None] | None = None) -> SessionReport:
    """Execute a session's steps in order and evaluate its checkpoints."""
    symbols = SymbolTable()
    values: dict[str, Expr] = {}
    matrices: dict[str, CoeffMatrix] = {}
    local_rulesets: dict[str, list] = {}
    results: list[CheckpointResult] = []

    def ruleset(name: str) -> RuleSet:
        local = local_rulesets.get(name)
        if local is not None:
            return RuleSet(name, tuple(local))
        return builtin_ruleset(name)

    def golden_text(name: str) -> str:
        if goldens is None:
            raise EngineError(f"no goldens directory available for @{name}")
        return goldens(name)

    def emit(text: Callable[[], str]):
        # The line is built only when someone reads the trace.
        if trace is not None:
            trace(text())

    for step_index, stmt in enumerate(session.statements):
        try:
            if isinstance(stmt, DeclSymbols):
                for name in stmt.names:
                    symbols.declare(name, stmt.sort)
            elif isinstance(stmt, DefRule):
                local_rulesets.setdefault(stmt.set_name, []).append(stmt.rule)
            elif isinstance(stmt, (LetExpr, LetApply, LetSubst, LetCoeff)):
                if isinstance(stmt, LetExpr):
                    value = canonicalize(stmt.raw, Env(symbols, values))
                elif isinstance(stmt, LetApply):
                    rs = ruleset(stmt.ruleset)
                    source = values[stmt.source]
                    value = apply_once(source, rs, symbols) if stmt.once \
                        else apply_fixpoint(source, rs, symbols)
                elif isinstance(stmt, LetSubst):
                    value = subst_raw(values[stmt.source], dict(stmt.bindings), symbols,
                                      Env(symbols, values))
                else:
                    value = coeff(values[stmt.source], dict(stmt.key))
                values[stmt.name] = value
                emit(lambda: f"{stmt.name} = {print_expr(value)}")
            elif isinstance(stmt, LetMatrix):
                matrices[stmt.name] = coeff_matrix(values[stmt.source], stmt.vars)
                emit(lambda: f"{stmt.name} = {matrices[stmt.name].to_json()}")
            elif isinstance(stmt, Assertion):
                results.append(_run_assertion(
                    stmt, symbols, values, matrices, golden_text, seed, default_trials))
                emit(lambda: f"{stmt.label}: {'pass' if results[-1].passed else 'FAIL'}")
            else:
                raise EngineError(f"unsupported statement {type(stmt).__name__}")
        except SymcompError as err:
            if isinstance(err, SessionExecutionError):
                raise
            raise SessionExecutionError(session.name, step_index, err) from err
    return SessionReport(session.name, tuple(results))


def _run_assertion(stmt: Assertion, symbols: SymbolTable, values: dict,
                   matrices: dict, golden_text: GoldenLoader,
                   seed: int, default_trials: int) -> CheckpointResult:
    if stmt.kind == "matrix":
        actual_matrix = matrices.get(stmt.name)
        if actual_matrix is None:
            raise EngineError(f"{stmt.name!r} is not a coefficient matrix")
        payload = json.loads(golden_text(stmt.golden))
        ok, expected_text, actual_text = _compare_matrix(actual_matrix, payload, symbols)
        return CheckpointResult(stmt.label, stmt.kind, ok, expected_text, actual_text,
                                note=payload.get("note", ""))

    value = values.get(stmt.name)
    if value is None:
        raise EngineError(f"{stmt.name!r} is not an expression value")
    if stmt.kind == "zero":
        return CheckpointResult(stmt.label, stmt.kind, value.is_zero, "0", print_expr(value))
    if stmt.kind == "oracle":
        trials = stmt.trials if stmt.trials is not None else default_trials
        report = check_identity(value, trials, seed)
        detail = "exact zero on all trials" if report.passed \
            else json.dumps(report.counterexample.to_jsonable())
        return CheckpointResult(stmt.label, stmt.kind, report.passed,
                                f"0 on {trials} trials", detail)
    # equal / factored
    if stmt.golden is not None:
        raw = parse_expr(golden_text(stmt.golden))
    else:
        raw = stmt.expected_raw
    expected = canonicalize(raw, Env(symbols, values))
    ok = polyops.factored_equal(value, expected, symbols) if stmt.kind == "factored" \
        else equal(value, expected)
    return CheckpointResult(stmt.label, stmt.kind, ok,
                            print_expr(expected), print_expr(value))


def _compare_matrix(actual: CoeffMatrix, payload: dict,
                    symbols: SymbolTable) -> tuple[bool, str, str]:
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
    for row, actual_row in zip(rows, actual.rows):
        for entry_text, actual_entry in zip(row, actual_row):
            expected_entry = canonicalize(parse_expr(entry_text), env)
            if not equal(expected_entry, actual_entry):
                return False, expected_text, actual_text
    return True, expected_text, actual_text


# --- built-in catalog ---------------------------------------------------------

SESSION_ORDER = ("L1", "L2", "Z1", "Z2", "Z3", "Z4", "M")

_session_cache: dict[str, Session] = {}


def builtin_session_names() -> tuple[str, ...]:
    return SESSION_ORDER


def _data_dir():
    return files(__package__).joinpath("sessions")


def load_builtin_session(name: str) -> Session:
    if name not in SESSION_ORDER:
        raise EngineError(f"unknown session {name!r}")
    cached = _session_cache.get(name)
    if cached is None:
        text = _data_dir().joinpath(f"{name}.scs").read_text(encoding="utf-8")
        cached = parse_script(text, name)
        _session_cache[name] = cached
    return cached


def golden_loader(base) -> GoldenLoader:
    """Goldens under `base` (a Path or an importlib Traversable):
    NAME.expr, else NAME.json."""

    def load(name: str) -> str:
        for suffix in (".expr", ".json"):
            candidate = base.joinpath(name + suffix)
            if candidate.is_file():
                return candidate.read_text(encoding="utf-8")
        raise EngineError(f"missing golden {name!r} under {base}")

    return load


def builtin_golden_loader() -> GoldenLoader:
    return golden_loader(_data_dir().joinpath("goldens"))


def run_builtin_session(name: str, *, seed: int = 42, default_trials: int = 100,
                        trace: Callable[[str], None] | None = None) -> SessionReport:
    session = load_builtin_session(name)
    return run_session(session, goldens=builtin_golden_loader(), seed=seed,
                       default_trials=default_trials, trace=trace)
