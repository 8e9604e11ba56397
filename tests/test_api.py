"""The public API's argument contract, stated once as a table.

`ROWS` has a row for every callable that `symcomp` exports, for
`rules.instantiate_sides`, `oracle.random_assignment` and
`parser.tokenize`, and for `SymbolTable.index_of` and `sort_of`.  A row
holds a valid call: the callable and each positional argument as (name,
valid value, the kind it accepts, the error a value of any other kind
raises).  The sweep puts each value of `BAD` into each argument in turn.
A value the kind refuses must raise exactly the row's error: its class
and its message.  A value of the accepted kind must return or raise a
`SymcompError`; no other exception may escape.  The values the library
builds and hands back, and its error classes, have an empty row: their
constructors are not entry points.  `pin` and `raises` check one refused
value against its row, for the cases other test files name.
"""
from fractions import Fraction

import pytest

import symcomp
import symcomp.rawexpr as rx
from symcomp import (
    Assignment, Env, Expr, ParaQuaternion, RuleSet, ScalarExpr, Session, SymbolTable, VectorExpr,
    Word, apply_fixpoint, apply_once, b_of, builtin_ruleset, canonicalize, check_identity, coeff,
    coeff_matrix, compile_rule, dot, equal, eval_expr, load_builtin_session, parse_expr,
    parse_rule_source, parse_script, print_expr, q_of, run_builtin_session, run_session, subst,
    subst_raw,
)
from symcomp.core import is_exact, is_int
from symcomp.errors import ExprTypeError, SymcompError
from symcomp.oracle import random_assignment
from symcomp.parser import tokenize
from symcomp.rules import RewriteRule, instantiate_sides

ST = SymbolTable()
ST.declare_scalar("a")
for _name in ("x", "y"):
    ST.declare_vector(_name)
S = canonicalize(parse_expr("a*q(x)"), Env(ST))
V = canonicalize(parse_expr("x.y"), Env(ST))
(W,) = canonicalize(parse_expr("x"), Env(ST)).terms
RS = builtin_ruleset("rules1")
RULE = RS.rules[0]
LHS, RHS = parse_rule_source("b(X, Y) -> b(Y, X)")

# One value of each kind: the ill-kinded values of every argument.
BAD = (None, 3, True, "xy", b"x", 2.5, Fraction(1, 2), [1], (W, W), {"k": 1}, {"a": 1},
       S, V, W, ST)


def declare(name, sort):
    SymbolTable().declare(name, sort)


def value_error(cls, text):
    """An error whose message shows the refused value."""
    return lambda v: cls(f"{text}, got {v!r}")


def row(call, *args):
    """`call` and its arguments, each (name, valid value, kind[, error]).
    A kind is a type, a tuple of types or a predicate.  An error is a
    function of the refused value, a fixed exception, or a str: the text
    `core.require` puts before the refused value's type.  Left out, it
    is `core.require`'s error for the kind's first type."""
    out = []
    for name, valid, kind, *error in args:
        if not error:
            first = (kind[0] if isinstance(kind, tuple) else kind).__name__
            error = [f"{call.__name__} argument {name} must be "
                     f"{'an' if first[0] in 'AEIOU' else 'a'} {first}"]
        out.append((name, valid, kind, error[0]))
    return call, tuple(out)


# A class's row calls the entry point it offers: its constructor, or
# `SymbolTable.declare`, `ScalarExpr.const` and `Word.leaf`.  The methods
# that look a name up in a `SymbolTable` have rows of their own.
ROWS = {
    "Env": row(Env, ("symbols", ST, SymbolTable), ("bindings", {}, (dict, type(None)))),
    "SymbolTable": row(declare, ("name", "z", str), (
        "sort", "vector", lambda v: v in ("scalar", "vector"),
        value_error(ExprTypeError, "a symbol's sort must be 'scalar' or 'vector'"))),
    "SymbolTable.index_of": row(ST.index_of, (
        "name", "x", str, "SymbolTable.index_of argument name must be a str")),
    "SymbolTable.sort_of": row(ST.sort_of, (
        "name", "x", str, "SymbolTable.sort_of argument name must be a str")),
    "Word": row(Word.leaf, ("name", "x", str, "Word.leaf argument name must be a str"),
                ("index", 0, is_int, "Word.leaf argument index must be an int")),
    "ScalarExpr": row(ScalarExpr.const, (
        "value", 3, is_exact, value_error(ExprTypeError, "a number must be an int or a Fraction"))),
    "ParaQuaternion": row(ParaQuaternion, *[(name, 1, is_exact, value_error(
        SymcompError, "a ParaQuaternion component must be an int or a Fraction"))
        for name in "abcd"]),
    "equal": row(equal, *[(name, S, Expr, "equal compares Expr values") for name in "ab"]),
    "dot": row(dot, *[(name, V, VectorExpr, ExprTypeError("dot product requires vector operands"))
                      for name in "uv"]),
    "b_of": row(b_of, *[(name, V, VectorExpr, ExprTypeError("b applies to vector expressions"))
                        for name in "uv"]),
    "q_of": row(q_of, ("v", V, VectorExpr, ExprTypeError("q applies to vector expressions"))),
    "canonicalize": row(canonicalize, (
        "raw", parse_expr("q(x)"), rx.RawExpr,
        lambda v: ExprTypeError(f"unsupported raw node {type(v).__name__}")),
        ("env", Env(ST), Env)),
    "tokenize": row(tokenize, ("text", "q(x)", str)),
    "parse_expr": row(parse_expr, ("text", "q(x)", str)),
    "parse_rule_source": row(parse_rule_source, ("text", "q(X) -> X", str)),
    "parse_script": row(parse_script, ("text", "vectors x;", str), ("name", "s", str)),
    "run_session": row(run_session, ("session", parse_script("vectors x;"), Session)),
    "load_builtin_session": row(load_builtin_session, ("name", "L1", str)),
    "run_builtin_session": row(run_builtin_session, ("name", "L1", str)),
    "builtin_ruleset": row(builtin_ruleset, ("name", "rules1", str)),
    "RuleSet": row(RuleSet, ("name", "n", str), ("rules", (RULE,), tuple)),
    "compile_rule": row(compile_rule, ("name", "r", str), ("raw_lhs", LHS, rx.RawExpr),
                        ("raw_rhs", RHS, rx.RawExpr), ("allow_noop", False, object)),
    "apply_once": row(apply_once, ("e", S, Expr), ("rs", RS, RuleSet),
                      ("symbols", ST, SymbolTable)),
    "apply_fixpoint": row(apply_fixpoint, ("e", S, Expr), ("rs", RS, RuleSet),
                          ("symbols", ST, SymbolTable)),
    "subst": row(subst, ("e", S, Expr), ("bindings", {"x": V}, dict), ("symbols", ST, SymbolTable)),
    "subst_raw": row(subst_raw, ("e", S, Expr, "subst argument e must be an Expr"),
                     ("raw_bindings", {"x": parse_expr("y")}, dict),
                     ("symbols", ST, SymbolTable, "Env argument symbols must be a SymbolTable"),
                     ("env", None, (Env, type(None)), "canonicalize argument env must be an Env")),
    "coeff": row(coeff, ("e", S, Expr), ("key", {"a": 1}, dict)),
    "coeff_matrix": row(coeff_matrix, ("e", S, Expr), ("variables", ("a", "b"), tuple)),
    "print_expr": row(print_expr, ("e", S, Expr)),
    "check_identity": row(check_identity, ("e", S, Expr), (
        "trials", 3, lambda v: is_int(v) and 1 <= v <= 10_000,
        value_error(SymcompError, "trials must be between 1 and 10000")),
        ("seed", 42, is_int, value_error(SymcompError, "seed must be an integer"))),
    "eval_expr": row(eval_expr, ("e", S, Expr),
                     ("a", Assignment({"x": ParaQuaternion(1)}, {"a": 1}), Assignment)),
    "instantiate_sides": row(instantiate_sides, ("rule", RULE, RewriteRule),
                             ("binds", dict.fromkeys(RULE.variables, W), dict),
                             ("symbols", ST, SymbolTable,
                              "Env argument symbols must be a SymbolTable")),
    "random_assignment": row(random_assignment, *[
        (name, ["x"], (list, tuple), f"random_assignment argument {name} must be a list or tuple")
        for name in ("vector_names", "scalar_names")],
        ("seed", 0, is_int, value_error(SymcompError, "seed must be an integer")),
        ("trial", 0, is_int, value_error(SymcompError, "trial must be an integer"))),
    # Values the library hands back, and its errors: empty rows.
    **dict.fromkeys((
        "Expr", "VectorExpr", "Assignment", "IdentityReport", "Session", "CoeffMatrix",
        "RewriteRule", "CheckpointResult", "SessionReport", "SourceSpan", "SymcompError",
        "ParseError", "ChainedDotError", "ArityError", "UndefinedName", "RuleSetUnknown",
        "UnknownSymbol", "ExprTypeError", "NonTermination", "MissingSymbol", "EngineError")),
}
CALLS = [name for name, entry in ROWS.items() if entry]
ARGUMENTS = [(name, arg) for name in CALLS for arg, _, _, _ in ROWS[name][1]]


def accepts(kind, value) -> bool:
    if isinstance(kind, (type, tuple)):
        return isinstance(value, kind)
    return kind(value)


def call_with(name, arg=None, value=None):
    """The valid call of row `name`, with `value` in argument `arg` if
    one is named."""
    call, args = ROWS[name]
    values = [value if a == arg else valid for a, valid, _, _ in args]
    return lambda: call(*values)


def pin(name, arg, value):
    """A refused `value` in argument `arg` of row `name`: the call and
    the error that the row says it raises."""
    (kind, error), = [(kind, error) for a, _, kind, error in ROWS[name][1] if a == arg]
    assert not accepts(kind, value), f"{name} argument {arg} accepts {value!r}"
    if isinstance(error, str):
        error = ExprTypeError(f"{error}, got {type(value).__name__}")
    elif not isinstance(error, Exception):
        error = error(value)
    return call_with(name, arg, value), error


def outcome(call):
    try:
        call()
    except Exception as err:
        return err
    return None


def raises(case):
    """A (call, error) case holds: the call raises the error's exact
    class and message."""
    call, want = case
    got = outcome(call)
    assert (type(got), str(got)) == (type(want), str(want))


def test_every_exported_callable_has_a_row():
    exported = {name for name, value in vars(symcomp).items() if callable(value)}
    assert sorted(exported - ROWS.keys()) == []


@pytest.mark.parametrize("name", CALLS)
def test_the_valid_call_of_a_row_returns(name):
    call_with(name)()


@pytest.mark.parametrize("name, arg", ARGUMENTS, ids=[f"{n}-{a}" for n, a in ARGUMENTS])
def test_an_argument_of_another_kind_raises_the_row_error(name, arg):
    (kind,) = [kind for a, _, kind, _ in ROWS[name][1] if a == arg]
    wrong = []
    for bad in BAD:
        if accepts(kind, bad):
            got = outcome(call_with(name, arg, bad))
            ok = got is None or isinstance(got, SymcompError)
        else:
            call, want = pin(name, arg, bad)
            got = outcome(call)
            ok = (type(got), str(got)) == (type(want), str(want))
        if not ok:
            wrong.append((bad, got))
    assert wrong == []
