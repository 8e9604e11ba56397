"""Canonical forms: ordering, bilinearity, polarization, equality."""
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import symcomp.rawexpr as rx
from symcomp import (
    ScalarExpr,
    SymbolTable,
    VectorExpr,
    apply_fixpoint,
    apply_once,
    builtin_ruleset,
    builtin_session_names,
    canonicalize,
    equal,
    parse_expr,
    print_expr,
    sessions,
    subst,
)
from symcomp.core import (
    EMPTY_MONOMIAL,
    MAX_PRODUCT_PAIRS,
    MAX_WORD_LEAVES,
    Atom,
    Env,
    Word,
    _add_scaled,
    add_unit,
    b_of,
    dot,
    mono_mul,
    q_of,
    units,
)
from symcomp.errors import ExprTypeError, SourceSpan, SymcompError, UnknownSymbol
from symcomp.oracle import (
    Assignment,
    ParaQuaternion,
    _compile,
    check_identity,
    eval_expr,
    random_assignment,
)
from symcomp.parser import parse_rule_source, parse_script, tokenize
from symcomp.polyops import coeff, coeff_matrix, subst_raw
from symcomp.rules import RuleSet, compile_rule, instantiate_sides
from helpers import (
    Ctx,
    eval_raw,
    greek_ctx,
    random_ctx_assignment,
    random_raw,
    random_scalar_raw,
    random_vector_raw,
    scaling_family,
    scaling_source,
    stores_no_zero,
    values_agree,
)


def test_dot_distributes_over_sums(xyz):
    assert equal(xyz.canon("x.(y+z)"), xyz.canon("x.y + x.z"))
    assert equal(xyz.canon("(x+y).z"), xyz.canon("x.z + y.z"))


def test_dot_words_never_flatten(xyz):
    assert not equal(xyz.canon("(x.y).z"), xyz.canon("x.(y.z)"))


def test_q_extracts_scalars_quadratically():
    ctx = Ctx(scalars=("alpha",), vectors=("x", "y"))
    assert equal(ctx.canon("q(alpha*(x.y))"), ctx.canon("alpha^2*q(x.y)"))


def test_q_polarizes_pairwise(xy):
    assert equal(xy.canon("q(x+y)"), xy.canon("q(x) + q(y) + b(x,y)"))


def test_q_polarization_of_longer_sums():
    ctx = Ctx(vectors=("x", "y", "z"))
    expected = ctx.canon("q(x) + q(y) + q(z) + b(x,y) + b(x,z) + b(y,z)")
    assert equal(ctx.canon("q(x+y+z)"), expected)


def test_b_bilinear_with_signs():
    ctx = Ctx(scalars=("alpha",), vectors=("x", "y", "z"))
    got = ctx.canon("b(x - alpha*y, z)")
    assert equal(got, ctx.canon("b(x,z) - alpha*b(y,z)"))


def test_b_is_not_symmetrized(xy):
    assert not equal(xy.canon("b(x,y)"), xy.canon("b(y,x)"))


def test_q_of_dot_is_not_expanded(xy):
    # Multiplicativity is an axiom rule, not a definitional expansion.
    assert not equal(xy.canon("q(x.y)"), xy.canon("q(x)*q(y)"))


def test_zero_law_random():
    ctx = Ctx(scalars=("alpha", "beta"), vectors=("x", "y"))
    rng = random.Random(101)
    for _ in range(50):
        raw = random_raw(rng, ctx, depth=3)
        value = canonicalize(raw, ctx.env)
        assert (value - value).is_zero


def test_equality_is_reflexive_and_structural(xy):
    e = xy.canon("b(x,y)*q(x)*q(y)")
    assert equal(e, e)
    assert equal(xy.canon("b(x,y)*q(x)*q(y) - b(x,y)*q(x)*q(y)"), ScalarExpr())
    assert equal(xy.canon("q(x+y)"), xy.canon("q(x)+q(y)+b(x,y)"))


def test_equality_across_sorts(xy):
    from symcomp.core import VectorExpr
    assert equal(ScalarExpr(), VectorExpr()) and equal(VectorExpr(), ScalarExpr())
    for a, b in ((xy.canon("q(x)"), xy.canon("x")), (xy.canon("x.y"), xy.canon("b(x,y)")),
                 (ScalarExpr(), xy.canon("x")), (xy.canon("q(x)"), VectorExpr())):
        with pytest.raises(ExprTypeError, match="cannot compare scalar and vector values"):
            equal(a, b)


@pytest.mark.parametrize("text, other, kind", [
    ("0", 0, "int"), ("q(x)", 0, "int"), ("x", Fraction(1, 2), "Fraction"), ("q(x)", "q(x)", "str")])
def test_equal_refuses_an_operand_that_is_not_an_expr(xy, text, other, kind):
    # A plain number is not a canonical value, not even the zero.
    value = xy.canon(text)
    for a, b in ((value, other), (other, value)):
        with pytest.raises(ExprTypeError, match=f"^equal compares Expr values, got {kind}$"):
            equal(a, b)


ONE = Assignment({"x": ParaQuaternion(1)}, {})


@pytest.mark.parametrize("call, message", [
    (lambda e, rs, st: apply_once("x", rs, st), "apply_once argument e must be an Expr, got str"),
    (lambda e, rs, st: apply_once(e, "rules1", st),
     "apply_once argument rs must be a RuleSet, got str"),
    (lambda e, rs, st: apply_fixpoint(None, rs, st),
     "apply_fixpoint argument e must be an Expr, got NoneType"),
    (lambda e, rs, st: apply_fixpoint(e, "rules1", st),
     "apply_fixpoint argument rs must be a RuleSet, got str"),
    (lambda e, rs, st: check_identity("x"), "check_identity argument e must be an Expr, got str"),
    (lambda e, rs, st: eval_expr(0, ONE), "eval_expr argument e must be an Expr, got int"),
    (lambda e, rs, st: eval_expr(e, None),
     "eval_expr argument a must be an Assignment, got NoneType"),
    (lambda e, rs, st: print_expr(5), "print_expr argument e must be an Expr, got int"),
    (lambda e, rs, st: apply_once(e, rs, None),
     "apply_once argument symbols must be a SymbolTable, got NoneType"),
    (lambda e, rs, st: apply_fixpoint(e, rs, None),
     "apply_fixpoint argument symbols must be a SymbolTable, got NoneType"),
    (lambda e, rs, st: subst(e, {"x": e}, None),
     "subst argument symbols must be a SymbolTable, got NoneType"),
    (lambda e, rs, st: canonicalize(parse_expr("q(x)"), st),
     "canonicalize argument env must be an Env, got SymbolTable"),
], ids=["apply_once-value", "apply_once-ruleset", "apply_fixpoint-value",
        "apply_fixpoint-ruleset", "check_identity", "eval_expr-value", "eval_expr-assignment",
        "print_expr", "apply_once-symbols", "apply_fixpoint-symbols", "subst-symbols",
        "canonicalize-env"])
def test_library_call_refuses_an_argument_of_the_wrong_type(xy, call, message):
    # Each argument is checked where the call begins, by one check
    # (`core.require`), instead of failing later as an AttributeError.
    e, rs = xy.canon("b(x,y) + q(x)"), builtin_ruleset("rules1")
    with pytest.raises(ExprTypeError, match=f"^{re.escape(message)}$"):
        call(e, rs, xy.table)


@pytest.mark.parametrize("call, message", [
    (lambda e, st: coeff("a*q(x)", {"a": 1}), "coeff argument e must be an Expr, got str"),
    (lambda e, st: coeff(e, [("a", 1)]), "coeff argument key must be a dict, got list"),
    (lambda e, st: coeff(e, {"a": True}),
     "coeff argument key must give 'a' an int exponent >= 0, got bool"),
    (lambda e, st: coeff(e, {"a": 1.0}),
     "coeff argument key must give 'a' an int exponent >= 0, got float"),
    (lambda e, st: coeff(e, {"a": "1"}),
     "coeff argument key must give 'a' an int exponent >= 0, got str"),
    (lambda e, st: coeff(e, {"a": -1}),
     "coeff argument key must give 'a' an int exponent >= 0, got -1"),
    (lambda e, st: coeff_matrix(None, ("a", "b")),
     "coeff_matrix argument e must be an Expr, got NoneType"),
    (lambda e, st: coeff_matrix(e, ("a",)),
     "coeff_matrix argument variables must name two symbols, got 1"),
    (lambda e, st: subst("x", {}, st), "subst argument e must be an Expr, got str"),
    (lambda e, st: subst(e, [("x", e)], st), "subst argument bindings must be a dict, got list"),
    (lambda e, st: st.declare(3, "scalar"), "declare argument name must be a str, got int"),
    (lambda e, st: Env(None), "Env argument symbols must be a SymbolTable, got NoneType"),
    (lambda e, st: Env(st, [("y", 1)]), "Env argument bindings must be a dict, got list"),
], ids=["coeff-value", "coeff-key", "coeff-bool-exponent", "coeff-float-exponent",
        "coeff-str-exponent", "coeff-negative-exponent", "coeff_matrix-value",
        "coeff_matrix-one-name", "subst-value", "subst-bindings", "declare-name", "env-symbols",
        "env-bindings"])
def test_library_call_refuses_a_bad_argument_with_a_typed_error(call, message):
    # Unchecked, each of these fails later as an AttributeError or a
    # ValueError, or passes silently: an empty substitution returns the
    # str, a bool or float exponent reads as degree 1, an int is declared.
    ctx = Ctx(scalars=("a",), vectors=("x",))
    with pytest.raises(ExprTypeError, match=f"^{re.escape(message)}$"):
        call(ctx.canon("a*q(x)"), ctx.table)


_TEXT_CALLS = {"tokenize": tokenize, "parse_expr": parse_expr, "parse_script": parse_script,
               "parse_rule_source": parse_rule_source}
_NAME_CALLS = {"builtin_ruleset": builtin_ruleset,
               "load_builtin_session": sessions.load_builtin_session,
               "run_builtin_session": sessions.run_builtin_session}
_RULE = builtin_ruleset("rules1").rules[0]


@pytest.mark.parametrize("call, error, message", [
    *[(lambda st, f=f, t=t: f(t), ExprTypeError,
       f"{name} argument text must be a str, got {type(t).__name__}")
      for name, f in _TEXT_CALLS.items() for t in (None, b"x", 3)],
    *[(lambda st, f=f: f([]), ExprTypeError, f"{name} argument name must be a str, got list")
      for name, f in _NAME_CALLS.items()],
    (lambda st: sessions.run_session("s"), ExprTypeError,
     "run_session argument session must be a Session, got str"),
    (lambda st: compile_rule("r", "x", "y"), ExprTypeError,
     "compile_rule argument raw_lhs must be a RawExpr, got str"),
    (lambda st: RuleSet("n", (1,)), ExprTypeError,
     "RuleSet argument rules must hold RewriteRule values, got int"),
    (lambda st: instantiate_sides("r", {}, st), ExprTypeError,
     "instantiate_sides argument rule must be a RewriteRule, got str"),
    (lambda st: instantiate_sides(_RULE, None, st), ExprTypeError,
     "instantiate_sides argument binds must be a dict, got NoneType"),
    (lambda st: eval_expr(ScalarExpr.const(1), Assignment(None, None)), ExprTypeError,
     "eval_expr argument a.vectors must be a dict, got NoneType"),
    (lambda st: eval_expr(ScalarExpr.const(1), Assignment({}, None)), ExprTypeError,
     "eval_expr argument a.scalars must be a dict, got NoneType"),
    (lambda st: random_assignment(["x"], [], "s", 0), SymcompError,
     "seed must be an integer, got 's'"),
    (lambda st: random_assignment(["x"], [], 0, 1.0), SymcompError,
     "trial must be an integer, got 1.0"),
    (lambda st: st.index_of("zz"), UnknownSymbol, "undeclared identifier 'zz'"),
], ids=[*[f"{name}-{type(t).__name__}" for name in _TEXT_CALLS for t in (None, b"x", 3)],
        *_NAME_CALLS, "run_session", "compile_rule", "RuleSet", "instantiate_sides-rule",
        "instantiate_sides-binds", "eval_expr-vectors", "eval_expr-scalars",
        "random_assignment-seed", "random_assignment-trial", "index_of"])
def test_entry_point_refuses_a_bad_argument_with_a_typed_error(xy, call, error, message):
    # Unchecked, each of these fails inside the library with a TypeError,
    # an AttributeError or a KeyError instead of a SymcompError.
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(xy.table)


@pytest.mark.parametrize("text, column", [("y", 1), ("y + q(x)", 1), ("y*q(x)", 1),
                                          ("q(x) + y", 8)])
def test_a_binding_that_is_not_a_value_is_refused_at_its_name(xy, text, column):
    # A bound int used to canonicalize to itself, and a sum or product
    # with it used to drop it without a word.
    with pytest.raises(ExprTypeError) as err:
        canonicalize(parse_expr(text), Env(xy.table, {"y": 3}))
    assert str(err.value) == f"1:{column}: name 'y' must be bound to an Expr, got int"


_ROOT = SourceSpan(7, 3)


def _deep(node, n, make, root=_ROOT):
    # The root alone gets the span `root`.
    for k in range(n):
        node = make(node, root if k == n - 1 else SourceSpan(1, 1))
    return node


def _neg_chain(n):
    return _deep(rx.Ident("x", SourceSpan(1, 1)), n, lambda node, span: rx.Neg(node, span))


def _dot_chain(n, root=_ROOT):
    return _deep(rx.Ident("X", SourceSpan(1, 1)), n,
                 lambda node, span: rx.Dot(node, rx.Ident("X", span), span), root)


def _apply_deep_rhs(xy):
    rhs = rx.Q(_dot_chain(5000, SourceSpan(1, 1)), _ROOT)
    rs = RuleSet("deep", (compile_rule("deep#1", parse_expr("q(X)"), rhs),))
    return apply_once(xy.canon("q(x)"), rs, xy.table)


@pytest.mark.parametrize("call", [
    lambda xy: canonicalize(_neg_chain(5000), xy.env),
    lambda xy: subst_raw(xy.canon("q(x)"), {"x": _neg_chain(5000)}, xy.table),
    lambda xy: compile_rule("deep#1", _dot_chain(5000), rx.Ident("X", SourceSpan(1, 1))),
    _apply_deep_rhs,
], ids=["canonicalize", "subst_raw", "compile_rule", "apply_once-rhs"])
def test_a_hand_built_tree_too_deep_to_walk_is_a_typed_error_at_its_root(xy, call):
    # The parser bounds nesting, a hand-built tree does not; its walk used
    # to end in RecursionError.
    with pytest.raises(ExprTypeError) as err:
        call(xy)
    assert str(err.value) == "7:3: expression nested too deeply"


def test_a_moderately_deep_hand_built_tree_still_canonicalizes(xy):
    assert equal(canonicalize(_neg_chain(200), xy.env), xy.canon("x"))


def test_atom_order_examples(xy):
    x = xy.word("x")
    x_dot_y = xy.word("x.y")
    assert x.key < x_dot_y.key                             # leaf count first
    bxy = Atom.b(xy.word("x"), xy.word("y"))
    byx = Atom.b(xy.word("y"), xy.word("x"))
    assert bxy.key < byx.key                               # declaration order
    qx = Atom.q(xy.word("x"))
    bxx = Atom.b(xy.word("x"), xy.word("x"))
    assert qx.key < bxx.key                                # kind order: q < b


def test_type_errors(xy):
    with pytest.raises(ExprTypeError):
        xy.canon("q(x) + y")
    with pytest.raises(ExprTypeError):
        xy.canon("x*y")
    with pytest.raises(ExprTypeError):
        xy.canon("q(q(x))")
    with pytest.raises(ExprTypeError):
        xy.canon("x^2")


def test_unknown_symbol(xy):
    with pytest.raises(UnknownSymbol) as err:
        xy.canon("q(x) +\n  q(w)")
    assert str(err.value) == "2:5: undeclared identifier 'w'"


def test_vector_sum_tolerates_scalar_zero(xy):
    assert equal(xy.canon("0 + x"), xy.canon("x"))


def _fold_reference(raw, env):
    """A sum's value as the left fold of `+` over its canonicalized parts,
    dropping zero parts of the other sort: the sort of the nonzero parts,
    or a vector when every part is zero and one is a vector."""
    parts = [canonicalize(item, env) for item in raw.items]
    nonzero = [p for p in parts if not p.is_zero]
    if nonzero:
        sort = type(nonzero[0])
    else:
        sort = VectorExpr if any(isinstance(p, VectorExpr) for p in parts) else ScalarExpr
    parts = [p for p in parts if type(p) is sort]
    acc = parts[0]
    for p in parts[1:]:
        acc = acc + p
    return acc


def test_sum_equals_left_fold_of_its_parts():
    ctx = Ctx(scalars=("alpha", "beta"), vectors=("x", "y"))
    rng = random.Random(19)
    sums = [parse_expr("x + y - x + x"), parse_expr("x - x + 0 + y - y"),
            parse_expr("0*alpha + x.y"), parse_expr("(alpha - alpha) + x"),
            parse_expr("(x - x) + q(x)"), parse_expr("q(x) + 0*x"), parse_expr("(x - x) + 0"),
            parse_expr("(alpha - alpha) + (x - x)")]
    for _ in range(60):
        make = rng.choice((random_scalar_raw, random_vector_raw))
        sums.append(rx.Sum(tuple(make(rng, ctx, 2) for _ in range(rng.randint(2, 6)))))
    for raw in sums:
        value = canonicalize(raw, ctx.env)
        assert value == _fold_reference(raw, ctx.env)
        assert stores_no_zero(value)
    assert print_expr(ctx.canon("x + y - x + x")) == "x + y"


def test_sum_of_mixed_sorts_names_the_summand(xy):
    with pytest.raises(ExprTypeError) as err:
        xy.canon("q(x) + x")
    assert (err.value.span.line, err.value.span.column) == (1, 1)
    assert str(err.value) == "1:1: cannot add scalar and vector values"


def test_library_sum_of_mixed_sorts_is_an_error(xy):
    scalar, vector = xy.canon("q(x)"), xy.canon("x")
    for bad in (lambda: scalar + vector, lambda: vector + scalar,
                lambda: scalar - vector, lambda: vector - scalar):
        with pytest.raises(ExprTypeError, match="cannot add scalar and vector values"):
            bad()
    # A zero of either sort adds as nothing, as in a parsed sum.
    scalar_zero, vector_zero = xy.canon("q(x) - q(x)"), xy.canon("x - x")
    assert vector + scalar_zero == vector and scalar_zero + vector == vector
    assert vector - scalar_zero == vector and print_expr(scalar_zero - vector) == "-x"
    assert scalar + vector_zero == scalar and vector_zero - scalar == -scalar
    assert xy.canon("(x - x) + q(x)") == scalar and xy.canon("q(x) + 0*x") == scalar
    # A sum of zeros is a vector if any part is one.
    assert scalar_zero + vector_zero == vector_zero and vector_zero + scalar_zero == vector_zero
    assert xy.canon("(x - x) + 0") == vector_zero
    assert xy.canon("((x - x) + 0).y") == vector_zero


def test_library_sum_with_a_number(xy):
    # A number on either side of + or - is the scalar constant it names.
    x = xy.canon("x")
    qx = q_of(x)
    for value, source in ((qx + 1, "q(x) + 1"), (qx - 1, "q(x) - 1"),
                          (1 + qx, "1 + q(x)"), (1 - qx, "1 - q(x)"),
                          (Fraction(1, 2) + qx, "1/2 + q(x)"), (2 - qx - 2, "-q(x)")):
        assert equal(value, xy.canon(source)), source
    for bad in (lambda: x + 1, lambda: 1 + x, lambda: x - 1, lambda: 1 - x):
        with pytest.raises(ExprTypeError, match="cannot add scalar and vector values"):
            bad()
    # 0 is a zero of either sort, which adds as nothing.
    assert x + 0 == x and 0 + x == x and x - 0 == x and equal(0 - x, xy.canon("-x"))


def test_library_product_with_a_number_or_a_value(xy):
    # A number or a scalar scales a vector, on either side of *.
    x, v = xy.canon("x"), xy.canon("x.y")
    qx = q_of(x)
    for value, source in ((2 * v, "2*(x.y)"), (v * 2, "2*(x.y)"),
                          (Fraction(1, 3) * v, "1/3*(x.y)"), (v * Fraction(-1, 2), "-1/2*(x.y)"),
                          (qx * v, "q(x)*(x.y)"), (v * qx, "q(x)*(x.y)"),
                          (2 * qx, "2*q(x)"), (qx * 2, "2*q(x)"), (qx * qx, "q(x)^2"),
                          ((qx + 1) * (qx - 1), "q(x)^2 - 1"), (0 * v, "0*(x.y)")):
        assert type(value) is type(xy.canon(source)), source
        assert equal(value, xy.canon(source)), source
    with pytest.raises(ExprTypeError, match=r"vector\*vector is not defined; use the dot product"):
        v * v


@pytest.mark.parametrize("form, message", [
    ("dot(a, x)", "dot product requires vector operands"),
    ("dot(x, a)", "dot product requires vector operands"),
    ("q_of(a)", "q applies to vector expressions"),
    ("b_of(a, x)", "b applies to vector expressions"),
    ("b_of(x, a)", "b applies to vector expressions"),
    ("x ** 2", "powers apply to scalar expressions only"),
])
def test_library_vector_operation_on_a_scalar_is_an_error(xy, form, message):
    x, a = xy.canon("x"), xy.canon("q(x)")
    with pytest.raises(ExprTypeError, match=f"^{message}$"):
        eval(form, {"x": x, "a": a, "dot": dot, "q_of": q_of, "b_of": b_of})


@pytest.mark.parametrize("form", [
    "q * 0.1", "0.1 * q", "q + 0.1", "0.1 + q", "q - 0.1", "0.1 - q", "q + 'a'", "'a' + q",
    "q - 'a'", "'a' * q", "q * 'a'", "v * 0.5", "0.5 * v", "q ** 0.5", "q ** Fraction(1, 2)",
    "q * True", "True * q", "q + True", "True - q", "v * False",
])
def test_library_operand_that_is_not_an_exact_number_is_a_type_error(xy, form):
    # Only int and Fraction operands are lifted (a bool is not a number);
    # a float would carry its binary fraction into the exact coefficients.
    q, v = q_of(xy.canon("x")), xy.canon("x.y")
    with pytest.raises(TypeError):
        eval(form, {"q": q, "v": v, "Fraction": Fraction})


@pytest.mark.parametrize("value", [0.1, "2", True])
def test_const_refuses_a_number_that_is_not_exact(value):
    message = f"^a number must be an int or a Fraction, got {re.escape(repr(value))}$"
    with pytest.raises(ExprTypeError, match=message):
        ScalarExpr.const(value)


def test_canonicalize_places_an_inexact_number_at_its_span(greek):
    span = SourceSpan(2, 7)
    raw = rx.Mul((rx.Num(0.1, span), rx.Ident("alpha")))
    with pytest.raises(ExprTypeError) as err:
        canonicalize(raw, greek.env)
    assert err.value.span == span
    assert str(err.value) == "2:7: a number must be an int or a Fraction, got 0.1"


@pytest.mark.parametrize("sort", ["matrix", "Scalar", None])
def test_a_symbol_is_declared_scalar_or_vector_only(sort):
    table = SymbolTable()
    with pytest.raises(ExprTypeError) as err:
        table.declare("z", sort)
    assert str(err.value) == f"a symbol's sort must be 'scalar' or 'vector', got {sort!r}"
    assert table.sort_of("z") is None


def test_redeclaring_a_symbol_with_the_other_sort_is_an_error():
    table = SymbolTable()
    table.declare_vector("x")
    table.declare_vector("x")
    with pytest.raises(ExprTypeError, match="symbol 'x' redeclared with a different sort"):
        table.declare_scalar("x")


def test_negative_power_is_an_error(greek):
    with pytest.raises(ExprTypeError, match="negative powers are not supported"):
        greek.canon("lambda + 1") ** -1


def test_canonicalize_agrees_with_direct_evaluation():
    # Independent route: evaluate the raw tree recursively in the model and
    # compare against evaluation of the canonical form.
    ctx = Ctx(scalars=("alpha", "beta"), vectors=("x", "y"))
    rng = random.Random(2024)
    for _ in range(100):
        raw = random_raw(rng, ctx, depth=3)
        value = canonicalize(raw, ctx.env)
        a = random_ctx_assignment(rng, ctx)
        assert values_agree(eval_raw(raw, a), eval_expr(value, a))
    # Words and atoms that share subwords: the oracle evaluates each once
    # per run, the raw route at every occurrence.
    ctx, value = scaling_family(3)
    raw = parse_expr(scaling_source(3))
    for _ in range(10):
        a = random_ctx_assignment(rng, ctx)
        assert values_agree(eval_raw(raw, a), eval_expr(value, a))


def test_polarization_consistency_under_oracle(xy):
    # b(u, v) evaluates to q(u+v) - q(u) - q(v) for random vector values.
    rng = random.Random(5)
    u = xy.canon("x.y")
    v = xy.canon("y.(y.x)")
    from symcomp.core import b_of, q_of
    lhs = b_of(u, v)
    rhs = q_of(u + v) - q_of(u) - q_of(v)
    for _ in range(25):
        a = random_ctx_assignment(rng, xy)
        assert eval_expr(lhs, a) == eval_expr(rhs, a)


def test_print_reparse_idempotence():
    ctx = Ctx(scalars=("alpha", "beta"), vectors=("x", "y"))
    rng = random.Random(77)
    for _ in range(60):
        value = canonicalize(random_raw(rng, ctx, depth=3), ctx.env)
        assert equal(ctx.canon(print_expr(value)), value)


def test_huge_power_is_one_monomial(greek):
    # square-and-multiply: a million-fold power costs about twenty products
    value = greek.canon("lambda^1000000")
    ((mono, coeff),) = value.terms.items()
    ((atom, exp),) = mono
    assert (atom.name, exp, coeff) == ("lambda", 1000000, 1)


def test_power_of_a_sum_is_bounded(greek):
    from symcomp.core import MAX_POWER
    base = greek.canon("1 + lambda")
    assert len((base ** MAX_POWER).terms) == MAX_POWER + 1
    with pytest.raises(ExprTypeError) as err:
        base ** (MAX_POWER + 1)
    assert err.value.span is None
    with pytest.raises(ExprTypeError) as err:
        greek.canon("mu*(lambda - 1)^300")
    assert str(err.value) == f"1:16: power 300 of a sum exceeds the bound {MAX_POWER}"
    # subst raises a power of a bound value through the same bound.
    with pytest.raises(ExprTypeError):
        subst(greek.canon("lambda^300"), {"lambda": base}, greek.table)


@pytest.mark.parametrize("source, caret", [
    ("3^99999999999", "1:2"),
    ("(2*alpha)^99999999999", "1:10"),
], ids=["number", "monomial"])
def test_power_bounds_the_bits_of_its_coefficient(greek, source, caret):
    from symcomp.core import MAX_POWER_BITS
    # Each squaring doubles the coefficient: this ran for minutes.
    start = time.perf_counter()
    with pytest.raises(ExprTypeError) as err:
        greek.canon(source)
    assert time.perf_counter() - start < 1.0
    assert str(err.value) == (f"{caret}: power 99999999999 of a 2-bit coefficient exceeds "
                              f"the bound of {MAX_POWER_BITS} bits")


def test_power_of_a_small_or_unit_coefficient_passes(greek):
    from symcomp.core import MAX_POWER_BITS
    assert greek.canon("2^1000*x - 2^1000*x").is_zero
    # 2 has 2 bits: the largest power under the bound, and one past it.
    half = MAX_POWER_BITS // 2
    ((_, coeff),) = greek.canon(f"2^{half}").terms.items()
    assert coeff == 2 ** half
    with pytest.raises(ExprTypeError):
        greek.canon(f"2^{half + 1}")
    # Coefficients of +-1 never grow, so their monomials stay unbounded.
    for source, sign in [("alpha^99999999999", 1), ("(-alpha)^99999999999", -1),
                         ("(-1)^99999999999", -1)]:
        ((_, coeff),) = greek.canon(source).terms.items()
        assert coeff == sign


def test_power_of_a_sum_bounds_its_term_count():
    from symcomp.core import MAX_POWER_TERMS
    # A t-term square has t(t + 1)/2 terms: 4095 for t = 90 is under the
    # bound, 4186 for t = 91 over it.
    names = [f"a{i}" for i in range(91)]
    wide = Ctx(scalars=tuple(names), vectors=())
    assert len((wide.canon(" + ".join(names[:90])) ** 2).terms) == 4095
    with pytest.raises(ExprTypeError) as err:
        wide.canon(" + ".join(names)) ** 2
    assert str(err.value) == (f"power 2 of a sum of 91 terms has up to 4186 terms, "
                              f"over the bound {MAX_POWER_TERMS}")
    # A product is bounded by its term pairs, not by MAX_POWER_TERMS, and a
    # first power is its base, however many terms it has.
    big = wide.canon("(" + " + ".join(names) + ")*(" + " + ".join(names) + ")")
    assert len(big.terms) == 4186
    assert big ** 1 is big


def test_product_bounds_its_term_pairs(greek):
    from symcomp.core import add_product
    # The check comes before any work, so these keys need not be monomials.
    with pytest.raises(ExprTypeError) as err:
        add_product({}, dict.fromkeys(range(1025), 1), dict.fromkeys(range(1024), 1))
    assert str(err.value) == ("product of 1025 and 1024 terms has 1049600 term pairs, "
                              f"over the bound {MAX_PRODUCT_PAIRS}")
    # The largest power under MAX_POWER_TERMS multiplies 351 by 2145 terms
    # ((s+t+u)^25 by (s+t+u)^64) and stays under the bound.
    assert len(greek.canon("(alpha+beta+lambda)^89").terms) == 4095
    # canonicalize gives the error the span of the product it reduces.
    with pytest.raises(ExprTypeError) as err:
        greek.canon("mu + (alpha+beta+lambda)^44*(alpha+beta+lambda)^44")
    assert str(err.value).startswith("1:6: product of 1035 and 1035 terms")


def test_add_scaled_multiplies_scales_and_drops_cancelled_terms(xy):
    qx = ((Atom.q(xy.word("x")), 1),)
    bxy = ((Atom.b(xy.word("x"), xy.word("y")), 1),)
    terms = {qx: 2, bxy: Fraction(1, 2)}
    before = dict(terms)
    acc = {mono_mul(qx, qx): -6, EMPTY_MONOMIAL: 1}
    _add_scaled(acc, 3, qx, terms)
    # `rest` is multiplied into each monomial and `coeff` scales each
    # coefficient; 3 * 2 q(x)^2 cancels the -6 and leaves no key.
    assert acc == {EMPTY_MONOMIAL: 1, mono_mul(qx, bxy): Fraction(3, 2)}
    assert terms == before


def test_rebuilt_unit_bounds_its_term_pairs():
    # The check comes before any work, so these keys need not be monomials.
    out = {}
    with pytest.raises(ExprTypeError) as err:
        add_unit(out, 1, EMPTY_MONOMIAL, None,
                 ScalarExpr(dict.fromkeys(range(MAX_PRODUCT_PAIRS + 1), 1)))
    assert str(err.value) == ("product of 1 and 1048577 terms has 1048577 term pairs, "
                              "over the bound 1048576")
    assert out == {}


def _words(n):
    # The whole-product checks come before any work, so these keys need
    # not be words.
    return VectorExpr(dict.fromkeys(range(n), ScalarExpr.const(1)))


@pytest.mark.parametrize("product, m, n, pairs", [
    (lambda: dot(_words(1025), _words(1024)), 1025, 1024, 1049600),
    (lambda: b_of(_words(1024), _words(1025)), 1024, 1025, 1049600),
    (lambda: q_of(_words(1448)), 1448, 1448, 1049076),
    (lambda: _words(1025) * ScalarExpr(dict.fromkeys(range(1024), 1)), 1025, 1024, 1049600),
], ids=["dot", "b", "q", "scalar-factor"])
def test_whole_vector_product_bounds_its_term_pairs(product, m, n, pairs):
    # Each pair of words multiplies one term by one, under the bound of a
    # single multiplication; the whole product is counted up front.
    with pytest.raises(ExprTypeError) as err:
        product()
    assert str(err.value) == (f"product of {m} and {n} terms has {pairs} term pairs, "
                              f"over the bound {MAX_PRODUCT_PAIRS}")


def test_power_equals_repeated_product(greek):
    base = greek.canon("1 + lambda")
    product = ScalarExpr.const(1)
    for k in range(7):
        assert equal(base ** k, product), k
        product = product * base


# The oracle's plan names the symbols a trial draws values for.

def test_symbols_of_a_vector_value_include_its_coefficients():
    ctx = Ctx(scalars=("lambda", "mu"), vectors=("u", "w", "x", "y", "z"))
    # z, u and w occur only inside the coefficients of the words x and x.y
    plan = _compile(ctx.canon("lambda*q(z)*x + b(u,w)*(x.y)"))
    assert plan.vectors == ["u", "w", "x", "y", "z"]
    assert plan.scalars == ["lambda"]


def test_symbols_of_scalar_and_zero_values():
    from symcomp.core import VectorExpr
    ctx = Ctx(scalars=("lambda", "mu"), vectors=("u", "w", "x", "y", "z"))
    plan = _compile(ctx.canon("mu*b(x.(y.u), z) + q(w)"))
    assert plan.vectors == ["u", "w", "x", "y", "z"]
    assert plan.scalars == ["mu"]
    for zero in (ScalarExpr(), VectorExpr()):
        plan = _compile(zero)
        assert plan.vectors == plan.scalars == []


# --- interned words and atoms, integer coefficients ---------------------------


def test_words_and_atoms_are_built_once(xy):
    x, y = Word.leaf("x", 0), Word.leaf("y", 1)
    assert Word.leaf("x", 0) is x
    assert Word.pair(Word.pair(x, y), x) is Word.pair(Word.pair(x, y), x)
    assert xy.word("(x.y).x") is Word.pair(Word.pair(x, y), x)
    assert Atom.q(x) is Atom.q(Word.leaf("x", 0))
    assert Atom.b(x, y) is Atom.b(x, y) and Atom.b(x, y) is not Atom.b(y, x)
    assert Atom.symbol("alpha", 0) is Atom.symbol("alpha", 0)
    ((first, _),) = xy.mono("b(x.y, x)")
    ((second, _),) = xy.mono("b(x.y, x)")
    assert first is second is Atom.b(Word.pair(x, y), x)


def test_words_are_bounded_in_leaves(xy):
    # A chain of MAX_WORD_LEAVES leaves is built, printed, evaluated and
    # rewritten; one more leaf is an error, at the dot in a parsed value.
    y = xy.canon("y")
    chain = xy.canon("x")
    for _ in range(MAX_WORD_LEAVES - 1):
        chain = dot(chain, y)
    ((w, _),) = chain.terms.items()
    assert w.leaves == MAX_WORD_LEAVES
    assert print_expr(chain) == "(" * (MAX_WORD_LEAVES - 1) + "x" + ".y)" * (MAX_WORD_LEAVES - 1)
    expected = xy.canon(f"q(x)*q(y)^{MAX_WORD_LEAVES - 1}")
    assert check_identity(q_of(chain) - expected, 3, 42).passed
    assert equal(apply_fixpoint(q_of(chain), builtin_ruleset("rules2"), xy.table), expected)
    message = f"dot-word of {MAX_WORD_LEAVES + 1} leaves exceeds the bound {MAX_WORD_LEAVES}"
    with pytest.raises(ExprTypeError, match=message):
        Word.pair(w, xy.word("y"))
    with pytest.raises(ExprTypeError, match=message) as err:
        canonicalize(parse_expr("q(c.y)"), Env(xy.table, {"c": chain}))
    assert (err.value.span.line, err.value.span.column) == (1, 4)


def test_declaration_order_tells_words_apart():
    forward = Ctx(scalars=("alpha", "beta"), vectors=("x", "y"))
    backward = Ctx(scalars=("beta", "alpha"), vectors=("y", "x"))
    assert forward.word("x") is not backward.word("x")
    assert forward.word("x.y") is not backward.word("x.y")
    assert forward.mono("alpha") != backward.mono("alpha")
    assert not equal(forward.canon("q(x.y)"), backward.canon("q(x.y)"))


def _coefficient_types(e):
    return {type(c) for _, _, c in units(e)}


def test_scale_normal_form_has_int_coefficients():
    ctx, e = scaling_family(4)
    result = apply_fixpoint(e, builtin_ruleset("rules2"), ctx.table)
    assert len(result.terms) > 100
    assert _coefficient_types(e) == _coefficient_types(result) == {int}


def test_paper_catalog_values_have_int_coefficients(monkeypatch):
    # With a trace on, a session prints every value it computes.
    seen = []

    def recording(e):
        seen.append(e)
        return print_expr(e)

    monkeypatch.setattr(sessions, "print_expr", recording)
    for name in builtin_session_names():
        sessions.run_builtin_session(name, trace=lambda line: None)
    assert len(seen) > 50
    assert set().union(*map(_coefficient_types, seen)) == {int}


def test_rational_coefficients_stay_exact(greek):
    assert print_expr(greek.canon("1/2*x + 1/2*x")) == "x"
    assert print_expr(greek.canon("1/2*q(x) + 1/2*q(x)")) == "q(x)"
    assert print_expr(greek.canon("3/2*b(x,y) + 1/2*b(x,y)")) == "2*b(x,y)"
    assert equal(greek.canon("1/3*x + 2/3*x"), greek.canon("x"))
    third = greek.canon("1/3*lambda*q(x)")
    value = subst(third, {"lambda": greek.canon("mu + 1")}, greek.table)
    assert print_expr(value) == "1/3*q(x) + 1/3*mu*q(x)"
    tripled = subst(third, {"x": greek.canon("3*x")}, greek.table)
    assert equal(tripled, greek.canon("3*lambda*q(x)"))


# --- property: canonicalize agrees with raw evaluation ------------------------

PROP_CTX = Ctx(scalars=("alpha", "beta"), vectors=("x", "y"))
_numbers = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 1, 2, 3))).map(rx.Num)


@st.composite
def _raw_tree(draw, vector: bool, depth: int):
    """A raw tree of the given sort over PROP_CTX, at most `depth` deep."""
    def sub(sort_is_vector):
        return draw(_raw_tree(sort_is_vector, depth - 1))

    if vector:
        kind = "ident" if depth == 0 else draw(
            st.sampled_from(("ident", "dot", "sum", "mul", "neg")))
        if kind == "ident":
            return rx.Ident(draw(st.sampled_from(PROP_CTX.vectors)))
        if kind == "dot":
            return rx.Dot(sub(True), sub(True))
        if kind == "sum":
            return rx.Sum(tuple(draw(st.lists(_raw_tree(True, depth - 1), min_size=2, max_size=3))))
        if kind == "mul":
            return rx.Mul((sub(False), sub(True)))
        return rx.Neg(sub(True))
    if depth == 0:
        return draw(st.one_of(_numbers, st.sampled_from(PROP_CTX.scalars).map(rx.Ident)))
    kind = draw(st.sampled_from(("num", "ident", "q", "b", "sum", "mul", "pow", "neg")))
    if kind == "num":
        return draw(_numbers)
    if kind == "ident":
        return rx.Ident(draw(st.sampled_from(PROP_CTX.scalars)))
    if kind == "q":
        return rx.Q(sub(True))
    if kind == "b":
        return rx.B(sub(True), sub(True))
    if kind == "sum":
        return rx.Sum((sub(False), sub(False)))
    if kind == "mul":
        return rx.Mul((sub(False), sub(False)))
    if kind == "pow":
        return rx.Pow(sub(False), draw(st.integers(2, 3)))
    return rx.Neg(sub(False))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(raw=st.booleans().flatmap(lambda vector: _raw_tree(vector, 3)),
       seed=st.integers(0, 2**32))
def test_canonicalize_agrees_with_raw_evaluation_property(raw, seed):
    value = canonicalize(raw, Env(PROP_CTX.table))
    a = random_ctx_assignment(random.Random(seed), PROP_CTX)
    assert values_agree(eval_raw(raw, a), eval_expr(value, a))
    assert stores_no_zero(value)


@pytest.mark.parametrize("source, expected", [
    ("(alpha + beta)*(alpha - beta)", "alpha^2 - beta^2"),
    ("(alpha + beta)*((alpha - beta)*x)", "(alpha^2 - beta^2)*x"),
    ("((alpha + beta)*x).((alpha - beta)*y)", "(alpha^2 - beta^2)*(x.y)"),
    ("b((alpha + beta)*x, (alpha - beta)*y)", "alpha^2*b(x,y) - beta^2*b(x,y)"),
], ids=["scalar", "scaled-vector", "dot", "b"])
def test_cross_terms_cancel_inside_one_product(source, expected):
    value = greek_ctx().canon(source)
    assert print_expr(value) == expected
    assert stores_no_zero(value)
    assert len(list(units(value))) == 2


# --- monomial products --------------------------------------------------------

_MONO_ATOMS = sorted(
    [Atom.symbol(name, k) for k, name in enumerate(("alpha", "beta", "gamma"))]
    + [Atom.q(w) for w in (Word.leaf("x", 0), Word.pair(Word.leaf("x", 0), Word.leaf("y", 1)))]
    + [Atom.b(Word.leaf("x", 0), Word.leaf("y", 1)), Atom.b(Word.leaf("y", 1), Word.leaf("x", 0)),
       Atom.b(Word.leaf("x", 0), Word.pair(Word.leaf("y", 1), Word.leaf("x", 0)))],
    key=lambda atom: atom.key)


def _mono_reference(m1, m2):
    """The product the slow way: exponents summed in a dict, then sorted by key."""
    exps: dict = {}
    for atom, exp in m1 + m2:
        exps[atom] = exps.get(atom, 0) + exp
    return tuple(sorted(exps.items(), key=lambda entry: entry[0].key))


def _mono(ranks, exps=None):
    return tuple((_MONO_ATOMS[r], 1 if exps is None else exps[k]) for k, r in enumerate(ranks))


@pytest.mark.parametrize("ranks1, ranks2", [
    ((0, 1), (3, 5)),        # disjoint, ascending: a concatenation
    ((4, 6), (0, 2)),        # disjoint, descending
    ((0, 3, 6), (1, 4, 7)),  # interleaved
    ((1, 3), (3, 6)),        # m1's last atom is m2's first: merged, not concatenated
    ((2, 5), (0, 2, 5, 7)),  # shared atoms among others
    ((), (1, 2)), ((1, 2), ()),
], ids=["ascending", "descending", "interleaved", "shared-seam", "shared", "empty-left",
        "empty-right"])
def test_mono_mul_cases(ranks1, ranks2):
    m1, m2 = _mono(ranks1), _mono(ranks2)
    product = mono_mul(m1, m2)
    assert product == _mono_reference(m1, m2)
    assert len({atom for atom, _ in product}) == len(product)


def test_mono_mul_merges_an_atom_shared_at_the_seam():
    m1, m2 = _mono((1, 3), (1, 2)), _mono((3, 6), (4, 1))
    assert mono_mul(m1, m2) == _mono((1, 3, 6), (1, 6, 1))


_monos = st.lists(st.tuples(st.integers(0, len(_MONO_ATOMS) - 1), st.integers(1, 3)),
                  max_size=len(_MONO_ATOMS)).map(
    lambda entries: tuple(sorted({_MONO_ATOMS[r]: e for r, e in entries}.items(),
                                 key=lambda entry: entry[0].key)))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(m1=_monos, m2=_monos)
def test_mono_mul_agrees_with_a_reference_merge_property(m1, m2):
    assert mono_mul(m1, m2) == _mono_reference(m1, m2)
    assert mono_mul(m2, m1) == _mono_reference(m1, m2)
