"""Cubic constructions, session execution, and the built-in catalog."""
import random

import pytest

from symcomp import (
    equal,
    eval_expr,
    parse_script,
    run_builtin_session,
    run_session,
)
from symcomp.oracle import Assignment, ParaQuaternion, random_assignment
from symcomp import rules, sessions
from symcomp.errors import EngineError, ExprTypeError
from symcomp.parser import LetApply
from symcomp.sessions import SessionExecutionError, builtin_session_names, golden_loader

from helpers import (
    CubicElement, commutator, cubic_form, cubic_norm, reference_polar, reference_product,
)


def unit(ctx, name):
    return ctx.canon(name)


def test_cubic_form_definition(xy):
    assert equal(cubic_form(unit(xy, "x")), xy.canon("b(x, x.x)"))


def test_cubic_form_is_cubic(xy):
    doubled = cubic_form(xy.canon("2*x"))
    assert equal(doubled, xy.canon("8*b(x, x.x)"))


def test_cubic_form_matches_direct_evaluation(greek):
    s = greek.canon("lambda*y + mu*x + alpha*(x.y) + beta*(y.x)")
    value = cubic_form(s)
    for trial in range(3):
        a = random_assignment(["x", "y"], ["alpha", "beta", "lambda", "mu"], 61, trial)
        sval = eval_expr(s, a).components()
        assert eval_expr(value, a) == reference_polar(sval, reference_product(sval, sval))


def test_commutator(xy):
    assert equal(commutator(unit(xy, "x"), unit(xy, "y")), xy.canon("x.y - y.x"))
    assert commutator(unit(xy, "x"), unit(xy, "x")).is_zero


def test_commutator_of_units_in_model(xy):
    value = commutator(unit(xy, "x"), unit(xy, "y"))
    a = Assignment(vectors={"x": ParaQuaternion(0, 1), "y": ParaQuaternion(0, 0, 1)},
                   scalars={})
    assert eval_expr(value, a) == ParaQuaternion(0, 0, 0, 2)


def test_cubic_norm(greek):
    elem = CubicElement(greek.canon("lambda"), unit(greek, "x"))
    assert equal(cubic_norm(elem), greek.canon("lambda^3 - 3*lambda*q(x) + b(x, x.x)"))
    zero_scalar = CubicElement(greek.canon("lambda - lambda"), unit(greek, "x"))
    assert equal(cubic_norm(zero_scalar), greek.canon("b(x, x.x)"))


def test_cubic_norm_of_bullet_product(greek):
    # the norm of the product element reproduces the subtrahend used by
    # the main session
    s = greek.canon("lambda*y + mu*x + alpha*(x.y) + beta*(y.x)")
    elem = CubicElement(greek.canon("lambda*mu + b(x,y)"), s)
    env = greek.env
    env.bindings["S"] = s
    from symcomp import canonicalize, parse_expr
    expected = canonicalize(
        parse_expr("(lambda*mu + b(x,y))^3 - 3*(lambda*mu + b(x,y))*q(S) + b(S, S.S)"),
        env)
    # cubic_norm(elem) = s^3 - 3 s q(v) + h(v), so the subtrahend is itself
    assert equal(cubic_norm(elem), expected)


def test_builtin_sessions_all_pass():
    for name in builtin_session_names():
        report = run_builtin_session(name)
        assert report.passed, (name, [c.label for c in report.checkpoints if not c.passed])


def test_builtin_sessions_deterministic():
    import json
    first = run_builtin_session("Z1")
    second = run_builtin_session("Z1")
    assert json.dumps(first.to_jsonable()) == json.dumps(second.to_jsonable())


def test_session_m_checkpoint_labels():
    report = run_builtin_session("M")
    assert [c.label for c in report.checkpoints] == [f"C{i}" for i in range(1, 11)]


def test_run_session_failing_checkpoint():
    session = parse_script("""
    vectors x, y;
    let e = b(x,y) - b(y,x);
    assert_zero e;
    """, "bad")
    report = run_session(session)
    assert not report.passed
    assert report.checkpoints[0].actual == "b(x,y) - b(y,x)"


def test_run_session_oracle_statement():
    session = parse_script("""
    vectors x, y;
    let e = b(x,y) - b(y,x);
    oracle_check e, trials=20;
    let f = q(x) - q(y);
    oracle_check f, trials=20;
    """, "oracle")
    report = run_session(session)
    kinds = [(c.kind, c.passed) for c in report.checkpoints]
    assert kinds == [("oracle", True), ("oracle", False)]


def test_run_session_local_rule():
    # lowercase names in a rule pattern are literals, so this merges the
    # reversed atom without touching the already-oriented one
    session = parse_script("""
    vectors x, y;
    rule swap: b(y, x) -> b(x, y);
    let e = b(y,x)*q(x) - b(x,y)*q(x);
    let e = apply(e, swap, once);
    assert_zero e;
    """, "local")
    assert run_session(session).passed


def test_run_session_error_carries_step_span():
    session = parse_script("""
    scalars alpha;
    vectors x;
    let good = q(x);
    let bad = q(alpha);
    """, "broken")
    with pytest.raises(SessionExecutionError) as err:
        run_session(session)
    assert (err.value.span.line, err.value.span.column) == (5, 5)
    assert err.value.session == "broken"
    assert str(err.value).startswith("5:5: session broken: ")


def test_run_session_without_goldens_fails_at_a_golden_step():
    session = parse_script("""vectors x;
let e = q(x);
assert_equal e, @g;
""", "nogold")
    with pytest.raises(SessionExecutionError) as err:
        run_session(session)
    assert str(err.value) == "3:1: session nogold: no goldens directory available for @g"


def test_zero_session_inputs_hold_in_the_model(xy):
    # Whatever the rule chains reduce to zero must already evaluate to
    # zero in the model: symbolic zero implies oracle zero.
    from symcomp import check_identity
    inputs = [
        "b(x.y, (y.x).(y.x)) - b(x.y, y)*b(y.x, x) + b(x,y)*q(x)*q(y)",
        "b(x.(x.y), y.(y.x)) - b(x,y)*b(x.y, y.x) + b(x,y)*q(x)*q(y)",
        "b(x.y, (x.y).(x.y)) - b(x.y, y)*b(x.y, x) + b((x.y).y, x.(x.y))",
        "b(x,y)*b(x.x, y.y) + b(x,y)*b(x.y, y.x) - b(x.(y.y), y.(x.x))"
        " - b(x,y)*q(x)*q(y) - b(x,y)*b(x.y, y.x)",
    ]
    for text in inputs:
        assert check_identity(xy.canon(text), 100, 42).passed


def test_sessions_declare_their_own_symbols():
    # catalog sessions are self-contained; loading them twice is stable
    from symcomp.sessions import load_builtin_session
    first = load_builtin_session("M")
    second = load_builtin_session("M")
    assert first is second
    assert len(first.checkpoints) == 10


def test_unknown_builtin_session_raises_on_every_call():
    from symcomp.sessions import load_builtin_session
    for _ in range(2):
        with pytest.raises(EngineError, match="unknown session 'N'"):
            load_builtin_session("N")


def test_main_reduction_matches_recorded_final_form():
    # Cross-check the whole reduction chain against the recorded final
    # form.  The normal forms differ only where the recorded pass could
    # not reach atoms still carrying scalar factors; that difference
    # must close to exactly zero under the catalog's own rules and must
    # be zero in the model.
    from pathlib import Path
    from symcomp import (apply_fixpoint, apply_once, builtin_ruleset,
                         canonicalize, check_identity, parse_expr)
    from symcomp.core import Env
    from helpers import Ctx

    ctx = Ctx(scalars=("lambda", "mu", "alpha", "beta"), vectors=("x", "y"))
    st = ctx.table
    s = ctx.canon("lambda*y + mu*x + alpha*(x.y) + beta*(y.x)")
    env = Env(st, {"S": s})
    nleft = ctx.canon(
        "(lambda^3 - 3*lambda*q(x) + b(x, x.x)) * (mu^3 - 3*mu*q(y) + b(y, y.y))")
    nprod = canonicalize(parse_expr(
        "(lambda*mu + b(x,y))^3 - 3*(lambda*mu + b(x,y))*q(S) + b(S, S.S)"), env)
    rightside = ctx.canon(
        "(1 - alpha*beta)*(3*b(x.(x.y), x.(y.y) - (y.y).x)"
        " + (1 + beta)*b(x.y - y.x, (x.y - y.x).(x.y - y.x)))"
        " + 3*(1 - alpha*beta)*b(x.y - y.x,"
        " -lambda*((x.y).y) + mu*((y.x).x) + lambda*mu*(x.y))")
    work = apply_fixpoint(nleft - nprod - rightside, builtin_ruleset("rules2"), st)
    work = apply_fixpoint(work, builtin_ruleset("assocb"), st)
    work = apply_fixpoint(work, builtin_ruleset("rules2"), st)
    res = apply_once(work, builtin_ruleset("bsym"), st)

    recorded_text = (Path(__file__).parent / "data"
                     / "main_identity_final_form.expr").read_text()
    recorded = ctx.canon(recorded_text)
    diff = res - recorded
    assert check_identity(diff, 100, 42).passed
    closed = apply_fixpoint(diff, builtin_ruleset("assocb"), st)
    closed = apply_fixpoint(closed, builtin_ruleset("move4"), st)
    closed = apply_fixpoint(closed, builtin_ruleset("move5"), st)
    assert closed.is_zero


def test_apply_sees_only_the_local_rules_defined_before_it():
    session = parse_script("""
    vectors x, y;
    rule swap: b(y, x) -> b(x, y);
    let e = b(y,x) - b(x,y) + q(x.y) - q(x)*q(y);
    let f = apply(e, swap);
    rule swap: q(x.y) -> q(x)*q(y);
    let g = apply(e, swap);
    assert_equal f, q(x.y) - q(x)*q(y);
    assert_zero g;
    """, "snapshot")
    report = run_session(session)
    assert [c.passed for c in report.checkpoints] == [True, True]


def test_applies_of_one_local_set_share_one_rule_set_and_memo():
    session = parse_script("""
    vectors x, y;
    rule swap: b(y, x) -> b(x, y);
    let e = b(y,x)*q(x) - b(x,y)*q(x);
    let f = apply(e, swap);
    let g = apply(f, swap, once);
    let h = apply(e, swap);
    assert_zero h;
    """, "shared")
    applied = [step.ruleset for step in session.statements if isinstance(step, LetApply)]
    assert len(applied) == 3 and all(rs is applied[0] for rs in applied)
    rules._memo.cache_clear()
    assert run_session(session).passed
    info = rules._memo.cache_info()
    assert (info.misses, info.hits) == (1, 2)


GOLDEN_SCRIPT = "vectors x, y;\nlet e = q(x) + q(x);\nassert_equal e, @g;\n"


def counting_parses(monkeypatch) -> list:
    """Empty the golden parse memo and record each golden text parsed."""
    parsed = []
    parse_expr = sessions.parse_expr

    def counting(text):
        parsed.append(text)
        return parse_expr(text)

    sessions._golden_tree.cache_clear()
    monkeypatch.setattr(sessions, "parse_expr", counting)
    return parsed


def test_golden_edited_between_runs_is_parsed_again(tmp_path, monkeypatch):
    parsed = counting_parses(monkeypatch)
    session = parse_script(GOLDEN_SCRIPT, "s")
    golden = tmp_path / "g.expr"
    for text, passed in [("2*q(x)", True), ("2*q(x)", True), ("3*q(x)", False),
                         ("2*q(x)", True)]:
        golden.write_text(text + "\n")
        report = run_session(session, goldens=golden_loader(tmp_path))
        assert report.passed is passed
        assert report.checkpoints[0].expected == text
    assert parsed == ["2*q(x)\n", "3*q(x)\n"]


MATRIX_SCRIPT = ("scalars alpha, beta;\nvectors x;\nlet e = alpha*beta*q(x);\n"
                 "let m = coeffmatrix(e, [alpha, beta]);\nassert_matrix m, @g;\n")


@pytest.mark.parametrize("script, file, text, message, parses", [
    (GOLDEN_SCRIPT, "g.expr", "q(x) +\n",
     "3:1: session s: golden @g: 2:1: expected an expression, found 'end of input'",
     ["q(x) +\n"] * 2),
    (MATRIX_SCRIPT, "g.json",
     '{"vars": ["alpha", "beta"], "rows": [["0", "0"], ["0", "q(x)*"]]}\n',
     "5:1: session s: golden @g[1][1]: 1:6: expected an expression, found 'end of input'",
     ["0", "q(x)*", "q(x)*"]),
], ids=["expression", "matrix-cell"])
def test_golden_that_does_not_parse_fails_at_its_step_on_every_run(
        tmp_path, monkeypatch, script, file, text, message, parses):
    parsed = counting_parses(monkeypatch)
    (tmp_path / file).write_text(text)
    session = parse_script(script, "s")
    for _ in range(2):
        with pytest.raises(SessionExecutionError) as err:
            run_session(session, goldens=golden_loader(tmp_path))
        assert str(err.value) == message
    # A parse error is raised again, never kept; the good cell "0" is kept.
    assert parsed == parses


def test_reports_are_frozen_values():
    report = run_builtin_session("Z1")
    again = run_builtin_session("Z1")
    assert report == again and hash(report) == hash(again)
    first = report.checkpoints[0]
    assert first == sessions.CheckpointResult(first.label, first.kind, first.passed,
                                              first.expected, first.actual)
    assert first.note == ""
    for record, field in [(report, "checkpoints"), (first, "passed")]:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)


@pytest.mark.parametrize("call, message", [
    (lambda: run_session(parse_script("vectors x;"), trace=3),
     "run_session argument trace must be callable or None, got int"),
    (lambda: run_session(parse_script("vectors x;"), goldens=3),
     "run_session argument goldens must be callable or None, got int"),
    (lambda: run_builtin_session("L1", trace=3),
     "run_builtin_session argument trace must be callable or None, got int"),
], ids=["run_session-trace", "run_session-goldens", "run_builtin_session-trace"])
def test_a_keyword_argument_that_is_not_callable_is_refused_before_the_first_step(call, message):
    with pytest.raises(ExprTypeError) as err:
        call()
    assert str(err.value) == message
