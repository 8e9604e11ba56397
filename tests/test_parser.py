"""Expression grammar, rule DSL, and session script parsing."""
from fractions import Fraction

import pytest

import symcomp.rawexpr as rx
from symcomp import parse_expr, parse_rule_source, parse_script
from symcomp.errors import (
    ArityError,
    ChainedDotError,
    ParseError,
    RuleSetUnknown,
    SourceSpan,
    UndefinedName,
)
from symcomp.oracle import MAX_TRIALS
from symcomp.parser import Assertion, LetApply, LetExpr, Token, tokenize


def test_single_identifier():
    raw = parse_expr("x")
    assert isinstance(raw, rx.Ident) and raw.name == "x"


def test_norm_composition_input_shape():
    raw = parse_expr("q(x.y) - q(x)*q(y)")
    assert isinstance(raw, rx.Sum)
    head, tail = raw.items
    assert isinstance(head, rx.Q) and isinstance(head.arg, rx.Dot)
    assert isinstance(tail, rx.Neg) and isinstance(tail.item, rx.Mul)


def test_flexible_law_input_shape():
    raw = parse_expr("(x.y).x - q(x)*y")
    assert isinstance(raw, rx.Sum)
    dot = raw.items[0]
    assert isinstance(dot, rx.Dot) and isinstance(dot.left, rx.Dot)


def test_chained_dot_is_rejected():
    with pytest.raises(ChainedDotError):
        parse_expr("x.y.z")


def test_dot_operands_must_be_primary():
    with pytest.raises(ParseError):
        parse_expr("q(x).y")


def test_arity_errors():
    with pytest.raises(ArityError):
        parse_expr("q(x, y)")
    with pytest.raises(ArityError):
        parse_expr("b(x)")
    with pytest.raises(ArityError):
        parse_expr("b(x, y, x)")


def test_syntax_error_carries_span():
    with pytest.raises(ParseError) as err:
        parse_expr("q(x) +\n* y")
    assert err.value.span.line == 2
    assert err.value.span.column == 1


def test_spans_lie_within_input():
    text = "b(x, y) + q(z)"
    with pytest.raises(ParseError) as err:
        parse_expr(text + " +")
    lines = (text + " +").split("\n")
    span = err.value.span
    assert 1 <= span.line <= len(lines)
    assert 1 <= span.column <= len(lines[span.line - 1]) + 1


@pytest.mark.parametrize("text, expected", [
    ("αx", [("IDENT", "alpha", 1, 1), ("IDENT", "x", 1, 2), ("EOF", "", 1, 3)]),
    ("x·y", [("IDENT", "x", 1, 1), ("DOT", ".", 1, 2), ("IDENT", "y", 1, 3),
             ("EOF", "", 1, 4)]),
    ("a->b", [("IDENT", "a", 1, 1), ("ARROW", "->", 1, 2), ("IDENT", "b", 1, 4),
              ("EOF", "", 1, 5)]),
    ("-->", [("MINUS", "-", 1, 1), ("ARROW", "->", 1, 2), ("EOF", "", 1, 4)]),
    ("2x", [("NUM", "2", 1, 1), ("IDENT", "x", 1, 2), ("EOF", "", 1, 3)]),
    ("ab12_c 007", [("IDENT", "ab12_c", 1, 1), ("NUM", "007", 1, 8), ("EOF", "", 1, 11)]),
    ("x\t+\r\n y_1", [("IDENT", "x", 1, 1), ("PLUS", "+", 1, 3), ("IDENT", "y_1", 2, 2),
                       ("EOF", "", 2, 5)]),
    # A trailing comment takes no columns: EOF sits where the comment starts.
    ("x # note", [("IDENT", "x", 1, 1), ("EOF", "", 1, 3)]),
    ("x # note\n", [("IDENT", "x", 1, 1), ("EOF", "", 2, 1)]),
    ("  # only\n\tq(β)^2 # end", [("IDENT", "q", 2, 2), ("LPAREN", "(", 2, 3),
                                 ("IDENT", "beta", 2, 4), ("RPAREN", ")", 2, 5),
                                 ("CARET", "^", 2, 6), ("NUM", "2", 2, 7),
                                 ("EOF", "", 2, 9)]),
    ("", [("EOF", "", 1, 1)]),
], ids=["greek-then-ascii", "center-dot", "arrow", "minus-arrow", "digits-then-letters",
        "identifier-and-number", "tab-and-cr", "comment-at-eof", "comment-then-newline",
        "comment-lines", "empty"])
def test_token_table(text, expected):
    assert [(t.kind, t.text, t.span.line, t.span.column) for t in tokenize(text)] == expected


@pytest.mark.parametrize("text, where", [
    ("x²", "1:2: unexpected character '²'"),
    ("x +\n\t%", "2:2: unexpected character '%'"),
    ("x\u00a0y", "1:2: unexpected character '\\xa0'"),
], ids=["superscript", "second-line", "no-break-space"])
def test_tokenize_rejects_an_unknown_character(text, where):
    with pytest.raises(ParseError) as err:
        tokenize(text)
    assert str(err.value) == where


def test_greek_and_centerdot_synonyms():
    assert parse_expr("q(x · y)") == parse_expr("q(x.y)")
    assert parse_expr("α^2*q(x)") == parse_expr("alpha^2*q(x)")
    assert parse_expr("λ*μ + β") == parse_expr("lambda*mu + beta")


def test_rational_literals():
    raw = parse_expr("3/2*b(x,y)")
    num = raw.items[0]
    assert isinstance(num, rx.Num)
    assert num.value.numerator == 3 and num.value.denominator == 2


def test_zero_denominator_rejected():
    with pytest.raises(ParseError):
        parse_expr("3/0*q(x)")


def test_fuzzed_inputs_raise_typed_errors_only():
    import random
    from symcomp.errors import SymcompError
    pieces = list("xyqb()+-*^.,;=[]@:#/ 0123456789\n") + \
        ["alpha", "let ", "->", "q(", "b(", "x.y", "rule ", "once"]
    rng = random.Random(2718)
    for _ in range(3000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(1, 16)))
        for fn in (parse_expr, parse_script):
            try:
                fn(text)
            except SymcompError:
                pass


def test_unary_minus():
    raw = parse_expr("-q(x) + y")
    assert isinstance(raw.items[0], rx.Neg)


def test_exponent_must_be_at_least_two():
    with pytest.raises(ParseError):
        parse_expr("q(x)^1")


def test_comments_and_whitespace():
    raw = parse_expr("q(x)  # the norm\n + q(y)")
    assert isinstance(raw, rx.Sum)


def test_rule_source():
    lhs, rhs = parse_rule_source("b(X, Y.Z) -> b(X.Y, Z)")
    assert isinstance(lhs, rx.B)
    assert isinstance(rhs, rx.B)


def test_script_zero_identity_session():
    text = """
    vectors x, y;
    let e = b(x.y, (y.x).(y.x)) - b(x.y, y)*b(y.x, x) + b(x,y)*q(x)*q(y);
    let e = apply(e, rules1);
    let e = apply(e, assleft);
    let e = apply(e, rules1);
    let e = apply(e, bsym, once);
    assert_zero e;
    """
    session = parse_script(text, "Z1")
    assert session.name == "Z1"
    # six steps: the definition, four rule applications, one assertion;
    # the declaration is not a step
    kinds = [type(s) for s in session.statements]
    assert kinds == [LetExpr, LetApply, LetApply, LetApply, LetApply, Assertion]
    assert [c.label for c in session.checkpoints] == ["C1"]
    assert session.symbols.sort_of("x") == "vector"


def test_script_empty():
    assert parse_script("").statements == ()


def test_script_undefined_name():
    with pytest.raises(UndefinedName):
        parse_script("assert_zero comp;")


def test_script_unknown_ruleset():
    with pytest.raises(RuleSetUnknown) as err:
        parse_script("vectors x; let e = b(x,x); let e = apply(e, nope);")
    assert (err.value.span.line, err.value.span.column) == (1, 45)
    assert err.value.message == "unknown rule set 'nope'"


def test_script_undefined_symbol_in_expr():
    with pytest.raises(UndefinedName):
        parse_script("vectors x; let e = b(x, w);")


def test_script_local_rule_and_labels():
    text = """
    vectors x, y;
    rule swap: b(Y, X) -> b(X, Y);
    let e = b(y,x) - b(x,y);
    let e = apply(e, swap, once);
    assert_zero e;
    oracle_check e, trials=3;
    """
    session = parse_script(text)
    labels = [c.label for c in session.checkpoints]
    assert labels == ["C1", "C2"]
    assert session.checkpoints[1].trials == 3


def test_trial_count_at_the_bound_parses():
    session = parse_script("vectors x;\nlet e = q(x);\noracle_check e, trials=10000;")
    assert session.checkpoints[0].trials == MAX_TRIALS == 10000


def test_script_statement_spans():
    try:
        parse_script("vectors x;\nlet e = b(x, );")
    except ParseError as err:
        assert err.span.line == 2
    else:
        pytest.fail("expected a ParseError")


def test_raw_nodes_compare_by_type_and_fields_not_spans():
    here, there = SourceSpan(1, 1), SourceSpan(3, 7)
    near = rx.Dot(rx.Ident("x", here), rx.Pow(rx.Num(Fraction(2), here), 3, here), here)
    far = rx.Dot(rx.Ident("x", there), rx.Pow(rx.Num(Fraction(2), there), 3, there), there)
    assert near == far and hash(near) == hash(far)
    assert parse_expr("x.y + 2") == parse_expr("\n  x.y+2")
    items = (rx.Ident("x"), rx.Num(Fraction(2)))
    assert rx.Sum(items) != rx.Mul(items)
    assert rx.Dot(*items) != rx.B(*items)
    assert rx.Pow(rx.Ident("x"), 2) != rx.Pow(rx.Ident("x"), 3)
    assert rx.Ident("x") != "x"
    assert len({near, far, rx.Sum(items), rx.Mul(items), rx.Sum(items)}) == 3


def test_tokens_and_spans_compare_by_value():
    assert SourceSpan(1, 2) == SourceSpan(1, 2) and hash(SourceSpan(1, 2)) == hash(SourceSpan(1, 2))
    assert SourceSpan(1, 2) != SourceSpan(2, 1)
    x = tokenize("x")[0]
    assert x == Token("IDENT", "x", SourceSpan(1, 1))
    assert x == Token(kind="IDENT", text="x", span=SourceSpan(1, 1))
    assert x != Token("IDENT", "x", SourceSpan(1, 2))  # a token's span is compared
    assert repr(x) == "Token(kind='IDENT', text='x', span=SourceSpan(line=1, column=1))"


def test_assertion_defaults_and_keyword_fields():
    span = SourceSpan(4, 1)
    zero = Assertion(span, "C1", "e", "zero")
    assert (zero.expected_raw, zero.golden, zero.trials) == (None, None, None)
    assert zero == Assertion(span=span, label="C1", name="e", kind="zero")
    assert zero != Assertion(span, "C1", "e", "zero", trials=5)
    raw = parse_expr("x")
    assert LetExpr(span, "e", raw) == LetExpr(span=span, name="e", raw=raw)
    assert LetExpr(span, "e", raw) != LetExpr(SourceSpan(5, 1), "e", raw)


@pytest.mark.parametrize("record, field", [
    (SourceSpan(1, 1), "line"),
    (Token("IDENT", "x", SourceSpan(1, 1)), "text"),
    (rx.Ident("x"), "name"),
    (rx.Ident("x"), "span"),
    (rx.Sum((rx.Ident("x"), rx.Ident("y"))), "items"),
    (Assertion(SourceSpan(1, 1), "C1", "e", "zero"), "trials"),
    (LetExpr(SourceSpan(1, 1), "e", rx.Ident("x")), "raw"),
], ids=["span", "token", "ident-name", "ident-span", "sum", "assertion", "let"])
def test_records_are_frozen(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is before
