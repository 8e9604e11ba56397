"""Parser for the expression DSL, the rule DSL, and session scripts.

Expression grammar (whitespace-insensitive, `#` starts a line comment):

    expr    := ['+'|'-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := unit ('^' NAT)*            # NAT >= 2; a chain folds to one power
    unit    := primary ['.' primary]      # a second '.' is an error
    primary := NUM ['/' NUM] | IDENT | 'q' '(' expr ')'
             | 'b' '(' expr ',' expr ')' | '(' expr ')'

Only identifiers and parenthesized expressions may be dot operands; the
product is non-associative, so `a.b.c` is rejected outright.  Groups nest
at most MAX_NESTING (100) levels deep, counting each parenthesis, `q(` and
`b(`; a deeper group is a ParseError at its opening token.  A chain of
powers `e^a^b` parses as the single power `e^(a*b)`, as (e^a)^b = e^(ab)
for scalars, so a rule pattern `b(X,Y)^2^2` is a power-4 rule.  Greek
glyphs are accepted as synonyms for their ASCII names (alpha, beta,
lambda, mu) and the center-dot glyph for `.`.

Script statements (each terminated by `;`):

    scalars a, b, ...;
    vectors x, y, ...;
    rule NAME: PATTERN -> TEMPLATE;
    let NAME = EXPR;
    let NAME = apply(NAME, RULESET [, once]);
    let NAME = subst(NAME, SYM -> EXPR [, SYM -> EXPR ...]);
    let NAME = coeff(NAME, MONOMIAL);
    let NAME = coeffmatrix(NAME, [SYM, SYM]);
    assert_zero NAME;
    assert_equal NAME, EXPR | @GOLDEN;
    assert_factored NAME, EXPR | @GOLDEN;
    assert_matrix NAME, @GOLDEN;
    oracle_check NAME [, trials=N];      # N passes oracle.check_trials

`@GOLDEN` references an expression (or coefficient-matrix JSON) stored in
the script's goldens directory.  In rule patterns, uppercase identifiers
(X, Y, Z, U) are pattern variables ranging over dot-words.  Identifiers
are ASCII letters, digits and `_`.

`parse_script` resolves the whole script, so running it needs no second
look-up: declarations go into the session's SymbolTable and rule
definitions into their local rule sets, so a Session holds only the
steps that run, the `let` steps and assertions; each `let` name
is an expression or, after `coeffmatrix`, a coefficient matrix, as of its
latest binding; `assert_matrix` takes a matrix name and every other use
takes an expression name, and a wrong kind or an unknown name is a
ParseError at the name's span.  An `apply` holds its resolved RuleSet:
the catalog set, or the rules of the local set defined before it.  The
parser keeps one RuleSet per local name and builds a new one only when a
`rule` statement extends the set, so applies with no such statement
between them share one RuleSet and one engine memo (``rules._memo``).
"""
from __future__ import annotations

import re
from fractions import Fraction

from . import rawexpr as rx
from .core import SCALAR, VECTOR, SymbolTable, require
from .errors import (
    ArityError,
    ChainedDotError,
    ParseError,
    Record,
    RuleSetUnknown,
    SourceSpan,
    SymcompError,
    UndefinedName,
)
from .oracle import check_trials
from .rules import RuleSet, builtin_ruleset, builtin_ruleset_names, compile_rule

# The Greek glyphs, synonyms for their ASCII names.
GREEK = {"α": "alpha", "β": "beta", "λ": "lambda", "μ": "mu"}
# Every single-character token: punctuation, the center dot (a synonym
# for `.`) and the Greek glyphs.
_CHARS = {
    "+": ("PLUS", "+"), "-": ("MINUS", "-"), "*": ("STAR", "*"), "^": ("CARET", "^"),
    ".": ("DOT", "."), "·": ("DOT", "."), "(": ("LPAREN", "("), ")": ("RPAREN", ")"),
    ",": ("COMMA", ","), ";": ("SEMI", ";"), "=": ("EQ", "="), "[": ("LBRACKET", "["),
    "]": ("RBRACKET", "]"), "@": ("AT", "@"), ":": ("COLON", ":"), "/": ("SLASH", "/"),
    **{glyph: ("IDENT", name) for glyph, name in GREEK.items()},
}
# Identifiers and numbers are ASCII only: "x²" is x then an unexpected "²"
# (str.isdigit() would take "²", which int() rejects).
_TOKEN = re.compile(r"(?P<SKIP>[ \t\r]+|#.*)|(?P<NEWLINE>\n)|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<NUM>[0-9]+)|(?P<ARROW>->)|(?P<CHAR>.)")
_KEYWORDS = {
    "scalars", "vectors", "let", "rule", "apply", "subst", "coeff",
    "coeffmatrix", "once", "trials", "assert_zero", "assert_equal",
    "assert_factored", "assert_matrix", "oracle_check",
}
_RESERVED = _KEYWORDS | {"q", "b"}
MAX_NESTING = 100


class Token(Record):
    __slots__ = ("kind", "text", "span")


def tokenize(text: str) -> list[Token]:
    """The tokens of `text`, ending with EOF; a column is the offset from
    the start of its line, plus one."""
    require(text, str, "tokenize argument text must be a str")
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "SKIP":
            continue
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
            continue
        span = SourceSpan(line, m.start() - line_start + 1)
        lexeme = m.group()
        if kind == "CHAR":
            kind, lexeme = _CHARS.get(lexeme, (None, lexeme))
            if kind is None:
                raise ParseError(f"unexpected character {lexeme!r}", span)
        tokens.append(Token(kind, lexeme, span))
    # EOF follows the text of the last line, before its comment if it has one.
    end = text.find("#", line_start)
    end = len(text) if end < 0 else end
    tokens.append(Token("EOF", "", SourceSpan(line, end - line_start + 1)))
    return tokens


def _int(num: Token) -> int:
    """The value of a NUM token; a literal too long for Python's
    integer-string conversion is a ParseError at its span."""
    try:
        return int(num.text)
    except ValueError:
        raise ParseError(f"integer literal of {len(num.text)} digits is too long",
                         num.span) from None


class _TokenStream:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def accept(self, kind: str) -> Token | None:
        if self.peek().kind == kind:
            return self.advance()
        return None

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found {tok.text or 'end of input'!r}", tok.span)
        return self.advance()


def _parse_expr(ts: _TokenStream) -> rx.RawExpr:
    span = ts.peek().span
    sign = None
    if ts.peek().kind in ("PLUS", "MINUS"):
        sign = ts.advance()
    item = _parse_term(ts)
    if sign is not None and sign.kind == "MINUS":
        item = rx.Neg(item, sign.span)
    items = [item]
    while ts.peek().kind in ("PLUS", "MINUS"):
        op = ts.advance()
        term = _parse_term(ts)
        items.append(rx.Neg(term, op.span) if op.kind == "MINUS" else term)
    if len(items) == 1:
        return items[0]
    return rx.Sum(tuple(items), span)


def _parse_nested(ts: _TokenStream, opener: Token) -> rx.RawExpr:
    """Parse the expression inside a group one nesting level down."""
    if ts.depth >= MAX_NESTING:
        raise ParseError(f"expression nested more than {MAX_NESTING} levels deep", opener.span)
    ts.depth += 1
    inner = _parse_expr(ts)
    ts.depth -= 1
    return inner


def _parse_term(ts: _TokenStream) -> rx.RawExpr:
    span = ts.peek().span
    items = [_parse_factor(ts)]
    while ts.accept("STAR"):
        items.append(_parse_factor(ts))
    if len(items) == 1:
        return items[0]
    return rx.Mul(tuple(items), span)


def _parse_factor(ts: _TokenStream) -> rx.RawExpr:
    """A unit with its chain of powers folded into one Pow, since
    (e^a)^b = e^(ab) for scalars; the Pow's span is the first caret."""
    item = _parse_unit(ts)
    exponent, span = 1, None
    while ts.peek().kind == "CARET":
        caret = ts.advance()
        num = ts.expect("NUM", "an integer exponent")
        value = _int(num)
        if value < 2:
            raise ParseError("exponent must be at least 2", num.span)
        exponent *= value
        span = span or caret.span
    return item if span is None else rx.Pow(item, exponent, span)


def _parse_unit(ts: _TokenStream) -> rx.RawExpr:
    left, left_dottable = _parse_primary(ts)
    if ts.peek().kind != "DOT":
        return left
    dot = ts.advance()
    if not left_dottable:
        raise ParseError("dot operands must be identifiers or parenthesized expressions", dot.span)
    right, right_dottable = _parse_primary(ts)
    if not right_dottable:
        raise ParseError("dot operands must be identifiers or parenthesized expressions", dot.span)
    if ts.peek().kind == "DOT":
        raise ChainedDotError(
            "chained dot products are ambiguous in a non-associative algebra; parenthesize",
            ts.peek().span,
        )
    return rx.Dot(left, right, dot.span)


def _parse_primary(ts: _TokenStream) -> tuple[rx.RawExpr, bool]:
    tok = ts.peek()
    if tok.kind == "NUM":
        ts.advance()
        value = Fraction(_int(tok))
        if ts.peek().kind == "SLASH":
            ts.advance()
            denom = ts.expect("NUM", "a denominator")
            denominator = _int(denom)
            if denominator == 0:
                raise ParseError("denominator must be nonzero", denom.span)
            value /= denominator
        return rx.Num(value, tok.span), False
    if tok.kind == "LPAREN":
        ts.advance()
        inner = _parse_nested(ts, tok)
        ts.expect("RPAREN", "')'")
        return inner, True
    if tok.kind == "IDENT":
        if tok.text == "q":
            ts.advance()
            ts.expect("LPAREN", "'(' after q")
            arg = _parse_nested(ts, tok)
            if ts.peek().kind == "COMMA":
                raise ArityError("q takes exactly one argument", ts.peek().span)
            ts.expect("RPAREN", "')'")
            return rx.Q(arg, tok.span), False
        if tok.text == "b":
            ts.advance()
            ts.expect("LPAREN", "'(' after b")
            left = _parse_nested(ts, tok)
            if ts.peek().kind == "RPAREN":
                raise ArityError("b takes exactly two arguments", ts.peek().span)
            ts.expect("COMMA", "','")
            right = _parse_nested(ts, tok)
            if ts.peek().kind == "COMMA":
                raise ArityError("b takes exactly two arguments", ts.peek().span)
            ts.expect("RPAREN", "')'")
            return rx.B(left, right, tok.span), False
        ts.advance()
        return rx.Ident(tok.text, tok.span), True
    raise ParseError(f"expected an expression, found {tok.text or 'end of input'!r}", tok.span)


def _parse_rule_sides(ts: _TokenStream) -> tuple[rx.RawExpr, rx.RawExpr]:
    lhs = _parse_expr(ts)
    ts.expect("ARROW", "'->'")
    return lhs, _parse_expr(ts)


def _expect_end(ts: _TokenStream) -> None:
    tail = ts.peek()
    if tail.kind != "EOF":
        raise ParseError(f"unexpected trailing input {tail.text!r}", tail.span)


def parse_expr(text: str) -> rx.RawExpr:
    """Parse a single expression; the whole input must be consumed.
    Names are resolved later, by canonicalization."""
    require(text, str, "parse_expr argument text must be a str")
    ts = _TokenStream(tokenize(text))
    raw = _parse_expr(ts)
    _expect_end(ts)
    return raw


def parse_rule_source(text: str) -> tuple[rx.RawExpr, rx.RawExpr]:
    """Parse `PATTERN -> TEMPLATE` into raw trees."""
    require(text, str, "parse_rule_source argument text must be a str")
    ts = _TokenStream(tokenize(text))
    sides = _parse_rule_sides(ts)
    _expect_end(ts)
    return sides


# --- session scripts -------------------------------------------------------

_EXPR = "an expression"
_MATRIX = "a coefficient matrix"


class Statement(Record):
    __slots__ = ("span",)


class Let(Statement):
    """A `let` step: binds `name` to the value the runner computes."""

    __slots__ = ("name",)


class LetExpr(Let):
    __slots__ = ("raw",)


class LetApply(Let):
    """`ruleset` is the catalog set, or the local rules defined before this step."""

    __slots__ = ("source", "ruleset", "once")


class LetSubst(Let):
    __slots__ = ("source", "bindings")


class LetCoeff(Let):
    __slots__ = ("source", "key")


class LetMatrix(Let):
    __slots__ = ("source", "vars")


class Assertion(Statement):
    """A checkpoint; `kind` is zero, equal, factored, matrix or oracle."""

    __slots__ = ("label", "name", "kind", "expected_raw", "golden", "trials")
    _defaults = (None, None, None)


class Session(Record):
    """A named script: the steps that run (`let` steps and assertions, the
    latter its labeled checkpoints) and the table of every symbol it
    declares."""

    __slots__ = ("name", "statements", "symbols")

    @property
    def checkpoints(self) -> list[Assertion]:
        return [s for s in self.statements if isinstance(s, Assertion)]


class _ScriptParser:
    def __init__(self, text: str, name: str):
        self.ts = _TokenStream(tokenize(text))
        self.name = name
        self.symbols = SymbolTable()
        self.kinds: dict[str, str] = {}  # let name -> _EXPR or _MATRIX
        self.local_sets: dict[str, RuleSet] = {}  # rebuilt by each `rule` that extends one
        self.statements: list[Let | Assertion] = []
        self.n_checkpoints = 0

    def parse(self) -> Session:
        while self.ts.peek().kind != "EOF":
            if (stmt := self._statement()) is not None:
                self.statements.append(stmt)
        return Session(self.name, tuple(self.statements), self.symbols)

    # helpers ---------------------------------------------------------------

    def _ident(self, what: str) -> Token:
        return self.ts.expect("IDENT", what)

    def _check_fresh_symbol(self, tok: Token):
        if tok.text in _RESERVED:
            raise ParseError(f"{tok.text!r} is reserved", tok.span)
        if tok.text in self.kinds:
            raise ParseError(f"{tok.text!r} already names a session value", tok.span)

    def _check_name(self, name: str, span: SourceSpan, kind: str = _EXPR):
        """`name` must be a `let` name whose current value is of `kind`."""
        found = self.kinds.get(name)
        if found is None:
            raise UndefinedName(f"undefined name {name!r}", span)
        if found != kind:
            raise ParseError(f"{name!r} is {found}, not {kind}", span)

    def _validate_expr_names(self, raw: rx.RawExpr):
        for node in rx.idents(raw):
            if self.symbols.sort_of(node.name) is None:
                self._check_name(node.name, node.span)

    def _next_label(self) -> str:
        self.n_checkpoints += 1
        return f"C{self.n_checkpoints}"

    def _ruleset(self, tok: Token) -> RuleSet:
        local = self.local_sets.get(tok.text)
        if local is not None:
            return local
        if tok.text in builtin_ruleset_names():
            return builtin_ruleset(tok.text)
        raise RuleSetUnknown(f"unknown rule set {tok.text!r}", tok.span)

    # statements ------------------------------------------------------------

    def _statement(self) -> Let | Assertion | None:
        """The next statement as a step, or None for a declaration or a rule
        definition, which act on the parser's tables."""
        tok = self.ts.peek()
        if tok.kind != "IDENT":
            raise ParseError(f"expected a statement, found {tok.text!r}", tok.span)
        handler = {
            "scalars": self._decl,
            "vectors": self._decl,
            "rule": self._rule,
            "let": self._let,
            "assert_zero": self._assertion,
            "assert_equal": self._assertion,
            "assert_factored": self._assertion,
            "assert_matrix": self._assertion,
            "oracle_check": self._assertion,
        }.get(tok.text)
        if handler is None:
            raise ParseError(f"unknown statement {tok.text!r}", tok.span)
        stmt = handler()
        self.ts.expect("SEMI", "';'")
        return stmt

    def _decl(self) -> None:
        sort = SCALAR if self.ts.advance().text == "scalars" else VECTOR
        while True:
            tok = self._ident("a symbol name")
            self._check_fresh_symbol(tok)
            if self.symbols.sort_of(tok.text) not in (None, sort):
                raise ParseError(f"{tok.text!r} already declared with a different sort", tok.span)
            self.symbols.declare(tok.text, sort)
            if not self.ts.accept("COMMA"):
                break

    def _rule(self) -> None:
        self.ts.advance()
        name = self._ident("a rule set name")
        if name.text in _RESERVED or name.text in builtin_ruleset_names():
            raise ParseError(f"rule set name {name.text!r} is reserved", name.span)
        self.ts.expect("COLON", "':'")
        lhs, rhs = _parse_rule_sides(self.ts)
        local = self.local_sets.get(name.text)
        rules = () if local is None else local.rules
        rule = compile_rule(f"{name.text}#{len(rules) + 1}", lhs, rhs)
        self.local_sets[name.text] = RuleSet(name.text, rules + (rule,))

    def _let(self) -> Let:
        head = self.ts.advance()
        name = self._ident("a name")
        if name.text in _RESERVED:
            raise ParseError(f"{name.text!r} is reserved", name.span)
        if self.symbols.sort_of(name.text) is not None:
            raise ParseError(f"{name.text!r} is a declared symbol", name.span)
        self.ts.expect("EQ", "'='")
        tok = self.ts.peek()
        if tok.kind == "IDENT" and tok.text in ("apply", "subst", "coeff", "coeffmatrix") \
                and self.ts.peek(1).kind == "LPAREN":
            stmt = self._let_builtin(head.span, name.text, tok.text)
        else:
            raw = _parse_expr(self.ts)
            self._validate_expr_names(raw)
            stmt = LetExpr(head.span, name.text, raw)
        self.kinds[name.text] = _MATRIX if isinstance(stmt, LetMatrix) else _EXPR
        return stmt

    def _let_builtin(self, span: SourceSpan, name: str, op: str) -> Let:
        self.ts.advance()
        self.ts.expect("LPAREN", "'('")
        source = self._ident("a defined name")
        self._check_name(source.text, source.span)
        self.ts.expect("COMMA", "','")
        if op == "apply":
            rset = self._ruleset(self._ident("a rule set name"))
            once = False
            if self.ts.accept("COMMA"):
                flag = self._ident("'once'")
                if flag.text != "once":
                    raise ParseError(f"expected 'once', found {flag.text!r}", flag.span)
                once = True
            self.ts.expect("RPAREN", "')'")
            return LetApply(span, name, source.text, rset, once)
        if op == "subst":
            bindings: dict[str, rx.RawExpr] = {}
            while True:
                sym = self._ident("a symbol name")
                if self.symbols.sort_of(sym.text) is None:
                    raise UndefinedName(f"undefined symbol {sym.text!r}", sym.span)
                if sym.text in bindings:
                    raise ParseError(f"{sym.text!r} is already bound in this subst", sym.span)
                self.ts.expect("ARROW", "'->'")
                raw = _parse_expr(self.ts)
                self._validate_expr_names(raw)
                bindings[sym.text] = raw
                if not self.ts.accept("COMMA"):
                    break
            self.ts.expect("RPAREN", "')'")
            return LetSubst(span, name, source.text, tuple(bindings.items()))
        if op == "coeff":
            key = self._monomial_key()
            self.ts.expect("RPAREN", "')'")
            return LetCoeff(span, name, source.text, key)
        self.ts.expect("LBRACKET", "'['")
        v1 = self._scalar_symbol().text
        self.ts.expect("COMMA", "','")
        second = self._scalar_symbol()
        if second.text == v1:
            raise ParseError("a coefficient matrix needs two distinct symbols, "
                             f"got {v1!r} twice", second.span)
        self.ts.expect("RBRACKET", "']'")
        self.ts.expect("RPAREN", "')'")
        return LetMatrix(span, name, source.text, (v1, second.text))

    def _scalar_symbol(self) -> Token:
        tok = self._ident("a scalar symbol")
        if self.symbols.sort_of(tok.text) != SCALAR:
            raise UndefinedName(f"{tok.text!r} is not a declared scalar symbol", tok.span)
        return tok

    def _monomial_key(self) -> tuple[tuple[str, int], ...]:
        key: dict[str, int] = {}
        while True:
            name = self._scalar_symbol().text
            exp = 1
            if self.ts.accept("CARET"):
                num = self.ts.expect("NUM", "an integer exponent")
                exp = _int(num)
                if exp < 1:
                    raise ParseError("exponent must be at least 1", num.span)
            key[name] = key.get(name, 0) + exp
            if not self.ts.accept("STAR"):
                break
        return tuple(sorted(key.items()))

    def _assertion(self) -> Assertion:
        head = self.ts.advance()
        target = self._ident("a defined name")
        self._check_name(target.text, target.span,
                         _MATRIX if head.text == "assert_matrix" else _EXPR)
        label = self._next_label()
        if head.text == "assert_zero":
            return Assertion(head.span, label, target.text, "zero")
        if head.text == "oracle_check":
            trials = None
            if self.ts.accept("COMMA"):
                kw = self._ident("'trials'")
                if kw.text != "trials":
                    raise ParseError(f"expected 'trials', found {kw.text!r}", kw.span)
                self.ts.expect("EQ", "'='")
                num = self.ts.expect("NUM", "a trial count")
                trials = _int(num)
                try:
                    check_trials(trials)
                except SymcompError as err:
                    raise ParseError(err.message, num.span) from None
            return Assertion(head.span, label, target.text, "oracle", trials=trials)
        kind = {"assert_equal": "equal", "assert_factored": "factored",
                "assert_matrix": "matrix"}[head.text]
        self.ts.expect("COMMA", "','")
        if self.ts.accept("AT"):
            golden = self._ident("a golden name")
            return Assertion(head.span, label, target.text, kind, golden=golden.text)
        if kind == "matrix":
            raise ParseError("assert_matrix expects a @golden reference", self.ts.peek().span)
        raw = _parse_expr(self.ts)
        self._validate_expr_names(raw)
        return Assertion(head.span, label, target.text, kind, expected_raw=raw)


def parse_script(text: str, name: str = "session") -> Session:
    """Parse a session script; statically validates names and rule sets."""
    require(text, str, "parse_script argument text must be a str")
    return _ScriptParser(text, name).parse()
