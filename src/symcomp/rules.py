"""Pattern matching and deterministic rule application.

Pattern variables (uppercase identifiers) range over dot-words: single
canonical dot-subtrees, never sums.  Matching therefore operates per
monomial / per vector term.  Rules come in five kinds:

* ``dot``     -- rewrite a dot-subtree, e.g. ``(X.Y).X -> q(X)*Y``;
* ``atom``    -- rewrite one q/b atom, e.g. ``b(X, Y.Z) -> b(X.Y, Z)``;
* ``power``   -- rewrite a power of a b atom, e.g. ``b(X,Y)^2 -> ...``
  (a product of two equal b atoms is stored as a square, so it matches
  the power rule and never the product rule);
* ``product`` -- rewrite a product of two distinct b atoms inside one
  monomial, e.g. ``b(X,Y)*b(Z,U) -> b(X.Z,Y.U) + b(X.U,Y.Z)``;
* ``noop``    -- kept for catalog fidelity: scalar-extraction rules that
  canonical forms make unreachable.

Application strategy (deterministic): ``apply_once`` visits the
monomials/terms of a canonical value in canonical order; within each it
visits rewrite sites -- dot-subtrees outermost-first (the term's own word,
then inside q/b atom arguments in atom order), then whole atoms in atom
order, then ordered pairs of distinct exponent-1 b atoms.  This order is
defined in one place, the site enumerator ``_sites``.  At each site the
rules of that site's kind are tried in listing order (on an atom of
exponent >= 2, power rules before atom rules); the first match anywhere
in a monomial rewrites that site, the produced fragment is left untouched
for the rest of the pass, and scanning continues with the next monomial.
``apply_fixpoint`` iterates passes until the canonical form stabilizes.
The public ``match`` binds with the same per-site matcher, ``_bind``, and
takes product-rule pairs from the same enumerator.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import rawexpr as rx
from .core import (
    Atom,
    Env,
    Expr,
    Monomial,
    ScalarExpr,
    SymbolTable,
    VectorExpr,
    Word,
    b_of,
    canonicalize,
    dot,
    equal,
    is_scalar,
    is_vector,
    q_of,
)
from .errors import EngineError, NonTermination, ParseError, RuleSetUnknown


# --- patterns ---------------------------------------------------------------


@dataclass(frozen=True)
class PVar:
    name: str


@dataclass(frozen=True)
class PLeaf:
    name: str


@dataclass(frozen=True)
class PDot:
    left: "WordPattern"
    right: "WordPattern"


WordPattern = PVar | PLeaf | PDot


@dataclass(frozen=True)
class PQ:
    arg: WordPattern


@dataclass(frozen=True)
class PB:
    left: WordPattern
    right: WordPattern


AtomPattern = PQ | PB


def match_word(pattern: WordPattern, word: Word, binds: dict[str, Word]) -> bool:
    """Tree-match a word pattern, extending `binds`; repeated variables
    require exact dot-word equality."""
    if isinstance(pattern, PVar):
        bound = binds.get(pattern.name)
        if bound is None:
            binds[pattern.name] = word
            return True
        return bound == word
    if isinstance(pattern, PLeaf):
        return word.is_leaf and word.name == pattern.name
    if word.is_leaf:
        return False
    saved = dict(binds)
    if match_word(pattern.left, word.left, binds) and match_word(pattern.right, word.right, binds):
        return True
    binds.clear()
    binds.update(saved)
    return False


def match_atom(pattern: AtomPattern, atom: Atom, binds: dict[str, Word]) -> bool:
    if isinstance(pattern, PQ):
        return atom.is_q and match_word(pattern.arg, atom.w1, binds)
    if not atom.is_b:
        return False
    saved = dict(binds)
    if match_word(pattern.left, atom.w1, binds) and match_word(pattern.right, atom.w2, binds):
        return True
    binds.clear()
    binds.update(saved)
    return False


# --- rules ------------------------------------------------------------------


class RewriteRule:
    """A typed pattern -> template pair."""

    __slots__ = ("name", "kind", "lhs", "lhs2", "power", "rhs")

    def __init__(self, name, kind, lhs, rhs, lhs2=None, power=None):
        self.name = name
        self.kind = kind
        self.lhs = lhs
        self.lhs2 = lhs2
        self.power = power
        self.rhs = rhs

    def __repr__(self):
        return f"RewriteRule({self.name}, {self.kind})"


@dataclass(frozen=True)
class RuleSet:
    name: str
    rules: tuple[RewriteRule, ...]

    def __len__(self) -> int:
        return len(self.rules)


def _pattern_vars(p) -> set[str]:
    if isinstance(p, PVar):
        return {p.name}
    if isinstance(p, PLeaf):
        return set()
    if isinstance(p, PDot):
        return _pattern_vars(p.left) | _pattern_vars(p.right)
    if isinstance(p, PQ):
        return _pattern_vars(p.arg)
    return _pattern_vars(p.left) | _pattern_vars(p.right)


def _word_pattern(raw: rx.RawExpr) -> WordPattern | None:
    if isinstance(raw, rx.Ident):
        return PVar(raw.name) if raw.name.isupper() else PLeaf(raw.name)
    if isinstance(raw, rx.Dot):
        left = _word_pattern(raw.left)
        right = _word_pattern(raw.right)
        if left is not None and right is not None:
            return PDot(left, right)
    return None


def _atom_pattern(raw: rx.RawExpr) -> AtomPattern | None:
    if isinstance(raw, rx.Q):
        arg = _word_pattern(raw.arg)
        return PQ(arg) if arg is not None else None
    if isinstance(raw, rx.B):
        left = _word_pattern(raw.left)
        right = _word_pattern(raw.right)
        if left is not None and right is not None:
            return PB(left, right)
    return None


def compile_rule(name: str, raw_lhs: rx.RawExpr, raw_rhs: rx.RawExpr,
                 allow_noop: bool = False) -> RewriteRule:
    """Turn parsed `lhs -> rhs` trees into a typed rule.

    With `allow_noop`, an lhs that canonical forms can never exhibit
    (scalar factors or sums inside pattern positions) compiles to a
    documented no-op instead of failing.
    """
    rule = None
    if isinstance(raw_lhs, rx.Dot):
        pat = _word_pattern(raw_lhs)
        if pat is not None:
            rule = RewriteRule(name, "dot", pat, raw_rhs)
    elif isinstance(raw_lhs, (rx.Q, rx.B)):
        pat = _atom_pattern(raw_lhs)
        if pat is not None:
            rule = RewriteRule(name, "atom", pat, raw_rhs)
    elif isinstance(raw_lhs, rx.Pow):
        pat = _atom_pattern(raw_lhs.base)
        if pat is not None:
            rule = RewriteRule(name, "power", pat, raw_rhs, power=raw_lhs.exponent)
    elif isinstance(raw_lhs, rx.Mul) and len(raw_lhs.items) == 2:
        p1 = _atom_pattern(raw_lhs.items[0])
        p2 = _atom_pattern(raw_lhs.items[1])
        if isinstance(p1, PB) and isinstance(p2, PB):
            rule = RewriteRule(name, "product", p1, raw_rhs, lhs2=p2)
    if rule is None:
        if allow_noop:
            return RewriteRule(name, "noop", None, raw_rhs)
        span = getattr(raw_lhs, "span", None)
        raise ParseError(
            "rule pattern must be a dot-word, a q/b atom, a power of a b atom, "
            "or a product of two b atoms over dot-word patterns",
            span,
        )
    lhs_vars = _pattern_vars(rule.lhs)
    if rule.lhs2 is not None:
        lhs_vars |= _pattern_vars(rule.lhs2)
    for node in rx.idents(raw_rhs):
        if node.name.isupper() and node.name not in lhs_vars:
            raise ParseError(f"template variable {node.name!r} does not occur in the pattern",
                             node.span)
    return rule


def match(rule: RewriteRule, site) -> dict[str, Word] | None:
    """First binding of a rule against a site, or None.

    Site kinds: a Word for dot rules, an Atom (or (Atom, exponent) pair)
    for atom and power rules, a monomial for product rules.  Binding is
    done by the engine's own matcher; a product rule tries the monomial's
    b-atom pairs in the engine's site order.
    """
    if rule.kind in ("dot", "atom", "power"):
        return _bind(rule, (site, 1) if isinstance(site, Atom) else site)
    for _, pair, _ in _sites(site, None, _split_rules((rule,))):
        binds = _bind(rule, pair)
        if binds is not None:
            return binds
    return None


def _bind(rule: RewriteRule, subject) -> dict[str, Word] | None:
    """Bind a rule at one site of its kind: a Word for dot rules, an
    (Atom, exponent) entry for atom and power rules, an (Atom, Atom) pair
    for product rules."""
    binds: dict[str, Word] = {}
    kind = rule.kind
    if kind == "dot":
        ok = match_word(rule.lhs, subject, binds)
    elif kind == "product":
        ok = match_atom(rule.lhs, subject[0], binds) and match_atom(rule.lhs2, subject[1], binds)
    else:
        atom, exp = subject
        ok = (kind == "atom" or exp == rule.power) and match_atom(rule.lhs, atom, binds)
    return binds if ok else None


# --- application ------------------------------------------------------------


def _split_rules(rules) -> tuple:
    """The rules to try at each site kind, in listing order: dot sites,
    atoms of exponent 1, atoms of a higher exponent (power rules take
    precedence over atom rules there), and b-atom pairs."""
    dot_rules = tuple(r for r in rules if r.kind == "dot")
    atom_rules = tuple(r for r in rules if r.kind == "atom")
    power_rules = tuple(r for r in rules if r.kind == "power")
    product_rules = tuple(r for r in rules if r.kind == "product")
    return dot_rules, atom_rules, power_rules + atom_rules, product_rules


def _sites(mono: Monomial, word: Word | None, split: tuple):
    """Rewrite sites of one monomial (or vector term `word` times `mono`),
    in strategy order, each with the rules to try there.

    Yields `(rules, subject, (drop, argpos, path))`.  The order is:
    dot-subtrees outermost first, of the term word, then of the q/b
    arguments in atom order; then atoms in atom order; then ordered pairs
    of distinct exponent-1 b atoms.  `drop` holds the monomial indices the
    site replaces (empty for the term word), `argpos` the atom argument
    and `path` the dot-subtree (0 left, 1 right) of a dot site.  Site kinds
    with no rules are skipped.
    """
    dot_rules, atom_rules, power_then_atom_rules, product_rules = split
    if dot_rules:
        roots = [] if word is None else [((), None, word)]
        for idx, (atom, _) in enumerate(mono):
            if atom.is_q:
                roots.append(((idx,), 0, atom.w1))
            elif atom.is_b:
                roots += (((idx,), 0, atom.w1), ((idx,), 1, atom.w2))
        for drop, argpos, root in roots:
            stack = [((), root)]
            while stack:
                path, sub = stack.pop()
                if sub.is_leaf:
                    continue
                yield dot_rules, sub, (drop, argpos, path)
                stack.append((path + (1,), sub.right))
                stack.append((path + (0,), sub.left))
    if power_then_atom_rules:
        for idx, entry in enumerate(mono):
            if not entry[0].is_symbol:
                rules = power_then_atom_rules if entry[1] >= 2 else atom_rules
                yield rules, entry, ((idx,), None, None)
    if product_rules:
        bs = [(idx, atom) for idx, (atom, exp) in enumerate(mono) if atom.is_b and exp == 1]
        for idx1, a1 in bs:
            for idx2, a2 in bs:
                if idx1 != idx2:
                    yield product_rules, (a1, a2), ((idx1, idx2), None, None)


def _graft(word: Word, path: tuple, repl: VectorExpr) -> VectorExpr:
    if not path:
        return repl
    if path[0] == 0:
        return dot(_graft(word.left, path[1:], repl), VectorExpr.from_word(word.right))
    return dot(VectorExpr.from_word(word.left), _graft(word.right, path[1:], repl))


def _replace(coeff, mono: Monomial, word: Word | None, loc: tuple,
             rule: RewriteRule, repl: Expr) -> Expr:
    """The unit `coeff * mono (* word)` with the site at `loc` replaced by
    the rule's instantiated right-hand side."""
    drop, argpos, path = loc
    if not drop:
        return _graft(word, path, repl).scaled_by(ScalarExpr({mono: coeff}))
    atom, exp = mono[drop[0]]
    if path is not None:
        if atom.is_q:
            repl = q_of(_graft(atom.w1, path, repl))
        elif argpos == 0:
            repl = b_of(_graft(atom.w1, path, repl), VectorExpr.from_word(atom.w2))
        else:
            repl = b_of(VectorExpr.from_word(atom.w1), _graft(atom.w2, path, repl))
    if rule.kind in ("dot", "atom"):
        repl = repl ** exp
    result = ScalarExpr({tuple(e for k, e in enumerate(mono) if k not in drop): coeff}) * repl
    return result if word is None else VectorExpr.from_word(word).scaled_by(result)


def _instantiate(rule: RewriteRule, binds: dict[str, Word], symbols: SymbolTable) -> Expr:
    bindings = {name: VectorExpr.from_word(w) for name, w in binds.items()}
    return canonicalize(rule.rhs, Env(symbols, bindings))


def _rewrite_unit(coeff, mono: Monomial, word: Word | None,
                  split: tuple, symbols: SymbolTable) -> Expr | None:
    """First applicable rewrite of one monomial/term, or None."""
    for rules, subject, loc in _sites(mono, word, split):
        for rule in rules:
            binds = _bind(rule, subject)
            if binds is None:
                continue
            repl = _instantiate(rule, binds, symbols)
            if is_vector(repl) != (rule.kind == "dot"):
                what = "a dot-word to a vector" if rule.kind == "dot" else "an atom to a scalar"
                raise EngineError(f"rule {rule.name} must rewrite {what} value")
            return _replace(coeff, mono, word, loc, rule, repl)
    return None


def apply_once(e: Expr, rs: RuleSet, symbols: SymbolTable) -> Expr:
    """One deterministic pass: at most one rewrite per monomial/term."""
    split = _split_rules(rs.rules)
    if is_scalar(e):
        out = ScalarExpr()
        for mono, coeff in e.monomials():
            result = _rewrite_unit(coeff, mono, None, split, symbols)
            out = out + (result if result is not None else ScalarExpr({mono: coeff}))
        return out
    out = VectorExpr()
    for word, cexpr in e.items():
        for mono, coeff in cexpr.monomials():
            result = _rewrite_unit(coeff, mono, word, split, symbols)
            if result is None:
                result = VectorExpr({word: ScalarExpr({mono: coeff})})
            out = out + result
    return out


def apply_fixpoint(e: Expr, rs: RuleSet, symbols: SymbolTable, cap: int = 10000) -> Expr:
    """Iterate apply_once until the canonical form is unchanged."""
    current = e
    for _ in range(cap):
        nxt = apply_once(current, rs, symbols)
        if equal(nxt, current):
            return current
        current = nxt
    raise NonTermination(f"rule set {rs.name!r} did not stabilize within {cap} passes")


# --- built-in catalog -------------------------------------------------------

# Transcribed rule sets, in listing order.  The starred scalar-extraction
# entries can never match a canonical form (scalar factors are already
# extracted); they compile to documented no-ops.

_RULES1_SRC = [
    "b(X,Y)*b(Z,U) -> b(X.Z, Y.U) + b(X.U, Y.Z)",
    "b(X.Y, X.Z) -> q(X)*b(Y, Z)",
    "b(X.Y, Z.Y) -> q(Y)*b(X, Z)",
    "(X.Y).X -> q(X)*Y",
    "X.(Y.X) -> q(X)*Y",
    "b(X*q(Y), Z) -> q(Y)*b(X, Z)",   # no-op
    "b(X, Z*q(Y)) -> q(Y)*b(X, Z)",   # no-op
]

_BUILTIN_SOURCES: dict[str, list[str]] = {
    "rules1": _RULES1_SRC,
    "rules2": _RULES1_SRC + [
        "b(X,Y)^2 -> b(X.X, Y.Y) + b(X.Y, Y.X)",
        "b(X,Y)^3 -> b(X,Y)*b(X.X, Y.Y) + b(X,Y)*b(X.Y, Y.X)",
        "b(X,X) -> 2*q(X)",
        "q(X.Y) -> q(X)*q(Y)",
    ],
    "assleft": [
        "b(X, Y.Z) -> b(X.Y, Z)",
    ],
    "assocb": [
        "b(X.Y, (X.Y).(Y.X)) -> b((X.Y).(X.Y), Y.X)",
        "b(X.Y, (Y.X).(X.Y)) -> b((X.Y).(X.Y), Y.X)",
        "b(Y.X, (X.Y).(X.Y)) -> b((X.Y).(X.Y), Y.X)",
    ],
    "move1": [
        "b(Y, X.Y) -> b(X, Y.Y)",
        "b(Y, Y.X) -> b(X, Y.Y)",
    ],
    "move2": [
        "b(x, (x.y).y) -> b(x.y, y.x)",
        "b(y.x, x.y) -> b(x.y, y.x)",
        "b(x, y.(y.x)) -> b(x.y, y.x)",
        "b(y, x.(x.y)) -> b(x.y, y.x)",
        "b(y, (y.x).x) -> b(x.y, y.x)",
    ],
    "move3": [
        "b(Y, Y.(Y.X)) -> b(Y.X, Y.Y)",
        "b(Y, (X.Y).Y) -> b(X.Y, Y.Y)",
    ],
    "move4": [
        "b(x.y, x) -> b(x, x.y)",
        "b(x, y.x) -> b(x, x.y)",
        "b(y.x, x) -> b(x, x.y)",
        "b(x.y, y.(y.x)) -> b(y, (y.x).(x.y))",
        "b(y.x, (x.y).y) -> b(y, (y.x).(x.y))",
        "b(x.y, y.(y.x)) -> b(y, (y.x).(x.y))",   # listed twice at source
        "b(y.x, (x.y).y) -> b(y, (y.x).(x.y))",   # listed twice at source
        "b(y, (x.y).(x.y)) -> q(y)*b(x, x.y)",
        "b(y, (y.x).(y.x)) -> q(y)*b(y.x, x)",
        "b(y, (x.y).(y.x)) -> q(y)*b(x, y.x)",
    ],
    "move5": [
        "b(y, x.y) -> b(y, y.x)",
        "b(x.y, y) -> b(y, y.x)",
        "b(y.x, y) -> b(y, y.x)",
        "b(x.y, (y.x).x) -> b(x, (x.y).(y.x))",
        "b(x.(x.y), y.x) -> b(x, (x.y).(y.x))",
        "b(y.x, x.(x.y)) -> b(x, (x.y).(y.x))",
        "b(x, (y.x).(y.x)) -> q(x)*b(y, y.x)",
        "b(x, (x.y).(x.y)) -> q(x)*b(x.y, y)",
        "b(x, (y.x).(x.y)) -> q(x)*b(y, x.y)",
    ],
    "bsym": [
        "b(y, x) -> b(x, y)",
    ],
    # Linearization sets: sum/sign handling is definitional for canonical
    # forms, so only the multiplicativity entry of expandq can ever fire.
    "expandq": [
        "q(X + Y) -> b(X, Y) + q(X) + q(Y)",   # no-op
        "q(X.Y) -> q(X)*q(Y)",
    ],
    "expandb": [
        "b(X + Y, Z) -> b(X, Z) + b(Y, Z)",    # no-op
        "b(X, Y + Z) -> b(X, Y) + b(X, Z)",    # no-op
        "b(-X, Y) -> -b(X, Y)",                # no-op
        "b(X, -Y.Z) -> -b(X, Y.Z)",            # no-op
        "b(X, -(Z.T)) -> -b(X, Z.T)",          # no-op
    ],
    "expanddot": [
        "(X + Y).Z -> X.Z + Y.Z",              # no-op
        "X.(Y + Z) -> X.Y + X.Z",              # no-op
        "X.(-Y) -> -(X.Y)",                    # no-op
    ],
}

_catalog_cache: dict[str, RuleSet] = {}


def builtin_ruleset_names() -> frozenset[str]:
    return frozenset(_BUILTIN_SOURCES)


def builtin_ruleset(name: str) -> RuleSet:
    """The transcribed rule set for a catalog name."""
    sources = _BUILTIN_SOURCES.get(name)
    if sources is None:
        raise RuleSetUnknown(f"unknown rule set {name!r}")
    cached = _catalog_cache.get(name)
    if cached is None:
        from .parser import parse_rule_source

        rules = []
        for k, src in enumerate(sources, start=1):
            lhs, rhs = parse_rule_source(src)
            rules.append(compile_rule(f"{name}#{k}", lhs, rhs, allow_noop=True))
        cached = RuleSet(name, tuple(rules))
        _catalog_cache[name] = cached
    return cached


# --- direct pattern instantiation (for soundness checks) --------------------


def pattern_word(p: WordPattern, binds: dict[str, Word], symbols: SymbolTable) -> Word:
    if isinstance(p, PVar):
        return binds[p.name]
    if isinstance(p, PLeaf):
        return Word.leaf(p.name, symbols.index_of(p.name))
    return Word.pair(pattern_word(p.left, binds, symbols),
                     pattern_word(p.right, binds, symbols))


def instantiate_sides(rule: RewriteRule, binds: dict[str, Word],
                      symbols: SymbolTable) -> tuple[Expr, Expr]:
    """Build lhs and rhs values of a rule under a variable binding."""
    if rule.kind == "noop":
        raise EngineError(f"rule {rule.name} is a documented no-op")
    rhs = _instantiate(rule, binds, symbols)
    if rule.kind == "dot":
        lhs: Expr = VectorExpr.from_word(pattern_word(rule.lhs, binds, symbols))
        return lhs, rhs

    def atom_of(p: AtomPattern) -> Atom:
        if isinstance(p, PQ):
            return Atom.q(pattern_word(p.arg, binds, symbols))
        return Atom.b(pattern_word(p.left, binds, symbols),
                      pattern_word(p.right, binds, symbols))

    if rule.kind == "atom":
        return ScalarExpr.from_atom(atom_of(rule.lhs)), rhs
    if rule.kind == "power":
        return ScalarExpr.from_atom(atom_of(rule.lhs), rule.power), rhs
    lhs = ScalarExpr.from_atom(atom_of(rule.lhs)) * ScalarExpr.from_atom(atom_of(rule.lhs2))
    return lhs, rhs
