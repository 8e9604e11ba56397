"""Pattern matching and deterministic rule application.

A rule's patterns are the parse trees (``rawexpr``) of its left-hand
side, as the parser returns them: an uppercase identifier is a pattern
variable, a lowercase one a literal leaf, and dots, q and b give the
structure.  ``rule.bind`` matches a site by walking these trees
(``_match``, a plain recursive walk of the pattern); the engine runs it
only when its memo misses (``RewriteMemo``), so a site is matched once
on a rule set and symbol table unless its rewrite raised or the memo
was cleared.  ``instantiate_sides`` builds both sides of a rule by
``canonicalize`` under one binding environment; it is the reference the
engine's own right-hand-side templates are checked against.

Pattern variables range over dot-words: single canonical dot-subtrees,
never sums.  Matching therefore operates per monomial / per vector term.
Rules come in five kinds:

* ``dot``     -- rewrite a dot-subtree, e.g. ``(X.Y).X -> q(X)*Y``;
* ``atom``    -- rewrite one q/b atom, e.g. ``b(X, Y.Z) -> b(X.Y, Z)``;
* ``power``   -- rewrite a power of a b atom, e.g. ``b(X,Y)^2 -> ...``
  (a product of two equal b atoms is stored as a square, so it matches
  the power rule and never the product rule);
* ``product`` -- rewrite a product of two distinct b atoms inside one
  monomial, e.g. ``b(X,Y)*b(Z,U) -> b(X.Z,Y.U) + b(X.U,Y.Z)``;
* ``noop``    -- kept for catalog fidelity: scalar-extraction rules that
  canonical forms make unreachable.

Application strategy (deterministic): a pass visits units of a
canonical value (``core.units``: monomials, or a monomial times a
dot-word) in storage order; within each it visits rewrite sites --
dot-subtrees outermost-first (the term's own word, then inside q/b atom
arguments in atom order), then whole atoms in atom order, then ordered
pairs of distinct exponent-1 b atoms.  This order is defined in one
place, ``_first_rewrite``.  A monomial's scalar symbols sort before its
q/b atoms (``core.Monomial``) and are never sites, so the walk finds the
end of that symbol prefix once per unit and runs each of the three
phases over the entries past it only; the pair phase is skipped when
fewer than two entries remain, and otherwise walks the indices of the
exponent-1 b atoms.  At each site the rules of that site's kind
are tried in listing order; every q/b atom entry tries one list, the
power rules and then the atom rules, since a power rule binds only at
its own exponent, which ``compile_rule`` requires to be at least 2.  A
``RuleSet`` is the compiled form of a rule list and builds these site
tables once, when it is constructed.  The first match anywhere in a
monomial rewrites that site, the produced fragment is left untouched
for the rest of the pass, and scanning continues with the next unit.
Each unit is rewritten on its own, so the result of a pass does not
depend on the order in which units are visited.  Only the choice of
error may: when a rule set holds two rules whose right-hand sides have
the wrong sort, the ``EngineError`` names the first one reached in the
pass's visiting order, which is still deterministic.

One pass is ``_pass``.  ``apply_once`` runs it on every unit of a value.
``apply_fixpoint`` runs passes until one leaves the value unchanged, and
evaluates semi-naively (Bancilhon and Ramakrishnan, 1986): a unit that a
pass leaves unrewritten is in normal form, so it goes straight into the
fixpoint's result map and no later pass visits it.  Each pass after the
first visits only the units the pass before it produced, its frontier,
and the fixpoint stops at the first pass whose output equals the units
it rewrote, which is exactly when the whole value is unchanged.  A pass
adds in place: a rewrite adds its unit, the replacement value times the
rest of the unit, straight into a ``word -> {mono: coeff}`` map
(``core.add_unit``).  A pass visits its frontier in the order the units
were produced.  For a scalar value that is the order in which a pass
over the whole value would meet them, so the same ``EngineError`` is
raised; for a vector value the words may come in another order.  The
result's storage order may differ too, but no output depends on it:
``printer`` sorts.  A fixpoint that has not stabilized within
``MAX_PASSES`` passes raises ``NonTermination``.

A rewrite replaces one *root* of a unit: the unit's own word, one q/b
atom, or one pair of b atoms.  A ``RewriteMemo`` records the value that
replaces each root scanned (or None when nothing rewrites it), so a root
is matched, instantiated and rebuilt once however many units, passes and
calls share it; dot-words and atoms are rebuilt from the rewritten parts
by ``core.word_with`` and ``core.atom_with``.  ``_first_rewrite`` probes
the memo inline, so on a warm memo each atom, entry and pair site costs
one dictionary lookup and no call; ``_pass`` looks up each word's maps
once per word, not once per unit.  ``_match``, through
``rule.bind``, is the library's only matcher.

A rule's right-hand side is instantiated from a template: the
right-hand side canonicalized once with one private placeholder leaf per
pattern variable (``Word.leaf(name, -1 - k)``; real symbols have indices
>= 0).  The memo keeps the templates too, one per rule, built the first
time the rule binds.  Each firing then fills that template with the
bound words: every word and q/b atom is rebuilt through
``Word.pair``/``Atom.q``/``Atom.b``, every monomial is multiplied back
together from its rebuilt entries by ``core.mono_mul`` (which merges
atoms that became equal), and units that became equal are added.
Substituting words for leaves commutes with canonicalization except for
the polarization of q over a sum, so a rule whose right-hand side has a
q of anything but a word pattern is instantiated by ``canonicalize`` at
every firing instead, as is a rule whose template raises a sort error (a
summand of either sort may vanish only when two variables bind the same
word).  The choice depends on the rule and the sorts of the symbols it
names, never on a binding.

The memo is the engine's one cache, and ``_memo`` keeps one per rule
set and symbol table across ``apply_once`` and ``apply_fixpoint`` calls
(Michie's memo functions, 1968), so a session that applies one rule set
several times, or a family of growing inputs, matches each site once.
This is sound because a site's replacement and a template depend only
on the rule set and on the `(sort, index)` entries the symbol table
gives the names its rules use; words and atoms are hash-consed, so a
site is its own key; and a declaration never changes an existing
entry.  A site or template whose build raises (``EngineError``,
``UnknownSymbol``, a word-size ``ExprTypeError``) is not stored, so it
raises again at every call, and the result of a call never depends on
the memo.  Two bounds keep it small: ``_MEMOS`` memos, and
``_MEMO_SITES`` site entries per memo, which a call that finds more
clears first.
"""
from __future__ import annotations

from functools import cache, lru_cache

from . import rawexpr as rx
from .core import (
    EMPTY_MONOMIAL,
    Atom,
    Env,
    Expr,
    Monomial,
    SymbolTable,
    VectorExpr,
    Word,
    add_term,
    add_unit,
    atom_with,
    canonicalize,
    from_units,
    is_int,
    is_vector,
    mono_mul,
    nesting_error,
    require,
    units,
    word_with,
)
from .errors import EngineError, ExprTypeError, NonTermination, ParseError, RuleSetUnknown

MAX_PASSES = 10_000  # the most passes `apply_fixpoint` runs before raising NonTermination


# --- patterns and rules -----------------------------------------------------


def _shape(raw: rx.RawExpr) -> str | None:
    """What a pattern tree matches: "word" (an identifier or a dot of word
    patterns), "q" or "b" (an atom over word patterns), or None."""
    if isinstance(raw, rx.Ident):
        return "word"
    if isinstance(raw, rx.Dot):
        shape, parts = "word", (raw.left, raw.right)
    elif isinstance(raw, rx.Q):
        shape, parts = "q", (raw.arg,)
    elif isinstance(raw, rx.B):
        shape, parts = "b", (raw.left, raw.right)
    else:
        return None
    return shape if all(_shape(part) == "word" for part in parts) else None


def _match(pattern: rx.RawExpr, subject, binds: dict) -> bool:
    """Match a pattern tree of shape "word" against a Word, or of shape
    "q"/"b" against an Atom, left to right, extending `binds`.  The first
    occurrence of a variable binds its word and a repeated one must meet
    the same word, compared with `is` (words are interned).  On failure
    `binds` is left partly filled."""
    if isinstance(pattern, rx.Ident):
        name = pattern.name
        if name.isupper():
            return binds.setdefault(name, subject) is subject
        return subject.is_leaf and subject.name == name
    if isinstance(pattern, rx.Dot):
        return (not subject.is_leaf and _match(pattern.left, subject.left, binds)
                and _match(pattern.right, subject.right, binds))
    if isinstance(pattern, rx.Q):
        return subject.is_q and _match(pattern.arg, subject.w1, binds)
    return (subject.is_b and _match(pattern.left, subject.w1, binds)
            and _match(pattern.right, subject.w2, binds))


class RewriteRule:
    """A typed pattern -> template pair.  `lhs` (and `lhs2`, the second
    factor of a product rule) is a pattern parse tree; a power rule keeps
    the base in `lhs` and the exponent, at least 2, in `power`, which is
    None for every other kind.  ``bind`` matches these trees at a site
    (``_match``).  `variables` lists the pattern variables, sorted.  `rhs`
    is the right-hand side's parse tree; the engine keeps its template in
    the ``RewriteMemo`` of each rule set and symbol table it is applied
    on."""

    __slots__ = ("name", "kind", "lhs", "lhs2", "power", "rhs", "variables")

    def __init__(self, name, kind, lhs, rhs, lhs2=None, power=None):
        self.name = name
        self.kind = kind
        self.lhs = lhs
        self.lhs2 = lhs2
        self.power = power
        self.rhs = rhs
        self.variables = tuple(sorted(set().union(
            *(_pattern_vars(p) for p in (lhs, lhs2) if p is not None))))

    def bind(self, site) -> dict | None:
        """The binding of the pattern variables at a site of the rule's
        kind, or None: the site is a Word for a dot rule, an (Atom,
        exponent) entry for an atom or power rule (a power rule checks the
        exponent first; an atom rule has no `power`), an (Atom, Atom) pair
        for a product rule.  A no-op rule binds nothing."""
        kind, binds = self.kind, {}
        if kind == "dot":
            ok = _match(self.lhs, site, binds)
        elif kind == "atom" or kind == "power":
            ok = (self.power is None or site[1] == self.power) and _match(self.lhs, site[0], binds)
        elif kind == "product":
            ok = _match(self.lhs, site[0], binds) and _match(self.lhs2, site[1], binds)
        else:
            return None
        return binds if ok else None

    def __repr__(self):
        return f"RewriteRule({self.name}, {self.kind})"


class RuleSet:
    """A named rule list compiled for the engine.  Its site tables, built
    once here, hold the rules to try at each site kind in listing order:
    dot sites, q/b atom entries (the power rules, then the atom rules; a
    power rule fails its exponent test at any other exponent), and b-atom
    pairs."""

    __slots__ = ("name", "rules", "dot_rules", "entry_rules", "product_rules")

    def __init__(self, name: str, rules: tuple[RewriteRule, ...]):
        require(name, str, "RuleSet argument name must be a str")
        require(rules, tuple, "RuleSet argument rules must be a tuple")
        for rule in rules:
            require(rule, RewriteRule, "RuleSet argument rules must hold RewriteRule values")
        self.name = name
        self.rules = rules
        self.dot_rules = tuple(r for r in rules if r.kind == "dot")
        self.entry_rules = (tuple(r for r in rules if r.kind == "power")
                            + tuple(r for r in rules if r.kind == "atom"))
        self.product_rules = tuple(r for r in rules if r.kind == "product")


def _pattern_vars(p: rx.RawExpr) -> set[str]:
    return {node.name for node in rx.idents(p) if node.name.isupper()}


def compile_rule(name: str, raw_lhs: rx.RawExpr, raw_rhs: rx.RawExpr,
                 allow_noop: bool = False) -> RewriteRule:
    """Turn parsed `lhs -> rhs` trees into a typed rule.

    With `allow_noop`, an lhs that canonical forms can never exhibit
    (scalar factors or sums inside pattern positions) compiles to a
    documented no-op instead of failing.  A power pattern whose exponent
    is not an int of at least 2 raises ParseError at its span, as the
    parser does, so a power rule never binds where an atom rule may.  A
    pattern too deep to walk raises ExprTypeError at the span of its root.
    """
    require(name, str, "compile_rule argument name must be a str")
    require(raw_lhs, rx.RawExpr, "compile_rule argument raw_lhs must be a RawExpr")
    require(raw_rhs, rx.RawExpr, "compile_rule argument raw_rhs must be a RawExpr")
    rule = None
    try:
        shape = _shape(raw_lhs)
        if shape == "word" and isinstance(raw_lhs, rx.Dot):
            rule = RewriteRule(name, "dot", raw_lhs, raw_rhs)
        elif shape in ("q", "b"):
            rule = RewriteRule(name, "atom", raw_lhs, raw_rhs)
        elif isinstance(raw_lhs, rx.Pow) and _shape(raw_lhs.base) in ("q", "b"):
            k = raw_lhs.exponent
            if not is_int(k):
                raise ParseError(f"expected an integer exponent, found {k!r}", raw_lhs.span)
            if k < 2:
                raise ParseError("exponent must be at least 2", raw_lhs.span)
            rule = RewriteRule(name, "power", raw_lhs.base, raw_rhs, power=k)
        elif isinstance(raw_lhs, rx.Mul) and [_shape(i) for i in raw_lhs.items] == ["b", "b"]:
            rule = RewriteRule(name, "product", raw_lhs.items[0], raw_rhs, lhs2=raw_lhs.items[1])
    except RecursionError:
        raise nesting_error(raw_lhs) from None
    if rule is None:
        if allow_noop:
            return RewriteRule(name, "noop", None, raw_rhs)
        raise ParseError(
            "rule pattern must be a dot-word, a q/b atom, a power of a b atom, "
            "or a product of two b atoms over dot-word patterns",
            raw_lhs.span,
        )
    for node in rx.idents(raw_rhs):
        if node.name.isupper() and node.name not in rule.variables:
            raise ParseError(f"template variable {node.name!r} does not occur in the pattern",
                             node.span)
    return rule


# --- application ------------------------------------------------------------


_UNSEEN = object()

# The engine cache is bounded twice.  `_memo` keeps `_MEMOS` memos, one per
# rule set and symbol table; a replay of the built-in catalog keeps 18
# (52 templates, 495 sites, 0.11 MB).  A memo holds its rule set and table
# alive, so this also caps the tables kept past their last use.  A call
# that finds more than `_MEMO_SITES` site entries in its memo clears them
# first; the rewrite-scale family k = 2..10, run in sequence on one table,
# leaves 7,431 (1.7 MB by tracemalloc on CPython 3.11).  Between calls
# the whole cache holds at most 32 * 16,384 sites, some 120 MB at that size.
_MEMOS = 32
_MEMO_SITES = 16_384


class RewriteMemo:
    """The engine cache of one rule set on one symbol table; it never
    changes a result.

    `sites` maps each root and site subject to the value that replaces it,
    or to None when nothing rewrites it: a Word to its value after its
    first dot rewrite, an Atom to the atom rebuilt after the first dot
    rewrite in its arguments, an (Atom, exponent) entry or an (Atom, Atom)
    pair to the instantiated right-hand side of the first rule that binds
    there.  `templates` maps each rule that has bound on the table to its
    template (``_template``), None where the rule has none.  Both depend
    only on the rule set and on the `(sort, index)` entries of the names
    its rules use.  A declaration never changes an existing entry, and a
    site or template whose build raises is not stored, so it raises again
    at every call; ``_memo`` therefore keeps one memo per rule set and
    table across ``apply_once`` and ``apply_fixpoint`` calls.
    """

    __slots__ = ("ruleset", "symbols", "sites", "templates")

    def __init__(self, ruleset: RuleSet, symbols: SymbolTable):
        self.ruleset = ruleset
        self.symbols = symbols
        self.sites: dict = {}
        self.templates: dict = {}


@lru_cache(maxsize=_MEMOS)
def _memo(rs: RuleSet, symbols: SymbolTable) -> RewriteMemo:
    """The memo of `rs` on `symbols`, built at their first apply call and
    kept for the later ones."""
    return RewriteMemo(rs, symbols)


def _call_memo(name: str, e, rs, symbols) -> RewriteMemo:
    """Check the arguments of apply call `name` and return its memo, with
    the sites cleared first when they have outgrown `_MEMO_SITES`."""
    require(e, Expr, f"{name} argument e must be an Expr")
    require(rs, RuleSet, f"{name} argument rs must be a RuleSet")
    require(symbols, SymbolTable, f"{name} argument symbols must be a SymbolTable")
    memo = _memo(rs, symbols)
    if len(memo.sites) > _MEMO_SITES:
        memo.sites.clear()
    return memo


# --- right-hand-side templates ------------------------------------------------


def _holes(rhs: rx.RawExpr):
    """Each pattern variable of a right-hand side paired with a private
    placeholder leaf, or None when a q argument is not a word pattern:
    q(X + Y) polarizes differently once X and Y bind the same word, so
    such a right-hand side has no exact template."""
    if any(_shape(node.arg) != "word" for node in rx.nodes(rhs, rx.Q)):
        return None
    # Real symbols have indices >= 0, so no placeholder equals a real word.
    return tuple((name, Word.leaf(name, -1 - k))
                 for k, name in enumerate(sorted(_pattern_vars(rhs))))


def _word_env(symbols: SymbolTable, binds: dict[str, Word]) -> Env:
    """The environment that binds each variable name to its word."""
    return Env(symbols, {name: VectorExpr.from_word(w) for name, w in binds.items()})


def _template(rule: RewriteRule, symbols: SymbolTable):
    """The right-hand side canonicalized once with the rule's placeholder
    leaves (``_holes``), as `(holes, vector, units)`: `units` lists the
    template's `(word, mono, coeff)` units.  None when the rule has no
    holes, or when the template raises a sort error: a summand of either
    sort may be nonzero under placeholders and vanish under a real
    binding.  An undeclared name raises UnknownSymbol.  The engine builds
    each template once per memo (``_instantiate``).  A right-hand side
    too deep to walk raises ExprTypeError at the span of its root."""
    try:
        holes = _holes(rule.rhs)
    except RecursionError:
        raise nesting_error(rule.rhs) from None
    if holes is None:
        return None
    try:
        value = canonicalize(rule.rhs, _word_env(symbols, dict(holes)))
    except ExprTypeError:
        return None
    return holes, is_vector(value), tuple(units(value))


def _fill_word(w: Word, words: dict) -> Word:
    """`w` with each placeholder leaf replaced by its word in `words`, which
    also memoizes every subword filled so far."""
    out = words.get(w)
    if out is None:
        out = words[w] = w if w.is_leaf else Word.pair(_fill_word(w.left, words),
                                                        _fill_word(w.right, words))
    return out


def _fill(template, binds: dict[str, Word]) -> Expr:
    """The template's value under `binds`: each word and q/b atom rebuilt
    from the bound words, each monomial multiplied back together from its
    rebuilt entries by ``mono_mul`` (atoms that became equal merge), and
    equal units added."""
    holes, vector, template_units = template
    words = {hole: binds[name] for name, hole in holes}
    out: dict = {}
    for word, mono, coeff in template_units:
        filled = EMPTY_MONOMIAL
        for atom, exp in mono:
            if atom.is_q:
                atom = Atom.q(_fill_word(atom.w1, words))
            elif atom.is_b:
                atom = Atom.b(_fill_word(atom.w1, words), _fill_word(atom.w2, words))
            filled = mono_mul(filled, ((atom, exp),))
        add_term(out.setdefault(None if word is None else _fill_word(word, words), {}),
                 filled, coeff)
    return from_units(out, vector)


def _instantiate(rule: RewriteRule, binds: dict[str, Word], memo: RewriteMemo) -> Expr:
    """The rule's right-hand side under `binds`: its template, built into
    `memo` the first time, filled with the bound words, or
    ``canonicalize`` where the rule has no template."""
    template = memo.templates.get(rule, _UNSEEN)
    if template is _UNSEEN:
        template = memo.templates[rule] = _template(rule, memo.symbols)
    if template is not None:
        return _fill(template, binds)
    return canonicalize(rule.rhs, _word_env(memo.symbols, binds))


# --- the pass -----------------------------------------------------------------


def _first_match(rules, subject, memo: RewriteMemo):
    """The instantiated right-hand side of the first rule that binds at a
    site, raised to the atom's exponent for an atom rule, or None."""
    for rule in rules:
        binds = rule.bind(subject)
        if binds is None:
            continue
        repl = _instantiate(rule, binds, memo)
        if is_vector(repl) != (rule.kind == "dot"):
            what = "a dot-word to a vector" if rule.kind == "dot" else "an atom to a scalar"
            raise EngineError(f"rule {rule.name} must rewrite {what} value")
        return repl ** subject[1] if rule.kind == "atom" else repl
    return None


def _word_rewrite(w: Word, memo: RewriteMemo):
    """The value of `w` after its first dot rewrite, or None.  Outermost
    first: the node, then the left subtree, then the right subtree."""
    if w.is_leaf:
        return None
    sites = memo.sites
    value = sites.get(w, _UNSEEN)
    if value is _UNSEEN:
        value = _first_match(memo.ruleset.dot_rules, w, memo)
        if value is None:
            left = _word_rewrite(w.left, memo)
            if left is not None:
                value = word_with(w, left, None)
            else:
                right = _word_rewrite(w.right, memo)
                value = None if right is None else word_with(w, None, right)
        sites[w] = value
    return value


def _first_rewrite(mono: Monomial, word: Word | None, memo: RewriteMemo):
    """The first rewrite of one monomial (or vector term `word` times
    `mono`) as `(drop, value)`: `value` replaces the entries of `mono` at
    the indices `drop`, or the word itself when `drop` is empty.  None
    when no rule applies.

    This defines the site order: dot-subtrees outermost first, of the term
    word, then of the q/b arguments in atom order; then atoms in atom
    order; then ordered pairs of distinct exponent-1 b atoms.  Site kinds
    with no rules are skipped.  The monomial's scalar symbols form a prefix
    (see ``core.Monomial``) and are never sites, so the prefix is found
    once and each phase walks only the entries past it.  Each site is one
    probe of `memo.sites`, and ``_first_match`` runs only where it misses;
    the pair phase walks the indices of the exponent-1 b atoms.
    """
    rs, sites = memo.ruleset, memo.sites
    n = len(mono)
    start = 0
    while start < n and mono[start][0].is_symbol:
        start += 1
    if rs.dot_rules:
        if word is not None:
            value = _word_rewrite(word, memo)
            if value is not None:
                return (), value
        for idx in range(start, n):
            atom, exp = mono[idx]
            value = sites.get(atom, _UNSEEN)
            if value is _UNSEEN:
                v1 = _word_rewrite(atom.w1, memo)
                v2 = None if v1 is not None or atom.is_q else _word_rewrite(atom.w2, memo)
                value = sites[atom] = (None if v1 is None and v2 is None
                                       else atom_with(atom, v1, v2))
            if value is not None:
                return (idx,), value ** exp
    rules = rs.entry_rules
    if rules:
        for idx in range(start, n):
            entry = mono[idx]
            value = sites.get(entry, _UNSEEN)
            if value is _UNSEEN:
                value = sites[entry] = _first_match(rules, entry, memo)
            if value is not None:
                return (idx,), value
    rules = rs.product_rules
    if rules and n - start >= 2:
        bs = [idx for idx in range(start, n) if mono[idx][1] == 1 and mono[idx][0].is_b]
        for i in bs:
            first = mono[i][0]
            for j in bs:
                if i != j:
                    pair = (first, mono[j][0])
                    value = sites.get(pair, _UNSEEN)
                    if value is _UNSEEN:
                        value = sites[pair] = _first_match(rules, pair, memo)
                    if value is not None:
                        return (i, j), value
    return None


def _pass(frontier, normal: dict, fresh: dict, memo: RewriteMemo) -> dict:
    """One pass over the units of `frontier`, `(word, {mono: coeff})` pairs
    in storage order: at most one rewrite per unit.  A unit no rule
    rewrites is added into the `word -> {mono: coeff}` map `normal`, a
    rewrite into `fresh` (``core.add_unit``); the two may be one map.
    Returns the units it rewrote, as such a map.  A word's entry in
    `normal` and in the result is made only when a unit of the word goes
    there, so the result holds no empty one (``apply_fixpoint`` compares
    it with the pass's output)."""
    rewritten: dict = {}
    for word, terms in frontier:
        kept = done = None
        for mono, coeff in terms.items():
            hit = _first_rewrite(mono, word, memo)
            if hit is None:
                if kept is None:
                    kept = normal.setdefault(word, {})
                add_term(kept, mono, coeff)
                continue
            if done is None:
                done = rewritten.setdefault(word, {})
            done[mono] = coeff
            drop, value = hit
            if not drop:
                rest = mono
            elif len(drop) == 1:
                i = drop[0]
                rest = mono[:i] + mono[i + 1:]
            else:
                i, j = sorted(drop)
                rest = mono[:i] + mono[i + 1:j] + mono[j + 1:]
            add_unit(fresh, coeff, rest, word, value)
    return rewritten


def apply_once(e: Expr, rs: RuleSet, symbols: SymbolTable) -> Expr:
    """One deterministic pass over every unit of `e`, in storage order: at
    most one rewrite per monomial/term.  Unrewritten units and rewrites
    go into one map; the pass uses the memo of `rs` on `symbols`."""
    memo = _call_memo("apply_once", e, rs, symbols)
    out: dict = {}
    _pass(e.by_word(), out, out, memo)
    return from_units(out, is_vector(e))


def apply_fixpoint(e: Expr, rs: RuleSet, symbols: SymbolTable) -> Expr:
    """Run passes until one leaves the value unchanged, and return that
    value; the passes use the memo of `rs` on `symbols`.  Raises
    NonTermination after `MAX_PASSES` passes.

    Semi-naive (Bancilhon and Ramakrishnan, 1986): a unit a pass leaves
    unrewritten is normal, and every later pass would leave it so, so it
    goes into the result map `normal` for good.  Each pass after the first
    visits only `frontier`, the units the pass before it produced.  Once
    a pass has added the units it left alone into `normal`, the value
    after it is `normal` plus its output, and the value before it is
    `normal` plus the units it rewrote.  So the value is unchanged exactly
    when the two are equal, and then it is `normal` plus the last
    frontier.
    """
    memo = _call_memo("apply_fixpoint", e, rs, symbols)
    normal: dict = {}
    frontier = e.by_word()
    for _ in range(MAX_PASSES):
        fresh: dict = {}
        rewritten = _pass(frontier, normal, fresh, memo)
        fresh = {word: terms for word, terms in fresh.items() if terms}
        if fresh == rewritten:
            # A normal unit is never a rewritten one, so the two maps
            # share no unit.
            for word, terms in rewritten.items():
                normal.setdefault(word, {}).update(terms)
            return from_units(normal, is_vector(e))
        frontier = fresh.items()
    raise NonTermination(f"rule set {rs.name!r} did not stabilize within {MAX_PASSES} passes")


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


def builtin_ruleset_names() -> frozenset[str]:
    return frozenset(_BUILTIN_SOURCES)


def builtin_ruleset(name: str) -> RuleSet:
    """The transcribed rule set for a catalog name, compiled once per
    process; an unknown name raises on every call."""
    require(name, str, "builtin_ruleset argument name must be a str")
    return _builtin_ruleset(name)


@cache
def _builtin_ruleset(name: str) -> RuleSet:
    sources = _BUILTIN_SOURCES.get(name)
    if sources is None:
        raise RuleSetUnknown(f"unknown rule set {name!r}")
    from .parser import parse_rule_source

    rules = []
    for k, src in enumerate(sources, start=1):
        lhs, rhs = parse_rule_source(src)
        rules.append(compile_rule(f"{name}#{k}", lhs, rhs, allow_noop=True))
    return RuleSet(name, tuple(rules))


# --- instantiation of both sides (for soundness checks) ---------------------


def instantiate_sides(rule: RewriteRule, binds: dict[str, Word],
                      symbols: SymbolTable) -> tuple[Expr, Expr]:
    """Build lhs and rhs values of a rule under a variable binding, which
    must give each pattern variable a Word and bind nothing else."""
    require(rule, RewriteRule, "instantiate_sides argument rule must be a RewriteRule")
    require(binds, dict, "instantiate_sides argument binds must be a dict")
    if rule.kind == "noop":
        raise EngineError(f"rule {rule.name} is a documented no-op")
    for name, w in binds.items():
        require(w, Word, f"instantiate_sides argument binds must give {name!r} a Word")
    for name in rule.variables:
        if name not in binds:
            raise EngineError(f"pattern variable {name!r} of rule {rule.name} has no binding")
    if len(binds) != len(rule.variables):
        extra = next(name for name in binds if name not in rule.variables)
        raise EngineError(f"binding {extra!r} is not a pattern variable of rule {rule.name}")
    env = _word_env(symbols, binds)
    lhs = canonicalize(rule.lhs, env)
    if rule.kind == "power":
        lhs = lhs ** rule.power
    elif rule.kind == "product":
        lhs = lhs * canonicalize(rule.lhs2, env)
    return lhs, canonicalize(rule.rhs, env)
