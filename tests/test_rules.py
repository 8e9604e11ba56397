"""Matching semantics, application strategy, and the built-in catalog."""
import hashlib
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import symcomp.rawexpr as rx
from symcomp import (
    apply_fixpoint,
    apply_once,
    builtin_ruleset,
    canonicalize,
    compile_rule,
    equal,
    parse_rule_source,
    print_expr,
    rules,
)
from symcomp import core
from symcomp.core import Atom, ScalarExpr, VectorExpr, Word, mono_mul
from symcomp.errors import (
    EngineError,
    ExprTypeError,
    NonTermination,
    ParseError,
    RuleSetUnknown,
    SymcompError,
    UnknownSymbol,
)
from symcomp.oracle import eval_expr, random_assignment
from symcomp.rules import RewriteMemo, RuleSet, instantiate_sides, _pattern_vars
from symcomp.sessions import builtin_session_names, run_builtin_session
from helpers import (
    Ctx,
    first_rewrite_reference,
    random_raw,
    reference_bind,
    scaling_family,
    scaling_source,
    stores_no_zero,
)


def make_rule(src: str, name: str = "r"):
    lhs, rhs = parse_rule_source(src)
    return compile_rule(name, lhs, rhs)


FLEX = make_rule("(X.Y).X -> q(X)*Y")
PRODUCT = make_rule("b(X,Y)*b(Z,U) -> b(X.Z, Y.U) + b(X.U, Y.Z)")


def test_match_flexible_pattern(xy):
    binds = FLEX.bind(xy.word("(x.y).x"))
    assert binds == {"X": xy.word("x"), "Y": xy.word("y")}


def test_nonlinear_variable_mismatch(xyz):
    assert FLEX.bind(xyz.word("(x.y).z")) is None


def test_match_product_pattern_enumeration_order(xy):
    # The pairs of a monomial's b atoms are sites in storage order, so the
    # first factor of the first pair is the atom stored first.
    (a1, _), (a2, _) = xy.mono("b(x.y, y)*b(y.x, x)")
    assert PRODUCT.bind((a1, a2)) == {
        "X": xy.word("x.y"),
        "Y": xy.word("y"),
        "Z": xy.word("y.x"),
        "U": xy.word("x"),
    }
    product = RuleSet("product", (PRODUCT,))
    out = apply_once(xy.canon("b(x.y, y)*b(y.x, x)"), product, xy.table)
    assert equal(out, xy.canon("b((x.y).(y.x), y.x) + b((x.y).x, y.(y.x))"))


def test_power_atoms_do_not_match_the_product_pattern(xy):
    # Two equal b atoms are stored as a square, which no product rule reads.
    product = RuleSet("product", (PRODUCT,))
    for source in ("b(x,y)^2", "b(x,y)^2*b(y,x)", "b(x,y)^2*b(y,x)^3"):
        e = xy.canon(source)
        assert equal(apply_once(e, product, xy.table), e), source


def test_power_pattern_requires_exact_exponent(xy):
    square = make_rule("b(X,Y)^2 -> b(X.X, Y.Y) + b(X.Y, Y.X)")
    (entry,) = xy.mono("b(x,y)^2")
    assert square.bind(entry) is not None
    (entry3,) = xy.mono("b(x,y)^3")
    assert square.bind(entry3) is None


def test_apply_once_examples(xy, xyz):
    assleft = builtin_ruleset("assleft")
    out = apply_once(xyz.canon("b(x, y.z)"), assleft, xyz.table)
    assert equal(out, xyz.canon("b(x.y, z)"))

    rules1 = builtin_ruleset("rules1")
    e = xy.canon("q(x)")
    assert equal(apply_once(e, rules1, xy.table), e)

    bsym = builtin_ruleset("bsym")
    e = xy.canon("b(x,y)*q(x)*q(y) - b(y,x)*q(x)*q(y)")
    assert apply_once(e, bsym, xy.table).is_zero


def test_apply_once_rewrites_one_site_per_monomial(xy):
    bsym = builtin_ruleset("bsym")
    e = xy.canon("b(y,x) + b(y,x)*q(x)")
    out = apply_once(e, bsym, xy.table)
    # both monomials get their single site rewritten in the same pass
    assert equal(out, xy.canon("b(x,y) + b(x,y)*q(x)"))


def test_fixpoint_chain_with_transcribed_intermediates(xy):
    rules1 = builtin_ruleset("rules1")
    assleft = builtin_ruleset("assleft")
    bsym = builtin_ruleset("bsym")
    st = xy.table

    e0 = xy.canon("b(x.y, (y.x).(y.x)) - b(x.y, y)*b(y.x, x) + b(x,y)*q(x)*q(y)")
    e1 = apply_fixpoint(e0, rules1, st)
    assert equal(e1, xy.canon(
        "b(x.y, (y.x).(y.x)) - b((x.y).(y.x), y.x) - b(y, y.(y.x))*q(x) + b(x,y)*q(x)*q(y)"))
    e2 = apply_fixpoint(e1, assleft, st)
    assert equal(e2, xy.canon("b(x,y)*q(x)*q(y) - b((y.y).y, x)*q(x)"))
    e3 = apply_fixpoint(e2, rules1, st)
    assert equal(e3, xy.canon("b(x,y)*q(x)*q(y) - b(y,x)*q(x)*q(y)"))
    assert apply_once(e3, bsym, st).is_zero


def test_fixpoint_cube_identity(xy):
    rules1 = builtin_ruleset("rules1")
    e = xy.canon(
        "b(x,y)*b(x.x, y.y) + b(x,y)*b(x.y, y.x) - b(x.(y.y), y.(x.x))"
        " - b(x,y)*q(x)*q(y) - b(x,y)*b(x.y, y.x)")
    assert apply_fixpoint(e, rules1, xy.table).is_zero


def test_fixpoint_is_a_fixpoint(xy):
    rules1 = builtin_ruleset("rules1")
    e = xy.canon("b(x.y, (y.x).(y.x)) - b(x.y, y)*b(y.x, x) + b(x,y)*q(x)*q(y)")
    fp = apply_fixpoint(e, rules1, xy.table)
    assert equal(apply_once(fp, rules1, xy.table), fp)


def test_nontermination_cap(xy):
    swap = make_rule("b(X, Y) -> b(Y, X)")
    rs = RuleSet("swap", (swap,))
    with pytest.raises(NonTermination) as err:
        apply_fixpoint(xy.canon("b(x,y)"), rs, xy.table)
    assert str(err.value) == "rule set 'swap' did not stabilize within 10000 passes"
    assert rules.MAX_PASSES == 10_000


def test_builtin_catalog_counts():
    expected = {
        "rules1": 7, "rules2": 11, "assleft": 1, "assocb": 3,
        "move1": 2, "move2": 5, "move3": 2, "move4": 10, "move5": 9,
        "bsym": 1, "expandq": 2, "expandb": 5, "expanddot": 3,
    }
    for name, count in expected.items():
        assert len(builtin_ruleset(name).rules) == count, name


# Rule kinds of every catalog set, in listing order.
CATALOG_KINDS = {
    "assleft": "atom",
    "assocb": "atom atom atom",
    "bsym": "atom",
    "expandb": "noop noop noop noop noop",
    "expanddot": "noop noop noop",
    "expandq": "noop atom",
    "move1": "atom atom",
    "move2": "atom atom atom atom atom",
    "move3": "atom atom",
    "move4": "atom atom atom atom atom atom atom atom atom atom",
    "move5": "atom atom atom atom atom atom atom atom atom",
    "rules1": "product atom atom dot dot noop noop",
    "rules2": "product atom atom dot dot noop noop power power atom atom",
}


@pytest.mark.parametrize("name, listed, reversed_", [
    ("rules1", "q(x)*b(y,y)", "q(y)*b(x,x)"),
    ("rules2", "2*q(x)*q(y)", "2*q(x)*q(y)"),
])
def test_listing_order_decides_the_rules1_normal_form(xy, name, listed, reversed_):
    # rules1 is not confluent: b(X.Y, X.Z) and b(X.Y, Z.Y) overlap on
    # b(x.y, x.y), and the rule tried first decides the normal form.
    rs = builtin_ruleset(name)
    e = xy.canon("b(x.y, x.y)")
    assert print_expr(apply_fixpoint(e, rs, xy.table)) == listed
    assert print_expr(apply_fixpoint(e, RuleSet(name, rs.rules[::-1]), xy.table)) == reversed_


def test_builtin_catalog_kinds():
    assert sorted(CATALOG_KINDS) == sorted(rules.builtin_ruleset_names())
    for name, kinds in CATALOG_KINDS.items():
        assert " ".join(r.kind for r in builtin_ruleset(name).rules) == kinds, name


@pytest.mark.parametrize("exponent, message", [
    (1, "exponent must be at least 2"), (0, "exponent must be at least 2"),
    (-2, "exponent must be at least 2"), (2.0, "expected an integer exponent, found 2.0"),
    (True, "expected an integer exponent, found True")])
def test_power_pattern_exponent_is_an_int_of_at_least_2(exponent, message):
    # The engine tries the power rules first at every q/b atom, so a power
    # rule must never bind where an atom rule may; a hand-built pattern
    # passes no parser that would refuse these exponents.
    lhs, rhs = parse_rule_source("b(X,Y)^2 -> b(X.X, Y.Y)")
    with pytest.raises(ParseError) as err:
        compile_rule("r", rx.Pow(lhs.base, exponent, lhs.span), rhs)
    assert (err.value.message, err.value.span) == (message, lhs.span)


def test_chained_power_pattern_is_one_power_rule(xy):
    rule = make_rule("b(X,Y)^2^2 -> q(X)^2*q(Y)^2")
    assert (rule.kind, rule.power) == ("power", 4)
    (entry,) = xy.mono("b(x,y)^4")
    assert rule.bind(entry) == {"X": xy.word("x"), "Y": xy.word("y")}
    (entry,) = xy.mono("b(x,y)^2")
    assert rule.bind(entry) is None


def test_no_catalog_rule_set_rewrites_the_okubo_witness(xy):
    # W is zero in every para-Hurwitz algebra (two elements generate an
    # associative subalgebra) but not in an Okubo form, and b(W, y) is a
    # scalar of session M's bidegree (3,3).  A rule set that reduced either
    # to 0 would be unsound for symmetric compositions in general.
    w = "(y.(y.x)).(x.x) - y.(x.(x.(x.y)))"
    for value in (xy.canon(w), xy.canon(f"b({w}, y)")):
        assert not value.is_zero
        for name in rules.builtin_ruleset_names():
            assert apply_fixpoint(value, builtin_ruleset(name), xy.table) == value, name


def test_unknown_ruleset():
    # The catalog cache keeps no failure: an unknown name raises every time.
    for _ in range(2):
        with pytest.raises(RuleSetUnknown, match="unknown rule set 'nope'"):
            builtin_ruleset("nope")


def test_builtin_ruleset_is_compiled_once():
    assert builtin_ruleset("rules2") is builtin_ruleset("rules2")


def test_noop_rules_never_fire(xy):
    rules1 = builtin_ruleset("rules1")
    noops = [r for r in rules1.rules if r.kind == "noop"]
    assert len(noops) == 2
    rs = type(rules1)("noops", tuple(noops))
    e = xy.canon("b(x.y, y)*b(y.x, x)*q(x)")
    assert equal(apply_fixpoint(e, rs, xy.table), e)
    # A no-op has no sides to instantiate for a soundness check.
    with pytest.raises(EngineError, match=r"^rule expandb#1 is a documented no-op$"):
        instantiate_sides(builtin_ruleset("expandb").rules[0], {}, xy.table)


def test_template_variables_must_occur_in_pattern():
    with pytest.raises(ParseError):
        make_rule("b(X, Y) -> b(X, Z)")


def test_apply_once_preserves_oracle_value(xy):
    # One pass of any built-in set never changes the evaluated value.
    rng = random.Random(11)
    exprs = [
        xy.canon("b(x.y, (y.x).(y.x)) - b(x.y, y)*b(y.x, x) + b(x,y)*q(x)*q(y)"),
        xy.canon("b(x,y)^2*q(x) + b(x,y)^3 - b(x,x)*q(x.y)"),
        xy.canon("b(x.(x.y), y.(y.x)) - b(x,y)*b(x.y, y.x)"),
    ]
    for name in ("rules1", "rules2", "assleft", "assocb", "move1", "move2",
                 "move3", "move4", "move5", "bsym"):
        rs = builtin_ruleset(name)
        for e in exprs:
            out = apply_once(e, rs, xy.table)
            for trial in range(20):
                a = random_assignment(["x", "y"], [], 900 + trial, trial)
                assert eval_expr(e, a) == eval_expr(out, a), (name, trial)


def test_dot_rewrite_inside_q_argument(xy):
    # flexibility fires inside the q atom; the extracted scalar squares
    rules1 = builtin_ruleset("rules1")
    got = apply_once(xy.canon("q(x.(y.x))"), rules1, xy.table)
    assert equal(got, xy.canon("q(x)^2*q(y)"))


def test_dot_rewrite_inside_squared_atom(xy):
    rules1 = builtin_ruleset("rules1")
    got = apply_once(xy.canon("q(x.(y.x))^2"), rules1, xy.table)
    assert equal(got, xy.canon("q(x)^4*q(y)^2"))


def test_dot_rewrite_moves_scalar_to_term_coefficient(xy):
    rules1 = builtin_ruleset("rules1")
    got = apply_once(xy.canon("((x.y).x).y"), rules1, xy.table)
    assert equal(got, xy.canon("q(x)*(y.y)"))


def test_power_rule_takes_precedence_over_base_match(xy):
    # b(x.y, x.x)^2: the base also matches a contraction rule, but the
    # square is a power atom, so the power rule fires
    rules2 = builtin_ruleset("rules2")
    got = apply_once(xy.canon("b(x.y, x.x)^2"), rules2, xy.table)
    expected = xy.canon("b((x.y).(x.y), (x.x).(x.x)) + b((x.y).(x.x), (x.x).(x.y))")
    assert equal(got, expected)


def test_product_pattern_uses_first_pair_in_atom_order(xy):
    rules1 = builtin_ruleset("rules1")
    e = xy.canon("b(x,y)*b(x.x, y.y)*b(x.y, y.x)")
    got = apply_once(e, rules1, xy.table)
    expected = xy.canon(
        "(b(x.(x.x), y.(y.y)) + b(x.(y.y), y.(x.x)))*b(x.y, y.x)")
    assert equal(got, expected)


@pytest.mark.parametrize("source, expected", [
    # a dot site inside a b argument comes before the atom site, which
    # would give q(x.y)*b(x,z)
    ("b((x.y).x, (x.y).z)", "q(x)*b(y, (x.y).z)"),
    # the term word's dot sites come before those inside atom arguments
    ("((x.y).x)*q((y.z).y)", "q(x)*q((y.z).y)*y"),
    # an atom site comes before the b-pair sites
    ("b(x.y, x.z)*b(y,z)", "q(x)*b(y,z)^2"),
    # a dot site in the second argument of a squared atom rewrites the
    # whole power
    ("b(x, (y.x).y)^2", "q(y)^2*b(x,x)^2"),
])
def test_site_order_at_each_site_kind_boundary(xyz, source, expected):
    rules1 = builtin_ruleset("rules1")
    got = apply_once(xyz.canon(source), rules1, xyz.table)
    assert equal(got, xyz.canon(expected))


def test_fixpoint_preserves_oracle_value_on_random_expressions():
    # differential check across the whole catalog
    from helpers import Ctx, random_raw, random_ctx_assignment
    from symcomp import canonicalize
    from symcomp.oracle import eval_expr

    ctx = Ctx(scalars=("alpha", "beta"), vectors=("x", "y"))
    sets = [builtin_ruleset(n) for n in
            ("rules1", "rules2", "assleft", "assocb", "move1", "move2",
             "move3", "move4", "move5", "bsym", "expandq")]
    rng = random.Random(987)
    for _ in range(30):
        raw = random_raw(rng, ctx, depth=4)
        e = canonicalize(raw, ctx.env)
        for rs in sets:
            out = apply_fixpoint(e, rs, ctx.table)
            a = random_ctx_assignment(rng, ctx)
            v1, v2 = eval_expr(e, a), eval_expr(out, a)
            assert type(v1) is type(v2) and v1 == v2, rs.name


def test_rule_soundness_sample(xy):
    # Spot check: every live rules2 entry holds identically in the model.
    rng = random.Random(3)
    base = [xy.word("x"), xy.word("y")]

    def random_word(depth):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice(base)
        return Word.pair(random_word(depth - 1), random_word(depth - 1))

    rs = builtin_ruleset("rules2")
    for rule in rs.rules:
        if rule.kind == "noop":
            continue
        variables = sorted(_pattern_vars(rule.lhs)
                           | (_pattern_vars(rule.lhs2) if rule.lhs2 else set()))
        for trial in range(25):
            binds = {v: random_word(2) for v in variables}
            lhs, rhs = instantiate_sides(rule, binds, xy.table)
            a = random_assignment(["x", "y"], [], 52, trial)
            diff = lhs - rhs
            value = eval_expr(diff, a)
            assert value == 0 or getattr(value, "is_zero", False), rule.name


def test_match_binds_every_instantiated_left_hand_side(xy):
    # The matcher and the instantiation of a rule's left-hand side read the
    # same pattern: the site of an instantiated lhs binds, and the binding
    # rebuilds the same lhs.  A product rule's site is the pair of its two
    # instantiated factors, which the engine visits among the monomial's
    # b-atom pairs.
    rng = random.Random(5)
    base = [xy.word("x"), xy.word("y")]

    def random_word(depth):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice(base)
        return Word.pair(random_word(depth - 1), random_word(depth - 1))

    checked = 0
    for name in sorted(rules.builtin_ruleset_names()):
        for rule in builtin_ruleset(name).rules:
            if rule.kind == "noop":
                continue
            variables = sorted(_pattern_vars(rule.lhs)
                               | (_pattern_vars(rule.lhs2) if rule.lhs2 else set()))
            for _ in range(10):
                binds = {v: random_word(2) for v in variables}
                lhs, _ = instantiate_sides(rule, binds, xy.table)
                ((site, coeff),) = lhs.terms.items()
                if rule.kind == "dot":
                    assert coeff == ScalarExpr.const(1), rule.name
                else:
                    assert coeff == 1, rule.name
                    if rule.kind == "product":
                        if len(site) == 1:
                            continue    # two equal atoms are stored as a square
                        env = rules._word_env(xy.table, binds)
                        (((a1, _),),) = canonicalize(rule.lhs, env).terms
                        (((a2, _),),) = canonicalize(rule.lhs2, env).terms
                        bs = [atom for atom, exp in site if atom.is_b and exp == 1]
                        assert (a1, a2) in [(p, r) for p in bs for r in bs if p != r]
                        site = (a1, a2)
                    else:
                        (site,) = site
                found = rule.bind(site)
                assert found is not None, (rule.name, binds)
                assert equal(instantiate_sides(rule, found, xy.table)[0], lhs), rule.name
                checked += 1
    assert checked > 300


CATALOG = sorted(rules.builtin_ruleset_names())


# User rules beyond the catalog: variables repeated within one pattern and
# across the factors of a product, next to lowercase literals.
USER_MATCH_RULES = [make_rule(src, f"user#{k}") for k, src in enumerate([
    "(X.x).(Y.X) -> q(X)*Y",
    "X.(X.X) -> q(X)*X",
    "q((X.y).X) -> q(X)*q(y)",
    "b(X.y, (X.X).x) -> q(X)*b(y, x)",
    "b(X, x.X)^2 -> q(X)*q(x)",
    "q(X.X)^3 -> q(X)^6",
    "b(X, Y)*b(Y.x, X) -> b(X.Y, x)",
    "b(x.X, Y)*b(Y, x.X) -> q(X)*q(Y)",
], start=1)]


def _build(pattern, words, leaves):
    """The site a pattern tree describes, each variable occurrence taken
    from `words` in turn (so a repeated variable may get different words)
    and each literal from `leaves`."""
    if isinstance(pattern, rx.Ident):
        return words.pop(0) if pattern.name.isupper() else leaves[pattern.name]
    if isinstance(pattern, rx.Dot):
        left = _build(pattern.left, words, leaves)
        return Word.pair(left, _build(pattern.right, words, leaves))
    if isinstance(pattern, rx.Q):
        return Atom.q(_build(pattern.arg, words, leaves))
    w1 = _build(pattern.left, words, leaves)
    return Atom.b(w1, _build(pattern.right, words, leaves))


def _word_mutants(w, leaves):
    """Words one change away from `w`: a leaf swapped for another, a dot
    where a leaf was, or a leaf where a dot was."""
    if w.is_leaf:
        return [leaf for leaf in leaves if leaf is not w] + [Word.pair(w, leaves[0])]
    return ([leaves[0]] + [Word.pair(m, w.right) for m in _word_mutants(w.left, leaves)]
            + [Word.pair(w.left, m) for m in _word_mutants(w.right, leaves)])


def _atom_mutants(atom, leaves):
    """Atoms one change away from `atom`: a changed argument word, or the
    wrong atom kind."""
    if atom.is_q:
        return ([Atom.q(m) for m in _word_mutants(atom.w1, leaves)]
                + [Atom.b(atom.w1, atom.w1), Atom.b(atom.w1, leaves[0]),
                   Atom.symbol("alpha", 0)])
    return ([Atom.b(m, atom.w2) for m in _word_mutants(atom.w1, leaves)]
            + [Atom.b(atom.w1, m) for m in _word_mutants(atom.w2, leaves)]
            + [Atom.b(atom.w2, atom.w1), Atom.q(atom.w1), Atom.q(atom.w2),
               Atom.symbol("alpha", 0)])


def test_matcher_agrees_with_the_reference_matcher():
    # Every live catalog rule and the user rules above, at instantiated
    # left-hand sides and at sites one change away from them: each site is
    # bound by ``rule.bind`` and by the reference matcher in
    # tests/helpers.py, which must give the same binding, in the same order.
    ctx = Ctx(scalars=("alpha",), vectors=("x", "y", "z"))
    leaves = {name: ctx.word(name) for name in ctx.vectors}
    base = list(leaves.values())
    rng = random.Random(41)

    def random_word(depth):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice(base)
        return Word.pair(random_word(depth - 1), random_word(depth - 1))

    def check(rule, site, binds=False):
        found, expected = rule.bind(site), reference_bind(rule, site)
        assert (found and list(found.items())) == (expected and list(expected.items())), \
            (rule.name, site)
        assert found is not None or not binds, (rule.name, site)
        outcomes[found is not None] += 1

    live = [r for name in CATALOG for r in builtin_ruleset(name).rules if r.kind != "noop"]
    outcomes = [0, 0]
    for rule in live + USER_MATCH_RULES:
        patterns = [rule.lhs] + ([rule.lhs2] if rule.lhs2 is not None else [])
        occurrences = sum(node.name.isupper() for p in patterns for node in rx.idents(p))
        for trial in range(12):
            # An instantiated left-hand side binds; one whose variable
            # occurrences each get their own word may not.
            instantiated = trial % 3 != 2
            if not instantiated:
                words = [random_word(2) for _ in range(occurrences)]
            else:
                one = {v: random_word(2) for p in patterns for v in sorted(_pattern_vars(p))}
                words = [one[node.name] for p in patterns for node in rx.idents(p)
                         if node.name.isupper()]
            parts = [_build(p, words, leaves) for p in patterns]
            if rule.kind == "dot":
                check(rule, parts[0], instantiated)
                for w in _word_mutants(parts[0], base):
                    check(rule, w)
            elif rule.kind == "product":
                a1, a2 = parts
                check(rule, (a1, a2), instantiated)
                check(rule, (a2, a1))
                for m in _atom_mutants(a1, base):
                    check(rule, (m, a2))
                    check(rule, (a2, m))
                for m in _atom_mutants(a2, base):
                    check(rule, (a1, m))
                    check(rule, (m, a1))
            else:
                exps = (1, 2, 3) if rule.kind == "atom" else (rule.power, rule.power + 1, 1)
                check(rule, (parts[0], exps[0]), instantiated)
                for exp in exps[1:]:
                    check(rule, (parts[0], exp))
                for m in _atom_mutants(parts[0], base):
                    check(rule, (m, exps[0]))
    assert outcomes[True] > 3000 and outcomes[False] > 10000, outcomes


def memo_inputs():
    ctx = Ctx(scalars=("alpha", "beta"), vectors=("x", "y"))
    rng = random.Random(987)
    for _ in range(30):
        yield ctx, canonicalize(random_raw(rng, ctx, depth=4), ctx.env)
    for k in range(2, 5):
        yield scaling_family(k)
        # vector terms that share a monomial under different words, some
        # of them in normal form and some not
        yield scaling_family(k, "(S.S).S - q(S)*S")


def fresh_passes(e, rs, symbols, cap=500):
    """The fixpoint without shared work: public apply_once, each pass over
    the whole value on a cleared engine cache, until the value stops
    changing.  Returns the value and the number of passes, the last one
    included."""
    for passes in range(1, cap + 1):
        rules._memo.cache_clear()
        nxt = apply_once(e, rs, symbols)
        if equal(nxt, e):
            return e, passes
        e = nxt
    raise NonTermination(rs.name)


def recorded_calls(monkeypatch, name: str) -> list:
    """Patch ``rules.<name>`` to record the arguments of each call, in
    order, into the list returned."""
    calls = []
    original = getattr(rules, name)

    def recording(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(rules, name, recording)
    return calls


@pytest.fixture
def passes(monkeypatch):
    """The passes run since the list was last cleared, one entry per call
    of the private pass that `apply_once` and `apply_fixpoint` share."""
    return recorded_calls(monkeypatch, "_pass")


def test_fixpoint_memo_gives_the_result_of_fresh_passes(passes):
    # The fixpoint visits only each pass's new units; passes over the
    # whole value must reach the same value in as many passes.
    for ctx, e in memo_inputs():
        for name in CATALOG:
            rs = builtin_ruleset(name)
            expected, expected_passes = fresh_passes(e, rs, ctx.table)
            passes.clear()
            result = apply_fixpoint(e, rs, ctx.table)
            assert equal(result, expected), name
            assert len(passes) == expected_passes, name
            assert stores_no_zero(result), name


def test_rewrite_scale_family_pass_counts(passes):
    # rules2 on b(S,S.S) - 3*q(S)*b(S,S), for k = 2..10 terms in S.
    counts = []
    for k in range(2, 11):
        ctx, e = scaling_family(k)
        passes.clear()
        apply_fixpoint(e, builtin_ruleset("rules2"), ctx.table)
        counts.append(len(passes))
    assert counts == [2, 2, 4, 5, 5, 5, 5, 5, 5]


def test_fixpoint_of_a_swap_that_maps_the_value_to_itself(xy, passes):
    # Every unit is rewritten in every pass, and the value is unchanged
    # after the first: the fixpoint returns it then.
    rs = RuleSet("swap", (make_rule("b(X, Y) -> b(Y, X)"),))
    e = xy.canon("b(x,y) + b(y,x)")
    result = apply_fixpoint(e, rs, xy.table)
    assert len(passes) == 1
    assert equal(result, apply_once(e, rs, xy.table)) and equal(result, e)


def test_wrong_sort_rule_first_reached_in_a_later_pass(xy, passes):
    # Both wrong-sort rules are reached in pass 2 only, each on its own
    # unit; the fixpoint names the rule the whole-value loop names, and
    # which one that is depends on the storage order of the input.
    rs = RuleSet("late", (make_rule("b(X, Y.Z) -> b(X.Y, Z)", "late#1"),
                          make_rule("b(x.x, Y) -> Y", "late#2"),
                          make_rule("b(y.y, X) -> 2*X", "late#3")))
    named = set()
    for source in ("q(x)*b(y,y) + b(x, x.y) + b(y, y.x)*q(y)",
                   "b(y, y.x)*q(y) + q(x)*b(y,y) + b(x, x.y)"):
        e = xy.canon(source)
        with pytest.raises(EngineError) as whole:
            fresh_passes(e, rs, xy.table)
        passes.clear()
        with pytest.raises(EngineError) as err:
            apply_fixpoint(e, rs, xy.table)
        assert len(passes) == 2
        assert str(err.value) == str(whole.value)
        named.add(str(err.value).split()[1])
    assert named == {"late#2", "late#3"}


def test_fixpoint_names_another_wrong_sort_rule_than_whole_passes_on_a_vector_value(passes):
    # Pass 1 rewrites z.z, leaving u + q(x)*(x.x) + q(y)*u.  A second pass
    # over the whole value visits the word u first and reaches q(y) -> y;
    # the fixpoint's frontier holds only the units pass 1 produced, x.x's
    # first, and reaches x.x -> q(x).  A strategy change that alters the
    # visiting order must say which of the two errors it keeps.
    ctx = Ctx(vectors=("x", "y", "z", "u"))
    rs = RuleSet("w", (make_rule("z.z -> q(x)*(x.x) + q(y)*u", "w#1"),
                       make_rule("q(y) -> y", "w#2"), make_rule("x.x -> q(x)", "w#3")))
    e = ctx.canon("u + z.z")
    with pytest.raises(EngineError, match="^rule w#3 must rewrite a dot-word to a vector value$"):
        apply_fixpoint(e, rs, ctx.table)
    assert len(passes) == 2
    with pytest.raises(EngineError, match="^rule w#2 must rewrite an atom to a scalar value$"):
        apply_once(apply_once(e, rs, ctx.table), rs, ctx.table)


def units(e):
    """Each monomial (times its word, for a vector value) as a value alone."""
    if isinstance(e, ScalarExpr):
        return [ScalarExpr({mono: c}) for mono, c in e.terms.items()]
    return [VectorExpr({w: ScalarExpr({mono: c})})
            for w, cexpr in e.terms.items() for mono, c in cexpr.terms.items()]


def alone(u, rs, symbols):
    """One pass over `u` on a cleared engine cache, sharing nothing."""
    rules._memo.cache_clear()
    return apply_once(u, rs, symbols)


def test_pass_rewrites_each_unit_as_if_alone():
    # The memo is shared by all units of a pass; a unit rewritten on its
    # own, with nothing shared, must come out the same.
    for ctx, e in memo_inputs():
        for name in CATALOG:
            rs = builtin_ruleset(name)
            each = [alone(u, rs, ctx.table) for u in units(e)]
            expected = sum(each[1:], each[0]) if each else e
            assert equal(apply_once(e, rs, ctx.table), expected), name


@pytest.fixture
def instantiations(monkeypatch):
    """The right-hand sides instantiated since the list was last cleared,
    one entry per call of ``rules._instantiate``; the engine cache starts
    empty."""
    rules._memo.cache_clear()
    return recorded_calls(monkeypatch, "_instantiate")


def test_fixpoint_keeps_its_memo_per_rule_set_and_table(instantiations, monkeypatch):
    matches = recorded_calls(monkeypatch, "_first_match")
    ctx, e = scaling_family(3)
    rs = builtin_ruleset("rules2")
    first = apply_fixpoint(e, rs, ctx.table)
    assert instantiations and matches
    # A second fixpoint of the same rule set on the same table matches
    # and instantiates nothing.
    instantiations.clear()
    matches.clear()
    assert equal(apply_fixpoint(e, rs, ctx.table), first)
    assert not instantiations and not matches
    # Another table, even one with the same declarations, has a memo of
    # its own, and so has another rule set on the same table.
    other, _ = scaling_family(3)
    assert equal(apply_fixpoint(e, rs, other.table), first)
    assert instantiations
    instantiations.clear()
    same_rules = RuleSet(rs.name, rs.rules)
    assert equal(apply_fixpoint(e, same_rules, ctx.table), first)
    assert instantiations
    assert rules._memo(rs, ctx.table) is not rules._memo(rs, other.table)
    assert rules._memo(rs, ctx.table) is not rules._memo(same_rules, ctx.table)


def test_warm_replay_of_the_catalog_matches_nothing(monkeypatch):
    # A catalog session is parsed once per process, so a replay applies
    # the same rule sets on the same table, and the memo answers every
    # site: the matcher runs only on a cold engine.
    rules._memo.cache_clear()
    matches = recorded_calls(monkeypatch, "_first_match")
    first = [run_builtin_session(name).to_jsonable() for name in builtin_session_names()]
    assert len(builtin_session_names()) == 7 and matches
    matches.clear()
    assert [run_builtin_session(name).to_jsonable() for name in builtin_session_names()] == first
    assert not matches


def scale_table():
    """One table for the whole scaling family: a0..a9 and x, y, z."""
    return Ctx(scalars=tuple(f"a{i}" for i in range(10)), vectors=("x", "y", "z"))


def test_scaling_family_in_sequence_prints_the_cold_normal_forms():
    # Run in sequence on one table, each k reuses the sites of the smaller
    # ones; each normal form must print as on a cleared engine cache.
    rs, ctx = builtin_ruleset("rules2"), scale_table()
    values = [ctx.canon(scaling_source(k)) for k in range(2, 11)]
    rules._memo.cache_clear()
    warm = [print_expr(apply_fixpoint(e, rs, ctx.table)) for e in values]
    for e, text in zip(values, warm):
        rules._memo.cache_clear()
        assert print_expr(apply_fixpoint(e, rs, ctx.table)) == text


# --- right-hand-side templates ------------------------------------------------

TEMPLATE_CTX = Ctx(vectors=("x", "y", "z", "u"))
LIVE_RULES = tuple(rule for name in CATALOG for rule in builtin_ruleset(name).rules
                   if rule.kind != "noop")
LIVE_SET = RuleSet("live", LIVE_RULES)


def random_word(rng, depth, ctx=TEMPLATE_CTX):
    if depth == 0 or rng.random() < 0.4:
        return ctx.word(rng.choice(ctx.vectors))
    return Word.pair(random_word(rng, depth - 1, ctx), random_word(rng, depth - 1, ctx))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32), pool=st.integers(1, 3))
def test_template_fill_agrees_with_instantiate_sides_property(seed, pool):
    # Each variable binds one of `pool` words, so repeated words are common:
    # they make atoms of one monomial equal (q(X.Y) -> q(X)*q(Y) with X = Y)
    # and units of one value equal, which the fill must re-sort and merge.
    rng, table = random.Random(seed), TEMPLATE_CTX.table
    memo = rules._memo(LIVE_SET, table)
    words = [random_word(rng, 2) for _ in range(pool)]
    for rule in LIVE_RULES:
        variables = sorted(_pattern_vars(rule.lhs)
                           | (_pattern_vars(rule.lhs2) if rule.lhs2 else set()))
        binds = {v: rng.choice(words) for v in variables}
        filled = rules._instantiate(rule, binds, memo)
        assert memo.templates[rule] is not None, rule.name
        expected = instantiate_sides(rule, binds, table)[1]
        assert type(filled) is type(expected), rule.name
        assert equal(filled, expected), (rule.name, binds)
        assert stores_no_zero(filled), rule.name


def leaf_counts(w: Word) -> Counter:
    return Counter([w.name]) if w.is_leaf else leaf_counts(w.left) + leaf_counts(w.right)


def multidegree(word, mono) -> frozenset:
    """A unit's degree in each symbol.  A vector's degree counts its leaves
    in the unit's word, twice its leaves in each q word and its leaves in
    both b words, all times the exponent; a scalar's is its exponent."""
    degree = Counter() if word is None else leaf_counts(word)
    for atom, exp in mono:
        if atom.is_symbol:
            part = Counter([atom.name])
        elif atom.is_q:
            part = leaf_counts(atom.w1) + leaf_counts(atom.w1)
        else:
            part = leaf_counts(atom.w1) + leaf_counts(atom.w2)
        for name, count in part.items():
            degree[name] += count * exp
    return frozenset(degree.items())


def test_every_catalog_rule_is_multihomogeneous():
    # With each pattern variable bound to its own leaf, both sides of a
    # rule have the same degree in each leaf, so lhs - rhs has one
    # multidegree: a cheap check on the transcription.
    leaves = [TEMPLATE_CTX.word(v) for v in TEMPLATE_CTX.vectors]
    assert len(LIVE_RULES) == 48
    for rule in LIVE_RULES:
        variables = sorted(_pattern_vars(rule.lhs)
                           | (_pattern_vars(rule.lhs2) if rule.lhs2 else set()))
        lhs, rhs = instantiate_sides(rule, dict(zip(variables, leaves)),
                                     TEMPLATE_CTX.table)
        degrees = {multidegree(word, mono) for word, mono, _ in core.units(lhs - rhs)}
        assert len(degrees) == 1, (rule.name, degrees)


# --- the site walk -------------------------------------------------------------

WALK_CTX = Ctx(scalars=("a0", "a1", "a2"), vectors=("x", "y", "z"))


def random_unit(rng, words, exponents=(1, 2, 3)):
    """A monomial of scalar symbols, each at an exponent from 1 to 3, and
    q/b atoms over `words`, each at an exponent drawn from `exponents`;
    and a word from `words` or None."""
    table = WALK_CTX.table
    mono = ()
    for name in rng.sample(WALK_CTX.scalars, rng.randint(0, 3)):
        mono = mono_mul(mono, ((Atom.symbol(name, table.index_of(name)), rng.randint(1, 3)),))
    for _ in range(rng.randint(0, 4)):
        w1 = rng.choice(words)
        atom = Atom.q(w1) if rng.random() < 0.3 else Atom.b(w1, rng.choice(words))
        mono = mono_mul(mono, ((atom, rng.choice(exponents)),))
    return mono, rng.choice(words) if rng.random() < 0.5 else None


def test_site_walk_agrees_with_reference_order():
    # Words come from a small pool, so the nonlinear patterns of rules1
    # (b(X.Y, X.Z), (X.Y).X) find repeated subwords.
    rng, table = random.Random(1207), WALK_CTX.table
    drops = set()
    for _ in range(150):
        words = [random_word(rng, 3, WALK_CTX) for _ in range(4)]
        memos = {name: RewriteMemo(builtin_ruleset(name), table)
                 for name in ("rules1", "rules2", "assleft")}
        for _ in range(4):
            mono, word = random_unit(rng, words)
            coeff = ScalarExpr({mono: 1})
            unit = coeff if word is None else VectorExpr({word: coeff})
            for name, memo in memos.items():
                got = rules._first_rewrite(mono, word, memo)
                expected = first_rewrite_reference(mono, word, memo.ruleset, table)
                if expected is None:
                    assert got is None, (name, mono, word)
                    continue
                assert got is not None and got[0] == expected[0], (name, mono, word)
                assert equal(got[1], expected[1]), (name, mono, word)
                drops.add(len(got[0]))
                for _, m, _ in core.units(apply_once(unit, memo.ruleset, table)):
                    keys = [atom.key for atom, _ in m]
                    assert keys == sorted(keys), (name, m)
                    kinds = [atom.is_symbol for atom, _ in m]
                    assert kinds == sorted(kinds, reverse=True), (name, m)
    # Word, single-entry and pair sites all fired.
    assert drops == {0, 1, 2}


# Random rule sets for the site walk: patterns over the variables X, Y, Z
# and the literal leaves x, y, z, right-hand sides over the bound
# variables and the literals.  A few right-hand sides name the undeclared
# w or have the wrong sort, so the walk's error paths are compared too.
PATTERN_LEAVES = ("X", "Y", "Z", "X", "Y", "Z", "x", "y", "z")


def random_word_pattern(rng, depth, leaves=PATTERN_LEAVES):
    """A word pattern of depth up to `depth` over `leaves`, a composite one
    in parentheses."""
    if depth == 0 or rng.random() < 0.5:
        return rng.choice(leaves)
    return (f"({random_word_pattern(rng, depth - 1, leaves)}"
            f".{random_word_pattern(rng, depth - 1, leaves)})")


def random_atom_pattern(rng):
    if rng.random() < 0.3:
        return f"q({random_word_pattern(rng, 2)})"
    return f"b({random_word_pattern(rng, 2)}, {random_word_pattern(rng, 2)})"


def random_side(rng, vector, names, depth):
    """The text of a value of the given sort over `names` (the bound
    variables) and the literals."""
    if vector:
        pick = rng.random()
        if depth <= 0 or pick < 0.35:
            if names and rng.random() < 0.8:
                return rng.choice(names)
            return rng.choice(("x", "y", "z", "w") if rng.random() < 0.1 else ("x", "y", "z"))
        v = lambda: random_side(rng, True, names, depth - 1)
        if pick < 0.6:
            return f"({v()}).({v()})"
        if pick < 0.75:
            return f"q({v()})*({v()})"
        if pick < 0.9:
            return f"({v()}) + ({v()})"
        return f"-2*({v()})"
    pick = rng.random()
    v = lambda: random_side(rng, True, names, depth - 1)
    s = lambda: random_side(rng, False, names, depth - 1)
    if depth <= 0 or pick < 0.3:
        return f"q({v()})" if rng.random() < 0.5 else f"b({v()}, {v()})"
    if pick < 0.55:
        return f"({s()})*({s()})"
    if pick < 0.8:
        return f"({s()}) - ({s()})"
    return f"3*({s()}) + 1" if rng.random() < 0.5 else "2"


def random_rule(rng, name):
    """A rule of a random kind; its right-hand side has the right sort
    except in about one rule in twenty."""
    kind = rng.choice(("dot", "atom", "power", "product"))
    if kind == "dot":
        lhs = f"{random_word_pattern(rng, 1)}.{random_word_pattern(rng, 1)}"
    elif kind == "atom":
        lhs = random_atom_pattern(rng)
    elif kind == "power":
        lhs = f"{random_atom_pattern(rng)}^{rng.choice((2, 3))}"
    else:
        # Four word patterns seldom all match, so these are mostly bare
        # variables.
        a, b, c, d = (random_word_pattern(rng, 1 if rng.random() < 0.3 else 0, ("X", "Y", "Z"))
                      for _ in range(4))
        lhs = f"b({a}, {b})*b({c}, {d})"
    names = sorted(set(lhs) & set("XYZ"))
    vector = (kind == "dot") != (rng.random() < 0.05)
    return make_rule(f"{lhs} -> {random_side(rng, vector, names, 2)}", name)


def first_rewrite_or_error(walk, *args):
    """`walk(*args)`, or the type of the SymcompError it raised."""
    try:
        return walk(*args)
    except SymcompError as err:
        return type(err)


def test_every_dot_site_is_tried_before_any_atom_site(xy):
    # The dot rule rewrites inside b's argument; an atom rule tried at q(x)
    # first would raise, as guard#2 has a vector right-hand side.
    rs = RuleSet("guard", (make_rule("(X.Y).X -> q(X)*Y", "guard#1"),
                           make_rule("q(X) -> X", "guard#2")))
    for _ in range(2):
        got = apply_once(xy.canon("q(x)*b(x, (y.x).y)"), rs, xy.table)
        assert print_expr(got) == "q(x)*q(y)*b(x,x)"


def test_site_walk_agrees_with_reference_on_random_rule_sets():
    # Each set keeps one memo across its units, so later units meet sites
    # an earlier one matched, and sites whose rewrite raised.
    rng, table = random.Random(3103), WALK_CTX.table
    outcomes = Counter()
    for k in range(1800):
        rs = RuleSet(f"random{k}", tuple(random_rule(rng, f"random{k}#{n}")
                                          for n in range(1, rng.randint(1, 4) + 1)))
        memo = RewriteMemo(rs, table)
        words = [random_word(rng, 2, WALK_CTX) for _ in range(4)]
        for _ in range(3):
            mono, word = random_unit(rng, words, (1, 1, 1, 2, 3))
            got = first_rewrite_or_error(rules._first_rewrite, mono, word, memo)
            expected = first_rewrite_or_error(first_rewrite_reference, mono, word, rs, table)
            context = (print_expr(ScalarExpr({mono: 1})), word, [r.name for r in rs.rules])
            if expected is None or isinstance(expected, type):
                assert got == expected, context
                outcomes[getattr(got, "__name__", None)] += 1
            else:
                assert isinstance(got, tuple) and got[0] == expected[0], context
                assert equal(got[1], expected[1]), context
                outcomes[len(got[0])] += 1
                # A pass puts the value in place of the dropped entries.
                drop, value = expected
                rest = tuple(entry for idx, entry in enumerate(mono) if idx not in drop)
                unit = ScalarExpr({mono: 1})
                after = ScalarExpr({rest: 1}) * value
                if word is not None:
                    unit = VectorExpr({word: unit})
                    if drop:
                        after = after * VectorExpr.from_word(word)
                assert equal(apply_once(unit, rs, table), after), context
    # Word, single-entry and pair sites all fired, and both errors were met.
    assert all(outcomes[kind] >= 10 for kind in (0, 1, 2, "EngineError", "UnknownSymbol"))


def test_q_of_a_sum_is_instantiated_by_canonicalize(xy):
    # q(X + Y) polarizes to q(X) + q(Y) + b(X,Y) only while X and Y are
    # distinct words; bound to the same word it is 4*q(X).
    rule = make_rule("b(X,Y) -> q(X + Y) - q(X) - q(Y)")
    rs = RuleSet("polar", (rule,))
    assert equal(apply_once(xy.canon("b(x,x)"), rs, xy.table), xy.canon("2*q(x)"))
    assert equal(apply_once(xy.canon("b(x,y)"), rs, xy.table), xy.canon("b(x,y)"))
    assert equal(apply_fixpoint(xy.canon("b(x.y,x.y) + b(x,y)"), rs, xy.table),
                 xy.canon("2*q(x.y) + b(x,y)"))
    assert rules._memo(rs, xy.table).templates == {rule: None}


def test_scalar_summand_vanishing_under_a_binding_is_instantiated_by_canonicalize(xyz):
    # The scalar summand b(X,Z) - b(Z,X) of a vector sum is zero when X and
    # Z bind the same word and a sort error otherwise.
    rule = make_rule("(X.Y).Z -> q(X)*Y + (b(X,Z) - b(Z,X))")
    rs = RuleSet("vanish", (rule,))
    assert equal(apply_once(xyz.canon("(x.y).x + z"), rs, xyz.table),
                 xyz.canon("q(x)*y + z"))
    with pytest.raises(ExprTypeError) as err:
        apply_once(xyz.canon("(x.y).z"), rs, xyz.table)
    assert str(err.value) == "1:22: cannot add scalar and vector values"
    assert rules._memo(rs, xyz.table).templates == {rule: None}


@pytest.fixture
def builds(monkeypatch):
    """The templates built since the engine cache was cleared, one
    `(rule, table)` entry per call of ``rules._template``."""
    rules._memo.cache_clear()
    return recorded_calls(monkeypatch, "_template")


def test_rule_set_builds_each_template_once_per_rule_and_table(builds):
    rs = RuleSet("fresh", (make_rule("b(x, (x.y).y) -> b(x.y, y.x)", "fresh#1"),
                           make_rule("b(X.Y, X.Z) -> q(X)*b(Y, Z)", "fresh#2")))
    source = "b(x, (x.y).y) + b(x.(y.x), x.y) + b(y.x, y.(x.y))"
    xy = Ctx(vectors=("x", "y"))
    first = apply_fixpoint(xy.canon(source), rs, xy.table)
    assert builds == [(rs.rules[0], xy.table), (rs.rules[1], xy.table)]
    # Later fixpoints and passes on the same table build nothing.
    assert equal(apply_fixpoint(xy.canon(source), rs, xy.table), first)
    once = apply_once(xy.canon(source), rs, xy.table)
    assert equal(apply_once(xy.canon(source), rs, xy.table), once)
    assert len(builds) == 2
    # Declared in the other order, x and y get other indices; another
    # table builds a template of its own for each rule.
    yx = Ctx(vectors=("y", "x"))
    assert equal(apply_fixpoint(yx.canon(source), rs, yx.table), yx.canon(print_expr(first)))
    assert builds[2:] == [(rs.rules[0], yx.table), (rs.rules[1], yx.table)]


@pytest.mark.parametrize("scalars, vectors", [
    ((), ("y", "x")), (("x",), ("y",)), (("u",), ("y", "x")), (("x", "u"), ("y",)),
], ids=["x-second", "x-scalar", "x-third", "x-scalar-of-two"])
def test_template_under_another_name_layout_agrees_with_instantiate_sides(
        builds, scalars, vectors):
    rule = make_rule("q(X.Y) -> x*q(X)*q(Y.y)")
    rs = RuleSet("layout", (rule,))
    for ctx in (Ctx(vectors=("x", "y")), Ctx(scalars=scalars, vectors=vectors)):
        binds = {"X": ctx.word("y.y"), "Y": ctx.word("y")}
        for _ in range(2):
            got = rules._instantiate(rule, binds, rules._memo(rs, ctx.table))
            expected = instantiate_sides(rule, binds, ctx.table)[1]
            assert type(got) is type(expected)
            assert equal(got, expected)
    assert len(builds) == 2


def test_template_of_an_undeclared_name_is_not_kept(builds):
    rule = make_rule("q(X.Y) -> q(X)*q(Y.w)")
    rs = RuleSet("undeclared", (rule,))
    xy = Ctx(vectors=("x", "y"))
    memo = rules._memo(rs, xy.table)
    # Every call builds the template again and raises again; neither the
    # template nor the site is kept.
    for calls in (1, 2):
        with pytest.raises(UnknownSymbol, match="undeclared identifier 'w'"):
            apply_once(xy.canon("q(x.y)"), rs, xy.table)
        assert len(builds) == calls
        assert memo.templates == {} and memo.sites == {}
    xyw = Ctx(vectors=("x", "y", "w"))
    got = apply_once(xyw.canon("q(x.y)"), rs, xyw.table)
    assert equal(got, xyw.canon("q(x)*q(y.w)"))
    assert list(rules._memo(rs, xyw.table).templates) == [rule]


def test_wrong_sort_rule_raises_again_on_a_second_call(xy):
    rs = RuleSet("wrong", (make_rule("b(X, Y) -> X", "wrong#1"),))
    e = xy.canon("q(x) + b(x, y)")
    for _ in range(2):
        with pytest.raises(EngineError, match="^rule wrong#1 must rewrite an atom to a "
                                              "scalar value$"):
            apply_fixpoint(e, rs, xy.table)
    assert (Atom.b(xy.word("x"), xy.word("y")), 1) not in rules._memo(rs, xy.table).sites


def bounded_outputs():
    """The rules2 normal forms of the scaling family k = 2..6, run in
    sequence on one table, and the JSON reports of every catalog session,
    all on an engine cache cleared first."""
    rules._memo.cache_clear()
    rs, ctx = builtin_ruleset("rules2"), scale_table()
    texts = [print_expr(apply_fixpoint(ctx.canon(scaling_source(k)), rs, ctx.table))
             for k in range(2, 7)]
    reports = [run_builtin_session(name).to_jsonable() for name in builtin_session_names()]
    return texts, reports


def test_site_bound_changes_no_output(monkeypatch):
    matches = recorded_calls(monkeypatch, "_first_match")
    unbounded = bounded_outputs()
    unbounded_matches = len(matches)
    matches.clear()
    monkeypatch.setattr(rules, "_MEMO_SITES", 3)
    assert bounded_outputs() == unbounded
    # Calls past the first cleared their memo and matched its sites again.
    assert len(matches) > unbounded_matches


def test_declaring_more_names_keeps_a_tables_templates(builds):
    # A declaration never changes an existing name's sort or index, so the
    # template a table built before it still holds after it.
    rs = RuleSet("literal", (make_rule("b(x, (x.y).y) -> b(x.y, y.x)"),))
    source = "b(x, (x.y).y) + b(x, (x.y).y)*q(x)"
    later = "a*b(x, (x.y).y) + b(x, (x.y).y)*q(z) + b(z, (x.y).y)"
    grown = Ctx(vectors=("x", "y"))
    before = apply_fixpoint(grown.canon(source), rs, grown.table)
    assert len(builds) == 1
    grown.table.declare_scalar("a")
    grown.table.declare_vector("z")
    assert equal(apply_fixpoint(grown.canon(source), rs, grown.table), before)
    after = apply_fixpoint(grown.canon(later), rs, grown.table)
    assert len(builds) == 1
    fresh = Ctx(vectors=("x", "y"))
    fresh.table.declare_scalar("a")
    fresh.table.declare_vector("z")
    expected = apply_fixpoint(fresh.canon(later), rs, fresh.table)
    assert equal(after, expected)
    assert print_expr(after) == print_expr(expected) != print_expr(grown.canon(later))
    # Redeclaring a name with another sort raises and changes nothing.
    with pytest.raises(ExprTypeError, match="redeclared with a different sort"):
        grown.table.declare_scalar("x")
    assert grown.table.sort_of("x") == "vector" and grown.table.index_of("x") == 0
    assert equal(apply_fixpoint(grown.canon(source), rs, grown.table), before)
    assert [table for _, table in builds] == [grown.table, fresh.table]


def test_rewrite_scale_k8_normal_form_matches_its_digest():
    # The rewrite-scale benchmark's input, k = 8: 2438 monomials in, 2525
    # out, pinned by the SHA-256 of the printed text.
    ctx, e = scaling_family(8)
    result = apply_fixpoint(e, builtin_ruleset("rules2"), ctx.table)
    assert (len(e.terms), len(result.terms)) == (2438, 2525)
    text = (print_expr(result) + "\n").encode("utf-8")
    assert hashlib.sha256(text).hexdigest() == (
        "7ec5e18099f0da135ca96a2880ff68ddb4ef97e564bc4e3ed21014fc11ba4f36")


def test_rewrite_scale_k5_normal_form_matches_recorded_text():
    # b(S,S.S) - 3*q(S)*b(S,S) with S = a0*x + a1*y + a2*z + a3*(x.y) + a4*(y.x)
    # taken to the rules2 fixpoint: 430 monomials, printed byte for byte.
    recorded = Path(__file__).parent / "data" / "rewrite_scale_k5.expr"
    ctx, e = scaling_family(5)
    result = apply_fixpoint(e, builtin_ruleset("rules2"), ctx.table)
    assert len(result.terms) == 430
    assert (print_expr(result) + "\n").encode("utf-8") == recorded.read_bytes()
