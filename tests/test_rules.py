"""Matching semantics, application strategy, and the built-in catalog."""
import random

import pytest

from symcomp import (
    apply_fixpoint,
    apply_once,
    builtin_ruleset,
    compile_rule,
    equal,
    match,
    parse_rule_source,
)
from symcomp.core import Word
from symcomp.errors import NonTermination, ParseError, RuleSetUnknown
from symcomp.oracle import eval_expr, random_assignment
from symcomp.rules import instantiate_sides, _pattern_vars


def make_rule(src: str, name: str = "r"):
    lhs, rhs = parse_rule_source(src)
    return compile_rule(name, lhs, rhs)


FLEX = make_rule("(X.Y).X -> q(X)*Y")
PRODUCT = make_rule("b(X,Y)*b(Z,U) -> b(X.Z, Y.U) + b(X.U, Y.Z)")


def test_match_flexible_pattern(xy):
    binds = match(FLEX, xy.word("(x.y).x"))
    assert binds == {"X": xy.word("x"), "Y": xy.word("y")}


def test_nonlinear_variable_mismatch(xyz):
    assert match(FLEX, xyz.word("(x.y).z")) is None


def test_match_product_pattern_enumeration_order(xy):
    binds = match(PRODUCT, xy.mono("b(x.y, y)*b(y.x, x)"))
    assert binds == {
        "X": xy.word("x.y"),
        "Y": xy.word("y"),
        "Z": xy.word("y.x"),
        "U": xy.word("x"),
    }


def test_power_atoms_do_not_match_the_product_pattern(xy):
    assert match(PRODUCT, xy.mono("b(x,y)^2")) is None


def test_power_pattern_requires_exact_exponent(xy):
    square = make_rule("b(X,Y)^2 -> b(X.X, Y.Y) + b(X.Y, Y.X)")
    ((atom, exp),) = xy.mono("b(x,y)^2")
    assert match(square, (atom, exp)) is not None
    ((atom3, exp3),) = xy.mono("b(x,y)^3")
    assert match(square, (atom3, exp3)) is None


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
    rs = type(builtin_ruleset("bsym"))("swap", (swap,))
    with pytest.raises(NonTermination):
        apply_fixpoint(xy.canon("b(x,y)"), rs, xy.table, cap=25)


def test_builtin_catalog_counts():
    expected = {
        "rules1": 7, "rules2": 11, "assleft": 1, "assocb": 3,
        "move1": 2, "move2": 5, "move3": 2, "move4": 10, "move5": 9,
        "bsym": 1, "expandq": 2, "expandb": 5, "expanddot": 3,
    }
    for name, count in expected.items():
        assert len(builtin_ruleset(name)) == count, name


def test_unknown_ruleset():
    with pytest.raises(RuleSetUnknown):
        builtin_ruleset("nope")


def test_noop_rules_never_fire(xy):
    rules1 = builtin_ruleset("rules1")
    noops = [r for r in rules1.rules if r.kind == "noop"]
    assert len(noops) == 2
    rs = type(rules1)("noops", tuple(noops))
    e = xy.canon("b(x.y, y)*b(y.x, x)*q(x)")
    assert equal(apply_fixpoint(e, rs, xy.table), e)


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
            out = apply_fixpoint(e, rs, ctx.table, cap=500)
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
