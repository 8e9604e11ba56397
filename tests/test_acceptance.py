"""Acceptance suite: the ten criteria, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines.  Every
comparison is exact (symbolic equality or exact-zero evaluation); there
are no numeric tolerances anywhere.
"""
import random

import pytest

from symcomp import (
    apply_fixpoint,
    apply_once,
    builtin_ruleset,
    canonicalize,
    check_identity,
    coeff,
    coeff_matrix,
    equal,
    eval_expr,
    factored_equal,
    parse_expr,
    print_expr,
    subst_raw,
)
from symcomp.core import Env, ScalarExpr, SymbolTable, Word
from symcomp.oracle import random_assignment
from symcomp.rules import _pattern_vars, instantiate_sides
from symcomp.sessions import run_builtin_session
from helpers import Ctx, eval_raw, random_ctx_assignment, random_raw, values_agree


def report(cid: str, ok: bool, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{cid} failed{suffix}"


@pytest.fixture(scope="module")
def lin():
    return Ctx(scalars=("alpha", "beta"), vectors=("x", "y", "z1", "z2", "z3", "z4"))


@pytest.fixture(scope="module")
def main_chain():
    """The main-identity derivation, reproduced step by step."""
    ctx = Ctx(scalars=("lambda", "mu", "alpha", "beta"), vectors=("x", "y"))
    st = ctx.table
    env = ctx.env
    canon = ctx.canon

    s = canon("lambda*y + mu*x + alpha*(x.y) + beta*(y.x)")
    env2 = Env(st, {"S": s})
    nleft = canon("(lambda^3 - 3*lambda*q(x) + b(x, x.x)) * (mu^3 - 3*mu*q(y) + b(y, y.y))")
    nprod = canonicalize(parse_expr(
        "(lambda*mu + b(x,y))^3 - 3*(lambda*mu + b(x,y))*q(S) + b(S, S.S)"), env2)
    leftside = nleft - nprod
    rightside = canon(
        "(1 - alpha*beta)*(3*b(x.(x.y), x.(y.y) - (y.y).x)"
        " + (1 + beta)*b(x.y - y.x, (x.y - y.x).(x.y - y.x)))"
        " + 3*(1 - alpha*beta)*b(x.y - y.x,"
        " -lambda*((x.y).y) + mu*((y.x).x) + lambda*mu*(x.y))")

    rules1 = builtin_ruleset("rules1")
    rules2 = builtin_ruleset("rules2")
    assocb = builtin_ruleset("assocb")
    bsym = builtin_ruleset("bsym")

    work = apply_fixpoint(leftside - rightside, rules2, st)
    work = apply_fixpoint(work, assocb, st)
    work = apply_fixpoint(work, rules2, st)
    res = apply_once(work, bsym, st)

    zero = parse_expr("0")
    one_minus_alpha = parse_expr("1 - alpha")

    c1 = apply_fixpoint(coeff(res, {"lambda": 1, "mu": 2}), builtin_ruleset("move1"), st)
    c2 = apply_fixpoint(coeff(res, {"lambda": 2, "mu": 1}), builtin_ruleset("move1"), st)
    c3 = apply_once(coeff(res, {"lambda": 1, "mu": 1}), builtin_ruleset("move2"), st)
    c4 = subst_raw(coeff(res, {"lambda": 2}), {"mu": zero}, st)
    c4 = apply_once(c4, builtin_ruleset("move3"), st)
    c4 = apply_once(c4, rules1, st)
    c5 = subst_raw(coeff(res, {"mu": 2}), {"lambda": zero}, st)
    c5 = apply_once(c5, builtin_ruleset("move3"), st)
    c5 = apply_once(c5, rules1, st)
    c5 = apply_once(c5, bsym, st)
    c6 = subst_raw(coeff(res, {"lambda": 1}), {"mu": zero}, st)
    c6 = apply_fixpoint(c6, builtin_ruleset("move4"), st)
    c6 = subst_raw(c6, {"beta": one_minus_alpha}, st)
    c7 = subst_raw(coeff(res, {"mu": 1}), {"lambda": zero}, st)
    c7 = apply_fixpoint(c7, builtin_ruleset("move5"), st)
    c7 = subst_raw(c7, {"beta": one_minus_alpha}, st)

    pol = subst_raw(res, {"lambda": zero, "mu": zero}, st)
    pol = subst_raw(pol, {"beta": one_minus_alpha}, st)
    one = apply_fixpoint(coeff(pol, {"alpha": 2}), assocb, st)
    two = apply_fixpoint(coeff(pol, {"alpha": 1}), assocb, st)
    three = apply_fixpoint(subst_raw(pol, {"alpha": zero}, st), assocb, st)

    return {
        "ctx": ctx, "leftside": leftside, "rightside": rightside, "res": res,
        "c1": c1, "c2": c2, "c3": c3, "c4": c4, "c5": c5, "c6": c6, "c7": c7,
        "one": one, "two": two, "three": three,
    }


def test_criterion_1_l1_matrix(lin):
    comp = lin.canon("q(x.y) - q(x)*q(y)")
    linz = subst_raw(comp, {"x": parse_expr("z1 + alpha*z2"),
                            "y": parse_expr("z3 + beta*z4")}, lin.table)
    linz = apply_fixpoint(linz, builtin_ruleset("expandq"), lin.table)
    matrix = coeff_matrix(linz, ("alpha", "beta"))
    expected = [
        ["0", "b(z1.z3, z1.z4) - b(z3,z4)*q(z1)", "0"],
        ["b(z1.z3, z2.z3) - b(z1,z2)*q(z3)",
         "b(z1.z3, z2.z4) + b(z1.z4, z2.z3) - b(z1,z2)*b(z3,z4)",
         "b(z1.z4, z2.z4) - b(z1,z2)*q(z4)"],
        ["0", "b(z2.z3, z2.z4) - b(z3,z4)*q(z2)", "0"],
    ]
    ok = (len(matrix.rows), len(matrix.rows[0])) == (3, 3)
    for i, row in enumerate(expected):
        for j, text in enumerate(row):
            ok = ok and equal(matrix.rows[i][j], lin.canon(text))
    ok = ok and run_builtin_session("L1").passed
    report("C1-l1-matrix", ok)


def test_criterion_2_l2_matrix(lin):
    iden = lin.canon("(x.y).x - q(x)*y")
    linz = subst_raw(iden, {"x": parse_expr("z1 + alpha*z2"),
                            "y": parse_expr("z3 + beta*z4")}, lin.table)
    matrix = coeff_matrix(linz, ("alpha", "beta"))
    expected = [
        ["(z1.z3).z1 - q(z1)*z3", "(z1.z4).z1 - q(z1)*z4"],
        ["(z1.z3).z2 + (z2.z3).z1 - b(z1,z2)*z3",
         "(z1.z4).z2 + (z2.z4).z1 - b(z1,z2)*z4"],
        ["(z2.z3).z2 - q(z2)*z3", "(z2.z4).z2 - q(z2)*z4"],
    ]
    ok = (len(matrix.rows), len(matrix.rows[0])) == (3, 2)
    for i, row in enumerate(expected):
        for j, text in enumerate(row):
            ok = ok and equal(matrix.rows[i][j], lin.canon(text))
    ok = ok and run_builtin_session("L2").passed
    report("C2-l2-matrix", ok)


def test_criterion_3_zero_identities():
    failures = []
    for name in ("Z1", "Z2", "Z3", "Z4"):
        rep = run_builtin_session(name)
        if not rep.passed:
            failures.append(name)
    report("C3-zero-identities", not failures, "Z1-Z4 all reduce to 0")


def test_criterion_4_coefficient_claims(main_chain):
    ctx = main_chain["ctx"]
    claims = [
        ("c1", "3*(alpha + beta - 1)*b(y, x.x)"),
        ("c2", "3*(alpha + beta - 1)*b(x, y.y)"),
        ("c3", "-3*(alpha + beta - 1)*(b(x.y, y.x) - alpha*q(x)*q(y)"
               " - beta*q(x)*q(y) + q(x)*q(y))"),
        ("c4", "-3*(alpha + beta - 1)*b(x, y)*q(y)"),
        ("c5", "-3*(alpha + beta - 1)*b(x, y)*q(x)"),
    ]
    ok = True
    for name, target in claims:
        ok = ok and factored_equal(main_chain[name], ctx.canon(target))
    report("C4-factored-coefficients", ok, "lambda/mu coefficient claims")


def test_criterion_5_lambda_residual(main_chain):
    ctx = main_chain["ctx"]
    expected = ctx.canon(
        "-3*alpha*b(y, (y.x).(x.y)) + 3*alpha*b(x.(x.y), y.y)"
        " - 3*alpha*b(y, y.y)*q(x) + 3*alpha*b(x, x.y)*q(y)")
    report("C5-lambda-residual", equal(main_chain["c6"], expected))


def test_criterion_6_mu_residual(main_chain):
    ctx = main_chain["ctx"]
    expected = ctx.canon(
        "3*alpha*b(x, (x.y).(y.x)) - 3*b(x, (x.y).(y.x))"
        " - 3*alpha*b(x.x, y.(y.x)) + 3*b(x.x, y.(y.x))"
        " - 3*alpha*b(y, y.x)*q(x) + 3*b(y, y.x)*q(x)"
        " - 3*b(x, x.x)*q(y) + 3*alpha*b(x.x, x)*q(y)")
    report("C6-mu-residual", equal(main_chain["c7"], expected))


def test_criterion_7_constant_residuals(main_chain):
    ctx = main_chain["ctx"]
    one = ctx.canon(
        "-3*b(x.y, (x.y).(x.y)) - 3*b(x.(x.y), y.(y.x))"
        " + 3*b(x.(x.y), (y.y).x) + 6*b((x.y).(x.y), y.x)"
        " - 3*b((y.x).(y.x), x.y)")
    two = ctx.canon(
        "3*b(x.y, (x.y).(x.y)) + 3*b(x.(x.y), y.(y.x))"
        " - 3*b(x.(x.y), (y.y).x) - 9*b((x.y).(x.y), y.x)"
        " + 6*b((y.x).(y.x), x.y)")
    three = ctx.canon(
        "b(x.y, (x.x).(y.y)) - 2*b(x.y, (x.y).(x.y))"
        " - b(x.(x.y), y.(y.x)) + 3*b(x.(x.y), (y.y).x)"
        " - b(x.(y.y), y.(x.x)) + b(x.(y.y), (x.x).y)"
        " + b(y.x, (y.x).(y.x)) + 6*b((x.y).(x.y), y.x)"
        " - 6*b((y.x).(y.x), x.y) - 2*b(x,y)*q(x)*q(y)")
    ok = equal(main_chain["one"], one) and equal(main_chain["two"], two) \
        and equal(main_chain["three"], three)
    ok = ok and run_builtin_session("M").passed
    report("C7-constant-residuals", ok, "alpha^2 / alpha / alpha^0 parts")


def test_criterion_8_rule_soundness():
    st = SymbolTable()
    for name in ("x", "y", "z", "u"):
        st.declare_vector(name)
    base = [Word.leaf(n, st.index_of(n)) for n in ("x", "y", "z", "u")]

    def random_word(rng, depth):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice(base)
        return Word.pair(random_word(rng, depth - 1), random_word(rng, depth - 1))

    checked = 0
    ok = True
    sets = ("rules1", "rules2", "assleft", "assocb",
            "move1", "move2", "move3", "move4", "move5")
    for set_name in sets:
        rs = builtin_ruleset(set_name)
        for rule in rs.rules:
            if rule.kind == "noop":
                continue
            variables = sorted(_pattern_vars(rule.lhs)
                               | (_pattern_vars(rule.lhs2) if rule.lhs2 else set()))
            rng = random.Random(f"{set_name}:{rule.name}")
            for trial in range(100):
                binds = {v: random_word(rng, 2) for v in variables}
                lhs, rhs = instantiate_sides(rule, binds, st)
                diff = lhs - rhs
                a = random_assignment(["x", "y", "z", "u"], [], 1000, trial)
                value = eval_expr(diff, a)
                zero = value == 0 if not hasattr(value, "is_zero") else value.is_zero
                if not zero:
                    ok = False
            checked += 1
    report("C8-rule-soundness", ok, f"{checked} rules x 100 trials, exact")


def test_criterion_9_oracle_identity_suite(main_chain):
    ctx, st = main_chain["ctx"], main_chain["ctx"].table
    # The full identity holds on the beta = 1 - alpha locus (the session's
    # own substitution); the residuals hold for free alpha.
    diff = subst_raw(main_chain["leftside"] - main_chain["rightside"],
                     {"beta": parse_expr("1 - alpha")}, st)
    targets = {
        "main-identity": diff,
        "lambda-residual": main_chain["c6"],
        "mu-residual": main_chain["c7"],
        "alpha2-residual": main_chain["one"],
        "alpha1-residual": main_chain["two"],
        "alpha0-residual": main_chain["three"],
    }
    failed = [name for name, value in targets.items()
              if not check_identity(value, 200, 42).passed]
    report("C9-oracle-identities", not failed,
           "6 identities x 200 trials" + (f"; failed: {failed}" if failed else ""))


def test_criterion_10_property_suites():
    ctx = Ctx(scalars=("alpha", "beta"), vectors=("x", "y"))
    rng = random.Random(424242)

    round_trip_ok = True
    for _ in range(1000):
        value = canonicalize(random_raw(rng, ctx, depth=3), ctx.env)
        if not equal(ctx.canon(print_expr(value)), value):
            round_trip_ok = False
            break

    reconstruction_ok = True
    alpha, beta = ctx.canon("alpha"), ctx.canon("beta")
    for _ in range(100):
        from helpers import random_scalar_raw
        e = canonicalize(random_scalar_raw(rng, ctx, 3), ctx.env)
        matrix = coeff_matrix(e, ("alpha", "beta"))
        acc = ScalarExpr()
        for i, row in enumerate(matrix.rows):
            for j, entry in enumerate(row):
                acc = acc + (alpha ** i) * (beta ** j) * entry
        if not equal(acc, e):
            reconstruction_ok = False
            break

    oracle_ok = True
    for _ in range(100):
        raw = random_raw(rng, ctx, depth=3)
        value = canonicalize(raw, ctx.env)
        a = random_ctx_assignment(rng, ctx)
        if not values_agree(eval_raw(raw, a), eval_expr(value, a)):
            oracle_ok = False
            break

    ok = round_trip_ok and reconstruction_ok and oracle_ok
    report("C10-property-suites", ok,
           "1000 round trips, 100 reconstructions, 100 oracle equivalences")
