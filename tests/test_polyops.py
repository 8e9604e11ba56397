"""Substitution, coefficient extraction, matrices, factored equality."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from symcomp import (
    Env,
    ScalarExpr,
    canonicalize,
    coeff,
    coeff_matrix,
    equal,
    factored_equal,
    parse_expr,
    print_expr,
    subst,
    subst_raw,
)
from symcomp.core import units
from symcomp.errors import ExprTypeError
from symcomp.oracle import Assignment, eval_expr
from helpers import (
    Ctx,
    random_ctx_assignment,
    random_raw,
    random_scalar_raw,
    random_vector_raw,
)


def test_subst_empty_is_identity(greek):
    e = greek.canon("b(x,y)*q(x) + lambda*q(y)")
    assert equal(subst(e, {}, greek.table), e)


def test_subst_linearizes(lin_ctx):
    comp = lin_ctx.canon("q(x.y) - q(x)*q(y)")
    lin = subst_raw(comp, {"x": parse_expr("z1 + alpha*z2"),
                           "y": parse_expr("z3 + beta*z4")}, lin_ctx.table)
    # the alpha*beta coefficient is the fully polarized composition defect
    got = coeff(lin, {"alpha": 1, "beta": 1})
    expected = lin_ctx.canon("b(z1.z3, z2.z4) + b(z1.z4, z2.z3) - b(z1,z2)*b(z3,z4)")
    assert equal(got, expected)
    # applying multiplicativity cancels the corner pieces, leaving the
    # fully expanded eleven-monomial polynomial
    from symcomp import apply_fixpoint, builtin_ruleset
    reduced = apply_fixpoint(lin, builtin_ruleset("expandq"), lin_ctx.table)
    assert len(reduced.terms) == 11


def test_subst_scalar_to_zero(greek):
    e = greek.canon("lambda*q(x) + mu*q(y) + b(x,y)")
    got = subst_raw(e, {"mu": parse_expr("0")}, greek.table)
    assert equal(got, greek.canon("lambda*q(x) + b(x,y)"))


def test_subst_sort_mismatch(greek):
    e = greek.canon("lambda*q(x)")
    with pytest.raises(ExprTypeError):
        subst_raw(e, {"lambda": parse_expr("x")}, greek.table)
    with pytest.raises(ExprTypeError):
        subst_raw(e, {"x": parse_expr("lambda")}, greek.table)


def test_subst_undeclared_symbol_is_an_error(greek):
    e = greek.canon("lambda*q(x)")
    with pytest.raises(ExprTypeError, match=r"^cannot substitute undeclared symbol 'w'$"):
        subst(e, {"w": e}, greek.table)


@pytest.mark.parametrize("name, value, sort", [
    ("lambda", 2, "scalar"), ("x", 0, "vector"), ("mu", "mu", "scalar")])
def test_subst_binding_that_is_not_an_expr_is_an_error(greek, name, value, sort):
    e = greek.canon("lambda*q(x) + mu*b(x,y)")
    message = f"^{sort} symbol '{name}' bound to a value of type {type(value).__name__}, " \
              "not an Expr$"
    with pytest.raises(ExprTypeError, match=message):
        subst(e, {name: value}, greek.table)


def test_subst_vector_symbol_to_zero(greek):
    e = greek.canon("q(x + y) + lambda*b(x,y)")
    got = subst_raw(e, {"x": parse_expr("0")}, greek.table)
    assert equal(got, greek.canon("q(y)"))


def test_subst_composition_disjoint_domains(lin_ctx):
    e = lin_ctx.canon("q(x.y) + b(x, y)*q(y)")
    sigma = {"x": parse_expr("z1 + alpha*z2")}
    tau = {"y": parse_expr("z3 + beta*z4")}
    step = subst_raw(subst_raw(e, sigma, lin_ctx.table), tau, lin_ctx.table)
    joint = subst_raw(e, {**sigma, **tau}, lin_ctx.table)
    assert equal(step, joint)


def test_subst_oracle_compatibility(greek):
    # Evaluating after substitution equals evaluating the original under
    # the composed assignment.
    rng = random.Random(40)
    e = greek.canon("lambda*b(x, x.y) + q(x.y)*mu^2 + b(y,x)^2")
    sigma_raw = {"x": parse_expr("x + lambda*y"), "mu": parse_expr("lambda - 2")}
    sigma = {n: canonicalize(r, greek.env) for n, r in sigma_raw.items()}
    substituted = subst(e, sigma, greek.table)
    for _ in range(25):
        a = random_ctx_assignment(rng, greek)
        composed = Assignment(
            vectors={**a.vectors, "x": eval_expr(sigma["x"], a)},
            scalars={**a.scalars, "mu": eval_expr(sigma["mu"], a)},
        )
        assert eval_expr(substituted, a) == eval_expr(e, composed)


# --- property: subst agrees with canonicalizing under the bindings ------------

SUBST_CTX = Ctx(scalars=("alpha", "beta"), vectors=("x", "y", "z"))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32),
       names=st.sets(st.sampled_from(SUBST_CTX.scalars + SUBST_CTX.vectors)))
def test_subst_agrees_with_canonicalize_under_bindings_property(seed, names):
    # Exact comparison of canonical forms, not of model values: a swapped
    # b argument or a lost exponent fails it.
    ctx, rng = SUBST_CTX, random.Random(seed)
    e = canonicalize(random_raw(rng, ctx, depth=3), ctx.env)
    bindings = {}
    for name in sorted(names):
        make = random_scalar_raw if name in ctx.scalars else random_vector_raw
        bindings[name] = canonicalize(make(rng, ctx, 2), ctx.env)
    expected = canonicalize(parse_expr(print_expr(e)), Env(ctx.table, bindings))
    assert equal(subst(e, bindings, ctx.table), expected)


def test_coeff_exact_degree(greek):
    e = greek.canon("lambda*mu^2*q(x) + lambda*mu*b(x,y) + mu^2*q(y)")
    assert equal(coeff(e, {"lambda": 1, "mu": 2}), greek.canon("q(x)"))
    assert equal(coeff(e, {"lambda": 0, "mu": 2}), greek.canon("q(y)"))
    assert coeff(e, {"lambda": 2}).is_zero


def test_coeff_absent_symbol(greek):
    assert coeff(greek.canon("q(x)"), {"lambda": 1}).is_zero


def test_coeff_leaves_other_symbols_untouched(greek):
    e = greek.canon("lambda^2*mu*q(x) + lambda^2*b(x,y)")
    got = coeff(e, {"lambda": 2})
    assert equal(got, greek.canon("mu*q(x) + b(x,y)"))


def test_coeff_linearity(greek):
    rng = random.Random(31)
    key = {"lambda": 1, "mu": 1}
    for _ in range(40):
        a = canonicalize(random_scalar_raw(rng, greek, 3), greek.env)
        b = canonicalize(random_scalar_raw(rng, greek, 3), greek.env)
        assert equal(coeff(a + b, key), coeff(a, key) + coeff(b, key))


def test_coeff_vector_valued(lin_ctx):
    e = lin_ctx.canon("alpha*((z1.z3).z2) - alpha*b(z1,z2)*z3 + beta*q(z1)*z4")
    got = coeff(e, {"alpha": 1})
    assert equal(got, lin_ctx.canon("(z1.z3).z2 - b(z1,z2)*z3"))


def test_coeff_vector_drops_words_whose_coefficient_drops_out(lin_ctx):
    e = lin_ctx.canon("alpha*x + beta*y + alpha*beta*(x.y) - alpha*q(z1)*y + beta*q(z1)*y")
    got = coeff(e, {"alpha": 1, "beta": 0})
    assert equal(got, lin_ctx.canon("x - q(z1)*y"))
    # x.y keeps no coefficient at all, so it holds no (empty) term
    assert len(got.terms) == 2
    assert coeff(e, {"alpha": 2}).is_zero


def test_coeff_matrix_of_vector_value(lin_ctx):
    e = lin_ctx.canon("alpha*x + alpha^2*beta*(x.y) + y")
    matrix = coeff_matrix(e, ("alpha", "beta"))
    assert (len(matrix.rows), len(matrix.rows[0])) == (3, 2)
    assert equal(matrix.rows[0][0], lin_ctx.canon("y"))
    assert equal(matrix.rows[1][0], lin_ctx.canon("x"))
    assert equal(matrix.rows[2][1], lin_ctx.canon("x.y"))
    for i, j in ((0, 1), (1, 1), (2, 0)):
        assert matrix.rows[i][j].is_zero


def test_coeff_matrix_of_zero():
    matrix = coeff_matrix(ScalarExpr(), ("alpha", "beta"))
    assert (len(matrix.rows), len(matrix.rows[0])) == (1, 1)
    assert matrix.rows[0][0].is_zero
    assert matrix.vars == ("alpha", "beta")


def test_coeff_matrix_needs_two_distinct_symbols(greek):
    with pytest.raises(ExprTypeError):
        coeff_matrix(greek.canon("alpha*q(x)"), ("alpha", "alpha"))


def test_coeff_matrix_bounds_its_cell_count(greek):
    from symcomp.polyops import MAX_MATRIX_CELLS
    at_bound = coeff_matrix(greek.canon(f"lambda^{MAX_MATRIX_CELLS - 1}*q(x)"), ("lambda", "mu"))
    assert (len(at_bound.rows), len(at_bound.rows[0])) == (MAX_MATRIX_CELLS, 1)
    with pytest.raises(ExprTypeError) as err:
        coeff_matrix(greek.canon(f"lambda^{MAX_MATRIX_CELLS}*q(x)"), ("lambda", "mu"))
    assert str(err.value) == (f"coefficient matrix shape {MAX_MATRIX_CELLS + 1} x 1 is over "
                              f"the bound of {MAX_MATRIX_CELLS} cells")
    with pytest.raises(ExprTypeError, match="shape 256 x 257 is over"):
        coeff_matrix(greek.canon("lambda^255*mu^256*q(x)"), ("lambda", "mu"))


MATRIX_CTX = Ctx(scalars=("alpha", "beta", "lambda"), vectors=("x", "y"))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32), names=st.permutations(MATRIX_CTX.scalars))
def test_coeff_matrix_cells_are_coefficients_property(seed, names):
    # One walk fills the whole matrix; each cell must be the coefficient that
    # `coeff` extracts on its own, free of both symbols, and every unit of
    # `e` lands in one cell.
    ctx, rng = MATRIX_CTX, random.Random(seed)
    e = canonicalize(random_raw(rng, ctx, depth=3), ctx.env)
    u, v = names[:2]
    matrix = coeff_matrix(e, (u, v))
    for i, row in enumerate(matrix.rows):
        for j, entry in enumerate(row):
            assert type(entry) is type(e)
            assert not {u, v} & {a.name for _, mono, _ in units(entry) for a, _ in mono}
            assert equal(entry, coeff(e, {u: i, v: j})), (i, j)
    cells = [entry for row in matrix.rows for entry in row]
    assert sum(len(list(units(c))) for c in cells) == len(list(units(e)))


def test_coeff_matrix_reconstruction(greek):
    rng = random.Random(32)
    alpha = greek.canon("alpha")
    beta = greek.canon("beta")
    for _ in range(30):
        e = canonicalize(random_scalar_raw(rng, greek, 3), greek.env)
        matrix = coeff_matrix(e, ("alpha", "beta"))
        acc = ScalarExpr()
        for i, row in enumerate(matrix.rows):
            for j, entry in enumerate(row):
                acc = acc + (alpha ** i) * (beta ** j) * entry
        assert equal(acc, e)


def test_coeff_matrix_json_round_trip(lin_ctx):
    import json
    e = lin_ctx.canon("alpha*q(z1) + beta*b(z1,z2) + alpha*beta^2*q(z2)")
    matrix = coeff_matrix(e, ("alpha", "beta"))
    payload = json.loads(matrix.to_json())
    assert payload["vars"] == ["alpha", "beta"]
    assert len(payload["rows"]) == 2 and len(payload["rows"][0]) == 3
    cell = canonicalize(parse_expr(payload["rows"][1][0]), lin_ctx.env)
    assert equal(cell, lin_ctx.canon("q(z1)"))


def test_coeff_agrees_with_interpolation(greek):
    # Independent oracle: coefficients of a polynomial in (lambda, mu) are
    # determined by its values; reconstruct them by exact Lagrange
    # interpolation over integer nodes and compare with coeff().
    from fractions import Fraction
    rng = random.Random(88)

    def lagrange_coeffs(values, nodes):
        # coefficients of the unique interpolating polynomial
        n = len(nodes)
        coeffs = [Fraction(0)] * n
        for k, xk in enumerate(nodes):
            basis = [Fraction(1)]
            denom = Fraction(1)
            for m, xm in enumerate(nodes):
                if m == k:
                    continue
                # multiply basis by (t - xm)
                new = [Fraction(0)] * (len(basis) + 1)
                for d, c in enumerate(basis):
                    new[d] -= c * xm
                    new[d + 1] += c
                basis = new
                denom *= xk - xm
            for d in range(len(basis)):
                coeffs[d] += values[k] * basis[d] / denom
        return coeffs

    for _ in range(10):
        e = canonicalize(random_scalar_raw(rng, greek, 3), greek.env)
        deg_l = max((sum(x for a, x in m if a.is_symbol and a.name == "lambda")
                     for m in e.terms), default=0)
        deg_m = max((sum(x for a, x in m if a.is_symbol and a.name == "mu")
                     for m in e.terms), default=0)
        a = random_ctx_assignment(rng, greek)
        nodes_l = [Fraction(i) for i in range(deg_l + 1)]
        nodes_m = [Fraction(j) for j in range(deg_m + 1)]
        # values[i][j] = e evaluated at lambda = i, mu = j
        grid = []
        for li in nodes_l:
            row = []
            for mj in nodes_m:
                point = Assignment(vectors=a.vectors,
                                   scalars={**a.scalars, "lambda": li, "mu": mj})
                row.append(eval_expr(e, point))
            grid.append(row)
        # interpolate in mu per lambda-node, then in lambda per mu-degree
        per_lambda = [lagrange_coeffs(row, nodes_m) for row in grid]
        for j in range(deg_m + 1):
            column = [per_lambda[i][j] for i in range(deg_l + 1)]
            lam_coeffs = lagrange_coeffs(column, nodes_l)
            for i in range(deg_l + 1):
                extracted = coeff(e, {"lambda": i, "mu": j})
                assert eval_expr(extracted, a) == lam_coeffs[i]


def test_polarization_grouping_is_immaterial(greek):
    left = greek.canon("q((x + y) + (x.y))")
    right = greek.canon("q(x + (y + (x.y)))")
    assert equal(left, right)


def test_factored_equal_examples(greek):
    assert factored_equal(ScalarExpr(), greek.canon("0"))
    expanded = greek.canon(
        "3*alpha*b(y, x.x) + 3*beta*b(y, x.x) - 3*b(y, x.x)")
    assert factored_equal(expanded, greek.canon("3*(alpha + beta - 1)*b(y, x.x)"))


def test_factored_equal_rejects_perturbation(greek):
    rng = random.Random(33)
    for _ in range(20):
        e = canonicalize(random_scalar_raw(rng, greek, 3), greek.env)
        perturbed = e + greek.canon("q(x)")
        assert not factored_equal(perturbed, e)
        assert factored_equal(e + greek.canon("q(x)") - greek.canon("q(x)"), e)
