"""Canonical forms: ordering, bilinearity, polarization, equality."""
import random

import pytest

from symcomp import ScalarExpr, atom_order, canonicalize, equal, print_expr
from symcomp.core import Atom
from symcomp.errors import ExprTypeError, UnknownSymbol
from symcomp.oracle import eval_expr
from helpers import Ctx, eval_raw, random_ctx_assignment, random_raw, values_agree


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


def test_atom_order_examples(xy):
    x = xy.word("x")
    x_dot_y = xy.word("x.y")
    assert atom_order(x, x_dot_y) < 0                      # leaf count first
    bxy = Atom.b(xy.word("x"), xy.word("y"))
    byx = Atom.b(xy.word("y"), xy.word("x"))
    assert atom_order(bxy, byx) < 0                        # declaration order
    qx = Atom.q(xy.word("x"))
    bxx = Atom.b(xy.word("x"), xy.word("x"))
    assert atom_order(qx, bxx) < 0                         # kind order: q < b


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
    with pytest.raises(UnknownSymbol):
        xy.canon("q(w)")


def test_vector_sum_tolerates_scalar_zero(xy):
    assert equal(xy.canon("0 + x"), xy.canon("x"))


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


def test_power_equals_repeated_product(greek):
    base = greek.canon("1 + lambda")
    product = ScalarExpr.const(1)
    for k in range(7):
        assert equal(base ** k, product), k
        product = product * base


def test_symbols_of_a_vector_value_include_its_coefficients():
    from symcomp.core import scalar_symbols_of, vector_symbols_of
    ctx = Ctx(scalars=("lambda", "mu"), vectors=("u", "w", "x", "y", "z"))
    # z, u and w occur only inside the coefficients of the words x and x.y
    value = ctx.canon("lambda*q(z)*x + b(u,w)*(x.y)")
    assert vector_symbols_of(value) == {"u", "w", "x", "y", "z"}
    assert scalar_symbols_of(value) == {"lambda"}


def test_symbols_of_scalar_and_zero_values():
    from symcomp.core import VectorExpr, scalar_symbols_of, vector_symbols_of
    ctx = Ctx(scalars=("lambda", "mu"), vectors=("u", "w", "x", "y", "z"))
    value = ctx.canon("mu*b(x.(y.u), z) + q(w)")
    assert vector_symbols_of(value) == {"u", "w", "x", "y", "z"}
    assert scalar_symbols_of(value) == {"mu"}
    for zero in (ScalarExpr(), VectorExpr()):
        assert vector_symbols_of(zero) == scalar_symbols_of(zero) == set()
