"""Printing: deterministic format, round trips, injectivity."""
import random

from symcomp import canonicalize, equal, print_expr
from symcomp.core import Atom, ScalarExpr, VectorExpr, Word, mono_mul
from helpers import Ctx, random_raw


def test_merged_coefficient(xy):
    assert print_expr(xy.canon("b(x,y) + b(x,y)")) == "2*b(x,y)"


def test_zero_prints_as_zero(xy):
    assert print_expr(ScalarExpr()) == "0"
    assert print_expr(VectorExpr()) == "0"


def test_signs_and_fractions(xy):
    # q atoms order before b atoms; the leading sign attaches bare
    assert print_expr(xy.canon("-q(x) + 1/2*b(x,y)")) == "-q(x) + 1/2*b(x,y)"


def test_dots_fully_parenthesized(xy):
    text = print_expr(xy.canon("b((x.y).x, y)"))
    assert text == "b((x.y).x,y)"


def test_vector_terms(xy):
    assert print_expr(xy.canon("q(x)*y - 3*((x.y).x)")) == "q(x)*y - 3*((x.y).x)"
    multi = xy.canon("(q(x) + q(y))*y")
    assert print_expr(multi) == "(q(x) + q(y))*y"


def test_power_format(xy):
    assert print_expr(xy.canon("b(x,y)^3")) == "b(x,y)^3"


def test_residual_prints_to_its_transcription(xy):
    # the alpha^2 residual of the main session, as one deterministic line
    value = xy.canon(
        "-3*b(x.y, (x.y).(x.y)) - 3*b(x.(x.y), y.(y.x))"
        " + 3*b(x.(x.y), (y.y).x) + 6*b((x.y).(x.y), y.x)"
        " - 3*b((y.x).(y.x), x.y)")
    assert print_expr(value) == (
        "-3*b(x.y,(x.y).(x.y)) - 3*b(x.(x.y),y.(y.x))"
        " + 3*b(x.(x.y),(y.y).x) + 6*b((x.y).(x.y),y.x)"
        " - 3*b((y.x).(y.x),x.y)")


def test_round_trip_random():
    ctx = Ctx(scalars=("alpha", "beta"), vectors=("x", "y"))
    rng = random.Random(55)
    for _ in range(200):
        value = canonicalize(random_raw(rng, ctx, depth=3), ctx.env)
        reparsed = ctx.canon(print_expr(value))
        assert equal(reparsed, value)


def test_printing_injective_on_random_pairs():
    ctx = Ctx(scalars=("alpha",), vectors=("x", "y"))
    rng = random.Random(56)
    seen: dict[str, object] = {}
    for _ in range(200):
        value = canonicalize(random_raw(rng, ctx, depth=3), ctx.env)
        text = print_expr(value)
        if text in seen:
            assert type(seen[text]) is type(value) and equal(seen[text], value)
        else:
            seen[text] = value


def nested_mono_key(mono):
    """The graded-lexicographic order as a nested key: total degree, then
    the `(atom.key, exponent)` entries."""
    return (sum(exp for _, exp in mono), tuple((atom.key, exp) for atom, exp in mono))


def test_monomial_order_equals_the_nested_key_order():
    # Words share prefixes (x, x.y, (x.y).x, ...), so atom keys do too;
    # degrees 2 to 4 over few atoms give many equal-degree ties, and
    # exponents above 1 tie against longer monomials.
    ctx = Ctx(scalars=("alpha", "beta"), vectors=("x", "y"))
    x, y = ctx.word("x"), ctx.word("y")
    xy, yx = Word.pair(x, y), Word.pair(y, x)
    words = [x, y, xy, yx, Word.pair(xy, x), Word.pair(x, xy), Word.pair(xy, xy)]
    atoms = [Atom.symbol(name, ctx.table.index_of(name)) for name in ctx.scalars]
    atoms += [Atom.q(w) for w in words]
    atoms += [Atom.b(w1, w2) for w1 in words[:4] for w2 in words]
    rng = random.Random(57)
    for _ in range(200):
        terms = {}
        for _ in range(rng.randint(1, 40)):
            mono = ()
            for atom in rng.sample(atoms, rng.randint(0, 3)):
                mono = mono_mul(mono, ((atom, rng.randint(1, 3)),))
            terms[mono] = rng.randint(-3, 3) or 1
        value = ScalarExpr(terms)
        assert [m for m, _ in value.monomials()] == sorted(terms, key=nested_mono_key)
    for _ in range(200):
        value = canonicalize(random_raw(rng, ctx, depth=3), ctx.env)
        coeffs = [value] if isinstance(value, ScalarExpr) else value.terms.values()
        for c in coeffs:
            assert [m for m, _ in c.monomials()] == sorted(c.terms, key=nested_mono_key)
