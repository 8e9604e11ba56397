"""The para-quaternion model: product table, evaluation, identity checks."""
import io
import random
from fractions import Fraction
from pathlib import Path

import pytest

from symcomp import check_identity, eval_expr
from symcomp import oracle
from symcomp.cli import main
from symcomp.oracle import (
    Assignment,
    ParaQuaternion,
    _norm,
    _polar,
    _product,
    random_assignment,
)
from symcomp.errors import MissingSymbol, SymcompError
from helpers import greek_ctx, random_components

DATA = Path(__file__).parent / "data"

# The model arithmetic every trial runs, on integer 4-tuples over 1, i, j, k.
ONE, I, J, K = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)


def scaled(factor, u):
    return tuple(factor * c for c in u)


def test_unit_times_unit():
    assert _product(ONE, ONE) == ONE


def test_i_times_j():
    # conj(i) conj(j) = (-i)(-j) = ij = k
    assert _product(I, J) == K


def test_norm_multiplicativity_brute_force():
    rng = random.Random(90)
    for _ in range(100):
        u, v = random_components(rng), random_components(rng)
        assert _norm(_product(u, v)) == _norm(u) * _norm(v)


def test_biflexibility_brute_force():
    rng = random.Random(91)
    for _ in range(100):
        u, v = random_components(rng), random_components(rng)
        expected = scaled(_norm(u), v)
        assert _product(_product(u, v), u) == expected
        assert _product(u, _product(v, u)) == expected


def test_norm_associativity_brute_force():
    rng = random.Random(92)
    for _ in range(100):
        u, v, w = random_components(rng), random_components(rng), random_components(rng)
        assert _polar(_product(u, v), w) == _polar(u, _product(v, w))


def test_polar_form_definition():
    rng = random.Random(93)
    for _ in range(50):
        u, v = random_components(rng), random_components(rng)
        total = tuple(a + b for a, b in zip(u, v))
        assert _polar(u, v) == _norm(total) - _norm(u) - _norm(v)


def test_eval_norm_of_unit(xy):
    a = Assignment(vectors={"x": ParaQuaternion(1)}, scalars={})
    assert eval_expr(xy.canon("q(x)"), a) == 1


def test_eval_polarization_rule(xy):
    e = xy.canon("b(x,x) - 2*q(x)")
    for trial in range(20):
        a = random_assignment(["x"], [], 7, trial)
        assert eval_expr(e, a) == 0


def test_eval_flexible_law_componentwise(xy):
    e = xy.canon("(x.y).x - q(x)*y")
    for trial in range(20):
        a = random_assignment(["x", "y"], [], 8, trial)
        assert eval_expr(e, a).is_zero


def test_eval_missing_symbol(xy):
    with pytest.raises(MissingSymbol) as err:
        eval_expr(xy.canon("q(x)"), Assignment(vectors={}, scalars={}))
    assert str(err.value) == "no value assigned to vector symbol 'x'"
    with pytest.raises(MissingSymbol) as err:
        eval_expr(greek_ctx().canon("alpha*x"), Assignment({"x": ParaQuaternion(1)}, {}))
    assert str(err.value) == "no value assigned to scalar symbol 'alpha'"


def test_eval_keeps_rational_values(xy):
    a = Assignment(vectors={"x": ParaQuaternion(Fraction(1, 2), 0, 0, 0)}, scalars={})
    assert eval_expr(xy.canon("q(x)"), a) == Fraction(1, 4)
    assert eval_expr(xy.canon("1/3*(x.x)"), a) == ParaQuaternion(Fraction(1, 12))


def test_exact_rational_coefficient_passes(xy):
    assert check_identity(xy.canon("q(x) - 1/2*b(x,x)"), 100, 42).passed


def test_check_identity_pass(xy):
    report = check_identity(xy.canon("q(x.y) - q(x)*q(y)"), 100, 42)
    assert report.passed
    assert report.counterexample is None
    assert report.trials == 100


def test_check_identity_b_symmetry_in_model(xy):
    # the engine keeps b(x,y) and b(y,x) distinct; the model does not
    report = check_identity(xy.canon("b(x,y) - b(y,x)"), 100, 42)
    assert report.passed


def test_check_identity_failure_has_counterexample(xy):
    report = check_identity(xy.canon("q(x) - q(y)"), 100, 42)
    assert not report.passed
    cx = report.counterexample
    assert cx is not None
    a = Assignment(
        vectors={n: ParaQuaternion(*(Fraction(c) for c in comps))
                 for n, comps in cx.to_jsonable()["vectors"].items()},
        scalars={},
    )
    assert eval_expr(xy.canon("q(x) - q(y)"), a) != 0


def test_check_identity_deterministic(xy):
    e = xy.canon("q(x) - q(y)")
    first = check_identity(e, 50, 9)
    second = check_identity(e, 50, 9)
    assert first.to_json() == second.to_json()
    different = check_identity(e, 50, 10)
    assert different.to_json() != first.to_json()


def test_single_trial(xy):
    report = check_identity(xy.canon("b(x,y) - b(y,x)"), 1, 42)
    assert report.passed and report.trials == 1


@pytest.mark.parametrize("trials", [0, -1, 10_001, 10**9])
def test_check_identity_bounds_its_trial_count(xy, trials):
    with pytest.raises(SymcompError) as err:
        check_identity(xy.canon("b(x,y) - b(y,x)"), trials, 42)
    assert str(err.value) == f"trials must be between 1 and 10000, got {trials}"


def test_draw_gives_the_values_of_randint():
    # A trial's components are, in order, the values of randint(-9, 9) on
    # the trial's own generator: 4 per vector, then 1 per scalar.
    for seed in (14, 42, 2718):
        for trial in range(200):
            for vectors in range(5):
                for scalars in range(4):
                    rng = random.Random(seed * 1_000_003 + trial)
                    values = [rng.randint(-9, 9) for _ in range(4 * vectors + scalars)]
                    expected = ([tuple(values[4 * k:4 * k + 4]) for k in range(vectors)],
                                values[4 * vectors:])
                    assert oracle._draw(vectors, scalars, seed, trial) == expected


def test_component_range(xy):
    a = random_assignment(["x", "y"], ["alpha"], 42, 0)
    for pq in a.vectors.values():
        assert all(-9 <= c <= 9 for c in pq.components())
    assert all(-9 <= v <= 9 for v in a.scalars.values())


# `symcomp oracle --json --seed 42` reports of failing identities, recorded
# as files: the counterexample pins the trial that fails first and the order
# in which a trial draws its components (vectors, then scalars, by name).
# The last identity is zero unless alpha = 9, so it first fails at trial 21.
RECORDED_REPORTS = {
    "commutator": "x.y - y.x",
    "third_polar": "q(x) - 1/3*b(x,x)",
    "scalars": "alpha*(x.y) - beta*(y.x) + lambda*q(z)*x",
    "late_failure": "alpha*(alpha^2-1)*(alpha^2-4)*(alpha^2-9)*(alpha^2-16)*(alpha^2-25)"
                    "*(alpha^2-36)*(alpha^2-49)*(alpha^2-64)*(alpha+9)*q(x)",
}


@pytest.mark.parametrize("name", RECORDED_REPORTS)
def test_failing_report_matches_recording(name):
    out = io.StringIO()
    code = main(["oracle", "--json", "--seed", "42", RECORDED_REPORTS[name]], out=out)
    assert code == 1
    assert out.getvalue().encode("utf-8") == (DATA / f"oracle_report_{name}.json").read_bytes()
