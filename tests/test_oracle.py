"""The para-quaternion model: its table and kernels, evaluation, identity checks."""
import io
import json
import random
import weakref
from fractions import Fraction
from operator import add, mul
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from symcomp import canonicalize, check_identity, eval_expr
from symcomp import oracle, parser, polyops, sessions
from symcomp.cli import main
from symcomp.core import Atom, Env, ScalarExpr, VectorExpr, Word
from symcomp.oracle import PARA_QUATERNIONS as PQ, Assignment, ParaQuaternion, random_assignment
from symcomp.errors import MissingSymbol, SymcompError
from helpers import (
    Ctx, greek_ctx, random_components, random_raw, reference_norm, reference_polar,
    reference_product, reference_run,
)
from test_api import pin, raises

DATA = Path(__file__).parent / "data"

# The model every trial runs, on integer 4-tuples over 1, i, j, k: its table,
# and the column kernels generated from it, against the hand-written
# reference in `helpers`.
ONE, I, J, K = BASIS = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)


def scaled(factor, u):
    return tuple(factor * c for c in u)


def columns(seed, count, n):
    """`count` seeded columns of `n` random integer 4-tuples."""
    rng = random.Random(seed)
    return [[random_components(rng) for _ in range(n)] for _ in range(count)]


def test_the_table_holds_the_reference_products_of_basis_pairs():
    # 16 entries, each plus or minus one basis element.
    assert (PQ.name, PQ.dim) == ("para-quaternions", 4)
    entries = [(i, j, k, sign) for i, row in enumerate(PQ.table)
               for j, (k, sign) in enumerate(row)]
    assert [(i, j) for i, j, _, _ in entries] == [(i, j) for i in range(4) for j in range(4)]
    for i, j, k, sign in entries:
        assert sign in (1, -1)
        assert reference_product(BASIS[i], BASIS[j]) == scaled(sign, BASIS[k])


def test_unit_times_unit():
    assert PQ.products([ONE], [ONE]) == [ONE]


def test_i_times_j():
    # conj(i) conj(j) = (-i)(-j) = ij = k
    assert PQ.products([I], [J]) == [K]


def assert_kernels_match_the_reference(u, v):
    assert PQ.products(u, v) == list(map(reference_product, u, v))
    assert PQ.squares(u) == list(map(reference_product, u, u))
    assert PQ.norms(u) == list(map(reference_norm, u))
    assert PQ.polars(u, v) == list(map(reference_polar, u, v))


@pytest.mark.parametrize("n", [1, 2, 100])
def test_each_kernel_matches_the_reference_element_by_element(n):
    assert_kernels_match_the_reference(*columns(500 + n, 2, n))


def test_each_kernel_matches_the_reference_on_fractions():
    u, v = ([tuple(Fraction(c, 3) for c in x) for x in column] for column in columns(510, 2, 20))
    assert_kernels_match_the_reference(u, v)
    assert all(type(c) is Fraction for c in PQ.products(u, v)[0])


def test_norm_multiplicativity_brute_force():
    u, v = columns(90, 2, 100)
    assert PQ.norms(PQ.products(u, v)) == list(map(mul, PQ.norms(u), PQ.norms(v)))


def test_biflexibility_brute_force():
    u, v = columns(91, 2, 100)
    expected = list(map(scaled, PQ.norms(u), v))
    assert PQ.products(PQ.products(u, v), u) == expected
    assert PQ.products(u, PQ.products(v, u)) == expected


def test_norm_associativity_brute_force():
    u, v, w = columns(92, 3, 100)
    assert PQ.polars(PQ.products(u, v), w) == PQ.polars(u, PQ.products(v, w))


def test_polar_form_definition():
    u, v = columns(93, 2, 50)
    total = [tuple(map(add, x, y)) for x, y in zip(u, v)]
    assert PQ.polars(u, v) == [s - a - b for s, a, b in
                               zip(PQ.norms(total), PQ.norms(u), PQ.norms(v))]


# The kernels' source: the same text in every process and under every hash
# seed, generated from the table and nothing else.
KERNEL_SOURCE = """\
def products(U, V):
    return [(a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3, \
a2 * b3 - a0 * b1 - a1 * b0 - a3 * b2, \
a3 * b1 - a0 * b2 - a1 * b3 - a2 * b0, \
a1 * b2 - a0 * b3 - a2 * b1 - a3 * b0)
            for (a0, a1, a2, a3), (b0, b1, b2, b3) in zip(U, V)]


def squares(U):
    return [(a0 * a0 - a1 * a1 - a2 * a2 - a3 * a3, -2 * a0 * a1, -2 * a0 * a2, -2 * a0 * a3) \
for (a0, a1, a2, a3) in U]


def norms(U):
    return [a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3 for (a0, a1, a2, a3) in U]


def polars(U, V):
    return [2 * (a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3) \
for (a0, a1, a2, a3), (b0, b1, b2, b3) in zip(U, V)]
"""


def test_the_generated_kernel_source_is_pinned():
    assert oracle._kernel_source(PQ.dim, PQ.table) == KERNEL_SOURCE


def test_a_model_is_compared_by_its_name_dimension_and_table():
    again = oracle._model(PQ.name, PQ.dim, PQ.table)
    assert again == PQ and hash(again) == hash(PQ)
    assert again.products is not PQ.products
    assert repr(PQ).startswith("Model(name='para-quaternions', dim=4, table=(((0, 1), (1, -1), ")


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


@pytest.mark.parametrize("trials", [2.5, 3.0, "7", True, Fraction(3), None])
def test_check_identity_refuses_a_trial_count_that_is_not_an_int(trials):
    raises(pin("check_identity", "trials", trials))


def test_a_trial_count_past_the_string_limit_is_named_by_its_digits(xy):
    # str() of a 5001-digit int raises ValueError; the message counts digits.
    with pytest.raises(SymcompError) as err:
        check_identity(xy.canon("b(x,y) - b(y,x)"), 10**5000, 42)
    assert str(err.value) == "trials must be between 1 and 10000, got of 5001 digits"


@pytest.mark.parametrize("seed", ["7", 7.0, False, Fraction(7), None])
def test_check_identity_refuses_a_seed_that_is_not_an_int(seed):
    raises(pin("check_identity", "seed", seed))


def test_float_values_are_refused_by_name(greek):
    # A float carries its binary fraction: 0.1 is 3602879701896397/2^55.
    e = greek.canon("alpha*q(x)")
    with pytest.raises(SymcompError) as err:
        eval_expr(e, Assignment({"x": ParaQuaternion(1)}, {"alpha": 0.1}))
    assert str(err.value) == "scalar symbol 'alpha' must be an int or a Fraction, got 0.1"
    with pytest.raises(SymcompError) as err:
        eval_expr(e, Assignment({"x": (1, 0, 0, 0)}, {"alpha": 1}))
    assert str(err.value) == "vector symbol 'x' must be a ParaQuaternion, got (1, 0, 0, 0)"
    with pytest.raises(SymcompError) as err:
        ParaQuaternion(1, 0.1)
    assert str(err.value) == "a ParaQuaternion component must be an int or a Fraction, got 0.1"
    a = Assignment({"x": ParaQuaternion(1, Fraction(1, 10))}, {"alpha": Fraction(1, 10)})
    assert eval_expr(e, a) == Fraction(101, 1000)


def test_bool_values_are_refused_as_floats_are(greek):
    # A bool is not a number here, just as it is not a trial count; the
    # operators refuse one too (tests/test_core.py).
    e = greek.canon("alpha*q(x)")
    with pytest.raises(SymcompError) as err:
        eval_expr(e, Assignment({"x": ParaQuaternion(1)}, {"alpha": True}))
    assert str(err.value) == "scalar symbol 'alpha' must be an int or a Fraction, got True"
    with pytest.raises(SymcompError) as err:
        ParaQuaternion(True)
    assert str(err.value) == "a ParaQuaternion component must be an int or a Fraction, got True"


def test_para_quaternion_is_an_immutable_record():
    pq = ParaQuaternion(1, Fraction(1, 2))
    assert repr(ParaQuaternion(1)) == "ParaQuaternion(1, 0, 0, 0)"
    assert repr(pq) == "ParaQuaternion(1, 1/2, 0, 0)"
    assert all(type(c) is Fraction for c in pq.components())
    assert pq == ParaQuaternion(Fraction(1), Fraction(1, 2), 0, 0)
    assert pq != ParaQuaternion(1) and pq != (1, Fraction(1, 2), 0, 0)
    assert hash(pq) == hash((1, Fraction(1, 2), 0, 0))
    for name in "abcd":
        with pytest.raises(AttributeError):
            setattr(pq, name, Fraction(1, 2))
    with pytest.raises(AttributeError):
        del pq.a
    assert pq.components() == (1, Fraction(1, 2), 0, 0)


def randint_columns(dim, vectors, scalars, seed, first, n):
    """Trials first .. first + n - 1 as `_run` reads them, each trial the
    values of randint(-9, 9) on its own generator: `dim` per vector, then 1
    per scalar."""
    trials = []
    for trial in range(first, first + n):
        rng = random.Random(seed * 1_000_003 + trial)
        trials.append([rng.randint(-9, 9) for _ in range(dim * vectors + scalars)])
    return (tuple(tuple(tuple(values[dim * k:dim * k + dim]) for values in trials)
                  for k in range(vectors)),
            tuple(tuple(values[dim * vectors + k] for values in trials) for k in range(scalars)))


def test_draw_gives_the_values_of_randint():
    for n in (1, oracle._RUN):
        for seed in (14, 42, 2718):
            for first in range(0, 200, n):
                for vectors in range(5):
                    for scalars in range(4):
                        assert oracle._draws(4, vectors, scalars, seed, first, n) == \
                            randint_columns(4, vectors, scalars, seed, first, n)


def test_a_run_of_another_dimension_draws_dim_values_per_vector_and_is_cached_apart():
    oracle._cached_draws.cache_clear()
    for dim in (4, 1, 8):
        assert oracle._cached_draws(dim, 3, 2, 42, 0, 10) == randint_columns(dim, 3, 2, 42, 0, 10)
    assert oracle._cached_draws.cache_info().currsize == 3


def test_component_range(xy):
    a = random_assignment(["x", "y"], ["alpha"], 42, 0)
    for pq in a.vectors.values():
        assert all(-9 <= c <= 9 for c in pq.components())
    assert all(-9 <= v <= 9 for v in a.scalars.values())


# `symcomp oracle --json --seed 42` reports of failing identities, recorded
# as files: the counterexample pins the trial that fails first and the order
# in which a trial draws its components (vectors, then scalars, by name).
# The last three are zero unless alpha takes one value: `late_failure`
# first fails at trial 21 (alpha = 9), `second_block_vector` at trial 51
# (alpha = -2) and `third_block_scalar` at trial 71 (alpha = -4).  Their
# names count runs of 32 and then 64 trials; in runs of `oracle._RUN`
# (100) each of the six checks is one run.  The names are kept because
# the recordings did not change and the tests and CI read them by name.
# Each line of the file is a report's name and its identity.
RECORDED_REPORTS = dict(line.split(" ", 1) for line in
                        (DATA / "oracle_reports.txt").read_text(encoding="utf-8").splitlines())


def test_recorded_report_list_names_every_recording():
    # CI replays the list and counts the files, so neither may drift.
    recorded = {path.name for path in DATA.glob("oracle_report_*.json")}
    assert sorted(f"oracle_report_{name}.json" for name in RECORDED_REPORTS) == sorted(recorded)


@pytest.mark.parametrize("name", RECORDED_REPORTS)
def test_failing_report_matches_recording(name):
    # The first check draws its runs and the second reads them.
    oracle._cached_draws.cache_clear()
    recording = (DATA / f"oracle_report_{name}.json").read_bytes()
    for _ in range(2):
        out = io.StringIO()
        assert main(["oracle", "--json", "--seed", "42", RECORDED_REPORTS[name]], out=out) == 1
        assert out.getvalue().encode("utf-8") == recording


@pytest.mark.parametrize("name", RECORDED_REPORTS)
def test_a_report_names_the_assignment_of_its_first_failing_trial(name):
    # The counterexample read from the refuting run is what
    # `random_assignment` draws for the first trial that evaluates nonzero.
    ctx = Ctx(scalars=("alpha", "beta", "lambda"), vectors=("x", "y", "z"))
    value = ctx.canon(RECORDED_REPORTS[name])
    plan = oracle._compile(value)
    trial = 0
    while True:
        got = eval_expr(value, random_assignment(plan.vectors, plan.scalars, 42, trial))
        if not (got.is_zero if plan.vector else got == 0):
            break
        trial += 1
    expected = random_assignment(plan.vectors, plan.scalars, 42, trial)
    assert check_identity(value, 100, 42).counterexample == expected
    recording = json.loads((DATA / f"oracle_report_{name}.json").read_text(encoding="utf-8"))
    assert recording["counterexample"] == expected.to_jsonable()


def test_a_refutation_stops_within_its_block(xy, monkeypatch):
    drawn = []
    draws = oracle._draws

    def counting_draws(dim, vector_count, scalar_count, seed, first, n):
        drawn.extend(range(first, first + n))
        return draws(dim, vector_count, scalar_count, seed, first, n)

    monkeypatch.setattr(oracle, "_draws", counting_draws)
    # An empty cache, so that the first run is drawn here and not read
    # from an earlier test.  The report reads its trial from that run: no
    # trial is drawn twice.
    oracle._cached_draws.cache_clear()
    report = check_identity(xy.canon("q(x) - q(y)"), 10_000)
    assert not report.passed
    assert drawn == list(range(oracle._RUN))


@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 64, oracle._RUN, 104, 128])
def test_block_run_agrees_with_one_trial_evaluation(n):
    # Each trial's value from one run of `n` trials, read from the run
    # cache as `check_identity` reads it, equals `eval_expr` on that
    # trial's assignment, for scalar and vector values, some with rational
    # coefficients.  A run of many trials holds the same values as runs of
    # one: each trial draws from its own generator.
    ctx = Ctx(scalars=("alpha", "beta"), vectors=("x", "y", "z"))
    rng = random.Random(400 + n)
    for case in range(12):
        value = canonicalize(random_raw(rng, ctx, depth=4), ctx.env)
        if case % 3 == 0:
            value = value * Fraction(rng.randint(1, 9), rng.randint(2, 9))
        plan = oracle._compile(value)
        seed = rng.randint(0, 10**6)
        shape = (PQ.dim, len(plan.vectors), len(plan.scalars), seed)
        vectors, scalars = oracle._cached_draws(*shape, 0, n)
        singles = [oracle._draws(*shape, trial, 1) for trial in range(n)]
        assert vectors == tuple(tuple(u for one, _ in singles for u in one[k])
                                for k in range(len(plan.vectors)))
        assert scalars == tuple(tuple(v for _, one in singles for v in one[k])
                                for k in range(len(plan.scalars)))
        columns = oracle._run(PQ, plan, vectors, scalars, n)
        assert len(columns) == (4 if plan.vector else 1)
        assert all(len(column) == n for column in columns)
        for trial in range(n):
            expected = eval_expr(value, random_assignment(plan.vectors, plan.scalars, seed, trial))
            got = [column[trial] for column in columns]
            assert got == (list(expected.components()) if plan.vector else [expected])


# Plans for the factor tree: a few atoms, so that monomials share
# prefixes; the constant monomial; exponents up to 3; integer and rational
# coefficients; scalar values and vector values of up to three words.
_X, _Y = Word.leaf("x", 0), Word.leaf("y", 1)
_XY = Word.pair(_X, _Y)
_TREE_ATOMS = sorted([Atom.symbol("alpha", 0), Atom.symbol("beta", 1), Atom.q(_X), Atom.q(_XY),
                      Atom.b(_X, _Y), Atom.b(_Y, _XY)], key=lambda atom: atom.key)
_tree_monos = st.lists(st.tuples(st.integers(0, len(_TREE_ATOMS) - 1), st.integers(1, 3)),
                       max_size=4).map(
    lambda entries: tuple(sorted({_TREE_ATOMS[r]: e for r, e in entries}.items(),
                                 key=lambda entry: entry[0].key)))
_tree_coeffs = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=6)).filter(bool)
_tree_scalars = st.dictionaries(_tree_monos, _tree_coeffs, min_size=1, max_size=12).map(ScalarExpr)
_tree_values = st.one_of(_tree_scalars, st.dictionaries(
    st.sampled_from((_X, _Y, _XY, Word.pair(_XY, _X))), _tree_scalars,
    min_size=1, max_size=3).map(VectorExpr))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(value=_tree_values, seed=st.integers(0, 2**32), n=st.sampled_from((1, 3, 32)),
       halved=st.booleans())
def test_factor_tree_agrees_with_a_plain_monomial_sum_property(value, seed, n, halved):
    # On int components, and on Fraction ones as `eval_expr` passes them.
    plan = oracle._compile(value)
    vectors, scalars = oracle._draws(PQ.dim, len(plan.vectors), len(plan.scalars), seed, 0, n)
    if halved:
        vectors = [[tuple(Fraction(c, 2) for c in u) for u in column] for column in vectors]
        scalars = [[Fraction(v, 2) for v in column] for column in scalars]
    assert oracle._run(PQ, plan, vectors, scalars, n) == \
        reference_run(value, plan.vectors, plan.scalars, vectors, scalars, n)


@pytest.mark.parametrize("text, alive", [
    ("alpha^2*b(x.y, y.x)", 0),  # a scalar value: its words only feed its atoms
    ("alpha^2*((x.y).(y.x))", 3),  # a vector value needs its unit word
])
def test_a_scalar_run_frees_its_word_columns_before_its_factor_trees(greek, text, alive):
    # A model whose products are weakly referable columns, and a scalar
    # column that counts the product columns still alive when the factor
    # phase raises it to a power, after every word and atom is built.
    class Column(list):
        pass

    class Probe(tuple):
        def __iter__(self):
            seen.append(sum(ref() is not None for ref in refs))
            return super().__iter__()

    def products(u, v):
        column = Column(PQ.products(u, v))
        refs.append(weakref.ref(column))
        return column

    refs, seen = [], []
    probe = oracle.Model(PQ.name, PQ.dim, PQ.table, products, PQ.squares, PQ.norms, PQ.polars)
    plan = oracle._compile(greek.canon(text))
    vectors, scalars = oracle._draws(PQ.dim, len(plan.vectors), len(plan.scalars), 42, 0, 10)
    columns = oracle._run(probe, plan, vectors, tuple(map(Probe, scalars)), 10)
    assert (len(refs), seen) == (len(plan.words) - 2, [alive])
    assert columns == oracle._run(PQ, plan, vectors, scalars, 10)


def test_a_factor_tree_multiplies_a_shared_prefix_once(greek):
    # alpha is the prefix of three monomials and one node of the tree; the
    # constant 2 is the unit's, outside the tree.
    plan = oracle._compile(greek.canon("alpha*q(x) + 3*alpha*b(x,y) - alpha*beta^2 + 2"))
    assert [factor for factor, _ in plan.factors] == [0, 1, 2, 3]
    ((slot, constant, tree),) = plan.units
    assert (slot, constant) == (None, 2)
    assert len(tree) == 4 and tree[-1] == [0, 0, 3]
    assert sorted(map(tuple, tree[:-1])) == [(1, 1, 0), (2, 3, 0), (3, -1, 0)]


# Nonzero only at alpha = 4 and only at beta = 7.  A check of one of them
# times q(x) reports the x of the trial that fails first, so a report
# tells that trial.  Under seed 42, alpha and beta first take 4 and 7
# together, with one vector drawn first, at trial 120: in the second run,
# of trials 100 .. 199, of a 200-trial check, which a 100-trial check
# does not make.
ALPHA_IS_4 = "alpha*(alpha^2-1)*(alpha^2-4)*(alpha^2-9)*(alpha^2-25)*(alpha^2-36)" \
             "*(alpha^2-49)*(alpha^2-64)*(alpha^2-81)*(alpha+4)"
BETA_IS_7 = "beta*(beta^2-1)*(beta^2-4)*(beta^2-9)*(beta^2-16)*(beta^2-25)" \
            "*(beta^2-36)*(beta^2-64)*(beta^2-81)*(beta+7)"


def test_a_default_check_is_one_run(xy):
    # `_RUN` is the default trial count, so a default check on an empty
    # cache draws one run and reads none.
    oracle._cached_draws.cache_clear()
    assert check_identity(xy.canon("q(x.y) - q(x)*q(y)")).passed
    info = oracle._cached_draws.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 0, 1)


def test_block_cache_keys_hold_seed_trial_count_and_shape(greek):
    # Checks that differ only in the number of vectors or of scalars, in
    # trial count (so in the length of the last run) or in seed,
    # interleaved, report what each reports on an empty cache.  The
    # smaller shape comes first: a trial of one more scalar starts with the
    # values of the smaller shape, so the smaller shape reading its run
    # would not show a key that lacks the scalar count.
    one = greek.canon(f"({ALPHA_IS_4})*q(x)")
    two_vectors = one * greek.canon("q(y)")
    two_scalars = one * greek.canon(BETA_IS_7)
    checks = [(one, 200, 42), (two_vectors, 200, 42),
              (two_scalars, 100, 42), (two_scalars, 200, 42), (two_scalars, 200, 43)]
    cold = []
    for check in checks:
        oracle._cached_draws.cache_clear()
        cold.append(check_identity(*check).to_json())
    assert [json.loads(report)["pass"] for report in cold] == [False, False, True, False, False]
    assert json.loads(cold[3])["counterexample"] == \
        random_assignment(["x"], ["alpha", "beta"], 42, 120).to_jsonable()
    oracle._cached_draws.cache_clear()
    for _ in range(2):
        assert [check_identity(*check).to_json() for check in checks] == cold


def test_a_cached_block_is_tuples_that_a_run_leaves_alone(greek):
    plan = oracle._compile(greek.canon("alpha*(x.y) - beta*q(x)*y"))
    key = (PQ.dim, len(plan.vectors), len(plan.scalars), 42, 0, oracle._RUN)
    run = oracle._cached_draws(*key)
    vectors, scalars = run
    assert isinstance(run, tuple) and isinstance(vectors, tuple) and isinstance(scalars, tuple)
    assert all(isinstance(column, tuple) for column in vectors + scalars)
    assert all(isinstance(value, tuple) for column in vectors for value in column)
    oracle._run(PQ, plan, vectors, scalars, oracle._RUN)
    assert oracle._cached_draws(*key) is run
    assert run == oracle._draws(*key)


def test_the_block_cache_keeps_only_narrow_shapes():
    # Up to 4 vectors and 4 scalars a check keeps its runs, one for 100
    # trials; one more of either and it keeps none, so the cache's bytes
    # stay bounded however wide a value is.  A failing check of each shape
    # reports the assignment of its first trial.
    ctx = Ctx(scalars=("alpha", "beta", "gamma", "delta", "eps"),
              vectors=("v0", "v1", "v2", "v3", "v4"))
    narrow = "q(v0.v1) - q(v0)*q(v1) + alpha*beta*gamma*delta*(b(v2,v3) - b(v3,v2))"
    for text, kept in [(narrow, 1), (narrow + " + q(v4.v0) - q(v4)*q(v0)", 0),
                       (narrow + " + eps*(b(v0,v1) - b(v1,v0))", 0)]:
        value = ctx.canon(text)
        oracle._cached_draws.cache_clear()
        assert check_identity(value, 100, 42).passed
        assert oracle._cached_draws.cache_info().currsize == kept
        failing = value + ctx.canon("q(v0)")
        plan = oracle._compile(failing)
        assert check_identity(failing, 100, 42).counterexample == \
            random_assignment(plan.vectors, plan.scalars, 42, 0)


def test_a_long_check_replays_its_recording():
    # 10,000 trials of the C9 main identity: 100 runs of 100 trials, more
    # than the 64 the cache holds.  So the second check misses every run,
    # as the first did, and draws it again.
    oracle._cached_draws.cache_clear()
    recording = (DATA / "oracle_c9_main_10000.json").read_bytes()
    for _ in range(2):
        out = io.StringIO()
        assert main(["oracle", "--json", "--seed", "42", "--trials", "10000",
                     str(DATA / "c9_main_identity.expr")], out=out) == 0
        assert out.getvalue().encode("utf-8") == recording
    info = oracle._cached_draws.cache_info()
    assert (info.misses, info.hits) == (200, 0)


def c9_identities():
    """The six identities of C9: session M's main identity on the locus
    beta = 1 - alpha, and its five residuals."""
    ctx = Ctx(scalars=("lambda", "mu", "alpha", "beta"), vectors=("x", "y"))
    s = ctx.canon("lambda*y + mu*x + alpha*(x.y) + beta*(y.x)")
    left = ctx.canon("(lambda^3 - 3*lambda*q(x) + b(x, x.x)) * (mu^3 - 3*mu*q(y) + b(y, y.y))")
    left = left - canonicalize(parser.parse_expr(
        "(lambda*mu + b(x,y))^3 - 3*(lambda*mu + b(x,y))*q(S) + b(S, S.S)"),
        Env(ctx.table, {"S": s}))
    right = ctx.canon(
        "(1 - alpha*beta)*(3*b(x.(x.y), x.(y.y) - (y.y).x)"
        " + (1 + beta)*b(x.y - y.x, (x.y - y.x).(x.y - y.x)))"
        " + 3*(1 - alpha*beta)*b(x.y - y.x,"
        " -lambda*((x.y).y) + mu*((y.x).x) + lambda*mu*(x.y))")
    main_identity = polyops.subst_raw(left - right, {"beta": parser.parse_expr("1 - alpha")},
                                      ctx.table)
    goldens = sessions.builtin_golden_loader()
    return [main_identity] + [ctx.canon(goldens(f"{name}_residual"))
                              for name in ("lambda", "mu", "alpha2", "alpha1", "alpha0")]


def test_c9_checks_draw_each_block_once():
    # Two runs of 100 trials each; the six identities take three shapes,
    # so they draw six runs and read the other six.
    identities = c9_identities()
    oracle._cached_draws.cache_clear()
    assert all(check_identity(value, 200, 42).passed for value in identities)
    info = oracle._cached_draws.cache_info()
    assert (info.misses, info.hits) == (6, 6)


def test_oracle_session_matches_recording():
    # Two checks of one shape, the second first failing at trial 51; one
    # value, `pair`, at 100 and at 200 trials; a passing identity.  The
    # later checks read the runs the earlier ones drew.  `pair` first fails
    # at trial 110, so it passes at 100 trials and at 200 its
    # counterexample comes from its second run, not its first.
    oracle._cached_draws.cache_clear()
    recording = (DATA / "oracle_blocks_seed42.json").read_bytes()
    for _ in range(2):
        out = io.StringIO()
        assert main(["run", "--json", "--seed", "42", str(DATA / "oracle_blocks.scs")],
                    out=out) == 1
        assert out.getvalue().encode("utf-8") == recording
    pair_at_100, pair_at_200 = json.loads(recording)["checkpoints"][2:4]
    assert pair_at_100["pass"]
    assert json.loads(pair_at_200["actual"]) == \
        random_assignment([], ["alpha", "beta"], 42, 110).to_jsonable()
