"""Exact-arithmetic para-quaternion model used to validate identities.

The model takes the rational quaternions and twists the product:
u * v := conj(u) conj(v), with q the reduced quaternion norm and
b(u, v) = q(u+v) - q(u) - q(v) its polar form.  This is a symmetric
composition algebra, so every axiom-derived rewrite rule must evaluate
to an exact identity here; a single nonzero evaluation refutes a claim.

Everything is exact, with no floating point.  The model arithmetic is
written once, on plain 4-tuples (``_product``, ``_norm``, ``_polar``).  A
checked value is compiled once into a plan: straight-line lists of slots
for its distinct words, atoms and (atom, exponent) factors, and for each
unit a factor tree that holds its monomials by their shared prefixes, so
a prefix common to many monomials is multiplied once (a multivariate
Horner scheme).  ``check_identity`` runs trials `_RUN` (100) at a
time: ``_draws`` draws each trial once, from the trial's own generator,
into the run's columns of plain int components, and ``_run`` computes
each slot and each tree node as one column over the run's trials.  A
rational coefficient makes a sum a Fraction.  A refuted check reads its
counterexample from the run that refuted it.

A run is drawn once per process for each (shape, seed, first trial,
length): ``_cached_draws`` keeps it in a bounded cache of `_CACHED_RUNS`
(64) runs, and every later check of that shape under that seed reads
it.  Only shapes of up to `_CACHED_SHAPE` (4) vectors and as many
scalars are kept, so the cache holds at most 2.3 MB; a wider check
calls ``_draws`` for each run and keeps nothing.  ``random_assignment``
calls ``_draws`` for its one trial and keeps nothing either.

``eval_expr`` evaluates the same plan as a run of one trial on the
Fraction components of an `Assignment`.  ``ParaQuaternion`` is a value
type only, a `Record` for the vectors of an `Assignment` and a vector
result of ``eval_expr``: it has no arithmetic.  A scalar or a component
given to either must pass ``core.is_exact``, and a trial count
``check_trials``.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import add, mul

from .core import MAX_POWER, Expr, Word, is_exact, is_int, is_vector, require
from .errors import ExprTypeError, MissingSymbol, Record, SymcompError, _set, int_text
from .printer import print_expr

COMPONENT_RANGE = 9  # components drawn uniformly from [-9, 9]
MAX_TRIALS = 10_000  # the most trials `check_identity`, `--trials` and `oracle_check` accept
DEFAULT_TRIALS = 100  # trials when neither `--trials` nor `oracle_check` names a count
DEFAULT_SEED = 42  # seed when neither `--seed` nor $SYMCOMP_SEED gives one
_RUN = DEFAULT_TRIALS  # trials per run of `check_identity`, so a default check is one run


class ParaQuaternion(Record):
    """Four exact-rational components over the 1, i, j, k basis, kept as
    Fractions.  A value type with no arithmetic: the model's operations act
    on the tuple that `components` returns.  A component must pass
    `core.is_exact`; a float would carry its binary fraction into the
    exact model.  The one record that writes its own constructor, to
    check and convert its components."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b=0, c=0, d=0):
        for name, value in zip(self._fields, (a, b, c, d)):
            if not is_exact(value):
                raise SymcompError(
                    f"a ParaQuaternion component must be an int or a Fraction, got {value!r}")
            _set(self, name, Fraction(value))

    @property
    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    def components(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)

    def __repr__(self):
        return f"ParaQuaternion({self.a}, {self.b}, {self.c}, {self.d})"


# The model arithmetic, on 4-tuples of exact numbers of any one kind:
# ints in a trial, Fractions for an `Assignment`.

def _product(u: tuple, v: tuple) -> tuple:
    """The para-Hurwitz product conj(u) conj(v), written out."""
    a1, b1, c1, d1 = u
    a2, b2, c2, d2 = v
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            c1 * d2 - d1 * c2 - a1 * b2 - b1 * a2,
            d1 * b2 - b1 * d2 - a1 * c2 - c1 * a2,
            b1 * c2 - c1 * b2 - a1 * d2 - d1 * a2)


def _norm(u: tuple):
    a, b, c, d = u
    return a * a + b * b + c * c + d * d


def _polar(u: tuple, v: tuple):
    """Polar form of the norm: q(u+v) - q(u) - q(v)."""
    a1, b1, c1, d1 = u
    a2, b2, c2, d2 = v
    return 2 * (a1 * a2 + b1 * b2 + c1 * c2 + d1 * d2)


class Assignment(Record):
    """Values for every symbol used by the expression under evaluation."""

    __slots__ = ("vectors", "scalars")

    def to_jsonable(self) -> dict:
        return {
            "vectors": {n: [str(c) for c in pq.components()]
                        for n, pq in sorted(self.vectors.items())},
            "scalars": {n: str(v) for n, v in sorted(self.scalars.items())},
        }

    def to_json(self) -> str:
        """One line of JSON, as a report shows a counterexample."""
        return json.dumps(self.to_jsonable())


class _Plan(Record):
    """A canonical value compiled for evaluation: straight-line slot lists
    over its interned words and atoms, which are evaluated once per run
    however many units share them, and a factor tree per unit.

    - `vectors`, `scalars`: the symbol names, sorted; a name's index is its
      position in a trial's values.
    - `words`: per word slot, in post-order, (vector position, None) or
      (left slot, right slot).
    - `atoms`: per atom slot, (None, scalar position), (word slot, None)
      for q, or (word slot, word slot) for b.
    - `factors`: per factor slot, (atom slot, exp), one for each distinct
      (atom, exp) entry of the monomials.
    - `units`: (word slot or None, constant coefficient, tree), each with
      at least one monomial.  The tree holds the unit's monomials by their
      shared prefixes of factor slots: a node is a prefix, and its value
      is its last factor times (its coefficient, 0 if no monomial ends
      there, plus its children's values).  `tree` lists the nodes below
      the root in post-order, each [factor slot, coefficient, child
      count], so each node's children come just before it; the unit's
      value is its constant plus the values of the root's children.
    """

    __slots__ = ("vectors", "scalars", "words", "atoms", "factors", "units", "vector")


def _compile(e: Expr) -> _Plan:
    """One walk over the units of `e`.  Raises ExprTypeError if an exponent
    exceeds `core.MAX_POWER`: a run raises each atom's exact value to its
    exponent, so q(x)^99999999999999999999 would never finish."""
    word_slots: dict = {}
    words: list = []
    atom_slots: dict = {}
    atoms: list = []

    def word_slot(w: Word) -> int:
        slot = word_slots.get(w)
        if slot is None:
            op = (w.name, None) if w.is_leaf else (word_slot(w.left), word_slot(w.right))
            slot = word_slots[w] = len(words)
            words.append(op)
        return slot

    def atom_slot(atom) -> int:
        slot = atom_slots.get(atom)
        if slot is None:
            if atom.is_symbol:
                op = (None, atom.name)
            else:
                op = (word_slot(atom.w1), None if atom.is_q else word_slot(atom.w2))
            slot = atom_slots[atom] = len(atoms)
            atoms.append(op)
        return slot

    # One factor slot per distinct (atom, exp) entry: a run raises an atom
    # to a power once, however many monomials share the entry.
    factor_slots: dict = {}
    factors: list = []
    top = 0
    units = []
    for word, terms in e.by_word():
        if not terms:
            continue  # the zero scalar's one unit
        # A node is [factor slot, coefficient, {entry: child node}].
        # Entries come in atom-key order, so monomials that share atoms
        # share a prefix.
        root = [None, 0, {}]
        for mono, coeff in terms.items():
            node = root
            for entry in mono:
                children = node[2]
                child = children.get(entry)
                if child is None:
                    slot = factor_slots.get(entry)
                    if slot is None:
                        atom, exp = entry
                        slot = factor_slots[entry] = len(factors)
                        factors.append((atom_slot(atom), exp))
                        top = max(top, exp)
                    child = children[entry] = [slot, 0, {}]
                node = child
            node[1] = coeff
        # Reversing a pre-order that visits the children last to first
        # gives a post-order; each node keeps only its child count.
        tree = []
        stack = list(root[2].values())
        while stack:
            node = stack.pop()
            children = node[2]
            node[2] = len(children)
            stack.extend(children.values())
            tree.append(node)
        tree.reverse()
        units.append((None if word is None else word_slot(word), root[1], tree))
    if top > MAX_POWER:
        raise ExprTypeError(f"exponent {int_text(top)} exceeds the oracle's bound {MAX_POWER}")

    vectors = sorted(name for name, right in words if right is None)
    scalars = sorted(name for left, name in atoms if left is None)
    vector_at = {name: i for i, name in enumerate(vectors)}
    scalar_at = {name: i for i, name in enumerate(scalars)}
    words = [(vector_at[left], None) if right is None else (left, right)
             for left, right in words]
    atoms = [(None, scalar_at[right]) if left is None else (left, right)
             for left, right in atoms]
    return _Plan(vectors, scalars, words, atoms, factors, units, is_vector(e))


def _run(plan: _Plan, vectors: list, scalars: list, n: int) -> list:
    """The value of a plan on `n` trials at once.  `vectors` holds one
    column per vector position (the trials' 4-tuples, in trial order) and
    `scalars` one per scalar position; `n` is given because a constant
    plan has no columns.  Every word, atom and (atom, exp) factor slot is
    one column, computed once however many units share it.  A unit's
    factor tree runs in post-order on a stack of columns: a node takes its
    children's columns off the stack, sums them with its coefficient and
    multiplies the sum by its factor's column, once for all the monomials
    that share its prefix; a leaf with coefficient 1 is its factor's
    column.  The units sum column by column.  Returns the value's
    component columns: one for a scalar value, four for a vector.  Exact
    in whatever number type the inputs have."""
    wv = []
    for left, right in plan.words:
        wv.append(vectors[left] if right is None else list(map(_product, wv[left], wv[right])))
    av = []
    for left, right in plan.atoms:
        if left is None:
            av.append(scalars[right])
        elif right is None:
            av.append(list(map(_norm, wv[left])))
        else:
            av.append(list(map(_polar, wv[left], wv[right])))
    fv = [av[atom] if exp == 1 else [v ** exp for v in av[atom]]
          for atom, exp in plan.factors]
    # The stack holds the pending columns along one path of a tree, and
    # running totals sum the units, so the memory of a run stays near its
    # slot columns however many monomials and units the plan has.
    sums = [[0] * n for _ in range(4 if plan.vector else 1)]
    for slot, constant, tree in plan.units:
        stack = []
        for factor, coeff, count in tree:
            if count == 0:
                # A leaf is consumed once, by its parent, so it may stay lazy.
                stack.append(fv[factor] if coeff == 1 else map(mul, fv[factor], repeat(coeff, n)))
                continue
            if count == 1 and not coeff:
                inner = stack.pop()
            else:
                inner = map(sum, zip(*stack[-count:]), repeat(coeff, n))
                del stack[-count:]
            stack.append(list(map(mul, fv[factor], inner)))
        total = list(map(sum, zip(*stack), repeat(constant, n))) if stack else [constant] * n
        if slot is None:
            sums[0] = list(map(add, sums[0], total))
        else:
            for k, component in enumerate(zip(*wv[slot])):
                sums[k] = list(map(add, sums[k], map(mul, total, component)))
    return sums


def eval_expr(e: Expr, a: Assignment) -> int | Fraction | ParaQuaternion:
    """Homomorphic evaluation: dot -> para-Hurwitz product, q -> norm,
    b -> polar form; scalar expressions yield numbers, vector
    expressions yield para-quaternions.  The plan is evaluated as a run
    of one trial.  A vector symbol must hold a ParaQuaternion and a scalar
    symbol an int or a Fraction; a float would carry its binary fraction
    into the exact value."""
    require(e, Expr, "eval_expr argument e must be an Expr")
    require(a, Assignment, "eval_expr argument a must be an Assignment")
    require(a.vectors, dict, "eval_expr argument a.vectors must be a dict")
    require(a.scalars, dict, "eval_expr argument a.scalars must be a dict")
    plan = _compile(e)
    for kind, names, values, valid, wanted in (
            ("vector", plan.vectors, a.vectors, lambda v: isinstance(v, ParaQuaternion),
             "a ParaQuaternion"),
            ("scalar", plan.scalars, a.scalars, is_exact, "an int or a Fraction")):
        for name in names:
            if name not in values:
                raise MissingSymbol(f"no value assigned to {kind} symbol {name!r}")
            if not valid(values[name]):
                raise SymcompError(f"{kind} symbol {name!r} must be {wanted}, "
                                   f"got {values[name]!r}")
    columns = _run(plan, [(a.vectors[n].components(),) for n in plan.vectors],
                   [(a.scalars[n],) for n in plan.scalars], 1)
    value = [column[0] for column in columns]
    return ParaQuaternion(*value) if plan.vector else value[0]


# A component is `randint(-COMPONENT_RANGE, COMPONENT_RANGE)`, which
# CPython draws as -COMPONENT_RANGE plus `_DRAW_BITS` random bits, drawn
# again while they reach `_DRAW_WIDTH`; `_draws` does the same directly.
# It takes the value from `_VALUES`, so the runs that `_cached_draws` keeps
# share one object for each of -9 .. -6 (CPython shares only -5 .. 256).
_DRAW_WIDTH = 2 * COMPONENT_RANGE + 1
_DRAW_BITS = _DRAW_WIDTH.bit_length()
_VALUES = tuple(range(-COMPONENT_RANGE, COMPONENT_RANGE + 1))


def _draws(vector_count: int, scalar_count: int, seed: int, first: int,
           n: int) -> tuple[tuple, tuple]:
    """The int components of trials `first` .. `first + n - 1` under `seed`,
    laid out for `_run`: a column per vector position (the trials'
    4-tuples) and one per scalar position, tuples at every level.  Each
    trial draws once, from its own `random.Random(seed * 1_000_003 +
    trial)`: 4 values per vector, then 1 per scalar, each the value of
    `randint(-COMPONENT_RANGE, COMPONENT_RANGE)` at that draw."""
    vectors = [[] for _ in range(vector_count)]
    scalars = [[] for _ in range(scalar_count)]
    cut = 4 * vector_count
    for trial in range(first, first + n):
        getrandbits = random.Random(seed * 1_000_003 + trial).getrandbits
        values = []
        for _ in range(cut + scalar_count):
            v = getrandbits(_DRAW_BITS)
            while v >= _DRAW_WIDTH:
                v = getrandbits(_DRAW_BITS)
            values.append(_VALUES[v])
        for k, column in enumerate(vectors):
            column.append(tuple(values[4 * k:4 * k + 4]))
        for column, value in zip(scalars, values[cut:]):
            column.append(value)
    return tuple(map(tuple, vectors)), tuple(map(tuple, scalars))


def _assignment(vector_names, scalar_names, vectors, scalars, offset: int) -> Assignment:
    """The assignment of the trial at `offset` in columns laid out as
    `_draws` lays them out, each column named by its sorted name."""
    return Assignment({n: ParaQuaternion(*c[offset]) for n, c in zip(vector_names, vectors)},
                      {n: Fraction(c[offset]) for n, c in zip(scalar_names, scalars)})


def random_assignment(vector_names, scalar_names, seed: int, trial: int) -> Assignment:
    """The assignment of trial `trial` under `seed`, as `check_identity`
    draws it; `seed` and `trial` must be ints."""
    _check_int("seed", seed)
    _check_int("trial", trial)
    vector_names = sorted(vector_names)
    scalar_names = sorted(scalar_names)
    vectors, scalars = _draws(len(vector_names), len(scalar_names), seed, trial, 1)
    return _assignment(vector_names, scalar_names, vectors, scalars, 0)


class IdentityReport(Record):
    __slots__ = ("identity", "trials", "passed", "counterexample")

    def to_jsonable(self) -> dict:
        return {
            "identity": self.identity,
            "trials": self.trials,
            "pass": self.passed,
            "counterexample":
                self.counterexample.to_jsonable() if self.counterexample else None,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=2)

    def lines(self) -> list[str]:
        """The text form: the status line, then on a failure the
        counterexample."""
        out = [f"{'pass' if self.passed else 'FAIL'}: {self.identity} on {self.trials} trials"]
        if not self.passed:
            out.append(f"counterexample: {self.counterexample.to_json()}")
        return out


def check_trials(trials) -> None:
    """Raise SymcompError unless `trials` is an int in 1..MAX_TRIALS: the
    one check of a trial count, from `check_identity`, `--trials` or a
    script's `oracle_check NAME, trials=N`."""
    if not (is_int(trials) and 1 <= trials <= MAX_TRIALS):
        shown = int_text(trials) if is_int(trials) else repr(trials)
        raise SymcompError(f"trials must be between 1 and {MAX_TRIALS}, got {shown}")


def _check_int(what: str, value) -> None:
    """Raise SymcompError unless `value`, the argument `what`, is an int."""
    if not is_int(value):
        raise SymcompError(f"{what} must be an integer, got {value!r}")


def check_identity(e: Expr, trials: int = DEFAULT_TRIALS,
                   seed: int = DEFAULT_SEED) -> IdentityReport:
    """Evaluate e under pseudo-random assignments; pass iff every
    evaluation is exactly zero.  Identical seeds give identical reports.
    `trials` must pass `check_trials` and `seed` must be an int."""
    require(e, Expr, "check_identity argument e must be an Expr")
    check_trials(trials)
    _check_int("seed", seed)
    counterexample = _counterexample(e, trials, seed)
    return IdentityReport(print_expr(e), trials, counterexample is None, counterexample)


def _counterexample(e: Expr, trials: int, seed: int) -> Assignment | None:
    """The assignment of the first trial on which `e` is nonzero, or None.
    Trials run `_RUN` (100) at a time, the last run cut at `trials`, so a
    default check is one run and a run's fixed cost is paid once per 100
    trials.  A refuted check stops at the end of the run that refuted it
    and reads the assignment from that run.  Each run is one
    ``_cached_draws`` call, or one ``_draws`` call for a shape wider than
    `_CACHED_SHAPE` vectors or scalars.  The plan is compiled once and
    freed before the caller prints `e`."""
    plan = _compile(e)
    vector_count, scalar_count = len(plan.vectors), len(plan.scalars)
    draw = _cached_draws if max(vector_count, scalar_count) <= _CACHED_SHAPE else _draws
    for first in range(0, trials, _RUN):
        n = min(_RUN, trials - first)
        vectors, scalars = draw(vector_count, scalar_count, seed, first, n)
        for offset, value in enumerate(zip(*_run(plan, vectors, scalars, n))):
            if any(value):
                return _assignment(plan.vectors, plan.scalars, vectors, scalars, offset)
    return None


# Runs of trial components kept per process.  Every check of one shape
# under one seed draws the same runs: the six 200-trial C9 checks ask for
# 12 runs (two of 100 trials each), of which 6 are distinct, so the cache
# misses 6 times and hits 6 times.  A 10,000-trial check needs 100 runs,
# more than the cache holds, so run again it misses every run and pays
# what drawing it cost without the cache.  Only shapes of up to
# `_CACHED_SHAPE` vectors and as many scalars are kept, so the cache's
# bytes stay bounded however wide a checked value is.
_CACHED_RUNS = 64
_CACHED_SHAPE = 4


@lru_cache(maxsize=_CACHED_RUNS)
def _cached_draws(vector_count: int, scalar_count: int, seed: int, first: int,
                  n: int) -> tuple[tuple, tuple]:
    """``_draws`` of trials `first` .. `first + n - 1` under `seed`, kept in
    a bounded cache: a run is drawn once per process, and every later
    check of the same shape, seed and run reads it.  Every level is a
    tuple, so no check can alter a run that another check reads.  A full
    cache of 100-trial runs of the widest shape kept, 4 vectors and 4
    scalars, holds 2.3 MB with its keys (64-bit CPython 3.11, by
    tracemalloc)."""
    return _draws(vector_count, scalar_count, seed, first, n)
