"""Exact-arithmetic para-quaternion model used to validate identities.

The model takes the rational quaternions and twists the product:
u * v := conj(u) conj(v), with q the reduced quaternion norm and
b(u, v) = q(u+v) - q(u) - q(v) its polar form.  This is a symmetric
composition algebra, so every axiom-derived rewrite rule must evaluate
to an exact identity here; a single nonzero evaluation refutes a claim.

Everything is exact, with no floating point.  The model arithmetic is
written once, on plain 4-tuples (``_product``, ``_norm``, ``_polar``).  A
checked value is compiled once into a plan: straight-line lists of slots
for its distinct words and atoms and of its units.  Each trial runs the
plan on plain int components; a rational coefficient makes its sum a
Fraction, and an `Assignment` (Fraction components) is evaluated by the
same plan.  ``ParaQuaternion`` is a value type only, for the vectors of an
`Assignment` and a vector result of ``eval_expr``: it has no arithmetic.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction

from .core import MAX_POWER, Expr, Word, is_vector
from .errors import ExprTypeError, MissingSymbol, Record, SymcompError, int_text
from .printer import print_expr

COMPONENT_RANGE = 9  # components drawn uniformly from [-9, 9]
MAX_TRIALS = 10_000  # the most trials `check_identity`, `--trials` and `oracle_check` accept
DEFAULT_TRIALS = 100  # trials when neither `--trials` nor `oracle_check` names a count
DEFAULT_SEED = 42  # seed when neither `--seed` nor $SYMCOMP_SEED gives one


class ParaQuaternion:
    """Four exact-rational components over the 1, i, j, k basis.  A value
    type with no arithmetic: the model's operations act on the tuple that
    `components` returns."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b=0, c=0, d=0):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.c = Fraction(c)
        self.d = Fraction(d)

    def __eq__(self, other):
        return (isinstance(other, ParaQuaternion)
                and (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d))

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

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


class _Plan(Record):
    """A canonical value compiled for evaluation: straight-line slot lists
    over its interned words and atoms, which are evaluated once per run
    however many units share them.

    - `vectors`, `scalars`: the symbol names, sorted; a name's index is its
      position in a trial's values.
    - `words`: per word slot, in post-order, (vector position, None) or
      (left slot, right slot).
    - `atoms`: per atom slot, (None, scalar position), (word slot, None)
      for q, or (word slot, word slot) for b.
    - `units`: (word slot or None, [(coeff, ((atom slot, exp), ...)), ...]).
    """

    __slots__ = ("vectors", "scalars", "words", "atoms", "units", "vector")


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

    # One shared (atom slot, exp) pair per distinct (atom, exp) entry: a
    # plan of thousands of monomials then holds few small objects.
    factor_of: dict = {}
    top = 0
    units = []
    for word, terms in e.by_word():
        monomials = []
        for mono, coeff in terms.items():
            factors = []
            for entry in mono:
                factor = factor_of.get(entry)
                if factor is None:
                    atom, exp = entry
                    factor = factor_of[entry] = (atom_slot(atom), exp)
                    top = max(top, exp)
                factors.append(factor)
            monomials.append((coeff, tuple(factors)))
        units.append((None if word is None else word_slot(word), monomials))
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
    return _Plan(vectors, scalars, words, atoms, units, is_vector(e))


def _run(plan: _Plan, vectors: list, scalars: list) -> tuple:
    """The value of a plan for the given vector 4-tuples and scalars, in
    plan position order: a 1-tuple for a scalar value, a 4-tuple for a
    vector.  Exact in whatever number type the inputs have."""
    wv = []
    for left, right in plan.words:
        wv.append(vectors[left] if right is None else _product(wv[left], wv[right]))
    av = []
    for left, right in plan.atoms:
        if left is None:
            av.append(scalars[right])
        elif right is None:
            av.append(_norm(wv[left]))
        else:
            av.append(_polar(wv[left], wv[right]))
    s0 = s1 = s2 = s3 = 0
    for slot, monomials in plan.units:
        total = 0
        for coeff, factors in monomials:
            value = 1
            for atom, exp in factors:
                value *= av[atom] ** exp
            total += coeff * value
        if slot is None:
            s0 += total
        else:
            w0, w1, w2, w3 = wv[slot]
            s0 += total * w0
            s1 += total * w1
            s2 += total * w2
            s3 += total * w3
    return (s0, s1, s2, s3) if plan.vector else (s0,)


def eval_expr(e: Expr, a: Assignment) -> int | Fraction | ParaQuaternion:
    """Homomorphic evaluation: dot -> para-Hurwitz product, q -> norm,
    b -> polar form; scalar expressions yield numbers, vector
    expressions yield para-quaternions."""
    plan = _compile(e)
    for kind, names, values in (("vector", plan.vectors, a.vectors),
                                ("scalar", plan.scalars, a.scalars)):
        for name in names:
            if name not in values:
                raise MissingSymbol(f"no value assigned to {kind} symbol {name!r}")
    value = _run(plan, [a.vectors[n].components() for n in plan.vectors],
                 [a.scalars[n] for n in plan.scalars])
    return ParaQuaternion(*value) if plan.vector else value[0]


def _trial_rng(seed: int, trial: int) -> random.Random:
    # Derivation is deterministic per (seed, trial), so trials could be
    # evaluated in parallel without changing the report.
    return random.Random(seed * 1_000_003 + trial)


# A component is `randint(-COMPONENT_RANGE, COMPONENT_RANGE)`, which
# CPython draws as -COMPONENT_RANGE plus `_DRAW_BITS` random bits, drawn
# again while they reach `_DRAW_WIDTH`; `_draw` does the same directly.
_DRAW_WIDTH = 2 * COMPONENT_RANGE + 1
_DRAW_BITS = _DRAW_WIDTH.bit_length()


def _draw(vector_count: int, scalar_count: int, seed: int, trial: int) -> tuple[list, list]:
    """The integer components of one trial: a 4-tuple per vector, then
    one number per scalar, in that order from the trial's generator; the
    values of `randint(-COMPONENT_RANGE, COMPONENT_RANGE)` at each draw."""
    getrandbits = _trial_rng(seed, trial).getrandbits
    values = []
    for _ in range(4 * vector_count + scalar_count):
        v = getrandbits(_DRAW_BITS)
        while v >= _DRAW_WIDTH:
            v = getrandbits(_DRAW_BITS)
        values.append(v - COMPONENT_RANGE)
    cut = 4 * vector_count
    return [tuple(values[k:k + 4]) for k in range(0, cut, 4)], values[cut:]


def random_assignment(vector_names, scalar_names, seed: int, trial: int) -> Assignment:
    vector_names = sorted(vector_names)
    scalar_names = sorted(scalar_names)
    vectors, scalars = _draw(len(vector_names), len(scalar_names), seed, trial)
    return Assignment({n: ParaQuaternion(*c) for n, c in zip(vector_names, vectors)},
                      {n: Fraction(v) for n, v in zip(scalar_names, scalars)})


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


def check_identity(e: Expr, trials: int = DEFAULT_TRIALS,
                   seed: int = DEFAULT_SEED) -> IdentityReport:
    """Evaluate e under pseudo-random assignments; pass iff every
    evaluation is exactly zero.  Identical seeds give identical reports.
    `trials` must lie in 1..MAX_TRIALS."""
    if not 1 <= trials <= MAX_TRIALS:
        raise SymcompError(f"trials must be between 1 and {MAX_TRIALS}, got {trials}")
    counterexample = _counterexample(e, trials, seed)
    return IdentityReport(print_expr(e), trials, counterexample is None, counterexample)


def _counterexample(e: Expr, trials: int, seed: int) -> Assignment | None:
    """The assignment of the first trial on which `e` is nonzero, or None.
    The plan is compiled once and freed before the caller prints `e`."""
    plan = _compile(e)
    for trial in range(trials):
        vectors, scalars = _draw(len(plan.vectors), len(plan.scalars), seed, trial)
        if any(_run(plan, vectors, scalars)):
            return random_assignment(plan.vectors, plan.scalars, seed, trial)
    return None
