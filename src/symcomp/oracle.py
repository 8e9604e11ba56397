"""Exact-arithmetic para-quaternion model used to validate identities.

The model takes the rational quaternions and twists the product:
u * v := conj(u) conj(v), with q the reduced quaternion norm and
b(u, v) = q(u+v) - q(u) - q(v) its polar form.  This is a symmetric
composition algebra, so every axiom-derived rewrite rule must evaluate
to an exact identity here; a single nonzero evaluation refutes a claim.

Everything is exact: components are Fractions, no floating point.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    MAX_POWER,
    Expr,
    ScalarExpr,
    Word,
    is_scalar,
    scalar_symbols_of,
    units,
    vector_symbols_of,
)
from .errors import ExprTypeError, MissingSymbol, SymcompError
from .printer import print_expr

_ZERO = Fraction(0)
COMPONENT_RANGE = 9  # components drawn uniformly from [-9, 9]
MAX_TRIALS = 10_000  # the most trials `check_identity`, `--trials` and `oracle_check` accept
DEFAULT_TRIALS = 100  # trials when neither `--trials` nor `oracle_check` names a count
DEFAULT_SEED = 42  # seed when neither `--seed` nor $SYMCOMP_SEED gives one


class ParaQuaternion:
    """Four exact-rational components over the 1, i, j, k basis."""

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

    def __add__(self, other):
        return ParaQuaternion(self.a + other.a, self.b + other.b,
                              self.c + other.c, self.d + other.d)

    def __sub__(self, other):
        return ParaQuaternion(self.a - other.a, self.b - other.b,
                              self.c - other.c, self.d - other.d)

    def __neg__(self):
        return ParaQuaternion(-self.a, -self.b, -self.c, -self.d)

    def scaled(self, factor: Fraction) -> "ParaQuaternion":
        return ParaQuaternion(self.a * factor, self.b * factor,
                              self.c * factor, self.d * factor)

    @property
    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    def components(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)

    def __repr__(self):
        return f"ParaQuaternion({self.a}, {self.b}, {self.c}, {self.d})"


PQ_ZERO = ParaQuaternion(0)
PQ_ONE = ParaQuaternion(1)
PQ_I = ParaQuaternion(0, 1)
PQ_J = ParaQuaternion(0, 0, 1)
PQ_K = ParaQuaternion(0, 0, 0, 1)


def _conj(u: ParaQuaternion) -> ParaQuaternion:
    return ParaQuaternion(u.a, -u.b, -u.c, -u.d)


def _hamilton(u: ParaQuaternion, v: ParaQuaternion) -> ParaQuaternion:
    return ParaQuaternion(
        u.a * v.a - u.b * v.b - u.c * v.c - u.d * v.d,
        u.a * v.b + u.b * v.a + u.c * v.d - u.d * v.c,
        u.a * v.c - u.b * v.d + u.c * v.a + u.d * v.b,
        u.a * v.d + u.b * v.c - u.c * v.b + u.d * v.a,
    )


def pq_mul(u: ParaQuaternion, v: ParaQuaternion) -> ParaQuaternion:
    """The para-Hurwitz product conj(u) conj(v)."""
    return _hamilton(_conj(u), _conj(v))


def pq_norm(u: ParaQuaternion) -> Fraction:
    return u.a * u.a + u.b * u.b + u.c * u.c + u.d * u.d


def pq_bilinear(u: ParaQuaternion, v: ParaQuaternion) -> Fraction:
    """Polar form of the norm: q(u+v) - q(u) - q(v)."""
    return 2 * (u.a * v.a + u.b * v.b + u.c * v.c + u.d * v.d)


@dataclass(frozen=True)
class Assignment:
    """Values for every symbol used by the expression under evaluation."""

    vectors: dict[str, ParaQuaternion]
    scalars: dict[str, Fraction]

    def to_jsonable(self) -> dict:
        return {
            "vectors": {n: [str(c) for c in pq.components()]
                        for n, pq in sorted(self.vectors.items())},
            "scalars": {n: str(v) for n, v in sorted(self.scalars.items())},
        }


def _eval_word(w: Word, a: Assignment, memo: dict) -> ParaQuaternion:
    cached = memo.get(w)
    if cached is not None:
        return cached
    if w.is_leaf:
        try:
            value = a.vectors[w.name]
        except KeyError:
            raise MissingSymbol(f"no value assigned to vector symbol {w.name!r}") from None
    else:
        value = pq_mul(_eval_word(w.left, a, memo), _eval_word(w.right, a, memo))
    memo[w] = value
    return value


def _eval_scalar(e: ScalarExpr, a: Assignment, memo: dict) -> Fraction:
    total = _ZERO
    for mono, coeff in e.terms.items():
        acc = coeff
        for atom, exp in mono:
            if atom.is_symbol:
                try:
                    value = a.scalars[atom.name]
                except KeyError:
                    raise MissingSymbol(
                        f"no value assigned to scalar symbol {atom.name!r}") from None
            elif atom.is_q:
                value = pq_norm(_eval_word(atom.w1, a, memo))
            else:
                value = pq_bilinear(_eval_word(atom.w1, a, memo),
                                    _eval_word(atom.w2, a, memo))
            acc *= value ** exp
        total += acc
    return total


def eval_expr(e: Expr, a: Assignment) -> Fraction | ParaQuaternion:
    """Homomorphic evaluation: dot -> para-Hurwitz product, q -> norm,
    b -> polar form; scalar expressions yield Fractions, vector
    expressions yield para-quaternions."""
    memo: dict = {}
    if is_scalar(e):
        return _eval_scalar(e, a, memo)
    total = PQ_ZERO
    for word, coeff in e.terms.items():
        total = total + _eval_word(word, a, memo).scaled(_eval_scalar(coeff, a, memo))
    return total


def _trial_rng(seed: int, trial: int) -> random.Random:
    # Derivation is deterministic per (seed, trial), so trials could be
    # evaluated in parallel without changing the report.
    return random.Random(seed * 1_000_003 + trial)


def random_assignment(vector_names, scalar_names, seed: int, trial: int) -> Assignment:
    rng = _trial_rng(seed, trial)
    r = COMPONENT_RANGE
    vectors = {
        name: ParaQuaternion(*(rng.randint(-r, r) for _ in range(4)))
        for name in sorted(vector_names)
    }
    scalars = {name: Fraction(rng.randint(-r, r)) for name in sorted(scalar_names)}
    return Assignment(vectors, scalars)


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    trials: int
    passed: bool
    counterexample: Assignment | None

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


def _check_exponents(e: Expr) -> None:
    """Raise ExprTypeError if a monomial exponent of `e` exceeds
    `core.MAX_POWER`: a trial raises each atom's exact value to its
    exponent, so q(x)^99999999999999999999 would never finish."""
    top = max((exp for _, mono, _ in units(e) for _, exp in mono), default=0)
    if top > MAX_POWER:
        raise ExprTypeError(f"exponent {top} exceeds the oracle's bound {MAX_POWER}")


def check_identity(e: Expr, trials: int = DEFAULT_TRIALS,
                   seed: int = DEFAULT_SEED) -> IdentityReport:
    """Evaluate e under pseudo-random assignments; pass iff every
    evaluation is exactly zero.  Identical seeds give identical reports.
    `trials` must lie in 1..MAX_TRIALS."""
    if not 1 <= trials <= MAX_TRIALS:
        raise SymcompError(f"trials must be between 1 and {MAX_TRIALS}, got {trials}")
    _check_exponents(e)
    vector_names = sorted(vector_symbols_of(e))
    scalar_names = sorted(scalar_symbols_of(e))
    for trial in range(trials):
        a = random_assignment(vector_names, scalar_names, seed, trial)
        value = eval_expr(e, a)
        zero = (value == 0) if isinstance(value, Fraction) else value.is_zero
        if not zero:
            return IdentityReport(print_expr(e), trials, False, a)
    return IdentityReport(print_expr(e), trials, True, None)
