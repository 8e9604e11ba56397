"""Shared test utilities: contexts, random expression generation, the
para-quaternion arithmetic written by hand (the reference that the
oracle's generated kernels are checked against), and an independent
recursive evaluator for raw parse trees (the second route for
cross-checking canonicalization)."""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import symcomp.rawexpr as rx
from symcomp import (
    Env,
    ParaQuaternion,
    ScalarExpr,
    SymbolTable,
    VectorExpr,
    b_of,
    canonicalize,
    dot,
    parse_expr,
    q_of,
)
from symcomp.core import is_vector, units
from symcomp.errors import EngineError
from symcomp.oracle import Assignment
from symcomp.rules import instantiate_sides


class Ctx:
    """A symbol table plus parsing/canonicalization shortcuts."""

    def __init__(self, scalars=(), vectors=("x", "y")):
        self.table = SymbolTable()
        for name in scalars:
            self.table.declare_scalar(name)
        for name in vectors:
            self.table.declare_vector(name)
        self.scalars = tuple(scalars)
        self.vectors = tuple(vectors)

    @property
    def env(self) -> Env:
        return Env(self.table)

    def canon(self, text: str):
        return canonicalize(parse_expr(text), self.env)

    def word(self, text: str):
        value = self.canon(text)
        (w,) = value.terms
        return w

    def mono(self, text: str):
        value = self.canon(text)
        (m,) = value.terms
        return m


def greek_ctx() -> Ctx:
    return Ctx(scalars=("alpha", "beta", "lambda", "mu"), vectors=("x", "y"))


# The words of the scaling family: the benchmark's `rewrite-scale` words
# at its default seed 14.
SCALING_WORDS = ("x", "y", "z", "x.y", "y.x", "x.z", "y.z", "z.x", "y.y", "z.y")


def scaling_source(k: int, template: str = "b(S, S.S) - 3*q(S)*b(S,S)") -> str:
    """The text of the template with S a sum of k generic terms a_i*w_i,
    for k up to 10."""
    s = " + ".join(f"a{i}*({w})" for i, w in enumerate(SCALING_WORDS[:k]))
    return template.replace("S", f"({s})")


def scaling_family(k: int, template: str = "b(S, S.S) - 3*q(S)*b(S,S)"):
    """The context and canonical value of `scaling_source(k, template)`."""
    ctx = Ctx(scalars=tuple(f"a{i}" for i in range(k)), vectors=("x", "y", "z"))
    return ctx, ctx.canon(scaling_source(k, template))


def stores_no_zero(e) -> bool:
    """Whether a canonical value stores no zero coefficient and no empty
    vector coefficient, the invariant every canonical value keeps."""
    if isinstance(e, VectorExpr):
        return all(c.terms and stores_no_zero(c) for c in e.terms.values())
    return all(c != 0 for c in e.terms.values())


# --- cubic-composition constructions ------------------------------------------
# Built with the operator API (dot, q_of, b_of, +, *, **), so comparing them
# with parsed text checks that API against canonicalization.


def cubic_form(v: VectorExpr) -> ScalarExpr:
    """The cubic scalar b(v, v.v)."""
    return b_of(v, dot(v, v))


def commutator(u: VectorExpr, v: VectorExpr) -> VectorExpr:
    return dot(u, v) - dot(v, u)


@dataclass(frozen=True)
class CubicElement:
    """An element of the cubic composition built on scalars plus vectors."""

    scalar_part: ScalarExpr
    vector_part: VectorExpr


def cubic_norm(e: CubicElement) -> ScalarExpr:
    """Norm of a cubic element: s^3 - 3 s q(v) + b(v, v.v)."""
    s, v = e.scalar_part, e.vector_part
    return s ** 3 - 3 * (s * q_of(v)) + cubic_form(v)


# --- random raw expressions ---------------------------------------------------


def random_vector_raw(rng: random.Random, ctx: Ctx, depth: int) -> rx.RawExpr:
    if depth <= 0:
        return rx.Ident(rng.choice(ctx.vectors))
    pick = rng.random()
    if pick < 0.35:
        return rx.Ident(rng.choice(ctx.vectors))
    if pick < 0.60:
        return rx.Dot(random_vector_raw(rng, ctx, depth - 1),
                      random_vector_raw(rng, ctx, depth - 1))
    if pick < 0.75:
        return rx.Sum((random_vector_raw(rng, ctx, depth - 1),
                       random_vector_raw(rng, ctx, depth - 1)))
    if pick < 0.90:
        return rx.Mul((random_scalar_raw(rng, ctx, depth - 1),
                       random_vector_raw(rng, ctx, depth - 1)))
    return rx.Neg(random_vector_raw(rng, ctx, depth - 1))


def random_scalar_raw(rng: random.Random, ctx: Ctx, depth: int) -> rx.RawExpr:
    if depth <= 0:
        if ctx.scalars and rng.random() < 0.5:
            return rx.Ident(rng.choice(ctx.scalars))
        return rx.Num(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    pick = rng.random()
    if pick < 0.20:
        return rx.Q(random_vector_raw(rng, ctx, depth - 1))
    if pick < 0.40:
        return rx.B(random_vector_raw(rng, ctx, depth - 1),
                    random_vector_raw(rng, ctx, depth - 1))
    if pick < 0.60:
        return rx.Sum((random_scalar_raw(rng, ctx, depth - 1),
                       random_scalar_raw(rng, ctx, depth - 1)))
    if pick < 0.75:
        return rx.Mul((random_scalar_raw(rng, ctx, depth - 1),
                       random_scalar_raw(rng, ctx, depth - 1)))
    if pick < 0.85:
        return rx.Pow(random_scalar_raw(rng, ctx, depth - 1), rng.randint(2, 3))
    if pick < 0.95 and ctx.scalars:
        return rx.Ident(rng.choice(ctx.scalars))
    return rx.Neg(random_scalar_raw(rng, ctx, depth - 1))


def random_raw(rng: random.Random, ctx: Ctx, depth: int = 3) -> rx.RawExpr:
    if rng.random() < 0.5:
        return random_scalar_raw(rng, ctx, depth)
    return random_vector_raw(rng, ctx, depth)


def random_components(rng: random.Random, bound: int = 9) -> tuple:
    """An integer 4-tuple of the model, components in [-bound, bound]."""
    return tuple(rng.randint(-bound, bound) for _ in range(4))


def random_ctx_assignment(rng: random.Random, ctx: Ctx) -> Assignment:
    return Assignment(
        vectors={name: ParaQuaternion(*random_components(rng)) for name in ctx.vectors},
        scalars={name: Fraction(rng.randint(-9, 9)) for name in ctx.scalars},
    )


# --- reference arithmetic ----------------------------------------------------
# The para-quaternion model written out by hand on 4-tuples over 1, i, j, k,
# apart from the table that the oracle generates its kernels from.


def reference_product(u: tuple, v: tuple) -> tuple:
    """The para-Hurwitz product conj(u) conj(v), written out."""
    a1, b1, c1, d1 = u
    a2, b2, c2, d2 = v
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            c1 * d2 - d1 * c2 - a1 * b2 - b1 * a2,
            d1 * b2 - b1 * d2 - a1 * c2 - c1 * a2,
            b1 * c2 - c1 * b2 - a1 * d2 - d1 * a2)


def reference_norm(u: tuple):
    a, b, c, d = u
    return a * a + b * b + c * c + d * d


def reference_polar(u: tuple, v: tuple):
    """Polar form of the norm: q(u+v) - q(u) - q(v)."""
    a1, b1, c1, d1 = u
    a2, b2, c2, d2 = v
    return 2 * (a1 * a2 + b1 * b2 + c1 * c2 + d1 * d2)


# --- independent raw evaluation ----------------------------------------------


def eval_raw(raw: rx.RawExpr, a: Assignment):
    """Direct recursive evaluation of a raw tree, bypassing canonical forms:
    a number for a scalar, a ParaQuaternion for a vector, as ``eval_expr``
    returns them."""
    value = _eval_raw(raw, a)
    return ParaQuaternion(*value) if isinstance(value, tuple) else value


def _eval_raw(raw: rx.RawExpr, a: Assignment):
    """`eval_raw` with each vector value a 4-tuple of components."""
    if isinstance(raw, rx.Num):
        return raw.value
    if isinstance(raw, rx.Ident):
        if raw.name in a.scalars:
            return a.scalars[raw.name]
        return a.vectors[raw.name].components()
    if isinstance(raw, rx.Neg):
        value = _eval_raw(raw.item, a)
        return tuple(-c for c in value) if isinstance(value, tuple) else -value
    if isinstance(raw, rx.Sum):
        parts = [_eval_raw(item, a) for item in raw.items]
        if isinstance(parts[0], tuple):
            return tuple(map(sum, zip(*parts)))
        return sum(parts)
    if isinstance(raw, rx.Mul):
        scalar = Fraction(1)
        vector = None
        for item in raw.items:
            value = _eval_raw(item, a)
            if isinstance(value, tuple):
                vector = value
            else:
                scalar *= value
        return tuple(scalar * c for c in vector) if vector is not None else scalar
    if isinstance(raw, rx.Pow):
        return _eval_raw(raw.base, a) ** raw.exponent
    if isinstance(raw, rx.Dot):
        return reference_product(_eval_raw(raw.left, a), _eval_raw(raw.right, a))
    if isinstance(raw, rx.Q):
        return reference_norm(_eval_raw(raw.arg, a))
    if isinstance(raw, rx.B):
        return reference_polar(_eval_raw(raw.left, a), _eval_raw(raw.right, a))
    raise AssertionError(f"unhandled node {type(raw).__name__}")


def reference_run(e, vector_names, scalar_names, vectors, scalars, n: int) -> list:
    """The component columns of `e` on `n` trials the plain way, as
    `oracle._run` returns them: on each trial, every unit's monomial is
    its coefficient times each atom's value to its exponent, evaluated
    alone, and the units are summed.  `vectors` and `scalars` are columns
    laid out as `oracle._draws` lays them out, named by `vector_names` and
    `scalar_names`."""
    vector_at = dict(zip(vector_names, vectors))
    scalar_at = dict(zip(scalar_names, scalars))
    columns = [[0] * n for _ in range(4 if is_vector(e) else 1)]
    for trial in range(n):
        def word(w):
            if w.is_leaf:
                return vector_at[w.name][trial]
            return reference_product(word(w.left), word(w.right))

        def atom(a):
            if a.is_symbol:
                return scalar_at[a.name][trial]
            if a.is_q:
                return reference_norm(word(a.w1))
            return reference_polar(word(a.w1), word(a.w2))

        for w, mono, coeff in units(e):
            value = coeff
            for a, exp in mono:
                value *= atom(a) ** exp
            if w is None:
                columns[0][trial] += value
            else:
                for k, component in enumerate(word(w)):
                    columns[k][trial] += value * component
    return columns


def values_agree(lhs, rhs) -> bool:
    if isinstance(lhs, ParaQuaternion) != isinstance(rhs, ParaQuaternion):
        # A canonical vector zero may meet a scalar zero from the raw route.
        lz = lhs.is_zero if isinstance(lhs, ParaQuaternion) else lhs == 0
        rz = rhs.is_zero if isinstance(rhs, ParaQuaternion) else rhs == 0
        return lz and rz
    return lhs == rhs


# --- reference site walk -----------------------------------------------------
# The first rewrite of a unit found the slow way: every site in the order
# the `rules` docstring documents, every rule bound by the reference
# matcher below and instantiated by `instantiate_sides`, with no memo, no
# site tables and no skipping of the scalar-symbol prefix.


def _rhs(rule, binds, symbols):
    """The rule's right-hand side under `binds`; one of the wrong sort
    raises EngineError, as the engine's does."""
    rhs = instantiate_sides(rule, binds, symbols)[1]
    if is_vector(rhs) != (rule.kind == "dot"):
        raise EngineError(f"rule {rule.name} has a right-hand side of the wrong sort")
    return rhs


def _first_dot_rewrite(w, dot_rules, symbols):
    """The value of the word `w` after its first dot rewrite, or None:
    the node, then its left subtree, then its right subtree."""
    if w.is_leaf:
        return None
    for rule in dot_rules:
        binds = reference_bind(rule, w)
        if binds is not None:
            return _rhs(rule, binds, symbols)
    left = _first_dot_rewrite(w.left, dot_rules, symbols)
    if left is not None:
        return dot(left, VectorExpr.from_word(w.right))
    right = _first_dot_rewrite(w.right, dot_rules, symbols)
    return None if right is None else dot(VectorExpr.from_word(w.left), right)


def first_rewrite_reference(mono, word, ruleset, symbols):
    """`(drop, value)` for the first site of the unit `word` times `mono`
    that a rule of `ruleset` rewrites, as ``rules._first_rewrite`` returns
    it, or None: dot sites of the word, then of each q/b atom's arguments
    in atom order; then each q/b atom (power rules before atom rules);
    then ordered pairs of distinct exponent-1 b atoms."""
    by_kind = {kind: [r for r in ruleset.rules if r.kind == kind]
               for kind in ("dot", "atom", "power", "product")}
    dots = by_kind["dot"]
    if word is not None:
        value = _first_dot_rewrite(word, dots, symbols)
        if value is not None:
            return (), value
    for idx, (atom, exp) in enumerate(mono):
        if atom.is_symbol:
            continue
        v1 = _first_dot_rewrite(atom.w1, dots, symbols)
        if v1 is not None:
            value = q_of(v1) if atom.is_q else b_of(v1, VectorExpr.from_word(atom.w2))
            return (idx,), value ** exp
        v2 = None if atom.is_q else _first_dot_rewrite(atom.w2, dots, symbols)
        if v2 is not None:
            return (idx,), b_of(VectorExpr.from_word(atom.w1), v2) ** exp
    for idx, (atom, exp) in enumerate(mono):
        if atom.is_symbol:
            continue
        # A power rule binds only at its own exponent, so trying it at
        # every atom keeps it first where the exponent is 2 or more.
        for rule in by_kind["power"] + by_kind["atom"]:
            binds = reference_bind(rule, (atom, exp))
            if binds is not None:
                rhs = _rhs(rule, binds, symbols)
                return (idx,), rhs if rule.kind == "power" else rhs ** exp
    bs = [(idx, atom) for idx, (atom, exp) in enumerate(mono) if atom.is_b and exp == 1]
    for idx1, a1 in bs:
        for idx2, a2 in bs:
            if idx1 == idx2:
                continue
            for rule in by_kind["product"]:
                binds = reference_bind(rule, (a1, a2))
                if binds is not None:
                    return (idx1, idx2), _rhs(rule, binds, symbols)
    return None


# --- reference matcher -------------------------------------------------------
# A matcher written apart from the library's (``rules._match``, through
# ``rule.bind``); it compares a repeated variable's words by value, not by
# identity.  ``rule.bind`` must agree with it everywhere.


def reference_match(pattern: rx.RawExpr, subject, binds: dict) -> bool:
    """Tree-match a pattern of shape "word" against a Word, or of shape
    "q"/"b" against an Atom, extending `binds`; repeated variables require
    the same word.  On failure `binds` is left partly filled."""
    if isinstance(pattern, rx.Ident):
        if not pattern.name.isupper():
            return subject.is_leaf and subject.name == pattern.name
        return binds.setdefault(pattern.name, subject) == subject
    if isinstance(pattern, rx.Dot):
        return (not subject.is_leaf and reference_match(pattern.left, subject.left, binds)
                and reference_match(pattern.right, subject.right, binds))
    if isinstance(pattern, rx.Q):
        return subject.is_q and reference_match(pattern.arg, subject.w1, binds)
    return (subject.is_b and reference_match(pattern.left, subject.w1, binds)
            and reference_match(pattern.right, subject.w2, binds))


def reference_bind(rule, subject):
    """Bind a rule at one site of its kind, as ``rule.bind`` does: a Word
    for dot rules, an (Atom, exponent) entry for atom and power rules, an
    (Atom, Atom) pair for product rules."""
    binds: dict = {}
    kind = rule.kind
    if kind == "dot":
        ok = reference_match(rule.lhs, subject, binds)
    elif kind == "product":
        ok = (reference_match(rule.lhs, subject[0], binds)
              and reference_match(rule.lhs2, subject[1], binds))
    else:
        atom, exp = subject
        ok = (kind == "atom" or exp == rule.power) and reference_match(rule.lhs, atom, binds)
    return binds if ok else None
