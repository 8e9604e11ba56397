"""Polynomial-level operations: substitution, coefficient extraction,
coefficient matrices, and factored-form equality.

Coefficient extraction is exact-degree in the listed symbols jointly;
symbols absent from the key are left untouched.  Factored displays are
verified by expanding the claimed factorization and comparing canonical
forms -- no factorization is ever performed.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from . import rawexpr as rx
from .core import (
    SCALAR,
    VECTOR,
    Env,
    Expr,
    Monomial,
    ScalarExpr,
    SymbolTable,
    VectorExpr,
    Word,
    add_terms,
    add_units,
    b_of,
    canonicalize,
    dot,
    equal,
    from_units,
    is_vector,
    q_of,
    units,
)
from .errors import ExprTypeError
from .printer import print_expr


def _subst_word(w: Word, bindings: dict[str, VectorExpr]) -> VectorExpr:
    if w.is_leaf:
        bound = bindings.get(w.name)
        return bound if bound is not None else VectorExpr.from_word(w)
    return dot(_subst_word(w.left, bindings), _subst_word(w.right, bindings))


def _word_touches(w: Word, names: set[str]) -> bool:
    if w.is_leaf:
        return w.name in names
    return _word_touches(w.left, names) or _word_touches(w.right, names)


def subst(e: Expr, bindings: dict[str, Expr], symbols: SymbolTable) -> Expr:
    """Simultaneous substitution of symbols by canonical values."""
    if not bindings:
        return e
    by_sort: dict[str, dict] = {SCALAR: {}, VECTOR: {}}
    for name, value in bindings.items():
        sort = symbols.sort_of(name)
        if sort is None:
            raise ExprTypeError(f"cannot substitute undeclared symbol {name!r}")
        other, cls = (VECTOR, ScalarExpr) if sort == SCALAR else (SCALAR, VectorExpr)
        if not isinstance(value, cls):
            if not value.is_zero:
                raise ExprTypeError(f"{sort} symbol {name!r} bound to a {other} value")
            value = cls()
        by_sort[sort][name] = value
    scalar_binds, vector_binds = by_sort[SCALAR], by_sort[VECTOR]
    vnames = set(vector_binds)

    def subst_scalar(terms: dict) -> ScalarExpr:
        out: dict = {}
        for mono, coeff in terms.items():
            acc = ScalarExpr.const(coeff)
            for atom, exp in mono:
                if atom.is_symbol:
                    bound = scalar_binds.get(atom.name)
                    factor = bound if bound is not None else ScalarExpr.from_atom(atom)
                elif atom.is_q:
                    if _word_touches(atom.w1, vnames):
                        factor = q_of(_subst_word(atom.w1, vector_binds))
                    else:
                        factor = ScalarExpr.from_atom(atom)
                else:
                    if _word_touches(atom.w1, vnames) or _word_touches(atom.w2, vnames):
                        factor = b_of(_subst_word(atom.w1, vector_binds),
                                      _subst_word(atom.w2, vector_binds))
                    else:
                        factor = ScalarExpr.from_atom(atom)
                acc = acc * factor ** exp
            add_terms(out, acc.terms)
        return ScalarExpr(out)

    out: dict = {}
    for word, terms in e.by_word():
        value = subst_scalar(terms)
        add_units(out, value if word is None else _subst_word(word, vector_binds).scaled_by(value))
    return from_units(out, is_vector(e))


def subst_raw(e: Expr, raw_bindings: dict[str, rx.RawExpr], symbols: SymbolTable,
              env: Env | None = None) -> Expr:
    """Substitution with raw right-hand sides (canonicalized first)."""
    env = env or Env(symbols)
    return subst(e, {n: canonicalize(r, env) for n, r in raw_bindings.items()}, symbols)


def _mono_degree(mono: Monomial, name: str) -> int:
    for atom, exp in mono:
        if atom.is_symbol and atom.name == name:
            return exp
    return 0


def _strip_symbols(mono: Monomial, names: set[str]) -> Monomial:
    return tuple((a, e) for a, e in mono if not (a.is_symbol and a.name in names))


def coeff(e: Expr, key: dict[str, int]) -> Expr:
    """Exact-degree coefficient extraction.

    Keeps the monomials/terms whose degree in each key symbol equals the
    key's exponent (0 means degree exactly zero), strips those symbol
    powers, and leaves all other symbols untouched.
    """
    names = set(key)
    out: dict = {}
    for word, mono, c in units(e):
        if all(_mono_degree(mono, n) == k for n, k in key.items()):
            out.setdefault(word, {})[_strip_symbols(mono, names)] = c
    return from_units(out, is_vector(e))


@dataclass(frozen=True)
class CoeffMatrix:
    """Coefficients of powers of an ordered pair of scalar symbols.

    rows[i][j] is the coefficient of vars[0]^i * vars[1]^j; dimensions
    cover every degree that occurs, so the matrix is rectangular.
    """

    vars: tuple[str, str]
    rows: tuple[tuple[Expr, ...], ...]

    def to_json(self) -> str:
        payload = {
            "vars": list(self.vars),
            "rows": [[print_expr(entry) for entry in row] for row in self.rows],
        }
        return json.dumps(payload, indent=2)

    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows[0]))


def _max_degree(e: Expr, name: str) -> int:
    return max((_mono_degree(mono, name) for _, mono, _ in units(e)), default=0)


def coeff_matrix(e: Expr, variables: tuple[str, str]) -> CoeffMatrix:
    v1, v2 = variables
    rows = []
    for i in range(_max_degree(e, v1) + 1):
        row = []
        for j in range(_max_degree(e, v2) + 1):
            row.append(coeff(e, {v1: i, v2: j}))
        rows.append(tuple(row))
    return CoeffMatrix((v1, v2), tuple(rows))


def factored_equal(e: Expr, target: rx.RawExpr | Expr, symbols: SymbolTable,
                   env: Env | None = None) -> bool:
    """Check a factored display by expansion: e == canonicalize(target)."""
    if isinstance(target, rx.RawExpr):
        target = canonicalize(target, env or Env(symbols))
    if type(target) is not type(e) and not (target.is_zero and e.is_zero):
        raise ExprTypeError("factored target has the wrong sort")
    return equal(e, target)
