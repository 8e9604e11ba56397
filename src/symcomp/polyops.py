"""Polynomial-level operations: substitution, coefficient extraction,
coefficient matrices, and factored-form equality.

Substitution rebuilds only what the bindings reach: each word and q/b
atom that holds a bound symbol is rebuilt once per call
(``core.word_with``/``core.atom_with``), the untouched entries of a
monomial are kept as they are, and each unit is added back through
``core.add_unit``.

Coefficient extraction is exact-degree in the listed symbols jointly;
symbols absent from the key are left untouched.  ``coeff`` and
``coeff_matrix`` share one walk, ``_by_degrees``, which groups each unit
by its degrees in the key symbols and strips those powers, so a matrix
costs one pass over the value and not one per cell.  Factored displays
are verified by expanding the claimed factorization and comparing
canonical forms with ``core.equal`` -- no factorization is ever
performed.
"""
from __future__ import annotations

import json

from . import rawexpr as rx
from .core import (
    SCALAR,
    VECTOR,
    Atom,
    Env,
    Expr,
    ScalarExpr,
    SymbolTable,
    VectorExpr,
    Word,
    add_unit,
    atom_with,
    canonicalize,
    equal,
    from_units,
    is_vector,
    units,
    word_with,
)
from .errors import ExprTypeError, Record, int_text
from .printer import print_expr


def subst(e: Expr, bindings: dict[str, Expr], symbols: SymbolTable) -> Expr:
    """Simultaneous substitution of symbols by canonical values."""
    if not bindings:
        return e
    by_sort: dict[str, dict] = {SCALAR: {}, VECTOR: {}}
    for name, value in bindings.items():
        sort = symbols.sort_of(name)
        if sort is None:
            raise ExprTypeError(f"cannot substitute undeclared symbol {name!r}")
        if not isinstance(value, Expr):
            raise ExprTypeError(f"{sort} symbol {name!r} bound to a value of type "
                                f"{type(value).__name__}, not an Expr")
        other, cls = (VECTOR, ScalarExpr) if sort == SCALAR else (SCALAR, VectorExpr)
        if not isinstance(value, cls):
            if not value.is_zero:
                raise ExprTypeError(f"{sort} symbol {name!r} bound to a {other} value")
            value = cls()
        by_sort[sort][name] = value
    scalar_binds, vector_binds = by_sort[SCALAR], by_sort[VECTOR]
    reached: dict = {}  # word or q/b atom -> its value, None where no binding reaches

    def word_value(w: Word) -> VectorExpr | None:
        if w.is_leaf:
            return vector_binds.get(w.name)
        if w not in reached:
            left, right = word_value(w.left), word_value(w.right)
            reached[w] = None if left is None and right is None else word_with(w, left, right)
        return reached[w]

    def atom_value(atom: Atom) -> ScalarExpr | None:
        if atom.is_symbol:
            return scalar_binds.get(atom.name)
        if atom not in reached:
            v1 = word_value(atom.w1)
            v2 = None if atom.is_q else word_value(atom.w2)
            reached[atom] = None if v1 is None and v2 is None else atom_with(atom, v1, v2)
        return reached[atom]

    one = ScalarExpr.const(1)
    out: dict = {}
    for word, mono, c in units(e):
        value = None if word is None else word_value(word)
        rest = []
        for entry in mono:
            factor = atom_value(entry[0])
            if factor is None:
                rest.append(entry)
            else:
                factor = factor ** entry[1]
                value = factor if value is None else factor * value
        add_unit(out, c, tuple(rest), word, one if value is None else value)
    return from_units(out, is_vector(e))


def subst_raw(e: Expr, raw_bindings: dict[str, rx.RawExpr], symbols: SymbolTable,
              env: Env | None = None) -> Expr:
    """Substitution with raw right-hand sides (canonicalized first)."""
    env = env or Env(symbols)
    return subst(e, {n: canonicalize(r, env) for n, r in raw_bindings.items()}, symbols)


def _by_degrees(e: Expr, names: tuple[str, ...]) -> dict[tuple[int, ...], dict]:
    """The units of `e` grouped by their degrees in the symbols `names`,
    with those symbol powers stripped: degrees -> word -> {mono: coeff}."""
    position = {name: k for k, name in enumerate(names)}
    groups: dict = {}
    for word, mono, c in units(e):
        degrees = [0] * len(names)
        rest = []
        for entry in mono:
            k = position.get(entry[0].name) if entry[0].is_symbol else None
            if k is None:
                rest.append(entry)
            else:
                degrees[k] = entry[1]
        groups.setdefault(tuple(degrees), {}).setdefault(word, {})[tuple(rest)] = c
    return groups


def coeff(e: Expr, key: dict[str, int]) -> Expr:
    """Exact-degree coefficient extraction.

    Keeps the monomials/terms whose degree in each key symbol equals the
    key's exponent (0 means degree exactly zero), strips those symbol
    powers, and leaves all other symbols untouched.
    """
    return from_units(_by_degrees(e, tuple(key)).get(tuple(key.values()), {}), is_vector(e))


class CoeffMatrix(Record):
    """Coefficients of powers of an ordered pair of scalar symbols.

    rows[i][j] is the coefficient of vars[0]^i * vars[1]^j; dimensions
    cover every degree that occurs, so the matrix is rectangular.
    """

    __slots__ = ("vars", "rows")

    def to_json(self) -> str:
        payload = {
            "vars": list(self.vars),
            "rows": [[print_expr(entry) for entry in row] for row in self.rows],
        }
        return json.dumps(payload, indent=2)


# The most cells a coefficient matrix may have.  Every cell is built and
# kept, and a matrix has (degree1 + 1) x (degree2 + 1) of them, so
# lambda^300*mu^300*q(x) alone asks for 90601 cells.
MAX_MATRIX_CELLS = 2**16


def coeff_matrix(e: Expr, variables: tuple[str, str]) -> CoeffMatrix:
    v1, v2 = variables
    if v1 == v2:
        raise ExprTypeError(f"a coefficient matrix needs two distinct symbols, got {v1!r} twice")
    groups = _by_degrees(e, variables)
    n1 = 1 + max((i for i, _ in groups), default=0)
    n2 = 1 + max((j for _, j in groups), default=0)
    if n1 * n2 > MAX_MATRIX_CELLS:
        raise ExprTypeError(f"coefficient matrix shape {int_text(n1)} x {int_text(n2)} is "
                            f"over the bound of {MAX_MATRIX_CELLS} cells")
    vector = is_vector(e)
    rows = tuple(tuple(from_units(groups.get((i, j), {}), vector) for j in range(n2))
                 for i in range(n1))
    return CoeffMatrix((v1, v2), rows)


def factored_equal(e: Expr, target: Expr) -> bool:
    """Check a factored display by expansion: ``equal(e, target)`` of the
    canonical value of the claimed factorization.  A function of its own
    so that ``perfbench/tracing.py`` can time it by name."""
    return equal(e, target)
