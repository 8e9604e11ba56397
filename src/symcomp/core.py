"""Canonical two-sorted expression algebra.

Values come in two sorts.  A ScalarExpr is a sum of rational-coefficient
monomials over scalar atoms (scalar symbols, q(w) and b(w1,w2) applications
with exponents).  A VectorExpr is a sum of dot-words, each carrying a
ScalarExpr coefficient.  A dot-word is a fully parenthesized, *unflattened*
binary product of vector symbols: (u.v).w and u.(v.w) are distinct values.

Canonical form is fully multilinear: the dot product and b distribute over
sums and extract scalar factors bilinearly, q polarizes over sums
(q(u+v) = q(u) + q(v) + b(u,v)) and extracts scalars quadratically.
b is deliberately not symmetrized: b(x,y) and b(y,x) stay distinct atoms,
merged only by explicit rewrite rules.

The multiplicativity law q(u.v) = q(u) q(v) is an axiom of the algebras
under study, not a definitional expansion, so canonicalization never
applies it; it lives in the rule catalog.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from . import rawexpr as rx
from .errors import ExprTypeError, UnknownSymbol

ONE = Fraction(1)
ZERO = Fraction(0)

SCALAR = "scalar"
VECTOR = "vector"


class SymbolTable:
    """Declared symbols with their sort and declaration order."""

    def __init__(self) -> None:
        self._entries: dict[str, tuple[str, int]] = {}

    def declare(self, name: str, sort: str) -> None:
        if name in self._entries:
            if self._entries[name][0] != sort:
                raise ExprTypeError(f"symbol {name!r} redeclared with a different sort")
            return
        self._entries[name] = (sort, len(self._entries))

    def declare_scalar(self, name: str) -> None:
        self.declare(name, SCALAR)

    def declare_vector(self, name: str) -> None:
        self.declare(name, VECTOR)

    def sort_of(self, name: str) -> str | None:
        entry = self._entries.get(name)
        return entry[0] if entry else None

    def index_of(self, name: str) -> int:
        return self._entries[name][1]

    def names(self, sort: str | None = None) -> list[str]:
        return [n for n, (s, _) in self._entries.items() if sort is None or s == sort]


class Word:
    """A dot-word: leaf vector symbol or ordered pair of sub-words."""

    __slots__ = ("name", "index", "left", "right", "leaves", "key", "_hash")

    def __init__(self, name, index, left, right, leaves, key):
        self.name = name
        self.index = index
        self.left = left
        self.right = right
        self.leaves = leaves
        self.key = key
        self._hash = hash(key)

    @staticmethod
    def leaf(name: str, index: int) -> "Word":
        return Word(name, index, None, None, 1, (1, 0, index, name))

    @staticmethod
    def pair(left: "Word", right: "Word") -> "Word":
        leaves = left.leaves + right.leaves
        return Word(None, None, left, right, leaves, (leaves, 1, left.key, right.key))

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def __eq__(self, other):
        return isinstance(other, Word) and self.key == other.key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.is_leaf:
            return f"Word({self.name})"
        return f"Word({self.left!r}.{self.right!r})"


_KIND_SYM = 0
_KIND_Q = 1
_KIND_B = 2


class Atom:
    """A scalar atom: a scalar symbol, q(word), or b(word, word)."""

    __slots__ = ("kind", "name", "index", "w1", "w2", "key", "_hash")

    def __init__(self, kind, name, index, w1, w2, key):
        self.kind = kind
        self.name = name
        self.index = index
        self.w1 = w1
        self.w2 = w2
        self.key = key
        self._hash = hash(key)

    @staticmethod
    def symbol(name: str, index: int) -> "Atom":
        return Atom(_KIND_SYM, name, index, None, None, (_KIND_SYM, index, name))

    @staticmethod
    def q(w: Word) -> "Atom":
        return Atom(_KIND_Q, None, None, w, None, (_KIND_Q, w.key))

    @staticmethod
    def b(w1: Word, w2: Word) -> "Atom":
        return Atom(_KIND_B, None, None, w1, w2, (_KIND_B, w1.key, w2.key))

    @property
    def is_symbol(self) -> bool:
        return self.kind == _KIND_SYM

    @property
    def is_q(self) -> bool:
        return self.kind == _KIND_Q

    @property
    def is_b(self) -> bool:
        return self.kind == _KIND_B

    def __eq__(self, other):
        return isinstance(other, Atom) and self.key == other.key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.is_symbol:
            return f"Atom({self.name})"
        if self.is_q:
            return f"Atom(q[{self.w1!r}])"
        return f"Atom(b[{self.w1!r},{self.w2!r}])"


# A monomial is a tuple of (atom, exponent) pairs sorted by atom key;
# the empty tuple is the constant monomial.
Monomial = tuple

EMPTY_MONOMIAL: Monomial = ()


def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    while i < len(m1) and j < len(m2):
        a1, e1 = m1[i]
        a2, e2 = m2[j]
        if a1.key == a2.key:
            out.append((a1, e1 + e2))
            i += 1
            j += 1
        elif a1.key < a2.key:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def mono_key(m: Monomial):
    """Graded-lexicographic sort key: total degree, then atom keys."""
    return (sum(e for _, e in m), tuple((a.key, e) for a, e in m))


class ScalarExpr:
    """Canonical scalar value: monomial -> nonzero rational coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = terms if terms is not None else {}

    @staticmethod
    def const(value) -> "ScalarExpr":
        c = Fraction(value)
        return ScalarExpr({EMPTY_MONOMIAL: c} if c else {})

    @staticmethod
    def from_atom(atom: Atom, exp: int = 1) -> "ScalarExpr":
        return ScalarExpr({((atom, exp),): ONE})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def monomials(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: mono_key(kv[0]))

    def __eq__(self, other):
        return isinstance(other, ScalarExpr) and self.terms == other.terms

    def __add__(self, other: "ScalarExpr") -> "ScalarExpr":
        out = dict(self.terms)
        for m, c in other.terms.items():
            acc = out.get(m, ZERO) + c
            if acc:
                out[m] = acc
            else:
                out.pop(m, None)
        return ScalarExpr(out)

    def __neg__(self) -> "ScalarExpr":
        return ScalarExpr({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "ScalarExpr") -> "ScalarExpr":
        return self + (-other)

    def scaled(self, factor) -> "ScalarExpr":
        f = Fraction(factor)
        if not f:
            return ScalarExpr()
        return ScalarExpr({m: c * f for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, VectorExpr):
            return other.scaled_by(self)
        if not isinstance(other, ScalarExpr):
            return self.scaled(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                acc = out.get(m, ZERO) + c1 * c2
                if acc:
                    out[m] = acc
                else:
                    out.pop(m, None)
        return ScalarExpr(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ScalarExpr":
        if n < 0:
            raise ExprTypeError("negative powers are not supported")
        acc = ScalarExpr.const(1)
        for _ in range(n):
            acc = acc * self
        return acc

    def __repr__(self):
        return f"ScalarExpr({len(self.terms)} terms)"


class VectorExpr:
    """Canonical vector value: dot-word -> nonzero ScalarExpr coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = terms if terms is not None else {}

    @staticmethod
    def from_word(w: Word) -> "VectorExpr":
        return VectorExpr({w: ScalarExpr.const(1)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def items(self) -> list[tuple[Word, ScalarExpr]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].key)

    def __eq__(self, other):
        return isinstance(other, VectorExpr) and self.terms == other.terms

    def __add__(self, other: "VectorExpr") -> "VectorExpr":
        out = dict(self.terms)
        for w, c in other.terms.items():
            acc = out.get(w)
            acc = c if acc is None else acc + c
            if acc.is_zero:
                out.pop(w, None)
            else:
                out[w] = acc
        return VectorExpr(out)

    def __neg__(self) -> "VectorExpr":
        return VectorExpr({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "VectorExpr") -> "VectorExpr":
        return self + (-other)

    def scaled_by(self, factor: ScalarExpr) -> "VectorExpr":
        if factor.is_zero:
            return VectorExpr()
        out = {}
        for w, c in self.terms.items():
            acc = c * factor
            if not acc.is_zero:
                out[w] = acc
        return VectorExpr(out)

    def __repr__(self):
        return f"VectorExpr({len(self.terms)} terms)"


Expr = Union[ScalarExpr, VectorExpr]


def is_scalar(e: Expr) -> bool:
    return isinstance(e, ScalarExpr)


def is_vector(e: Expr) -> bool:
    return isinstance(e, VectorExpr)


def equal(a: Expr, b: Expr) -> bool:
    """Structural equality of canonical forms.

    The empty scalar and the empty vector are both the canonical zero;
    they compare equal across sorts (both print as "0").
    """
    if type(a) is not type(b):
        return a.is_zero and b.is_zero
    return a == b


def dot(u: VectorExpr, v: VectorExpr) -> VectorExpr:
    """Bilinear dot product of canonical vector values."""
    out: dict = {}
    for w1, c1 in u.terms.items():
        for w2, c2 in v.terms.items():
            w = Word.pair(w1, w2)
            coeff = c1 * c2
            acc = out.get(w)
            acc = coeff if acc is None else acc + coeff
            if acc.is_zero:
                out.pop(w, None)
            else:
                out[w] = acc
    return VectorExpr(out)


def b_of(u: VectorExpr, v: VectorExpr) -> ScalarExpr:
    """Bilinear extension of the b atom; argument order is preserved."""
    out = ScalarExpr()
    for w1, c1 in u.items():
        for w2, c2 in v.items():
            out = out + (c1 * c2) * ScalarExpr.from_atom(Atom.b(w1, w2))
    return out


def q_of(v: VectorExpr) -> ScalarExpr:
    """Quadratic extension of the q atom.

    Polarizes over sums pairwise: q(sum ci.wi) = sum ci^2 q(wi)
    + sum_{i<j} ci cj b(wi, wj), pairs taken in canonical word order
    with the earlier word as the first b argument.
    """
    items = v.items()
    out = ScalarExpr()
    for i, (wi, ci) in enumerate(items):
        out = out + (ci * ci) * ScalarExpr.from_atom(Atom.q(wi))
        for wj, cj in items[i + 1:]:
            out = out + (ci * cj) * ScalarExpr.from_atom(Atom.b(wi, wj))
    return out


class Env:
    """Name resolution context for canonicalization.

    Bound names (session `let` results, rule-template variables) shadow
    declared symbols.
    """

    __slots__ = ("symbols", "bindings")

    def __init__(self, symbols: SymbolTable, bindings: dict[str, Expr] | None = None):
        self.symbols = symbols
        self.bindings = bindings or {}

    def leaf(self, name: str) -> Word:
        return Word.leaf(name, self.symbols.index_of(name))

    def resolve(self, name: str) -> Expr:
        bound = self.bindings.get(name)
        if bound is not None:
            return bound
        sort = self.symbols.sort_of(name)
        if sort == SCALAR:
            return ScalarExpr.from_atom(Atom.symbol(name, self.symbols.index_of(name)))
        if sort == VECTOR:
            return VectorExpr.from_word(self.leaf(name))
        raise UnknownSymbol(f"undeclared identifier {name!r}")


def canonicalize(raw: rx.RawExpr, env: Env) -> Expr:
    """Reduce an unrestricted parse tree to its canonical form."""
    if isinstance(raw, rx.Num):
        return ScalarExpr.const(raw.value)
    if isinstance(raw, rx.Ident):
        return env.resolve(raw.name)
    if isinstance(raw, rx.Neg):
        return -canonicalize(raw.item, env)
    if isinstance(raw, rx.Sum):
        parts = [canonicalize(item, env) for item in raw.items]
        vectors = [p for p in parts if is_vector(p)]
        if vectors and len(vectors) != len(parts):
            # A scalar summand that is exactly zero is harmless in a vector sum.
            scalars = [p for p in parts if is_scalar(p)]
            if any(not p.is_zero for p in scalars):
                raise ExprTypeError("cannot add scalar and vector values")
            parts = vectors
        acc = parts[0]
        for p in parts[1:]:
            acc = acc + p
        return acc
    if isinstance(raw, rx.Mul):
        parts = [canonicalize(item, env) for item in raw.items]
        vectors = [p for p in parts if is_vector(p)]
        if len(vectors) > 1:
            raise ExprTypeError("vector*vector is not defined; use the dot product")
        scalar = ScalarExpr.const(1)
        for p in parts:
            if is_scalar(p):
                scalar = scalar * p
        if vectors:
            return vectors[0].scaled_by(scalar)
        return scalar
    if isinstance(raw, rx.Pow):
        base = canonicalize(raw.base, env)
        if not is_scalar(base):
            raise ExprTypeError("powers apply to scalar expressions only")
        return base ** raw.exponent
    if isinstance(raw, rx.Dot):
        left = canonicalize(raw.left, env)
        right = canonicalize(raw.right, env)
        if not (is_vector(left) and is_vector(right)):
            raise ExprTypeError("dot product requires vector operands")
        return dot(left, right)
    if isinstance(raw, rx.Q):
        arg = canonicalize(raw.arg, env)
        if not is_vector(arg):
            raise ExprTypeError("q applies to vector expressions")
        return q_of(arg)
    if isinstance(raw, rx.B):
        left = canonicalize(raw.left, env)
        right = canonicalize(raw.right, env)
        if not (is_vector(left) and is_vector(right)):
            raise ExprTypeError("b applies to vector expressions")
        return b_of(left, right)
    raise ExprTypeError(f"unsupported raw node {type(raw).__name__}")


def atom_order(a: Atom | Word, b: Atom | Word) -> int:
    """Total order on atoms (symbol < q < b) and on dot-words."""
    if isinstance(a, Word) != isinstance(b, Word):
        raise ExprTypeError("cannot order a dot-word against a scalar atom")
    if a.key < b.key:
        return -1
    if a.key > b.key:
        return 1
    return 0


def scalar_symbols_of(e: Expr) -> set[str]:
    """Names of scalar symbols occurring in a canonical value."""
    out: set[str] = set()
    for mono in _all_monomials(e):
        for atom, _ in mono:
            if atom.is_symbol:
                out.add(atom.name)
    return out


def vector_symbols_of(e: Expr) -> set[str]:
    """Names of vector symbols occurring in a canonical value."""
    out: set[str] = set()

    def walk(w: Word):
        if w.is_leaf:
            out.add(w.name)
        else:
            walk(w.left)
            walk(w.right)

    if is_vector(e):
        for w in e.terms:
            walk(w)
        for coeff in e.terms.values():
            out |= vector_symbols_of(coeff)
        return out
    for mono in e.terms:
        for atom, _ in mono:
            if atom.w1 is not None:
                walk(atom.w1)
            if atom.w2 is not None:
                walk(atom.w2)
    return out


def _all_monomials(e: Expr) -> Iterable[Monomial]:
    if is_scalar(e):
        return e.terms.keys()
    monos = []
    for coeff in e.terms.values():
        monos.extend(coeff.terms.keys())
    return monos
