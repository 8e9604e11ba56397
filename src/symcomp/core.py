"""Canonical two-sorted expression algebra.

Values come in two sorts, both subclasses of one base, ``Expr``.  A
ScalarExpr is a sum of rational-coefficient monomials over scalar atoms
(scalar symbols, q(w) and b(w1,w2) applications with exponents).  A
VectorExpr is a sum of dot-words, each carrying a ScalarExpr coefficient.
A dot-word is a fully parenthesized, *unflattened* binary product of
vector symbols: (u.v).w and u.(v.w) are distinct values.  ``Expr`` holds
what the sorts share: the ``terms`` map, ``is_zero``, equality (same sort
and same terms), ``+``, ``-``, ``*`` and negation.

Canonical form is fully multilinear: the dot product and b distribute over
sums and extract scalar factors bilinearly, q polarizes over sums
(q(u+v) = q(u) + q(v) + b(u,v)) and extracts scalars quadratically.
b is deliberately not symmetrized: b(x,y) and b(y,x) stay distinct atoms,
merged only by explicit rewrite rules.

The multiplicativity law q(u.v) = q(u) q(v) is an axiom of the algebras
under study, not a definitional expansion, so canonicalization never
applies it; it lives in the rule catalog.

Each sort rule is written once, in the operation that raises its
ExprTypeError: ``_sum`` (``+``, ``-`` and a parsed sum), ``_product``
(``*`` and a parsed product), ``**``, ``dot``, ``q_of`` and ``b_of``.
``canonicalize`` only dispatches each node and gives an error its span.
An argument of the wrong type, such as a string where a value belongs,
is refused by one check, ``require``, which ``equal`` and the library's
entry points in ``parser``, ``rules``, ``sessions``, ``polyops``,
``oracle`` and ``printer`` call first.

Both sorts are walked and rebuilt the same way, unit by unit.  A unit is
a scalar monomial, or a monomial times one dot-word.  ``units(e)`` yields
``(word, mono, coeff)`` in storage order, with ``word`` None for a scalar;
``from_units(out, vector)`` rebuilds a value from a ``word -> {mono:
coeff}`` map.  Every sum, ``a + b`` or a sum of n parts in
``canonicalize``, copies the first part's map, adds the others into it
word by word and rebuilds the value once, not once per part.
One loop, ``_add_scaled(acc, coeff, rest, terms)``, adds ``coeff * rest``
times each term of a term dict into an accumulator and drops cancelled
terms.  Every sum, every product of term dicts (``add_product(out, a,
b)``, under ``*``, ``dot``, ``b_of`` and ``q_of``) and every rewrite or
substitution of a unit (``add_unit``) runs it; ``add_term`` adds a single
term.  Each product, each rebuilt unit, and each whole product of vectors
(``dot``, ``b_of``, ``q_of``, a scalar factor of a vector), counts its
term pairs before any work and refuses more than ``MAX_PRODUCT_PAIRS``.

Rewriting and substitution replace parts of a unit the same way:
``word_with(w, left, right)`` and ``atom_with(atom, v1, v2)`` rebuild a
dot-word or a q/b atom from new values of its parts (None keeps a part),
and ``add_unit(out, coeff, rest, word, value)`` adds the rebuilt unit,
``coeff * rest * value``, into a ``word -> {mono: coeff}`` map.

Words and atoms are hash-consed: ``Word.leaf``/``Word.pair`` and
``Atom.symbol``/``Atom.q``/``Atom.b`` are the only builders, and each
returns the one shared object for its value.  Equality is therefore
identity and the hash is Python's default one, so a monomial tuple or a
word hashes without walking its atoms.  The intern tables live for the
process and hold each distinct word and atom once.  ``key`` serves
ordering only (``ScalarExpr.monomials``, the printer).

Coefficients are exact: an ``int`` when the value is integral, else a
``Fraction``.  Python's arithmetic mixes the two exactly (a sum of
Fractions may be an integral Fraction, which equals and hashes like the
``int``), and no ``/`` is ever applied to a coefficient.  ``is_exact``
is the one rule for a number that enters an exact value, here or in the
oracle: an ``int`` that is not a ``bool``, or a ``Fraction``.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import attrgetter
from typing import Iterable, Iterator

from . import rawexpr as rx
from .errors import ExprTypeError, UnknownSymbol, int_text

SCALAR = "scalar"
VECTOR = "vector"

# The largest power of a scalar with more than one term.  A sum's power
# grows with the exponent ((lambda + 1)^n has n + 1 terms with
# coefficients of about n bits), so an unbounded one runs for minutes; a
# single monomial's power is one monomial, so its exponent stays unbounded
# (its coefficient is bounded by MAX_POWER_BITS).
MAX_POWER = 256
# The most bits a power may give a coefficient, reckoned as the exponent
# times the bit length of the base's largest numerator or denominator.
# Squaring doubles a coefficient's size, so 3^99999999999 would never
# finish; 3^661000, about this size, takes 0.08 s.  Coefficients of +-1
# do not grow, so a power of a monomial with one stays unbounded.
MAX_POWER_BITS = 2**20
# The most terms a power (exponent 2 or more) of a sum may have.  A
# t-term base to the n has up to C(n + t - 1, t - 1) terms, so three or
# more terms grow far faster than the exponent: (s+t+u)^128 has 8385 and
# took 11 s.  The worst power under this bound, (s+t+u)^89, takes about 1 s.
MAX_POWER_TERMS = 4096
# The most term pairs one product may multiply, so that a product of
# bounded powers is bounded too: (s+t+u)^64 * (s+t+u)^64 has 2145 * 2145
# pairs and does the work of the rejected (s+t+u)^128.  The largest
# product inside a power under MAX_POWER_TERMS, 351 * 2145 pairs in
# (s+t+u)^89, stays under it.
MAX_PRODUCT_PAIRS = 2**20
# The most leaves a dot-word may have.  The printer, the oracle's plan and
# the rewrite pass walk a word recursively, so a chain of 1300 dots
# overflowed Python's stack, and a word doubled 39 times has 2^40 leaves
# and never finished printing.  A 256-leaf chain goes through every one.
MAX_WORD_LEAVES = 256


class SymbolTable:
    """Declared symbols with their sort and declaration order."""

    def __init__(self) -> None:
        self._entries: dict[str, tuple[str, int]] = {}

    def declare(self, name: str, sort: str) -> None:
        """Declare `name` with `sort`, SCALAR or VECTOR; declaring it again
        with the same sort does nothing."""
        require(name, str, "declare argument name must be a str")
        if sort not in (SCALAR, VECTOR):
            raise ExprTypeError(f"a symbol's sort must be {SCALAR!r} or {VECTOR!r}, got {sort!r}")
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
        return self._entry(name)[1]

    def _entry(self, name: str) -> tuple[str, int]:
        """`(sort, index)` of a declared name; raises UnknownSymbol for
        any other."""
        entry = self._entries.get(name)
        if entry is None:
            raise UnknownSymbol(f"undeclared identifier {name!r}")
        return entry


# Intern tables: (name, index) or (left, right) -> Word, and (kind, name,
# index) or (kind, w1[, w2]) -> Atom.  Children are interned before their
# parents, so these keys hash by identity.  `setdefault` keeps one
# instance per value even when two threads build the same one.
_WORDS: dict = {}
_ATOMS: dict = {}


class Word:
    """A dot-word: leaf vector symbol or ordered pair of sub-words.  Build
    one only with `leaf` or `pair`, which return the interned instance."""

    __slots__ = ("name", "left", "right", "leaves", "key")

    def __init__(self, name, left, right, leaves, key):
        self.name = name
        self.left = left
        self.right = right
        self.leaves = leaves
        self.key = key

    @staticmethod
    def leaf(name: str, index: int) -> "Word":
        w = _WORDS.get((name, index))
        if w is None:
            w = _WORDS.setdefault((name, index),
                                  Word(name, None, None, 1, (1, 0, index, name)))
        return w

    @staticmethod
    def pair(left: "Word", right: "Word") -> "Word":
        """Raises ExprTypeError past `MAX_WORD_LEAVES` leaves."""
        w = _WORDS.get((left, right))
        if w is None:
            leaves = left.leaves + right.leaves
            if leaves > MAX_WORD_LEAVES:
                raise ExprTypeError(f"dot-word of {leaves} leaves exceeds the bound "
                                    f"{MAX_WORD_LEAVES}")
            w = _WORDS.setdefault((left, right), Word(None, left, right, leaves,
                                                      (leaves, 1, left.key, right.key)))
        return w

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def __repr__(self):
        if self.is_leaf:
            return f"Word({self.name})"
        return f"Word({self.left!r}.{self.right!r})"


_KIND_SYM = 0
_KIND_Q = 1
_KIND_B = 2


class Atom:
    """A scalar atom: a scalar symbol, q(word), or b(word, word).  Build
    one only with `symbol`, `q` or `b`, which return the interned instance."""

    __slots__ = ("name", "w1", "w2", "key", "is_symbol", "is_q", "is_b")

    def __init__(self, name, w1, w2, key):
        self.name = name
        self.w1 = w1
        self.w2 = w2
        self.key = key
        # Plain flags, not properties: the rewrite pass and the oracle read
        # them once per monomial entry.  The key starts with the kind.
        self.is_symbol = key[0] == _KIND_SYM
        self.is_q = key[0] == _KIND_Q
        self.is_b = key[0] == _KIND_B

    @staticmethod
    def symbol(name: str, index: int) -> "Atom":
        atom = _ATOMS.get((_KIND_SYM, name, index))
        if atom is None:
            atom = _ATOMS.setdefault((_KIND_SYM, name, index),
                                     Atom(name, None, None, (_KIND_SYM, index, name)))
        return atom

    @staticmethod
    def q(w: Word) -> "Atom":
        atom = _ATOMS.get((_KIND_Q, w))
        if atom is None:
            atom = _ATOMS.setdefault((_KIND_Q, w),
                                     Atom(None, w, None, (_KIND_Q, w.key)))
        return atom

    @staticmethod
    def b(w1: Word, w2: Word) -> "Atom":
        atom = _ATOMS.get((_KIND_B, w1, w2))
        if atom is None:
            atom = _ATOMS.setdefault((_KIND_B, w1, w2),
                                     Atom(None, w1, w2, (_KIND_B, w1.key, w2.key)))
        return atom

    def __repr__(self):
        if self.is_symbol:
            return f"Atom({self.name})"
        if self.is_q:
            return f"Atom(q[{self.w1!r}])"
        return f"Atom(b[{self.w1!r},{self.w2!r}])"


# A monomial is a tuple of (atom, exponent) pairs sorted by atom key;
# the empty tuple is the constant monomial.  An atom key starts with its
# kind (symbol 0, q 1, b 2), so a monomial's scalar symbols come first,
# as a prefix, and its q/b atoms after them.  The rewrite pass relies on
# this: no rule rewrites a scalar symbol, so it starts its site walk past
# the prefix.
Monomial = tuple

EMPTY_MONOMIAL: Monomial = ()


def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    """The product of two monomials: their entries merged by atom key, the
    exponents of a shared atom added."""
    if not m1:
        return m2
    if not m2:
        return m1
    # Both are sorted with unique atoms, so when m1's last atom sorts
    # before m2's first the product is the concatenation; an atom shared
    # at that seam has equal keys and is merged below.  This is the common
    # case: a symbol prefix times q/b atoms.
    if m1[-1][0].key < m2[0][0].key:
        return m1 + m2
    out = []
    i = j = 0
    while i < len(m1) and j < len(m2):
        a1, e1 = m1[i]
        a2, e2 = m2[j]
        if a1 is a2:
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


def add_term(terms: dict, mono: Monomial, coeff) -> None:
    """Add `coeff * mono` into the monomial -> coefficient dict `terms` in
    place, dropping the monomial if its coefficient cancels to zero."""
    acc = terms.get(mono)
    acc = coeff if acc is None else acc + coeff
    if acc:
        terms[mono] = acc
    else:
        terms.pop(mono, None)


def _add_scaled(acc: dict, coeff, rest: Monomial, terms: dict) -> None:
    """Add `coeff * rest * t` for each term `t` of the monomial -> coefficient
    dict `terms` into `acc` in place, dropping terms that cancel.  The one
    multiply-accumulate loop: every product, rewrite and sum runs it."""
    for m, c in terms.items():
        m = mono_mul(rest, m)
        a = acc.get(m)
        a = coeff * c if a is None else a + coeff * c
        if a:
            acc[m] = a
        else:
            acc.pop(m, None)


def _bound_pairs(m: int, n: int, pairs: int | None = None) -> None:
    """Raise ExprTypeError if a product of an m-term and an n-term value,
    which multiplies `pairs` (default m * n) term pairs, is past
    `MAX_PRODUCT_PAIRS`.  A product of vectors over one pair of words is
    one `add_product`, whose own check is the same, so it is not counted
    again."""
    pairs = m * n if pairs is None else pairs
    if pairs > MAX_PRODUCT_PAIRS:
        raise ExprTypeError(f"product of {m} and {n} terms has {pairs} term pairs, "
                            f"over the bound {MAX_PRODUCT_PAIRS}")


def add_product(out: dict, a: dict, b: dict) -> dict:
    """Add the product of the monomial -> coefficient dicts `a` and `b` into
    `out` in place, dropping coefficients that cancel to zero; returns `out`.
    Raises ExprTypeError past `MAX_PRODUCT_PAIRS` term pairs."""
    if len(a) * len(b) > MAX_PRODUCT_PAIRS:  # checked inline on this hot path
        _bound_pairs(len(a), len(b))
    for m1, c1 in a.items():
        _add_scaled(out, c1, m1, b)
    return out


def is_int(value) -> bool:
    """Whether `value` is an int; a bool is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_exact(value) -> bool:
    """Whether `value` may enter an exact value: an int (not a bool) or a
    Fraction.  A float would carry its binary fraction into it."""
    return is_int(value) or isinstance(value, Fraction)


def _lift(other) -> Expr:
    """An operand of `+`, `-` or `*` as a value: an Expr as it is, an exact
    number as its scalar constant, anything else NotImplemented."""
    if isinstance(other, Expr):
        return other
    return ScalarExpr.const(other) if is_exact(other) else NotImplemented


class Expr:
    """A canonical value, either sort: `terms` maps a monomial (scalar) or
    a dot-word (vector) to a nonzero coefficient.  Adding, negating,
    multiplying and comparing are defined once for both sorts.  `_lift`
    makes an exact operand of `+`, `-` or `*` the scalar it names and
    any other non-`Expr` operand `NotImplemented`, so Python raises
    TypeError.  `+` is `_sum` and `*` is `_product` of the two operands,
    which own the sort rules of a sum and a product, parsed or not."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = terms if terms is not None else {}

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __add__(self, other) -> "Expr":
        other = _lift(other)
        return other if other is NotImplemented else _sum((self, other))

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return type(self)({k: -c for k, c in self.terms.items()})

    def __sub__(self, other) -> "Expr":
        other = _lift(other)
        return other if other is NotImplemented else _sum((self, -other))

    def __rsub__(self, other) -> "Expr":
        other = _lift(other)
        return other if other is NotImplemented else _sum((-self, other))

    def __mul__(self, other) -> "Expr":
        other = _lift(other)
        return other if other is NotImplemented else _product((self, other))

    __rmul__ = __mul__

    def __repr__(self):
        return f"{type(self).__name__}({len(self.terms)} terms)"


class ScalarExpr(Expr):
    """Canonical scalar value: monomial -> nonzero rational coefficient."""

    __slots__ = ()

    @staticmethod
    def const(value) -> "ScalarExpr":
        """The constant `value`, its coefficient an int when integral, else
        a Fraction.  Raises ExprTypeError unless `value` is exact."""
        if not is_exact(value):
            raise ExprTypeError(f"a number must be an int or a Fraction, got {value!r}")
        c = value.numerator if value.denominator == 1 else value
        return ScalarExpr({EMPTY_MONOMIAL: c} if c else {})

    @staticmethod
    def from_atom(atom: Atom) -> "ScalarExpr":
        return ScalarExpr({((atom, 1),): 1})

    def monomials(self) -> list[tuple[Monomial, int | Fraction]]:
        """The terms in graded-lexicographic order: total degree, then the
        `(atom.key, exponent)` entries in turn.  Each distinct atom is ranked
        by its key once per call, and the sort compares flat integer lists
        `[degree, rank1, exp1, rank2, exp2, ...]`, which order the same way."""
        terms = self.terms
        atoms = {atom for mono in terms for atom, _ in mono}
        rank = {atom: r for r, atom in enumerate(sorted(atoms, key=attrgetter("key")))}

        def flat(item):
            out = [0]
            degree = 0
            for atom, exp in item[0]:
                out += (rank[atom], exp)
                degree += exp
            out[0] = degree
            return out

        return sorted(terms.items(), key=flat)

    def by_word(self) -> Iterable[tuple[None, dict]]:
        """The terms as one `(word, terms)` pair, with no word."""
        return ((None, self.terms),)

    def __pow__(self, n: int) -> "ScalarExpr":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ExprTypeError("negative powers are not supported")
        t = len(self.terms)
        if t > 1 and n > 1:
            if n > MAX_POWER:
                raise ExprTypeError(f"power {int_text(n)} of a sum exceeds the bound {MAX_POWER}")
            size = comb(n + t - 1, t - 1)
            if size > MAX_POWER_TERMS:
                raise ExprTypeError(f"power {n} of a sum of {t} terms has up to {size} "
                                    f"terms, over the bound {MAX_POWER_TERMS}")
        if n > 1:
            bits = max((max(abs(c.numerator), c.denominator).bit_length()
                        for c in self.terms.values()), default=0)
            if bits > 1 and n * bits > MAX_POWER_BITS:
                raise ExprTypeError(f"power {int_text(n)} of a {bits}-bit coefficient exceeds "
                                    f"the bound of {MAX_POWER_BITS} bits")
        acc = None
        base = self
        while n:
            if n & 1:
                acc = base if acc is None else acc * base
            n >>= 1
            if n:
                base = base * base
        return ScalarExpr.const(1) if acc is None else acc


class VectorExpr(Expr):
    """Canonical vector value: dot-word -> nonzero ScalarExpr coefficient."""

    __slots__ = ()

    @staticmethod
    def from_word(w: Word) -> "VectorExpr":
        return VectorExpr({w: ScalarExpr.const(1)})

    def items(self) -> list[tuple[Word, ScalarExpr]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].key)

    def by_word(self) -> Iterable[tuple[Word, dict]]:
        """`(word, terms of its coefficient)` pairs in storage order."""
        for w, c in self.terms.items():
            yield w, c.terms

    def scaled_by(self, factor: ScalarExpr) -> "VectorExpr":
        if len(self.terms) > 1:
            _bound_pairs(_size(self), len(factor.terms))
        return from_units({w: add_product({}, c.terms, factor.terms)
                           for w, c in self.terms.items()}, True)

    def __pow__(self, n):
        raise ExprTypeError("powers apply to scalar expressions only")


def is_scalar(e: Expr) -> bool:
    return isinstance(e, ScalarExpr)


def is_vector(e: Expr) -> bool:
    return isinstance(e, VectorExpr)


def units(e: Expr) -> Iterator[tuple[Word | None, Monomial, int | Fraction]]:
    """`(word, mono, coeff)` for each unit of a canonical value, in storage
    order; `word` is None for a scalar."""
    for word, terms in e.by_word():
        for mono, c in terms.items():
            yield word, mono, c


def _part_error(message: str, part: int) -> ExprTypeError:
    """A sort error blaming operand `part`, whose span `canonicalize` gives it."""
    err = ExprTypeError(message)
    err._part = part
    return err


def _sum(parts) -> Expr:
    """The sum of `parts`, accumulated in one unit map: a copy of the first
    part's map, then each further part added in place.  A zero part of
    either sort adds as nothing; a nonzero scalar part beside a nonzero
    vector part raises ExprTypeError at the first such scalar part.  A
    sum of zeros is a vector if any part is one."""
    kind = type(parts[0])
    if any(type(p) is not kind for p in parts):
        scalars = [i for i, p in enumerate(parts) if is_scalar(p) and p.terms]
        if scalars and any(p.terms for p in parts if is_vector(p)):
            raise _part_error("cannot add scalar and vector values", scalars[0])
        kind = ScalarExpr if scalars else VectorExpr
        parts = [p for p in parts if type(p) is kind]
    out = {w: dict(t) for w, t in parts[0].by_word()}
    for p in parts[1:]:
        for w, terms in p.by_word():
            _add_scaled(out.setdefault(w, {}), 1, EMPTY_MONOMIAL, terms)
    return from_units(out, kind is VectorExpr)


def _product(parts) -> Expr:
    """The product of `parts`: the scalar parts in order, scaling the one
    vector part if any.  A second vector part raises ExprTypeError at
    that part, before any multiplication."""
    vectors = [i for i, p in enumerate(parts) if is_vector(p)]
    if len(vectors) > 1:
        raise _part_error("vector*vector is not defined; use the dot product", vectors[1])
    scalar = None
    for p in parts:
        if is_scalar(p):
            scalar = p if scalar is None else ScalarExpr(add_product({}, scalar.terms, p.terms))
    if scalar is None:
        scalar = ScalarExpr.const(1)
    return parts[vectors[0]].scaled_by(scalar) if vectors else scalar


def _size(v: VectorExpr) -> int:
    """The number of terms of a vector, counting every term of each
    coefficient."""
    return sum([len(c.terms) for c in v.terms.values()])


def add_unit(out: dict, coeff, rest: Monomial, word: Word | None, value: Expr) -> None:
    """Add `coeff * rest * value` into the `word -> {mono: coeff}` map `out`
    in place, dropping terms that cancel; a scalar `value` stays on `word`,
    a vector one brings its own words.  `rest` is multiplied into each
    term of `value` directly, under the same `MAX_PRODUCT_PAIRS` bound as
    ``add_product``.  `value` is never mutated."""
    for w, terms in value.by_word():
        if len(terms) > MAX_PRODUCT_PAIRS:
            _bound_pairs(1, len(terms))
        _add_scaled(out.setdefault(word if w is None else w, {}), coeff, rest, terms)


def from_units(out: dict, vector: bool) -> Expr:
    """The value of sort `vector` held in a `word -> {mono: coeff}` map."""
    if vector:
        return VectorExpr({w: ScalarExpr(t) for w, t in out.items() if t})
    return ScalarExpr(out.get(None, {}))


def require(value, kind: type, what: str) -> None:
    """The one check of an argument's type: raise ExprTypeError, `what`
    followed by the type `value` has, unless `value` is a `kind`."""
    if not isinstance(value, kind):
        raise ExprTypeError(f"{what}, got {type(value).__name__}")


def equal(a: Expr, b: Expr) -> bool:
    """Structural equality of canonical forms.

    The empty scalar and the empty vector are both the canonical zero;
    they compare equal across sorts (both print as "0").  Any other pair
    of values of different sorts, or an operand that is not an Expr,
    raises ExprTypeError.
    """
    for operand in (a, b):
        require(operand, Expr, "equal compares Expr values")
    if type(a) is not type(b):
        if a.is_zero and b.is_zero:
            return True
        raise ExprTypeError("cannot compare scalar and vector values")
    return a == b


def dot(u: VectorExpr, v: VectorExpr) -> VectorExpr:
    """Bilinear dot product of canonical vector values."""
    if not (is_vector(u) and is_vector(v)):
        raise ExprTypeError("dot product requires vector operands")
    if len(u.terms) * len(v.terms) > 1:
        _bound_pairs(_size(u), _size(v))
    out: dict = {}
    for w1, c1 in u.terms.items():
        for w2, c2 in v.terms.items():
            add_product(out.setdefault(Word.pair(w1, w2), {}), c1.terms, c2.terms)
    return from_units(out, True)


def b_of(u: VectorExpr, v: VectorExpr) -> ScalarExpr:
    """Bilinear extension of the b atom; argument order is preserved."""
    if not (is_vector(u) and is_vector(v)):
        raise ExprTypeError("b applies to vector expressions")
    if len(u.terms) * len(v.terms) > 1:
        _bound_pairs(_size(u), _size(v))
    out: dict = {}
    for w1, c1 in u.terms.items():
        for w2, c2 in v.terms.items():
            _add_scaled(out, 1, ((Atom.b(w1, w2), 1),), add_product({}, c1.terms, c2.terms))
    return ScalarExpr(out)


def q_of(v: VectorExpr) -> ScalarExpr:
    """Quadratic extension of the q atom.

    Polarizes over sums pairwise: q(sum ci.wi) = sum ci^2 q(wi)
    + sum_{i<j} ci cj b(wi, wj), pairs taken in canonical word order
    with the earlier word as the first b argument, so it multiplies
    (T^2 + sum |ci|^2) / 2 term pairs for a T-term value.
    """
    if not is_vector(v):
        raise ExprTypeError("q applies to vector expressions")
    if len(v.terms) > 1:
        t = _size(v)
        _bound_pairs(t, t, (t * t + sum(len(c.terms) ** 2 for c in v.terms.values())) // 2)
    items = v.items()
    out: dict = {}
    for i, (wi, ci) in enumerate(items):
        _add_scaled(out, 1, ((Atom.q(wi), 1),), add_product({}, ci.terms, ci.terms))
        for wj, cj in items[i + 1:]:
            _add_scaled(out, 1, ((Atom.b(wi, wj), 1),), add_product({}, ci.terms, cj.terms))
    return ScalarExpr(out)


def word_with(w: Word, left: VectorExpr | None, right: VectorExpr | None) -> VectorExpr:
    """The dot-word `w` rebuilt from new values of its two subwords; None
    keeps that subword as it is."""
    return dot(VectorExpr.from_word(w.left) if left is None else left,
               VectorExpr.from_word(w.right) if right is None else right)


def atom_with(atom: Atom, v1: VectorExpr | None, v2: VectorExpr | None) -> ScalarExpr:
    """The q/b atom rebuilt from new values of its arguments; None keeps
    that argument as it is (`v2` is unused for a q atom)."""
    arg1 = VectorExpr.from_word(atom.w1) if v1 is None else v1
    if atom.is_q:
        return q_of(arg1)
    return b_of(arg1, VectorExpr.from_word(atom.w2) if v2 is None else v2)


class Env:
    """Name resolution context for canonicalization.

    Bound names (session `let` results, rule-template variables) shadow
    declared symbols.
    """

    __slots__ = ("symbols", "bindings")

    def __init__(self, symbols: SymbolTable, bindings: dict[str, Expr] | None = None):
        require(symbols, SymbolTable, "Env argument symbols must be a SymbolTable")
        bindings = {} if bindings is None else bindings
        require(bindings, dict, "Env argument bindings must be a dict")
        self.symbols = symbols
        self.bindings = bindings

    def resolve(self, name: str) -> Expr:
        """The value of `name`: its binding, which must be an Expr, else
        its declared symbol.  A binding is checked here, where it is
        used, because a session's bindings also hold coefficient
        matrices, which no expression can name."""
        bound = self.bindings.get(name)
        if bound is not None:
            if not isinstance(bound, Expr):
                raise ExprTypeError(f"name {name!r} must be bound to an Expr, "
                                    f"got {type(bound).__name__}")
            return bound
        sort, index = self.symbols._entry(name)
        if sort == SCALAR:
            return ScalarExpr.from_atom(Atom.symbol(name, index))
        return VectorExpr.from_word(Word.leaf(name, index))


def nesting_error(raw: rx.RawExpr) -> ExprTypeError:
    """The error for a tree nested too deeply for Python's stack, at the
    span of its root.  The parser bounds nesting, but a tree built by hand
    can exceed it, so a public call that walks a tree recursively turns
    the RecursionError into this one where its walk starts."""
    return ExprTypeError("expression nested too deeply", raw.span)


def canonicalize(raw: rx.RawExpr, env: Env) -> Expr:
    """Reduce an unrestricted parse tree to its canonical form.

    Each node is one call to the operation that owns its sort rule.  An
    ExprTypeError gets the span of the summand or factor it blames, else
    that of its node: the operator of a power, dot, q or b, or the start
    of a product.  An undeclared name (UnknownSymbol) gets the span of
    its identifier.  A tree too deep to walk raises ExprTypeError at the
    span of its root.
    """
    require(env, Env, "canonicalize argument env must be an Env")
    try:
        return _canonicalize(raw, env)
    except RecursionError:
        raise nesting_error(raw) from None


def _canonicalize(raw: rx.RawExpr, env: Env) -> Expr:
    try:
        if isinstance(raw, rx.Num):
            return ScalarExpr.const(raw.value)
        if isinstance(raw, rx.Ident):
            return env.resolve(raw.name)
        if isinstance(raw, rx.Neg):
            return -_canonicalize(raw.item, env)
        if isinstance(raw, rx.Sum):
            return _sum([_canonicalize(item, env) for item in raw.items])
        if isinstance(raw, rx.Mul):
            return _product([_canonicalize(item, env) for item in raw.items])
        if isinstance(raw, rx.Pow):
            return _canonicalize(raw.base, env) ** raw.exponent
        if isinstance(raw, rx.Dot):
            return dot(_canonicalize(raw.left, env), _canonicalize(raw.right, env))
        if isinstance(raw, rx.Q):
            return q_of(_canonicalize(raw.arg, env))
        if isinstance(raw, rx.B):
            return b_of(_canonicalize(raw.left, env), _canonicalize(raw.right, env))
    except (ExprTypeError, UnknownSymbol) as err:
        if err.span is not None:
            raise
        part = getattr(err, "_part", None)
        span = raw.span if part is None else raw.items[part].span
        raise type(err)(err.message, span) from None
    raise ExprTypeError(f"unsupported raw node {type(raw).__name__}")
