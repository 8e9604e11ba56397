"""Unrestricted parse trees produced by the parser.

A RawExpr is whatever the grammar accepts: sums, negations, products,
powers, dots of arbitrary subexpressions.  Canonicalization turns a
RawExpr into a typed canonical value and is the only consumer.

Nodes are immutable records (see `errors.Record`), so trees can be shared.
A node declares only its own fields; every node also carries the `span`
of its source text, last and defaulted.  Two nodes are equal when they
are of one type with equal fields other than their spans, and the repr
leaves the span out.
"""
from __future__ import annotations

from .errors import Record, SourceSpan

_NOSPAN = SourceSpan(1, 1)


class RawExpr(Record):
    """A parse-tree node: its own fields, then `span`.  `Num.value` is a
    Fraction, `Ident.name` a name, `Pow.exponent` an int, `items` a tuple
    of nodes and every other field a node."""

    __slots__ = ("span",)
    _defaults = (_NOSPAN,)

    def __init_subclass__(cls):
        cls._fields = cls.__slots__ + ("span",)
        cls._compared = cls.__slots__
        super().__init_subclass__()


class Num(RawExpr):
    __slots__ = ("value",)


class Ident(RawExpr):
    __slots__ = ("name",)


class Sum(RawExpr):
    __slots__ = ("items",)


class Neg(RawExpr):
    __slots__ = ("item",)


class Mul(RawExpr):
    __slots__ = ("items",)


class Dot(RawExpr):
    __slots__ = ("left", "right")


class Q(RawExpr):
    __slots__ = ("arg",)


class B(RawExpr):
    __slots__ = ("left", "right")


class Pow(RawExpr):
    __slots__ = ("base", "exponent")


def nodes(raw: RawExpr, kind: type):
    """Yield every node of type `kind` in the tree, each before its
    children, in appearance order.  A node's children are the fields it
    declares that hold a node or a tuple of nodes."""
    stack = [raw]
    while stack:
        node = stack.pop()
        if isinstance(node, kind):
            yield node
        children = []
        for field in node.__slots__:
            value = getattr(node, field)
            if isinstance(value, RawExpr):
                children.append(value)
            elif isinstance(value, tuple):
                children.extend(value)
        stack.extend(reversed(children))


def idents(raw: RawExpr):
    """Yield every Ident node in the tree, in appearance order."""
    return nodes(raw, Ident)
