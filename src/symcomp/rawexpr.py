"""Unrestricted parse trees produced by the parser.

A RawExpr is whatever the grammar accepts: sums, negations, products,
powers, dots of arbitrary subexpressions.  Canonicalization turns a
RawExpr into a typed canonical value and is the only consumer.

Nodes are immutable records (see `errors.Record`), so trees can be shared:
every node carries the `span` of its source text, and two nodes are equal
when they are of one type with equal fields other than their spans.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import Record, SourceSpan, _set

_NOSPAN = SourceSpan(1, 1)


class RawExpr(Record):
    __slots__ = ("span",)


class Num(RawExpr):
    __slots__ = ("value",)
    _compared = __slots__

    def __init__(self, value: Fraction, span: SourceSpan = _NOSPAN):
        _set(self, "value", value)
        _set(self, "span", span)


class Ident(RawExpr):
    __slots__ = ("name",)
    _compared = __slots__

    def __init__(self, name: str, span: SourceSpan = _NOSPAN):
        _set(self, "name", name)
        _set(self, "span", span)


class Sum(RawExpr):
    __slots__ = ("items",)
    _compared = __slots__

    def __init__(self, items: tuple[RawExpr, ...], span: SourceSpan = _NOSPAN):
        _set(self, "items", items)
        _set(self, "span", span)


class Neg(RawExpr):
    __slots__ = ("item",)
    _compared = __slots__

    def __init__(self, item: RawExpr, span: SourceSpan = _NOSPAN):
        _set(self, "item", item)
        _set(self, "span", span)


class Mul(RawExpr):
    __slots__ = ("items",)
    _compared = __slots__

    def __init__(self, items: tuple[RawExpr, ...], span: SourceSpan = _NOSPAN):
        _set(self, "items", items)
        _set(self, "span", span)


class Dot(RawExpr):
    __slots__ = ("left", "right")
    _compared = __slots__

    def __init__(self, left: RawExpr, right: RawExpr, span: SourceSpan = _NOSPAN):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "span", span)


class Q(RawExpr):
    __slots__ = ("arg",)
    _compared = __slots__

    def __init__(self, arg: RawExpr, span: SourceSpan = _NOSPAN):
        _set(self, "arg", arg)
        _set(self, "span", span)


class B(RawExpr):
    __slots__ = ("left", "right")
    _compared = __slots__

    def __init__(self, left: RawExpr, right: RawExpr, span: SourceSpan = _NOSPAN):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "span", span)


class Pow(RawExpr):
    __slots__ = ("base", "exponent")
    _compared = __slots__

    def __init__(self, base: RawExpr, exponent: int, span: SourceSpan = _NOSPAN):
        _set(self, "base", base)
        _set(self, "exponent", exponent)
        _set(self, "span", span)


def nodes(raw: RawExpr, kind: type):
    """Yield every node of type `kind` in the tree, each before its
    children, in appearance order."""
    stack = [raw]
    while stack:
        node = stack.pop()
        if isinstance(node, kind):
            yield node
        if isinstance(node, (Ident, Num)):
            continue
        if isinstance(node, (Sum, Mul)):
            stack.extend(reversed(node.items))
        elif isinstance(node, Neg):
            stack.append(node.item)
        elif isinstance(node, (Dot, B)):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, Q):
            stack.append(node.arg)
        elif isinstance(node, Pow):
            stack.append(node.base)


def idents(raw: RawExpr):
    """Yield every Ident node in the tree, in appearance order."""
    return nodes(raw, Ident)
