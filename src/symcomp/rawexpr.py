"""Unrestricted parse trees produced by the parser.

A RawExpr is whatever the grammar accepts: sums, negations, products,
powers, dots of arbitrary subexpressions.  Canonicalization turns a
RawExpr into a typed canonical value and is the only consumer.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import SourceSpan

_NOSPAN = SourceSpan(1, 1)


@dataclass(frozen=True)
class RawExpr:
    pass


@dataclass(frozen=True)
class Num(RawExpr):
    value: Fraction
    span: SourceSpan = field(default=_NOSPAN, compare=False)


@dataclass(frozen=True)
class Ident(RawExpr):
    name: str
    span: SourceSpan = field(default=_NOSPAN, compare=False)


@dataclass(frozen=True)
class Sum(RawExpr):
    items: tuple[RawExpr, ...]
    span: SourceSpan = field(default=_NOSPAN, compare=False)


@dataclass(frozen=True)
class Neg(RawExpr):
    item: RawExpr
    span: SourceSpan = field(default=_NOSPAN, compare=False)


@dataclass(frozen=True)
class Mul(RawExpr):
    items: tuple[RawExpr, ...]
    span: SourceSpan = field(default=_NOSPAN, compare=False)


@dataclass(frozen=True)
class Dot(RawExpr):
    left: RawExpr
    right: RawExpr
    span: SourceSpan = field(default=_NOSPAN, compare=False)


@dataclass(frozen=True)
class Q(RawExpr):
    arg: RawExpr
    span: SourceSpan = field(default=_NOSPAN, compare=False)


@dataclass(frozen=True)
class B(RawExpr):
    left: RawExpr
    right: RawExpr
    span: SourceSpan = field(default=_NOSPAN, compare=False)


@dataclass(frozen=True)
class Pow(RawExpr):
    base: RawExpr
    exponent: int
    span: SourceSpan = field(default=_NOSPAN, compare=False)


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
