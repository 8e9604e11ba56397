"""Exception types shared across the package."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SourceSpan:
    """Location of a token or node in an input text (1-based line/column)."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class SymcompError(Exception):
    """Base class for all errors raised by this package.  `span`, when
    given, locates the error in its input and prefixes the text as
    `line:column: message`."""

    def __init__(self, message: str, span: SourceSpan | None = None):
        super().__init__(message if span is None else f"{span}: {message}")
        self.message = message
        self.span = span


class ParseError(SymcompError):
    """Syntax error; always carries a span inside the offending input."""


class ChainedDotError(ParseError):
    """Raised for `a.b.c`: the product is non-associative, parenthesize."""


class ArityError(ParseError):
    """Raised when q(...) or b(...) is called with the wrong argument count."""


class UndefinedName(ParseError):
    """A script statement references a name that has not been defined."""


class RuleSetUnknown(SymcompError):
    """A rule set name is not in the catalog and was not defined locally."""


class UnknownSymbol(SymcompError):
    """An identifier is neither a declared symbol nor a bound name."""


class ExprTypeError(SymcompError, TypeError):
    """Scalar and vector values were mixed illegally, or a value grew past
    a bound; carries the span of the offending node when it comes from a
    parse tree."""


class NonTermination(SymcompError):
    """A rule set did not reach a fixpoint within the pass cap."""


class MissingSymbol(SymcompError):
    """An assignment does not cover a symbol used by the expression."""


class EngineError(SymcompError):
    """Internal contract violation during rewriting or session execution."""
