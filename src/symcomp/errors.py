"""The record base and the exception types shared across the package.

`Record` is the base of every immutable value the package defines (spans,
tokens, parse trees, session steps and reports, the oracle's
`ParaQuaternion`): a slotted class compared, hashed and shown by value,
whose fields cannot be assigned or deleted.  A record declares its fields
only in `__slots__` (and trailing defaults in `_defaults`); `Record`
generates its constructor from them, unless the record writes its own, as
`ParaQuaternion` alone does.
`int_text` writes an integer into an error message, naming one too long
for Python's integer-string conversion by its digit count.
"""
from __future__ import annotations

# Record constructors set their fields through the base setter, which a
# record's own `__setattr__` refuses.
_set = object.__setattr__


class Record:
    """An immutable value with slots.  A subclass declares its new fields
    in `__slots__` and nothing else: its `_fields` are the inherited fields
    followed by its own, and its generated constructor takes `_fields` in
    order, each positional or keyword, the last ones defaulting to the
    values in `_defaults`.  A subclass that defines `__init__` keeps it
    and sets its fields through `_set`.  `_compared`, the fields that
    equality, hashing and the repr read, defaults to `_fields`.  Records
    are equal when they are of one class and their compared fields are
    equal; assigning or deleting a field raises AttributeError.  A record
    hashes only when its compared fields do: an `Assignment` (dicts), a
    `CoeffMatrix` (canonical values) and an `IdentityReport` that holds a
    counterexample raise TypeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()
    _defaults: tuple = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__base__._fields + tuple(cls.__dict__.get("__slots__", ()))
        if "_compared" not in cls.__dict__:
            cls._compared = cls._fields
        if "__init__" in cls.__dict__:
            return
        # Python has checked that slot names are identifiers, so the
        # source below holds nothing else.  A generated body costs what a
        # hand-written one does; a generic *args constructor is slower.
        body = "".join(f"\n    _set(self, {name!r}, {name})" for name in cls._fields)
        namespace = {"_set": _set, "__name__": cls.__module__}
        exec(f"def __init__(self, {', '.join(cls._fields)}):{body}", namespace)
        init = namespace["__init__"]
        init.__defaults__ = cls._defaults or None
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")


class SourceSpan(Record):
    """Location of a token or node in an input text (1-based line/column)."""

    __slots__ = ("line", "column")

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


def digit_count(n: int) -> int:
    """The number of decimal digits of `n`, without converting it to a string."""
    n = abs(n)
    # 30102 / 100000 is just under log10(2), so 10^k <= n to start with.
    k = max(n.bit_length() - 1, 0) * 30102 // 100000
    while 10 ** (k + 1) <= n:
        k += 1
    return k + 1


def int_text(n: int) -> str:
    """`n` in decimal or, past Python's integer-string conversion limit,
    `of D digits`: "exponent 300" or "exponent of 4516 digits"."""
    try:
        return str(n)
    except ValueError:
        return f"of {digit_count(n)} digits"


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
    """A rule set did not reach a fixpoint within `rules.MAX_PASSES` passes."""


class MissingSymbol(SymcompError):
    """An assignment does not cover a symbol used by the expression."""


class EngineError(SymcompError):
    """Internal contract violation during rewriting or session execution."""
