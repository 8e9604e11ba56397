"""Deterministic text form for canonical expressions.

Output is valid input for the expression grammar, so printing and
re-parsing round-trips: monomials appear in canonical order, scalar
multiplication is explicit (`*`), rationals print as `p/q`, and every
nested dot is parenthesized.  Distinct canonical values print differently.
"""
from __future__ import annotations

from fractions import Fraction

from .core import Atom, Expr, Monomial, ScalarExpr, VectorExpr, Word, is_scalar, require
from .errors import SymcompError, digit_count


def word_text(w: Word, texts: dict) -> str:
    """The text of a word; `texts` memoizes each word's text for one
    `print_expr` call, so a subword shared by many words is rendered once."""
    text = texts.get(w)
    if text is None:
        text = texts[w] = w.name if w.is_leaf else \
            f"{_dot_side(w.left, texts)}.{_dot_side(w.right, texts)}"
    return text


def _dot_side(w: Word, texts: dict) -> str:
    return w.name if w.is_leaf else f"({word_text(w, texts)})"


def atom_text(atom: Atom, texts: dict) -> str:
    if atom.is_symbol:
        return atom.name
    if atom.is_q:
        return f"q({word_text(atom.w1, texts)})"
    return f"b({word_text(atom.w1, texts)},{word_text(atom.w2, texts)})"


def _mono_factors(mono: Monomial, texts: dict) -> str:
    """The factors of a monomial; `texts` memoizes each atom's text for one
    `print_expr` call."""
    parts = []
    try:
        for atom, exp in mono:
            text = texts.get(atom)
            if text is None:
                text = texts[atom] = atom_text(atom, texts)
            parts.append(text if exp == 1 else f"{text}^{exp}")
    except ValueError:
        raise _too_long("exponent", max(exp for _, exp in mono)) from None
    return "*".join(parts)


def _coeff_text(c: Fraction) -> str:
    """`p` or `p/q`."""
    try:
        return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    except ValueError:
        raise _too_long("coefficient", max(abs(c.numerator), c.denominator)) from None


def _too_long(what: str, n: int) -> SymcompError:
    """The error for a number past Python's integer-string conversion
    limit, which the parser could not read back either."""
    return SymcompError(f"{what} too long to print: {digit_count(n)} digits")


def _product_text(mag: Fraction, *factors: str) -> str:
    """`mag` times the non-empty factors; a unit magnitude is left out
    unless there is no factor to show."""
    pieces = [f for f in factors if f]
    if mag != 1 or not pieces:
        pieces.insert(0, _coeff_text(mag))
    return "*".join(pieces)


def _join(parts: list[tuple[bool, str]]) -> str:
    if not parts:
        return "0"
    negative, text = parts[0]
    out = [f"-{text}" if negative else text]
    for negative, text in parts[1:]:
        out.append(f" - {text}" if negative else f" + {text}")
    return "".join(out)


def scalar_text(e: ScalarExpr, texts: dict) -> str:
    return _join([(c < 0, _product_text(abs(c), _mono_factors(mono, texts)))
                  for mono, c in e.monomials()])


def vector_text(e: VectorExpr, texts: dict) -> str:
    parts: list[tuple[bool, str]] = []
    for word, coeff in e.items():
        wtext = _dot_side(word, texts)
        monos = coeff.monomials()
        if len(monos) == 1:
            mono, c = monos[0]
            parts.append((c < 0, _product_text(abs(c), _mono_factors(mono, texts), wtext)))
        else:
            parts.append((False, f"({scalar_text(coeff, texts)})*{wtext}"))
    return _join(parts)


def print_expr(e: Expr) -> str:
    """Deterministic canonical text for a scalar or vector value.  One
    `texts` memo holds the text of each distinct word and atom."""
    require(e, Expr, "print_expr argument e must be an Expr")
    texts: dict = {}
    return scalar_text(e, texts) if is_scalar(e) else vector_text(e, texts)
