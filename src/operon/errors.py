"""The input syntax shared by every file format and CLI value, and its error type."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
"""Regex for a variable, parameter or constant name in every format."""

MAX_EXPONENT = 10 ** 6
"""Largest decimal exponent accepted in a rational: `Fraction` builds
10^|e| before anything can check the value, so the bound goes first."""


class ParseError(ValueError):
    """Malformed textual input; carries the 1-based source line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def source_lines(text: str) -> Iterator[tuple[int, str]]:
    """(1-based line number, content) of each non-blank line; ``#`` starts a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_rational(text: str) -> Fraction:
    """Exact rational from '1/3', '0.25' or '1e-6'; no 'inf', 'nan' or stray '_'."""
    exponent = text.lower().partition("e")[2]
    try:
        if not exponent or abs(int(exponent)) <= MAX_EXPONENT:
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"invalid rational {text!r}")
