"""The input syntax shared by every file format and CLI value, its error
type, `Frozen`, the base of every immutable record in both halves, and
`json_text`, the writer of their indented JSON reports."""

from __future__ import annotations

import re
import string
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Iterator

IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
"""Regex for a variable, parameter or constant name in every format."""

NAME_START = frozenset(string.ascii_letters + "_")
"""The characters an IDENT may start with."""

TOKEN = re.compile(rf"{IDENT}|\S")
"""A token of the expression and polynomial formats: an identifier or one
other visible character.  `TOKEN.findall(line)` splits a line into its
tokens and drops the whitespace between them; it tokenizes every rule, and
the polynomial lines that `gf2.parse_poly`'s splits reject, to find their
first error."""

_LINE_BREAK = re.compile(r"\r\n?|\n")

_set = object.__setattr__

MAX_EXPONENT = 10 ** 6
"""Largest decimal exponent accepted in a rational: `Fraction` builds
10^|e| before anything can check the value, so the bound goes first."""


class Frozen:
    """Base of the immutable records of both halves.

    A subclass lists its fields in ``_fields``, stored in slots and taken by
    the constructor in order or by name, unless its own ``__init__`` checks,
    converts or defaults them; state kept apart, such as a cache, lives in
    slots that ``_fields`` does not name.  Records compare equal when class
    and fields are equal, hash as the tuple of their fields, print as
    ``Name(field=value, ...)``, refuse assignment and deletion, and pickle
    and copy through their constructor, given their fields (a record whose
    constructor needs more overrides ``__reduce__``): what a frozen
    dataclass gives, without generating code at import.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **named):
        fields = self._fields
        if named:  # the fields after those given in order, by name
            args += tuple([named.pop(name) for name in fields[len(args):] if name in named])
        if len(args) != len(fields) or named:
            raise TypeError(f"{self.__class__.__qualname__}() takes {', '.join(fields)}, each once;"
                            f" got {len(args)} of them" + "".join(f" and {n!r}" for n in named))
        for name, value in zip(fields, args):
            _set(self, name, value)

    def _init(self, *values) -> None:
        """Store values in the slots the class declares, in their order."""
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def replace(self, **changes):
        """A copy with the given fields changed.  It is built by the
        constructor from what pickling would pass it, so the constructor's
        checks run again; a name that is not a field is refused there."""
        cls, args = self.__reduce__()
        return cls(*[changes.pop(name, value) for name, value in zip(self._fields, args)],
                   *args[len(self._fields):], **changes)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


def json_text(obj, indent: str = "\n") -> str:
    """`json.dumps(obj, indent=2)` for a tree of dicts with str keys, lists,
    str and int, the shapes of the indented reports.

    With an indent, `json` encodes in pure Python; here each string goes
    through `json`'s own C string encoder, and each container is one join.
    Any other type, bool, float and None included, and any key that is not
    a str raise TypeError, so the text never differs from `json`'s.
    indent is the line break and indentation a nested value starts from.
    """
    kind = obj.__class__
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return repr(obj)
    inner = indent + "  "
    if kind is list:
        if not obj:
            return "[]"
        items = [json_text(item, inner) for item in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if kind is dict:
        if not obj:
            return "{}"
        # the string encoder refuses a key that is not a str
        items = [encode_basestring_ascii(key) + ": " + json_text(value, inner)
                 for key, value in obj.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"json_text cannot render {kind.__name__}")


class ParseError(ValueError):
    """Malformed textual input; carries the 1-based source line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def source_lines(text: str) -> Iterator[tuple[int, str]]:
    """(1-based line number, content) of each non-blank line; ``#`` starts a comment.

    Lines end only at ``\\n``, ``\\r\\n`` or ``\\r``, as text-mode `open` reads
    them; other characters that `str.splitlines` breaks at (``\\f``,
    ``\\x1c``, ``\\u2028`` ...) are whitespace inside a line.
    """
    for lineno, raw in enumerate(_LINE_BREAK.split(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def scan_error(tokens: list[str], symbols: str, noun: str, message: str,
               line: int | None) -> ParseError:
    """The ParseError for a line that `TOKEN` split into tokens.  Its first
    unexpected character, a token that is neither a name nor one of the
    format's symbols, takes priority over message, the grammar error."""
    for tok in tokens:
        if tok[0] not in NAME_START and tok not in symbols:
            return ParseError(f"unexpected character {tok!r} in {noun}", line)
    return ParseError(message, line)


def parse_rational(text: str) -> Fraction:
    """Exact rational from '1/3', '0.25' or '1e-6'; no 'inf', 'nan' or stray '_'."""
    exponent = text.lower().partition("e")[2]
    try:
        if not exponent or abs(int(exponent)) <= MAX_EXPONENT:
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"invalid rational {text!r}")
