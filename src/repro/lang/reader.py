"""The Gozer reader: source text -> s-expression data.

The reader is the first stage of the Gozer pipeline
(read -> macroexpand -> compile -> run on the GVM).  It is modelled on
the Common Lisp reader and, crucially for the paper's Section 3.6, it is
*programmable*: macro characters can be installed at runtime with
:func:`set_macro_character`, which is how Vinz turns every occurrence of
``^task-var^`` into ``(%get-task-var 'task-var^)`` (paper Listing 5).

Data representation (Clojure-flavoured, per the paper's influences):

====================  =========================================
Source                Python value
====================  =========================================
``(a b c)``           ``[Symbol('a'), Symbol('b'), Symbol('c')]``
``foo``               ``Symbol('foo')``
``:key``              ``Keyword('key')``
``"str"``             ``str``
``12`` / ``1.5``      ``int`` / ``float``
``t`` / ``nil``       ``True`` / ``None``
``#\\a``              :class:`Char`
``'x``                ``[Symbol('quote'), x]``
``#'f``               ``[Symbol('function'), Symbol('f')]``
```x`` , ``,x`` , ``,@x``   quasiquote / unquote / unquote-splicing
====================  =========================================

Truthiness follows Clojure: only ``nil`` (``None``) and ``false``
(``False``) are false; the empty list is true.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .errors import IncompleteFormError, ReaderError
from .symbols import (
    Keyword,
    S_FUNCTION,
    S_QUASIQUOTE,
    S_QUOTE,
    S_UNQUOTE,
    S_UNQUOTE_SPLICING,
    Symbol,
)

_WHITESPACE = " \t\n\r\f\v,"  # comma is whitespace, as in Clojure
_TERMINATING = "()\"';"

_NAMED_CHARS = {
    "space": " ",
    "newline": "\n",
    "tab": "\t",
    "return": "\r",
    "nul": "\0",
    "backspace": "\b",
    "page": "\f",
}


class Char:
    """A character literal, e.g. ``#\\a``.

    Kept distinct from one-character strings so that reader macros that
    receive "the macro character" (paper Listing 5) can distinguish the
    two, and so ``princ`` prints them without quotes.
    """

    __slots__ = ("value",)

    def __init__(self, value: str):
        if len(value) != 1:
            raise ValueError("Char must wrap exactly one character")
        self.value = value

    def __repr__(self) -> str:
        return f"#\\{self.value}"

    def __eq__(self, other) -> bool:
        return isinstance(other, Char) and other.value == self.value

    def __hash__(self) -> int:
        return hash((Char, self.value))


class CharStream:
    """A character stream with one-character lookahead and position info.

    Reader macro functions receive this stream object and may call
    :meth:`read_char`, :meth:`peek_char`, :meth:`unread_char` and the
    owning reader's ``read`` — the same protocol as the Lisp-side
    ``(read the-stream ...)`` in the paper's Listing 5.
    """

    def __init__(self, text: str):
        self._text = text
        self._pos = 0
        self.line = 1
        self.column = 0

    def read_char(self) -> Optional[str]:
        """Consume and return the next character, or None at EOF."""
        if self._pos >= len(self._text):
            return None
        ch = self._text[self._pos]
        self._pos += 1
        if ch == "\n":
            self.line += 1
            self.column = 0
        else:
            self.column += 1
        return ch

    def peek_char(self) -> Optional[str]:
        """Return the next character without consuming it."""
        if self._pos >= len(self._text):
            return None
        return self._text[self._pos]

    def unread_char(self) -> None:
        """Push the most recently read character back onto the stream."""
        if self._pos == 0:
            raise ReaderError("cannot unread at start of stream")
        self._pos -= 1
        ch = self._text[self._pos]
        if ch == "\n":
            self.line -= 1
            self.column = 0
        else:
            self.column -= 1

    def at_eof(self) -> bool:
        return self._pos >= len(self._text)


MacroFunction = Callable[["Reader", CharStream, str], object]


class ReadTable:
    """Maps macro characters to reader macro functions.

    A fresh :class:`Reader` copies the default table, so installing
    Vinz's ``^`` macro on one reader does not affect others — mirroring
    per-workflow readtables in Gozer.

    As in Common Lisp, a macro character may be *non-terminating*: it
    triggers its macro function only at the start of a token, and reads
    as an ordinary constituent in the middle of one.  Vinz's ``^``
    macro is installed non-terminating (the paper's Listing 5 passes
    ``t`` as ``set-macro-character``'s final argument) so that
    ``^exit-flag^`` reads the full ``exit-flag^`` symbol.
    """

    def __init__(self, macros: Optional[Dict[str, Tuple[MacroFunction, bool]]] = None):
        self.macros: Dict[str, Tuple[MacroFunction, bool]] = dict(macros or {})

    def copy(self) -> "ReadTable":
        return ReadTable(self.macros)

    def set_macro_character(self, char: str, fn: MacroFunction,
                            non_terminating: bool = False) -> None:
        if len(char) != 1:
            raise ValueError("macro character must be a single character")
        self.macros[char] = (fn, non_terminating)

    def get(self, char: str) -> Optional[MacroFunction]:
        entry = self.macros.get(char)
        return entry[0] if entry is not None else None

    def terminates(self, char: str) -> bool:
        """Does this char end a token being read?"""
        entry = self.macros.get(char)
        return entry is not None and not entry[1]


#: Sentinel returned by reader macros that consume input but produce no
#: value (e.g. comment readers).
NO_VALUE = object()


class Reader:
    """Reads Gozer source text into s-expression data structures."""

    def __init__(self, readtable: Optional[ReadTable] = None):
        self.readtable = readtable.copy() if readtable is not None else ReadTable()

    # -- public API ---------------------------------------------------

    def read_string(self, text: str) -> object:
        """Read exactly one form from ``text``."""
        stream = CharStream(text)
        value = self.read(stream)
        if value is NO_VALUE:
            raise IncompleteFormError("no form found in input")
        return value

    def read_all(self, text: str) -> List[object]:
        """Read every form in ``text`` and return them as a list."""
        stream = CharStream(text)
        forms: List[object] = []
        while True:
            value = self.read(stream, eof_error=False)
            if value is NO_VALUE:
                break
            forms.append(value)
        return forms

    def read(self, stream: CharStream, eof_error: bool = True) -> object:
        """Read one form from ``stream``.

        Returns :data:`NO_VALUE` at end of input when ``eof_error`` is
        false; raises :class:`IncompleteFormError` otherwise.
        """
        while True:
            self._skip_whitespace_and_comments(stream)
            ch = stream.read_char()
            if ch is None:
                if eof_error:
                    raise IncompleteFormError(
                        "unexpected end of input", stream.line, stream.column
                    )
                return NO_VALUE

            macro = self.readtable.get(ch)
            if macro is not None:
                value = macro(self, stream, ch)
                if value is NO_VALUE:
                    continue
                return value

            if ch == "(":
                return self._read_list(stream)
            if ch == ")":
                raise ReaderError("unbalanced ')'", stream.line, stream.column)
            if ch == '"':
                return self._read_string_literal(stream)
            if ch == "'":
                return [S_QUOTE, self._read_required(stream)]
            if ch == "`":
                return [S_QUASIQUOTE, self._read_required(stream)]
            if ch == "~":
                # Clojure-style unquote, accepted alongside Lisp's comma
                # (which Gozer treats as whitespace, Clojure-style).
                if stream.peek_char() == "@":
                    stream.read_char()
                    return [S_UNQUOTE_SPLICING, self._read_required(stream)]
                return [S_UNQUOTE, self._read_required(stream)]
            if ch == "#":
                value = self._read_dispatch(stream)
                if value is NO_VALUE:  # e.g. a #| block comment |#
                    continue
                return value
            return self._read_atom(stream, ch)

    # -- internals ----------------------------------------------------

    def _read_required(self, stream: CharStream) -> object:
        value = self.read(stream)
        if value is NO_VALUE:  # pragma: no cover - read() raises first
            raise IncompleteFormError("unexpected end of input")
        return value

    def _skip_whitespace_and_comments(self, stream: CharStream) -> None:
        while True:
            ch = stream.peek_char()
            if ch is None:
                return
            if ch in _WHITESPACE:
                stream.read_char()
                continue
            if ch == ";":
                while True:
                    ch = stream.read_char()
                    if ch is None or ch == "\n":
                        break
                continue
            return

    def _read_list(self, stream: CharStream) -> List[object]:
        items: List[object] = []
        while True:
            self._skip_whitespace_and_comments(stream)
            ch = stream.peek_char()
            if ch is None:
                raise IncompleteFormError("unterminated list", stream.line, stream.column)
            if ch == ")":
                stream.read_char()
                return items
            value = self.read(stream)
            if value is not NO_VALUE:
                items.append(value)

    def _read_string_literal(self, stream: CharStream) -> str:
        chunks: List[str] = []
        while True:
            ch = stream.read_char()
            if ch is None:
                raise IncompleteFormError("unterminated string", stream.line, stream.column)
            if ch == '"':
                return "".join(chunks)
            if ch == "\\":
                esc = stream.read_char()
                if esc is None:
                    raise IncompleteFormError(
                        "unterminated string escape", stream.line, stream.column
                    )
                chunks.append(
                    {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\", '"': '"'}.get(
                        esc, esc
                    )
                )
            else:
                chunks.append(ch)

    def _read_dispatch(self, stream: CharStream) -> object:
        ch = stream.read_char()
        if ch is None:
            raise IncompleteFormError("unterminated '#' dispatch", stream.line, stream.column)
        if ch == "'":
            return [S_FUNCTION, self._read_required(stream)]
        if ch == "\\":
            return self._read_char_literal(stream)
        if ch == "|":
            self._skip_block_comment(stream)
            return NO_VALUE
        if ch == ":":
            # Uninterned-symbol syntax; we give back a gensym-looking
            # symbol.  Interning it is a benign simplification.
            token = self._read_token(stream, "")
            return Symbol("#:" + token)
        if ch == "(":
            # Vector literal (Clojure influence); we read it as a list
            # tagged with the `vector` constructor.
            items = self._read_list(stream)
            return [Symbol("vector"), *items]
        if ch in "xXoObB":
            # CL radix literals: #x1F #o17 #b1010
            token = self._read_token(stream, "")
            base = {"x": 16, "o": 8, "b": 2}[ch.lower()]
            try:
                negative = token.startswith("-")
                magnitude = token[1:] if negative else token
                value = int(magnitude, base)
                return -value if negative else value
            except ValueError:
                raise ReaderError(f"bad base-{base} literal #{ch}{token}",
                                  stream.line, stream.column)
        raise ReaderError(f"unknown dispatch macro '#{ch}'", stream.line, stream.column)

    def _skip_block_comment(self, stream: CharStream) -> None:
        depth = 1
        while depth:
            ch = stream.read_char()
            if ch is None:
                raise IncompleteFormError(
                    "unterminated block comment", stream.line, stream.column
                )
            if ch == "#" and stream.peek_char() == "|":
                stream.read_char()
                depth += 1
            elif ch == "|" and stream.peek_char() == "#":
                stream.read_char()
                depth -= 1

    def _read_char_literal(self, stream: CharStream) -> Char:
        first = stream.read_char()
        if first is None:
            raise IncompleteFormError("unterminated character literal")
        token = first
        while True:
            ch = stream.peek_char()
            if ch is None or ch in _WHITESPACE or ch in _TERMINATING:
                break
            token += stream.read_char()
        if len(token) == 1:
            return Char(token)
        named = _NAMED_CHARS.get(token.lower())
        if named is None:
            raise ReaderError(f"unknown character name #\\{token}", stream.line, stream.column)
        return Char(named)

    def _read_token(self, stream: CharStream, initial: str) -> str:
        token = initial
        while True:
            ch = stream.peek_char()
            if ch is None or ch in _WHITESPACE or ch in _TERMINATING:
                break
            if self.readtable.terminates(ch):
                break
            token += stream.read_char()
        return token

    def _read_atom(self, stream: CharStream, first: str) -> object:
        token = self._read_token(stream, first)
        return parse_token(token, stream.line, stream.column)


def parse_token(token: str, line: int | None = None, column: int | None = None) -> object:
    """Classify a bare token as number, keyword, boolean, nil or symbol."""
    if token.startswith(":") and len(token) > 1:
        return Keyword(token[1:])
    try:
        number = _try_parse_number(token)
    except ZeroDivisionError:
        raise ReaderError(f"ratio {token} has a zero denominator",
                          line, column) from None
    if number is not None:
        return number
    if token == "t" or token == "true":
        return True
    if token == "false":
        return False
    if token == "nil":
        return None
    if not token:
        raise ReaderError("empty token", line, column)
    return Symbol(token)


def _try_parse_number(token: str) -> Optional[object]:
    if not token:
        return None
    head = token[0]
    if not (head.isdigit() or (head in "+-." and len(token) > 1 and any(c.isdigit() for c in token))):
        return None
    try:
        return _int_token(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    if "/" in token:
        num, _, den = token.partition("/")
        try:
            from fractions import Fraction

            return Fraction(_int_token(num), _int_token(den))
        except ValueError:
            return None
    return None


def _int_token(token: str) -> int:
    """``int(token)``, however many digits.  Python's ``int`` refuses a
    string longer than ``sys.get_int_max_str_digits()`` digits; such a
    token of decimal digits (after an optional sign, with a single
    ``_`` between two digits where ``int`` allows one) is read in two
    halves, each the same way, and the process-wide limit is left
    alone."""
    try:
        return int(token)
    except ValueError:
        digits = token[1:] if token[:1] in ("+", "-") else token
        if digits[:1] == "_" or digits[-1:] == "_" or "__" in digits:
            raise
        digits = digits.replace("_", "")
        if len(digits) < 2 or not (digits.isascii() and digits.isdigit()):
            raise
    half = len(digits) // 2
    value = _int_token(digits[:-half]) * 10 ** half \
        + _int_token(digits[-half:])
    return -value if token[0] == "-" else value


def read_string(text: str, readtable: Optional[ReadTable] = None) -> object:
    """Convenience: read a single form from ``text``."""
    return Reader(readtable).read_string(text)


def read_all(text: str, readtable: Optional[ReadTable] = None) -> List[object]:
    """Convenience: read every form in ``text``."""
    return Reader(readtable).read_all(text)
