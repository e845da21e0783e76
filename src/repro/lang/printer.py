"""Printing Gozer values back to readable source text.

``print_form`` (Lisp ``prin1``) produces text the reader can read back;
``princ_form`` produces human-friendly text (strings unquoted).  Used by
the REPL example, error reports, and the reader round-trip property
tests.
"""

from __future__ import annotations

import sys
from typing import Any

from .reader import Char
from .symbols import Keyword, Symbol

_STRING_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}


#: log10(2): an int of b bits has about b times this many digits
_DIGITS_PER_BIT = 0.30102999566398120


def int_text(value: int) -> str:
    """The decimal digits of ``value``, however many.  Python's ``str``
    refuses an int longer than ``sys.get_int_max_str_digits()`` digits;
    such an int is split by a power of ten into two halves, each
    printed the same way, and the process-wide limit is left alone."""
    try:
        return str(value)
    except ValueError:
        pass
    if value < 0:
        return "-" + int_text(-value)
    half = int(value.bit_length() * _DIGITS_PER_BIT) // 2
    high, low = divmod(value, 10 ** half)
    return int_text(high) + int_text(low).zfill(half)


def print_form(value: Any) -> str:
    """Render ``value`` as reader-compatible Gozer source text."""
    if value is None:
        return "nil"
    if value is True:
        return "t"
    if value is False:
        return "false"
    if isinstance(value, Symbol):
        return value.name
    if isinstance(value, Keyword):
        return ":" + value.name
    if isinstance(value, str):
        out = "".join(_STRING_ESCAPES.get(ch, ch) for ch in value)
        return f'"{out}"'
    if isinstance(value, Char):
        reverse = {" ": "Space", "\n": "Newline", "\t": "Tab", "\r": "Return"}
        name = reverse.get(value.value, value.value)
        return f"#\\{name}"
    if isinstance(value, float):
        text = repr(value)
        return text
    if isinstance(value, bool):  # pragma: no cover - caught above
        return "t" if value else "false"
    if isinstance(value, (int,)):
        return int_text(value)
    # a ratio: no value can be one unless ``fractions`` is loaded, and
    # loading it for every process would cost memory
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(value, fractions.Fraction):
        return int_text(value.numerator) + "/" + int_text(value.denominator)
    if isinstance(value, (list, tuple)):
        return "(" + " ".join(print_form(item) for item in value) + ")"
    if isinstance(value, dict):
        inner = " ".join(
            f"{print_form(k)} {print_form(v)}" for k, v in value.items()
        )
        return "{" + inner + "}"
    return str(value)


def princ_form(value: Any) -> str:
    """Render ``value`` for human display (strings and chars bare)."""
    if isinstance(value, str):
        return value
    if isinstance(value, Char):
        return value.value
    if isinstance(value, (list, tuple)):
        return "(" + " ".join(princ_form(item) for item in value) + ")"
    return print_form(value)
