"""Symbols and keywords — the atoms of Gozer source code.

Symbols are interned: two occurrences of ``foo`` in source text read as
the *same* object, which makes ``eq`` comparisons cheap and lets the
compiler use symbols directly as dictionary keys.  Interning survives
pickling (fibers are serialized and migrated between cluster nodes, see
Section 4.2 of the paper), so both :class:`Symbol` and :class:`Keyword`
reduce to their interning constructor.

Gozer is case-sensitive but conventionally lower-case, like Clojure and
unlike Common Lisp's default read table.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
from typing import Dict


class Symbol:
    """An interned identifier.

    Use :func:`intern_symbol` (or the :class:`Symbol` constructor, which
    delegates to the intern table) to obtain instances.
    """

    __slots__ = ("name",)

    _table: Dict[str, "Symbol"] = {}
    _lock = threading.Lock()

    def __new__(cls, name: str) -> "Symbol":
        if not isinstance(name, str):
            raise TypeError(f"symbol name must be a string, not {type(name).__name__}")
        table = cls._table
        sym = table.get(name)
        if sym is None:
            with cls._lock:
                sym = table.get(name)
                if sym is None:
                    sym = object.__new__(cls)
                    sym.name = name
                    table[name] = sym
        return sym

    def __repr__(self) -> str:
        return self.name

    def __reduce__(self):
        return (Symbol, (self.name,))

    # Interning makes identity the correct equality, so we deliberately
    # keep object's C-level __hash__/__eq__: symbol-keyed dict lookups
    # are the hottest operation in the VM (variable access), and a
    # Python-level __hash__ would dominate the interpreter's profile.

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    @property
    def is_task_variable(self) -> bool:
        """True for ``^earmuffed^`` task-variable names (Section 3.6)."""
        return len(self.name) >= 2 and self.name.startswith("^") and self.name.endswith("^")


class Keyword:
    """A self-evaluating ``:keyword`` constant, also interned.

    Keywords are used for named function arguments (``&key``), plist
    keys, and the option syntax of macros like ``deflink`` and
    ``defhandler``.
    """

    __slots__ = ("name",)

    _table: Dict[str, "Keyword"] = {}
    _lock = threading.Lock()

    def __new__(cls, name: str) -> "Keyword":
        if not isinstance(name, str):
            raise TypeError(f"keyword name must be a string, not {type(name).__name__}")
        table = cls._table
        kw = table.get(name)
        if kw is None:
            with cls._lock:
                kw = table.get(name)
                if kw is None:
                    kw = object.__new__(cls)
                    kw.name = name
                    table[name] = kw
        return kw

    def __repr__(self) -> str:
        return ":" + self.name

    def __reduce__(self):
        return (Keyword, (self.name,))

    # interned: identity IS equality (see Symbol above)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


def intern_symbol(name: str) -> Symbol:
    """Return the unique :class:`Symbol` named ``name``."""
    return Symbol(name)


_gensym_counter = itertools.count(1)


@contextlib.contextmanager
def gensym_scope(start: int = 1):
    """Draw gensyms from a fresh counter inside the ``with`` block.

    Compiling the same program always expands to the same gensym names,
    no matter what else the process compiled before — which keeps
    serialized fiber state byte-identical across repeated runs (the
    fault-injection subsystem's replay guarantee depends on it).  Safe
    because gensym uniqueness only matters *within* one expansion scope:
    the outer counter is restored, not advanced, on exit.
    """
    global _gensym_counter
    saved = _gensym_counter
    _gensym_counter = itertools.count(start)
    try:
        yield
    finally:
        _gensym_counter = saved


def gensym(prefix: str = "g") -> Symbol:
    """Return a fresh symbol guaranteed not to collide with read symbols.

    Used by macro expansions (``for-each``, ``deflink``...) to introduce
    hygienic temporaries.  The counter is zero-padded so gensym names
    have stable lengths: serialized fiber state then has stable sizes,
    which keeps the simulation's IO-cost accounting reproducible across
    repeated runs in one process.
    """
    return Symbol(f"#:{prefix}{next(_gensym_counter):07d}")


# Widely used symbols, pre-interned for convenience and speed.
S_NIL = Symbol("nil")
S_T = Symbol("t")
S_QUOTE = Symbol("quote")
S_QUASIQUOTE = Symbol("quasiquote")
S_UNQUOTE = Symbol("unquote")
S_UNQUOTE_SPLICING = Symbol("unquote-splicing")
S_FUNCTION = Symbol("function")
S_LAMBDA = Symbol("lambda")
S_AMP_REST = Symbol("&rest")
S_AMP_KEY = Symbol("&key")
S_AMP_OPTIONAL = Symbol("&optional")
S_DOT = Symbol(".")
S_PERCENT = Symbol("%")
