"""Coverage accounting: which fraction of the language surface the
generated programs actually exercised.

Three ledgers, three denominators:

* **special forms** — the compiler's ``_special_forms`` table; credited
  from the surface walk *and* from a macroexpanded walk (so e.g. a
  ``handler-case`` credits the ``handler-bind`` it expands into).
* **builtins** — both stdlib registries; credited from surface marks.
* **opcodes** — :data:`repro.lang.bytecode.OPCODES`; credited by
  compiling each program and walking its (nested) code objects.

Known-unreachable entries are excluded *with a reason* and the reasons
are part of the report — a generator gap must be visible, never silent
(ISSUE 10's "coverage accounter" requirement).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Sequence, Set

from ..lang.bytecode import OPCODES, CodeObject
from .grammar import (EXCLUDED_BUILTINS, GenProgram, analyze,
                      builtin_names, special_form_names)

#: opcodes the compiler can never emit, with the reason (none today:
#: every opcode the VM executes must be reached by the generator)
EXCLUDED_OPCODES: Dict[str, str] = {}


def expand_all(form: Any, global_env, apply_fn) -> Any:
    """Recursively macroexpand a form (expansion results included)."""
    from ..lang.macros import macroexpand
    from ..lang.symbols import Symbol

    expanded = macroexpand(form, global_env, apply_fn)
    if not isinstance(expanded, list) or not expanded:
        return expanded
    head = expanded[0]
    if isinstance(head, Symbol) and head.name == "quote":
        return expanded
    return [expand_all(item, global_env, apply_fn) for item in expanded]


def walk_opcodes(code: CodeObject, into: Set[str]) -> None:
    """Collect opcode names from a code object and every nested one
    (closure bodies, future thunks, unwind cleanups)."""
    for op, arg in code.instructions:
        into.add(op)
        if isinstance(arg, CodeObject):
            walk_opcodes(arg, into)
        elif isinstance(arg, (list, tuple)):
            for item in arg:
                if isinstance(item, CodeObject):
                    walk_opcodes(item, into)


@dataclass
class CoverageReport:
    special_forms: Dict[str, bool]
    builtins: Dict[str, bool]
    opcodes: Dict[str, bool]
    excluded_builtins: Dict[str, str]
    excluded_opcodes: Dict[str, str]
    macros: Dict[str, bool] = field(default_factory=dict)

    @staticmethod
    def _ratio(table: Dict[str, bool]) -> float:
        return (sum(table.values()) / len(table)) if table else 1.0

    @property
    def special_form_ratio(self) -> float:
        return self._ratio(self.special_forms)

    @property
    def builtin_ratio(self) -> float:
        return self._ratio(self.builtins)

    @property
    def opcode_ratio(self) -> float:
        return self._ratio(self.opcodes)

    def missing(self, table: Dict[str, bool]) -> List[str]:
        return sorted(name for name, hit in table.items() if not hit)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "special_forms": {
                "ratio": round(self.special_form_ratio, 4),
                "hit": sum(self.special_forms.values()),
                "total": len(self.special_forms),
                "missing": self.missing(self.special_forms),
            },
            "builtins": {
                "ratio": round(self.builtin_ratio, 4),
                "hit": sum(self.builtins.values()),
                "total": len(self.builtins),
                "missing": self.missing(self.builtins),
                "excluded": self.excluded_builtins,
            },
            "opcodes": {
                "ratio": round(self.opcode_ratio, 4),
                "hit": sum(self.opcodes.values()),
                "total": len(self.opcodes),
                "missing": self.missing(self.opcodes),
                "excluded": self.excluded_opcodes,
            },
            "macros": {
                "hit": sum(self.macros.values()),
                "total": len(self.macros),
                "missing": self.missing(self.macros),
            },
        }


class CoverageAccounter:
    """Accumulates coverage over a stream of programs."""

    def __init__(self):
        from ..lang.macros import CORE_MACROS

        self._sf: Set[str] = set()
        self._fn: Set[str] = set()
        self._op: Set[str] = set()
        self._macro: Set[str] = set()
        self._all_sf = special_form_names()
        self._all_fn = builtin_names() - set(EXCLUDED_BUILTINS)
        self._all_op = frozenset(OPCODES) - set(EXCLUDED_OPCODES)
        self._all_macros = frozenset(
            s.name for s in CORE_MACROS) | {"for-each", "parallel",
                                            "deftaskvar"}

    def record(self, program: GenProgram) -> None:
        analysis = program.analysis
        for mark in analysis.marks:
            kind, _, name = mark.partition(":")
            if kind == "sf":
                self._sf.add(name)
            elif kind == "fn":
                self._fn.add(name)
            elif kind == "macro":
                self._macro.add(name)
        self._record_expanded(program)
        self._record_opcodes(program)

    def _record_expanded(self, program: GenProgram) -> None:
        """Credit special forms reached only through macroexpansion."""
        from ..gvm.runtime import make_runtime

        try:
            rt = make_runtime()
            expanded = [expand_all(f, rt.global_env, rt.apply)
                        for f in program.sequential_forms]
        except Exception:  # noqa: BLE001 - coverage must never kill a run
            return
        for mark in analyze(expanded).marks:
            kind, _, name = mark.partition(":")
            if kind == "sf":
                self._sf.add(name)
            elif kind == "fn":
                self._fn.add(name)

    def _record_opcodes(self, program: GenProgram) -> None:
        from ..gvm.runtime import make_runtime

        try:
            rt = make_runtime()
            forms = rt.read_all(program.sequential_source)
            for form in forms[:-1]:
                rt.eval_form(form)
            code = rt.compile(forms[-1], name="conf-cov")
        except Exception:  # noqa: BLE001
            return
        walk_opcodes(code, self._op)

    def report(self) -> CoverageReport:
        return CoverageReport(
            special_forms={n: n in self._sf for n in sorted(self._all_sf)},
            builtins={n: n in self._fn for n in sorted(self._all_fn)},
            opcodes={n: n in self._op for n in sorted(self._all_op)},
            excluded_builtins=dict(EXCLUDED_BUILTINS),
            excluded_opcodes=dict(EXCLUDED_OPCODES),
            macros={n: n in self._macro for n in sorted(self._all_macros)},
        )
