"""Delta-debugging shrinker for diverging Gozer programs.

Greedy structural minimization in the ddmin spirit, specialized to
s-expressions: a candidate edit is kept iff the *same oracle pair*
still disagrees on the edited program, with the same signature (each
side's outcome kind, and the condition type and detail of a side that
signalled or broke) — otherwise a shrink can trade the bug for an
unrelated failure it introduced, such as dropping the ``deftaskvar`` a
task-variable write needs.  Candidate edits, in order of
aggressiveness:

1. drop whole prelude forms (helpers/defvars the divergence may not
   need);
2. replace the body with one of its proper subtrees ("hoisting" — the
   classic ddmin subset step adapted to trees);
3. delete elements from list forms (never the head, never binding
   headers whose removal changes arity rules);
4. replace leaf-ish subtrees with minimal literals (``0``, ``nil``,
   ``(list)``).

Every pass re-runs the interestingness predicate, so the result is
1-minimal with respect to these edits.  The predicate budget is capped
(``max_checks``) because each check replays up to two oracles; the cap
is reported on the result so truncated shrinks are visible.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from ..lang.symbols import Symbol
from .executor import ORACLES, Divergence
from .grammar import GenProgram
from .oracles import (ENGINE_ERROR, run_tree, run_vinz, run_vm, run_vm_pickle,
                      stepwise_outcome)

#: list heads whose element positions carry syntax, not expressions —
#: dropping children there produces malformed programs, not smaller ones
_RIGID_HEADS = frozenset({
    "lambda", "fn", "defun", "let", "let*", "quote", "for-each",
    "destructuring-bind", "deftaskvar", "block", "return-from",
    "handler-bind", "handler-case", "restart-case", "case", "cond",
    "loop", "dotimes", "dolist", "setq", "setf", "function",
    "quasiquote", "unquote", "unquote-splicing",
})


def still_diverges(program: GenProgram, original: Divergence) -> bool:
    """Re-run only the diverging oracle pair on a candidate program:
    does it reproduce ``original``, signature and all?"""
    oracle = original.oracle
    if oracle not in ORACLES:
        raise ValueError(f"unknown oracle {oracle!r}")
    try:
        base = run_vm(program)
        if oracle == "vm":
            other, diverges = base, base.kind == ENGINE_ERROR
        elif oracle == "vm-pickle":
            other = run_vm_pickle(program)
            diverges = not base.agrees_with(other, compare_yields=True)
        elif oracle == "tree":
            other = run_tree(program)
            diverges = not base.agrees_with(other)
        elif oracle == "stepwise":
            other = stepwise_outcome(program)
            diverges = not base.agrees_with(other, compare_yields=True)
        else:
            seed = (program.seed or 0) * 7919 + (program.index or 0)
            other = run_vinz(program, seed=seed)
            diverges = not base.agrees_with(other, strict_ctype=False)
    except Exception:  # noqa: BLE001 - a crashing candidate is not a repro
        return False
    return diverges and (Divergence(oracle, base, other, program).signature()
                         == original.signature())


@dataclass
class ShrinkResult:
    program: GenProgram
    checks: int
    exhausted: bool  # hit max_checks before reaching a fixpoint


class Shrinker:
    def __init__(self, is_interesting: Callable[[GenProgram], bool],
                 max_checks: int = 400):
        self.is_interesting = is_interesting
        self.max_checks = max_checks
        self.checks = 0

    # -- public --------------------------------------------------------

    def shrink(self, program: GenProgram) -> ShrinkResult:
        current = program
        changed = True
        while changed and self.checks < self.max_checks:
            changed = False
            for candidate in self._candidates(current):
                if self.checks >= self.max_checks:
                    break
                self.checks += 1
                if self.is_interesting(candidate):
                    current = candidate
                    changed = True
                    break
        return ShrinkResult(program=current, checks=self.checks,
                            exhausted=self.checks >= self.max_checks)

    # -- candidate edits (deterministic order) -------------------------

    def _candidates(self, program: GenProgram):
        # path-based edits (_replace_at) resolve against this program
        self._current = program
        # 1. drop prelude forms, last first (later forms are more
        #    likely to be unused by a minimized body)
        for i in reversed(range(len(program.prelude))):
            prelude = program.prelude[:i] + program.prelude[i + 1:]
            yield GenProgram(prelude=prelude, body=program.body,
                             feeds=program.feeds, stratum=program.stratum,
                             name=program.name, seed=program.seed,
                             index=program.index, note=program.note)
        # 2. hoist proper subtrees of the body over the body
        for subtree in self._subtrees(program.body, depth=0):
            yield self._with_body(program, copy.deepcopy(subtree))
        # 3. drop elements from flexible list forms
        yield from self._dropped(program.body)
        # 4. simplify subtrees to minimal literals
        yield from self._simplified(program.body)

    @staticmethod
    def _with_body(program: GenProgram, body: Any) -> GenProgram:
        return GenProgram(prelude=list(program.prelude), body=body,
                          feeds=program.feeds, stratum=program.stratum,
                          name=program.name, seed=program.seed,
                          index=program.index, note=program.note)

    def _subtrees(self, form: Any, depth: int):
        """Proper list subtrees, shallowest first (biggest cuts first)."""
        if not isinstance(form, list) or depth > 12:
            return
        head = form[0] if form else None
        args = form[1:] if isinstance(head, Symbol) else form
        for item in args:
            if isinstance(item, list) and item:
                yield item
        for item in args:
            if isinstance(item, list) and item:
                yield from self._subtrees(item, depth + 1)

    def _dropped(self, form: Any, path: Tuple[int, ...] = ()):
        """Copies of the body with one droppable element removed."""
        if not isinstance(form, list) or not form:
            return
        head = form[0]
        flexible = not (isinstance(head, Symbol)
                        and head.name in _RIGID_HEADS)
        for i in range(len(form)):
            if flexible and i > 0:
                yield self._replace_at(path + (i,), None, drop=True)
            child = form[i]
            if isinstance(child, list):
                yield from self._dropped(child, path + (i,))

    def _simplified(self, form: Any, path: Tuple[int, ...] = ()):
        if isinstance(form, list) and form:
            head = form[0]
            if not (isinstance(head, Symbol) and head.name == "quote"):
                for i, child in enumerate(form[1:], start=1):
                    yield from self._simplified(child, path + (i,))
            for literal in (0, None):
                yield self._replace_at(path, literal)
        elif isinstance(form, (int, str)) and form not in (0, ""):
            yield self._replace_at(path, 0)

    def _replace_at(self, path: Tuple[int, ...], value: Any,
                    drop: bool = False) -> GenProgram:
        program = self._current
        body = copy.deepcopy(program.body)
        if not path:
            return self._with_body(program, value)
        node = body
        for index in path[:-1]:
            node = node[index]
        if drop:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        return self._with_body(program, body)

    #: the program whose body path-based edits resolve against
    _current: Optional[GenProgram] = None


def shrink_divergence(divergence: Divergence,
                      max_checks: int = 400) -> ShrinkResult:
    """Minimize a divergence's program, keeping its signature.

    Vinz-pair shrinks get a smaller default budget from callers (each
    check spins up a simulated cluster).
    """
    return Shrinker(
        lambda p: still_diverges(p, divergence),
        max_checks=max_checks,
    ).shrink(divergence.program)
