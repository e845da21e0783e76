"""Bytecode representation for the Gozer Virtual Machine.

Section 4.1 of the paper: the JVM offers no way to capture a call stack
and re-enter it later, so the GVM implements *its own* stack-oriented
architecture whose frames are ordinary objects — the same objects used
to create the continuations requested by ``yield`` and ``push-cc``.
"Compilation to bytecode (as opposed to a tree-walking interpreter) was
introduced as an optimization for Vinz persistence."

We mirror that design exactly: :class:`CodeObject` holds a flat list of
``Instruction`` tuples; the VM (:mod:`repro.gvm.vm`) executes them with
heap-allocated frames, and a tree-walking reference interpreter
(:mod:`repro.gvm.interpreter`) provides the pre-optimization baseline
that benchmark S4c compares against.

Every constant a :class:`CodeObject` can embed is picklable, so compiled
workflow code can ride along inside a serialized fiber.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

# An instruction is an (opcode, argument) pair.  ``None`` argument for
# nullary opcodes.  Opcodes are short strings: this is a readability
# (and picklability) choice, and not a free one — most opcodes do less
# work than the VM spends finding their branch (the perf ledger has the
# GVM at a few million instructions a second), which is why the VM's
# hot loop tests them in order of measured frequency.
Instruction = Tuple[str, Any]

#: The complete GVM instruction set: exactly what ``VM._step`` executes
#: (``tests/gvm/test_opcode_table.py`` holds the two together) and all
#: that ``CodeObject.emit`` accepts.
OPCODES = {
    # -- data movement -------------------------------------------------
    "const": "push the inline constant",
    "pop": "discard the top of stack",
    "dup": "duplicate the top of stack",
    "load": "push a variable: scope chain, then dynamic, then global (arg: Symbol)",
    "store": "pop and assign an existing variable binding (arg: Symbol)",
    "bind": "pop and create a binding in the innermost scope (arg: Symbol)",
    "load-global": "push a name the compiler proved free: dynamic, then global (arg: Symbol)",
    "store-global": "pop and set a global variable (arg: Symbol)",
    "make-list": "pop N values, push them as a list (arg: N)",
    # -- scopes and closures -------------------------------------------
    "push-scope": "enter a new lexical scope (let)",
    "pop-scope": "leave the innermost lexical scope",
    "closure": "push a function closing over the current scope (arg: CodeObject)",
    # -- control flow ---------------------------------------------------
    "jump": "unconditional jump (arg: target pc)",
    "jump-if-false": "pop; jump when falsy (arg: target pc)",
    "jump-if-true": "pop; jump when truthy (arg: target pc)",
    "call": "pop N args then the callee; invoke (arg: N)",
    "tail-call": "call in tail position, reusing the frame (arg: N)",
    "return": "pop and return the top of stack from this frame",
    "push-block": "establish a return-from target (arg: (name, exit pc))",
    "pop-block": "remove the innermost block (arg: count)",
    "return-from": "pop a value and exit the named block (arg: name)",
    # -- continuations (paper 3.1, 4.1) ----------------------------------
    "yield": "capture a continuation and return control to the VM's caller",
    "push-cc": "capture a continuation and push it without unwinding",
    # -- futures (paper 2, 4.1) ------------------------------------------
    "spawn-future": "start the inline thunk on the future executor (arg: CodeObject)",
    # -- condition system (paper 3.7) -------------------------------------
    "push-handlers": "pop a list of (typespec, fn) handler pairs and bind them",
    "pop-handlers": "remove the innermost handler group",
    "push-restarts": "pop a list of restart records and bind them",
    "pop-restarts": "remove the innermost restart group",
    # -- unwind protection -------------------------------------------------
    "push-unwind": "register a cleanup thunk (arg: CodeObject)",
    "pop-unwind": "pop and run the innermost cleanup thunk",
    # -- dynamic (special) variables ----------------------------------------
    "dyn-bind": "pop and dynamically bind a special variable (arg: Symbol)",
    "dyn-unbind": "undo the innermost dynamic binding (arg: Symbol)",
}


@dataclass
class ParamSpec:
    """A compiled lambda list.

    Supports the subset of Common Lisp lambda lists the paper's listings
    use: required parameters, ``&optional`` (with default forms compiled
    to thunks), ``&rest``, and ``&key`` (Listing 2's generated functions
    take ``&key`` arguments).
    """

    required: Tuple[Any, ...] = ()
    optional: Tuple[Tuple[Any, Optional["CodeObject"]], ...] = ()
    rest: Optional[Any] = None
    keys: Tuple[Tuple[Any, Optional["CodeObject"]], ...] = ()

    def arity_description(self) -> str:
        lo = len(self.required)
        if self.rest is not None or self.keys:
            return f"at least {lo}"
        hi = lo + len(self.optional)
        return str(lo) if lo == hi else f"{lo} to {hi}"

    @property
    def max_positional(self) -> Optional[int]:
        if self.rest is not None:
            return None
        return len(self.required) + len(self.optional)


@dataclass
class CodeObject:
    """A compiled Gozer function body.

    ``constants`` exists only for the disassembler's benefit (constants
    are stored inline in instructions); ``doc`` preserves docstrings so
    that ``deflink``-generated functions keep the service documentation
    (paper Listing 2: "the documentation specified in the interface
    document is preserved").
    """

    name: str
    params: ParamSpec = field(default_factory=ParamSpec)
    instructions: List[Instruction] = field(default_factory=list)
    doc: Optional[str] = None
    source: Any = None

    def emit(self, opcode: str, arg: Any = None) -> int:
        """Append an instruction; return its index (for jump patching)."""
        assert opcode in OPCODES, f"unknown opcode {opcode!r}"
        self.instructions.append((opcode, arg))
        return len(self.instructions) - 1

    def patch(self, index: int, arg: Any) -> None:
        """Rewrite the argument of a previously emitted instruction."""
        opcode, _ = self.instructions[index]
        self.instructions[index] = (opcode, arg)

    @property
    def here(self) -> int:
        """The pc that the *next* emitted instruction will occupy."""
        return len(self.instructions)

    def disassemble(self) -> str:
        """Human-readable listing, used by tests and the REPL's :dis."""
        lines = [f"; code {self.name} params={self.params}"]
        for pc, (op, arg) in enumerate(self.instructions):
            if arg is None:
                lines.append(f"{pc:4d}  {op}")
            elif isinstance(arg, CodeObject):
                lines.append(f"{pc:4d}  {op}  <code {arg.name}>")
            else:
                lines.append(f"{pc:4d}  {op}  {arg!r}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<CodeObject {self.name} ({len(self.instructions)} instrs)>"


def validate(code: CodeObject) -> List[str]:
    """Static sanity checks on emitted bytecode.

    Returns a list of problems (empty when the code is well-formed).
    The compiler's test suite runs this over everything it emits.
    """
    problems: List[str] = []
    n = len(code.instructions)
    if n == 0:
        problems.append("empty instruction list")
        return problems
    for pc, (op, arg) in enumerate(code.instructions):
        if op not in OPCODES:
            problems.append(f"pc {pc}: unknown opcode {op!r}")
        if op in ("jump", "jump-if-false", "jump-if-true"):
            if not isinstance(arg, int) or not (0 <= arg <= n):
                problems.append(f"pc {pc}: jump target {arg!r} out of range")
        if op in ("call", "tail-call", "make-list", "pop-block", "pop-handlers",
                  "pop-restarts"):
            if not isinstance(arg, int) or arg < 0:
                problems.append(f"pc {pc}: {op} needs a non-negative count, got {arg!r}")
        if op in ("closure", "spawn-future", "push-unwind"):
            if not isinstance(arg, CodeObject):
                problems.append(f"pc {pc}: {op} needs a CodeObject argument")
    last_op = code.instructions[-1][0]
    if last_op not in ("return", "jump"):
        problems.append(f"final instruction is {last_op!r}, expected return/jump")
    return problems


def nested_code_objects(code: CodeObject) -> Sequence[CodeObject]:
    """All code objects reachable from ``code`` (including itself)."""
    seen: List[CodeObject] = []
    stack = [code]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.append(current)
        for _, arg in current.instructions:
            if isinstance(arg, CodeObject):
                stack.append(arg)
        for _, default in list(current.params.optional) + list(current.params.keys):
            if isinstance(default, CodeObject):
                stack.append(default)
    return seen
