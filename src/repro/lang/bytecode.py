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

from .templates import BINARY_PRIMITIVES, HOST_FUNCTIONS, instantiate_blocks

# An instruction is an (opcode, argument) pair.  ``None`` argument for
# nullary opcodes.  Opcodes are short strings: this is a readability
# (and picklability) choice, and not a free one — most opcodes do less
# work than the VM spends finding their branch (the perf ledger has the
# GVM at a few million instructions a second).  So the VM's hot loop
# tests them in order of measured frequency, and runs a *fused view* of
# each code object (:data:`FUSED`, :func:`fuse`) in which the commonest
# sequences are one entry each: a whole statement such as Listing 1's
# ``(setq acc (+ acc (* n n)))``, nested arithmetic and the ``setq``
# included, is one ``block``, run as one generated Python function
# (:mod:`repro.lang.templates`), and a loop made only of blocks that
# make their call in place, like Listing 1's ``dotimes``, is one
# ``region``: the same blocks' code inside one loop.  The view is the
# VM's alone: what is emitted, validated, pickled and stepped through
# is ``instructions``.
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

#: The superinstructions of the fused view, and the sequence of
#: ``OPCODES`` each one stands for.  They exist only in
#: :attr:`CodeObject.fused`: ``emit`` and :func:`validate` refuse them.
#: A fused entry at pc ``i`` stands for ``instructions[i:i + w]``.  Every
#: entry inside that span stands for its own instructions (the original
#: one, or a fused entry nested in the span: an inner ``block``, a
#: tail's ``store-pop``), so a jump into the span, or the VM resuming
#: at ``i + 1``, runs exactly what the unfused code would.  A ``region``
#: stands for its one ``jump``; the loop it runs is the entries from the
#: jump's target, which keep their own pcs in the view.
FUSED = {
    "store-pop": "dup; store x; pop — a setq in statement position "
                 "(arg: x; w = 3)",
    "block": "load-global f; k pushes; call k or tail-call k; and its "
             "tail.  A push is a load, a load-global, a const whose "
             "argument is not a list, or a nested 'load-global p; 2 "
             "pushes; call 2' of a primitive (templates.BINARY_PRIMITIVES) "
             "or 'load-global h; k pushes; call k' of a host function "
             "without an effect (templates.HOST_FUNCTIONS).  When f is a "
             "primitive and k = 2, or f a registered host function, the "
             "call is made in place and the tail is the value pushed, the "
             "jump-if-false T after the call, the 'dup; store x; pop' of a "
             "setq or, after a host call, a statement's pop, the one place "
             "an effect (append!) may be.  Any other call has the call "
             "tail: f's value and the k values are pushed and the fast "
             "loop makes the call at its own pc (arg: (run, f, tail-call?, "
             "pushes, then, w, source): pushes in postfix order as (kind, "
             "value, k), a nested p as ('primitive', p, 2) after its "
             "two, a nested h as ('host', h, k) after its k, a load, "
             "load-global or const as (kind, value, None); a call made in "
             "place has f's own call last the same way, a call tail has "
             "('load-global', f, None) first; then is ('push', None), "
             "('jump-if-false', T), ('store', x), ('pop', None) or "
             "('call', None); run(e0, gv, dyn, stack, count) does the "
             "pushes, the call and the tail (templates.instantiate_blocks) "
             "and returns the pc and count to go on at, or None to deopt; "
             "source is its template's)",
    "region": "jump H closing a loop of blocks: from H up to the jump, "
              "each entry is a block whose tail is a jump-if-false that "
              "leaves the loop, a setq or a pop, each starting where the "
              "one before ends (arg: (run, H, blocks, source): blocks "
              "are the (pc, arg) of each block from H; run(e0, gv, dyn, "
              "stack, count) runs the blocks' code in a loop from H and "
              "returns the pc to go on at, an exit's, a failed block's, "
              "an unbound setq's store-pop or, when a name is unbound or "
              "a function bound dynamically at entry, H, with the count; "
              "w = 1)",
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

    #: The fused view of ``instructions`` (:func:`fuse`), built by
    #: :meth:`fuse` the first time the VM's fast loop runs this code.
    #: Not a field: it is never pickled, copied or compared.
    fused = None

    def __getstate__(self):
        state = self.__dict__
        if "fused" in state:
            state = {key: value for key, value in state.items()
                     if key != "fused"}
        return state

    def fuse(self) -> List[Instruction]:
        """Build (once) and return the fused view."""
        self.fused = fuse(self)
        return self.fused

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
        lines.extend(_listing_line(pc, op, arg)
                     for pc, (op, arg) in enumerate(self.instructions))
        return "\n".join(lines)

    def disassemble_fused(self) -> str:
        """The fused view the fast loop runs, one entry per pc: each
        ``block`` with its pushes, its tail and the source of its
        generated code, each ``region`` with its pc range, the
        instruction count of each block and the source of its loop, and
        each backward ``jump`` that is no region with the entry that
        stops it, so a slow entry can explain itself."""
        lines = [f"; fused {self.name}"]
        for pc, (op, arg) in enumerate(self.fused or self.fuse()):
            if op == "region":
                _run, head, blocks, source = arg
                counts = ", ".join(f"{at} ({block[5]})"
                                   for at, block in blocks)
                lines.append(f"{pc:4d}  {op}  {head}..{pc}  blocks {counts}"
                             f", jump (1)")
            elif op == "block":
                _run, name, tail, pushes, then, width, source = arg
                lines.append(f"{pc:4d}  {op}  {name!r}  width {width}"
                             f"{'  tail' if tail else ''}")
                for kind, value, k in pushes:
                    lines.append(f"        {kind}  {value!r}"
                                 + ("" if k is None else f"  args {k}"))
                kind, target = then
                lines.append(f"        {kind}"
                             + ("" if target is None else f"  {target!r}"))
            else:
                lines.append(_listing_line(pc, op, arg))
                if op == "jump" and type(arg) is int and arg < pc:
                    # a backward jump that stayed one: say why
                    _blocks, why = _region_blocks(self.fused, arg, pc)
                    lines.append(f"        ; no region: {why}")
                continue
            lines.extend("        | " + line
                         for line in source.rstrip("\n").splitlines())
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<CodeObject {self.name} ({len(self.instructions)} instrs)>"


#: the instructions that go on at another pc, with their target
_JUMPS = ("jump", "jump-if-false", "jump-if-true")


def _listing_line(pc: int, op: str, arg: Any) -> str:
    if arg is None:
        return f"{pc:4d}  {op}"
    if isinstance(arg, CodeObject):
        return f"{pc:4d}  {op}  <code {arg.name}>"
    return f"{pc:4d}  {op}  {arg!r}"


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
        if op in _JUMPS:
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


#: what a ``block`` may take as an argument push
_SIMPLE_PUSHES = ("load", "load-global", "const")


def _pushes(instructions: Sequence[Instruction], pc: int, known: dict):
    """The pushes that follow one another from ``pc`` on, as ``(postfix
    items, end pc, count)``."""
    items, end, k = (), pc, 0
    push = _push(instructions, end, known)
    while push:
        items, end, k = items + push[0], push[1], k + 1
        push = _push(instructions, end, known)
    return items, end, k


def _push(instructions: Sequence[Instruction], pc: int, known: dict):
    """The ``block`` push that starts at ``pc``, as ``(postfix items,
    end pc)``, or None; ``known`` holds those already found.  An item
    is ``(kind, value, None)``, a call's ``(kind, f, k)``.  A
    ``load-global`` of a primitive followed by two pushes and ``call
    2``, or of a host function without an effect followed by k pushes
    and ``call k``, is one nested push: on a straight run of code the
    stack discipline makes that the only reading of those
    instructions."""
    if pc in known:
        return known[pc]
    push = None
    if pc < len(instructions):
        op, arg = instructions[pc]
        if op in _SIMPLE_PUSHES and type(arg) is not list:
            push = ((op, arg, None),), pc + 1
        if op == "load-global" and (arg in BINARY_PRIMITIVES
                                    or arg in HOST_FUNCTIONS):
            items, end, k = _pushes(instructions, pc + 1, known)
            kind = _call_kind(arg, k)
            if kind and instructions[end:end + 1] == [("call", k)] \
                    and (kind == "primitive" or not HOST_FUNCTIONS[arg][1]):
                push = items + ((kind, arg, k),), end + 1
    known[pc] = push
    return push


def _call_kind(name, k: int):
    """The item kind of a call of ``name`` with ``k`` arguments that a
    fused entry computes in place, or None."""
    if name in BINARY_PRIMITIVES and k == 2:
        return "primitive"
    if name in HOST_FUNCTIONS:
        return "host"
    return None


def fuse(code: CodeObject) -> List[Instruction]:
    """The fused view: ``code.instructions`` with each :data:`FUSED`
    sequence replaced, at the pc of its first instruction, by one entry.

    The view has the same length and the same pcs as ``instructions``,
    so no jump target moves.  Each pc is fused on its own, so a span may
    hold fused entries of its own (a nested push's ``block``, a tail's
    ``store-pop``): each stands for its own instructions.  Every call is
    a ``block``, one generated function (:mod:`~repro.lang.templates`):
    a call of a primitive or a registered host function is made in
    place with its tail, any other call has the ``call`` tail and is
    made by the fast loop.  Then each backward ``jump`` that closes a
    loop of blocks (:func:`_region_blocks`) becomes a ``region`` entry.
    """
    instructions = code.instructions
    view = list(instructions)
    n = len(instructions)
    known: dict = {}
    for pc, (op, arg) in enumerate(instructions):
        if op == "dup":
            if pc + 2 < n and instructions[pc + 1][0] == "store" \
                    and instructions[pc + 2][0] == "pop":
                view[pc] = ("store-pop", instructions[pc + 1][1])
        elif op == "load-global":
            items, end, k = _pushes(instructions, pc + 1, known)
            if end == n or instructions[end][0] not in ("call", "tail-call") \
                    or instructions[end][1] != k:
                continue
            tail = instructions[end][0] == "tail-call"
            kind = _call_kind(arg, k)
            after = [] if tail else instructions[end + 1:end + 4]
            popped = kind == "host" and after[:1] == [("pop", None)]
            if kind == "host" and HOST_FUNCTIONS[arg][1] and not popped:
                kind = None  # an effect is the last thing its statement does
            width = end + 1 - pc
            if not kind:
                # the fast loop makes the call
                pushes = (("load-global", arg, None),) + items
                then = ("call", None)
            else:
                pushes = items + ((kind, arg, k),)
                then = ("push", None)
                if popped or after and after[0][0] == "jump-if-false":
                    then, width = after[0], width + 1
                elif [name for name, _ in after] == ["dup", "store", "pop"]:
                    then = ("store", after[1][1])
                    width += 3
            run, source = instantiate_blocks([(pc, pushes, then, width)])
            view[pc] = ("block", (run, arg, tail, pushes, then, width,
                                  source))
    for pc, (op, arg) in enumerate(instructions):
        if op == "jump" and type(arg) is int and arg < pc:
            blocks, _why = _region_blocks(view, arg, pc)
            if blocks:
                run, source = instantiate_blocks(
                    [(at, block[3], block[4], block[5])
                     for at, block in blocks], loop=True)
                view[pc] = ("region", (run, arg, blocks, source))
    return view


def _region_blocks(view, head: int, end: int):
    """The blocks of the loop from ``head`` to the backward ``jump`` at
    ``end``, as ``(pc, arg)`` pairs, or None when it is no region, with
    why not: every entry from the head on must be a ``block`` whose
    ``jump-if-false`` tail leaves the loop, or whose ``setq`` or ``pop``
    tail stays in it, each starting where the one before ends, the last
    ending at ``end``.  ``(blocks, None)`` or ``(None, why)``.
    """
    blocks = []
    pc = head
    while pc < end:
        op, arg = view[pc]
        if op != "block":
            return None, f"pc {pc}: {op} is not a fused call"
        then = arg[4]
        if then[0] == "call":
            return None, (f"pc {pc}: the call of {arg[1]!r} is not made "
                          f"in place (not a primitive's two-argument call "
                          f"or a registered host function's)")
        if then[0] == "push":
            return None, f"pc {pc}: the value of {arg[1]!r} stays pushed"
        if then[0] == "jump-if-false" and head <= then[1] <= end:
            return None, f"pc {pc}: its branch stays in the loop"
        blocks.append((pc, arg))
        pc += arg[5]
    if pc != end or not blocks:
        return None, f"pc {pc}: no block ends at the jump"
    return tuple(blocks), None


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
