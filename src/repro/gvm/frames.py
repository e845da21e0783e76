"""Heap-allocated call frames and function objects.

Paper, Section 4.1: "The stack consists of ordinary Java objects
representing function calls together with arguments, local variables,
etc.  These objects are used to create the continuations requested by
``yield`` and ``push-cc``."  This module is the Python incarnation of
those objects.  Everything here pickles, because a suspended fiber *is*
(a compressed pickle of) a stack of these frames (Section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from ..lang.bytecode import CodeObject, ParamSpec
from ..lang.errors import GozerRuntimeError, WrongArgumentCount
from ..lang.symbols import Keyword, Symbol
from .environment import Env


class GozerFunction:
    """A compiled Gozer closure: code + captured lexical environment."""

    __slots__ = ("code", "closure", "name")

    def __init__(self, code: CodeObject, closure: Optional[Env], name: Optional[str] = None):
        self.code = code
        self.closure = closure
        self.name = name or code.name

    def __repr__(self) -> str:
        return f"#<function {self.name}>"

    @property
    def doc(self) -> Optional[str]:
        return self.code.doc


class GozerMacro:
    """A macro: a function from source forms to a source form.

    Stored in the global environment's macro table; applied by the
    compiler at expansion time rather than by the VM at run time.
    """

    __slots__ = ("function", "name")

    def __init__(self, function: Any, name: str):
        self.function = function
        self.name = name

    def __repr__(self) -> str:
        return f"#<macro {self.name}>"


@dataclass
class BlockRecord:
    """A ``block``/``return-from`` target inside one frame.

    The depth fields snapshot every stack-like resource at the moment
    the block was established, so a non-local exit can restore all of
    them (running any intervening ``unwind-protect`` cleanups).
    """

    name: Optional[Symbol]
    exit_pc: int
    stack_depth: int
    scope_depth: int
    unwind_depth: int = 0
    handler_depth: int = 0
    restart_depth: int = 0


@dataclass
class HandlerGroup:
    """One ``handler-bind`` group: [(type-spec, handler-fn), ...].

    ``frame_index`` records how deep in the fiber's frame stack the
    establishing frame sits, so ``signal`` can run handlers in
    innermost-first order across frames.
    """

    handlers: List[Tuple[Any, Any]]
    frame_index: int


@dataclass
class RestartRecord:
    """One restart clause established by ``restart-case``.

    Invoking the restart unwinds to ``frame_index`` and runs ``code``
    (a clause body compiled as a function of the restart's arguments),
    whose value becomes the value of the whole ``restart-case``.
    """

    name: Symbol
    code: Any  # GozerFunction
    frame_index: int
    exit_pc: int
    stack_depth: int
    scope_depth: int
    unwind_depth: int = 0
    handler_depth: int = 0
    restart_depth: int = 0

    def __repr__(self) -> str:
        return f"#<restart {self.name.name}>"


@dataclass
class UnwindRecord:
    """A pending ``unwind-protect`` cleanup in one frame."""

    thunk: Any  # GozerFunction of no arguments
    scope_depth: int


class Frame:
    """One activation record of the GVM.

    Unlike a CPython frame, this object is plain data: the interpreter
    loop in :mod:`repro.gvm.vm` reads ``pc``, pushes/pops ``stack`` and
    consults ``env``.  Capturing a continuation pickles a list of
    these.
    """

    __slots__ = (
        "code",
        "pc",
        "stack",
        "env",
        "scopes",
        "blocks",
        "unwinds",
        "dynamic_bound",
        "function_name",
    )

    def __init__(self, code: CodeObject, env: Env, function_name: Optional[str] = None):
        self.code = code
        self.pc = 0
        self.stack: List[Any] = []
        self.env = env
        #: how many push-scope instructions are active (for unwinding)
        self.scopes = 0
        self.blocks: List[BlockRecord] = []
        self.unwinds: List[UnwindRecord] = []
        #: dynamically bound special variables to pop when this frame exits
        self.dynamic_bound: List[Symbol] = []
        self.function_name = function_name or code.name

    def push(self, value: Any) -> None:
        self.stack.append(value)

    def pop(self) -> Any:
        return self.stack.pop()

    def top(self) -> Any:
        return self.stack[-1]

    def __repr__(self) -> str:
        return f"<Frame {self.function_name} pc={self.pc} stack={len(self.stack)}>"


def bind_parameters(spec: ParamSpec, args: List[Any], env: Env,
                    fname: str, eval_default: Callable[[CodeObject, Env], Any]) -> None:
    """Destructure ``args`` into ``env`` according to a lambda list.

    ``eval_default`` evaluates a compiled default-value thunk for
    ``&optional``/``&key`` parameters that were not supplied; the VM
    passes a callback that runs the thunk in a nested evaluation.
    """
    n_req = len(spec.required)
    if len(args) < n_req:
        raise WrongArgumentCount(fname, spec.arity_description(), len(args))

    for name, value in zip(spec.required, args):
        env.bind(name, value)
    rest = args[n_req:]

    for name, default in spec.optional:
        if rest:
            env.bind(name, rest.pop(0))
        else:
            env.bind(name, eval_default(default, env) if default is not None else None)

    if spec.keys:
        # Everything left must be alternating Keyword/value pairs.
        if len(rest) % 2 != 0:
            raise WrongArgumentCount(fname, "keyword/value pairs", len(rest))
        supplied = {}
        for i in range(0, len(rest), 2):
            key = rest[i]
            if not isinstance(key, Keyword):
                raise GozerRuntimeError(
                    f"{fname}: expected a keyword argument name, got {key!r}"
                )
            supplied[key.name] = rest[i + 1]
        known = set()
        for name, default in spec.keys:
            key_name = name.name
            known.add(key_name)
            if key_name in supplied:
                env.bind(name, supplied[key_name])
            else:
                env.bind(name, eval_default(default, env) if default is not None else None)
        unknown = set(supplied) - known
        if unknown:
            raise GozerRuntimeError(f"{fname}: unknown keyword arguments {sorted(unknown)}")
        rest = []

    if spec.rest is not None:
        env.bind(spec.rest, list(rest))
    elif rest and not spec.keys:
        raise WrongArgumentCount(fname, spec.arity_description(), len(args))
