"""The Gozer Virtual Machine (paper Section 4.1).

A stack-oriented bytecode interpreter whose call stack is a list of
heap-allocated :class:`~repro.gvm.frames.Frame` objects rather than the
host stack.  That one design decision buys everything the paper needs:

* ``yield``/``push-cc`` capture the frame list as a
  :class:`~repro.gvm.continuations.Continuation`;
* Vinz serializes continuations to persistent storage and resumes them
  on other nodes (Section 4.2);
* non-local control (``return-from``, restarts, condition handling) is
  frame-list surgery instead of host-stack unwinding.

Nested evaluation (calling a Gozer handler function from inside the
``signal`` machinery, running an ``unwind-protect`` cleanup, evaluating
an ``&optional`` default) re-enters :meth:`VM._execute_loop`
recursively; control transfers that target frames *below* a nested
loop's base propagate as :class:`_Transfer` exceptions until the loop
that owns the target frame catches them.  ``yield`` is only legal at
nesting depth 1 — the paper's rule that a future's background thread
cannot migrate the fiber falls out of this naturally.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from types import FunctionType
from typing import Any, Callable, List, Optional

from ..lang.bytecode import CodeObject
from ..lang.errors import (
    ControlFlowSignal,
    GozerRuntimeError,
    UnboundVariableError,
)
from ..lang.symbols import Symbol
from .conditions import (
    GozerCondition,
    UnhandledConditionError,
    coerce_condition,
    matches,
)
from .continuations import Continuation, capture, materialize
from .environment import DynamicBindings, Env, GlobalEnvironment, _MISSING
from .frames import (
    BlockRecord,
    Frame,
    GozerFunction,
    HandlerGroup,
    RestartRecord,
    UnwindRecord,
    VM_FUNCTIONS,
    bind_parameters,
    is_vm_function,
)
from .futures import GozerFuture, force_all

_CONTINUE = object()

@dataclass
class Done:
    """The fiber ran to completion with ``value``."""

    value: Any


@dataclass
class Yielded:
    """The fiber executed ``yield``: it can be resumed from ``continuation``.

    ``value`` is the operand of the ``yield`` form — Vinz uses it to
    carry request descriptors out of the workflow (Section 3.2).
    ``live`` is the VM's own ``(frames, handlers, restarts, dynamics)``,
    handed over when the VM was told to keep it (:attr:`VM.keep_live`),
    else None.
    """

    continuation: Continuation
    value: Any
    live: Optional[tuple] = None


class YieldFromNestedContext(GozerRuntimeError):
    """``yield`` attempted where the frame stack is not fully capturable.

    Raised when Gozer code yields from inside a nested evaluation (a
    future's thread, a handler call, a cleanup thunk).  Vinz-generated
    service stubs avoid this by checking ``(% is-fiber-thread)`` first
    and making a synchronous request instead (paper Section 3.2).
    """


class _Transfer(ControlFlowSignal):
    """Internal: a non-local transfer to a block or restart."""

    def __init__(self, frame_index: int, kind: str, record: Any, payload: Any):
        super().__init__(f"transfer to {kind} in frame {frame_index}")
        self.frame_index = frame_index
        self.kind = kind  # "block" | "restart"
        self.record = record
        self.payload = payload


class _YieldSignal(ControlFlowSignal):
    def __init__(self, continuation: Continuation, value: Any,
                 live: Optional[tuple]):
        super().__init__("yield")
        self.continuation = continuation
        self.value = value
        self.live = live


class VM:
    """One GVM instance: executes one flow of control at a time.

    Each fiber gets its own VM; each future gets its own VM on its own
    thread (created by the runtime's future runner).  VMs share the
    immutable program (:class:`GlobalEnvironment` definitions) with
    their siblings but own all mutable control state.
    """

    def __init__(self, global_env: GlobalEnvironment,
                 future_submitter: Optional[Callable] = None,
                 allow_yield: bool = True):
        self.global_env = global_env
        #: callable(thunk: GozerFunction, vm) -> GozerFuture
        self.future_submitter = future_submitter
        self.allow_yield = allow_yield
        self.frames: List[Frame] = []
        self.handlers: List[HandlerGroup] = []
        self.restarts: List[RestartRecord] = []
        self.dynamics = DynamicBindings()
        self._depth = 0
        self._loop_bases: set = set()
        #: instruction counter, for the GVM benchmarks
        self.instruction_count = 0
        #: profiling hook: called with the number of instructions one
        #: top-level run executed (set by Vinz to feed the per-fiber-run
        #: instruction histogram); a single None-check on the exit path
        self.profile_sink: Optional[Callable] = None
        #: hook for Vinz: called with the VM before each yield capture
        self.pre_yield_hook: Optional[Callable] = None
        #: set by Vinz when nothing outside the fiber reaches its state:
        #: a ``yield`` then hands the state it stops using over in
        #: :attr:`Yielded.live`, for :meth:`resume` to take back
        self.keep_live = False
        #: the runtime, for its clock (``(get-universal-time)``,
        #: ``(sleep)``) and ``eval``/``read``; None for bare VMs
        self.runtime = None
        #: set by Vinz while this VM runs a fiber, live or replaying:
        #: the bridge every distribution intrinsic goes through
        self.vinz = None
        #: debugging: called as hook(frame, op, arg) before every
        #: instruction.  Setting it routes execution through a slower
        #: traced loop; the fast path stays hook-free.
        self.instruction_hook: Optional[Callable] = None
        #: debugging: called as hook(depth, name, args) at every Gozer
        #: function entry (one cheap None-check per call).
        self.call_hook: Optional[Callable] = None

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------

    def run_code(self, code: CodeObject, env: Optional[Env] = None):
        """Run a zero-argument code object to completion or first yield.

        Code that is to see the bindings of ``env`` must have been
        compiled with ``compile_toplevel(form, closed=False)``.
        """
        if self.frames:
            raise GozerRuntimeError("VM is already running")
        frame = Frame(code, env if env is not None else Env())
        return self._run_top(frame=frame)

    def resume(self, continuation: Continuation, value: Any = None,
               live: Optional[tuple] = None):
        """Resume a captured continuation, delivering ``value``.

        The continuation is not consumed: resuming it again replays from
        the same point (``fork-and-exec``'s cloning relies on this).
        ``live`` is the :attr:`Yielded.live` of the capture that made
        ``continuation``: it runs instead of a decode, and is used up.
        """
        if self.frames:
            raise GozerRuntimeError("VM is already running")
        frames, handlers, restarts, dynamics = (
            live if live is not None else materialize(continuation))
        self.handlers = handlers
        self.restarts = restarts
        self.dynamics = DynamicBindings()
        for name, dyn_value in dynamics.items():
            self.dynamics.push(name, dyn_value)
        frames[-1].push(value)
        self.frames = frames
        return self._run_top(frame=None)

    def call(self, fn: Any, args: List[Any]) -> Any:
        """Call a function to completion (nested: yields are illegal).

        A future is touched first, as in callee position of a call
        instruction (:meth:`_apply`)."""
        if isinstance(fn, GozerFuture):
            fn = fn.touch()
        if isinstance(fn, GozerFunction):
            frame = self._frame_for_call(fn, list(args))
            return self._execute_loop(frame)
        if callable(fn):
            return self._call_host(fn, list(args))
        raise GozerRuntimeError(f"not callable: {fn!r}")

    # ------------------------------------------------------------------
    # execution machinery
    # ------------------------------------------------------------------

    def _run_top(self, frame: Optional[Frame]):
        """Drive the outermost loop; translate yield into a result."""
        count_before = self.instruction_count
        try:
            if frame is not None:
                value = self._execute_loop(frame)
            else:
                value = self._execute_loop(None, base=0)
            return Done(value)
        except _YieldSignal as y:
            return Yielded(y.continuation, y.value, y.live)
        finally:
            if not self.frames:
                self.handlers.clear()
                self.restarts.clear()
            if self.profile_sink is not None:
                self.profile_sink(self.instruction_count - count_before)

    def _execute_loop(self, frame: Optional[Frame], base: Optional[int] = None) -> Any:
        """Run until the frame at ``base`` returns; give back its value."""
        if base is None:
            base = len(self.frames)
        if frame is not None:
            self.frames.append(frame)
        self._depth += 1
        self._loop_bases.add(base)
        try:
            while len(self.frames) > base:
                try:
                    # comes back only with the base frame's value; a
                    # transfer or a condition restarts it on the new top
                    return self._run_fast(self.frames[-1])
                except _Transfer as transfer:
                    if transfer.frame_index >= base:
                        self._perform_transfer(transfer)
                    else:
                        raise
                except (_YieldSignal, UnhandledConditionError,
                        YieldFromNestedContext):
                    raise
                except ControlFlowSignal:
                    raise
                except Exception as exc:  # noqa: BLE001 - routed to conditions
                    if getattr(exc, "tunnels_through_vm", False):
                        # platform-level faults (e.g. simulated store
                        # IO errors) abort the whole operation window
                        # and are retried by the cluster — they are not
                        # conditions the workflow program can handle
                        raise
                    try:
                        self.signal(coerce_condition(exc), error_p=True)
                    except _Transfer as transfer:
                        if transfer.frame_index >= base:
                            self._perform_transfer(transfer)
                        else:
                            raise
            raise GozerRuntimeError("frame stack underflow")  # pragma: no cover
        except (UnhandledConditionError, YieldFromNestedContext):
            self._abandon_frames(base)
            raise
        finally:
            self._depth -= 1
            self._loop_bases.discard(base)

    def _run_fast(self, frame: Frame):
        """The hot dispatch loop: runs until this loop's base frame returns.

        Ordinary execution stays in here.  Interpreter state is held in
        method locals (no repeated ``frames[-1]`` lookups — the classic
        bytecode-interpreter optimization) and re-pointed when a Gozer
        call, tail call or return switches frames; host functions are
        called in place; ``load``/``store`` walk the scope chain inline.
        The loop runs each code object's fused view
        (:func:`~repro.lang.bytecode.fuse`): the same pcs as
        ``instructions``, with a ``store-pop`` or ``block``
        superinstruction at the first pc of each sequence it stands for,
        and a ``region`` at a loop's backward ``jump``.  A
        superinstruction advances ``pc`` and ``count`` once for every
        instruction it runs.  A ``block`` — a call with its tail — and a
        ``region`` — a loop of blocks — share one branch: their
        generated function (:mod:`~repro.lang.templates`) does the
        pushes, each name resolved from the frame's innermost scope, the
        calls and the tails, and returns the pc and count to go on at:
        past the block, a branch's target, an unbound ``setq``'s
        ``store-pop``, the loop's exit, the block in a region whose
        guard failed, or a region's head when a name it reads is bound
        nowhere at its entry.  A block whose call is not made in place
        (a Gozer function's, an unregistered host function's) pushes the
        callee and the arguments and returns the pc of its own ``call``
        or ``tail-call``, which this loop then makes.  A block's pushes
        are pure reads until its last guard, so when one cannot finish
        it returns None and the entry *deopts*: it pushes the callee and
        goes on at the next pc, on the entries that stand for the rest
        of its instructions, and whatever fails then fails at its own
        pc, stack and count.  The ``elif`` order is the measured
        frequency of the ``perf/`` probe programs.  Everything else —
        condition system, ``push-block`` and ``return-from``,
        continuations, and a ``return`` out of a frame that has cleanups
        to run — goes through :meth:`_step`, the one fallback.

        Every call (``call``, ``tail-call``) ends in the one call block
        after the chain; every other branch ``continue``s.
        ``frame.pc`` is written back before anything that can observe
        or unwind the frame stack (every call but a plain host
        function's, which cannot reach the VM; every fallback) and on
        the way out; ``instruction_count`` on the way out.
        """
        if self.instruction_hook is not None:
            return self._run_traced(frame)
        frames = self.frames
        loop_bases = self._loop_bases
        dynamic_stacks = self.dynamics.stacks
        global_variables = self.global_env.variables
        vm_functions = VM_FUNCTIONS
        stack = frame.stack
        code = frame.code
        instructions = code.fused or code.fuse()
        pc = frame.pc
        count = 0
        try:
            while True:
                op, arg = instructions[pc]
                pc += 1
                count += 1
                if op == "block" or op == "region":
                    # a call with its tail, or a loop of calls made in
                    # place: run goes on to the pc it returns, with the
                    # count of what it ran; ``pc`` and ``count`` are
                    # past this entry's first instruction
                    moved = arg[0](frame.env, global_variables,
                                   dynamic_stacks, stack, count)
                    if moved is None:
                        # Deopt (a block only): a push cannot finish
                        # here (a load's name not lexically bound, a
                        # load-global's unbound; a primitive or host
                        # function rebound, bound dynamically or given
                        # other types; a host call that raised).
                        # Nothing has changed, so do the load-global f
                        # and run the span's own entries from pc + 1:
                        # the failing instruction then does what it
                        # does, at its own pc, stack and count.
                        stack.append(self._load_free(arg[1]))
                    else:
                        pc, count = moved
                    continue
                elif op == "load":
                    env = frame.env
                    while env is not None:
                        bindings = env.bindings
                        if arg in bindings:
                            stack.append(bindings[arg])
                            break
                        env = env.parent
                    else:
                        stack.append(self._load_free(arg))
                    continue
                elif op == "load-global":
                    if dynamic_stacks and arg in dynamic_stacks:
                        stack.append(dynamic_stacks[arg][-1])
                    else:
                        try:
                            stack.append(global_variables[arg])
                        except KeyError:
                            raise UnboundVariableError(arg) from None
                    continue
                elif op == "store-pop":
                    # the store and the pop (the dup is counted above)
                    pc += 2
                    count += 2
                    env = frame.env
                    while env is not None:
                        if arg in env.bindings:
                            env.bindings[arg] = stack.pop()
                            break
                        env = env.parent
                    else:
                        self._store_free(arg, stack.pop())
                    continue
                elif op == "call" or op == "tail-call":
                    if arg:
                        args = stack[-arg:]
                        del stack[-arg:]
                    else:
                        args = []
                    callee = stack.pop()
                    tail = op == "tail-call"
                elif op == "const":
                    stack.append(copy.deepcopy(arg)
                                 if type(arg) is list else arg)
                    continue
                elif op == "jump-if-false":
                    value = stack.pop()
                    if value is None or value is False:
                        pc = arg
                    continue
                elif op == "pop":
                    stack.pop()
                    continue
                elif op == "dup":
                    stack.append(stack[-1])
                    continue
                elif op == "store":
                    env = frame.env
                    while env is not None:
                        if arg in env.bindings:
                            env.bindings[arg] = stack.pop()
                            break
                        env = env.parent
                    else:
                        self._store_free(arg, stack.pop())
                    continue
                elif op == "jump":
                    pc = arg
                    continue
                elif op == "return" and not (
                        frame.unwinds or frame.dynamic_bound
                        or self.handlers or self.restarts):
                    # nothing to tear down: pop the frame in place
                    value = stack.pop()
                    frames.pop()
                    if len(frames) in loop_bases:
                        return value
                    frame = frames[-1]
                    stack = frame.stack
                    code = frame.code
                    instructions = code.fused or code.fuse()
                    pc = frame.pc
                    stack.append(value)
                    continue
                elif op == "bind":
                    frame.env.bindings[arg] = stack.pop()
                    continue
                elif op == "push-scope":
                    frame.env = Env(parent=frame.env)
                    frame.scopes += 1
                    continue
                elif op == "pop-scope":
                    frame.env = frame.env.parent
                    frame.scopes -= 1
                    continue
                elif op == "jump-if-true":
                    value = stack.pop()
                    if value is not None and value is not False:
                        pc = arg
                    continue
                elif op == "closure":
                    stack.append(GozerFunction(arg, frame.env))
                    continue
                elif op == "make-list":
                    if arg:
                        values = stack[-arg:]
                        del stack[-arg:]
                        stack.append(values)
                    else:
                        stack.append([])
                    continue
                else:
                    frame.pc = pc
                    result = self._step(frame, op, arg)
                    if result is not _CONTINUE:
                        return result
                    frame = frames[-1]
                    stack = frame.stack
                    code = frame.code
                    instructions = code.fused or code.fuse()
                    pc = frame.pc
                    continue
                # the call block: ``callee``, ``args`` and ``tail`` are set
                callee_type = type(callee)
                if callee_type is GozerFunction:
                    frame.pc = pc
                    callee_frame = self._frame_for_call(callee, args)
                    if tail and not (frame.unwinds or frame.dynamic_bound
                                     or frame.blocks):
                        # Proper tail call: replace the caller's frame
                        # (keeps recursive Gozer code O(1) in frame-stack
                        # depth).
                        frames[-1] = callee_frame
                    else:
                        frames.append(callee_frame)
                    frame = callee_frame
                    stack = frame.stack
                    code = frame.code
                    instructions = code.fused or code.fuse()
                    pc = 0
                elif callee_type is FunctionType:
                    # a host function, in place (see _call_host)
                    if callee in vm_functions:
                        frame.pc = pc
                        stack.append(callee(self, *args))
                    else:
                        for value in args:
                            if type(value) is GozerFuture:
                                args = force_all(args)
                                break
                        stack.append(callee(*args))
                else:
                    # a future in callee position, another kind of
                    # callable, or not callable at all
                    frame.pc = pc
                    self._apply(frame, callee, args, tail)
                    frame = frames[-1]
                    stack = frame.stack
                    code = frame.code
                    instructions = code.fused or code.fuse()
                    pc = frame.pc
        finally:
            frame.pc = pc
            self.instruction_count += count

    def _run_traced(self, frame: Frame):
        """Instruction-hooked variant of the dispatch loop (debugger).

        One :meth:`_step` per iteration so the hook sees every
        instruction; used only while ``instruction_hook`` is set.
        """
        while True:
            op, arg = frame.code.instructions[frame.pc]
            self.instruction_hook(frame, op, arg)
            frame.pc += 1
            self.instruction_count += 1
            result = self._step(frame, op, arg)
            if result is not _CONTINUE:
                return result
            frame = self.frames[-1]

    def _step(self, frame: Frame, op: str, arg):
        """Execute one fetched instruction of the top frame (``frame.pc``
        already past it): the whole instruction set, one general path
        per opcode.  The traced loop runs everything through here; the
        fast loop only what it does not inline.  Returns the base
        frame's value when a ``return`` ends the running loop, else
        ``_CONTINUE``.
        """
        if op == "call":
            self._op_call(frame, arg, tail=False)
        elif op == "tail-call":
            self._op_call(frame, arg, tail=True)
        elif op == "return":
            return self._op_return(frame.pop())
        elif op == "const":
            frame.push(copy.deepcopy(arg) if type(arg) is list else arg)
        elif op == "load":
            frame.push(self._load(frame, arg))
        elif op == "load-global":
            frame.push(self._load_free(arg))
        elif op == "store":
            self._store(frame, arg, frame.pop())
        elif op == "store-global":
            self._define_global(arg, frame.pop())
        elif op == "bind":
            frame.env.bindings[arg] = frame.pop()
        elif op == "pop":
            frame.pop()
        elif op == "dup":
            frame.push(frame.top())
        elif op == "jump":
            frame.pc = arg
        elif op == "jump-if-false":
            if not truthy(frame.pop()):
                frame.pc = arg
        elif op == "jump-if-true":
            if truthy(frame.pop()):
                frame.pc = arg
        elif op == "push-scope":
            frame.env = Env(parent=frame.env)
            frame.scopes += 1
        elif op == "pop-scope":
            frame.env = frame.env.parent
            frame.scopes -= 1
        elif op == "closure":
            frame.push(GozerFunction(arg, frame.env))
        elif op == "make-list":
            stack = frame.stack
            values = stack[len(stack) - arg:]
            del stack[len(stack) - arg:]
            stack.append(values)
        elif op == "push-block":
            name, exit_pc = arg
            frame.blocks.append(BlockRecord(
                name=name, exit_pc=exit_pc,
                stack_depth=len(frame.stack), scope_depth=frame.scopes,
                unwind_depth=len(frame.unwinds),
                handler_depth=len(self.handlers),
                restart_depth=len(self.restarts)))
        elif op == "pop-block":
            for _ in range(arg):
                frame.blocks.pop()
        elif op == "return-from":
            self._op_return_from(arg, frame.pop())
        elif op == "yield":
            self._op_yield(frame)
        elif op == "push-cc":
            self._op_push_cc(frame)
        elif op == "spawn-future":
            self._op_spawn_future(frame, arg)
        elif op == "push-handlers":
            flat = frame.pop()
            pairs = [(flat[i], flat[i + 1]) for i in range(0, len(flat), 2)]
            self.handlers.append(HandlerGroup(pairs, len(self.frames) - 1))
        elif op == "pop-handlers":
            for _ in range(arg):
                self.handlers.pop()
        elif op == "push-restarts":
            names, exit_pc = arg
            closures = frame.stack[len(frame.stack) - len(names):]
            del frame.stack[len(frame.stack) - len(names):]
            group_base = len(self.restarts)
            for name, fn in zip(names, closures):
                self.restarts.append(RestartRecord(
                    name=name, code=fn, frame_index=len(self.frames) - 1,
                    exit_pc=exit_pc, stack_depth=len(frame.stack),
                    scope_depth=frame.scopes,
                    unwind_depth=len(frame.unwinds),
                    handler_depth=len(self.handlers),
                    restart_depth=group_base))
        elif op == "pop-restarts":
            frame_index = len(self.frames) - 1
            while self.restarts and self.restarts[-1].frame_index == frame_index \
                    and self.restarts[-1].exit_pc == frame.pc:
                self.restarts.pop()
        elif op == "push-unwind":
            frame.unwinds.append(UnwindRecord(GozerFunction(arg, frame.env),
                                              frame.scopes))
        elif op == "pop-unwind":
            record = frame.unwinds.pop()
            self.call(record.thunk, [])
        elif op == "dyn-bind":
            self.dynamics.push(arg, frame.pop())
            frame.dynamic_bound.append(arg)
        elif op == "dyn-unbind":
            self.dynamics.pop(arg)
            if arg in frame.dynamic_bound:
                for i in range(len(frame.dynamic_bound) - 1, -1, -1):
                    if frame.dynamic_bound[i] is arg:
                        del frame.dynamic_bound[i]
                        break
        else:  # pragma: no cover
            raise GozerRuntimeError(f"unknown opcode {op!r}")
        return _CONTINUE

    # -- variable access -------------------------------------------------

    def _load(self, frame: Frame, name: Symbol) -> Any:
        value = frame.env.lookup_or(name, _MISSING)
        if value is not _MISSING:
            return value
        return self._load_free(name)

    def _load_free(self, name: Symbol) -> Any:
        """A name with no lexical binding: dynamic, then global."""
        value = self.dynamics.get(name)
        if value is _MISSING:
            value = self.global_env.variables.get(name, _MISSING)
            if value is _MISSING:
                raise UnboundVariableError(name)
        return value

    def _store(self, frame: Frame, name: Symbol, value: Any) -> None:
        if not frame.env.assign(name, value):
            self._store_free(name, value)

    def _store_free(self, name: Symbol, value: Any) -> None:
        if not self.dynamics.set(name, value):
            self._define_global(name, value)

    def _define_global(self, name: Symbol, value: Any) -> None:
        """Scripting-language behaviour: ``setq`` on an unbound name
        creates a global (Gozer is "a scripting language", paper
        Section 1), as ``defun`` does.  A Vinz fiber may not write one:
        globals are not in its history, so a rebuild would write again
        (:meth:`~repro.vinz.execution.FiberExecution.refuse_global_write`)."""
        if self.vinz is not None:
            self.vinz.refuse_global_write(name)
        self.global_env.define(name, value)

    # -- calls -------------------------------------------------------------

    def _op_call(self, frame: Frame, nargs: int, tail: bool) -> None:
        stack = frame.stack
        if nargs:
            args = stack[-nargs:]
            del stack[-nargs:]
        else:
            args = []
        self._apply(frame, stack.pop(), args, tail)

    def _apply(self, frame: Frame, callee: Any, args: List[Any],
               tail: bool) -> None:
        """Call any callee from ``frame``: push (or, for a proper tail
        call, substitute) a Gozer function's frame, or push a host
        function's result."""
        if type(callee) is GozerFunction:
            new_frame = self._frame_for_call(callee, args)
            if tail and not frame.unwinds and not frame.dynamic_bound \
                    and not frame.blocks:
                # Proper tail call: replace the caller's frame (keeps
                # recursive Gozer code O(1) in frame-stack depth).
                self.frames[-1] = new_frame
            else:
                self.frames.append(new_frame)
            return
        if isinstance(callee, GozerFuture):
            callee = callee.touch()
            if isinstance(callee, GozerFunction):
                self.frames.append(self._frame_for_call(callee, args))
                return
        if callable(callee):
            frame.stack.append(self._call_host(callee, args))
            return
        raise GozerRuntimeError(f"not callable: {callee!r}")

    def _call_host(self, fn: Callable, args: List[Any]) -> Any:
        if is_vm_function(fn):
            return fn(self, *args)
        # Rule from Section 4.1: passing a future to a host library
        # determines it first.
        return fn(*force_all(args))

    def _frame_for_call(self, fn: GozerFunction, args: List[Any]) -> Frame:
        if self.call_hook is not None:
            self.call_hook(len(self.frames), fn.name, args)
        code = fn.code
        params = code.params
        required = params.required
        # fast path: required-only lambda lists (the overwhelmingly
        # common case) bind with one dict construction
        if not params.optional and not params.keys and params.rest is None:
            if len(args) != len(required):
                from ..lang.errors import WrongArgumentCount

                raise WrongArgumentCount(fn.name,
                                         params.arity_description(),
                                         len(args))
            env = Env(fn.closure, dict(zip(required, args)))
        else:
            env = Env(parent=fn.closure)
            bind_parameters(params, args, env, fn.name, self._eval_default)
        return Frame(code, env, function_name=fn.name)

    def _eval_default(self, default_code: Optional[CodeObject], env: Env) -> Any:
        if default_code is None:
            return None
        return self._execute_loop(Frame(default_code, Env(parent=env)))

    def _op_return(self, value: Any):
        frame = self.frames.pop()
        self._teardown_frame(frame)
        if len(self.frames) in self._loop_bases:
            # This frame was the base of an active loop: hand the value
            # back to that loop's Python-level caller.
            return value
        self.frames[-1].push(value)
        return _CONTINUE

    # -- non-local control ---------------------------------------------------

    def _op_return_from(self, name: Optional[Symbol], value: Any) -> None:
        for frame_index in range(len(self.frames) - 1, -1, -1):
            candidate = self.frames[frame_index]
            for block_index in range(len(candidate.blocks) - 1, -1, -1):
                record = candidate.blocks[block_index]
                if record.name is name:
                    raise _Transfer(frame_index, "block",
                                    (block_index, record), value)
        raise GozerRuntimeError(f"return-from: no active block named {name}")

    def _perform_transfer(self, transfer: _Transfer) -> None:
        # 1. unwind every frame above the target (running cleanups)
        while len(self.frames) - 1 > transfer.frame_index:
            dead = self.frames.pop()
            self._teardown_frame(dead)
        frame = self.frames[transfer.frame_index]
        if transfer.kind == "block":
            block_index, record = transfer.record
            self._restore_frame_to(frame, record)
            del frame.blocks[block_index:]
            self._truncate_dynamic_state(record)
            frame.stack.append(transfer.payload)
            frame.pc = record.exit_pc
        elif transfer.kind == "restart":
            record = transfer.record
            self._restore_frame_to(frame, record)
            self._truncate_dynamic_state(record)
            frame.blocks = [b for b in frame.blocks
                            if b.stack_depth <= record.stack_depth]
            # Splice the restart clause into the fiber's own flow of
            # control: its frame runs in this loop and its return value
            # lands at the restart-case's exit.  Running it as a nested
            # call would make a `retry` clause that re-issues a
            # non-blocking service request (paper Listing 2) unable to
            # yield.
            frame.pc = record.exit_pc
            clause_frame = self._frame_for_call(record.code,
                                                list(transfer.payload))
            self.frames.append(clause_frame)
        else:  # pragma: no cover
            raise GozerRuntimeError(f"unknown transfer kind {transfer.kind}")

    def _restore_frame_to(self, frame: Frame, record) -> None:
        # run intervening unwind-protect cleanups, innermost first
        while len(frame.unwinds) > record.unwind_depth:
            unwind = frame.unwinds.pop()
            self.call(unwind.thunk, [])
        while frame.scopes > record.scope_depth:
            frame.env = frame.env.parent
            frame.scopes -= 1
        del frame.stack[record.stack_depth:]

    def _truncate_dynamic_state(self, record) -> None:
        del self.handlers[record.handler_depth:]
        del self.restarts[record.restart_depth:]

    def _teardown_frame(self, frame: Frame) -> None:
        """Run cleanups when a frame is discarded for any reason."""
        while frame.unwinds:
            unwind = frame.unwinds.pop()
            self.call(unwind.thunk, [])
        for name in reversed(frame.dynamic_bound):
            self.dynamics.pop(name)
        frame.dynamic_bound.clear()
        frame_index = len(self.frames)  # the index this frame occupied
        if any(g.frame_index >= frame_index for g in self.handlers):
            self.handlers[:] = [g for g in self.handlers
                                if g.frame_index < frame_index]
        if any(r.frame_index >= frame_index for r in self.restarts):
            self.restarts[:] = [r for r in self.restarts
                                if r.frame_index < frame_index]

    def _abandon_frames(self, base: int) -> None:
        """Unwind to ``base`` when an unhandled error escapes the loop."""
        while len(self.frames) > base:
            dead = self.frames.pop()
            try:
                self._teardown_frame(dead)
            except Exception:  # noqa: BLE001 - cleanup errors are secondary
                pass

    # -- continuations -----------------------------------------------------

    def _op_yield(self, frame: Frame) -> None:
        value = frame.pop()
        if not self.allow_yield or self._depth != 1:
            frame.pc -= 1  # leave state consistent for diagnostics
            raise YieldFromNestedContext(
                "yield is only legal on the fiber's own thread at top level"
            )
        if self.pre_yield_hook is not None:
            self.pre_yield_hook(self)
        dynamics = self.dynamics.snapshot()
        continuation = capture(self.frames, self.handlers, self.restarts,
                               dynamics, label="yield")
        live = ((self.frames, self.handlers, self.restarts, dynamics)
                if self.keep_live else None)
        self.frames = []
        self.handlers = []
        self.restarts = []
        raise _YieldSignal(continuation, value, live)

    def _op_push_cc(self, frame: Frame) -> None:
        if self._depth != 1:
            raise YieldFromNestedContext(
                "push-cc is only legal on the fiber's own thread at top level"
            )
        continuation = capture(self.frames, self.handlers, self.restarts,
                               self.dynamics.snapshot(), label="push-cc")
        frame.push(continuation)

    def _op_spawn_future(self, frame: Frame, code: CodeObject) -> None:
        if self.future_submitter is None:
            raise GozerRuntimeError("no future executor configured")
        thunk = GozerFunction(code, frame.env, name="future-body")
        frame.push(self.future_submitter(thunk, self))

    # -- condition system -----------------------------------------------------

    def signal(self, condition: GozerCondition, error_p: bool = False) -> Any:
        """Signal ``condition``: run matching handlers *without unwinding*.

        Handlers run innermost-first; each runs with itself and every
        inner handler unbound (standard CL semantics, preventing
        recursive handling).  A handler "handles" by performing a
        non-local transfer (invoking a restart or ``return-from``); if
        it returns normally it has declined.  When every handler
        declines: ``signal`` returns nil, ``error`` raises
        :class:`UnhandledConditionError` to the host.
        """
        saved = self.handlers
        try:
            for index in range(len(saved) - 1, -1, -1):
                group = saved[index]
                for spec, handler_fn in group.handlers:
                    if matches(spec, condition):
                        self.handlers = saved[:index]
                        try:
                            self.call(handler_fn, [condition])
                        finally:
                            self.handlers = saved
        finally:
            self.handlers = saved
        if error_p:
            raise UnhandledConditionError(condition)
        return None

    def find_restart(self, name) -> Optional[RestartRecord]:
        target = name.name if isinstance(name, Symbol) else str(name)
        for record in reversed(self.restarts):
            if record.name.name == target:
                return record
        return None

    def invoke_restart(self, name, args: List[Any]) -> None:
        record = self.find_restart(name)
        if record is None:
            raise GozerRuntimeError(f"no active restart named {name}")
        raise _Transfer(record.frame_index, "restart", record, list(args))


def truthy(value: Any) -> bool:
    """Gozer truth: only nil (None) and false are false (Clojure rule)."""
    return value is not None and value is not False
