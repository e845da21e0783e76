"""The Gozer runtime: reader + compiler + VM + stdlib, tied together.

A :class:`Runtime` corresponds to one loaded Gozer *program*: it owns
the global environment (functions, macros, special variables), the
readtable (so Vinz can install the ``^`` reader macro, Listing 5), and
the future executor.  Fibers executing the program each get their own
:class:`~repro.gvm.vm.VM` but share the runtime.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Optional

from ..lang.compiler import Compiler
from ..lang.errors import CompileError
from ..lang.reader import ReadTable, Reader
from ..lang.symbols import Symbol
from .continuations import Continuation
from .environment import Env, GlobalEnvironment
from .frames import GozerFunction, GozerMacro
from .futures import (
    FutureExecutor,
    SynchronousFutureExecutor,
    ThreadPoolFutureExecutor,
    enter_fiber_thread,
)
from .vm import VM, Done, Yielded

_S = Symbol


class RuntimeClock:
    """The wall clock: ``(get-universal-time)`` reads the host time and
    ``(sleep n)`` really blocks — the standalone-interpreter default."""

    def now(self) -> float:
        return time.time()

    def sleep(self, seconds: float) -> None:
        time.sleep(max(0.0, float(seconds)))


class VirtualClock:
    """A simulated clock: time only moves when told to.

    ``now_fn`` ties the clock to an external time source (Vinz points
    it at the discrete-event kernel); ``sleep`` advances a local offset
    instead of blocking, so ``(sleep 3600)`` outside a fiber costs
    nothing real and stays deterministic.  ``slept`` accumulates the
    total seconds slept — what the regression tests assert on.
    """

    def __init__(self, start: float = 0.0,
                 now_fn: Optional[Callable[[], float]] = None):
        self.start = start
        self.now_fn = now_fn
        self.offset = 0.0
        self.slept = 0.0

    def now(self) -> float:
        base = self.now_fn() if self.now_fn is not None else self.start
        return base + self.offset

    def sleep(self, seconds: float) -> None:
        seconds = max(0.0, float(seconds))
        self.offset += seconds
        self.slept += seconds

    def advance(self, seconds: float) -> None:
        """Move time forward without counting it as a sleep."""
        self.offset += max(0.0, float(seconds))


class Runtime:
    """One loaded Gozer program and the machinery to run it."""

    def __init__(self, executor: Optional[FutureExecutor] = None,
                 clock=None):
        self.global_env = GlobalEnvironment()
        self.readtable = ReadTable()
        self.executor = executor if executor is not None else ThreadPoolFutureExecutor()
        #: the time source ``(get-universal-time)``/``(sleep n)`` use;
        #: real time by default, virtual under Vinz and in clock tests
        self.clock = clock if clock is not None else RuntimeClock()
        self.compiler = Compiler(self.global_env, apply_fn=self.apply)
        from ..lang import stdlib

        stdlib.install(self)

    # ------------------------------------------------------------------
    # reading / compiling
    # ------------------------------------------------------------------

    def reader(self) -> Reader:
        return Reader(self.readtable)

    def read(self, text: str) -> Any:
        return self.reader().read_string(text)

    def read_all(self, text: str) -> List[Any]:
        return self.reader().read_all(text)

    def compile(self, form: Any, name: str = "top-level"):
        return self.compiler.compile_toplevel(form, name=name)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def new_vm(self, allow_yield: bool = False) -> VM:
        vm = VM(self.global_env,
                future_submitter=self._submit_future,
                allow_yield=allow_yield)
        vm.clock = self.clock
        return vm

    def eval_string(self, text: str) -> Any:
        """Evaluate every form in ``text``; return the last value."""
        value = None
        for form in self.read_all(text):
            value = self.eval_form(form)
        return value

    #: alias matching Lisp naming
    load = eval_string

    def eval_file(self, path: str) -> Any:
        """Load a Gozer source file (conventionally ``*.gozer``)."""
        with open(path, "r", encoding="utf-8") as fh:
            return self.eval_string(fh.read())

    def eval_form(self, form: Any) -> Any:
        """Evaluate one top-level form.

        ``defmacro`` and top-level ``progn`` get special treatment so a
        macro defined earlier in a file is available to later forms —
        the behaviour every Lisp source file relies on.
        """
        if isinstance(form, list) and form and isinstance(form[0], Symbol):
            head = form[0].name
            if head == "defmacro":
                return self._eval_defmacro(form)
            if head == "progn":
                value = None
                for sub in form[1:]:
                    value = self.eval_form(sub)
                return value
        code = self.compile(form)
        result = self.new_vm().run_code(code)
        assert isinstance(result, Done)
        return result.value

    def _eval_defmacro(self, form: List[Any]) -> Any:
        if len(form) < 3 or not isinstance(form[1], Symbol):
            raise CompileError("defmacro needs (defmacro name (args) body...)", form)
        name = form[1]
        code = self.compiler.compile_function(f"macro:{name.name}", form[2], form[3:])
        expander = GozerFunction(code, None, name=f"macro:{name.name}")
        self.global_env.define_macro(name, GozerMacro(expander, name.name))
        return name

    def apply(self, fn: Any, args: List[Any]) -> Any:
        """Call a Gozer or host function to completion on a fresh VM, by
        the VM's one rule for a call (:meth:`VM.call`): a host function
        that takes the VM gets it, and a plain one gets its future
        arguments forced."""
        return self.new_vm().call(fn, list(args))

    # ------------------------------------------------------------------
    # fiber-style execution (used directly and by Vinz)
    # ------------------------------------------------------------------

    def start(self, code_or_text, env: Optional[Env] = None):
        """Run a program as a *fiber*: yields surface as ``Yielded``.

        Returns :class:`~repro.gvm.vm.Done` or
        :class:`~repro.gvm.vm.Yielded`.
        """
        if isinstance(code_or_text, str):
            forms = self.read_all(code_or_text)
            if not forms:
                return Done(None)
            *defs, last = forms
            for form in defs:
                self.eval_form(form)
            # with an outer scope supplied, no name is provably global
            code = self.compiler.compile_toplevel(last, name="fiber-main",
                                                  closed=env is None)
        else:
            code = code_or_text
        enter_fiber_thread()
        vm = self.new_vm(allow_yield=True)
        return vm.run_code(code, env=env)

    def resume(self, continuation: Continuation, value: Any = None):
        """Resume a fiber continuation on a fresh VM."""
        enter_fiber_thread()
        vm = self.new_vm(allow_yield=True)
        return vm.resume(continuation, value)

    # ------------------------------------------------------------------
    # futures
    # ------------------------------------------------------------------

    def _submit_future(self, thunk: GozerFunction, parent_vm: VM):
        label = f"future:{thunk.code.name}"
        return self.executor.submit(lambda: self.apply(thunk, []), label=label)

    def shutdown(self) -> None:
        self.executor.shutdown()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
        return False


def make_runtime(deterministic: bool = False, max_workers: int = 8) -> Runtime:
    """Build a runtime.

    ``deterministic=True`` uses the synchronous future executor (futures
    determine immediately, in submission order) — the right choice for
    tests and the discrete-event cluster.
    """
    executor = SynchronousFutureExecutor() if deterministic \
        else ThreadPoolFutureExecutor(max_workers=max_workers)
    return Runtime(executor=executor)
