"""A tree-walking reference interpreter for Gozer.

Paper Section 4.1: "Compilation to bytecode (as opposed to a
tree-walking interpreter) was introduced as an optimization for Vinz
persistence."  This module is that pre-optimization interpreter,
re-created for two purposes:

* benchmark **S4c** (``benchmarks/bench_gvm.py``) compares it against
  the bytecode VM to reproduce the claim;
* the differential test suite runs pure programs through both
  implementations and asserts identical results.

Because it recurses on the *host* stack, this interpreter fundamentally
cannot support ``yield``/``push-cc`` — exactly the limitation that
motivated the GVM's heap-frame design.  Attempting either raises
:class:`ContinuationsUnsupported`.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from ..lang.errors import GozerRuntimeError, UnboundVariableError
from ..lang.macros import is_listform, macroexpand
from ..lang.reader import Char
from ..lang.symbols import Keyword, Symbol
from .environment import Env, GlobalEnvironment, _MISSING
from .futures import force, force_all
from .vm import truthy

_S = Symbol


class ContinuationsUnsupported(GozerRuntimeError):
    """yield/push-cc require the bytecode VM's heap frames."""


class _BlockExit(Exception):
    def __init__(self, name, value):
        self.name = name
        self.value = value


class TreeFunction:
    """A closure of the tree interpreter."""

    __slots__ = ("params", "body", "closure", "name", "interp")

    def __init__(self, params: List[Symbol], body: List[Any], closure: Env,
                 name: str, interp: "TreeInterpreter"):
        self.params = params
        self.body = body
        self.closure = closure
        self.name = name
        self.interp = interp

    def __call__(self, *args):
        env = Env(parent=self.closure)
        if len(args) != len(self.params):
            raise GozerRuntimeError(
                f"{self.name}: expected {len(self.params)} args, got {len(args)}")
        for param, value in zip(self.params, args):
            env.bind(param, value)
        return self.interp.eval_body(self.body, env)

    def __repr__(self):
        return f"#<tree-function {self.name}>"


class TreeInterpreter:
    """Direct recursive evaluator over macro-expanded forms.

    Shares the global environment format (and therefore the standard
    library) with the VM, but calls Gozer closures by Python recursion.
    Only simple (required-only) lambda lists are supported — the
    interpreter predates the features the compiler grew.
    """

    def __init__(self, global_env: GlobalEnvironment,
                 apply_fn: Optional[Callable] = None):
        self.global_env = global_env
        self.apply_fn = apply_fn

    # -- public --------------------------------------------------------

    def eval(self, form: Any, env: Optional[Env] = None) -> Any:
        return self._eval(form, env if env is not None else Env())

    def eval_body(self, body: List[Any], env: Env) -> Any:
        value = None
        for form in body:
            value = self._eval(form, env)
        return value

    # -- dispatch --------------------------------------------------------

    def _eval(self, form: Any, env: Env) -> Any:
        form = macroexpand(form, self.global_env, self.apply_fn)
        if isinstance(form, Symbol):
            value = env.lookup_or(form, _MISSING)
            if value is not _MISSING:
                return value
            return self.global_env.lookup(form)
        if isinstance(form, (int, float, str, bool, Keyword, Char)) or form is None:
            return form
        if not isinstance(form, list):
            return form
        if not form:
            return []
        head = form[0]
        if isinstance(head, Symbol):
            method_name = _SPECIAL_NAMES.get(head.name)
            if method_name is not None:
                return getattr(self, method_name)(form, env)
        fn = self._eval(head, env)
        args = [self._eval(arg, env) for arg in form[1:]]
        return self._apply(fn, args)

    def _apply(self, fn: Any, args: List[Any]) -> Any:
        fn = force(fn)
        if isinstance(fn, TreeFunction):
            return fn(*args)
        if callable(fn):
            if getattr(fn, "needs_vm", False):
                raise GozerRuntimeError(
                    f"builtin {fn} requires the bytecode VM")
            return fn(*force_all(args))
        raise GozerRuntimeError(f"not callable: {fn!r}")

    # -- special forms -----------------------------------------------------

    def _sf_quote(self, form, env):
        return form[1]

    def _sf_if(self, form, env):
        if truthy(self._eval(form[1], env)):
            return self._eval(form[2], env)
        return self._eval(form[3], env) if len(form) > 3 else None

    def _sf_progn(self, form, env):
        return self.eval_body(form[1:], env)

    def _sf_let(self, form, env):
        new_env = Env(parent=env)
        for binding in form[1]:
            if isinstance(binding, Symbol):
                new_env.bind(binding, None)
            else:
                value = self._eval(binding[1] if len(binding) > 1 else None, env)
                new_env.bind(binding[0], value)
        return self.eval_body(form[2:], new_env)

    def _sf_let_star(self, form, env):
        new_env = Env(parent=env)
        for binding in form[1]:
            if isinstance(binding, Symbol):
                new_env.bind(binding, None)
            else:
                value = self._eval(binding[1] if len(binding) > 1 else None, new_env)
                new_env.bind(binding[0], value)
        return self.eval_body(form[2:], new_env)

    def _sf_lambda(self, form, env):
        params = [p for p in form[1] if isinstance(p, Symbol)]
        return TreeFunction(params, form[2:], env, "lambda", self)

    _sf_fn = _sf_lambda

    def _sf_defun(self, form, env):
        name, params, *body = form[1:]
        fn = TreeFunction([p for p in params if isinstance(p, Symbol)],
                          body, env, name.name, self)
        self.global_env.define(name, fn)
        return name

    def _sf_setq(self, form, env):
        value = self._eval(form[2], env)
        if not env.assign(form[1], value):
            self.global_env.define(form[1], value)
        return value

    def _sf_setf(self, form, env):
        """setf support, sharing the compiler's place expanders."""
        from ..lang.compiler import _DEFAULT_SETF_EXPANDERS

        if len(form) < 3:
            raise GozerRuntimeError("setf needs (setf place value)")
        place, value = form[1], form[2]
        if isinstance(place, Symbol):
            return self._sf_setq([form[0], place, value], env)
        if is_listform(place) and isinstance(place[0], Symbol):
            expander = _DEFAULT_SETF_EXPANDERS.get(place[0].name)
            if expander is not None:
                return self._eval(expander(place, value), env)
        raise GozerRuntimeError(f"setf: cannot set place {place!r}")

    def _sf_while(self, form, env):
        while truthy(self._eval(form[1], env)):
            for stmt in form[2:]:
                self._eval(stmt, env)
        return None

    def _sf_and(self, form, env):
        value = True
        for sub in form[1:]:
            value = self._eval(sub, env)
            if not truthy(value):
                return value
        return value

    def _sf_or(self, form, env):
        if len(form) == 1:
            return None
        for sub in form[1:-1]:
            value = self._eval(sub, env)
            if truthy(value):
                return value
        # like the VM: the last form's value, falsy or not
        return self._eval(form[-1], env)

    def _sf_block(self, form, env):
        name = form[1]
        try:
            return self.eval_body(form[2:], env)
        except _BlockExit as exit_:
            if exit_.name is name:
                return exit_.value
            raise

    def _sf_return_from(self, form, env):
        value = self._eval(form[2], env) if len(form) > 2 else None
        raise _BlockExit(form[1], value)

    def _sf_return(self, form, env):
        value = self._eval(form[1], env) if len(form) > 1 else None
        raise _BlockExit(None, value)

    def _sf_function(self, form, env):
        target = form[1]
        if isinstance(target, Symbol):
            value = env.lookup_or(target, _MISSING)
            if value is not _MISSING:
                return value
            return self.global_env.lookup(target)
        return self._eval(target, env)

    def _sf_yield(self, form, env):
        raise ContinuationsUnsupported(
            "the tree-walking interpreter cannot capture the host stack; "
            "use the bytecode VM (this is the paper's Section 4.1 argument)")

    _sf_push_cc = _sf_yield
    _sf_future = _sf_yield


_SPECIAL_NAMES = {
    "quote": "_sf_quote",
    "if": "_sf_if",
    "progn": "_sf_progn",
    "let": "_sf_let",
    "let*": "_sf_let_star",
    "lambda": "_sf_lambda",
    "fn": "_sf_fn",
    "defun": "_sf_defun",
    "setq": "_sf_setq",
    "setf": "_sf_setf",
    "while": "_sf_while",
    "and": "_sf_and",
    "or": "_sf_or",
    "block": "_sf_block",
    "return-from": "_sf_return_from",
    "return": "_sf_return",
    "function": "_sf_function",
    "yield": "_sf_yield",
    "push-cc": "_sf_push_cc",
    "future": "_sf_future",
}
