"""Named error handlers: defhandler / with-handler (paper Section 3.7).

"A handler associates a list of conditions (whether Java classes or XML
QNames) with an action (usually) provided by Vinz, making it possible
to centralize condition-handling logic."  The four built-in actions:

* ``retry``  — invoke the active ``retry`` restart (deflink stubs bind
  one), up to ``:count`` times;
* ``ignore`` — invoke the active ``ignore`` restart, allowing optional
  operations to fail harmlessly;
* ``break``  — terminate the current fiber cleanly, returning nil to
  the parent (other fibers unaffected);
* ``terminate`` — terminate the fiber *and* the task with an error
  status.

"An action is just a function, so the workflow author is free to define
additional actions": an unknown action name is looked up as a global
Gozer function and called with the condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from ..gvm.frames import GozerFunction, GozerMacro, vm_function
from ..lang.errors import CompileError, GozerRuntimeError
from ..lang.symbols import Keyword, Symbol, gensym
from .distribution import VinzBreak, VinzTerminateTask, current_execution

_S = Symbol


@dataclass
class HandlerDefinition:
    """One ``defhandler`` definition."""

    name: str
    typespecs: List[Any] = field(default_factory=list)
    action: str = "ignore"
    count: int = 1
    doc: str = ""

    def typespec(self) -> List[Any]:
        """The combined condition spec for handler-bind matching."""
        return list(self.typespecs)


def parse_defhandler(name: Symbol, options: List[Any]) -> HandlerDefinition:
    """Parse (defhandler name :java (...) :code (...) :action a :count n)."""
    if not isinstance(name, Symbol):
        raise CompileError("defhandler needs a symbol name")
    definition = HandlerDefinition(name=name.name)
    i = 0
    while i < len(options):
        key = options[i]
        if not isinstance(key, Keyword):
            raise CompileError(f"defhandler: expected a keyword, got {key!r}")
        if i + 1 >= len(options):
            raise CompileError(f"defhandler: {key} needs a value")
        value = options[i + 1]
        i += 2
        if key.name == "java":
            # host exception class names (the paper's Java classes)
            definition.typespecs.extend(_string_list(value))
        elif key.name == "code":
            # service error QNames
            definition.typespecs.extend(_string_list(value))
        elif key.name == "condition":
            # Gozer condition-type symbols
            definition.typespecs.extend(
                value if isinstance(value, list) else [value])
        elif key.name == "action":
            definition.action = value.name if isinstance(value, Symbol) \
                else str(value)
        elif key.name == "count":
            definition.count = int(value)
        elif key.name == "doc":
            definition.doc = str(value)
        else:
            raise CompileError(f"defhandler: unknown option :{key.name}")
    if not definition.typespecs:
        raise CompileError(
            f"defhandler {name}: no conditions given (:java/:code/:condition)")
    return definition


def _string_list(value: Any) -> List[str]:
    if isinstance(value, str):
        return [value]
    if isinstance(value, list):
        return [str(v) for v in value]
    raise CompileError(f"defhandler: expected a string or list, got {value!r}")


def perform_action(vm, condition, definition: HandlerDefinition,
                   invocation_count: int) -> None:
    """Execute a handler's action.  Returning normally = declining."""
    action = definition.action
    if action == "retry":
        # "intended to be used to deal with possibly transient errors
        # ... without the programmer being forced to write an explicit
        # loop"; give up (decline) once :count retries are spent
        if invocation_count <= definition.count and \
                vm.find_restart(_S("retry")) is not None:
            vm.invoke_restart(_S("retry"), [])
        return
    if action == "ignore":
        if vm.find_restart(_S("ignore")) is not None:
            vm.invoke_restart(_S("ignore"), [])
        return
    if action == "break":
        raise VinzBreak("break action")
    if action == "terminate":
        message = getattr(condition, "message", str(condition))
        raise VinzTerminateTask(f"terminate action: {message}")
    # custom action: a global function of one argument
    fn = vm.global_env.lookup_or(_S(action))
    if fn is None:
        raise GozerRuntimeError(
            f"handler {definition.name}: unknown action {action!r}")
    vm.call(fn, [condition])


@vm_function
def handle_condition(vm, condition, handler_name, invocation_count):
    """``%vinz-handle-condition``: run the action of the running
    workflow's handler named ``handler_name``."""
    definition = current_execution(vm).service.handler_definitions.get(
        handler_name.name if isinstance(handler_name, Symbol)
        else str(handler_name))
    if definition is None:
        raise GozerRuntimeError(f"no handler named {handler_name}")
    perform_action(vm, condition, definition, int(invocation_count))
    return None


def install(runtime, workflow_service) -> None:
    env = runtime.global_env
    env.define_intrinsic("vinz-handle-condition", handle_condition)

    def m_defhandler(name, *options):
        definition = parse_defhandler(name, list(options))
        workflow_service.define_handler(definition)
        return [_S("quote"), name]

    env.define_macro(_S("defhandler"), GozerMacro(m_defhandler, "defhandler"))

    def m_with_handler(name, *body):
        if not isinstance(name, Symbol):
            raise CompileError("with-handler needs a handler name")
        definition = workflow_service.handler_definitions.get(name.name)
        if definition is None:
            raise CompileError(f"with-handler: no handler named {name.name} "
                               "(defhandler must come first)")
        counter = gensym("wh-count")
        cvar = gensym("wh-c")
        handler_fn = [
            _S("lambda"), [cvar],
            [_S("setq"), counter, [_S("+"), counter, 1]],
            [_S("%vinz-handle-condition"), cvar,
             [_S("quote"), name], counter],
        ]
        return [
            _S("let"), [[counter, 0]],
            [_S("handler-bind"),
             [[definition.typespec(), handler_fn]],
             [_S("progn"), *body]],
        ]

    env.define_macro(_S("with-handler"),
                     GozerMacro(m_with_handler, "with-handler"))
