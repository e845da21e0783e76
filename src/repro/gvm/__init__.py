"""The Gozer Virtual Machine: bytecode interpreter with continuations."""

from .vm import VM, Done, Yielded, YieldFromNestedContext, truthy
from .runtime import Runtime, make_runtime
from .continuations import Continuation, capture, materialize
from .futures import (
    FutureExecutor,
    GozerFuture,
    SynchronousFutureExecutor,
    ThreadPoolFutureExecutor,
    force,
)
from .conditions import (
    GozerCondition,
    UnhandledConditionError,
    coerce_condition,
    matches,
)
from .environment import DynamicBindings, Env, GlobalEnvironment
from .frames import Frame, GozerFunction, GozerMacro
from .interpreter import ContinuationsUnsupported, TreeInterpreter

__all__ = [
    "VM", "Done", "Yielded", "YieldFromNestedContext", "truthy",
    "Runtime", "make_runtime", "Continuation", "capture", "materialize",
    "FutureExecutor", "GozerFuture", "SynchronousFutureExecutor",
    "ThreadPoolFutureExecutor", "force",
    "GozerCondition", "UnhandledConditionError", "coerce_condition",
    "matches", "DynamicBindings", "Env", "GlobalEnvironment",
    "Frame", "GozerFunction", "GozerMacro",
    "ContinuationsUnsupported", "TreeInterpreter",
]
