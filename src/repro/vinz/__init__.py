"""Vinz: Gozer's distribution module (tasks, fibers, workflow services)."""

from .api import VinzEnvironment, WorkflowError
from .execution import FiberExecution
from .service import WorkflowService
from .task import (
    COMPLETED,
    ERROR,
    FiberRecord,
    PENDING,
    ProcessRegistry,
    RUNNING,
    TERMINATED,
    TaskRecord,
)
from .persistence import (
    CodeRegistry,
    FiberCodec,
    HostFunctionRegistry,
)
from .cache import FiberCache, LruCache
from .distribution import VinzBreak, VinzTerminateTask
from .handlers import HandlerDefinition

__all__ = [
    "VinzEnvironment", "WorkflowError", "FiberExecution", "WorkflowService",
    "COMPLETED", "ERROR", "FiberRecord", "PENDING", "ProcessRegistry",
    "RUNNING", "TERMINATED", "TaskRecord",
    "CodeRegistry", "FiberCodec", "HostFunctionRegistry",
    "FiberCache", "LruCache", "VinzBreak", "VinzTerminateTask",
    "HandlerDefinition",
]
