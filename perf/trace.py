"""Wall-clock spans around the calls into each layer, for the traced run.

The spans are recorded from here, not from inside ``src/``: for the
traced repeat only, a fixed table of entry points is wrapped in place
on their classes, and unwrapped afterwards.  Each call records name,
layer, start, end (``perf_counter_ns``), the span that was open when it
began, and -- for a workflow operation and everything beneath it -- the
task it served.  Spans stay in memory until the run ends.

A span's *self time* is its duration minus the part its child spans
cover; a layer's self time is the sum over its spans.  The existing
``observe`` spans are on the virtual clock and stay off.
"""

from __future__ import annotations

import json
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.bluebox.clock import SimKernel
from repro.bluebox.cluster import Cluster
from repro.bluebox.locks import LockManager
from repro.bluebox.messagequeue import MessageQueue
from repro.bluebox.store import SharedStore
from repro.durastore import DurableStore
from repro.gvm.runtime import Runtime
from repro.gvm.vm import VM
from repro.history import HistoryLog, HistoryRecorder, ReplayEngine
from repro.lang.reader import Reader
from repro.persistsnap import SnapshotPipeline
from repro.sched.fair import SchedulingPolicy
from repro.sched.governor import SpawnGovernor
from repro.vinz.cache import FiberCache
from repro.vinz.persistence import FiberCodec
from repro.vinz.service import WorkflowService

#: (class, method names).  A method is wrapped on the class and on every
#: subclass that overrides it, so ``SharedStore.write`` also covers
#: ``DurableStore.write``; the span's layer is the package of the class
#: that defines the method (see ``layer_of``).  ``VM._run_top`` is the
#: one private name: fresh fibers enter the GVM through it directly, so
#: wrapping only ``run_code``/``resume`` would bill every fiber's first
#: run to ``vinz``.
ENTRY_POINTS: List[Tuple[type, Tuple[str, ...]]] = [
    (Reader, ("read_all",)),
    (Runtime, ("compile",)),
    (VM, ("_run_top",)),
    (WorkflowService, ("op_start", "op_run", "op_call", "op_terminate",
                       "op_run_fiber", "op_awake_fiber",
                       "op_resume_from_call", "op_join_process",
                       "op_deliver_message")),
    (FiberCodec, ("dumps", "loads")),
    (FiberCache, ("get_continuation", "put_continuation")),
    (SnapshotPipeline, ("encode", "load", "fetch_state")),
    (HistoryRecorder, ("record",)),
    (HistoryLog, ("append_batch", "read_task")),
    (ReplayEngine, ("rebuild",)),
    (SharedStore, ("read", "write", "delete")),
    (DurableStore, ("begin_window", "seal_window", "commit_batch")),
    (MessageQueue, ("enqueue", "pop_next")),
    (SchedulingPolicy, ("push", "pop", "peek", "peek_priority")),
    (SpawnGovernor, ("current_limit",)),
    (LockManager, ("try_acquire", "release", "renew_owner")),
    (Cluster, ("send",)),
    (SimKernel, ("run_until_idle", "run_until")),
]

#: every layer a share is reported for, in report order
LAYERS = ("lang", "gvm", "vinz", "persistsnap", "history", "durastore",
          "bluebox.queue", "bluebox.locks", "bluebox.store",
          "bluebox.cluster", "sched")

_BLUEBOX = {"messagequeue": "bluebox.queue", "locks": "bluebox.locks",
            "store": "bluebox.store"}

#: the benchmark's own root spans
SETUP, DRIVE = "setup", "drive"


def layer_of(cls: type) -> str:
    """``repro.durastore.durable`` -> ``durastore``; bluebox splits into
    queue, locks, store and cluster (event loop, dispatch, the rest)."""
    _, package, *rest = cls.__module__.split(".")
    if package == "bluebox":
        return _BLUEBOX.get(rest[0], "bluebox.cluster")
    return package


def _defining_classes(base: type, attr: str) -> Iterator[type]:
    seen = set()
    stack = [base]
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen.add(cls)
        stack.extend(cls.__subclasses__())
        if attr in cls.__dict__:
            yield cls


def _task_of_operation(service, _ctx, body) -> Optional[str]:
    """The task a workflow operation served, read after it returned."""
    registry = service.vinz.registry
    if "fiber" in body:
        fiber = registry.fibers.get(body["fiber"])
        return fiber.task_id if fiber is not None else body.get("task")
    if "task" in body:
        return body["task"]
    # Start/Run/Call just created it
    return next(reversed(registry.tasks), None)


class WallTracer:
    """Records spans while installed; see the module docstring."""

    #: a span is a list, filled in while it is open:
    #: [name, layer, start_ns, end_ns, parent index, task, child_ns]

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[type, str, Any]] = []
        #: GVM instructions executed inside wrapped ``VM._run_top``
        self.instructions = 0
        #: instructions re-executed by ``ReplayEngine.rebuild``
        self.rebuild_instructions = 0

    # -- recording ------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, layer: str,
              after: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, layer, 0, 0, parent, None, 0]
            stack.append(len(spans))
            spans.append(record)
            record[2] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(record, args, result)
                return result
            finally:
                record[3] = end = perf_counter_ns()
                stack.pop()
                if parent >= 0:
                    spans[parent][6] += end - record[2]

        traced.__wrapped__ = fn
        return traced

    def root(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` under one of the benchmark's own root spans."""
        return self._wrap(fn, name, "bluebox.cluster")()

    def _after(self, cls: type) -> Optional[Callable]:
        """What to note on the span once the wrapped call returned."""
        if issubclass(cls, WorkflowService):
            def tag(record, args, _result):
                record[5] = _task_of_operation(*args[:3])
            return tag
        if cls is ReplayEngine:
            def rebuilt(_record, _args, result):
                self.rebuild_instructions += result[1]
            return rebuilt
        return None

    def _wrap_run_top(self, fn: Callable) -> Callable:
        def counted(vm, *args, **kwargs):
            before = vm.instruction_count
            try:
                return fn(vm, *args, **kwargs)
            finally:
                self.instructions += vm.instruction_count - before
        return counted

    def install(self) -> None:
        for base, attrs in ENTRY_POINTS:
            for attr in attrs:
                for cls in _defining_classes(base, attr):
                    original = cls.__dict__[attr]
                    fn = original
                    if cls is VM:
                        fn = self._wrap_run_top(fn)
                    wrapped = self._wrap(fn, f"{cls.__name__}.{attr}",
                                         layer_of(cls),
                                         after=self._after(cls))
                    self._patched.append((cls, attr, original))
                    setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            cls, attr, original = self._patched.pop()
            setattr(cls, attr, original)

    # -- analysis -------------------------------------------------------

    def _root_index(self, name: str) -> int:
        for index, span in enumerate(self.spans):
            if span[4] == -1 and span[0] == name:
                return index
        raise LookupError(f"no {name!r} root span was recorded")

    def self_ns_by_layer(self, root_name: str = DRIVE) -> Tuple[Dict[str, int], int]:
        """Self time per layer over the subtree of one root span, and
        the root's duration.  The root's own self time (the part of the
        run under no wrapped call) counts as ``bluebox.cluster``: it is
        the event loop's callbacks and message copying."""
        root = self._root_index(root_name)
        inside = {root}
        totals = {layer: 0 for layer in LAYERS}
        for index in range(root, len(self.spans)):
            span = self.spans[index]
            if index != root and span[4] not in inside:
                continue
            inside.add(index)
            totals[span[1]] += (span[3] - span[2]) - span[6]
        span = self.spans[root]
        return totals, span[3] - span[2]

    def dump(self, path: str, **header: Any) -> None:
        """Write every span as one compact JSON document."""
        names: Dict[Tuple[str, str], int] = {}
        rows = []
        tasks: List[Optional[str]] = []
        origin = self.spans[0][2] if self.spans else 0
        for span in self.spans:
            key = (span[0], span[1])
            name_id = names.setdefault(key, len(names))
            parent = span[4]
            task = span[5]
            if task is None and parent >= 0:
                task = tasks[parent]
            tasks.append(task)
            rows.append([name_id, span[2] - origin, span[3] - origin,
                         parent, task])
        totals, root_ns = self.self_ns_by_layer()
        document = {
            **header,
            "clock": "perf_counter_ns, relative to the first span",
            "names": [{"name": n, "layer": l} for (n, l) in names],
            "columns": ["name", "start_ns", "end_ns", "parent", "task"],
            "drive_ns": root_ns,
            "self_ns_by_layer": totals,
            "spans": rows,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh, separators=(",", ":"))
