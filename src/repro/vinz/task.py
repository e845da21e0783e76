"""Tasks: running workflow instances (paper Section 3.1).

"Execution of a workflow is typically initiated by invoking the Start
operation ...  This causes the creation of a *task*, which uniquely
identifies that particular running instance of the workflow.  Every
task contains one or more uniquely identified *fibers* ...  A task is
somewhat analogous to an operating system process, while a fiber is
analogous to a thread within that process."

The registry below plays the role of BlueBox's "global process tracking
service" (Section 4.2).  Inside an operation window it is the only code
that changes a task or fiber record, and each change logs its inverse
on the window's undo log (as :mod:`repro.vinz.fiberstate` does for
store keys), so what an aborted window puts back is decided here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

# task / fiber statuses
PENDING = "pending"
RUNNING = "running"
COMPLETED = "completed"
TERMINATED = "terminated"
ERROR = "error"


@dataclass
class TaskRecord:
    """One running workflow instance."""

    id: str
    workflow: str
    params: Any
    status: str = PENDING
    result: Any = None
    error: Optional[str] = None
    created_at: float = 0.0
    finished_at: Optional[float] = None
    fiber_ids: List[str] = field(default_factory=list)
    #: per-task spawn limit (paper Section 3.5): an int, the "auto"
    #: sentinel (delegate to the adaptive spawn governor), or None =
    #: service default
    spawn_limit: Optional[Any] = None
    #: absolute virtual-time deadline (EDF scheduling extension)
    deadline: Optional[float] = None
    #: callbacks to fire once the task's finish commits (deferred
    #: Run/Call replies)
    completion_listeners: List[Callable[["TaskRecord"], None]] = \
        field(default_factory=list)
    #: fibers waiting in join-process for this whole task to finish
    join_waiters: List[str] = field(default_factory=list)
    #: sibling-chain bookkeeping for the chained for-each strategy
    #: (Section 5 future work): group id -> {parent, children, pending,
    #: remaining}
    chain_groups: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: causal-tracing root span for this task's lifetime (repro.observe);
    #: 0 when tracing is disabled
    span_id: int = 0

    @property
    def finished(self) -> bool:
        return self.status in (COMPLETED, TERMINATED, ERROR)

    @property
    def duration(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.created_at


@dataclass
class FiberRecord:
    """One flow of control within a task.

    ``notify_parent`` reflects the paper's footnote 1: fibers created by
    the ``for-each``/``parallel`` macros awaken their parent on
    termination as "a property of the fiber itself"; plain
    ``fork-and-exec`` fibers do not.
    """

    id: str
    task_id: str
    parent_id: Optional[str] = None
    status: str = PENDING
    result: Any = None
    error: Optional[str] = None
    notify_parent: bool = False
    created_at: float = 0.0
    finished_at: Optional[float] = None
    #: version of the persisted continuation (bumps on every persist)
    version: int = 0
    #: highest version whose continuation actually reached the store —
    #: with ``snapshot_interval > 1`` a suspension whose replay costs
    #: no more than a write is skipped, at most ``snapshot_interval - 1``
    #: in a row, so this can trail ``version`` (the gap is rebuilt by
    #: history replay on a cache miss)
    last_persisted_version: int = 0
    #: instructions this fiber ran since its last snapshot (since its
    #: start before the first one): what a node holding no warm base
    #: re-executes to rebuild an elided version, and what ``persist``
    #: weighs against one write of the state
    instructions_since_snapshot: int = 0
    #: virtual seconds one read of the last snapshot costs (manifest
    #: plus chunks); 0 before the first snapshot
    snapshot_read_cost: float = 0.0
    #: the node that last advanced this fiber: its cache holds the
    #: version the fiber suspended at (placement hint)
    last_node: Optional[str] = None
    #: sibling-chain group this fiber belongs to, if any
    chain_group: Optional[str] = None
    #: pending inter-fiber messages, ``(queue-message id, value)`` (the
    #: lightweight cross-process communication mechanism of the
    #: Section 5 future-work list)
    mailbox: List[Any] = field(default_factory=list)
    #: queue-message ids already appended to the mailbox — makes
    #: delivery idempotent across message re-deliveries
    seen_deliveries: set = field(default_factory=set)
    #: queue-message ids whose operation window already advanced this
    #: fiber — makes RunFiber/AwakeFiber/ResumeFromCall idempotent
    #: under duplicated (at-least-once) deliveries
    processed_deliveries: set = field(default_factory=set)
    #: total simulated seconds charged by this fiber's processing
    #: windows (drives :chunk-size :auto sizing)
    total_charged: float = 0.0
    #: why the fiber is suspended: None | "await" | "service" | "join" | "sleep"
    waiting_on: Optional[str] = None
    #: fibers waiting in join-process for this fiber to finish
    join_waiters: List[str] = field(default_factory=list)
    #: causal-tracing span covering this fiber's lifetime; 0 when
    #: tracing is disabled
    span_id: int = 0
    #: the queue message that last advanced (or is advancing) this
    #: fiber — the recovery scanner's re-awaken handle: re-enqueueing
    #: it (same message id) is idempotent under the
    #: ``processed_deliveries`` guard
    last_message: Optional[Any] = None

    @property
    def finished(self) -> bool:
        return self.status in (COMPLETED, TERMINATED, ERROR)


#: fields an aborted window leaves as it set them, each with the reason
SURVIVES_ABORT = {"last_message": "the lease scanner's re-awaken handle: "
                  "it re-enqueues the message of a window whose node died"}


def log_undo(ctx, undo: Callable[[], None]) -> None:
    """Log ``undo`` on the window ``ctx``; a window that already aborted
    (its node died under a running handler) undoes at once."""
    if ctx is not None and ctx.valid:
        ctx.on_abort(undo)
    elif ctx is not None:
        undo()


class ProcessRegistry:
    """Task and fiber records, shared by every workflow-service instance.

    In the real system this is a BlueBox tracking service backed by the
    message queue; in the simulation, a plain shared object is an
    equivalent (and deterministic) stand-in.  ``ctx`` is the operation
    window a change belongs to (None: outside any window).
    """

    def __init__(self):
        self.tasks: Dict[str, TaskRecord] = {}
        self.fibers: Dict[str, FiberRecord] = {}
        self._task_seq = itertools.count(1)
        self._fiber_seq = itertools.count(1)
        #: the environment's ``monitor_started``/``monitor_finished``
        #: (levels, counters, spans), if any
        self.monitor = None

    # -- creation --------------------------------------------------------

    def new_task(self, workflow: str, params: Any, now: float, ctx=None,
                 deadline: Optional[float] = None) -> TaskRecord:
        task = TaskRecord(id=f"task-{next(self._task_seq)}", workflow=workflow,
                          params=params, created_at=now, deadline=deadline)
        self._created(ctx, "task", task, now, ctx and ctx.span_id,
                      task=task.id, workflow=workflow)
        return task

    def new_fiber(self, task: TaskRecord, now: float,
                  parent_id: Optional[str] = None,
                  notify_parent: bool = False, ctx=None,
                  chain_group: Optional[str] = None) -> FiberRecord:
        fiber = FiberRecord(id=f"fiber-{next(self._fiber_seq)}",
                            task_id=task.id, parent_id=parent_id,
                            notify_parent=notify_parent, created_at=now,
                            chain_group=chain_group)
        self._created(ctx, "fiber", fiber, now, task.span_id, task=task.id,
                      fiber=fiber.id,
                      **({"parent_fiber": parent_id} if parent_id else {}))
        self.append(ctx, task.fiber_ids, fiber.id)
        return fiber

    def _created(self, ctx, kind: str, record, now: float, parent_span,
                 **attrs: Any) -> None:
        if ctx is not None and ctx.tracing:
            record.span_id = ctx.cluster.tracer.begin(
                f"{kind}:{record.id}", kind=kind, start=now,
                parent_id=parent_span or None, **attrs)
        table = self.tasks if kind == "task" else self.fibers
        table[record.id] = record
        self._monitor(ctx, "started", record, now)

        def discard() -> None:
            del table[record.id]
            if record.span_id:
                ctx.cluster.tracer.end(record.span_id, end=ctx.now,
                                       status="discarded")

        log_undo(ctx, discard)

    def _monitor(self, ctx, event: str, record, now: float) -> None:
        """Tell the monitor; an abort tells it the inverse."""
        if self.monitor is not None:
            hook = getattr(self.monitor, f"monitor_{event}")
            hook(record, now)
            log_undo(ctx, lambda: hook(record, ctx.now, -1))

    # -- lookup ------------------------------------------------------------

    def task_of(self, fiber_id: str) -> TaskRecord:
        return self.tasks[self.fibers[fiber_id].task_id]

    def fibers_of(self, task_id: str) -> List[FiberRecord]:
        return [self.fibers[fid] for fid in self.tasks[task_id].fiber_ids]

    # -- changes ---------------------------------------------------------------

    def finish_task(self, task: TaskRecord, status: str, now: float,
                    result: Any = None, error: Optional[str] = None,
                    ctx=None) -> None:
        """Finish ``task``; its completion listeners (Run/Call replies)
        fire once the window that finished it commits."""
        if self._finish(ctx, task, status, now, result, error):
            def fire() -> None:
                listeners, task.completion_listeners = \
                    task.completion_listeners, []
                for listener in listeners:
                    listener(task)

            if ctx is not None:
                ctx.on_complete(fire)
            else:
                fire()

    def finish_fiber(self, fiber: FiberRecord, status: str, now: float,
                     result: Any = None, error: Optional[str] = None,
                     ctx=None) -> None:
        self._finish(ctx, fiber, status, now, result, error)

    def _finish(self, ctx, record, status, now, result, error) -> bool:
        if record.finished:
            return False
        self.set(ctx, record, status=status, result=result, error=error,
                 finished_at=now)
        self._monitor(ctx, "finished", record, now)
        return True

    def set(self, ctx, record, **fields: Any) -> None:
        prior = {name: getattr(record, name) for name in fields
                 if name not in SURVIVES_ABORT}
        for name, value in fields.items():
            setattr(record, name, value)

        def undo() -> None:
            for name, value in prior.items():
                if getattr(record, name) is fields[name]:
                    setattr(record, name, value)

        if prior:
            log_undo(ctx, undo)

    def add(self, ctx, items: set, item: Any) -> bool:
        """Add ``item`` to a set; False (and no change) if present."""
        if item in items:
            return False
        items.add(item)
        log_undo(ctx, lambda: items.discard(item))
        return True

    def append(self, ctx, items: List[Any], item: Any) -> None:
        items.append(item)
        log_undo(ctx, lambda: item in items and items.remove(item))

    def pop_front(self, ctx, items: List[Any]) -> Any:
        item = items.pop(0)
        log_undo(ctx, lambda: items.insert(0, item))
        return item

    def take(self, ctx, items: List[Any]) -> List[Any]:
        """Empty a list, returning what it held."""
        taken = items[:]
        items.clear()
        log_undo(ctx, lambda: items.__setitem__(slice(0, 0), taken))
        return taken

    def put(self, ctx, table: Dict[str, Any], key: str, value: Any) -> None:
        table[key] = value
        log_undo(ctx, lambda: table.pop(key, None))

    def count_down(self, ctx, counts: Dict[str, int], key: str) -> int:
        counts[key] -= 1
        log_undo(ctx, lambda: counts.__setitem__(key, counts[key] + 1))
        return counts[key]

    # -- statistics -----------------------------------------------------------

    def active_tasks(self) -> List[TaskRecord]:
        return [t for t in self.tasks.values() if not t.finished]

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for task in self.tasks.values():
            out[task.status] = out.get(task.status, 0) + 1
        return out
