"""Tasks: running workflow instances (paper Section 3.1).

"Execution of a workflow is typically initiated by invoking the Start
operation ...  This causes the creation of a *task*, which uniquely
identifies that particular running instance of the workflow.  Every
task contains one or more uniquely identified *fibers* ...  A task is
somewhat analogous to an operating system process, while a fiber is
analogous to a thread within that process."

The registry below plays the role of BlueBox's "global process tracking
service" (Section 4.2).
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

ACTIVE_STATUSES = (PENDING, RUNNING)


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
    #: callbacks to fire on completion (deferred Run/Call replies)
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
    #: with ``snapshot_interval > 1`` persists are skipped between
    #: snapshots, so this can trail ``version`` (the gap is rebuilt by
    #: history replay on a cache miss)
    last_persisted_version: int = 0
    #: instructions this fiber ran since its last snapshot (since its
    #: start under ``recovery="replay"``): what a node holding no warm
    #: base re-executes to rebuild an elided version
    instructions_since_snapshot: int = 0
    #: virtual seconds one read of the last snapshot costs (manifest
    #: plus chunks); 0 before the first snapshot and under replay
    snapshot_read_cost: float = 0.0
    #: the node that last advanced this fiber: its cache holds the
    #: version the fiber suspended at (placement hint)
    last_node: Optional[str] = None
    #: sibling-chain group this fiber belongs to, if any
    chain_group: Optional[str] = None
    #: pending inter-fiber messages (the lightweight cross-process
    #: communication mechanism of the Section 5 future-work list)
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


class ProcessRegistry:
    """Task and fiber records, shared by every workflow-service instance.

    In the real system this is a BlueBox tracking service backed by the
    message queue; in the simulation, a plain shared object is an
    equivalent (and deterministic) stand-in.
    """

    def __init__(self):
        self.tasks: Dict[str, TaskRecord] = {}
        self.fibers: Dict[str, FiberRecord] = {}
        self._task_seq = itertools.count(1)
        self._fiber_seq = itertools.count(1)

    # -- creation --------------------------------------------------------

    def new_task(self, workflow: str, params: Any, now: float) -> TaskRecord:
        task = TaskRecord(id=f"task-{next(self._task_seq)}", workflow=workflow,
                          params=params, created_at=now)
        self.tasks[task.id] = task
        return task

    def new_fiber(self, task: TaskRecord, now: float,
                  parent_id: Optional[str] = None,
                  notify_parent: bool = False) -> FiberRecord:
        fiber = FiberRecord(id=f"fiber-{next(self._fiber_seq)}",
                            task_id=task.id, parent_id=parent_id,
                            notify_parent=notify_parent, created_at=now)
        self.fibers[fiber.id] = fiber
        task.fiber_ids.append(fiber.id)
        return fiber

    # -- lookup ------------------------------------------------------------

    def task(self, task_id: str) -> TaskRecord:
        return self.tasks[task_id]

    def fiber(self, fiber_id: str) -> FiberRecord:
        return self.fibers[fiber_id]

    def task_of(self, fiber_id: str) -> TaskRecord:
        return self.tasks[self.fibers[fiber_id].task_id]

    def fibers_of(self, task_id: str) -> List[FiberRecord]:
        return [self.fibers[fid] for fid in self.tasks[task_id].fiber_ids]

    # -- transitions ---------------------------------------------------------

    def finish_task(self, task: TaskRecord, status: str, now: float,
                    result: Any = None, error: Optional[str] = None) -> None:
        if task.finished:
            return
        task.status = status
        task.result = result
        task.error = error
        task.finished_at = now
        listeners, task.completion_listeners = task.completion_listeners, []
        for listener in listeners:
            listener(task)

    def finish_fiber(self, fiber: FiberRecord, status: str, now: float,
                     result: Any = None, error: Optional[str] = None) -> None:
        if fiber.finished:
            return
        fiber.status = status
        fiber.result = result
        fiber.error = error
        fiber.finished_at = now

    # -- rollback (aborted operation windows) --------------------------------

    def discard_fiber(self, fiber_id: str) -> Optional[FiberRecord]:
        """Remove a fiber record created inside an aborted operation
        window: the window's effects never happened, so the record must
        not survive (the replayed operation will recreate it)."""
        fiber = self.fibers.pop(fiber_id, None)
        if fiber is None:
            return None
        task = self.tasks.get(fiber.task_id)
        if task is not None and fiber_id in task.fiber_ids:
            task.fiber_ids.remove(fiber_id)
        return fiber

    def discard_task(self, task_id: str) -> Optional[TaskRecord]:
        """Remove a task (and its fibers) created inside an aborted
        operation window — the retried Start will create a fresh one."""
        task = self.tasks.pop(task_id, None)
        if task is None:
            return None
        for fiber_id in list(task.fiber_ids):
            self.fibers.pop(fiber_id, None)
        return task

    # -- statistics -----------------------------------------------------------

    def active_tasks(self) -> List[TaskRecord]:
        return [t for t in self.tasks.values() if not t.finished]

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for task in self.tasks.values():
            out[task.status] = out.get(task.status, 0) + 1
        return out
