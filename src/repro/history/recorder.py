"""Typed, versioned task-history events and the recorder that emits them.

Gozer's durability story (paper Section 4.2) persists whole fiber
continuations on every suspension: the snapshot is both the audit trail
and the only recovery path.  Modern engines (Durable Functions /
Netherite) instead *event-source* each task: an append-only history of
every nondeterministic decision a task made — fork targets, delivered
messages, service responses, clock reads — is enough to rebuild any
fiber by re-executing its deterministic bytecode and feeding the
recorded decisions back in.  Snapshots become an optimization taken
every N suspensions instead of every one.

:class:`HistoryRecorder` is the write side.  Events are buffered on the
operation window and flushed inside its commit — the batch write joins
the window's one journal append — so an aborted window (node crash,
store fault, fencing rejection, failed append) leaves no trace: history
only ever describes *committed* execution, and commits with the fiber
state it describes.  Committed events are mirrored in memory (the live
rebuild path) and appended, CRC-framed, to the
:class:`~repro.history.log.HistoryLog` plane of the shared store.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

#: bump when payloads or the batch encoding change (2: one codec blob;
#: 3: only what replay reads -- no audit records, the soap action on a
#: service call's suspension)
SCHEMA_VERSION = 3

# -- event kinds ------------------------------------------------------------

TASK_STARTED = "task-started"
FIBER_FORKED = "fiber-forked"
MESSAGE_DELIVERED = "message-delivered"
SERVICE_COMPLETED = "service-completed"
TIMER_FIRED = "timer-fired"
FIBER_JOINED = "fiber-joined"
NONDET_RECORDED = "nondet"
FIBER_SUSPENDED = "fiber-suspended"
FIBER_COMPLETED = "fiber-completed"
FIBER_FAILED = "fiber-failed"

#: kinds that resume a suspended fiber (carry the resume value)
RESUME_KINDS = (SERVICE_COMPLETED, TIMER_FIRED, FIBER_JOINED,
                MESSAGE_DELIVERED)

#: where a replay rebuild starts: a version still in the node's fiber
#: cache, the last persisted snapshot, or the task start; each counts
#: into ``history.rebuild_base.<origin>``
REBUILD_BASES = ("cache", "snapshot", "start")


def resume_kind_for(waiting_on: Optional[str]) -> str:
    """Classify a resume event by what the fiber was suspended on."""
    if waiting_on == "service-call":
        return SERVICE_COMPLETED
    if waiting_on == "sleep":
        return TIMER_FIRED
    if waiting_on in ("join", "await"):
        return FIBER_JOINED
    return MESSAGE_DELIVERED


class HistoryEvent:
    """One recorded decision: ``(seq, kind, fiber, payload)``.

    ``seq`` is the per-task sequence number assigned at commit time;
    ``fiber`` is ``None`` for task-scoped events (TaskStarted).
    """

    __slots__ = ("seq", "kind", "fiber", "payload")

    def __init__(self, seq: int, kind: str, fiber: Optional[str],
                 payload: Dict[str, Any]):
        self.seq = seq
        self.kind = kind
        self.fiber = fiber
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"HistoryEvent(seq={self.seq}, kind={self.kind!r}, "
                f"fiber={self.fiber!r}, payload={self.payload!r})")


class HistoryRecorder:
    """The write side of the history plane.

    One per :class:`~repro.vinz.api.VinzEnvironment` (when
    ``history="on"``).  ``record`` buffers the event on the operation
    window; the window's commit assigns sequence numbers and appends
    one batch per task to the log — an aborted window records nothing.
    """

    def __init__(self, env, log):
        self.env = env
        self.log = log
        #: committed events per task, in ``seq`` order (the live
        #: rebuild path reads this mirror; ``replay_task`` reads the
        #: durable log instead)
        self.histories: Dict[str, List[HistoryEvent]] = {}

    # -- recording ------------------------------------------------------

    def record(self, ctx, task_id: str, kind: str,
               fiber: Optional[str] = None, **payload: Any) -> None:
        if not ctx.history_buffer:
            ctx.before_commit(lambda window: self._flush(ctx, window))
        ctx.history_buffer.append((task_id, kind, fiber, payload))

    def _flush(self, ctx, window) -> None:
        """``ctx``'s window is committing: number its events, mirror
        them and append one batch per task.  Its undo goes in first, on
        the committing ``window`` (``ctx``'s caller for an inline call):
        if a later write or the journal append fails, mirror and log go
        back."""
        before: Dict[str, int] = {}
        appended: List[str] = []

        def undo() -> None:
            for task_id in reversed(appended):
                self.log.rollback_batch(task_id)
            for task_id, count in before.items():
                del self.histories[task_id][count:]
                if not count:
                    del self.histories[task_id]

        window.on_abort(undo)
        by_task: Dict[str, List[HistoryEvent]] = {}
        for task_id, kind, fiber, payload in ctx.history_buffer:
            events = self.histories.setdefault(task_id, [])
            before.setdefault(task_id, len(events))
            event = HistoryEvent(len(events), kind, fiber, payload)
            events.append(event)
            by_task.setdefault(task_id, []).append(event)
        registry = self.env.registry
        for task_id, events in by_task.items():
            task = registry.tasks.get(task_id)
            workflow = self.env.workflows.get(task.workflow) \
                if task is not None else None
            if workflow is None:  # pragma: no cover - task swept mid-commit
                continue
            self.log.append_batch(task_id, events, workflow.codec)
            appended.append(task_id)

    # -- introspection --------------------------------------------------

    def events_of(self, task_id: str) -> List[HistoryEvent]:
        return list(self.histories.get(task_id, ()))

    def summary(self) -> Dict[str, Any]:
        metrics = self.env.metrics
        return {
            "tasks_recorded": len(self.histories),
            "events": sum(map(len, self.histories.values())),
            "rebuild_base": {
                origin: metrics.get(f"history.rebuild_base.{origin}")
                for origin in REBUILD_BASES},
            **self.log.summary(),
        }
