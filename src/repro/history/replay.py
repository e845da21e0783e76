"""Deterministic replay: rebuild any fiber from its event history.

The GVM is deterministic; everything nondeterministic a fiber ever
observes flows through its :class:`~repro.vinz.execution.FiberExecution`
(fork targets, service responses, mailbox pops, clock reads, RNG
draws) and is recorded by the history plane.  Replay therefore
re-executes the fiber's *actual bytecode* window by window — a fresh VM
per advancement, through the same
:func:`~repro.vinz.execution.run_window` as the live service — under a
:class:`ReplayExecution`: the same bridge with its primitives
overridden, so every intrinsic that would touch the outside world
instead consumes the next recorded event and returns the recorded
value.

The history holds only what replay reads: its cursor consumes every
event of a fiber, and every field is fed back into the fiber or checked.

Two consumers:

* **recovery** — :meth:`ReplayEngine.rebuild` reconstructs a fiber's
  continuation at a version that was never persisted
  (``snapshot_interval > 1``), forward from the newest base: a version
  the node still caches, else the fiber's last persisted snapshot
  (``FiberRecord.last_persisted_version``), else the task start;
* **verification** — :meth:`ReplayEngine.replay_task` re-runs every
  fiber of a finished task against its durable log and checks each
  recorded suspension and terminal outcome, raising
  :exc:`ReplayDivergenceError` at the *first* mismatched event.

A divergence means the runtime was nondeterministic somewhere the
recorder did not intercept — precisely the bug class event sourcing
exists to catch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..gvm.futures import enter_fiber_thread
from ..vinz import distribution
from ..vinz.execution import (
    FiberExecution,
    WINDOW_COMPLETED,
    WINDOW_SUSPENDED,
    run_window,
)
from .recorder import (
    FIBER_COMPLETED,
    FIBER_FAILED,
    FIBER_FORKED,
    FIBER_SUSPENDED,
    HistoryEvent,
    NONDET_RECORDED,
    RESUME_KINDS,
    TASK_STARTED,
)


class ReplayError(RuntimeError):
    """Base class for replay failures.

    Raised from inside a replayed fiber (a ``nondet`` or ``fork`` the
    history cannot satisfy), it must leave the VM as it is: coerced
    into a Gozer condition, the program could handle it and the replay
    would report a later event, or none.
    """

    tunnels_through_vm = True


class IncompleteHistoryError(ReplayError):
    """The history ends before the fiber's recorded life does — e.g. a
    dropped tail batch left a finished fiber with no terminal event."""


class ReplayDivergenceError(ReplayError):
    """Replayed execution disagrees with the recorded history.

    Pinpoints the *first* mismatched event: ``task``/``fiber`` locate
    the stream, ``seq`` the recorded event (or the position where one
    was missing), ``expected`` what the history says happened and
    ``actual`` what re-execution produced.
    """

    def __init__(self, task: str, fiber: str, seq: Optional[int],
                 expected: str, actual: str):
        super().__init__(
            f"replay of {fiber} ({task}) diverged at event "
            f"{'<end>' if seq is None else seq}: "
            f"recorded {expected}, replayed {actual}")
        self.task = task
        self.fiber = fiber
        self.seq = seq
        self.expected = expected
        self.actual = actual


@dataclass
class ReplayReport:
    """What one task's verification replay covered."""

    task: str
    fibers_replayed: int = 0
    windows: int = 0
    events_consumed: int = 0
    instructions: int = 0
    #: fibers whose stream ends suspended (swept by task termination):
    #: replayed up to their last recorded suspension, no terminal check
    partial_fibers: List[str] = field(default_factory=list)


class _Cursor:
    """Ordered consumption of one fiber's decision events."""

    def __init__(self, task_id: str, fiber_id: str,
                 events: List[HistoryEvent]):
        self.task_id = task_id
        self.fiber_id = fiber_id
        self.events = events
        self.pos = 0

    def exhausted(self) -> bool:
        return self.pos >= len(self.events)

    def diverge(self, expected: str, actual: str) -> "ReplayDivergenceError":
        seq = self.events[self.pos].seq if not self.exhausted() else None
        return ReplayDivergenceError(self.task_id, self.fiber_id, seq,
                                     expected, actual)

    def next(self, *kinds: str) -> HistoryEvent:
        """The next event, which must be of one of ``kinds`` (of any
        kind when none is named)."""
        if self.exhausted():
            raise ReplayDivergenceError(
                self.task_id, self.fiber_id, None,
                "<no further events>", f"attempt to consume {kinds}")
        event = self.events[self.pos]
        if kinds and event.kind not in kinds:
            raise self.diverge(event.kind, f"attempt to consume {kinds}")
        self.pos += 1
        return event

    def check_suspension(self, yielded) -> Optional[int]:
        """The replayed fiber suspended: consume the recorded
        suspension, which must be on the same thing (for a service
        call, the same soap action); returns the version it recorded."""
        descriptor = yielded.value if isinstance(yielded.value, dict) \
            else {"kind": "await"}
        event = self.next(FIBER_SUSPENDED)
        why = descriptor.get("kind", "await")
        replayed = (why, descriptor.get("soap_action")
                    if why == "service-call" else None)
        recorded = (event.payload.get("why"),
                    event.payload.get("soap_action"))
        if recorded != replayed:
            raise ReplayDivergenceError(
                self.task_id, self.fiber_id, event.seq,
                f"suspend on {recorded!r}", f"suspend on {replayed!r}")
        return event.payload.get("version")

    def failed_by_platform(self, event: HistoryEvent, where: str) -> Any:
        """The platform failed the fiber ``where`` nothing ran it (a
        dead-lettered delivery, a join on a missing process): the
        recorded error ends the fiber, and nothing may follow it."""
        if not self.exhausted():
            raise self.diverge("<further events>",
                               f"{FIBER_FAILED} {where} already reached")
        return event.payload.get("error")

    def check_terminal(self, codec, state: str, value: Any) -> None:
        """The replayed fiber finished: the recorded terminal event
        must be of the same kind, carry the same result or error, and
        be the stream's last."""
        recorded = self.next(FIBER_COMPLETED, FIBER_FAILED)
        expected_kind = FIBER_COMPLETED if state == WINDOW_COMPLETED \
            else FIBER_FAILED
        if recorded.kind != expected_kind:
            raise ReplayDivergenceError(self.task_id, self.fiber_id,
                                        recorded.seq, recorded.kind,
                                        expected_kind)
        if state == WINDOW_COMPLETED:
            label, expected = "result", recorded.payload.get("result")
            matches = _values_equal(codec, expected, value)
        else:
            label, expected = "error", recorded.payload.get("error")
            matches = expected == value
        if not matches:
            raise ReplayDivergenceError(
                self.task_id, self.fiber_id, recorded.seq,
                f"{label} {expected!r}", f"{label} {value!r}")
        if not self.exhausted():
            raise self.diverge("<further events>",
                               f"terminal {expected_kind} already reached")


def _values_equal(codec, recorded: Any, replayed: Any) -> bool:
    """Structural equality through the codec: recorded values already
    round-tripped through it, so serializing both sides is the honest
    comparison (GozerFunctions, conditions and keywords included)."""
    if recorded is replayed:
        return True
    try:
        if recorded == replayed:
            return True
    except Exception:  # pragma: no cover - exotic __eq__
        pass
    try:
        return (codec.serialize_state(recorded)
                == codec.serialize_state(replayed))
    except Exception:  # pragma: no cover - unserializable replay value
        return False


class _Stub:
    """Minimal stand-in for the task/fiber records the bridge reads."""

    __slots__ = ("id", "spawn_limit", "chain_groups")

    def __init__(self, id: str):
        self.id = id
        self.spawn_limit = None
        #: rebuilt from FiberForked(chain) events as they are consumed
        self.chain_groups: Dict[str, Dict[str, List[str]]] = {}


class ReplayExecution(FiberExecution):
    """The bridge with its data flow reversed.

    Where the live primitives perform and record, these consume the
    record and perform nothing; every intrinsic built on them is
    inherited.  Any call the history cannot satisfy is a divergence.
    """

    def __init__(self, service, cursor: _Cursor):
        super().__init__(service, None, _Stub(cursor.task_id),
                         _Stub(cursor.fiber_id))
        self.cursor = cursor

    def nondet(self, op: str, thunk=None) -> Any:
        event = self.cursor.next(NONDET_RECORDED)
        recorded_op = event.payload.get("op")
        if recorded_op != op:
            raise ReplayDivergenceError(
                self.cursor.task_id, self.cursor.fiber_id, event.seq,
                f"nondet {recorded_op!r}", f"nondet {op!r}")
        return event.payload.get("value")

    effect = nondet

    def charge(self, seconds: float) -> None:
        """Modelled compute bills no window here; a rebuild charges
        its re-executed instructions instead."""

    def fork(self, fn, args, notify_parent: bool) -> str:
        event = self.cursor.next(FIBER_FORKED)
        if "chain" in event.payload:
            raise self.cursor.diverge("fork-chain", "fork")
        if event.payload.get("notify") != notify_parent:
            raise ReplayDivergenceError(
                self.cursor.task_id, self.cursor.fiber_id, event.seq,
                f"fork notify={event.payload.get('notify')!r}",
                f"fork notify={notify_parent!r}")
        return event.payload["child"]

    def fork_chain(self, fn, items) -> str:
        event = self.cursor.next(FIBER_FORKED)
        if "chain" not in event.payload:
            raise self.cursor.diverge("fork", "fork-chain")
        group_id = event.payload["chain"]
        self.task.chain_groups[group_id] = {
            "children": list(event.payload["children"])}
        return group_id


class ReplayEngine:
    """Replays fibers from history: recovery rebuilds + verification."""

    def __init__(self, env):
        self.env = env

    # -- event access ----------------------------------------------------

    def _service_for(self, task_id: str):
        task = self.env.registry.tasks.get(task_id)
        if task is None:
            raise ReplayError(f"no such task {task_id}")
        service = self.env.workflows.get(task.workflow)
        if service is None:  # pragma: no cover - undeployed workflow
            raise ReplayError(f"workflow {task.workflow} not deployed")
        return service

    @staticmethod
    def _start_of(events: List[HistoryEvent],
                  fiber_id: str) -> Tuple[Any, List[Any], bool]:
        """How ``fiber_id`` began: ``(fn_or_None, args, is_root)``.

        Children get their start thunk from the parent's FiberForked
        payload — the history-plane copy of the cloned closure, so a
        from-scratch rebuild touches no store key at all.
        """
        for event in events:
            if event.kind != FIBER_FORKED:
                continue
            payload = event.payload
            if payload.get("child") == fiber_id:
                return payload["fn"], list(payload.get("args") or []), False
            if "chain" in payload and fiber_id in payload["children"]:
                index = payload["children"].index(fiber_id)
                return payload["fn"], [payload["items"][index]], False
        return None, [], True

    @staticmethod
    def _root_params(service, task_id: str, events: List[HistoryEvent],
                     fiber_id: str) -> Any:
        """The params the task started with, recorded by TaskStarted,
        whose root fiber and workflow must be the ones replaying."""
        started = next((e for e in events if e.kind == TASK_STARTED), None)
        if started is None:
            return None
        recorded = (started.payload.get("root"),
                    started.payload.get("workflow"))
        if recorded != (fiber_id, service.name):
            raise ReplayDivergenceError(
                task_id, fiber_id, started.seq,
                f"task started (root, workflow) {recorded!r}",
                f"root {(fiber_id, service.name)!r}")
        return started.payload.get("params")

    # -- one fiber --------------------------------------------------------

    def replay_fiber(self, service, task_id: str,
                     task_events: List[HistoryEvent],
                     fiber_id: str, stop_version: Optional[int] = None,
                     base=None,
                     report: Optional[ReplayReport] = None):
        """Re-execute one fiber against its recorded stream.

        * ``stop_version`` — return the live continuation the moment
          the replayed fiber suspends at that version (a rebuild);
          ``None`` replays to the stream's end (verification).
        * ``base`` — ``(continuation, version)``: fast-forward the
          cursor to that suspension and resume from the given
          continuation instead of re-running from the task start.

        Returns ``(kind, value, instructions)`` where kind is
        ``"continuation"`` / ``"completed"`` / ``"failed"`` /
        ``"partial"`` (stream ended suspended — fiber swept by task
        termination).
        """
        # the fiber's cursor consumes every event of its own
        cursor = _Cursor(task_id, fiber_id, [
            event for event in task_events if event.fiber == fiber_id])
        execution = ReplayExecution(service, cursor)
        instructions = 0

        def window(start):
            """One advancement window on a fresh VM, like the live
            service's; ``start(vm)`` starts or resumes the fiber."""
            nonlocal instructions
            vm = service.runtime.new_vm(allow_yield=True)
            vm.vinz = execution
            outcome = run_window(lambda: start(vm))
            instructions += vm.instruction_count
            if report is not None:
                report.windows += 1
            return outcome

        cv_token = distribution.CURRENT_EXECUTION.set(execution)
        enter_fiber_thread()
        try:
            if base is not None:
                continuation, base_version = base
                # fast-forward: everything up to (and including) the
                # base suspension already happened before the snapshot
                while True:
                    event = cursor.next()
                    if event.kind == FIBER_SUSPENDED \
                            and event.payload.get("version") == base_version:
                        break
                outcome = None  # suspended at the base, nothing to check
            elif not cursor.exhausted() \
                    and cursor.events[0].kind == FIBER_FAILED:
                # its first delivery dead-lettered: it never ran
                error = cursor.failed_by_platform(
                    cursor.next(FIBER_FAILED), "before it ran")
                return "failed", error, instructions
            else:
                # what the history holds crosses into the re-executed
                # fiber as its own copy, as in the live run: a replay
                # must not change the record it replays
                copy = service.codec.copy_value
                fn, args, is_root = self._start_of(task_events, fiber_id)
                if is_root:
                    params = copy(self._root_params(
                        service, task_id, task_events, fiber_id))
                    outcome = window(lambda vm: service.run_top_call(
                        vm, service.main_function(), [params]))
                else:
                    fn, args = copy((fn, args))
                    outcome = window(lambda vm: service.run_top_call(
                        vm, fn, args))

            while True:
                if outcome is not None:
                    state, value, _ = outcome
                    if state != WINDOW_SUSPENDED:
                        cursor.check_terminal(service.codec, state, value)
                        return state, value, instructions
                    version = cursor.check_suspension(value)
                    continuation = value.continuation
                    if stop_version is not None and version == stop_version:
                        return "continuation", continuation, instructions

                # the fiber is suspended: the next event resumes it —
                # unless the stream ends here (swept by termination)
                if cursor.exhausted():
                    if stop_version is not None:
                        raise IncompleteHistoryError(
                            f"history of {fiber_id} ends before version "
                            f"{stop_version}")
                    if report is not None:
                        report.partial_fibers.append(fiber_id)
                    return "partial", None, instructions
                resume = cursor.next(FIBER_FAILED, *RESUME_KINDS)
                if resume.kind == FIBER_FAILED:
                    error = cursor.failed_by_platform(resume,
                                                      "while suspended")
                    return "failed", error, instructions
                outcome = window(lambda vm: vm.resume(
                    continuation,
                    service.codec.copy_value(resume.payload.get("value"))))
        finally:
            if report is not None:
                report.events_consumed += cursor.pos
                report.instructions += instructions
            distribution.CURRENT_EXECUTION.reset(cv_token)

    # -- recovery: rebuild a live continuation ---------------------------

    def rebuild(self, service, fiber, target_version: int,
                base=None, base_from: str = "start") -> Tuple[Any, int]:
        """Rebuild ``fiber``'s continuation at ``target_version`` from
        the in-memory committed history (optionally forward from a
        ``(continuation, version)`` base, which came from ``base_from``:
        one of :data:`~repro.history.recorder.REBUILD_BASES`).  Returns
        ``(continuation, instructions_executed)``."""
        recorder = self.env.history
        events = recorder.events_of(fiber.task_id)
        metrics = self.env.cluster.metrics
        tracer = self.env.cluster.tracer
        span = 0
        if tracer.enabled:
            span = tracer.begin("history.replay", kind="history",
                                start=self.env.cluster.kernel.now,
                                fiber=fiber.id, task=fiber.task_id,
                                mode="rebuild", target=target_version,
                                base_from=base_from)
        try:
            kind, value, instructions = self.replay_fiber(
                service, fiber.task_id, events, fiber.id,
                stop_version=target_version, base=base)
        finally:
            if span:
                tracer.end(span, end=self.env.cluster.kernel.now)
        if kind != "continuation":  # pragma: no cover - guarded by caller
            raise ReplayError(
                f"rebuild of {fiber.id} reached {kind} before version "
                f"{target_version}")
        metrics.incr("history.rebuilds")
        metrics.incr(f"history.rebuild_base.{base_from}")
        metrics.incr("history.rebuild_instructions", instructions)
        return value, instructions

    # -- verification: replay a whole task -------------------------------

    def replay_task(self, task_id: str) -> ReplayReport:
        """Replay every fiber of ``task_id`` against the history its
        durable log holds (read and integrity-checked; the recorder's
        mirror feeds live rebuilds only) and verify each recorded
        outcome; raises :exc:`ReplayDivergenceError` at the first
        mismatch."""
        service = self._service_for(task_id)
        events = self.env.history_log.read_task(task_id, service.codec)
        report = ReplayReport(task=task_id)
        fiber_ids = []
        seen = set()
        for event in events:
            if event.fiber and event.fiber not in seen:
                seen.add(event.fiber)
                fiber_ids.append(event.fiber)
        metrics = self.env.cluster.metrics
        tracer = self.env.cluster.tracer
        span = 0
        if tracer.enabled:
            span = tracer.begin("history.replay", kind="history",
                                start=self.env.cluster.kernel.now,
                                task=task_id, mode="verify",
                                fibers=len(fiber_ids))
        try:
            for fiber_id in fiber_ids:
                self.replay_fiber(service, task_id, events, fiber_id,
                                  report=report)
                report.fibers_replayed += 1
        except ReplayDivergenceError:
            metrics.incr("history.divergences")
            raise
        finally:
            if span:
                tracer.end(span, end=self.env.cluster.kernel.now)
            metrics.incr("history.replays")
        return report
