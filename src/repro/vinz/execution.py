"""Fiber execution: the GVM-to-Vinz bridge and the window runner.

"Run the fiber on the GVM until it yields" (paper Sections 3.1, 4.2) is
implemented once, here, for both consumers:

* :func:`run_window` runs one advancement window and classifies how it
  ended.  The live service (``WorkflowService._advance_locked``) routes
  the outcome; history replay (``ReplayEngine.replay_fiber``) checks it
  against the record.
* :class:`FiberExecution` is what the Vinz intrinsics
  (:mod:`repro.vinz.distribution`, :mod:`repro.vinz.deflink`, the
  clock/random/gensym builtins) talk to while a fiber advances.  Every
  intrinsic is written in terms of two primitives — :meth:`nondet` for
  anything the fiber *observes* and :meth:`effect` for anything it only
  *causes* — plus :meth:`fork`/:meth:`fork_chain`.  Replay subclasses
  the bridge and overrides those primitives alone, so an intrinsic
  cannot exist on one side and not the other.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Dict, List, NamedTuple

from ..bluebox.messagequeue import PRIORITY_LOW
from ..bluebox.services import OperationContext, ServiceFault
from ..gvm.conditions import GozerCondition, UnhandledConditionError
from ..gvm.frames import GozerFunction
from ..gvm.vm import Done, Yielded
from ..history import recorder as hist
from ..lang.errors import GozerRuntimeError
from ..lang.symbols import Keyword
from ..sched.governor import AUTO_SPAWN_LIMIT
from .distribution import VinzBreak, VinzTerminateTask
from .fiberstate import task_var_key, thunk_key
from .task import COMPLETED, ERROR, FiberRecord, TERMINATED, TaskRecord

#: seconds a task-variable write pays for its lock round trip, on top
#: of the store write
TASKVAR_LOCK_OVERHEAD = 0.002

#: simulated seconds each ``:chunk-size :auto`` chunk should take
AUTO_CHUNK_TARGET = 4.0

#: how a window can end (the ``state`` of a :class:`WindowOutcome`)
WINDOW_COMPLETED, WINDOW_FAILED, WINDOW_SUSPENDED = \
    "completed", "failed", "suspended"


class WindowOutcome(NamedTuple):
    """How one advancement window ended.

    ``value`` is the fiber's result (completed), the error text
    (failed) or the :class:`~repro.gvm.vm.Yielded` (suspended).
    ``terminate_task`` says the failure takes the whole task down
    whichever fiber it happened in; a failed *main* fiber does so
    regardless, which is the caller's to add.
    """

    state: str
    value: Any
    terminate_task: bool = False


def run_window(thunk: Callable[[], Any]) -> WindowOutcome:
    """Run one advancement window and classify how it ended.

    ``thunk`` starts or resumes the fiber on a VM and returns the VM's
    ``Done``/``Yielded``.  Store faults and fenced writes are not
    outcomes: they tunnel out and abort the window for a retry.
    """
    try:
        outcome = thunk()
    except VinzBreak:
        return WindowOutcome(WINDOW_COMPLETED, None)
    except VinzTerminateTask as term:
        return WindowOutcome(WINDOW_FAILED, term.reason, True)
    except UnhandledConditionError as exc:
        # A child fiber's failure is recorded on the child and surfaces
        # to the parent as a `child-fiber-error` condition when it
        # collects results — giving the parent's handlers a chance
        # (Section 3.7).
        return WindowOutcome(WINDOW_FAILED, str(exc.condition))
    except ServiceFault as fault:
        # a platform-level problem surfaced while advancing the fiber
        # (no main function, bad join target, a diverged rebuild, ...):
        # the task fails rather than hanging its callers
        return WindowOutcome(WINDOW_FAILED,
                             f"{fault.qname}: {fault.message}", True)
    if isinstance(outcome, Done):
        return WindowOutcome(WINDOW_COMPLETED, outcome.value)
    assert isinstance(outcome, Yielded)
    return WindowOutcome(WINDOW_SUSPENDED, outcome)


def deliver_collected(vm, child_ids: List[str], triples) -> List[Any]:
    """Turn observed ``(status, result, error)`` triples into the
    collect-child-results value, signalling on failed children."""
    results: List[Any] = []
    for child_id, (status, result, error) in zip(child_ids, triples):
        if status == COMPLETED:
            results.append(result)
        elif status in (ERROR, TERMINATED):
            condition = GozerCondition(
                message=error or status,
                condition_type="child-fiber-error",
                data=child_id)
            vm.signal(condition, error_p=True)
        else:
            raise GozerRuntimeError(
                f"collect-child-results: child {child_id} still "
                f"{status} (missing yield discipline?)")
    return results


class FiberExecution:
    """Per-advancement bridge between the GVM and Vinz.

    Attached to the VM as ``vm.vinz`` while a fiber runs; every
    distribution intrinsic goes through here.
    """

    def __init__(self, service, ctx: OperationContext,
                 task: TaskRecord, fiber: FiberRecord):
        self.service = service
        self.ctx = ctx
        self.task = task
        self.fiber = fiber

    # -- the two primitives --------------------------------------------------

    def nondet(self, op: str, thunk: Callable[[], Any]) -> Any:
        """Evaluate ``thunk`` and record its value as a nondeterminism
        event.  Replay feeds the recorded value back instead of
        re-evaluating, which is what makes fiber re-execution
        deterministic (Durable-Functions-style event sourcing)."""
        value = thunk()
        self._record_nondet(op, value)
        return value

    def effect(self, op: str, thunk: Callable[[], Any]) -> None:
        """Perform a side effect the fiber cannot observe (a send, a
        task-variable write) behind a value-less marker, so the replay
        cursor stays aligned without re-performing it."""
        self._record_nondet(op, None)
        thunk()

    def _record_nondet(self, op: str, value: Any) -> None:
        recorder = self.service.vinz.history
        if recorder is not None:
            recorder.record(self.ctx, self.task.id, hist.NONDET_RECORDED,
                            fiber=self.fiber.id, op=op, value=value)

    def clock_now(self) -> float:
        """Virtual wall clock as seen by this operation window."""
        return self.ctx.now + self.ctx.charged

    def random_draw(self, n):
        """Draw from the cluster's seeded RNG (recorded via nondet)."""
        rng = self.ctx.cluster.rng
        if isinstance(n, int) and not isinstance(n, bool):
            return rng.randrange(n) if n > 0 else 0
        return rng.uniform(0.0, float(n))

    def charge(self, seconds: float) -> None:
        self.ctx.charge(seconds)

    # -- fiber management -----------------------------------------------------

    def _create_children(self, fn: GozerFunction, arg_lists: List[List[Any]],
                         notify_parent: bool) -> List[FiberRecord]:
        """Create one child fiber per argument list (Section 3.4).

        The clone is effected by serializing the closure: each child
        gets an independent copy of everything ``fn`` captures, so
        "changes either fiber makes will not be visible to its clone".
        An aborted window (store fault / node death) discards them: the
        replayed parent re-forks, so no record or thunk blob may leak.
        """
        vinz = self.service.vinz
        ctx = self.ctx
        tracer = ctx.cluster.tracer
        created: List[FiberRecord] = []
        monitored = False

        def undo_create() -> None:
            for child in created:
                if vinz.registry.discard_fiber(child.id) is not None:
                    # take the thunk blob back out so backend state
                    # stays equal to committed journal state
                    # (crash-recovery contract)
                    vinz.store.rollback_value(thunk_key(child.id), None)
                    if monitored:
                        vinz.monitor_fiber_discarded(child, ctx.now)
                    if child.span_id:
                        tracer.end(child.span_id, end=ctx.now,
                                   status="discarded")

        ctx.on_abort(undo_create)
        for args in arg_lists:
            child = vinz.registry.new_fiber(self.task, ctx.now,
                                            parent_id=self.fiber.id,
                                            notify_parent=notify_parent)
            if tracer.enabled:
                child.span_id = tracer.begin(
                    f"fiber:{child.id}", kind="fiber", start=ctx.now,
                    parent_id=self.task.span_id or None, task=self.task.id,
                    fiber=child.id, parent_fiber=self.fiber.id)
            created.append(child)
            blob = self.service.codec.dumps((fn, list(args)))
            ctx.charge(vinz.store.write(thunk_key(child.id), blob))
        for child in created:
            vinz.monitor_fiber_started(child, ctx.now)
        monitored = True
        return created

    def fork(self, fn: GozerFunction, args: List[Any],
             notify_parent: bool) -> str:
        """fork-and-exec: clone state into a child fiber."""
        child, = self._create_children(fn, [args], notify_parent)
        if self.ctx.tracing:
            self.ctx.trace("fiber-fork", task=self.task.id,
                           fiber=self.fiber.id, child=child.id)
        self.service.send_run_fiber(self.ctx, self.task, child)
        recorder = self.service.vinz.history
        if recorder is not None:
            recorder.record(self.ctx, self.task.id, hist.FIBER_FORKED,
                            fiber=self.fiber.id, child=child.id, fn=fn,
                            args=list(args), notify=notify_parent)
        return child.id

    def fork_chain(self, fn: GozerFunction, items: List[Any]) -> str:
        """The sibling-chaining spawn strategy (Section 5 future work).

        All child fiber records are created up front; only ``spawn
        limit`` RunFibers are enqueued.  As each child finishes it
        launches the next pending sibling *directly* — "it could simply
        spawn whatever sibling fiber is next without involving the
        parent" — and only the last completion awakens the parent, so a
        fan-out of N children costs one parent wake-up instead of N.
        Returns the chain group id; collect with ``%vinz-collect-chain``.
        """
        created = self._create_children(fn, [[item] for item in items],
                                        notify_parent=False)
        children = [child.id for child in created]
        group_id = f"chain:{self.fiber.id}:{len(self.task.chain_groups)}"
        self.ctx.on_abort(
            lambda: self.task.chain_groups.pop(group_id, None))
        limit = max(1, self._spawn_limit_value())
        self.task.chain_groups[group_id] = {
            "parent": self.fiber.id,
            "children": children,
            "pending": children[limit:],
            "remaining": len(children),
        }
        for child in created:
            child.chain_group = group_id
        for child in created[:limit]:
            self.service.send_run_fiber(self.ctx, self.task, child)
        if self.ctx.tracing:
            self.ctx.trace("chain-fork", task=self.task.id,
                           fiber=self.fiber.id, children=len(children),
                           launched=min(limit, len(children)))
        if not children:
            # empty chain: awaken the parent immediately
            self.ctx.send(self.service.name, "AwakeFiber",
                          {"fiber": self.fiber.id, "child": None},
                          priority=PRIORITY_LOW,
                          max_attempts=self.service.FIBER_MESSAGE_ATTEMPTS)
        recorder = self.service.vinz.history
        if recorder is not None:
            recorder.record(self.ctx, self.task.id, hist.FIBER_FORKED,
                            fiber=self.fiber.id, chain=group_id,
                            children=list(children), fn=fn,
                            items=list(items))
        return group_id

    def collect_chain(self, vm, group_id: str) -> List[Any]:
        group = self.task.chain_groups.get(group_id)
        if group is None:
            raise GozerRuntimeError(f"no chain group {group_id}")
        return self.collect_results(vm, group["children"])

    def collect_results(self, vm, child_ids: List[str]) -> List[Any]:
        """Gather child results in order; signal on failed children."""
        registry = self.service.vinz.registry

        def gather():
            triples = []
            for child_id in child_ids:
                child = registry.fibers.get(child_id)
                if child is None:
                    raise GozerRuntimeError(
                        f"no such child fiber {child_id}")
                triples.append((child.status, child.result, child.error))
            return triples

        return deliver_collected(vm, child_ids,
                                 self.nondet("collect", gather))

    def join_sync(self, pid: str) -> Any:
        """join-process from a background thread (Section 3.4).

        In the discrete-event simulation a background thread cannot
        block while virtual time advances, so this succeeds only when
        the target already finished.
        """
        registry = self.service.vinz.registry

        def probe():
            record = registry.fibers.get(pid) or registry.tasks.get(pid)
            if record is None:
                raise GozerRuntimeError(
                    f"join-process: no such process {pid}")
            if record.finished:
                return record.result
            raise GozerRuntimeError(
                "join-process from a background thread on an unfinished "
                "process: unsupported in discrete-event simulation mode")

        return self.nondet("join-sync", probe)

    def awake(self, pid: str, payload: Any) -> None:
        def send():
            target = self.service.vinz.registry.fibers.get(pid)
            self.ctx.send(
                self.service.name, "AwakeFiber",
                {"fiber": pid, "result": payload}, priority=PRIORITY_LOW,
                max_attempts=self.service.FIBER_MESSAGE_ATTEMPTS,
                affinity=(self.service._affinity_for(target)
                          if target is not None else None))

        self.effect("awake", send)

    def send_fiber_message(self, pid: str, value: Any) -> None:
        """Lightweight cross-process communication (the Section 5
        wish: cheaper than task variables for point-to-point data)."""
        def send():
            self.ctx.send(self.service.name, "DeliverMessage",
                          {"fiber": pid, "value": value},
                          max_attempts=self.service.FIBER_MESSAGE_ATTEMPTS)
            self.service.vinz.metrics.incr("mailbox.sent")

        self.effect("send-message", send)

    def auto_chunk_size(self) -> int:
        """Pick a chunk size from measured child durations (Section 5:
        "dynamically optimize chunk sizes based on the processing time
        of the body").

        Uses this fiber's most recent completed children (the probe
        phase) as the per-item cost sample; sizes chunks so each takes
        roughly :data:`AUTO_CHUNK_TARGET` simulated seconds.
        """
        def decide():
            registry = self.service.vinz.registry
            durations = [
                child.total_charged
                for child in (registry.fibers[cid]
                              for cid in self.task.fiber_ids
                              if registry.fibers[cid].parent_id
                              == self.fiber.id)
                if child.finished and child.total_charged > 0
            ]
            if not durations:
                return 1
            recent = durations[-4:]
            avg = max(sum(recent) / len(recent), 1e-6)
            size = int(AUTO_CHUNK_TARGET / avg)
            chosen = max(1, min(size, 64))
            self.service.vinz.metrics.incr("autochunk.decisions")
            if self.ctx.tracing:
                self.ctx.trace("auto-chunk", task=self.task.id,
                               fiber=self.fiber.id, avg_item=round(avg, 4),
                               size=chosen)
            return chosen

        return self.nondet("auto-chunk", decide)

    def try_receive(self) -> Any:
        """Pop a pending mailbox message, or the no-message keyword."""
        def pop():
            if self.fiber.mailbox:
                return self.fiber.mailbox.pop(0)
            return Keyword("%vinz-no-message")

        return self.nondet("try-receive", pop)

    # -- spawn limit ----------------------------------------------------------

    def _spawn_limit_value(self) -> int:
        """The task's effective spawn limit right now (unrecorded)."""
        limit = self.task.spawn_limit
        if limit is None:
            limit = self.service.default_spawn_limit
        if limit == AUTO_SPAWN_LIMIT:
            return self.service.vinz.governor.current_limit(self.ctx.now)
        return limit

    def spawn_limit(self) -> int:
        """The task's effective spawn limit right now.

        The Listing-3 throttle loop re-reads this every iteration, so
        a task under the ``"auto"`` sentinel (set per deployment with
        ``spawn_limit="auto"`` or per task with
        ``(vinz-auto-spawn-limit)``) follows the AIMD governor's
        decisions mid-fan-out.
        """
        return self.nondet("spawn-limit", self._spawn_limit_value)

    def set_spawn_limit(self, n: int) -> int:
        self.task.spawn_limit = max(1, n)
        return self.task.spawn_limit

    def auto_spawn_limit(self) -> int:
        """Hand this task's spawn limit to the adaptive governor;
        returns the currently governed limit."""

        def engage():
            self.task.spawn_limit = AUTO_SPAWN_LIMIT
            return self.service.vinz.governor.current_limit(self.ctx.now)

        return self.nondet("auto-spawn-limit", engage)

    # -- task variables (Section 3.6) ----------------------------------------

    def get_task_var(self, name: str) -> Any:
        """Read-through to the store: "will always see the latest value"."""
        vinz = self.service.vinz

        def read():
            key = task_var_key(self.task.id, name)
            vinz.metrics.incr("taskvar.reads")
            if vinz.store.exists(key):
                blob = vinz.store.read(key)
                self.ctx.charge(vinz.store.cost(len(blob)))
                return pickle.loads(blob)
            if name not in self.service.task_var_defaults:
                raise GozerRuntimeError(
                    f"undeclared task variable ^{name}^")
            return self.service.task_var_defaults[name]

        return self.nondet(f"taskvar-get/{name}", read)

    def set_task_var(self, name: str, value: Any) -> Any:
        """Locked write: the paper's "very high synchronization
        overhead for mutation"."""
        if name not in self.service.task_var_defaults:
            raise GozerRuntimeError(f"undeclared task variable ^{name}^")
        self.effect(f"taskvar-set/{name}",
                    lambda: self._write_task_var(name, value))
        return value

    def _write_task_var(self, name: str, value: Any) -> None:
        vinz = self.service.vinz
        key = task_var_key(self.task.id, name)
        owner = self.ctx.owner
        spins = 0
        # the lock is named like the store key it guards
        while not vinz.locks.try_acquire(key, owner):
            # with NFS-style file locks, a just-released lock may still
            # look held (attribute caching): model a blocking wait for
            # the visibility window instead of spinning the host CPU
            remaining = getattr(vinz.locks, "stale_visibility_remaining",
                                lambda _k: 0.0)(key)
            if remaining > 0:
                self.ctx.charge(remaining)
                vinz.locks.expire_visibility(key)
                continue
            spins += 1
            self.ctx.charge(0.001)
            if spins > 1000:  # pragma: no cover - defensive
                raise GozerRuntimeError(
                    f"task variable lock {key} appears stuck "
                    f"(held by {vinz.locks.holder(key)})")
        try:
            blob = pickle.dumps(value)
            self.ctx.charge(vinz.store.write(key, blob)
                            + TASKVAR_LOCK_OVERHEAD)
            vinz.metrics.incr("taskvar.writes")
        finally:
            vinz.locks.release(key, owner)

    # -- service calls ----------------------------------------------------------

    def call_sync(self, soap_action: str, values: Dict[str, Any]) -> Dict[str, Any]:
        def invoke():
            service_name, operation = self.service.vinz.resolve_soap_action(
                soap_action)
            envelope = self.ctx.cluster.call_inline(service_name, operation,
                                                    dict(values),
                                                    parent_context=self.ctx)
            if envelope.duration is not None:
                self.service.vinz.record_service_latency(soap_action,
                                                         envelope.duration)
            return envelope.to_body()

        return self.nondet(f"call-sync/{soap_action}", invoke)

    def should_migrate(self, soap_action: str) -> bool:
        """Should an asynchronous request to ``soap_action`` migrate
        the fiber?  Under the "adaptive" policy the answer reads the
        live latency learner, so it is an observation; under the
        default policy it is the constant the stub already assumes and
        nothing is recorded."""
        vinz = self.service.vinz
        if vinz.migration_policy != "adaptive":
            return True
        return self.nondet(f"should-migrate/{soap_action}",
                           lambda: vinz.should_migrate(soap_action))
