"""The workflow-as-a-service wrapper: Table 1 of the paper.

"A distributed workflow begins as a Gozer program.  Vinz takes this
program and makes it available for running on the nodes of the BlueBox
cluster ... by wrapping the Gozer program up as a distinct BlueBox
service" (Section 3.1) publishing the standardized operations:

=============== ===========================================================
Start           Asynchronously begin execution of a workflow, returning
                its id.
Run             Synchronously execute a workflow, returning its id.
Call            Synchronously execute a workflow, returning its last
                result.
Terminate       Management operation to asynchronously terminate any
                running workflow.
RunFiber        Begin execution of a portion of the workflow on this
                instance.
AwakeFiber      Resume a suspended parent fiber when a child fiber has
                completed.
ResumeFromCall  Resume a suspended fiber when a remote operation
                completes.
JoinProcess     Resume a suspended fiber when any arbitrary process has
                completed.
=============== ===========================================================

This module is the window lifecycle: the operations, ``_advance``
(lock, fence, idempotence, audit) and the routing of each window's
outcome.  Running the fiber is :mod:`repro.vinz.execution`, its
persisted state :mod:`repro.vinz.fiberstate`, and stranded fibers
:mod:`repro.vinz.recovery`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..bluebox.messagequeue import (
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    Affinity,
    ReplyTo,
)
from ..bluebox.services import (
    OperationContext,
    Requeue,
    Service,
    ServiceFault,
)
from ..gvm.frames import GozerFunction
from ..gvm.futures import SynchronousFutureExecutor, enter_fiber_thread
from ..gvm.runtime import Runtime, VirtualClock
from ..gvm.vm import Yielded
from ..history import recorder as hist
from ..lang.symbols import Symbol, gensym_scope
from ..observe.metrics import exponential_buckets
from ..persistsnap import SnapshotPipeline
from . import deflink as deflink_module
from . import distribution, handlers
from .execution import (
    FiberExecution,
    WINDOW_COMPLETED,
    WINDOW_FAILED,
    run_window,
)
from .fiberstate import FiberStateStore, state_key, task_env_key, thunk_key
from .persistence import FiberCodec
from .task import (
    COMPLETED,
    ERROR,
    FiberRecord,
    RUNNING,
    TERMINATED,
    TaskRecord,
)

_S = Symbol

#: histogram buckets for per-advancement GVM instruction counts
INSTRUCTION_BUCKETS = exponential_buckets(1, 2.0, 24)

#: re-delivery delay of an AwakeFiber that gave up waiting for the
#: fiber's lock and put itself back on the queue (Section 5)
REQUEUE_DELAY = 0.02


class WorkflowService(Service):
    """One Gozer workflow program deployed as a BlueBox service.

    Configuration knobs (all per the paper):

    * ``spawn_limit`` — default concurrent-children throttle (§3.5);
      an int, or ``"auto"`` to delegate to the environment's AIMD
      spawn governor (repro.sched.governor);
    * ``awake_patience`` — how long an AwakeFiber holds its slot waiting
      for the fiber lock before requeueing itself (§5);
    * ``instruction_cost`` — simulated seconds charged per executed GVM
      instruction (models the fiber's compute);
    * ``cache`` — enable/disable the per-node fiber cache (§4.2);
    * ``snapshots`` — continuation snapshot format: ``"v1"`` whole
      compressed blobs, ``"v2"`` the chunk-deduplicated pipeline.

    Fibers persist through the paper's custom codec (§4.2), a task
    starts at ``(main params)``, and the snapshot interval is the
    environment's.
    """

    #: fiber-lifecycle messages (RunFiber/AwakeFiber/ResumeFromCall/
    #: JoinProcess) retry effectively forever: the paper's AwakeFiber
    #: "places itself back on the message queue for later delivery"
    #: without a poison-message cap (Section 5).
    FIBER_MESSAGE_ATTEMPTS = 1_000_000

    def __init__(self, name: str, source: str, vinz_env,
                 spawn_limit: Any = 4,
                 awake_patience: float = 0.02,
                 instruction_cost: float = 2e-6,
                 cache: bool = True,
                 cache_capacity: int = 256,
                 snapshots: str = "v1"):
        super().__init__(name, doc=f"Vinz workflow {name}")
        self.source = source
        self.vinz = vinz_env
        self.default_spawn_limit = spawn_limit
        self.awake_patience = awake_patience
        self.instruction_cost = instruction_cost
        self.cache_enabled = cache
        self.cache_capacity = cache_capacity
        self.codec = FiberCodec("custom")
        # blob-size histograms flow into the cluster's metrics registry
        self.codec.metrics = vinz_env.metrics
        if snapshots not in ("v1", "v2"):
            raise ValueError(f"unknown snapshot format {snapshots!r}")
        self.snapshot_format = snapshots
        #: the incremental-snapshot pipeline (format v2); None in v1
        #: mode, where continuations persist as whole compressed blobs
        self.snapper = None
        if snapshots == "v2":
            self.snapper = SnapshotPipeline(
                self.codec, vinz_env.store, metrics=vinz_env.metrics)
        #: where this service's fibers persist and load their state
        self.state = FiberStateStore(self)
        self.runtime: Optional[Runtime] = None
        self.task_var_defaults: Dict[str, Any] = {}
        self.task_var_docs: Dict[str, str] = {}
        self.handler_definitions: Dict[str, handlers.HandlerDefinition] = {}
        #: Start/Run/Call dedup: queue-message id -> task id, making
        #: task creation idempotent under at-least-once delivery (a
        #: duplicated Start must not create a second task)
        self._task_by_message: Dict[int, str] = {}
        self._register_operations()

    # ------------------------------------------------------------------
    # deployment: load the program
    # ------------------------------------------------------------------

    def on_deployed(self, cluster) -> None:
        if self.runtime is not None:
            return  # already loaded (idempotent deploys)
        # the runtime clock is the cluster's virtual clock: a stdlib
        # (sleep n) outside a fiber advances simulated time, never the
        # host's, and (get-universal-time) reads virtual time
        self.runtime = Runtime(
            # deterministic futures: right for the simulation
            executor=SynchronousFutureExecutor(),
            clock=VirtualClock(
                now_fn=lambda: self.vinz.cluster.kernel.now))
        # a scoped gensym counter makes compilation deterministic: the
        # same source always expands to the same gensym names, so
        # serialized fiber state is byte-identical across runs — the
        # replay guarantee of the fault-injection subsystem needs this
        with gensym_scope():
            distribution.install(self.runtime, self)
            handlers.install(self.runtime, self)
            deflink_module.install(self.runtime, self)
            self.runtime.eval_string(self.source)
        # register every loaded code object so the custom codec can
        # serialize fibers by reference (paper's custom format), and
        # every host function so any codec can pickle it by name
        for name, value in list(self.runtime.global_env.variables.items()):
            if isinstance(value, GozerFunction):
                self.codec.registry.register_tree(value.code)
            elif callable(value):
                self.codec.hosts.register(name.name, value)
        for macro in list(self.runtime.global_env.macros.values()):
            fn = getattr(macro, "function", None)
            if isinstance(fn, GozerFunction):
                self.codec.registry.register_tree(fn.code)

    def declare_task_var(self, name: str, default: Any, doc: Optional[str]) -> None:
        self.task_var_defaults[name] = default
        if doc:
            self.task_var_docs[name] = doc

    def define_handler(self, definition: "handlers.HandlerDefinition") -> None:
        self.handler_definitions[definition.name] = definition

    # ------------------------------------------------------------------
    # Table 1 operations
    # ------------------------------------------------------------------

    def _register_operations(self) -> None:
        self.add_operation(
            "Start", self.op_start,
            doc="Asynchronously begin execution of a workflow, returning its id.",
            parameters=["params"], output="task-id")
        self.add_operation(
            "Run", self.op_run,
            doc="Synchronously execute a workflow, returning its id.",
            parameters=["params"], output="task-id")
        self.add_operation(
            "Call", self.op_call,
            doc="Synchronously execute a workflow, returning its last result.",
            parameters=["params"], output="any")
        self.add_operation(
            "Terminate", self.op_terminate,
            doc="Management operation to asynchronously terminate any running workflow.",
            parameters=["task"], output="boolean")
        self.add_operation(
            "RunFiber", self.op_run_fiber,
            doc="Begin execution of a portion of the workflow on this instance.",
            parameters=["fiber"])
        self.add_operation(
            "AwakeFiber", self.op_awake_fiber,
            doc="Resume a suspended parent fiber when a child fiber has completed.",
            parameters=["fiber", "child"])
        self.add_operation(
            "ResumeFromCall", self.op_resume_from_call,
            doc="Resume a suspended fiber when a remote operation completes.",
            parameters=["fiber", "response"])
        self.add_operation(
            "JoinProcess", self.op_join_process,
            doc="Resume a suspended fiber when any arbitrary process has completed.",
            parameters=["fiber", "process", "result"])
        # extension operation (Section 5: "lighter-weight cross-process
        # communication mechanisms"): direct fiber-to-fiber messages
        self.add_operation(
            "DeliverMessage", self.op_deliver_message,
            doc="Deliver a message to a fiber's mailbox, resuming it "
                "if it is blocked in receive-message (extension).",
            parameters=["fiber", "value"])

    # -- lifecycle entry points -------------------------------------------

    def _create_task(self, ctx: OperationContext,
                     body: Dict[str, Any]) -> TaskRecord:
        registry = self.vinz.registry
        params = body.get("params")
        msg_id = ctx.message.id
        existing = registry.tasks.get(self._task_by_message.get(msg_id))
        if existing is not None:
            # duplicate delivery of the same creation message:
            # idempotently return the task it already created
            if ctx.tracing:
                ctx.trace("task-start-duplicate", task=existing.id,
                          msg=msg_id)
            return existing
        task = registry.new_task(self.name, params, ctx.now)
        task.deadline = body.get("deadline")
        fiber = registry.new_fiber(task, ctx.now)
        self._task_by_message[msg_id] = task.id
        tracer = ctx.cluster.tracer
        if tracer.enabled:
            # the roots of this task's causal tree: the task span hangs
            # off whatever caused the Start (the creating op window),
            # and the initial fiber span hangs off the task span
            task.span_id = tracer.begin(
                f"task:{task.id}", kind="task", start=ctx.now,
                parent_id=ctx.span_id or None,
                task=task.id, workflow=self.name)
            fiber.span_id = tracer.begin(
                f"fiber:{fiber.id}", kind="fiber", start=ctx.now,
                parent_id=task.span_id, task=task.id, fiber=fiber.id)
        # an aborted window (store fault, node death mid-window) must
        # not leak a half-created task: the retried Start makes a fresh
        # one, so discard these records and their monitoring effects
        monitored = [False]

        def undo_create() -> None:
            if self._task_by_message.get(msg_id) == task.id:
                del self._task_by_message[msg_id]
            if registry.discard_task(task.id) is not None:
                # the retried Start makes a *fresh* task id, so this
                # env blob would orphan in the backends while never
                # reaching the journal — take it back out
                self.vinz.store.rollback_value(task_env_key(task.id), None)
                if monitored[0]:
                    self.vinz.monitor_task_discarded(task, ctx.now)
                if task.span_id:
                    tracer.end(fiber.span_id, end=ctx.now,
                               status="discarded")
                    tracer.end(task.span_id, end=ctx.now,
                               status="discarded")

        ctx.on_abort(undo_create)
        # persist the task's immutable environment once (Section 4.2's
        # immutable data: parameters + workflow identity)
        env_blob = self.codec.dumps({"workflow": self.name, "params": params})
        ctx.charge(self.vinz.store.write(task_env_key(task.id), env_blob))
        if ctx.tracing:
            ctx.trace("task-start", task=task.id, fiber=fiber.id)
        self.vinz.monitor_task_started(task, ctx.now)
        monitored[0] = True
        recorder = self.vinz.history
        if recorder is not None:
            # window-buffered: an aborted Start discards this with the
            # task record itself
            recorder.record(ctx, task.id, hist.TASK_STARTED,
                            root=fiber.id, params=params,
                            workflow=self.name)
        self.send_run_fiber(ctx, task, fiber)
        return task

    def send_run_fiber(self, ctx: OperationContext, task: TaskRecord,
                       fiber: FiberRecord) -> None:
        """Enqueue the RunFiber that starts ``fiber``."""
        ctx.send(self.name, "RunFiber", {"fiber": fiber.id, "task": task.id},
                 priority=self.vinz.message_priority(task, PRIORITY_NORMAL),
                 max_attempts=self.FIBER_MESSAGE_ATTEMPTS,
                 parent_span=fiber.span_id)

    def op_start(self, ctx: OperationContext, body: Dict[str, Any]) -> Any:
        task = self._create_task(ctx, body)
        return {"task": task.id}

    def op_run(self, ctx: OperationContext, body: Dict[str, Any]) -> Any:
        task = self._create_task(ctx, body)
        if task.finished:  # duplicate delivery after completion
            return {"task": task.id, "status": task.status}
        deferred = ctx.defer()
        task.completion_listeners.append(
            lambda t: deferred.resolve({"task": t.id, "status": t.status}))
        return deferred

    def op_call(self, ctx: OperationContext, body: Dict[str, Any]) -> Any:
        task = self._create_task(ctx, body)
        if task.finished:  # duplicate delivery after completion
            if task.status == COMPLETED:
                return task.result
            raise ServiceFault(self.wsdl.fault_qname("WorkflowFailed"),
                               task.error or task.status)
        deferred = ctx.defer()

        def finish(t: TaskRecord) -> None:
            if t.status == COMPLETED:
                deferred.resolve(t.result)
            else:
                deferred.fail(self.wsdl.fault_qname("WorkflowFailed"),
                              t.error or t.status)

        task.completion_listeners.append(finish)
        return deferred

    def op_terminate(self, ctx: OperationContext, body: Dict[str, Any]) -> Any:
        task_id = body["task"]
        registry = self.vinz.registry
        task = registry.tasks.get(task_id)
        if task is None:
            raise ServiceFault(self.wsdl.fault_qname("NoSuchTask"), task_id)
        if not task.finished:
            self._finish_task(ctx, task, TERMINATED,
                              error="terminated by management operation")
            if ctx.tracing:
                ctx.trace("task-terminate", task=task.id)
        return True

    def _finish_task(self, ctx: OperationContext, task: TaskRecord,
                     status: str, result: Any = None,
                     error: Optional[str] = None) -> None:
        """Finish a task and sweep its unfinished fibers.

        Fibers still queued will notice ``task.finished`` when their
        message arrives; suspended fibers that would otherwise wait
        forever (e.g. a parent awaiting AwakeFiber) are terminated here
        and their persisted state reclaimed.
        """
        registry = self.vinz.registry
        registry.finish_task(task, status, ctx.now, result=result, error=error)
        self.vinz.monitor_task_finished(task, ctx.now)
        for fiber in registry.fibers_of(task.id):
            if not fiber.finished:
                registry.finish_fiber(fiber, TERMINATED, ctx.now)
                self.state.reclaim(ctx, state_key(fiber.id),
                                   thunk_key(fiber.id))
                self.vinz.monitor_fiber_finished(fiber, ctx.now)
                self._notify_waiters(ctx, fiber)
        self._notify_waiters(ctx, task)

    # -- fiber advancement --------------------------------------------------

    def op_run_fiber(self, ctx: OperationContext, body: Dict[str, Any]) -> Any:
        return self._advance(ctx, body["fiber"], resume=False, value=None)

    def op_awake_fiber(self, ctx: OperationContext, body: Dict[str, Any]) -> Any:
        return self._advance(ctx, body["fiber"], resume=True,
                             value={"child": body.get("child"),
                                    "result": body.get("result")})

    def op_resume_from_call(self, ctx: OperationContext,
                            body: Dict[str, Any]) -> Any:
        if "soap_action" in body and "sent_at" in body:
            # feed the adaptive-migration learner (Section 5 future
            # work) with the observed round-trip time
            self.vinz.record_service_latency(
                body["soap_action"], ctx.now - body["sent_at"])
        return self._advance(ctx, body["fiber"], resume=True,
                             value=body.get("response"))

    def op_join_process(self, ctx: OperationContext,
                        body: Dict[str, Any]) -> Any:
        return self._advance(ctx, body["fiber"], resume=True,
                             value=body.get("result"))

    #: resume-value sentinel: "pop the next mailbox entry under the
    #: fiber lock" — keeps delivery idempotent across requeues
    _MAILBOX = "%vinz-mailbox%"

    def op_deliver_message(self, ctx: OperationContext,
                           body: Dict[str, Any]) -> Any:
        fiber = self.vinz.registry.fibers.get(body["fiber"])
        if fiber is None:
            raise ServiceFault(self.wsdl.fault_qname("NoSuchFiber"),
                               body["fiber"])
        if fiber.finished:
            return None  # messages to dead fibers are dropped
        # idempotent append: a re-delivered message (receiver was
        # locked on the first attempt) must not duplicate the value
        if ctx.message.id not in fiber.seen_deliveries:
            fiber.seen_deliveries.add(ctx.message.id)
            fiber.mailbox.append(body.get("value"))
            self.vinz.metrics.incr("mailbox.delivered")
            recorder = self.vinz.history
            if recorder is not None:
                # audit flavour: the fiber *consumes* the value via a
                # later resume or try-receive event, so replay skips
                # appends (the "append" key marks them)
                recorder.record(ctx, fiber.task_id, hist.MESSAGE_DELIVERED,
                                fiber=fiber.id, value=body.get("value"),
                                append=True)
        if fiber.waiting_on == "receive":
            # wake the receiver; the value is popped under the lock so
            # a requeued wake-up cannot double-deliver
            return self._advance(ctx, fiber.id, resume=True,
                                 value=self._MAILBOX)
        return None

    def _advance(self, ctx: OperationContext, fiber_id: str, resume: bool,
                 value: Any) -> Any:
        registry = self.vinz.registry
        fiber = registry.fibers.get(fiber_id)
        if fiber is None:
            raise ServiceFault(self.wsdl.fault_qname("NoSuchFiber"), fiber_id)
        task = registry.task(fiber.task_id)

        # a terminated task's fibers "notice that the task has
        # terminated in short order and also terminate" (Section 3.7)
        if task.finished:
            if not fiber.finished:
                registry.finish_fiber(fiber, TERMINATED, ctx.now)
                self.vinz.monitor_fiber_finished(fiber, ctx.now)
            if ctx.tracing:
                ctx.trace("fiber-skip-terminated", task=task.id,
                          fiber=fiber.id)
            return None
        if fiber.finished:
            return None
        # idempotence under at-least-once delivery: a duplicated
        # message whose first delivery already advanced the fiber must
        # not advance it again (aborted windows discard the marker, so
        # crash redeliveries still replay)
        msg_id = ctx.message.id
        if msg_id in fiber.processed_deliveries:
            if ctx.tracing:
                ctx.trace("fiber-skip-duplicate", task=task.id, fiber=fiber.id,
                          msg=msg_id)
            return None

        # single-runner guarantee (Section 4.2): one node at a time.
        # The lock is held for the operation's entire *simulated*
        # processing window (released by a completion hook), which is
        # what produces the Section 5 AwakeFiber contention: siblings
        # delivered during the window find the lock held.
        locks = self.vinz.locks
        owner = ctx.owner
        lock_key = f"fiber/{fiber.id}"
        if not locks.try_acquire(lock_key, owner):
            # hold the slot for the patience window, then give up and
            # requeue (the Section 5 burstiness behaviour)
            ctx.charge(self.awake_patience)
            self.vinz.metrics.incr("awake.lock-wait")
            return Requeue(delay=REQUEUE_DELAY)
        #: the message that advances a fiber is its recovery handle: if
        #: this window's node dies holding the lock, the scanner
        #: re-enqueues exactly this Message (same id), so the
        #: processed_deliveries guard makes the re-awaken idempotent
        fiber.last_message = ctx.message

        def release_or_abandon() -> None:
            if ctx.node_failed:
                # a dead JVM cannot unlink its NFS lock file: the entry
                # (and its lease) survive the crash — recovery is the
                # lease scanner's job, not a perfect-failure-detector
                # cheat
                locks.abandon(lock_key, owner)
            else:
                locks.release(lock_key, owner)

        ctx.on_complete(lambda: locks.release(lock_key, owner))
        ctx.on_abort(release_or_abandon)
        # fencing: this window's writes carry the grant's token; a
        # zombie whose lease was stolen mid-window fails fence_valid
        # and aborts instead of clobbering the new owner's state
        ctx.fence = (lock_key, owner, locks.fencing_token(lock_key))
        fiber.processed_deliveries.add(msg_id)
        ctx.on_abort(lambda: fiber.processed_deliveries.discard(msg_id))
        # single-runner audit trail: every *committed* advancement
        # window, with its virtual-time extent — campaigns assert that
        # no fiber's windows ever overlap and no message commits twice
        window_start = ctx.now
        ctx.on_complete(lambda: self.vinz.runner_audit.append(
            (fiber.id, msg_id, window_start, ctx.now)))
        injector = self.vinz.injector
        if injector is not None:
            # crash-on-lock faults fire here: the node dies the instant
            # it takes the fiber lock, before any state is touched
            injector.on_lock_acquired(ctx, fiber)
            if ctx.node_failed:
                return None  # died taking the lock; window already aborted
        return self._advance_locked(ctx, task, fiber, resume, value)

    # -- the core: load state, run the GVM, act on the outcome ------------

    def _advance_locked(self, ctx: OperationContext, task: TaskRecord,
                        fiber: FiberRecord, resume: bool, value: Any) -> Any:
        if resume and value == self._MAILBOX and not fiber.mailbox:
            # a duplicate wake-up raced an earlier consumption: nothing
            # to deliver, leave the fiber suspended and touch nothing
            return None
        # Crash atomicity: if the node dies before this operation's
        # simulated window ends, the redelivered message must replay
        # against the *pre-window* fiber state (real Vinz gets this from
        # JMS transactions: state write + sends + ack commit together).
        ctx.on_abort(self.state.abort_undo(ctx, task, fiber))
        fiber.status = RUNNING
        if task.status != RUNNING:
            task.status = RUNNING

        metrics = ctx.cluster.metrics
        if metrics.enabled:
            # enqueue -> actual advancement: the end-to-end resume lag
            # a suspended fiber experiences (queue wait + lock waits)
            metrics.histogram("fiber.resume_latency").observe(
                ctx.now - ctx.message.enqueued_at)

        cache = self.state.node_cache(ctx)
        self.state.touch_task_env(ctx, cache, task)

        vm = self.runtime.new_vm(allow_yield=True)
        execution = FiberExecution(self, ctx, task, fiber)
        vm.vinz = execution
        if metrics.enabled:
            vm.profile_sink = lambda n: metrics.histogram(
                "gvm.run_instructions",
                buckets=INSTRUCTION_BUCKETS).observe(n)
        # make the execution reachable from future bodies too (they run
        # on their own VM): Section 3.2's sync fallback needs it
        cv_token = distribution.CURRENT_EXECUTION.set(execution)
        enter_fiber_thread()

        fiber.last_node = ctx.node.id
        waited = fiber.waiting_on
        if resume and value == self._MAILBOX:
            value = fiber.mailbox.pop(0)
            fiber.waiting_on = None
        recorder = self.vinz.history
        if recorder is not None and resume:
            # what resumed the fiber, with the exact value fed back in:
            # the event replay re-delivers at this suspension point
            recorder.record(ctx, task.id, hist.resume_kind_for(waited),
                            fiber=fiber.id, value=value)
        charged_before = ctx.charged
        instructions_before = vm.instruction_count
        tracer = ctx.cluster.tracer
        prev_span = ctx.span_id
        run_span = 0
        if tracer.enabled:
            # kernel time is frozen while a handler runs; sub-window
            # span boundaries use the charge model's virtual "now"
            run_span = tracer.begin(
                f"run:{fiber.id}", kind="fiber-run",
                start=ctx.now + charged_before,
                parent_id=prev_span or (fiber.span_id or None),
                task=task.id, fiber=fiber.id, resume=resume,
                version=fiber.version, node=ctx.node.id)
            # sends and persistence during this advancement parent here
            ctx.span_id = run_span
            ctx.trace("fiber-run", task=task.id, fiber=fiber.id,
                      resume=resume, version=fiber.version)

        def window():
            if resume:
                outcome = vm.resume(self.state.load(ctx, cache, fiber),
                                    value)
            else:
                outcome = self._start_fresh(ctx, vm, task, fiber)
            if isinstance(outcome, Yielded):
                # persisting the suspension and arming its wake-up is
                # part of the window: a bad yield descriptor or join
                # target faults here and fails the fiber like any other
                # platform fault
                self._fiber_suspended(
                    ctx, cache, task, fiber, outcome,
                    vm.instruction_count - instructions_before)
            return outcome

        try:
            state, result, terminate_task = run_window(window)
            if state == WINDOW_COMPLETED:
                self._fiber_completed(ctx, task, fiber, result)
            elif state == WINDOW_FAILED:
                # an unhandled error in the *main* fiber fails the task
                self._fiber_failed(
                    ctx, task, fiber, result,
                    terminate_task=terminate_task or fiber.parent_id is None)
            return None
        finally:
            vm.vinz = None
            distribution.CURRENT_EXECUTION.reset(cv_token)
            ctx.charge((vm.instruction_count - instructions_before)
                       * self.instruction_cost)
            fiber.total_charged += ctx.charged - charged_before
            if run_span:
                ctx.span_id = prev_span
                tracer.end(run_span, end=ctx.now + ctx.charged,
                           instructions=(vm.instruction_count
                                         - instructions_before))

    def _affinity_for(self, fiber: FiberRecord) -> Optional[Affinity]:
        """Placement hint for a message that will run ``fiber`` next.

        A fiber suspended at a version that was never persisted
        (snapshot-interval elision) is owned by the node whose cache
        holds that version: the message waits for that node, but no
        longer than a cold node would be charged to rebuild the version
        (:meth:`FiberStateStore.cold_rebuild_cost`), so waiting never
        costs more than it saves.  Otherwise, under the "affinity"
        policy (the paper's Section 5 locality future-work item), a soft
        preference for that node; under "balanced" the queue alone
        decides, as in the paper's production system.
        """
        if fiber.last_node is None:
            return None
        hold = self.state.cold_rebuild_cost(fiber)
        if hold > 0 or self.vinz.placement == "affinity":
            return Affinity(fiber.last_node, hold)
        return None

    def main_function(self) -> GozerFunction:
        """The workflow's entry point, run by every task's main fiber."""
        main = self.runtime.global_env.lookup_or(_S("main"))
        if not isinstance(main, GozerFunction):
            raise ServiceFault(
                self.wsdl.fault_qname("NoMainFunction"),
                f"workflow {self.name} defines no (main params)")
        return main

    def _start_fresh(self, ctx: OperationContext, vm, task: TaskRecord,
                     fiber: FiberRecord):
        if fiber.parent_id is None:
            return self.run_top_call(vm, self.main_function(), [task.params])
        # child fiber: load and run its start thunk (the cloned state)
        fn, args = self.state.load_thunk(ctx, fiber)
        return self.run_top_call(vm, fn, list(args))

    @staticmethod
    def run_top_call(vm, fn: GozerFunction, args: List[Any]):
        """Run (fn args...) as the fiber's top-level flow of control."""
        frame = vm._frame_for_call(fn, args)
        return vm._run_top(frame=frame)

    # -- outcome handling ------------------------------------------------------

    def _fiber_completed(self, ctx: OperationContext, task: TaskRecord,
                         fiber: FiberRecord, result: Any) -> None:
        recorder = self.vinz.history
        if recorder is not None:
            recorder.record(ctx, task.id, hist.FIBER_COMPLETED,
                            fiber=fiber.id, result=result)
        self.vinz.registry.finish_fiber(fiber, COMPLETED, ctx.now,
                                        result=result)
        self.state.reclaim(ctx, state_key(fiber.id), thunk_key(fiber.id))
        if ctx.tracing:
            ctx.trace("fiber-complete", task=task.id, fiber=fiber.id)
        self._announce_finished(ctx, task, fiber)
        if fiber.parent_id is None and not task.finished:
            self._finish_task(ctx, task, COMPLETED, result=result)
            if ctx.tracing:
                ctx.trace("task-complete", task=task.id)

    def _fiber_failed(self, ctx: OperationContext, task: TaskRecord,
                      fiber: FiberRecord, error: str,
                      terminate_task: bool) -> None:
        recorder = self.vinz.history
        if recorder is not None:
            recorder.record(ctx, task.id, hist.FIBER_FAILED,
                            fiber=fiber.id, error=error)
        self.vinz.registry.finish_fiber(fiber, ERROR, ctx.now, error=error)
        self.state.reclaim(ctx, state_key(fiber.id))
        if ctx.tracing:
            ctx.trace("fiber-error", task=task.id, fiber=fiber.id, error=error)
        self._announce_finished(ctx, task, fiber)
        if terminate_task and not task.finished:
            self._finish_task(ctx, task, ERROR, error=error)
            if ctx.tracing:
                ctx.trace("task-error", task=task.id, error=error)

    def _announce_finished(self, ctx: OperationContext, task: TaskRecord,
                           fiber: FiberRecord) -> None:
        """Tell everyone waiting on a fiber that just finished, either
        way: joiners, the next chained sibling, the parent."""
        self.vinz.monitor_fiber_finished(fiber, ctx.now)
        self._notify_waiters(ctx, fiber)
        if fiber.chain_group is not None:
            self._advance_chain(ctx, task, fiber)
        elif fiber.notify_parent and fiber.parent_id is not None:
            # "the fibers created by these macros do [notify their
            # parent]" (Section 5)
            self._awake_parent(ctx, task, fiber.parent_id, fiber)

    def _awake_parent(self, ctx: OperationContext, task: TaskRecord,
                      parent_id: str, child: FiberRecord) -> None:
        """The low-priority AwakeFiber a finished child owes its parent."""
        parent = self.vinz.registry.fibers.get(parent_id)
        ctx.send(self.name, "AwakeFiber",
                 {"fiber": parent_id, "child": child.id},
                 priority=self.vinz.message_priority(task, PRIORITY_LOW),
                 max_attempts=self.FIBER_MESSAGE_ATTEMPTS,
                 affinity=self._affinity_for(parent) if parent else None)

    def _advance_chain(self, ctx: OperationContext, task: TaskRecord,
                       fiber: FiberRecord) -> None:
        """Sibling chaining (Section 5 future work): a finished chain
        child launches the next pending sibling itself; only the last
        one awakens the parent."""
        group = task.chain_groups.get(fiber.chain_group)
        if group is None:  # pragma: no cover - group swept with task
            return
        if group["pending"]:
            next_child = self.vinz.registry.fibers[group["pending"].pop(0)]
            self.send_run_fiber(ctx, task, next_child)
            if ctx.tracing:
                ctx.trace("chain-next", task=task.id, fiber=fiber.id,
                          child=next_child.id)
        group["remaining"] -= 1
        if group["remaining"] <= 0:
            self._awake_parent(ctx, task, group["parent"], fiber)

    def _fiber_suspended(self, ctx: OperationContext, cache, task: TaskRecord,
                         fiber: FiberRecord, outcome: Yielded,
                         instructions: int) -> None:
        descriptor = outcome.value if isinstance(outcome.value, dict) else \
            {"kind": "await"}
        kind = descriptor.get("kind", "await")
        fiber.waiting_on = kind
        self.state.persist(ctx, cache, fiber, outcome.continuation,
                           instructions)
        if ctx.tracing:
            ctx.trace("fiber-suspend", task=task.id, fiber=fiber.id, why=kind,
                      version=fiber.version)
        recorder = self.vinz.history
        if recorder is not None:
            recorder.record(
                ctx, task.id, hist.FIBER_SUSPENDED, fiber=fiber.id,
                why=kind, version=fiber.version,
                snapshot=(fiber.last_persisted_version == fiber.version))
            if kind == "service-call":
                recorder.record(ctx, task.id, hist.SERVICE_REQUESTED,
                                fiber=fiber.id,
                                soap_action=descriptor.get("soap_action"))

        if kind == "await":
            pass  # an AwakeFiber from a child will resume us
        elif kind == "receive":
            if fiber.mailbox:
                # a message arrived while we were still running (its
                # DeliverMessage found us locked): wake ourselves; the
                # sentinel pops the mailbox under the lock
                ctx.send(self.name, "JoinProcess",
                         {"fiber": fiber.id, "result": self._MAILBOX},
                         max_attempts=self.FIBER_MESSAGE_ATTEMPTS,
                         affinity=self._affinity_for(fiber))
            # otherwise the next DeliverMessage resumes us
        elif kind == "service-call":
            self._send_service_request(ctx, fiber, descriptor)
        elif kind == "join":
            self._register_join(ctx, fiber, descriptor["target"])
        elif kind == "sleep":
            seconds = float(descriptor.get("seconds", 0.0))
            ctx.send_later(seconds, self.name, "JoinProcess",
                           {"fiber": fiber.id, "result": None},
                           affinity=self._affinity_for(fiber))
        else:
            raise ServiceFault(self.wsdl.fault_qname("BadYield"),
                               f"unknown yield descriptor {kind!r}")

    def _send_service_request(self, ctx: OperationContext, fiber: FiberRecord,
                              descriptor: Dict[str, Any]) -> None:
        service_name, operation = self.vinz.resolve_soap_action(
            descriptor["soap_action"])
        if ctx.tracing:
            ctx.trace("service-request", task=fiber.task_id, fiber=fiber.id,
                      service=service_name, operation=operation)
        ctx.send(service_name, operation, dict(descriptor.get("values") or {}),
                 reply_to=ReplyTo(service=self.name,
                                  operation="ResumeFromCall",
                                  extra={"fiber": fiber.id,
                                         "soap_action": descriptor["soap_action"],
                                         "sent_at": ctx.now},
                                  affinity=self._affinity_for(fiber)),
                 max_attempts=self.FIBER_MESSAGE_ATTEMPTS)

    def _register_join(self, ctx: OperationContext, fiber: FiberRecord,
                       target: str) -> None:
        registry = self.vinz.registry
        process = registry.fibers.get(target) or registry.tasks.get(target)
        if process is None:
            raise ServiceFault(self.wsdl.fault_qname("NoSuchProcess"), target)
        if process.finished:
            ctx.send(self.name, "JoinProcess",
                     {"fiber": fiber.id, "process": target,
                      "result": process.result},
                     max_attempts=self.FIBER_MESSAGE_ATTEMPTS,
                     affinity=self._affinity_for(fiber))
        elif fiber.id not in process.join_waiters:
            # idempotent: an aborted-window replay must not register
            # the waiter twice
            process.join_waiters.append(fiber.id)

    def _notify_waiters(self, ctx: OperationContext, process) -> None:
        """Resume every fiber joined on a finished fiber or task."""
        waiters, process.join_waiters = process.join_waiters, []
        for waiter in waiters:
            waiting_fiber = self.vinz.registry.fibers.get(waiter)
            ctx.send(self.name, "JoinProcess",
                     {"fiber": waiter, "process": process.id,
                      "result": process.result},
                     max_attempts=self.FIBER_MESSAGE_ATTEMPTS,
                     affinity=(self._affinity_for(waiting_fiber)
                               if waiting_fiber else None))
