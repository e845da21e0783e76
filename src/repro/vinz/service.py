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

The :class:`FiberExecution` object is what the Vinz intrinsics
(:mod:`repro.vinz.distribution`) talk to while a fiber advances on the
GVM.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, List, Optional

from ..bluebox.store import FencedWriteError, StoreError
from ..bluebox.messagequeue import (
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    ReplyTo,
)
from ..bluebox.services import (
    Deferred,
    OperationContext,
    Requeue,
    Service,
    ServiceFault,
)
from ..gvm.conditions import GozerCondition, UnhandledConditionError
from ..gvm.frames import GozerFunction
from ..gvm.futures import enter_fiber_thread
from ..gvm.runtime import Runtime, VirtualClock
from ..gvm.vm import Done, Yielded
from ..history import recorder as hist
from ..lang.errors import GozerRuntimeError
from ..lang.symbols import Symbol, gensym_scope
from ..observe.metrics import exponential_buckets
from ..sched.governor import AUTO_SPAWN_LIMIT
from . import deflink as deflink_module
from . import distribution, handlers
from ..persistsnap.manifest import is_manifest
from .cache import FiberCache
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

#: seconds a task-variable write pays for its lock round trip, on top
#: of the store write
TASKVAR_LOCK_OVERHEAD = 0.002


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
    * ``codec`` — fiber persistence codec (§4.2);
    * ``cache`` — enable/disable the per-node fiber cache (§4.2).
    """

    #: fiber-lifecycle messages (RunFiber/AwakeFiber/ResumeFromCall/
    #: JoinProcess) retry effectively forever: the paper's AwakeFiber
    #: "places itself back on the message queue for later delivery"
    #: without a poison-message cap (Section 5).
    FIBER_MESSAGE_ATTEMPTS = 1_000_000

    def __init__(self, name: str, source: str, vinz_env,
                 main: str = "main",
                 spawn_limit: Any = 4,
                 awake_patience: float = 0.02,
                 instruction_cost: float = 2e-6,
                 codec: str = "custom",
                 cache: bool = True,
                 cache_capacity: int = 256,
                 auto_chunk_target: float = 4.0,
                 snapshots: str = "v1",
                 snapshot_interval: int = 1):
        super().__init__(name, doc=f"Vinz workflow {name}")
        self.source = source
        self.vinz = vinz_env
        self.main_name = main
        self.default_spawn_limit = spawn_limit
        self.awake_patience = awake_patience
        self.instruction_cost = instruction_cost
        self.cache_enabled = cache
        self.cache_capacity = cache_capacity
        #: target per-chunk duration for :chunk-size :auto (seconds)
        self.auto_chunk_target = auto_chunk_target
        self.codec = FiberCodec(codec)
        # blob-size histograms flow into the cluster's metrics registry
        self.codec.metrics = vinz_env.metrics
        if snapshots not in ("v1", "v2"):
            raise ValueError(f"unknown snapshot format {snapshots!r}")
        self.snapshot_format = snapshots
        if int(snapshot_interval) < 1:
            raise ValueError("snapshot_interval must be >= 1")
        #: persist the continuation only every Nth suspension; the
        #: versions in between are rebuilt by history replay (requires
        #: ``history="on"`` on the environment to take effect)
        self.snapshot_interval = int(snapshot_interval)
        #: the incremental-snapshot pipeline (format v2); None in v1
        #: mode, where continuations persist as whole compressed blobs
        self.snapper = None
        if snapshots == "v2":
            from ..persistsnap import SnapshotPipeline

            self.snapper = SnapshotPipeline(
                self.codec, vinz_env.store, metrics=vinz_env.metrics)
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
        from ..gvm.futures import SynchronousFutureExecutor

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

    def _create_task(self, ctx: OperationContext, params: Any,
                     deadline: Optional[float] = None) -> TaskRecord:
        registry = self.vinz.registry
        msg_id = getattr(ctx.message, "id", None)
        if msg_id is not None:
            existing_id = self._task_by_message.get(msg_id)
            existing = registry.tasks.get(existing_id) \
                if existing_id is not None else None
            if existing is not None:
                # duplicate delivery of the same creation message:
                # idempotently return the task it already created
                if ctx.tracing:
                    ctx.trace("task-start-duplicate", task=existing.id,
                              msg=msg_id)
                return existing
        task = registry.new_task(self.name, params, ctx.now)
        task.deadline = deadline
        fiber = registry.new_fiber(task, ctx.now)
        if msg_id is not None:
            self._task_by_message[msg_id] = task.id
        tracer = ctx.cluster.tracer
        if tracer.enabled:
            # the roots of this task's causal tree: the task span hangs
            # off whatever caused the Start (the creating op window),
            # and the initial fiber span hangs off the task span
            task.span_id = tracer.begin(
                f"task:{task.id}", kind="task", start=ctx.now,
                parent_id=getattr(ctx, "span_id", 0) or None,
                task=task.id, workflow=self.name)
            fiber.span_id = tracer.begin(
                f"fiber:{fiber.id}", kind="fiber", start=ctx.now,
                parent_id=task.span_id, task=task.id, fiber=fiber.id)
        # an aborted window (store fault, node death mid-window) must
        # not leak a half-created task: the retried Start makes a fresh
        # one, so discard these records and their monitoring effects
        monitored = [False]

        def undo_create() -> None:
            if msg_id is not None \
                    and self._task_by_message.get(msg_id) == task.id:
                del self._task_by_message[msg_id]
            if registry.discard_task(task.id) is not None:
                # the retried Start makes a *fresh* task id, so this
                # env blob would orphan in the backends while never
                # reaching the journal — take it back out
                self.vinz.store.rollback_value(
                    self._task_env_key(task.id), None)
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
        ctx.charge(self.vinz.store.write(self._task_env_key(task.id), env_blob))
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
        ctx.send(self.name, "RunFiber", {"fiber": fiber.id, "task": task.id},
                 priority=self.vinz.message_priority(task, PRIORITY_NORMAL),
                 max_attempts=self.FIBER_MESSAGE_ATTEMPTS,
                 parent_span=fiber.span_id)
        return task

    def op_start(self, ctx: OperationContext, body: Dict[str, Any]) -> Any:
        task = self._create_task(ctx, body.get("params"),
                                 deadline=body.get("deadline"))
        return {"task": task.id}

    def op_run(self, ctx: OperationContext, body: Dict[str, Any]) -> Any:
        task = self._create_task(ctx, body.get("params"),
                                 deadline=body.get("deadline"))
        if task.finished:  # duplicate delivery after completion
            return {"task": task.id, "status": task.status}
        deferred = ctx.defer()
        task.completion_listeners.append(
            lambda t: deferred.resolve({"task": t.id, "status": t.status}))
        return deferred

    def op_call(self, ctx: OperationContext, body: Dict[str, Any]) -> Any:
        task = self._create_task(ctx, body.get("params"),
                                 deadline=body.get("deadline"))
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
                self._reclaim(ctx, self._state_key(fiber.id),
                              self._thunk_key(fiber.id))
                self.vinz.monitor_fiber_finished(fiber, ctx.now)
                self._notify_fiber_waiters(ctx, fiber)
        waiters, task.join_waiters = task.join_waiters, []
        for waiter in waiters:
            ctx.send(self.name, "JoinProcess",
                     {"fiber": waiter, "process": task.id,
                      "result": task.result},
                     max_attempts=self.FIBER_MESSAGE_ATTEMPTS)

    # -- fiber advancement --------------------------------------------------

    def op_run_fiber(self, ctx: OperationContext, body: Dict[str, Any]) -> Any:
        return self._advance(ctx, body["fiber"], resume=False, value=None,
                             patience=self.awake_patience)

    def op_awake_fiber(self, ctx: OperationContext, body: Dict[str, Any]) -> Any:
        return self._advance(ctx, body["fiber"], resume=True,
                             value={"child": body.get("child"),
                                    "result": body.get("result")},
                             patience=self.awake_patience)

    def op_resume_from_call(self, ctx: OperationContext,
                            body: Dict[str, Any]) -> Any:
        if "soap_action" in body and "sent_at" in body:
            # feed the adaptive-migration learner (Section 5 future
            # work) with the observed round-trip time
            self.vinz.record_service_latency(
                body["soap_action"], ctx.now - body["sent_at"])
        return self._advance(ctx, body["fiber"], resume=True,
                             value=body.get("response"),
                             patience=self.awake_patience)

    def op_join_process(self, ctx: OperationContext,
                        body: Dict[str, Any]) -> Any:
        return self._advance(ctx, body["fiber"], resume=True,
                             value=body.get("result"),
                             patience=self.awake_patience)

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
                                 value=self._MAILBOX,
                                 patience=self.awake_patience)
        return None

    def _advance(self, ctx: OperationContext, fiber_id: str, resume: bool,
                 value: Any, patience: float) -> Any:
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
        owner = f"{ctx.instance.id}#{ctx.message.id}"
        lock_key = f"fiber/{fiber.id}"
        if not locks.try_acquire(lock_key, owner):
            # hold the slot for the patience window, then give up and
            # requeue (the Section 5 burstiness behaviour)
            ctx.charge(patience)
            self.vinz.metrics.incr("awake.lock-wait")
            return Requeue(delay=REQUEUE_DELAY)
        #: the message that advances a fiber is its recovery handle: if
        #: this window's node dies holding the lock, the scanner
        #: re-enqueues exactly this Message (same id), so the
        #: processed_deliveries guard makes the re-awaken idempotent
        fiber.last_message = ctx.message

        def release_or_abandon() -> None:
            if getattr(ctx, "node_failed", False):
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
        injector = getattr(self.vinz, "injector", None)
        if injector is not None:
            # crash-on-lock faults fire here: the node dies the instant
            # it takes the fiber lock, before any state is touched
            injector.on_lock_acquired(ctx, fiber)
            if getattr(ctx, "node_failed", False):
                return None  # died taking the lock; window already aborted
        return self._advance_locked(ctx, task, fiber, resume, value)

    # -- the core: load state, run the GVM, act on the outcome ------------

    def _advance_locked(self, ctx: OperationContext, task: TaskRecord,
                        fiber: FiberRecord, resume: bool, value: Any) -> Any:
        registry = self.vinz.registry
        # Crash atomicity: if the node dies before this operation's
        # simulated window ends, the redelivered message must replay
        # against the *pre-window* fiber state (real Vinz gets this from
        # JMS transactions: state write + sends + ack commit together).
        ctx.on_abort(self._make_abort_undo(ctx, task, fiber))
        fiber.status = RUNNING
        if task.status != RUNNING:
            task.status = RUNNING

        metrics = ctx.cluster.metrics
        if metrics.enabled:
            # enqueue -> actual advancement: the end-to-end resume lag
            # a suspended fiber experiences (queue wait + lock waits)
            metrics.histogram("fiber.resume_latency").observe(
                ctx.now - ctx.message.enqueued_at)

        cache = self._node_cache(ctx)
        self._touch_task_env(ctx, cache, task)

        vm = self.runtime.new_vm(allow_yield=True)
        execution = FiberExecution(self, ctx, task, fiber, vm)
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
            if not fiber.mailbox:
                # a duplicate wake-up raced an earlier consumption:
                # nothing to deliver, leave the fiber suspended
                return None
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
        try:
            if not resume:
                outcome = self._start_fresh(ctx, vm, task, fiber)
            else:
                continuation = self._load_continuation(ctx, cache, fiber)
                outcome = vm.resume(continuation, value)
            if isinstance(outcome, Done):
                self._fiber_completed(ctx, task, fiber, outcome.value)
                return None
            assert isinstance(outcome, Yielded)
            self._fiber_suspended(ctx, cache, task, fiber, outcome)
            return None
        except (distribution.VinzBreak,):
            self._fiber_completed(ctx, task, fiber, None)
            return None
        except distribution.VinzTerminateTask as term:
            self._fiber_failed(ctx, task, fiber, term.reason,
                               terminate_task=True)
            return None
        except UnhandledConditionError as exc:
            # An unhandled error in the *main* fiber fails the task; a
            # child fiber's failure is recorded on the child and
            # surfaces to the parent as a `child-fiber-error` condition
            # when it collects results — giving the parent's handlers a
            # chance (Section 3.7).
            self._fiber_failed(ctx, task, fiber, str(exc.condition),
                               terminate_task=(fiber.parent_id is None))
            return None
        except ServiceFault as fault:
            # a platform-level problem surfaced while advancing the
            # fiber (no main function, bad join target, ...): the task
            # fails rather than hanging its callers
            self._fiber_failed(ctx, task, fiber,
                               f"{fault.qname}: {fault.message}",
                               terminate_task=True)
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

    def _affinity_for(self, fiber: FiberRecord):
        """Placement hint for a message that will run ``fiber`` next.

        Under the "affinity" policy (the paper's Section 5 locality
        future-work item), resumes prefer the node whose fiber cache is
        warm; under "balanced" the queue alone decides, as in the
        paper's production system.
        """
        if self.vinz.placement == "affinity":
            return fiber.last_node
        return None

    def _make_abort_undo(self, ctx: OperationContext, task: TaskRecord,
                         fiber: FiberRecord):
        """Build the state-rollback hook for node death mid-window."""
        store = self.vinz.store
        state_key = self._state_key(fiber.id)
        prev = dict(
            version=fiber.version,
            last_persisted_version=fiber.last_persisted_version,
            fiber_status=fiber.status,
            waiting_on=fiber.waiting_on,
            fiber_finished_at=fiber.finished_at,
            fiber_result=fiber.result,
            fiber_error=fiber.error,
            task_status=task.status,
            task_finished_at=task.finished_at,
            task_result=task.result,
            blob=store.snapshot_value(state_key),
            thunk=store.snapshot_value(self._thunk_key(fiber.id)),
        )

        def undo():
            # versions persisted inside the aborted window may sit in
            # this node's fiber cache; a retry re-reaching the same
            # version number must not resume from the aborted state
            # (the group-commit abort path aborts *after* the handler
            # finished, so the cache insert has already happened)
            cache = self._node_cache(ctx)
            if cache is not None:
                for version in range(prev["version"] + 1,
                                     fiber.version + 1):
                    cache.evict_continuation(fiber.id, version)
            fiber.version = prev["version"]
            fiber.last_persisted_version = prev["last_persisted_version"]
            fiber.status = prev["fiber_status"]
            fiber.waiting_on = prev["waiting_on"]
            fiber.finished_at = prev["fiber_finished_at"]
            fiber.result = prev["fiber_result"]
            fiber.error = prev["fiber_error"]
            task.status = prev["task_status"]
            task.finished_at = prev["task_finished_at"]
            task.result = prev["task_result"]
            # rollback_value (not restore_value): a journaled store
            # also scrubs the key from its uncommitted batch, so the
            # rolled-back write can never be replayed after a crash
            store.rollback_value(state_key, prev["blob"])
            store.rollback_value(self._thunk_key(fiber.id), prev["thunk"])

        return undo

    def _start_fresh(self, ctx: OperationContext, vm, task: TaskRecord,
                     fiber: FiberRecord):
        if fiber.parent_id is None:
            main = self.runtime.global_env.lookup_or(_S(self.main_name))
            if not isinstance(main, GozerFunction):
                raise ServiceFault(
                    self.wsdl.fault_qname("NoMainFunction"),
                    f"workflow {self.name} defines no ({self.main_name} params)")
            return self._run_top_call(vm, main, [task.params])
        # child fiber: load and run its start thunk (the cloned state)
        tracer = ctx.cluster.tracer
        vstart = ctx.now + ctx.charged
        blob = self.vinz.store.read(self._thunk_key(fiber.id))
        ctx.charge(self.vinz.store.cost(len(blob)))
        fn, args = self.codec.loads(blob, fiber_id=fiber.id)
        if tracer.enabled:
            span = tracer.begin(
                "persist.decode", kind="persistence", start=vstart,
                parent_id=ctx.span_id or None, fiber=fiber.id,
                what="thunk", bytes=len(blob))
            tracer.end(span, end=ctx.now + ctx.charged)
        return self._run_top_call(vm, fn, list(args))

    @staticmethod
    def _run_top_call(vm, fn: GozerFunction, args: List[Any]):
        """Run (fn args...) as the fiber's top-level flow of control."""
        frame = vm._frame_for_call(fn, args)
        return vm._run_top(frame=frame)

    # -- outcome handling ------------------------------------------------------

    def _fiber_completed(self, ctx: OperationContext, task: TaskRecord,
                         fiber: FiberRecord, result: Any) -> None:
        registry = self.vinz.registry
        recorder = self.vinz.history
        if recorder is not None:
            recorder.record(ctx, task.id, hist.FIBER_COMPLETED,
                            fiber=fiber.id, result=result)
        registry.finish_fiber(fiber, COMPLETED, ctx.now, result=result)
        self._reclaim(ctx, self._state_key(fiber.id),
                      self._thunk_key(fiber.id))
        if ctx.tracing:
            ctx.trace("fiber-complete", task=task.id, fiber=fiber.id)
        self.vinz.monitor_fiber_finished(fiber, ctx.now)
        self._notify_fiber_waiters(ctx, fiber)
        if fiber.chain_group is not None:
            self._advance_chain(ctx, task, fiber)
        elif fiber.notify_parent and fiber.parent_id is not None:
            # "the fibers created by these macros do [notify their
            # parent]" — as a low-priority AwakeFiber (Section 5)
            parent = self.vinz.registry.fibers.get(fiber.parent_id)
            ctx.send(self.name, "AwakeFiber",
                     {"fiber": fiber.parent_id, "child": fiber.id},
                     priority=self.vinz.message_priority(task, PRIORITY_LOW),
                     max_attempts=self.FIBER_MESSAGE_ATTEMPTS,
                     affinity=self._affinity_for(parent) if parent else None)
        if fiber.parent_id is None and not task.finished:
            self._finish_task(ctx, task, COMPLETED, result=result)
            if ctx.tracing:
                ctx.trace("task-complete", task=task.id)

    def _advance_chain(self, ctx: OperationContext, task: TaskRecord,
                       fiber: FiberRecord) -> None:
        """Sibling chaining (Section 5 future work): a finished chain
        child launches the next pending sibling itself; only the last
        one awakens the parent."""
        group = task.chain_groups.get(fiber.chain_group)
        if group is None:  # pragma: no cover - group swept with task
            return
        if group["pending"]:
            next_child = group["pending"].pop(0)
            next_record = self.vinz.registry.fibers.get(next_child)
            ctx.send(self.name, "RunFiber",
                     {"fiber": next_child, "task": task.id},
                     priority=self.vinz.message_priority(task, PRIORITY_NORMAL),
                     max_attempts=self.FIBER_MESSAGE_ATTEMPTS,
                     parent_span=(next_record.span_id if next_record
                                  else None))
            if ctx.tracing:
                ctx.trace("chain-next", task=task.id, fiber=fiber.id,
                          child=next_child)
        group["remaining"] -= 1
        if group["remaining"] <= 0:
            parent = self.vinz.registry.fibers.get(group["parent"])
            ctx.send(self.name, "AwakeFiber",
                     {"fiber": group["parent"], "child": fiber.id},
                     priority=self.vinz.message_priority(task, PRIORITY_LOW),
                     max_attempts=self.FIBER_MESSAGE_ATTEMPTS,
                     affinity=self._affinity_for(parent) if parent else None)

    def _fiber_failed(self, ctx: OperationContext, task: TaskRecord,
                      fiber: FiberRecord, error: str,
                      terminate_task: bool) -> None:
        registry = self.vinz.registry
        recorder = self.vinz.history
        if recorder is not None:
            # dead-letter handling arrives on an out-of-band context:
            # the recorder commits those immediately (no window)
            recorder.record(ctx, task.id, hist.FIBER_FAILED,
                            fiber=fiber.id, error=error)
        registry.finish_fiber(fiber, ERROR, ctx.now, error=error)
        self._reclaim(ctx, self._state_key(fiber.id))
        if ctx.tracing:
            ctx.trace("fiber-error", task=task.id, fiber=fiber.id, error=error)
        self.vinz.monitor_fiber_finished(fiber, ctx.now)
        self._notify_fiber_waiters(ctx, fiber)
        if fiber.chain_group is not None:
            self._advance_chain(ctx, task, fiber)
        elif fiber.notify_parent and fiber.parent_id is not None:
            parent = self.vinz.registry.fibers.get(fiber.parent_id)
            ctx.send(self.name, "AwakeFiber",
                     {"fiber": fiber.parent_id, "child": fiber.id},
                     priority=PRIORITY_LOW,
                     max_attempts=self.FIBER_MESSAGE_ATTEMPTS,
                     affinity=self._affinity_for(parent) if parent else None)
        if terminate_task and not task.finished:
            self._finish_task(ctx, task, ERROR, error=error)
            if ctx.tracing:
                ctx.trace("task-error", task=task.id, error=error)

    def _fiber_suspended(self, ctx: OperationContext, cache, task: TaskRecord,
                         fiber: FiberRecord, outcome: Yielded) -> None:
        descriptor = outcome.value if isinstance(outcome.value, dict) else \
            {"kind": "await"}
        kind = descriptor.get("kind", "await")
        fiber.waiting_on = kind
        self._persist_continuation(ctx, cache, fiber, outcome.continuation)
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
        if target in registry.fibers:
            target_fiber = registry.fibers[target]
            if target_fiber.finished:
                ctx.send(self.name, "JoinProcess",
                         {"fiber": fiber.id, "process": target,
                          "result": target_fiber.result},
                         max_attempts=self.FIBER_MESSAGE_ATTEMPTS)
            elif fiber.id not in target_fiber.join_waiters:
                # idempotent: an aborted-window replay must not register
                # the waiter twice
                target_fiber.join_waiters.append(fiber.id)
        elif target in registry.tasks:
            target_task = registry.tasks[target]
            if target_task.finished:
                ctx.send(self.name, "JoinProcess",
                         {"fiber": fiber.id, "process": target,
                          "result": target_task.result},
                         max_attempts=self.FIBER_MESSAGE_ATTEMPTS)
            elif fiber.id not in target_task.join_waiters:
                target_task.join_waiters.append(fiber.id)
        else:
            raise ServiceFault(self.wsdl.fault_qname("NoSuchProcess"), target)

    def _notify_fiber_waiters(self, ctx: OperationContext,
                              fiber: FiberRecord) -> None:
        waiters, fiber.join_waiters = fiber.join_waiters, []
        for waiter in waiters:
            waiting_fiber = self.vinz.registry.fibers.get(waiter)
            ctx.send(self.name, "JoinProcess",
                     {"fiber": waiter, "process": fiber.id,
                      "result": fiber.result},
                     max_attempts=self.FIBER_MESSAGE_ATTEMPTS,
                     affinity=(self._affinity_for(waiting_fiber)
                               if waiting_fiber else None))

    # -- persistence and the fiber cache -----------------------------------

    def _node_cache(self, ctx: OperationContext) -> Optional[FiberCache]:
        if not self.cache_enabled:
            return None
        return FiberCache.for_node(ctx.node,
                                   mutable_capacity=self.cache_capacity,
                                   immutable_capacity=4 * self.cache_capacity)

    def _touch_task_env(self, ctx: OperationContext,
                        cache: Optional[FiberCache],
                        task: TaskRecord) -> None:
        """Load the task's immutable environment (cached per node)."""
        if cache is not None:
            # MISS sentinel: a legitimately-None environment must count
            # as a hit, not force a store re-read on every delivery
            env = cache.get_task_env(task.id, FiberCache.MISS)
            if env is not FiberCache.MISS:
                self.vinz.metrics.incr("cache.immutable.hit")
                return
            self.vinz.metrics.incr("cache.immutable.miss")
        key = self._task_env_key(task.id)
        if self.vinz.store.exists(key):
            tracer = ctx.cluster.tracer
            vstart = ctx.now + ctx.charged
            blob = self.vinz.store.read(key)
            ctx.charge(self.vinz.store.cost(len(blob)))
            env = self.codec.loads(blob)
            if tracer.enabled:
                span = tracer.begin(
                    "persist.decode", kind="persistence", start=vstart,
                    parent_id=ctx.span_id or None, task=task.id,
                    what="task-env", bytes=len(blob))
                tracer.end(span, end=ctx.now + ctx.charged)
        else:  # pragma: no cover - Start always writes it
            env = {"workflow": self.name, "params": task.params}
        if cache is not None:
            cache.put_task_env(task.id, env)

    def _check_fence(self, ctx: OperationContext) -> None:
        """Fencing check guarding every fiber-state write: if this
        window's lock lease was expired or stolen, a newer owner may
        already be running — the write must not land.  Raising tunnels
        through the GVM, aborts the window (rolling back everything it
        already wrote) and lets the message retry."""
        fence = getattr(ctx, "fence", None)
        if fence is None:
            return
        if not self.vinz.locks.fence_valid(*fence):
            self.vinz.locks.fence_rejections += 1
            self.vinz.metrics.incr("persist.fence-rejected")
            key, owner, token = fence
            raise FencedWriteError(
                f"stale fencing token {token} for {key} (owner {owner})")

    def _skip_persist(self, ctx: OperationContext,
                      cache: Optional[FiberCache],
                      fiber: FiberRecord, continuation) -> bool:
        """Snapshot-interval elision: with history on, only every Nth
        suspension persists its continuation — the versions between
        snapshots live in the node cache and are rebuilt by replay
        after a crash or cache miss.  Fencing still applies: a zombie
        must not even bump the version."""
        recorder = self.vinz.history
        interval = self.snapshot_interval
        if recorder is None or interval <= 1:
            return False
        if (fiber.version + 1) % interval == 0:
            return False
        self._check_fence(ctx)
        fiber.version += 1
        self.vinz.metrics.incr("persist.skipped")
        if cache is not None:
            cache.put_continuation(fiber.id, fiber.version, continuation)
        return True

    def _record_snapshot(self, ctx: OperationContext,
                         fiber: FiberRecord) -> None:
        fiber.last_persisted_version = fiber.version
        recorder = self.vinz.history
        if recorder is not None:
            recorder.record(ctx, fiber.task_id, hist.SNAPSHOT_TAKEN,
                            fiber=fiber.id, version=fiber.version)

    def _persist_continuation(self, ctx: OperationContext,
                              cache: Optional[FiberCache],
                              fiber: FiberRecord, continuation) -> None:
        if self.snapper is not None:
            return self._persist_continuation_v2(ctx, cache, fiber,
                                                 continuation)
        if self._skip_persist(ctx, cache, fiber, continuation):
            return
        self._check_fence(ctx)
        fiber.version += 1
        tracer = ctx.cluster.tracer
        vstart = ctx.now + ctx.charged
        blob = self.codec.dumps(continuation)
        cost = self.vinz.store.write(self._state_key(fiber.id), blob)
        ctx.charge(cost)
        if tracer.enabled:
            span = tracer.begin(
                "persist.encode", kind="persistence", start=vstart,
                parent_id=ctx.span_id or None, fiber=fiber.id,
                version=fiber.version, bytes=len(blob))
            tracer.end(span, end=ctx.now + ctx.charged)
        self.vinz.metrics.incr("persist.writes")
        self.vinz.metrics.add("persist.bytes", len(blob))
        self._record_snapshot(ctx, fiber)
        if cache is not None:
            cache.put_continuation(fiber.id, fiber.version, continuation)
        injector = getattr(self.vinz, "injector", None)
        if injector is not None:
            # crash-during-persistence faults fire here: the node dies
            # with the window open, the abort hooks roll the fiber (and
            # the just-written blob) back, and the message is requeued
            injector.on_persist(ctx, fiber)

    def _persist_continuation_v2(self, ctx: OperationContext,
                                 cache: Optional[FiberCache],
                                 fiber: FiberRecord, continuation) -> None:
        """Incremental persist: chunk-dedup against the fiber's prior
        manifest, write only new chunks plus a small manifest."""
        if self._skip_persist(ctx, cache, fiber, continuation):
            return
        self._check_fence(ctx)
        fiber.version += 1
        tracer = ctx.cluster.tracer
        vstart = ctx.now + ctx.charged
        injector = getattr(self.vinz, "injector", None)
        self.snapper.injector = injector
        key = self._state_key(fiber.id)
        result = self.snapper.encode(key, continuation, fiber_id=fiber.id)
        # hooks go in *before* the manifest write: if that write faults,
        # the window abort must already know how to roll the chunk and
        # refcount writes back
        self._register_snapshot_hooks(ctx, result)
        blob = result.blob
        if injector is not None:
            # a torn-manifest fault truncates the blob we are about to
            # write — the tear is silent here and detected on restore
            blob = injector.on_manifest_write(key, blob)
        cost = result.cost + self.vinz.store.write(key, blob)
        ctx.charge(cost)
        physical = result.chunk_bytes_written + len(blob)
        if tracer.enabled:
            span = tracer.begin(
                "snap.encode", kind="persistence", start=vstart,
                parent_id=ctx.span_id or None, fiber=fiber.id,
                version=fiber.version, raw=result.raw_len, bytes=physical,
                new_chunks=result.chunks_new, reused=result.chunks_reused)
            tracer.end(span, end=ctx.now + ctx.charged)
        self.vinz.metrics.incr("persist.writes")
        self.vinz.metrics.add("persist.bytes", physical)
        self._record_snapshot(ctx, fiber)
        if cache is not None:
            cache.put_continuation(fiber.id, fiber.version, continuation)
            cache.put_digest(result.manifest.hex_digest, continuation)
        if injector is not None:
            injector.on_persist(ctx, fiber)

    def _register_snapshot_hooks(self, ctx: OperationContext,
                                 result) -> None:
        """Tie one incremental persist to its window's lifecycle: chunk
        and refcount writes roll back on abort; the *prior* manifest's
        stale references are dropped only after the window commits (a
        retry replaying against the rolled-back manifest must still
        find every chunk it names).  Undos run newest-first so repeated
        persists in one window unwind exactly."""
        undos = getattr(ctx, "_snap_undos", None)
        if undos is None:
            undos = []
            ctx._snap_undos = undos

            def run_undos():
                for fn in reversed(undos):
                    fn()

            ctx.on_abort(run_undos)
        undos.append(result.undo)
        ctx.on_complete(result.release)

    def _load_continuation(self, ctx: OperationContext,
                           cache: Optional[FiberCache], fiber: FiberRecord):
        if cache is not None:
            cached = cache.get_continuation(fiber.id, fiber.version,
                                            FiberCache.MISS)
            if cached is not FiberCache.MISS:
                self.vinz.metrics.incr("cache.mutable.hit")
                return cached
            self.vinz.metrics.incr("cache.mutable.miss")
        recorder = self.vinz.history
        if recorder is not None and (
                self.vinz.recovery_mode == "replay"
                or fiber.last_persisted_version != fiber.version):
            # either the platform recovers by replay (never reads
            # continuation snapshots), or the wanted version was never
            # persisted (snapshot-interval elision) — rebuild it by
            # re-executing the fiber against its recorded history
            return self._rebuild_from_history(ctx, cache, fiber)
        continuation = self._read_persisted(ctx, cache, fiber)
        if cache is not None:
            cache.put_continuation(fiber.id, fiber.version, continuation)
        return continuation

    def _read_persisted(self, ctx: OperationContext,
                        cache: Optional[FiberCache], fiber: FiberRecord):
        """Read + decode the fiber's persisted continuation snapshot."""
        tracer = ctx.cluster.tracer
        vstart = ctx.now + ctx.charged
        blob = self.vinz.store.read(self._state_key(fiber.id))
        ctx.charge(self.vinz.store.cost(len(blob)))
        if self.snapper is not None and is_manifest(blob):
            continuation = self._restore_v2(ctx, cache, fiber, blob)
        else:
            # v1 blob — written by this service in v1 mode, or by a
            # pre-upgrade deployment (a v2 service still reads them).
            # A *manifest* reaching a v1 service trips the downgrade
            # guard inside loads.
            continuation = self.codec.loads(blob, fiber_id=fiber.id)
        if tracer.enabled:
            span = tracer.begin(
                "persist.decode", kind="persistence", start=vstart,
                parent_id=ctx.span_id or None, fiber=fiber.id,
                version=fiber.version, bytes=len(blob))
            tracer.end(span, end=ctx.now + ctx.charged)
        return continuation

    def _rebuild_from_history(self, ctx: OperationContext,
                              cache: Optional[FiberCache],
                              fiber: FiberRecord):
        """Reconstruct the continuation at ``fiber.version`` by replay.

        Under ``recovery="replay"`` the rebuild starts from the task's
        beginning (zero continuation-snapshot reads); otherwise it
        fast-forwards from the latest persisted snapshot and replays
        only the suspensions elided since.  The re-executed
        instructions are charged at the service's instruction cost —
        replay is compute traded for persistence IO.
        """
        base = None
        if self.vinz.recovery_mode != "replay" \
                and fiber.last_persisted_version > 0:
            base = (self._read_persisted(ctx, cache, fiber),
                    fiber.last_persisted_version)
        continuation, instructions = self.vinz.replayer.rebuild(
            self, fiber, fiber.version, base=base)
        ctx.charge(instructions * self.instruction_cost)
        if ctx.tracing:
            ctx.trace("fiber-rebuild", task=fiber.task_id, fiber=fiber.id,
                      version=fiber.version,
                      base=(base[1] if base is not None else None))
        if cache is not None:
            cache.put_continuation(fiber.id, fiber.version, continuation)
        return continuation

    def _restore_v2(self, ctx: OperationContext,
                    cache: Optional[FiberCache], fiber: FiberRecord,
                    blob: bytes):
        """Restore from a v2 manifest: digest-cache hit first (an
        unchanged state skips chunk fetch *and* deserialization), else
        fetch + verify every chunk.  Any corruption surfaces as a typed
        :class:`~repro.persistsnap.SnapshotError` that aborts the window
        for a policy-driven retry — never a wrong-value restore."""
        injector = getattr(self.vinz, "injector", None)
        self.snapper.injector = injector
        manifest = self.snapper.read_manifest(blob, fiber_id=fiber.id)
        if cache is not None:
            hit = cache.get_digest(manifest.hex_digest, FiberCache.MISS)
            if hit is not FiberCache.MISS:
                self.vinz.metrics.incr("cache.digest.hit")
                return hit
            self.vinz.metrics.incr("cache.digest.miss")
        raw, fetch_cost = self.snapper.fetch_state(manifest,
                                                   fiber_id=fiber.id)
        ctx.charge(fetch_cost)
        continuation = self.codec.deserialize_state(raw, fiber_id=fiber.id,
                                                    fmt="v2")
        if cache is not None:
            cache.put_digest(manifest.hex_digest, continuation)
        return continuation

    # -- dead-letter handling -----------------------------------------------

    def on_message_dead_lettered(self, message) -> None:
        """A fiber-lifecycle message exhausted its retry policy.

        The fiber it addressed can never advance again, so fail it
        through the normal error path: the parent sees a
        ``child-fiber-error`` condition when collecting (its handlers
        get their say, Section 3.7), a main fiber fails the whole task
        (waking synchronous callers with a fault) — nothing hangs.
        """
        fiber_id = (message.body or {}).get("fiber")
        if fiber_id is None:
            return  # Start/management traffic: the reply fault suffices
        registry = self.vinz.registry
        fiber = registry.fibers.get(fiber_id)
        if fiber is None or fiber.finished:
            return
        task = registry.tasks.get(fiber.task_id)
        if task is None or task.finished:
            return
        ctx = _OutOfBandContext(self.vinz.cluster)
        error = (f"{message.operation} message #{message.id} dead-lettered "
                 f"after {message.attempts} attempts")
        self._fiber_failed(ctx, task, fiber, error,
                           terminate_task=(fiber.parent_id is None))

    # -- store keys ---------------------------------------------------------

    def _reclaim(self, ctx, *keys: str) -> None:
        """Best-effort reclamation of persisted fiber state.

        Deletes are real store IO: charged to the window, counted, and
        subject to fault injection.  But a vetoed delete must not take
        down the platform path that happens to be sweeping (finishing a
        task, dead-letter handling) — the blob is merely orphaned, for
        a later sweep to reclaim, so a write-storm campaign degrades
        cleanup without costing liveness.
        """
        store = self.vinz.store
        for key in keys:
            if self.snapper is not None:
                # a v2 state key holds a manifest: drop its chunk
                # references (GC rides the window's journal batch via
                # the commit hook; out-of-band contexts release now)
                blob = store.snapshot_value(key)
                if blob is not None and is_manifest(blob):
                    release = (lambda b=blob:
                               self.snapper.release_blob(b))
                    on_complete = getattr(ctx, "on_complete", None)
                    if on_complete is not None:
                        on_complete(release)
                    else:
                        release()
            try:
                ctx.charge(store.delete(key))
            except StoreError:
                if ctx.tracing:
                    ctx.trace("reclaim-skipped", key=key)
                self.vinz.metrics.incr("store.reclaim-skipped")

    @staticmethod
    def _state_key(fiber_id: str) -> str:
        return f"fiber-state/{fiber_id}"

    @staticmethod
    def _thunk_key(fiber_id: str) -> str:
        return f"fiber-thunk/{fiber_id}"

    @staticmethod
    def _task_env_key(task_id: str) -> str:
        return f"task-env/{task_id}"

    @staticmethod
    def _task_var_key(task_id: str, name: str) -> str:
        return f"taskvar/{task_id}/{name}"


class _OutOfBandContext:
    """A minimal OperationContext stand-in for platform-initiated work
    that happens outside any message window (dead-letter handling).
    Sends are immediate — there is no operation window to make them
    transactional with."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.tracing = cluster.tracer.enabled

    @property
    def now(self) -> float:
        return self.cluster.kernel.now

    def send(self, service, operation, body, **kwargs) -> None:
        self.cluster.send(service, operation, body, **kwargs)

    def charge(self, seconds: float) -> None:
        """Out-of-band IO has no window to bill — the cost is absorbed
        (the store's own io_seconds still count it)."""

    def trace(self, kind: str, **detail) -> None:
        self.cluster.tracer.event(self.now, kind, **detail)


def deliver_collected(vm, child_ids: List[str], triples) -> List[Any]:
    """Turn recorded ``(status, result, error)`` triples into the
    collect-child-results value, signalling on failed children.

    Shared by the live path and history replay so both produce the
    same control flow from the same observations."""
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

    def __init__(self, service: WorkflowService, ctx: OperationContext,
                 task: TaskRecord, fiber: FiberRecord, vm):
        self.service = service
        self.ctx = ctx
        self.task = task
        self.fiber = fiber
        self.vm = vm

    # -- nondeterminism capture ----------------------------------------------

    def nondet(self, op: str, thunk):
        """Evaluate ``thunk`` and record its value as a nondeterminism
        event.  Replay feeds the recorded value back instead of
        re-evaluating, which is what makes fiber re-execution
        deterministic (Durable-Functions-style event sourcing)."""
        value = thunk()
        recorder = self.service.vinz.history
        if recorder is not None:
            recorder.record(self.ctx, self.task.id, hist.NONDET_RECORDED,
                            fiber=self.fiber.id, op=op, value=value)
        return value

    def _mark(self, op: str) -> None:
        """Record a value-less nondet marker for an effectful intrinsic
        (send/awake/taskvar-write) so the replay cursor stays aligned
        without re-performing the side effect."""
        recorder = self.service.vinz.history
        if recorder is not None:
            recorder.record(self.ctx, self.task.id, hist.NONDET_RECORDED,
                            fiber=self.fiber.id, op=op, value=None)

    def clock_now(self) -> float:
        """Virtual wall clock as seen by this operation window."""
        return self.ctx.now + self.ctx.charged

    def random_draw(self, n):
        """Draw from the cluster's seeded RNG (recorded via nondet)."""
        rng = self.ctx.cluster.rng
        if isinstance(n, int) and not isinstance(n, bool):
            return rng.randrange(n) if n > 0 else 0
        return rng.uniform(0.0, float(n))

    # -- fiber management -----------------------------------------------------

    def fork(self, fn: GozerFunction, args: List[Any],
             notify_parent: bool) -> str:
        """fork-and-exec: clone state into a child fiber (Section 3.4).

        The clone is effected by serializing the closure: the child gets
        an independent copy of everything ``fn`` captures, so "changes
        either fiber makes will not be visible to its clone".
        """
        vinz = self.service.vinz
        child = vinz.registry.new_fiber(self.task, self.ctx.now,
                                        parent_id=self.fiber.id,
                                        notify_parent=notify_parent)
        tracer = self.ctx.cluster.tracer
        if tracer.enabled:
            child.span_id = tracer.begin(
                f"fiber:{child.id}", kind="fiber", start=self.ctx.now,
                parent_id=self.task.span_id or None, task=self.task.id,
                fiber=child.id, parent_fiber=self.fiber.id)
        # aborted window (store fault / node death): the replayed parent
        # re-forks, so this child record must not leak
        monitored = [False]

        def undo_fork() -> None:
            if vinz.registry.discard_fiber(child.id) is not None:
                # the child's thunk blob was written by the aborted
                # window: take it back out so backend state stays equal
                # to committed journal state (crash-recovery contract)
                vinz.store.rollback_value(
                    self.service._thunk_key(child.id), None)
                if monitored[0]:
                    vinz.monitor_fiber_discarded(child, self.ctx.now)
                if child.span_id:
                    tracer.end(child.span_id, end=self.ctx.now,
                               status="discarded")

        self.ctx.on_abort(undo_fork)
        blob = self.service.codec.dumps((fn, list(args)))
        self.ctx.charge(vinz.store.write(
            self.service._thunk_key(child.id), blob))
        if self.ctx.tracing:
            self.ctx.trace("fiber-fork", task=self.task.id,
                           fiber=self.fiber.id, child=child.id)
        vinz.monitor_fiber_started(child, self.ctx.now)
        monitored[0] = True
        self.ctx.send(self.service.name, "RunFiber",
                      {"fiber": child.id, "task": self.task.id},
                      priority=self.service.vinz.message_priority(
                          self.task, PRIORITY_NORMAL),
                      max_attempts=self.service.FIBER_MESSAGE_ATTEMPTS,
                      parent_span=child.span_id)
        recorder = vinz.history
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
        vinz = self.service.vinz
        tracer = self.ctx.cluster.tracer
        children: List[str] = []
        created: List[FiberRecord] = []
        undo_state = {"monitored": False, "group": None}

        def undo_fork_chain() -> None:
            for record in created:
                if vinz.registry.discard_fiber(record.id) is not None:
                    vinz.store.rollback_value(
                        self.service._thunk_key(record.id), None)
                    if undo_state["monitored"]:
                        vinz.monitor_fiber_discarded(record, self.ctx.now)
                    if record.span_id:
                        tracer.end(record.span_id, end=self.ctx.now,
                                   status="discarded")
            if undo_state["group"] is not None:
                self.task.chain_groups.pop(undo_state["group"], None)

        self.ctx.on_abort(undo_fork_chain)
        for item in items:
            child = vinz.registry.new_fiber(self.task, self.ctx.now,
                                            parent_id=self.fiber.id,
                                            notify_parent=False)
            if tracer.enabled:
                child.span_id = tracer.begin(
                    f"fiber:{child.id}", kind="fiber", start=self.ctx.now,
                    parent_id=self.task.span_id or None, task=self.task.id,
                    fiber=child.id, parent_fiber=self.fiber.id)
            created.append(child)
            blob = self.service.codec.dumps((fn, [item]))
            self.ctx.charge(vinz.store.write(
                self.service._thunk_key(child.id), blob))
            children.append(child.id)
        for record in created:
            vinz.monitor_fiber_started(record, self.ctx.now)
        undo_state["monitored"] = True
        group_id = f"chain:{self.fiber.id}:{len(self.task.chain_groups)}"
        undo_state["group"] = group_id
        limit = max(1, self._spawn_limit_value())
        pending = children[limit:]
        self.task.chain_groups[group_id] = {
            "parent": self.fiber.id,
            "children": children,
            "pending": pending,
            "remaining": len(children),
        }
        for child_id in children:
            vinz.registry.fibers[child_id].chain_group = group_id
        for child_id in children[:limit]:
            self.ctx.send(self.service.name, "RunFiber",
                          {"fiber": child_id, "task": self.task.id},
                          priority=self.service.vinz.message_priority(
                              self.task, PRIORITY_NORMAL),
                          max_attempts=self.service.FIBER_MESSAGE_ATTEMPTS,
                          parent_span=vinz.registry.fibers[child_id].span_id)
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
        recorder = vinz.history
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

        triples = self.nondet("collect", gather)
        return deliver_collected(vm, child_ids, triples)

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
        self.ctx.send(self.service.name, "AwakeFiber",
                      {"fiber": pid, "result": payload},
                      priority=PRIORITY_LOW,
                      max_attempts=self.service.FIBER_MESSAGE_ATTEMPTS)
        self._mark("awake")

    def send_fiber_message(self, pid: str, value: Any) -> None:
        """Lightweight cross-process communication (the Section 5
        wish: cheaper than task variables for point-to-point data)."""
        self.ctx.send(self.service.name, "DeliverMessage",
                      {"fiber": pid, "value": value},
                      max_attempts=self.service.FIBER_MESSAGE_ATTEMPTS)
        self.service.vinz.metrics.incr("mailbox.sent")
        self._mark("send-message")

    def auto_chunk_size(self) -> int:
        """Pick a chunk size from measured child durations (Section 5:
        "dynamically optimize chunk sizes based on the processing time
        of the body").

        Uses this fiber's most recent completed children (the probe
        phase) as the per-item cost sample; sizes chunks so each takes
        roughly ``auto_chunk_target`` simulated seconds.
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
            size = int(self.service.auto_chunk_target / avg)
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
        from ..lang.symbols import Keyword

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
            key = self.service._task_var_key(self.task.id, name)
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
        vinz = self.service.vinz
        if name not in self.service.task_var_defaults:
            raise GozerRuntimeError(f"undeclared task variable ^{name}^")
        self._mark(f"taskvar-set/{name}")
        key = self.service._task_var_key(self.task.id, name)
        owner = f"{self.ctx.instance.id}#{self.ctx.message.id}"
        lock_key = f"taskvar/{self.task.id}/{name}"
        spins = 0
        while not vinz.locks.try_acquire(lock_key, owner):
            # with NFS-style file locks, a just-released lock may still
            # look held (attribute caching): model a blocking wait for
            # the visibility window instead of spinning the host CPU
            remaining = getattr(vinz.locks, "stale_visibility_remaining",
                                lambda _k: 0.0)(lock_key)
            if remaining > 0:
                self.ctx.charge(remaining)
                vinz.locks.expire_visibility(lock_key)
                continue
            spins += 1
            self.ctx.charge(0.001)
            if spins > 1000:  # pragma: no cover - defensive
                raise GozerRuntimeError(
                    f"task variable lock {lock_key} appears stuck "
                    f"(held by {vinz.locks.holder(lock_key)})")
        try:
            blob = pickle.dumps(value)
            self.ctx.charge(vinz.store.write(key, blob)
                            + TASKVAR_LOCK_OVERHEAD)
            vinz.metrics.incr("taskvar.writes")
        finally:
            vinz.locks.release(lock_key, owner)
        return value

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

    # -- misc ----------------------------------------------------------------

    def charge(self, seconds: float) -> None:
        self.ctx.charge(seconds)
