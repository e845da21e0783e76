"""The simulated BlueBox cluster.

Nodes host service instances; the message queue load-balances operation
requests across them.  The cluster is driven by the discrete-event
kernel (:mod:`repro.bluebox.clock`), so every run is deterministic given
a seed, and simulated days finish in real milliseconds.

Failure semantics follow the paper (Section 3.2): when an instance dies
mid-request, the message queue re-delivers the message to another
instance, so "the failure of any instance will result in only minimal
delays as other instances automatically compensate".

A node's request slots are shared by every service deployed on it —
the cluster-operations reality behind the paper's Section 5 remark that
"because instances are often shared across services, even unrelated
service operations may be blocked".
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Callable, Dict, List, Optional

from ..observe import MetricsRegistry, Tracer
from ..observe.tracer import (
    DEADLETTER_ENQUEUED,
    OPERATION_FAULT,
    RETRY_SCHEDULED,
)
from ..sched.fair import make_policy
from .clock import SimKernel
from .messagequeue import (
    Affinity,
    Message,
    MessageQueue,
    PRIORITY_NORMAL,
    ReplyTo,
    _trace_ids,
)
from .retry import RetryPolicy
from .store import SharedStore, StoreError
from .services import (
    Deferred,
    OperationContext,
    Requeue,
    ResponseEnvelope,
    Service,
    ServiceFault,
)
from .wsdl import WsdlDocument

#: virtual seconds one queue hop (send -> dispatch, reply -> caller) takes
DELIVERY_LATENCY = 0.002
#: constant re-delivery delay of the platform retry policy
REDELIVERY_DELAY = 0.05


class Node:
    """One machine in the cluster."""

    def __init__(self, node_id: str, slots: int = 1):
        self.id = node_id
        self.slots = slots
        self.busy = 0
        self.alive = True
        self.services: Dict[str, "ServiceInstance"] = {}
        #: arbitrary per-node memory — Vinz hangs the fiber cache here
        self.memory: Dict[str, Any] = {}
        # statistics
        self.processed = 0
        self.busy_time = 0.0

    @property
    def free_slots(self) -> int:
        return self.slots - self.busy if self.alive else 0

    def __repr__(self) -> str:
        state = "up" if self.alive else "DOWN"
        return f"<Node {self.id} {state} {self.busy}/{self.slots} busy>"


class ServiceInstance:
    """One service deployed on one node."""

    _ids = itertools.count(1)

    def __init__(self, node: Node, service: Service):
        self.id = f"{service.name}@{node.id}"
        self.node = node
        self.service = service
        self.processed = 0

    def __repr__(self) -> str:
        return f"<Instance {self.id}>"


class Cluster:
    """The simulated BlueBox environment.

    Typical setup::

        cluster = Cluster(seed=1)
        cluster.add_nodes(4, slots=2)
        cluster.deploy(my_service)
        envelope = cluster.call("MyService", "DoThing", {"x": 1})
    """

    #: :data:`DELIVERY_LATENCY`, for callers that budget queue hops
    delivery_latency = DELIVERY_LATENCY

    def __init__(self, seed: int = 0, trace: bool = True,
                 retry_policy: Optional[RetryPolicy] = None,
                 spans: Optional[bool] = None,
                 scheduler: Any = None):
        self.kernel = SimKernel()
        #: message ordering is the scheduling policy's job
        #: (repro.sched.fair): None/"strict" reproduces the paper's
        #: strict priority heap; "fair" is deficit round-robin across
        #: workflows with priority aging
        self.queue = MessageQueue(policy=make_policy(scheduler))
        #: the one observability path (repro.observe).  ``trace``
        #: switches the flat Figure-1 event stream; the span tree (and
        #: with it the registry's histograms and gauges) follows
        #: ``trace`` unless ``spans`` is set.  Call sites guard on the
        #: tracer's single ``enabled`` flag, so a disabled run builds
        #: nothing; the registry's counters always count.
        self.tracer = Tracer(events=trace, spans=spans)
        self.metrics = MetricsRegistry(enabled=self.tracer.record_spans)
        self.queue.tracer = self.tracer
        self.queue.metrics = self.metrics
        self.queue.now_fn = lambda: self.kernel.now
        self.rng = random.Random(seed)
        #: governs fault retries (drops, store faults): backoff delays,
        #: attempt caps, timeouts.  The platform default reproduces the
        #: legacy constant-delay, per-message-cap behaviour; campaigns
        #: pass RetryPolicy.default() for bounded exponential backoff
        #: and dead-lettering.
        self.retry_policy = retry_policy or \
            RetryPolicy.platform(REDELIVERY_DELAY)
        #: optional FaultInjector (repro.faults), wired by install()
        self.injector = None
        #: the distributed lock manager (repro.bluebox.locks), wired by
        #: VinzEnvironment.  Every operation window registers its lease
        #: heartbeats with it, and the cluster — as the lock manager's
        #: ``lease_breaker`` — aborts a zombie holder's window before an
        #: expiry/steal hands the lock to a new owner
        self.lock_manager = None
        #: the shared store (VinzEnvironment points this at its own):
        #: every operation window is bracketed on it, and a journaled
        #: one (repro.durastore) commits the window as one batch
        self.store = SharedStore()
        #: called with each dead-lettered Message (Vinz fails the
        #: owning task/fiber so nothing hangs silently)
        self.dead_letter_listeners: List[Callable[[Message], None]] = []
        self.nodes: Dict[str, Node] = {}
        self.services: Dict[str, Service] = {}
        #: the windows between handler start and commit/abort
        self._in_flight: List[OperationContext] = []
        self._node_seq = itertools.count(1)

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------

    def add_node(self, node_id: Optional[str] = None, slots: int = 1) -> Node:
        node = Node(node_id or f"node-{next(self._node_seq)}", slots=slots)
        self.nodes[node.id] = node
        # a new node hosts every already-deployed service
        for service in self.services.values():
            node.services[service.name] = ServiceInstance(node, service)
        self._kick_all()
        return node

    def add_nodes(self, count: int, slots: int = 1) -> List[Node]:
        return [self.add_node(slots=slots) for _ in range(count)]

    def deploy(self, service: Service,
               node_ids: Optional[List[str]] = None) -> Service:
        """Deploy ``service`` on the given nodes (default: all nodes)."""
        self.services[service.name] = service
        targets = ([self.nodes[nid] for nid in node_ids] if node_ids
                   else list(self.nodes.values()))
        for node in targets:
            node.services[service.name] = ServiceInstance(node, service)
        service.on_deployed(self)
        self._kick(service.name)
        return service

    def get_wsdl(self, service_name: str) -> WsdlDocument:
        """Fetch a service's interface document (what deflink does)."""
        service = self.services.get(service_name)
        if service is None:
            raise KeyError(f"no service named {service_name!r} is deployed")
        return service.wsdl

    def find_service_by_namespace(self, namespace: str) -> Optional[Service]:
        for service in self.services.values():
            if service.namespace == namespace:
                return service
        return None

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------

    def send(self, service: str, operation: str, body: Dict[str, Any],
             priority: int = PRIORITY_NORMAL,
             reply_to: Optional[ReplyTo] = None,
             max_attempts: int = 10,
             affinity: Optional[Affinity] = None,
             parent_span: int = 0) -> Message:
        """Place a message on the queue (asynchronous).

        ``parent_span`` is the causal span that initiated this send
        (the sender's operation window or fiber run); the message's
        queue-hop span becomes its child.  An ``affinity`` with a
        ``hold`` parks the message for its node (:meth:`_owner_of`).
        """
        if service not in self.services:
            raise KeyError(f"no service named {service!r} is deployed")
        message = self.queue.make_message(service, operation, body,
                                          priority=priority,
                                          reply_to=reply_to,
                                          now=self.kernel.now,
                                          max_attempts=max_attempts,
                                          affinity=affinity,
                                          parent_span=parent_span)
        owner = self._owner_of(message)
        self.queue.enqueue(message, self.kernel.now,
                           held_for=owner.id if owner is not None else None)
        if self.tracer.enabled:
            self.tracer.event(self.kernel.now, "enqueue", message.span_id,
                              service=service, operation=operation,
                              msg=message.id, priority=priority,
                              **_trace_ids(body))
        if owner is None:
            self.kernel.schedule(self.delivery_latency,
                                 lambda: self._kick(service))
            return message
        self.metrics.incr("placement.owner.held")
        self.kernel.schedule(self.delivery_latency,
                             lambda: self._kick_node(owner))
        # the hold is waiting beyond the hop every message takes
        self.kernel.schedule(
            self.delivery_latency + affinity.hold,
            lambda: self._release_held(message, owner, "released"))
        return message

    def _owner_of(self, message: Message) -> Optional[Node]:
        """The node a new message is parked for: the one its affinity
        holds it for, if that node is up and hosts the service."""
        affinity = message.affinity
        if affinity is None:
            return None
        node = self.nodes.get(affinity.node)
        if node is None or not node.alive \
                or message.service not in node.services:
            return None
        return node

    def _release_held(self, message: Message, owner: Node,
                      outcome: str) -> None:
        """The hold ran out: unless its owner already took it, the
        message goes to balanced dispatch."""
        if self.queue.release_held(message, owner.id):
            self._released(message, outcome)
            self._kick(message.service)

    def _released(self, message: Message, outcome: str) -> None:
        message.affinity = None
        self.metrics.incr(f"placement.owner.{outcome}")
        if self.tracer.enabled:
            self.tracer.event(self.kernel.now, "queue-released",
                              message.span_id, msg=message.id,
                              reason=outcome, **_trace_ids(message.body))

    def call(self, service: str, operation: str, body: Dict[str, Any],
             priority: int = PRIORITY_NORMAL,
             timeout: Optional[float] = None) -> ResponseEnvelope:
        """Synchronous call from *outside* the cluster.

        Runs the simulation until the response arrives (or the optional
        virtual-time timeout passes).
        """
        holder: List[ResponseEnvelope] = []

        def callback(response_body: Dict[str, Any]) -> None:
            holder.append(ResponseEnvelope.from_body(response_body))

        self.send(service, operation, body, priority=priority,
                  reply_to=ReplyTo(callback=callback))
        deadline = (self.kernel.now + timeout) if timeout is not None else None
        satisfied = self.kernel.run_until(lambda: bool(holder),
                                          deadline=deadline)
        if not satisfied:
            raise TimeoutError(
                f"{service}.{operation} did not respond "
                f"(queue depth {self.queue.total_depth()})")
        return holder[0]

    def call_inline(self, service_name: str, operation: str,
                    body: Dict[str, Any],
                    parent_context: Optional[OperationContext] = None
                    ) -> ResponseEnvelope:
        """A *synchronous* service request, bypassing the queue.

        This is the path the paper prescribes for requests from a
        future's background thread and for operations the programmer
        marks synchronous (Section 3.2): the sender blocks while the
        operation runs, so the time is charged to the sender's own slot.
        """
        service = self.services.get(service_name)
        if service is None:
            raise KeyError(f"no service named {service_name!r} is deployed")
        hosts = [node for node in self.nodes.values()
                 if node.alive and service_name in node.services]
        if not hosts:
            raise KeyError(f"no alive instance of {service_name!r}")
        node = self.rng.choice(hosts)
        instance = node.services[service_name]
        message = self.queue.make_message(service_name, operation, body,
                                          now=self.kernel.now)
        context = OperationContext(self, instance, message)
        context.caller = parent_context
        self.metrics.incr(f"sync.{service_name}.{operation}")
        try:
            value = service.handle(context, operation, body)
            if isinstance(value, (Deferred, Requeue)):
                # a reply that comes later (or a retry) cannot be waited
                # for here: undo what the handler did and tell the caller
                context.abort(f"{service_name}.{operation} cannot reply "
                              f"to a synchronous call")
                raise ServiceFault(
                    "{urn:bluebox}NotSynchronous",
                    f"{service_name}.{operation} cannot reply to a "
                    f"synchronous call")
            envelope = ResponseEnvelope(value=value)
        except ServiceFault as fault:
            envelope = ResponseEnvelope(fault_qname=fault.qname,
                                        fault_message=fault.message)
        if context.valid:
            context.commit()  # synchronous call: the reply is immediate
        envelope.duration = context.charged + 2 * self.delivery_latency
        if parent_context is not None:
            # the synchronous caller pays for the whole round trip
            parent_context.charge(envelope.duration)
        return envelope

    def run_until_idle(self) -> float:
        return self.kernel.run_until_idle()

    def run_until(self, predicate: Callable[[], bool],
                  deadline: Optional[float] = None) -> bool:
        return self.kernel.run_until(predicate, deadline=deadline)

    # ------------------------------------------------------------------
    # dispatch machinery
    # ------------------------------------------------------------------

    def _kick_all(self) -> None:
        for service_name in self.queue.services_with_messages():
            self._kick(service_name)

    def _kick(self, service_name: str) -> None:
        """Deliver queued messages for a service while slots are free."""
        while self._dispatch_one(service_name):
            pass

    def _dispatch_one(self, service_name: str,
                      held_on: Optional[Node] = None) -> bool:
        """Deliver the next message of ``service_name`` to the instance
        balancing picks — or, with ``held_on``, the next message parked
        for that node, which is one of ``service_name``, to it."""
        if held_on is not None:
            instance = held_on.services[service_name]
            message = self.queue.pop_held(held_on.id, self.kernel.now)
        else:
            if self.queue.peek_message(service_name) is None:
                return False
            instance = self._pick_instance(service_name)
            if instance is None:
                return False
            message = self.queue.pop_next(service_name, self.kernel.now)
            if message is None:  # pragma: no cover - guarded by peek
                return False
        # the hop span this delivery belongs to — captured now because a
        # duplicate-injection push_back below re-points message.span_id
        # at the duplicate's own fresh hop span
        hop_span = message.span_id
        if self.injector is not None:
            decision = self.injector.on_deliver(message)
            if decision is not None:
                action, delay = decision
                if action == "drop":
                    # at-least-once semantics: the lost delivery
                    # consumes an attempt; redelivery (or the DLQ)
                    # is driven by the message's retry policy
                    self._retry_or_dead_letter(message, "delivery dropped")
                    return True
                if action == "delay":
                    self.kernel.schedule(
                        max(delay, 0.0),
                        lambda m=message: (self.queue.push_back(m),
                                           self._kick(m.service)))
                    return True
                if action == "duplicate":
                    # deliver now *and* enqueue the same message again
                    # (same id — receivers must be idempotent)
                    self.queue.duplicated += 1
                    self.queue.push_back(message)
        if held_on is not None:
            self.metrics.incr("placement.owner.served")
        self._process(instance, message, hop_span=hop_span)
        return True

    def _kick_node(self, node: Node) -> None:
        """A slot freed on ``node``: deliver waiting work in *global*
        priority order across every service the node hosts — this is
        what keeps interactive traffic ahead of batch AwakeFiber storms
        (paper Sections 3.2 and 5).  Messages parked for this node
        compete in the same order.  Never called from inside a handler:
        a handler's window is open, and the next one would nest in it."""
        while True:
            best = None  # ((priority, seq), service, node it is held on)
            held = self.queue.peek_held(node.id)
            if held is not None and node.free_slots:
                best = (held[0], held[1].service, node)
            for service_name in node.services:
                peek = self.queue.peek_priority(service_name)
                if peek is not None and (best is None or peek < best[0]):
                    best = (peek, service_name, None)
            if best is None:
                return
            if not self._dispatch_one(best[1], held_on=best[2]):
                return

    def _pick_instance(self, service_name: str
                       ) -> Optional[ServiceInstance]:
        """Load balancing: the free instance on the least-busy node."""
        candidates = [node.services[service_name]
                      for node in self.nodes.values()
                      if node.alive and service_name in node.services
                      and node.free_slots > 0]
        if not candidates:
            return None
        # least-loaded: rank by busy *fraction*, not absolute busy
        # count, so a 2-slot node at 1/2 ranks behind an 8-slot node at
        # 1/8 on heterogeneous clusters (identical ordering when every
        # node has the same slot count)
        least = min(c.node.busy / c.node.slots for c in candidates)
        pool = [c for c in candidates
                if c.node.busy / c.node.slots == least]
        return self.rng.choice(pool)

    def _process(self, instance: ServiceInstance, message: Message,
                 hop_span: int = 0) -> None:
        node = instance.node
        node.busy += 1
        started = self.kernel.now
        context = OperationContext(self, instance, message)
        self._in_flight.append(context)
        lm = self.lock_manager
        if lm is not None:
            # in flight on a live node: its leases cannot lapse
            context.heartbeats = lm.open_window(context.owner)

        def free_slot() -> None:
            self._in_flight.remove(context)
            node.busy -= 1

        # the slot is held like a lock: either exit gives it back
        context.on_complete(free_slot)
        context.on_abort(free_slot)
        if self.tracer.enabled:
            ids = _trace_ids(message.body)
            context.span_id = context.window_span = self.tracer.begin(
                f"op:{message.service}.{message.operation}", kind="operation",
                start=started, parent_id=hop_span or None, node=node.id,
                msg=message.id, **ids)
            self.tracer.event(started, "deliver", context.span_id,
                              service=message.service,
                              operation=message.operation, msg=message.id,
                              node=node.id, **ids)
        self.store.begin_window()
        context.owns_window = True
        try:
            value = instance.service.handle(context, message.operation,
                                            message.body)
            envelope = ResponseEnvelope(value=value)
        except ServiceFault as fault:
            envelope = ResponseEnvelope(fault_qname=fault.qname,
                                        fault_message=fault.message)
        except StoreError as err:
            # a store IO fault (or injected corruption) surfaced while
            # processing: abort the window — roll back state, free the
            # slot — and retry the message per its policy
            self.store.abort_window()
            self._abort_window(context, f"store fault: {err}")
            return
        if not context.valid:
            # the node died (or was crashed by the injector) while the
            # handler ran: fail_node already rolled back and requeued,
            # and the buffered records must never reach the journal
            self.store.abort_window()
            self._kick_node(node)
            return
        # group commit: the window's writes become one journal batch;
        # its IO cost lands inside the window duration
        context.batch = self.store.seal_window()
        if context.batch is not None:
            context.charge(context.batch.cost)
        duration = max(context.charged, 1e-6)
        if self.injector is not None:
            duration *= self.injector.slow_factor(node.id, started)
        if lm is not None:
            # its beats are settled whenever one of its leases is read
            lm.keep_alive(context.heartbeats, duration)
        self.kernel.schedule(
            duration, lambda: self._complete(context, envelope, duration))

    def break_window_for(self, key: str, owner: str, reason: str) -> bool:
        """The lock manager's ``lease_breaker``: a lease on ``key`` held
        by ``owner`` is being expired or stolen — abort that owner's
        in-flight window *now*, so its rollback lands before the new
        owner reads any state.  Returns True when a window was broken.
        """
        for record in list(self._in_flight):
            if record.valid and record.owner == owner:
                self.metrics.incr("lease.window-broken")
                if self.tracer.enabled:
                    self.tracer.event(self.kernel.now, "lease-broken",
                                      record.span_id, key=key, owner=owner,
                                      reason=reason, msg=record.message.id)
                self._abort_window(record,
                                   f"lease on {key} broken: {reason}")
                return True
        return False

    def _complete(self, record: OperationContext,
                  envelope: ResponseEnvelope, duration: float) -> None:
        if not record.valid:
            return  # the node died while processing; message was requeued
        # state writes, history and chunk GC in one journal append,
        # then lock release, then the transactional sends
        try:
            record.commit()
        except StoreError as err:
            if record.valid:
                raise  # from a post-commit hook: the window did commit
            self._abort_window(record, f"commit refused: {err}")
            return
        node = record.instance.node
        node.processed += 1
        node.busy_time += duration
        record.instance.processed += 1
        message = record.message
        self.metrics.incr(f"op.{message.service}.{message.operation}")
        self.metrics.add("busy_time", duration)
        if self.metrics.enabled:
            # the spawn governor's operation-latency signal
            self.metrics.histogram("op.duration").observe(duration)
        if isinstance(envelope.value, Requeue):
            # the handler backed off (e.g. AwakeFiber lock patience):
            # the message goes back on the queue, keeping its reply_to
            if self.tracer.enabled:
                self.tracer.event(self.kernel.now, "requeue", record.span_id,
                                  service=message.service,
                                  operation=message.operation,
                                  msg=message.id, node=node.id)
                self.tracer.end(record.span_id, end=self.kernel.now,
                                requeued=True)
            delay = envelope.value.delay
            if self.queue.requeue(message, self.kernel.now):
                self.kernel.schedule(max(delay, 0.0),
                                     lambda s=message.service: self._kick(s))
            else:
                self._on_dead_letter(message, "voluntary requeues exhausted")
            self._kick_node(node)
            return
        if self.tracer.enabled:
            self.tracer.event(self.kernel.now, "complete", record.span_id,
                              service=message.service,
                              operation=message.operation, msg=message.id,
                              node=node.id, ok=envelope.ok)
            self.tracer.end(record.span_id, end=self.kernel.now,
                            ok=envelope.ok)
        if isinstance(envelope.value, Deferred):
            pass  # reply postponed; the Deferred resolves it later
        elif message.reply_to is not None:
            self._route_reply(message.reply_to, envelope,
                              parent_span=record.span_id)
        # the freed slot may unblock any service on this node
        self._kick_node(node)

    def _route_reply(self, reply_to: ReplyTo, envelope: ResponseEnvelope,
                     parent_span: int = 0) -> None:
        body = envelope.to_body()
        if reply_to.callback is not None:
            callback = reply_to.callback
            self.kernel.schedule(self.delivery_latency,
                                 lambda: callback(body))
            return
        merged = dict(reply_to.extra)
        merged["response"] = body
        self.send(reply_to.service, reply_to.operation, merged,
                  max_attempts=1_000_000, affinity=reply_to.affinity,
                  parent_span=parent_span)

    # ------------------------------------------------------------------
    # retry / dead-letter machinery
    # ------------------------------------------------------------------

    def _abort_window(self, record: OperationContext, reason: str) -> None:
        """An operation failed (store fault, broken lease, refused
        commit): abort its window — the rollback a node death takes,
        for one operation — and retry the message per its policy."""
        record.abort(reason)
        message = record.message
        node = record.instance.node
        if self.tracer.enabled:
            self.tracer.event(self.kernel.now, OPERATION_FAULT,
                              record.span_id, service=message.service,
                              operation=message.operation, msg=message.id,
                              node=node.id, reason=reason)
        self.metrics.incr("operation.faults")
        self._retry_or_dead_letter(message, reason)
        # a lease breaker can abort a window from inside another
        # node's handler: the freed slot is served once that returns
        self.kernel.schedule(0.0, lambda: self._kick_node(node))

    def _retry_or_dead_letter(self, message: Message, reason: str) -> bool:
        """Consume one delivery attempt; either schedule a backoff
        retry or move the message to the dead-letter queue.  Returns
        True when a retry was scheduled."""
        now = self.kernel.now
        if self.retry_policy.expired(message.first_enqueued_at, now):
            message.attempts += 1
            self.queue.dead_letter(message)
            self._on_dead_letter(message, f"{reason}; retry timeout expired")
            return False
        cap = self.retry_policy.attempt_cap(message.max_attempts)
        if not self.queue.requeue(message, now, cap=cap, push=False):
            self._on_dead_letter(message, f"{reason}; attempts exhausted")
            return False
        delay = self.retry_policy.backoff_delay(message.attempts, self.rng)
        if self.tracer.enabled:
            self.tracer.event(now, RETRY_SCHEDULED, message.span_id,
                              msg=message.id, service=message.service,
                              operation=message.operation,
                              attempt=message.attempts, delay=delay,
                              reason=reason)
        self.metrics.incr("retry.scheduled")
        self.kernel.schedule(
            delay, lambda m=message: (self.queue.push_back(m),
                                      self._kick(m.service)))
        return True

    def _on_dead_letter(self, message: Message, reason: str) -> None:
        """Observability + liveness when a message dead-letters: trace
        it, answer any waiting requester with a fault (so synchronous
        callers and suspended fibers get a signalable condition instead
        of hanging), and tell the listeners (Vinz fails the owning
        fiber/task through the normal error path)."""
        if self.tracer.enabled:
            self.tracer.event(self.kernel.now, DEADLETTER_ENQUEUED,
                              message.origin_span_id, msg=message.id,
                              service=message.service,
                              operation=message.operation,
                              attempts=message.attempts, reason=reason)
        self.metrics.incr("deadletter.enqueued")
        if message.reply_to is not None:
            self._route_reply(message.reply_to, ResponseEnvelope(
                fault_qname="{urn:bluebox}DeadLettered",
                fault_message=f"{message.service}.{message.operation} "
                              f"dead-lettered: {reason}"),
                parent_span=message.origin_span_id)
        for listener in self.dead_letter_listeners:
            listener(message)

    # ------------------------------------------------------------------
    # failure injection (survivability, paper Section 3.2)
    # ------------------------------------------------------------------

    def fail_node(self, node_id: str) -> int:
        """Kill a node.  In-flight messages are re-queued for delivery
        elsewhere; per-node memory (caches) is lost.  Returns how many
        requests were re-queued."""
        node = self.nodes[node_id]
        node.alive = False
        node.memory.clear()
        # what waited for this node's cache goes to balanced dispatch
        for message in self.queue.release_node(node_id):
            self._released(message, "node-lost")
            self.kernel.schedule(0.0, lambda s=message.service: self._kick(s))
        requeued = 0
        for record in list(self._in_flight):
            if record.instance.node is node:
                # a *dirty* crash: sealed or not, the window's batch
                # dies with the node, so replay never sees it
                record.abort("node-failure", node_failed=True)
                message = record.message
                if self.tracer.enabled:
                    self.tracer.event(self.kernel.now, "instance-failure",
                                      record.window_span, node=node.id,
                                      msg=message.id,
                                      operation=message.operation)
                if self.queue.requeue(message, self.kernel.now):
                    requeued += 1
                    service = message.service
                    self.kernel.schedule(REDELIVERY_DELAY,
                                         lambda s=service: self._kick(s))
                else:
                    self._on_dead_letter(
                        message, f"redelivery after {node.id} failure "
                                 f"exhausted attempts")
        return requeued

    def restore_node(self, node_id: str) -> None:
        node = self.nodes[node_id]
        node.alive = True
        self._kick_all()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def alive_nodes(self) -> List[Node]:
        return [n for n in self.nodes.values() if n.alive]

    def total_slots(self) -> int:
        return sum(n.slots for n in self.alive_nodes())

    def utilization(self) -> float:
        """Mean busy fraction across alive nodes since t=0."""
        now = self.kernel.now
        if now <= 0:
            return 0.0
        capacity = sum(n.slots for n in self.nodes.values()) * now
        busy = sum(n.busy_time for n in self.nodes.values())
        return busy / capacity if capacity else 0.0
