"""The BlueBox message queue (simulated JMS).

Paper Section 1: "Service instances communicate by placing XML messages
on a message queue (the Java Message Service) which distributes the
messages to available nodes."  The queue is the heart of BlueBox — it
load-balances across service instances, prioritizes, buffers, and
re-delivers messages when an instance fails (Section 3.2), and it alone
decides where a fiber runs (Section 4.2: "Vinz executes no control over
where a fiber will be asked to run, leaving that in the hands of the
message queue").

Message *ordering* is delegated to a pluggable scheduling policy
(:mod:`repro.sched.fair`): the default :class:`~repro.sched.fair.
StrictPriorityPolicy` reproduces the paper's strict priority heap,
while :class:`~repro.sched.fair.DeficitRoundRobinPolicy` adds per-
workflow fairness with priority aging.  The queue keeps the delivery
bookkeeping (attempts, dead letters, wait statistics, hop spans)
either way.

A message may also be *parked* for one node (:class:`Affinity`): it is
kept out of the policy, in ``(priority, seq)`` order per node, until
that node takes it or the cluster releases it into the policy.
Parking changes where and when a message is delivered, never the
queue's accounting: it counts as enqueued, its wait and hop span run
from enqueue to delivery.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..observe import MetricsRegistry, Tracer
from ..sched.fair import SchedulingPolicy, StrictPriorityPolicy

# Priorities: lower value = delivered first.  The paper (Section 5)
# specifies AwakeFiber requests to be low-priority so that bursts of
# parent wake-ups do not starve interactive traffic.
PRIORITY_INTERACTIVE = 2
PRIORITY_NORMAL = 5
PRIORITY_LOW = 8

#: how many individual waits the bounded reservoir keeps; the mean is
#: streamed exactly, percentiles come from this uniform sample
WAIT_RESERVOIR_SIZE = 4096


class Affinity(NamedTuple):
    """A park: the node a message waits for.

    The message waits for ``node``'s next free slot for up to ``hold``
    virtual seconds beyond its queue hop, then goes to ordinary
    balanced dispatch (at once if the node dies, or if it is down or
    does not host the service when the message is sent).
    """

    node: str
    hold: float


@dataclass
class ReplyTo:
    """Where a response should go.

    ``callback`` — an external caller's Python function (the test
    harness, a synchronous ``Run``).  ``service``/``operation`` — route
    the response back onto the queue as a new message, the mechanism
    behind non-blocking service requests: "the message queue is
    instructed to deliver the response not to the sending instance ...
    but instead to any workflow service instance by means of its
    ResumeFromCall operation" (Section 3.2).
    """

    callback: Optional[Callable[[Dict[str, Any]], None]] = None
    service: Optional[str] = None
    operation: Optional[str] = None
    extra: Dict[str, Any] = field(default_factory=dict)
    #: where the response message is parked
    affinity: Optional[Affinity] = None


@dataclass
class Message:
    """One message on the queue.

    ``affinity`` parks the message for one node (:class:`Affinity`):
    the paper's Section 5 future-work item of "mov[ing] the processing
    work to the last location of the data" (the Swarm idea), applied
    where it pays — a resume of a fiber version only that node's cache
    holds.
    """

    id: int
    service: str
    operation: str
    body: Dict[str, Any]
    priority: int = PRIORITY_NORMAL
    reply_to: Optional[ReplyTo] = None
    enqueued_at: float = 0.0
    attempts: int = 0
    max_attempts: int = 10
    affinity: Optional[Affinity] = None
    #: when the message first hit the queue (retry timeouts are
    #: measured from here, not from the latest re-enqueue)
    first_enqueued_at: float = 0.0
    #: causal-tracing headers (repro.observe): the span that caused
    #: this send, the current queue-hop span, and the *first* hop span
    #: (retries parent to it, so redeliveries stay linked to the
    #: original lifetime).  0 everywhere when tracing is disabled.
    parent_span: int = 0
    span_id: int = 0
    origin_span_id: int = 0

    def __repr__(self) -> str:
        return (f"<Message #{self.id} {self.service}.{self.operation} "
                f"prio={self.priority} attempts={self.attempts}>")


class MessageQueue:
    """Per-service message scheduling plus delivery bookkeeping.

    The queue itself is passive data; the :class:`~repro.bluebox.cluster.
    Cluster` drives delivery by asking for the next deliverable message
    whenever an instance slot frees up.  Which message that is belongs
    to the scheduling ``policy``.
    """

    def __init__(self, policy: Optional[SchedulingPolicy] = None):
        self.policy: SchedulingPolicy = policy or StrictPriorityPolicy()
        self._seq = itertools.count()
        self._ids = itertools.count(1)
        #: messages whose retry policy is exhausted, kept for
        #: inspection and operator replay (never silently discarded)
        self.dead_letters: List[Message] = []
        #: observability wiring (replaced by the owning Cluster's; a
        #: standalone queue observes nothing): the tracer, the metrics
        #: registry, and a virtual-clock read.  The queue owns the
        #: queue-hop span lifecycle: a hop opens at enqueue/push-back
        #: and closes at delivery.
        self.tracer = Tracer(events=False)
        self.metrics = MetricsRegistry(enabled=False)
        self.now_fn: Optional[Callable[[], float]] = None
        #: parked messages: node id -> heap of (priority, seq, message)
        self._held: Dict[str, List[Tuple[int, int, Message]]] = {}
        # statistics
        self.enqueued = 0
        self.delivered = 0
        self.redelivered = 0
        self.duplicated = 0
        self.dead_lettered = 0
        #: a bounded uniform sample of waits (reservoir, Algorithm R);
        #: the exact mean is streamed separately, so unbounded runs no
        #: longer grow memory with every delivery
        self.wait_times: List[float] = []
        self._wait_count = 0
        self._wait_total = 0.0
        self._reservoir_rng = random.Random(0x77A17)

    def _now(self, fallback: float = 0.0) -> float:
        return self.now_fn() if self.now_fn is not None else fallback

    def make_message(self, service: str, operation: str, body: Dict[str, Any],
                     priority: int = PRIORITY_NORMAL,
                     reply_to: Optional[ReplyTo] = None,
                     now: float = 0.0,
                     max_attempts: int = 10,
                     affinity: Optional[Affinity] = None,
                     parent_span: int = 0) -> Message:
        return Message(id=next(self._ids), service=service,
                       operation=operation, body=dict(body),
                       priority=priority, reply_to=reply_to,
                       enqueued_at=now, max_attempts=max_attempts,
                       affinity=affinity, first_enqueued_at=now,
                       parent_span=parent_span)

    def _begin_hop(self, message: Message, now: float,
                   retry: bool = False) -> None:
        """Open a queue-hop span for one stay on the queue.  A retry
        hop parents to the message's *original* hop, keeping fault
        redeliveries attached to the lifetime they belong to."""
        if retry and message.origin_span_id:
            parent = message.origin_span_id
            extra = {"attempt": message.attempts,
                     "retry_of": message.origin_span_id}
        else:
            parent = message.parent_span
            extra = {}
        message.span_id = self.tracer.begin(
            f"hop:{message.service}.{message.operation}", kind="queue-hop",
            start=now, parent_id=parent or None, msg=message.id,
            service=message.service, operation=message.operation,
            **_trace_ids(message.body), **extra)
        if not message.origin_span_id:
            message.origin_span_id = message.span_id

    def peek_message(self, service: str,
                     now: Optional[float] = None) -> Optional[Message]:
        """The message the policy would deliver next, without popping."""
        return self.policy.peek(service, self._now() if now is None else now)

    def enqueue(self, message: Message, now: float,
                held_for: Optional[str] = None) -> None:
        """Put a new message on the queue; with ``held_for`` (a node
        id) park it for that node instead of handing it to the policy."""
        message.enqueued_at = now
        seq = next(self._seq)
        if held_for is None:
            self.policy.push(message.service, message, seq, now)
        else:
            heapq.heappush(self._held.setdefault(held_for, []),
                           (message.priority, seq, message))
        self.enqueued += 1
        if self.tracer.enabled:
            self._begin_hop(message, now)
            if held_for is not None:
                self.tracer.event(now, "queue-held", message.span_id,
                                  msg=message.id, owner=held_for,
                                  bound=message.affinity.hold,
                                  **_trace_ids(message.body))

    def requeue(self, message: Message, now: float,
                cap: Optional[int] = None, push: bool = True) -> bool:
        """Put a message back after a failed delivery.

        ``cap`` overrides the message's own ``max_attempts`` (a
        RetryPolicy's bound).  Once the cap is exhausted the message
        moves to the dead-letter queue and False is returned — the
        poison-message guard, upgraded from a silent drop.  With
        ``push=False`` only the attempt accounting happens; the caller
        re-inserts via :meth:`push_back` after its backoff delay.
        """
        message.attempts += 1
        limit = cap if cap is not None else message.max_attempts
        if message.attempts >= limit:
            self.dead_letter(message)
            return False
        self.redelivered += 1
        if push:
            self.push_back(message, now=now)
        return True

    def push_back(self, message: Message,
                  now: Optional[float] = None) -> None:
        """Re-insert an already-accounted message (backoff expiry,
        delivery-delay faults, duplicate deliveries).

        ``enqueued_at`` is restamped to the re-insertion instant:
        ``queue.wait`` measures each *stay* on the queue, so a backoff
        retry must not be charged the time it spent off the queue (the
        overall retry budget still runs from ``first_enqueued_at``).
        """
        now = self._now(message.enqueued_at) if now is None else now
        message.enqueued_at = now
        self.policy.push(message.service, message, next(self._seq), now)
        if self.tracer.enabled:
            self._begin_hop(message, now, retry=True)

    def dead_letter(self, message: Message) -> None:
        """Move a message to the dead-letter queue: it is retained for
        inspection/replay instead of being discarded."""
        self.dead_lettered += 1
        self.dead_letters.append(message)

    def dead_letter_ids(self) -> List[int]:
        return [m.id for m in self.dead_letters]

    def pop_next(self, service: str, now: float) -> Optional[Message]:
        """Remove and return the next message the policy schedules."""
        message = self.policy.pop(service, now)
        if message is None:
            return None
        return self._delivering(message, now)

    def peek_held(self, node_id: str) -> Optional[Tuple[Tuple[int, int],
                                                        Message]]:
        """``((priority, seq), message)`` of the next message parked for
        ``node_id``, without popping."""
        heap = self._held.get(node_id)
        if not heap:
            return None
        priority, seq, message = heap[0]
        return (priority, seq), message

    def pop_held(self, node_id: str, now: float) -> Message:
        """Remove and return the next message parked for ``node_id``."""
        _priority, _seq, message = heapq.heappop(self._held[node_id])
        return self._delivering(message, now)

    def release_held(self, message: Message, node_id: str) -> bool:
        """Hand a parked message to the policy (its hold ran out).
        False when it is no longer parked for ``node_id``."""
        heap = self._held.get(node_id, ())
        for index, entry in enumerate(heap):
            if entry[2] is message:
                heap[index] = heap[-1]
                heap.pop()
                heapq.heapify(heap)
                self._unpark(entry)
                return True
        return False

    def release_node(self, node_id: str) -> List[Message]:
        """Hand every message parked for ``node_id`` to the policy (the
        node died); returns them."""
        entries = sorted(self._held.pop(node_id, []))
        for entry in entries:
            self._unpark(entry)
        return [entry[2] for entry in entries]

    def _unpark(self, entry: Tuple[int, int, Message]) -> None:
        """Into the policy at its original arrival seq: it has been
        waiting since its enqueue, and wait statistics say so."""
        _priority, seq, message = entry
        self.policy.push(message.service, message, seq, self._now())

    def _delivering(self, message: Message, now: float) -> Message:
        self.delivered += 1
        wait = now - message.enqueued_at
        self._record_wait(wait)
        if self.metrics.enabled:
            self.metrics.histogram("queue.wait").observe(wait)
        if self.tracer.enabled:
            self.tracer.end(message.span_id, end=now, wait=wait)
        return message

    def peek_depth(self, service: str) -> int:
        return self.policy.depth(service) + sum(
            1 for heap in self._held.values() for entry in heap
            if entry[2].service == service)

    def peek_priority(self, service: str,
                      now: Optional[float] = None
                      ) -> Optional[Tuple[float, int]]:
        """The (priority, seq) of the next message, without popping.

        Under a fair policy the priority is the *effective* (aged)
        priority, so cross-service comparisons see what the scheduler
        sees."""
        return self.policy.peek_priority(service,
                                         self._now() if now is None else now)

    def total_depth(self) -> int:
        return self.policy.total_depth() + sum(map(len, self._held.values()))

    def services_with_messages(self) -> List[str]:
        return self.policy.services()

    # -- wait statistics ----------------------------------------------------

    def _record_wait(self, wait: float) -> None:
        self._wait_count += 1
        self._wait_total += wait
        if len(self.wait_times) < WAIT_RESERVOIR_SIZE:
            self.wait_times.append(wait)
        else:
            slot = self._reservoir_rng.randrange(self._wait_count)
            if slot < WAIT_RESERVOIR_SIZE:
                self.wait_times[slot] = wait

    def wait_count(self) -> int:
        """Deliveries recorded (exact, streamed)."""
        return self._wait_count

    def wait_sum(self) -> float:
        """Total seconds waited across all deliveries (exact)."""
        return self._wait_total

    def mean_wait(self) -> float:
        if not self._wait_count:
            return 0.0
        return self._wait_total / self._wait_count

    def wait_percentile(self, q: float) -> float:
        """Approximate wait percentile from the reservoir sample
        (``q`` in [0, 1]) — the metrics-off fallback for p99."""
        if not self.wait_times:
            return 0.0
        ordered = sorted(self.wait_times)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]


def _trace_ids(body: Dict[str, Any]) -> Dict[str, Any]:
    """Pull workflow identifiers out of a body for trace readability."""
    out = {}
    for key in ("task", "fiber"):
        if key in body:
            out[key] = body[key]
    return out
