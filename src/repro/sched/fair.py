"""Pluggable message-scheduling policies for the BlueBox queue.

The seed queue is one strict priority heap per service: under a
sustained flood of high-priority messages a ``PRIORITY_NORMAL`` message
is *never* delivered — the starvation the paper's Section 5 burstiness
discussion worries about.  This module defines the policy interface the
:class:`~repro.bluebox.messagequeue.MessageQueue` delegates its storage
to, plus two implementations:

* :class:`StrictPriorityPolicy` — the seed behaviour, bit-for-bit
  (priority, then FIFO by arrival sequence).  The default.
* :class:`DeficitRoundRobinPolicy` — fair scheduling: messages are
  partitioned into *flows* (one per workflow task id), each flow is
  FIFO, and delivery rotates deficit-round-robin across the flows
  whose head currently occupies the best *effective*-priority band.
  Effective priority decays linearly with queue age (priority aging),
  so a normal-priority flow climbs into the interactive band after
  ``(prio_normal - prio_interactive) / aging_rate`` virtual seconds —
  a hard bound on starvation no matter how hot the high-priority
  firehose runs.

Policies are pure data structures over ``(message, seq, now)``; they
import nothing from ``bluebox`` so the dependency arrow stays
``bluebox -> sched``.  Selection (``peek``) is a pure function of the
stored state and ``now`` — ``peek``/``peek_priority``/``pop`` at the
same instant always agree on the same message, which the cluster's
peek-then-pop dispatch loop relies on.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

#: flow key for messages that carry no workflow identity (management
#: traffic, external sends): they share one control flow
CONTROL_FLOW = "<control>"


def default_flow_of(message: Any) -> str:
    """Partition messages into flows by workflow: task id when the
    body carries one, else fiber id (fiber-lifecycle traffic like
    AwakeFiber names only the fiber), else the shared control flow."""
    body = getattr(message, "body", None) or {}
    key = body.get("task") or body.get("fiber")
    return key if key is not None else CONTROL_FLOW


class SchedulingPolicy:
    """What the MessageQueue needs from a scheduling policy.

    One policy instance serves every service; ``service`` namespaces
    all calls.  ``seq`` is the queue's global arrival counter (FIFO
    tie-break); ``now`` is the virtual clock at the call.
    """

    name = "policy"

    def push(self, service: str, message: Any, seq: int, now: float) -> None:
        raise NotImplementedError

    def pop(self, service: str, now: float) -> Optional[Any]:
        raise NotImplementedError

    def peek(self, service: str, now: float) -> Optional[Any]:
        raise NotImplementedError

    def peek_priority(self, service: str,
                      now: float) -> Optional[Tuple[float, int]]:
        """A cross-service-comparable (priority, seq) key for the
        message :meth:`pop` would deliver next — the cluster's
        free-slot loop uses it to serve services in global order."""
        raise NotImplementedError

    def depth(self, service: str) -> int:
        raise NotImplementedError

    def total_depth(self) -> int:
        raise NotImplementedError

    def services(self) -> List[str]:
        """Services with at least one queued message."""
        raise NotImplementedError


class StrictPriorityPolicy(SchedulingPolicy):
    """The seed scheduler: one heap per service, (priority, seq) order.

    Within a priority messages are FIFO; across priorities lower always
    wins — which is exactly why it can starve (see the starvation
    property test, which this policy is *expected* to fail)."""

    name = "strict"

    def __init__(self):
        self._heaps: Dict[str, List[Tuple[int, int, Any]]] = {}

    def push(self, service: str, message: Any, seq: int, now: float) -> None:
        heap = self._heaps.setdefault(service, [])
        heapq.heappush(heap, (message.priority, seq, message))

    def pop(self, service: str, now: float) -> Optional[Any]:
        heap = self._heaps.get(service)
        if not heap:
            return None
        _prio, _seq, message = heapq.heappop(heap)
        return message

    def peek(self, service: str, now: float) -> Optional[Any]:
        heap = self._heaps.get(service)
        if not heap:
            return None
        return heap[0][2]

    def peek_priority(self, service: str,
                      now: float) -> Optional[Tuple[float, int]]:
        heap = self._heaps.get(service)
        if not heap:
            return None
        priority, seq, _message = heap[0]
        return (priority, seq)

    def depth(self, service: str) -> int:
        return len(self._heaps.get(service, []))

    def total_depth(self) -> int:
        return sum(len(h) for h in self._heaps.values())

    def services(self) -> List[str]:
        return [s for s, h in self._heaps.items() if h]


class _ServiceFlows:
    """Per-service DRR state: FIFO flow deques plus rotation cursors."""

    __slots__ = ("flows", "order", "deficit", "current", "last")

    def __init__(self):
        #: flow key -> deque of (seq, message); head = oldest
        self.flows: Dict[str, deque] = {}
        #: active flow keys in arrival order (the rotation ring)
        self.order: List[str] = []
        #: carried-over serving credit per flow
        self.deficit: Dict[str, float] = {}
        #: flow still spending its quantum (keeps serving while
        #: deficit covers the cost), and the last flow served
        self.current: Optional[str] = None
        self.last: Optional[str] = None


class DeficitRoundRobinPolicy(SchedulingPolicy):
    """Deficit round-robin across workflow flows, with priority aging.

    Selection, for one service at instant ``now``:

    1. every non-empty flow is ranked by its *head* message's effective
       priority ``max(0, priority - aging_rate * age)``;
    2. the flows whose head falls in the best (lowest) integer band are
       *eligible* — aging is what lets a patient normal-priority flow
       join the interactive band;
    3. among eligible flows, deficit round-robin: each flow's turn
       grants it ``quantum`` credit and it serves messages (cost 1
       each) until the credit runs dry, then the turn rotates.

    Within a flow, order is strictly FIFO regardless of per-message
    priorities — per-workflow FIFO is the invariant the property tests
    pin down.  ``aging_rate`` is priority units per virtual second; its
    1.0 promotes NORMAL (5) into the INTERACTIVE band (2) after
    3 seconds of waiting, so no message waits unboundedly.
    """

    name = "fair"

    #: priority units an entry's effective priority drops per virtual
    #: second of waiting
    aging_rate = 1.0
    #: credit a flow's turn grants, in messages; never below ``cost``
    quantum = 1.0
    #: what serving one message costs
    cost = 1.0

    def __init__(self):
        self._services: Dict[str, _ServiceFlows] = {}
        #: messages served from a band better than their static
        #: priority — i.e. deliveries that only aging made possible
        self.aged_promotions = 0

    # -- effective priority -------------------------------------------------

    def _effective(self, entry: Tuple[int, Any], now: float) -> float:
        _seq, message = entry
        age = max(0.0, now - message.enqueued_at)
        return max(0.0, message.priority - self.aging_rate * age)

    def _band(self, entry: Tuple[int, Any], now: float) -> int:
        return int(math.floor(self._effective(entry, now)))

    # -- pure selection ------------------------------------------------------

    def _choose(self, state: _ServiceFlows, now: float) -> Optional[str]:
        """The flow :meth:`pop` would serve next.  Pure: no state is
        mutated, so peek and pop agree at the same instant."""
        if not state.order:
            return None
        band = min(self._band(state.flows[k][0], now) for k in state.order)
        eligible = {k for k in state.order
                    if self._band(state.flows[k][0], now) == band}
        current = state.current
        if current in eligible and \
                state.deficit.get(current, 0.0) >= self.cost:
            return current  # still spending its quantum
        # rotate: the first eligible flow after the last one served
        ring = state.order
        if state.last in ring:
            i = ring.index(state.last)
            ring = ring[i + 1:] + ring[:i + 1]
        for key in ring:
            if key in eligible:
                return key
        return None  # pragma: no cover - eligible is never empty here

    # -- SchedulingPolicy ----------------------------------------------------

    def push(self, service: str, message: Any, seq: int, now: float) -> None:
        state = self._services.setdefault(service, _ServiceFlows())
        key = default_flow_of(message)
        flow = state.flows.get(key)
        if flow is None:
            flow = state.flows[key] = deque()
            state.order.append(key)
        flow.append((seq, message))

    def pop(self, service: str, now: float) -> Optional[Any]:
        state = self._services.get(service)
        if state is None:
            return None
        key = self._choose(state, now)
        if key is None:
            return None
        flow = state.flows[key]
        head_band = self._band(flow[0], now)
        _seq, message = flow.popleft()
        if head_band < message.priority:
            # served out of a better band than its static priority:
            # the delivery priority aging earned it
            self.aged_promotions += 1
        # deficit accounting: a fresh turn grants the quantum; the flow
        # keeps the floor while its credit covers another message
        if key == state.current:
            state.deficit[key] = state.deficit.get(key, 0.0) - self.cost
        else:
            state.current = key
            state.deficit[key] = \
                state.deficit.get(key, 0.0) + self.quantum - self.cost
        state.last = key
        if state.deficit.get(key, 0.0) < self.cost:
            state.current = None  # quantum spent: next pop rotates
        if not flow:
            del state.flows[key]
            state.order.remove(key)
            state.deficit.pop(key, None)
            if state.current == key:
                state.current = None
        return message

    def peek(self, service: str, now: float) -> Optional[Any]:
        state = self._services.get(service)
        if state is None:
            return None
        key = self._choose(state, now)
        if key is None:
            return None
        return state.flows[key][0][1]

    def peek_priority(self, service: str,
                      now: float) -> Optional[Tuple[float, int]]:
        state = self._services.get(service)
        if state is None:
            return None
        key = self._choose(state, now)
        if key is None:
            return None
        seq, _message = state.flows[key][0]
        return (self._effective(state.flows[key][0], now), seq)

    def depth(self, service: str) -> int:
        state = self._services.get(service)
        if state is None:
            return 0
        return sum(len(f) for f in state.flows.values())

    def total_depth(self) -> int:
        return sum(self.depth(s) for s in self._services)

    def services(self) -> List[str]:
        return [s for s, state in self._services.items() if state.order]


def make_policy(spec: Any) -> SchedulingPolicy:
    """Resolve a policy spec: None/"strict" -> the seed heap,
    "fair" -> deficit round-robin."""
    if spec is None or spec == "strict":
        return StrictPriorityPolicy()
    if spec == "fair":
        return DeficitRoundRobinPolicy()
    raise ValueError(f"unknown scheduling policy {spec!r}")
