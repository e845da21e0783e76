"""The tracer: one ordered event stream plus the causal span tree.

"The underlying BlueBox platform provides monitoring and management
features" (paper Section 1), and the paper's Figure 1 *is* a trace.
The :class:`Tracer` is the one place the platform writes what happened:

* a flat, ordered stream of :class:`Event` records — every queue,
  instance, fiber, persistence, fault and recovery event with its
  virtual timestamp (the Figure-1 format, and the stream replay
  assertions fingerprint with :meth:`Tracer.signature`);
* a tree of :class:`Span` intervals with parent links.

:meth:`Tracer.event` is the single write for an observed fact: it
appends the flat event and attaches the same record to the span it
happened in, so a rendered task tree shows where chaos struck.

The span kinds the platform emits, and how they nest for one task:

.. code-block:: text

    task:T1                               (root of the task's tree)
    └─ fiber:F1                           fiber lifetime
       └─ queue-hop RunFiber              enqueue -> delivery wait
          └─ op Sample.RunFiber           the operation window on a node
             └─ fiber-run F1              the GVM advancing the fiber
                ├─ persist.encode         continuation -> blob -> store
                ├─ queue-hop Market.Quote next causal step (a send)
                │  └─ op Market.Quote ...
                └─ ...

Parent ids travel in :class:`~repro.bluebox.messagequeue.Message`
headers (``parent_span``/``span_id``/``origin_span_id``), in the fiber
and task records (``span_id``), and in the
:class:`~repro.bluebox.services.OperationContext` (``span_id``), so the
tree survives node migrations.  Fault-driven redeliveries open a *new*
queue-hop span whose parent is the message's **original** hop span
(``retry_of`` attribute), so retries stay attached to the lifetime they
belong to instead of dangling.

Zero-cost-when-disabled contract: every call site in the platform
guards on the single ``enabled`` flag before building keyword
arguments; a tracer with nothing switched on records no event and
allocates no span (``begin`` returns 0).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

#: Fault-injection / robustness event kinds (written by the cluster
#: and the FaultInjector).  Every injected fault and every recovery
#: decision is observable in the trace:
#:
#: * ``fault.injected`` — the injector fired (action=drop/duplicate/
#:   delay/fail-write/fail-read/corrupt-read/crash/crash-on-persist);
#: * ``retry.scheduled`` — a failed delivery was re-scheduled with its
#:   backoff delay and attempt number;
#: * ``deadletter.enqueued`` — a message exhausted its RetryPolicy and
#:   moved to the dead-letter queue;
#: * ``operation-fault`` — an operation aborted mid-window (store
#:   fault) and its state was rolled back.
FAULT_INJECTED = "fault.injected"
RETRY_SCHEDULED = "retry.scheduled"
DEADLETTER_ENQUEUED = "deadletter.enqueued"
OPERATION_FAULT = "operation-fault"

FAULT_EVENT_KINDS = (FAULT_INJECTED, RETRY_SCHEDULED, DEADLETTER_ENQUEUED,
                     OPERATION_FAULT)


class Event(NamedTuple):
    """One timestamped fact: ``(time, kind, detail)``."""

    time: float
    kind: str
    detail: Dict[str, Any]

    def __repr__(self) -> str:
        bits = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.time:10.3f}] {self.kind} {bits}"


class Span:
    """One timed interval in the causal tree."""

    __slots__ = ("id", "parent_id", "name", "kind", "start", "end",
                 "attrs", "annotations")

    def __init__(self, span_id: int, parent_id: int, name: str, kind: str,
                 start: float, attrs: Dict[str, Any]):
        self.id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs
        #: the events that happened inside the span
        self.annotations: List[Event] = []

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    @property
    def finished(self) -> bool:
        return self.end is not None

    def __repr__(self) -> str:
        end = f"{self.end:.3f}" if self.end is not None else "..."
        return (f"<Span #{self.id} {self.kind}:{self.name} "
                f"[{self.start:.3f}, {end}] parent={self.parent_id}>")


class Tracer:
    """Owns every event and span of one simulated platform run.

    ``events`` switches the flat stream, ``spans`` the tree (following
    ``events`` unless set).  Span ids are positive integers; 0 means
    "no span" everywhere (the value hot paths carry when spans are
    off).
    """

    def __init__(self, events: bool = True, spans: Optional[bool] = None):
        self.record_events = events
        self.record_spans = events if spans is None else spans
        #: the one flag call sites guard on
        self.enabled = self.record_events or self.record_spans
        self.events: List[Event] = []
        self._spans: Dict[int, Span] = {}
        self._next_id = 1
        #: total Span objects allocated — the zero-cost guard metric
        self.spans_created = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def event(self, time: float, kind: str, span: int = 0,
              **detail: Any) -> None:
        """Record one fact: append it to the flat stream and attach it
        to ``span`` (the span it happened in; 0 for none)."""
        if not self.enabled:
            return
        event = Event(time, kind, detail)
        if self.record_events:
            self.events.append(event)
        if span:
            owner = self._spans.get(span)
            if owner is not None:
                owner.annotations.append(event)

    def begin(self, name: str, kind: str, start: float,
              parent_id: Optional[int] = None, **attrs: Any) -> int:
        """Open a span; returns its id (0 when spans are off)."""
        if not self.record_spans:
            return 0
        span_id = self._next_id
        self._next_id += 1
        self.spans_created += 1
        self._spans[span_id] = Span(span_id, parent_id or 0, name, kind,
                                    start, attrs)
        return span_id

    def end(self, span_id: int, end: float, **attrs: Any) -> None:
        """Close a span; extra attrs are merged in."""
        span = self._spans.get(span_id)
        if span is None:
            return
        span.end = end
        if attrs:
            span.attrs.update(attrs)

    # ------------------------------------------------------------------
    # querying the event stream
    # ------------------------------------------------------------------

    def of_kind(self, *kinds: str) -> List[Event]:
        wanted = set(kinds)
        return [e for e in self.events if e.kind in wanted]

    def for_task(self, task_id: str) -> List[Event]:
        return [e for e in self.events if e.detail.get("task") == task_id]

    def signature(self, *kinds: str) -> Tuple[Tuple[Any, ...], ...]:
        """A hashable, order-preserving fingerprint of the event
        sequence, for bit-identical replay assertions: two runs of the
        same seeded fault campaign must produce equal signatures.
        Restrict to specific ``kinds`` to compare a sub-stream."""
        events = self.events if not kinds else self.of_kind(*kinds)
        return tuple(
            (e.time, e.kind, tuple(sorted((k, repr(v))
                                          for k, v in e.detail.items())))
            for e in events)

    def render(self, events: Optional[Iterable[Event]] = None) -> str:
        """Human-readable lifetime rendering (the Figure 1 format)."""
        return "\n".join(repr(e) for e in (events if events is not None
                                           else self.events))

    # ------------------------------------------------------------------
    # querying the span tree
    # ------------------------------------------------------------------

    def get(self, span_id: int) -> Optional[Span]:
        return self._spans.get(span_id)

    def spans(self) -> List[Span]:
        return list(self._spans.values())

    def spans_of_kind(self, *kinds: str) -> List[Span]:
        wanted = set(kinds)
        return [s for s in self._spans.values() if s.kind in wanted]

    def open_spans(self) -> List[Span]:
        return [s for s in self._spans.values() if s.end is None]

    def children_of(self, span_id: int) -> List[Span]:
        return [s for s in self._spans.values() if s.parent_id == span_id]

    def child_index(self) -> Dict[int, List[Span]]:
        """parent id -> children, in creation order (one pass)."""
        index: Dict[int, List[Span]] = {}
        for span in self._spans.values():
            index.setdefault(span.parent_id, []).append(span)
        return index

    def ancestors(self, span_id: int) -> List[Span]:
        """The chain from ``span_id``'s parent up to its root."""
        chain: List[Span] = []
        span = self._spans.get(span_id)
        while span is not None and span.parent_id:
            span = self._spans.get(span.parent_id)
            if span is None:
                break
            chain.append(span)
        return chain

    def task_root(self, task_id: str) -> Optional[Span]:
        for span in self._spans.values():
            if span.kind == "task" and span.attrs.get("task") == task_id:
                return span
        return None

    def task_tree(self, task_id: str) -> List[Span]:
        """Every span reachable from the task's root span, preorder.

        This is the Figure-1 object: one task's complete distributed
        lifetime — queue hops, operation windows, fiber runs,
        persistence — as a single tree.
        """
        root = self.task_root(task_id)
        if root is None:
            return []
        index = self.child_index()
        out: List[Span] = []
        stack = [root]
        while stack:
            span = stack.pop()
            out.append(span)
            # reversed so preorder preserves creation order
            stack.extend(reversed(index.get(span.id, [])))
        return out

    def verify_parents(self) -> List[Span]:
        """Spans whose parent id doesn't resolve — integrity check."""
        return [s for s in self._spans.values()
                if s.parent_id and s.parent_id not in self._spans]

    def summary(self) -> Dict[str, Any]:
        by_kind: Dict[str, int] = {}
        for span in self._spans.values():
            by_kind[span.kind] = by_kind.get(span.kind, 0) + 1
        return {
            "enabled": self.record_spans,
            "created": self.spans_created,
            "open": sum(1 for s in self._spans.values() if s.end is None),
            "by_kind": by_kind,
        }

    # ------------------------------------------------------------------
    # rendering (the Figure-1 tree)
    # ------------------------------------------------------------------

    def render_tree(self, root: Span,
                    attr_keys: Iterable[str] = ("node", "msg", "attempt",
                                                "retry_of", "bytes")) -> str:
        """Indented text rendering of a span subtree."""
        index = self.child_index()
        lines: List[str] = []

        def visit(span: Span, depth: int) -> None:
            end = f"{span.end:.3f}" if span.end is not None else "..."
            bits = " ".join(f"{k}={span.attrs[k]}" for k in attr_keys
                            if k in span.attrs)
            lines.append(f"{'  ' * depth}{span.kind} {span.name} "
                         f"[{span.start:.3f} -> {end}]"
                         + (f" {bits}" if bits else ""))
            for time, name, _attrs in span.annotations:
                lines.append(f"{'  ' * (depth + 1)}@ {time:.3f} {name}")
            for child in index.get(span.id, []):
                visit(child, depth + 1)

        visit(root, 0)
        return "\n".join(lines)
