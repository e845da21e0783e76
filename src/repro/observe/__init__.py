"""Observability: the tracer, the metrics registry, and exporters.

The paper leans on BlueBox's "monitoring and management features"
(Section 1), and its Figure 1 is literally a trace of one workflow's
lifetime across the queue, fibers, and persistence.  This package is
that layer for the reproduction:

* :mod:`repro.observe.tracer` — the :class:`Tracer`: the flat,
  ordered event stream (the Figure-1 format) and the causal span tree.
  Spans form a tree (task -> fiber -> queue hop -> operation window ->
  fiber run -> persistence encode/decode); parent ids propagate through
  :class:`~repro.bluebox.messagequeue.Message` headers, fiber state and
  the Vinz service loop, so one task's full distributed lifetime
  reconstructs as a tree even across node migrations and fault-driven
  redeliveries.
* :mod:`repro.observe.metrics` — the :class:`MetricsRegistry`:
  always-on counters and concurrency levels, plus gauges and
  fixed-bucket histograms with p50/p95/p99 snapshots (queue wait,
  fiber resume latency, blob sizes, ...).
* :mod:`repro.observe.export` — Chrome ``trace_event`` JSON (loadable
  in Perfetto / ``chrome://tracing``) and a plain-JSON report.

Tracing is zero-cost when disabled: every call site guards on the
tracer's single ``enabled`` flag before building anything.
"""

from .metrics import Gauge, Histogram, Level, MetricsRegistry
from .tracer import Event, Span, Tracer

__all__ = [
    "Event", "Gauge", "Histogram", "Level", "MetricsRegistry",
    "Span", "Tracer",
]
