"""Adaptive scheduling (the ``repro.sched`` layer).

The paper's production system throttles ``for-each``/``parallel``
fan-out with a *static* spawn limit (Section 3.5) and load-balances via
a strict-priority queue (Section 5) — under sustained load that either
under-drives or overloads the cluster, and a flood of high-priority
messages can starve normal traffic indefinitely.  This package replaces
both mechanisms with feedback-driven ones:

* :mod:`repro.sched.governor` — an AIMD **spawn governor** that tunes
  the effective spawn limit from live queue-depth and latency signals
  (additive increase while the cluster has headroom, multiplicative
  decrease when queues back up), exposed to Gozer code as
  ``(vinz-auto-spawn-limit)`` alongside the paper's static
  ``set-spawn-limit``;
* :mod:`repro.sched.fair` — a **fair scheduler** for the message
  queue: deficit round-robin across workflows (task ids) with priority
  aging, so sustained high-priority storms cannot starve
  ``PRIORITY_NORMAL`` traffic.  Pluggable behind the existing
  ``MessageQueue.pop_next``/``peek_priority`` API, so the cluster's
  dispatch loop is unchanged.

Like the paper's production queue, the cluster accepts every message it
is sent.  Every decision is observable: ``sched.*`` counters and gauges
in the metrics registry, plus ``sched``-kind spans in the causal trace.
See ``docs/scheduler.md``.
"""

from .fair import (
    DeficitRoundRobinPolicy,
    SchedulingPolicy,
    StrictPriorityPolicy,
    make_policy,
)
from .governor import AUTO_SPAWN_LIMIT, SpawnGovernor

__all__ = [
    "DeficitRoundRobinPolicy", "SchedulingPolicy", "StrictPriorityPolicy",
    "make_policy",
    "AUTO_SPAWN_LIMIT", "SpawnGovernor",
]
