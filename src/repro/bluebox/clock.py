"""Clocks and the discrete-event simulation kernel.

The paper's BlueBox is a real distributed cluster; our stand-in runs as
a discrete-event simulation so that benchmarks over "12-hour" tasks
(Section 5's production statistics) complete in milliseconds and every
run is deterministic.  Handlers execute real Python instantly but
*charge* simulated seconds; the kernel advances virtual time from event
to event.
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import Any, Callable, List, Optional, Tuple


class Clock:
    """Abstract time source."""

    def now(self) -> float:
        raise NotImplementedError


class RealClock(Clock):
    """Wall-clock time (monotonic)."""

    def now(self) -> float:
        return time.monotonic()


class VirtualClock(Clock):
    """Simulated time, advanced only by the kernel."""

    def __init__(self, start: float = 0.0):
        self._now = start

    def now(self) -> float:
        return self._now

    def _advance_to(self, t: float) -> None:
        if t < self._now:
            raise ValueError(f"time cannot go backwards ({t} < {self._now})")
        self._now = t


class SimKernel:
    """A minimal discrete-event scheduler.

    Events are ``(time, priority, seq, fn)``; ``run_until_idle`` pops
    them in order, advancing the virtual clock.  ``seq`` breaks ties
    deterministically (FIFO among same-time, same-priority events).
    """

    def __init__(self):
        self.clock = VirtualClock()
        self._events: List[Tuple[float, int, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._running = False
        #: safety valve against runaway simulations
        self.max_events = 10_000_000
        self.processed_events = 0

    @property
    def now(self) -> float:
        return self.clock.now()

    def schedule(self, delay: float, fn: Callable[[], None],
                 priority: int = 0) -> None:
        """Run ``fn`` at ``now + delay``.  Lower priority runs first
        among simultaneous events."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(self._events,
                       (self.now + delay, priority, next(self._seq), fn))

    def schedule_at(self, when: float, fn: Callable[[], None],
                    priority: int = 0) -> None:
        self.schedule(max(0.0, when - self.now), fn, priority)

    def run_until_idle(self) -> float:
        """Process events until none remain; return the final time."""
        if self._running:
            raise RuntimeError("kernel is already running (no re-entrancy)")
        self._running = True
        try:
            while self._events:
                when, _priority, _seq, fn = heapq.heappop(self._events)
                self.clock._advance_to(when)
                fn()
                self.processed_events += 1
                if self.processed_events > self.max_events:
                    raise RuntimeError(
                        f"simulation exceeded {self.max_events} events; "
                        "likely a livelock")
            return self.now
        finally:
            self._running = False

    def run_until(self, predicate: Callable[[], bool],
                  deadline: Optional[float] = None) -> bool:
        """Process events until ``predicate()`` is true.

        Returns True if the predicate was satisfied, False if events ran
        out (or ``deadline`` virtual time passed) first.
        """
        if self._running:
            raise RuntimeError("kernel is already running (no re-entrancy)")
        if predicate():
            return True
        self._running = True
        try:
            while self._events:
                when, _priority, _seq, fn = heapq.heappop(self._events)
                if deadline is not None and when > deadline:
                    heapq.heappush(self._events, (when, _priority, _seq, fn))
                    return predicate()
                self.clock._advance_to(when)
                fn()
                self.processed_events += 1
                if predicate():
                    return True
                if self.processed_events > self.max_events:
                    raise RuntimeError("simulation event limit exceeded")
            return predicate()
        finally:
            self._running = False

    def pending(self) -> int:
        return len(self._events)
