"""BlueBox's load-balancing ExecutorService equivalent.

Paper Section 4.1: "the BlueBox platform provides an ExecutorService
that integrates with its native load balancing heuristics, and Vinz
configures futures to be created using this implementation."  Here the
integration is a cluster-wide concurrency budget: the pool refuses to
run more simultaneous future bodies than the cluster has spare
capacity, queueing the rest — which is what keeps a future-happy
workflow from starving co-located services.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

from ..gvm.futures import (
    FutureExecutor,
    GozerFuture,
    ThreadPoolFutureExecutor,
)


class ExecutorShutdownError(RuntimeError):
    """The executor was shut down while this future was still queued.

    Raised at ``touch`` time: a thunk that never ran can never
    determine its future, and an undetermined future would otherwise
    block the toucher forever.
    """


class LoadBalancingExecutor(FutureExecutor):
    """A bounded, observable future executor.

    ``capacity`` is the cluster's concurrent-future budget.  Submissions
    beyond it wait in FIFO order.  ``peak_in_use`` and
    ``total_submitted`` feed the monitoring layer.
    """

    def __init__(self, capacity: int = 8, max_workers: Optional[int] = None):
        self.capacity = capacity
        self._pool = ThreadPoolFutureExecutor(
            max_workers=max_workers or capacity)
        self._lock = threading.Lock()
        self._in_use = 0
        self._waiting: Deque[Tuple[Callable[[], Any], GozerFuture]] = deque()
        # statistics
        self.total_submitted = 0
        self.peak_in_use = 0
        self.peak_queue = 0

    def submit(self, thunk: Callable[[], Any], label: str = "future") -> GozerFuture:
        future = GozerFuture(label)
        with self._lock:
            self.total_submitted += 1
            if self._in_use < self.capacity:
                self._in_use += 1
                self.peak_in_use = max(self.peak_in_use, self._in_use)
                self._launch(thunk, future)
            else:
                self._waiting.append((thunk, future))
                self.peak_queue = max(self.peak_queue, len(self._waiting))
        return future

    def _launch(self, thunk: Callable[[], Any], future: GozerFuture) -> None:
        def run():
            future._mark_running()
            try:
                future._determine(thunk())
            except BaseException as exc:  # noqa: BLE001 - re-raised at touch
                future._fail(exc)
            finally:
                self._release()

        self._pool._pool.submit(run)

    def _release(self) -> None:
        with self._lock:
            if self._waiting:
                thunk, future = self._waiting.popleft()
                self._launch(thunk, future)
            else:
                self._in_use -= 1

    def shutdown(self) -> None:
        # queued thunks will never run: fail their futures with a typed
        # error so a later touch raises instead of hanging forever
        with self._lock:
            waiting, self._waiting = list(self._waiting), deque()
        for _thunk, future in waiting:
            future._fail(ExecutorShutdownError(
                f"executor shut down with future {future.label!r} "
                f"still queued"))
        self._pool.shutdown()
