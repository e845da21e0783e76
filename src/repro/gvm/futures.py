"""Futures — Gozer's local-parallelism primitive (paper Section 2).

A future "represents a computation that may not have completed yet, and
represents a promise to deliver the value of that computation when
required".  The GVM manages execution and determination transparently;
the programmer-facing operators are the ``future`` macro (a special
form here), ``touch`` and ``pcall``.

Determination rules implemented from Section 4.1:

* passing a future to a host ("Java") library or a service determines
  it — the VM forces future arguments before invoking host callables;
* capturing a continuation determines every future referenced from it
  ("the continuation doesn't become available until all futures have
  completed");
* futures pickle as their determined value, so a persisted fiber never
  contains a running computation.

The executor abstraction mirrors the JVM's ``ExecutorService``; BlueBox
supplies a load-balancing implementation
(:class:`repro.bluebox.executor.LoadBalancingExecutor`), and Vinz
configures fibers to use it — here the default is a plain thread pool.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Optional

from ..lang.errors import GozerRuntimeError

_PENDING = "pending"
_RUNNING = "running"
_DETERMINED = "determined"
_FAILED = "failed"

#: Per-thread flag: is this thread advancing a fiber (as opposed to a
#: future's background processing thread)?  Vinz consults this to decide
#: whether a service request may migrate the fiber (paper Section 3.2:
#: "If a service request is attempted from a future's background
#: processing thread ... Vinz detects this and automatically makes a
#: standard synchronous request").
_thread_state = threading.local()


def enter_fiber_thread() -> None:
    _thread_state.is_fiber = True


def exit_fiber_thread() -> None:
    _thread_state.is_fiber = False


def is_fiber_thread() -> bool:
    return getattr(_thread_state, "is_fiber", False)


class GozerFuture:
    """A promise for the value of a different flow of control.

    Until determined the future is *undetermined*; ``touch`` blocks the
    toucher until determination.  Failure is propagated at touch time:
    the stored exception is re-raised in the touching thread.
    """

    __slots__ = ("_state", "_value", "_error", "_event", "label")

    def __init__(self, label: str = "future"):
        self._state = _PENDING
        self._value: Any = None
        self._error: Optional[BaseException] = None
        self._event = threading.Event()
        self.label = label

    # -- state transitions (called by the executor) --------------------

    def _mark_running(self) -> None:
        self._state = _RUNNING

    def _determine(self, value: Any) -> None:
        self._value = value
        self._state = _DETERMINED
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._state = _FAILED
        self._event.set()

    # -- programmer-facing ---------------------------------------------

    @property
    def determined(self) -> bool:
        return self._state in (_DETERMINED, _FAILED)

    def touch(self, timeout: Optional[float] = None) -> Any:
        """Await determination and return the value (paper's ``touch``)."""
        if not self._event.wait(timeout):
            raise GozerRuntimeError(f"touch: timed out awaiting {self.label}")
        if self._state == _FAILED:
            raise self._error
        return self._value

    def __repr__(self) -> str:
        return f"#<future {self.label} {self._state}>"

    # -- serialization --------------------------------------------------
    # A future pickles as its determined value (Section 4.1's rule that
    # persistence implies determination).  Pickling an undetermined
    # future blocks until it determines, and a failed one raises its
    # error: this is how continuation capture determines every future
    # reachable from the stack.

    def __getstate__(self):
        value = self.touch()
        return {"label": self.label, "value": value}

    def __setstate__(self, state):
        self._event = threading.Event()
        self.label = state["label"]
        self._error = None
        self._determine(state["value"])


def force(value: Any) -> Any:
    """Return ``value``, touching it first if it is a future."""
    if isinstance(value, GozerFuture):
        return value.touch()
    return value


def force_all(values) -> list:
    return [force(v) for v in values]


class FutureExecutor:
    """Runs future computations; the GVM's ``ExecutorService``.

    ``submit`` takes a zero-argument thunk (already bound to a runtime)
    and returns a :class:`GozerFuture`.  Subclasses change *where* the
    thunk runs: threads here, load-balanced cluster slots in BlueBox's
    implementation, inline in the deterministic test executor.
    """

    def submit(self, thunk: Callable[[], Any], label: str = "future") -> GozerFuture:
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release any worker resources (idempotent)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
        return False


class ThreadPoolFutureExecutor(FutureExecutor):
    """Default executor: a shared thread pool, like the JVM's."""

    def __init__(self, max_workers: int = 8):
        self._pool = ThreadPoolExecutor(max_workers=max_workers,
                                        thread_name_prefix="gozer-future")
        self._lock = threading.Lock()
        self._shutdown = False

    def submit(self, thunk: Callable[[], Any], label: str = "future") -> GozerFuture:
        future = GozerFuture(label)

        def run():
            exit_fiber_thread()  # background threads are not fiber threads
            future._mark_running()
            try:
                future._determine(thunk())
            except BaseException as exc:  # noqa: BLE001 - stored, re-raised at touch
                future._fail(exc)

        with self._lock:
            if self._shutdown:
                raise GozerRuntimeError("executor has been shut down")
            self._pool.submit(run)
        return future

    def shutdown(self) -> None:
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
        self._pool.shutdown(wait=True)


class SynchronousFutureExecutor(FutureExecutor):
    """Deterministic executor: runs the thunk immediately, inline.

    Used by tests and the discrete-event cluster, where wall-clock
    thread scheduling would break reproducibility.
    """

    def __init__(self):
        self.submitted = 0

    def submit(self, thunk: Callable[[], Any], label: str = "future") -> GozerFuture:
        self.submitted += 1
        future = GozerFuture(label)
        future._mark_running()
        # While the thunk runs it must observe background-thread
        # semantics (is-fiber-thread false), even though it runs inline.
        was_fiber = is_fiber_thread()
        exit_fiber_thread()
        try:
            future._determine(thunk())
        except BaseException as exc:  # noqa: BLE001
            future._fail(exc)
        finally:
            if was_fiber:
                enter_fiber_thread()
        return future
