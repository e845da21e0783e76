"""Shared fixtures for the Gozer reproduction test suite."""

from __future__ import annotations

import signal

import pytest

from repro.gvm.runtime import Runtime, make_runtime
from repro.vinz.api import VinzEnvironment

#: Seconds one test may run before it fails.  The slowest test takes
#: about 3.5 s (``--durations``); a test that loops forever, such as a
#: loop region that never sees its counter change, fails here instead
#: of hanging the suite.
TEST_TIME_LIMIT = 60.0


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Run each test under a watchdog: ``SIGALRM`` after
    :data:`TEST_TIME_LIMIT` seconds fails it, naming it.  The failure is
    pytest's own outcome, not an ``Exception``, so the VM cannot turn it
    into a condition a program handles."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(_signum, _frame):
        pytest.fail(f"{item.nodeid} ran longer than {TEST_TIME_LIMIT:g} s",
                    pytrace=True)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rt() -> Runtime:
    """A deterministic runtime (synchronous futures)."""
    runtime = make_runtime(deterministic=True)
    yield runtime
    runtime.shutdown()


@pytest.fixture
def threaded_rt() -> Runtime:
    """A runtime with a real thread-pool future executor."""
    runtime = make_runtime(deterministic=False, max_workers=4)
    yield runtime
    runtime.shutdown()


@pytest.fixture
def vinz() -> VinzEnvironment:
    """A 4-node Vinz environment with default settings."""
    return VinzEnvironment(nodes=4, seed=42)


def ev(runtime: Runtime, text: str):
    """Evaluate Gozer source, returning the last value."""
    return runtime.eval_string(text)
