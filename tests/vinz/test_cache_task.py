"""Fiber cache and process registry unit tests."""

import pytest

from repro.faults import FaultInjector, FaultPlan, NodeFault, StoreFault
from repro.faults.plan import CRASH, FAIL_WRITE
from repro.faults.retry import RetryPolicy
from repro.vinz.api import VinzEnvironment
from repro.vinz.cache import FiberCache, LruCache
from repro.vinz.task import (
    COMPLETED,
    ERROR,
    PENDING,
    ProcessRegistry,
    RUNNING,
    TERMINATED,
)


class TestLruCache:
    def test_get_put(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b") is None

    def test_eviction_order(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")       # refresh a
        cache.put("c", 3)    # evicts b (LRU)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_hit_rate(self):
        cache = LruCache(capacity=4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.get("miss")
        assert cache.hits == 2
        assert cache.misses == 1
        assert cache.hit_rate == pytest.approx(2 / 3)

    def test_hit_rate_empty(self):
        assert LruCache().hit_rate == 0.0

    def test_invalidate(self):
        cache = LruCache()
        cache.put("a", 1)
        cache.invalidate("a")
        assert cache.get("a") is None

    def test_overwrite_key(self):
        cache = LruCache()
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.get("a") == 2
        assert len(cache) == 1


class TestFiberCache:
    def test_continuation_keyed_by_version(self):
        """A continuation cached at version 1 must not satisfy a lookup
        for version 2 — stale state would corrupt the fiber."""
        cache = FiberCache()
        cache.put_continuation("f1", 1, "state-v1")
        assert cache.get_continuation("f1", 1) == "state-v1"
        assert cache.get_continuation("f1", 2) is None

    def test_task_env_keyed_by_task(self):
        cache = FiberCache()
        cache.put_task_env("t1", {"params": 1})
        assert cache.get_task_env("t1") == {"params": 1}
        assert cache.get_task_env("t2") is None

    def test_for_node_attaches_to_memory(self):
        class FakeNode:
            memory = {}

        node = FakeNode()
        c1 = FiberCache.for_node(node)
        c2 = FiberCache.for_node(node)
        assert c1 is c2

    def test_node_failure_loses_cache(self):
        """Cluster wipes node memory on failure; a new cache appears."""
        class FakeNode:
            def __init__(self):
                self.memory = {}

        node = FakeNode()
        c1 = FiberCache.for_node(node)
        node.memory.clear()
        c2 = FiberCache.for_node(node)
        assert c1 is not c2


ACCUMULATE = """
(defun main (params)
  (let ((acc (list)))
    (dolist (i params)
      (workflow-sleep 1)
      (append! acc i))
    acc))
"""

#: the same, with the list reachable only through a callable instance
#: (``constantly``'s result), which a capture must copy like any data
ACCUMULATE_CONSTANTLY = """
(defun main (params)
  (let ((c (constantly (list))))
    (dolist (i params)
      (workflow-sleep 1)
      (append! (funcall c) i))
    (funcall c)))
"""


class TestCachedContinuationIsolation:
    """A continuation served from the node cache is resumed by a window
    that mutates its state and then aborts while persisting the next
    version.  The retry must resume the cached version as it was
    persisted — whether the retry hits the same cache entry (the store
    write failed; the node lives) or the store (the node died)."""

    @pytest.mark.parametrize("source", [ACCUMULATE, ACCUMULATE_CONSTANTLY],
                             ids=["let", "constantly"])
    @pytest.mark.parametrize("fault", [
        StoreFault(action=FAIL_WRITE, key_prefix="fiber-state/", nth=2),
        NodeFault(CRASH, on_persist=2, restart_after=0.5),
    ], ids=["fail-write", "crash-on-persist"])
    def test_aborted_resume_leaves_cached_version_intact(self, fault,
                                                         source):
        env = VinzEnvironment(nodes=1, seed=3,
                              retry_policy=RetryPolicy.default())
        env.deploy_workflow("W", source)
        injector = FaultInjector(3, FaultPlan([fault])).install(env)
        task = env.wait_for_task(env.start("W", list(range(4))))
        assert (task.status, task.result) == (COMPLETED, [0, 1, 2, 3])
        assert sum(injector.injected.values()) == 1
        assert env.metrics.get("cache.mutable.hit") >= 1
        # a retry resuming the aborted window's mutated frames would
        # skip one sleep: every suspension must persist its own version
        fiber = env.registry.fibers[task.fiber_ids[0]]
        assert fiber.version == 4 and task.duration >= 4.0


class TestProcessRegistry:
    def test_task_and_fiber_creation(self):
        reg = ProcessRegistry()
        task = reg.new_task("WF", {"p": 1}, now=1.0)
        fiber = reg.new_fiber(task, now=1.0)
        assert task.status == PENDING
        assert fiber.task_id == task.id
        assert task.fiber_ids == [fiber.id]
        assert reg.task_of(fiber.id) is task

    def test_unique_ids(self):
        reg = ProcessRegistry()
        tasks = [reg.new_task("WF", None, 0.0) for _ in range(3)]
        assert len({t.id for t in tasks}) == 3

    def test_child_fiber_parentage(self):
        reg = ProcessRegistry()
        task = reg.new_task("WF", None, 0.0)
        parent = reg.new_fiber(task, 0.0)
        child = reg.new_fiber(task, 1.0, parent_id=parent.id,
                              notify_parent=True)
        assert child.parent_id == parent.id
        assert child.notify_parent
        assert not parent.notify_parent
        assert len(reg.fibers_of(task.id)) == 2

    def test_finish_task_fires_listeners_once(self):
        reg = ProcessRegistry()
        task = reg.new_task("WF", None, 0.0)
        hits = []
        task.completion_listeners.append(lambda t: hits.append(t.status))
        reg.finish_task(task, COMPLETED, now=5.0, result=42)
        reg.finish_task(task, ERROR, now=6.0)  # ignored: already finished
        assert hits == [COMPLETED]
        assert task.result == 42
        assert task.status == COMPLETED
        assert task.duration == 5.0

    def test_finish_fiber(self):
        reg = ProcessRegistry()
        task = reg.new_task("WF", None, 0.0)
        fiber = reg.new_fiber(task, 0.0)
        reg.finish_fiber(fiber, ERROR, now=2.0, error="boom")
        assert fiber.finished
        assert fiber.error == "boom"
        reg.finish_fiber(fiber, COMPLETED, now=3.0)  # no-op
        assert fiber.status == ERROR

    def test_counts_and_active(self):
        reg = ProcessRegistry()
        t1 = reg.new_task("WF", None, 0.0)
        t2 = reg.new_task("WF", None, 0.0)
        reg.finish_task(t1, TERMINATED, 1.0)
        assert reg.counts() == {TERMINATED: 1, PENDING: 1}
        assert reg.active_tasks() == [t2]

    def test_statuses(self):
        reg = ProcessRegistry()
        task = reg.new_task("WF", None, 0.0)
        assert not task.finished
        task.status = RUNNING
        assert not task.finished
        reg.finish_task(task, COMPLETED, 1.0)
        assert task.finished
