"""Fiber cache and process registry unit tests."""

import pytest

from repro.faults import (FaultInjector, FaultPlan, NodeFault, RetryPolicy,
                          StoreFault)
from repro.faults.plan import CRASH, FAIL_WRITE
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
        """The caches count nothing themselves: the hit rates are the
        registry's counts.  On one node every resume finds the version
        its suspension cached; the task env misses only the first time
        the node reads it."""
        env = VinzEnvironment(nodes=1, seed=1)
        env.deploy_workflow("W", """
            (defun main (params) (workflow-sleep 0.1)
                                 (workflow-sleep 0.1) :done)""")
        env.wait_for_task(env.start("W", None))
        assert env.cache_hit_rates() == {"mutable": 1.0,
                                         "immutable": pytest.approx(2 / 3)}
        assert env.metrics.get("cache.mutable.hit") == 2

    def test_hit_rate_empty(self):
        assert VinzEnvironment(nodes=1).cache_hit_rates() == \
            {"mutable": 0.0, "immutable": 0.0}

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

    def test_one_entry_per_fiber(self):
        """A new version replaces the old one: the cache holds the
        newest version seen, and only the exact version hits."""
        cache = FiberCache(mutable_capacity=2)
        cache.put_continuation("f1", 1, "state-v1")
        cache.put_continuation("f1", 2, "state-v2")
        cache.put_continuation("f2", 1, "other")
        assert len(cache.mutable) == 2
        assert cache.get_continuation("f1", 1) is None
        assert cache.get_continuation("f1", 2) == "state-v2"

    def test_newest_before_bounds(self):
        """A warm base is strictly above the floor and strictly below
        the wanted version, and asking leaves the LRU order alone."""
        cache = FiberCache()
        cache.put_continuation("f1", 4, "state-v4")
        assert cache.newest_before("f1", 6, 0) == ("state-v4", 4)
        assert cache.newest_before("f1", 6, 3) == ("state-v4", 4)
        assert cache.newest_before("f1", 6, 4) is None   # floor is as new
        assert cache.newest_before("f1", 4, 0) is None   # exact: a hit
        assert cache.newest_before("f1", 3, 0) is None   # newer than wanted
        assert cache.newest_before("f2", 6, 0) is None
        cache.put_continuation("f2", 1, "other")
        cache.newest_before("f1", 6, 0)
        assert list(cache.mutable._data) == ["f1", "f2"]

    def test_evict_threshold(self):
        """Abort rollback drops the entry only when it holds the first
        rolled-back version or later."""
        cache = FiberCache()
        cache.put_continuation("f1", 4, "state-v4")
        cache.evict_continuation("f1", 5)
        assert cache.get_continuation("f1", 4) == "state-v4"
        cache.evict_continuation("f1", 4)
        assert cache.get_continuation("f1", 4) is None
        cache.put_continuation("f1", 4, "state-v4")
        cache.evict_continuation("f1", 2)
        assert cache.newest_before("f1", 9, 0) is None

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


#: every suspension follows a fresh draw: a continuation left behind by
#: an aborted window carries a number the history never recorded
DRAWS = """
(defun main (params)
  (let ((acc (list)))
    (dotimes (i 7)
      (append! acc (random 1000000))
      (workflow-sleep 1))
    acc))
"""


def _aborted_warm_windows(env):
    """Fiber runs inside an aborted window that rebuilt their fiber
    forward from a version held in the node's cache."""
    spans = env.cluster.tracer.spans()
    aborted = {span.id for span in spans
               if span.kind == "operation" and span.attrs.get("aborted")}
    return [span for span in spans if span.parent_id in aborted
            and any(event.kind == "fiber-rebuild"
                    and event.detail["base_from"] == "cache"
                    for event in span.annotations)]


class TestWarmBaseAbort:
    """Snapshot interval 3 on two nodes, and no instruction cost: before
    the first snapshot a cold rebuild costs no virtual time, so no
    resume waits for the node that holds its version, and many rebuild
    forward from an older version the node they land on still caches.
    Such a window caches the next version, then aborts.  The abort
    discards that version's draw, so it must evict it too: a later
    resume or rebuild on that node starting from it would carry a draw
    the history never recorded."""

    @pytest.mark.parametrize("seed, fault", [
        (12, StoreFault(action=FAIL_WRITE, key_prefix="history//", nth=7)),
        (1, NodeFault(CRASH, on_persist=1, restart_after=0.5)),
    ], ids=["fail-write", "crash-on-persist"])
    def test_retry_finishes_with_the_recorded_draws(self, seed, fault):
        env = VinzEnvironment(nodes=2, seed=seed, history="on",
                              snapshot_interval=3,
                              retry_policy=RetryPolicy.default())
        env.deploy_workflow("W", DRAWS, instruction_cost=0.0)
        injector = FaultInjector(seed, FaultPlan([fault])).install(env)
        tasks = [env.start("W", None) for _ in range(2)]
        env.cluster.run_until_idle()
        assert sum(injector.injected.values()) == 1
        assert _aborted_warm_windows(env)
        for task_id in tasks:
            task = env.registry.tasks[task_id]
            draws = [event.payload["value"]
                     for event in env.history.events_of(task_id)
                     if event.kind == "nondet"
                     and event.payload.get("op") == "random"]
            assert (task.status, task.result) == (COMPLETED, draws)
            env.replay_task(task_id)  # raises on the first divergence


def test_node_death_sends_the_next_rebuild_to_snapshot_or_start():
    """A node's death wipes its cache: with one node every resume hits
    the cache until the node dies between suspensions, and the next
    load rebuilds from the last snapshot, or from the start before the
    first one."""
    env = VinzEnvironment(nodes=1, seed=3, history="on",
                          snapshot_interval=4)
    env.deploy_workflow("W", ACCUMULATE)
    task_id = env.start("W", list(range(8)))
    fiber = env.registry.fibers_of(task_id)[0]
    for version in (2, 6):
        env.cluster.run_until(lambda: fiber.version == version
                              and not env.cluster._in_flight)
        env.fail_node("node-1")
        env.restore_node("node-1")
    task = env.wait_for_task(task_id)
    assert (task.status, task.result) == (COMPLETED, list(range(8)))
    rebuilds = [(event.detail["version"], event.detail["base_from"])
                for event in env.cluster.tracer.of_kind("fiber-rebuild")]
    assert rebuilds == [(2, "start"), (6, "snapshot")]
    assert [span.attrs["base_from"] for span in env.cluster.tracer.spans()
            if span.name == "history.replay"] == ["start", "snapshot"]
    assert env.summary()["history"]["rebuild_base"] == \
        {"cache": 0, "snapshot": 1, "start": 1}


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
