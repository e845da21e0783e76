"""Deterministic replay: verification sweeps, divergence detection,
snapshot-interval elision and replay-based crash recovery."""

import random

import pytest

from repro.faults import FaultInjector, RetryPolicy
from repro.faults.campaign import run_campaign
from repro.faults.plan import (
    FAIL_WRITE,
    FaultPlan,
    MessageFault,
    NodeFault,
    StoreFault,
)
from repro.history import HistoryEvent, ReplayDivergenceError
from repro.lang.symbols import Keyword
from repro.vinz.api import VinzEnvironment
from repro.vinz.task import COMPLETED, ERROR

CHAOS = FaultPlan([
    MessageFault("drop", operation="RunFiber", nth=2, count=2),
    MessageFault("duplicate", operation="AwakeFiber", nth=1, count=2),
    NodeFault("crash", at=1.0, restart_after=2.0),
], name="chaos")

CRASHY = FaultPlan([
    NodeFault("crash", on_lock=3, restart_after=2.0),
    NodeFault("crash", on_persist=5, restart_after=2.0),
    MessageFault("drop", operation="RunFiber", nth=1, count=2),
], name="crashy")

#: a workflow exercising the recorded-nondeterminism builtins: clock
#: reads, RNG draws, gensym — all must replay from history, not rerun
NONDET_WORKFLOW = """
(defun main (params)
  (let* ((items (getf params :items))
         (t0 (get-universal-time))
         (tag (gensym "run"))
         (doubled (for-each (x in items)
                    (compute 0.1)
                    (+ (* x 2) (random 1)))))
    (list :total (apply #'+ doubled)
          :started (< t0 (get-universal-time))
          :tag (if tag 1 0))))
"""


class TestVerificationReplay:
    def test_chaos_campaign_replays_with_zero_divergences(self):
        report = run_campaign(CHAOS, seed=17, tasks=6, history="on")
        assert report.all_completed, report.statuses
        replays = report.replay_all()
        assert len(replays) == 6
        assert sum(r.windows for r in replays) > 6
        assert sum(r.instructions for r in replays) > 0
        assert report.env.cluster.metrics.get("history.replays") == 6

    def test_nondet_builtins_replay_from_history(self):
        env = VinzEnvironment(nodes=3, seed=23, history="on")
        env.deploy_workflow("Nondet", NONDET_WORKFLOW, spawn_limit=2)
        task_id = env.run("Nondet", [Keyword("items"), [1, 2, 3, 4]])
        assert env.registry.tasks[task_id].status == COMPLETED
        kinds = {e.payload.get("op") for e in env.history.events_of(task_id)
                 if e.kind == "nondet"}
        assert "clock" in kinds
        assert "random" in kinds
        assert "gensym" in kinds
        report = env.replay_task(task_id)
        assert report.fibers_replayed == 5

    def test_divergence_pinpoints_first_mismatch(self):
        """Tamper with one recorded nondet value: replay must fail at
        exactly that event, naming the fiber and sequence number."""
        env = VinzEnvironment(nodes=3, seed=23, history="on")
        env.deploy_workflow("Nondet", NONDET_WORKFLOW, spawn_limit=2)
        task_id = env.run("Nondet", [Keyword("items"), [1, 2]])
        events = env.history.events_of(task_id)
        victim = next(e for e in events
                      if e.kind == "nondet"
                      and e.payload.get("op") == "collect")
        victim.payload = dict(victim.payload,
                              value=[("completed", 999, None)] * 2)
        with pytest.raises(ReplayDivergenceError) as info:
            env.replayer.replay_task(task_id, source="memory")
        err = info.value
        assert err.task == task_id
        assert err.fiber == victim.fiber
        assert err.seq is not None

    def test_tampered_result_detected(self):
        env = VinzEnvironment(nodes=3, seed=23, history="on")
        env.deploy_workflow("Nondet", NONDET_WORKFLOW, spawn_limit=2)
        task_id = env.run("Nondet", [Keyword("items"), [1, 2]])
        events = env.history.events_of(task_id)
        terminal = next(e for e in events if e.kind == "fiber-completed"
                        and e.fiber == env.registry.tasks[task_id].fiber_ids[0])
        terminal.payload = dict(terminal.payload, result="forged")
        with pytest.raises(ReplayDivergenceError):
            env.replayer.replay_task(task_id, source="memory")


class TestFailedWhileSuspended:
    """The platform fails a suspended fiber: its stream records
    FiberSuspended, then FiberFailed where a resume would be.  Replay
    ends the fiber there with the recorded error.  A fiber whose first
    delivery dead-lettered never ran: its stream is that FiberFailed
    alone, and replay ends it without running it."""

    def _replay(self, env, task_id):
        task = env.registry.tasks[task_id]
        assert task.status == ERROR
        assert [e.kind for e in env.history.events_of(task_id)][-2:] == \
            ["fiber-suspended", "fiber-failed"]
        report = env.replay_task(task_id)  # raises on a divergence
        assert report.fibers_replayed == 1 and not report.partial_fibers
        return task

    def test_join_on_a_missing_process(self):
        env = VinzEnvironment(nodes=2, seed=5, history="on")
        env.deploy_workflow("W", '(defun main (p) (join-process "nobody"))')
        task = self._replay(env, env.run("W", None))
        assert "NoSuchProcess" in task.error

    def test_dead_lettered_wake_up(self):
        env = VinzEnvironment(nodes=2, seed=5, history="on",
                              retry_policy=RetryPolicy(
                                  max_attempts=3, base_delay=0.01,
                                  max_delay=0.1, jitter=0.0))
        env.deploy_workflow("W", """
            (defun main (p) (workflow-sleep 1) (workflow-sleep 1) :done)""")
        # the first persist succeeds; resuming from it never can
        FaultInjector(5, FaultPlan([StoreFault(
            FAIL_WRITE, key_prefix="fiber-state/", nth=2,
            count=10_000)])).install(env)
        task_id = env.start("W", None)
        env.cluster.run_until_idle()
        task = self._replay(env, task_id)
        assert "dead-lettered" in task.error
        assert env.cluster.queue.dead_lettered == 1

    @staticmethod
    def _runs_dead_lettered(source, nth):
        """Every RunFiber delivery from the ``nth`` on is dropped until
        its message dead-letters."""
        env = VinzEnvironment(nodes=2, seed=5, history="on",
                              retry_policy=RetryPolicy(
                                  max_attempts=3, base_delay=0.01,
                                  max_delay=0.1, jitter=0.0))
        env.deploy_workflow("W", source)
        FaultInjector(5, FaultPlan([MessageFault(
            "drop", operation="RunFiber", nth=nth,
            count=10_000)])).install(env)
        task_id = env.start("W", None)
        env.cluster.run_until_idle()
        assert env.registry.tasks[task_id].status == ERROR
        return env, task_id

    def test_root_fiber_dead_lettered_before_it_ran(self):
        env, task_id = self._runs_dead_lettered("(defun main (p) :done)", 1)
        assert [e.kind for e in env.history.events_of(task_id)] == \
            ["task-started", "fiber-failed"]
        report = env.replay_task(task_id)  # raises on a divergence
        assert report.fibers_replayed == 1 and report.instructions == 0

    def test_child_fiber_dead_lettered_before_it_ran(self):
        env, task_id = self._runs_dead_lettered(
            "(defun main (p) (for-each (x in '(1 2)) x))", 2)
        children = [fiber for fiber in env.registry.fibers.values()
                    if fiber.parent_id is not None]
        assert len(children) == 2
        for child in children:
            assert [e.kind for e in env.history.events_of(task_id)
                    if e.fiber == child.id] == ["fiber-failed"]
        report = env.replay_task(task_id)
        assert report.fibers_replayed == 3 and not report.partial_fibers

    def test_events_after_the_failure_diverge(self):
        env = VinzEnvironment(nodes=2, seed=5, history="on")
        env.deploy_workflow("W", '(defun main (p) (join-process "nobody"))')
        task_id = env.run("W", None)
        events = env.history.events_of(task_id)
        failed = events[-1]
        env.history.histories[task_id].append(HistoryEvent(
            failed.seq + 1, failed.kind, failed.fiber, failed.payload))
        with pytest.raises(ReplayDivergenceError) as info:
            env.replayer.replay_task(task_id, source="memory")
        assert info.value.seq == failed.seq + 1


class TestSnapshotInterval:
    def test_interval_skips_persists_and_still_completes(self):
        report = run_campaign(CHAOS, seed=17, tasks=6, history="on",
                              snapshot_interval=8)
        assert report.all_completed, report.statuses
        assert report.wrong_results() == []
        assert report.env.counters.get("persist.skipped") > 0
        report.replay_all()

    def test_interval_writes_fewer_bytes(self):
        every = run_campaign(CHAOS, seed=17, tasks=6, history="on",
                             snapshot_interval=1)
        sparse = run_campaign(CHAOS, seed=17, tasks=6, history="on",
                              snapshot_interval=8)
        assert sparse.env.counters.get_sum("persist.bytes") < \
            every.env.counters.get_sum("persist.bytes")
        assert sparse.env.counters.get("persist.writes") < \
            every.env.counters.get("persist.writes")

    def test_elided_version_rebuilt_by_replay(self):
        """Evict the fiber caches mid-run under an interval: loading a
        version that was never persisted must rebuild it from
        history (history.rebuilds ticks up) with correct results."""
        report = run_campaign(CRASHY, seed=21, tasks=4, nodes=4,
                              history="on", snapshot_interval=8,
                              locks="file", lease_ttl=1.0)
        assert report.all_completed, report.statuses
        assert report.wrong_results() == []
        assert report.env.counters.get("history.rebuilds") > 0
        report.replay_all()


class TestReplayRecovery:
    def test_replay_recovery_reads_no_continuation_snapshots(self):
        """Under ``recovery="replay"`` a crashed fiber's state comes
        back by re-execution: the fiber-state plane is write-only."""
        env = VinzEnvironment(nodes=3, seed=7, locks="file",
                              lease_ttl=1.0, history="on",
                              recovery="replay")
        state_reads = []
        original_read = env.store.read

        def spying_read(key):
            if key.startswith("fiber-state/"):
                state_reads.append(key)
            return original_read(key)

        env.store.read = spying_read
        env.deploy_workflow("Recovery", """
(defun main (params)
  (let* ((items (getf params :items))
         (doubled (for-each (x in items) (compute 0.4) (* x 2))))
    (list :id (getf params :id) :total (apply #'+ doubled))))
""", spawn_limit=2)
        rng = random.Random(7)
        inputs = {}
        for i in range(3):
            items = [rng.randint(1, 9) for _ in range(3)]
            inputs[i] = items
            env.cluster.send("Recovery", "Start",
                             {"params": [Keyword("id"), i,
                                         Keyword("items"), items]})
        env.cluster.kernel.schedule_at(1.0,
                                       lambda: env.fail_node("node-1"))
        env.cluster.run_until_idle()
        assert state_reads == []
        assert env.counters.get("history.rebuilds") > 0
        for task in env.registry.tasks.values():
            assert task.status == COMPLETED, (task.id, task.error)
            plist = {task.result[i].name: task.result[i + 1]
                     for i in range(0, len(task.result), 2)}
            assert plist["total"] == sum(x * 2
                                         for x in inputs[plist["id"]])

    def test_replay_recovery_lock_invariants(self):
        """The lease-recovery campaign's verdict, under replay-based
        recovery: nothing stuck, nothing double-run, answers right."""
        report = run_campaign(CRASHY, seed=21, tasks=4, nodes=4,
                              history="on", recovery="replay",
                              locks="file", lease_ttl=1.0)
        assert report.all_completed, report.statuses
        assert report.wrong_results() == []
        assert report.stuck_fibers() == []
        assert report.single_runner_violations() == []
        report.replay_all()

    def test_replay_recovery_matches_snapshot_recovery_results(self):
        snap = run_campaign(CRASHY, seed=33, tasks=4, history="on",
                            recovery="snapshot")
        repl = run_campaign(CRASHY, seed=33, tasks=4, history="on",
                            recovery="replay")
        def totals(report):
            out = {}
            for task in report.env.registry.tasks.values():
                plist = {task.params[i].name: task.params[i + 1]
                         for i in range(0, len(task.params), 2)}
                rlist = {task.result[i].name: task.result[i + 1]
                         for i in range(0, len(task.result), 2)}
                out[plist["id"]] = rlist["total"]
            return out
        assert totals(snap) == totals(repl)
