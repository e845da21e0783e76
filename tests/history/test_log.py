"""The durable history plane: CRC-framed batches, determinism,
fail-closed integrity under injected damage."""

import pytest

from repro.bluebox.store import SharedStore
from repro.durastore import DurableStore
from repro.faults import FaultInjector
from repro.faults.campaign import run_campaign
from repro.faults.plan import (
    FAIL_WRITE,
    FaultPlan,
    HistoryFault,
    MessageFault,
    NodeFault,
    StoreFault,
)
from repro.history import (
    DroppedBatchError,
    HistoryCorruptionError,
    HistoryEvent,
    HistoryLog,
    TornHistoryError,
)
from repro.vinz.api import VinzEnvironment
from repro.vinz.persistence import FiberCodec

CHAOS = FaultPlan([
    MessageFault("drop", operation="RunFiber", nth=2, count=2),
    MessageFault("duplicate", operation="AwakeFiber", nth=1, count=2),
    NodeFault("crash", at=1.0, restart_after=2.0),
], name="chaos")


class TestHistoryLog:
    def test_batch_roundtrip(self):
        from repro.bluebox.store import SharedStore

        codec = FiberCodec()
        log = HistoryLog(SharedStore())
        events = [HistoryEvent(seq=0, kind="task-started", fiber=None,
                               payload={"root": "fiber-1"}),
                  HistoryEvent(seq=1, kind="nondet", fiber="fiber-1",
                               payload={"op": "clock", "value": 1.5})]
        log.append_batch("task-1", events, codec)
        log.append_batch("task-1",
                         [HistoryEvent(seq=2, kind="fiber-completed",
                                       fiber="fiber-1",
                                       payload={"result": 9})], codec)
        back = log.read_task("task-1", codec)
        assert [(e.seq, e.kind, e.fiber) for e in back] == \
            [(0, "task-started", None), (1, "nondet", "fiber-1"),
             (2, "fiber-completed", "fiber-1")]
        assert back[1].payload == {"op": "clock", "value": 1.5}

    def test_missing_task_is_empty(self):
        from repro.bluebox.store import SharedStore

        assert HistoryLog(SharedStore()).read_task(
            "task-none", FiberCodec()) == []


class TestDeterministicHistories:
    def test_same_seed_produces_byte_identical_logs(self):
        """Two runs of one seeded campaign leave bit-for-bit identical
        history bytes in the store — the property that makes a
        recorded history a reproducible artifact, not a trace."""
        def history_bytes(report):
            store = report.env.store
            return {key: store.snapshot_value(key)
                    for key in sorted(store.keys("history//"))}

        first = run_campaign(CHAOS, seed=29, tasks=4, history="on")
        second = run_campaign(CHAOS, seed=29, tasks=4, history="on")
        blobs = history_bytes(first)
        assert blobs, "campaign recorded no history batches"
        assert blobs == history_bytes(second)

    def test_different_seed_differs(self):
        def history_bytes(report):
            store = report.env.store
            return {key: store.snapshot_value(key)
                    for key in sorted(store.keys("history//"))}

        first = run_campaign(CHAOS, seed=29, tasks=4, history="on")
        other = run_campaign(CHAOS, seed=30, tasks=4, history="on")
        assert history_bytes(first) != history_bytes(other)


class TestHistoryFaultsFailClosed:
    """Damaged histories must surface as typed errors on replay —
    never a silently wrong re-execution."""

    def _campaign(self, fault):
        return run_campaign(FaultPlan([fault], name="hist"),
                            seed=5, tasks=3, history="on")

    def test_torn_tail_raises_typed_error(self):
        report = self._campaign(HistoryFault("torn-tail", nth=3))
        assert report.injected.get("torn-tail", 0) >= 1
        with pytest.raises(TornHistoryError):
            report.replay_all()

    def test_dropped_batch_raises_typed_error(self):
        report = self._campaign(HistoryFault("dropped-batch", nth=3))
        assert report.injected.get("dropped-batch", 0) >= 1
        with pytest.raises(HistoryCorruptionError):
            report.replay_all()

    def test_dropped_final_batch_detected(self):
        """Even a dropped *final* batch (no later index to expose the
        gap) is caught: the log remembers the highest index it
        handed out."""
        from repro.bluebox.store import SharedStore

        codec = FiberCodec()
        log = HistoryLog(SharedStore())

        class DropLast:
            def on_history_write(self, key, blob):
                return None  # every batch is lost

        log.append_batch("task-1",
                         [HistoryEvent(seq=0, kind="task-started",
                                       fiber=None, payload={})], codec)
        log.injector = DropLast()
        log.append_batch("task-1",
                         [HistoryEvent(seq=1, kind="fiber-completed",
                                       fiber="fiber-1",
                                       payload={"result": 1})], codec)
        with pytest.raises(DroppedBatchError):
            log.read_task("task-1", codec)

    def test_corrupt_frame_raises_typed_error(self):
        report = self._campaign(HistoryFault("corrupt-frame", nth=2))
        assert report.injected.get("corrupt-frame", 0) >= 1
        with pytest.raises(HistoryCorruptionError):
            report.replay_all()

    def test_memory_mirror_unaffected_by_log_damage(self):
        """The injector damages only the durable plane: the in-memory
        mirror (the recovery path's source) still replays clean."""
        report = self._campaign(HistoryFault("torn-tail", nth=3))
        env = report.env
        for task_id, task in env.registry.tasks.items():
            if task.finished:
                env.replayer.replay_task(task_id, source="memory")


class TestHistoryStoreOutage:
    """A history write is one more store write of its window: an
    outage aborts the window *before* its state is durable and the
    message redelivers — it used to run after the commit, behind a
    private three-attempt retry, and a fourth failure stranded the
    task ``running`` with ``StoreWriteError`` escaping ``env.call``."""

    @pytest.mark.parametrize("make_store", [
        SharedStore, lambda: DurableStore(shards=2)],
        ids=["shared", "durable"])
    def test_outage_longer_than_any_private_retry(self, make_store):
        env = VinzEnvironment(nodes=2, seed=3, store=make_store(),
                              history="on")
        env.deploy_workflow("Squares", """
            (defun main (params)
              (apply #'+ (for-each (x in params) (compute 0.1) (* x x))))
            """)
        plan = FaultPlan([StoreFault(FAIL_WRITE, key_prefix="history//",
                                     nth=2, count=3)])
        FaultInjector(1, plan).install(env)
        assert env.call("Squares", [1, 2, 3, 4]) == 30
        task, = env.registry.tasks.values()
        assert task.status == "completed"
        assert env.metrics.get("fault.injected") == 3
        assert env.metrics.get("operation.faults") >= 1
        report = env.replay_task(task.id)  # from the durable log
        assert report.fibers_replayed == 5 and not report.partial_fibers
        log = env.history_log
        assert log.batches_written == len(env.store.keys("history//"))

    def test_outage_on_the_window_that_finishes_the_task(self):
        """The finishing window marks the task done in its handler and
        only then commits; when that commit is refused the record rolls
        back, and a waiter must wait for the retry, not report the
        rolled-back task."""
        env = VinzEnvironment(nodes=2, seed=3, history="on")
        env.deploy_workflow("Zero", "(defun main (params) 0)")
        plan = FaultPlan([StoreFault(FAIL_WRITE, key_prefix="history//",
                                     nth=2)])
        FaultInjector(1, plan).install(env)
        task = env.wait_for_task(env.start("Zero"))
        assert (task.status, task.result) == ("completed", 0)
        assert env.metrics.get("operation.faults") == 1
        env.replay_task(task.id)


class TestHistoryObservability:
    def test_summary_and_report_carry_history_section(self):
        report = run_campaign(CHAOS, seed=3, tasks=2, history="on")
        summary = report.env.summary()
        assert summary["history"]["tasks_recorded"] >= 2
        assert summary["history"]["events"] > 0
        assert summary["recovery"]["mode"] == "snapshot"
        obs = report.env.observability_report()
        assert obs["history"]["batches_written"] > 0

    def test_history_off_by_default(self):
        env = VinzEnvironment(nodes=2, seed=1)
        assert env.history is None
        assert env.summary()["history"] is None
        with pytest.raises(RuntimeError):
            env.replay_task("task-1")

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            VinzEnvironment(nodes=2, recovery="replay")  # needs history
        with pytest.raises(ValueError):
            VinzEnvironment(nodes=2, history="maybe")
        with pytest.raises(ValueError):
            VinzEnvironment(nodes=2, snapshot_interval=0)
