"""End-to-end: incremental snapshots wired through the workflow service.

Runs the same loop-heavy workflow under ``snapshots="v1"`` and
``snapshots="v2"`` and checks the v2 plumbing end to end: identical
results, fewer persisted bytes, a chunk plane that drains to zero at
task completion, restores from chunks after cache eviction, reference
counts that survive a restart, and rollback consistency when store
faults abort persist windows mid-flight.
"""

import pytest

from repro.bluebox.services import simple_service
from repro.bluebox.store import SharedStore
from repro.durastore import DurableStore
from repro.faults import (FaultInjector, FaultPlan, NodeFault, RetryPolicy,
                          StoreFault)
from repro.faults.plan import FAIL_WRITE
from repro.lang.symbols import Keyword
from repro.persistsnap import ChunkStore, SnapshotPipeline, decode_manifest
from repro.vinz.api import VinzEnvironment
from repro.vinz.cache import FiberCache, LruCache
from repro.vinz.fiberstate import state_key
from repro.vinz.persistence import FiberCodec

#: a workflow whose suspended state is dominated by an unchanging
#: carried structure — the shape incremental snapshots exist for: every
#: workflow-sleep persists ~the same bytes plus a growing accumulator
LOOPY = """
(defun main (params)
  (let ((carried (loop for i from 0 below 250 collect
                       (list i "carried-payload-block" (* i 7))))
        (acc (list)))
    (dolist (i params)
      (workflow-sleep 1)
      (append! acc (* i 2)))
    (list (length carried) acc)))
"""

EXPECTED = [250, [i * 2 for i in range(12)]]


def run_loopy(snapshots, nodes=3, seed=5, retry_policy=None, plan=None):
    env = VinzEnvironment(nodes=nodes, seed=seed,
                          retry_policy=retry_policy)
    env.deploy_workflow("W", LOOPY, snapshots=snapshots)
    injector = None
    if plan is not None:
        injector = FaultInjector(seed, plan).install(env)
    result = env.call("W", list(range(12)))
    return env, result, injector


class TestResultEquality:
    def test_v2_computes_exactly_what_v1_does(self):
        _, v1_result, _ = run_loopy("v1")
        _, v2_result, _ = run_loopy("v2")
        assert v1_result == v2_result == EXPECTED


class TestDedup:
    def test_v2_persists_fewer_bytes(self):
        v1_env, _, _ = run_loopy("v1")
        v2_env, _, _ = run_loopy("v2")
        v1_bytes = v1_env.counters.get_sum("persist.bytes")
        v2_bytes = v2_env.counters.get_sum("persist.bytes")
        assert v1_env.counters.get("persist.writes") >= 10
        assert v2_bytes < v1_bytes
        # the loop-heavy shape dedups well beyond break-even
        assert v1_bytes / v2_bytes > 1.3

    def test_snapshot_stats_surface_in_summary(self):
        env, _, _ = run_loopy("v2")
        stats = env.summary()["snapshots"]
        assert stats["format"] == "v2"
        assert stats["encodes"] >= 10
        assert stats["chunks_reused"] > 0
        assert stats["dedup_ratio"] > 1.5

    def test_summary_counts_the_shared_chunk_plane_once(self):
        """Every v2 workflow on one store shares its chunk plane: the
        summary reports the plane's counters once, not once per
        workflow, and keeps the plane's own reuse count apart from the
        per-suspension ``chunks_reused``."""
        env = VinzEnvironment(nodes=3, seed=5)
        for name in ("A", "B"):
            env.deploy_workflow(name, LOOPY, snapshots="v2")
            assert env.call(name, list(range(12))) == EXPECTED
        pipelines = [w.snapper for w in env.workflows.values()]
        plane = pipelines[0].chunks
        assert pipelines[1].chunks is plane
        stats = env.summary()["snapshots"]
        assert plane.chunks_written > 0
        for key, value in plane.stats_snapshot().items():
            assert stats[key] == value, key
        assert stats["chunks_reused"] == \
            sum(p.chunks_reused_total for p in pipelines)

    def test_v1_summary_has_no_snapshot_stats(self):
        env, _, _ = run_loopy("v1")
        assert env.summary()["snapshots"] is None


class TestChunkGc:
    def test_chunk_plane_drains_at_completion(self):
        """Refcounted GC: once every task is done and its state keys
        reclaimed, no chunk and no reference may survive."""
        env, result, _ = run_loopy("v2")
        assert result == EXPECTED
        assert env.store.keys("snapchunk/") == []
        assert env.workflows["W"].snapper.chunks.refs == {}
        assert env.store.keys("fiber-state/") == []

    def test_deletes_balance_writes(self):
        env, _, _ = run_loopy("v2")
        service = env.workflows["W"]
        stats = service.snapper.stats_snapshot()
        assert stats["chunks_written"] > 0
        assert stats["chunks_deleted"] == stats["chunks_written"]


class TestRestoreFromChunks:
    def test_restore_after_mutable_cache_eviction(self):
        """With the (fiber, version)-keyed cache entry gone, the resume
        restores from the chunk plane and computes the same result."""
        env = VinzEnvironment(nodes=1, seed=7)
        env.deploy_workflow("W", LOOPY, snapshots="v2")
        task_id = env.start("W", list(range(12)))
        env.cluster.run_until(
            lambda: env.counters.get("persist.writes") >= 3)
        decodes = env.summary()["snapshots"]["decodes"]
        for node in env.cluster.nodes.values():
            cache = FiberCache.for_node(node)
            cache.mutable = LruCache(cache.mutable.capacity)
        record = env.wait_for_task(task_id)
        assert record.result == EXPECTED
        assert env.summary()["snapshots"]["decodes"] > decodes

    TWINS = """
        (defun twin (x)
          (let ((rows (list :a :b)))
            (workflow-sleep 1)
            (append! rows (get-process-id))
            rows))
        (defun main (params)
          (let ((a (fork-and-exec #'twin :argument 1))
                (b (fork-and-exec #'twin :argument 1)))
            (list (join-process a) (join-process b))))
        """

    def test_twin_fibers_share_chunks_and_resume_independently(self):
        """Two sibling fibers suspend with byte-identical state, so
        their manifests name the same chunks and the plane counts both
        references.  Each resume must get its own frames: a mutation
        after one resume never shows up in the other."""
        env = VinzEnvironment(nodes=1, seed=7)
        env.deploy_workflow("Twins", self.TWINS, snapshots="v2")
        task_id = env.start("Twins", None)
        env.cluster.run_until(
            lambda: env.counters.get("persist.writes") >= 3)
        children = [f for f in env.registry.fibers.values() if f.parent_id]
        manifests = [decode_manifest(env.store.snapshot_value(
            state_key(f.id))) for f in children]
        assert len(children) == 2
        assert manifests[0].hex_digest == manifests[1].hex_digest
        plane = env.workflows["Twins"].snapper.chunks
        assert {plane.refcount(ref.hex)
                for ref in manifests[0].chunks} == {2}
        for node in env.cluster.nodes.values():
            cache = FiberCache.for_node(node)
            cache.mutable = LruCache(cache.mutable.capacity)
        record = env.wait_for_task(task_id)
        assert plane.refs == {}
        assert env.store.keys("snapchunk/") == []
        first, second = record.result
        assert first[:2] == second[:2] == [Keyword("a"), Keyword("b")]
        assert len(first) == len(second) == 3 and first[2] != second[2]


class TestAbortRollback:
    def test_store_faults_leave_chunk_plane_consistent(self):
        """fail-write faults abort persist windows after chunk adds
        have happened; the undo hooks must put the refcount plane back
        exactly, or completion-time GC would leak or double-free."""
        plan = FaultPlan(faults=[
            StoreFault(action=FAIL_WRITE, key_prefix="fiber-state/",
                       nth=2, count=3),
        ])
        env, result, injector = run_loopy(
            "v2", retry_policy=RetryPolicy.default(), plan=plan)
        assert result == EXPECTED  # retries absorbed the faults
        assert injector.injected.get("fail-write", 0) > 0
        # the aborted windows rolled back: GC still drains to zero
        assert env.store.keys("snapchunk/") == []
        assert env.workflows["W"].snapper.chunks.refs == {}

    def test_chunk_plane_faults_also_roll_back(self):
        plan = FaultPlan(faults=[
            StoreFault(action=FAIL_WRITE, key_prefix="snapchunk/",
                       nth=3, count=2),
        ])
        env, result, injector = run_loopy(
            "v2", retry_policy=RetryPolicy.default(), plan=plan)
        assert result == EXPECTED
        assert injector.injected.get("fail-write", 0) > 0
        assert env.store.keys("snapchunk/") == []
        assert env.workflows["W"].snapper.chunks.refs == {}


class TestSharedChunkRollback:
    """Chunk keys are shared across fibers, so a window's abort-undo
    must *compensate* (give its reference back, delete only at zero) —
    restoring the value it first saw erases references other windows
    took in the meantime."""

    STATE = {"rows": [[i, f"row-{i}", i * 1.5] for i in range(300)]}

    def test_abort_keeps_chunks_an_overlapping_window_references(self):
        pipe = SnapshotPipeline(FiberCodec(), SharedStore())
        a = pipe.encode("fiber-state/a", self.STATE, fiber_id="a")
        b = pipe.encode("fiber-state/b", self.STATE, fiber_id="b")
        assert b.chunks_new == 0  # same content: every chunk is A's
        a.undo()  # A's window aborts; B's is still to commit
        assert pipe.load(b.blob, fiber_id="b") == self.STATE
        assert {pipe.chunks.refcount(ref.hex)
                for ref in b.manifest.chunks} == {1}
        b.undo()  # and the last reference out removes the chunks
        assert pipe.store.keys("snap") == []
        assert pipe.chunks.bytes_stored == 0

    def test_release_is_compensated_the_same_way(self):
        pipe = SnapshotPipeline(FiberCodec(), SharedStore())
        a = pipe.encode("fiber-state/a", self.STATE, fiber_id="a")
        pipe.store.write("fiber-state/a", a.blob)
        before = {key: pipe.store.snapshot_value(key)
                  for key in pipe.store.keys()}
        counts = dict(pipe.chunks.refs)
        undo = pipe.release_blob(a.blob)  # a commit that then fails
        assert pipe.store.keys("snap") == [] and pipe.chunks.refs == {}
        undo()
        assert {key: pipe.store.snapshot_value(key)
                for key in pipe.store.keys()} == before
        assert pipe.chunks.refs == counts
        assert pipe.load(a.blob, fiber_id="a") == self.STATE

    def test_recovered_counts_survive_out_of_order_commits(self):
        """Two windows reference the same chunks and commit in the
        opposite order to their writes; after journal recovery a
        restarted process must still count both manifests, or dropping
        one of them deletes the chunks the other names."""
        store = DurableStore(shards=2)
        pipe = SnapshotPipeline(FiberCodec(), store)
        batches = []
        for fiber in ("a", "b"):
            store.begin_window()
            snap = pipe.encode(f"fiber-state/{fiber}", self.STATE,
                               fiber_id=fiber)
            store.write(f"fiber-state/{fiber}", snap.blob)
            batches.append((store.seal_window(), snap))
        (batch_a, a), (batch_b, b) = batches
        store.commit_batch(batch_b)
        store.commit_batch(batch_a)
        store.recover()

        pipe.chunks = ChunkStore(store)  # a restarted process
        assert {pipe.chunks.refcount(ref.hex)
                for ref in b.manifest.chunks} == {2}
        pipe.release_blob(a.blob)
        store.delete("fiber-state/a")
        assert pipe.load(store.read("fiber-state/b"),
                         fiber_id="b") == self.STATE

    TWINS = """
        (deflink DS :wsdl "urn:twin-data")
        (defun main (params)
          (apply #'+ (for-each (x in (list 1 2))
                       (let ((rows params))
                         (DS-Fetch-Method :Key 0)
                         (length rows)))))
        """

    def _twins(self):
        env = VinzEnvironment(nodes=3, seed=11, retry_policy=RetryPolicy(
            max_attempts=4, jitter=0.0))
        env.deploy_service(simple_service(
            "TwinData", {"Fetch": lambda ctx, body: ctx.charge(0.5)},
            namespace="urn:twin-data", parameters={"Fetch": ["Key"]}))
        env.deploy_workflow("Twins", self.TWINS, snapshots="v2", cache_capacity=0)
        return env

    def test_sibling_restores_after_its_twins_window_crashed(self):
        """Two sibling fibers suspend with identical state in
        overlapping windows; the one that stored the shared chunks dies
        with its node.  Its twin's committed manifest must still
        restore on a cold node (no fiber cache)."""
        rows = self.STATE["rows"]
        probe = self._twins()
        assert probe.call("Twins", rows) == 2 * len(rows)
        first, second = sorted(
            (s for s in probe.tracer.spans_of_kind("operation")
             if s.name == "op:Twins.RunFiber"
             and s.attrs["fiber"] != "fiber-1"),
            key=lambda s: s.attrs["msg"])
        shared = [s for s in probe.tracer.spans_of_kind("persistence")
                  if s.attrs.get("fiber") == second.attrs["fiber"]
                  and s.name == "snap.encode"][0].attrs["reused"]
        assert shared and first.start <= second.start < first.end

        env = self._twins()
        FaultInjector(5, FaultPlan([NodeFault(
            "crash", node=first.attrs["node"], at=second.start + 1e-4,
            restart_after=0.05)])).install(env)
        task = env.wait_for_task(env.start("Twins", rows), deadline=30.0)
        assert (task.status, task.result) == ("completed", 2 * len(rows))
        assert env.metrics.get("operation.faults") == 0
        assert env.store.keys("snap") == []  # and GC still drains
