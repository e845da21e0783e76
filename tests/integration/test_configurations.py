"""Configuration-matrix integration tests.

Runs the same workflow under every combination of the platform's
swappable backends (lock manager, store backing) and
asserts identical results — the configuration space must not change
semantics, only costs.
"""

import itertools

import pytest

from repro.bluebox import locks as locks_module
from repro.bluebox.services import OperationContext
from repro.bluebox.store import DirectoryStore
from repro.durastore import DurableStore
from repro.lang.symbols import Keyword
from repro.vinz.api import VinzEnvironment

WORKFLOW = """
(deftaskvar progress 0)

(defun main (params)
  (let ((squares (for-each (x in params)
                   (setf ^progress^ (+ ^progress^ 1))
                   (* x x))))
    (workflow-sleep 0.5)
    (list :sum (apply #'+ squares) :count ^progress^)))
"""

EXPECTED_SUM = sum(x * x for x in [1, 2, 3, 4])


def run_config(**kwargs):
    env = VinzEnvironment(nodes=3, seed=7, trace=False, **kwargs)
    env.deploy_workflow("W", WORKFLOW)
    result = env.call("W", [1, 2, 3, 4])
    plist = {result[i].name: result[i + 1] for i in range(0, len(result), 2)}
    return env, plist


class TestBackendMatrix:
    @pytest.mark.parametrize("locks,quirk", [
        ("coordinator", 0.0),
        ("file", 0.0),
        ("file", 0.05),  # with the NFS visibility quirk enabled
    ])
    def test_lock_backends_same_result(self, monkeypatch, locks, quirk):
        monkeypatch.setattr(locks_module, "RELEASE_VISIBILITY_DELAY", quirk)
        env, plist = run_config(locks=locks)
        assert plist["sum"] == EXPECTED_SUM

    def test_directory_store_backed_environment(self, tmp_path):
        """The full platform over a real on-disk shared store: every
        checkpoint and task variable hits the filesystem."""
        store = DirectoryStore(str(tmp_path))
        env = VinzEnvironment(nodes=3, seed=7, trace=False, store=store)
        env.deploy_workflow("W", WORKFLOW)
        result = env.call("W", [1, 2, 3, 4])
        plist = {result[i].name: result[i + 1]
                 for i in range(0, len(result), 2)}
        assert plist["sum"] == EXPECTED_SUM
        # state files really landed on disk during the run
        assert store.writes > 0

    def test_file_locks_with_quirk_slow_but_correct(self, monkeypatch):
        """The NFS visibility quirk adds lock-wait requeues but never
        wrong answers."""
        plain_env, plain = run_config(locks="file")
        monkeypatch.setattr(locks_module, "RELEASE_VISIBILITY_DELAY", 0.2)
        quirky_env, quirky = run_config(locks="file")
        assert plain["sum"] == quirky["sum"] == EXPECTED_SUM
        assert quirky_env.cluster.kernel.now >= plain_env.cluster.kernel.now

    def test_deterministic_across_identical_configs(self):
        env_a, _ = run_config()
        env_b, _ = run_config()
        # identical control flow: same event/message/store counts; the
        # virtual clock may differ by compressed-blob-size noise only
        assert env_a.store.writes == env_b.store.writes
        assert env_a.cluster.queue.delivered == env_b.cluster.queue.delivered
        assert env_a.cluster.kernel.now == pytest.approx(
            env_b.cluster.kernel.now, abs=1e-3)


class TestOneAppendPerWindow:
    def test_durable_run_appends_once_per_writing_window(self, monkeypatch):
        """Fault-free, on the durable configuration: no store mutation
        happens outside a window, every buffered mutation reaches the
        journal exactly once, and the journal sees one append per
        committed window that wrote anything (state, history, chunk GC
        all in the same batch)."""
        store = DurableStore(shards=4)
        commit = OperationContext.commit
        writing_windows = []

        def counting_commit(ctx):
            sealed, before = ctx.batch is not None, store.deferred_ops
            commit(ctx)
            writing_windows.append(sealed or store.deferred_ops > before)

        monkeypatch.setattr(OperationContext, "commit", counting_commit)
        env = VinzEnvironment(nodes=3, seed=7, store=store, history="on",
                              snapshot_interval=8)
        env.deploy_workflow("W", WORKFLOW, snapshots="v2")
        result = env.call("W", list(range(1, 13)))
        env.cluster.run_until_idle()
        assert result[1] == sum(x * x for x in range(1, 13))
        assert env.metrics.get("persist.skipped") > 0
        assert store.auto_commits == 0
        assert store.writes + store.deletes == store.deferred_ops
        assert store.journal.records_committed == store.deferred_ops
        assert store.journal.commits == sum(writing_windows)
        assert 0 < sum(writing_windows) < len(writing_windows)
        env.replay_task(next(iter(env.registry.tasks)))


class TestWorkflowServiceConfig:
    def test_cache_disabled_still_correct(self):
        env = VinzEnvironment(nodes=3, seed=2, trace=False)
        env.deploy_workflow("W", WORKFLOW, cache_capacity=0)
        result = env.call("W", [1, 2, 3, 4])
        plist = {result[i].name: result[i + 1]
                 for i in range(0, len(result), 2)}
        assert plist["sum"] == EXPECTED_SUM
        assert env.counters.get("cache.mutable.hit") == 0

    def test_instruction_cost_scales_virtual_time(self):
        def run_with_cost(cost):
            env = VinzEnvironment(nodes=1, seed=3, trace=False)
            env.deploy_workflow("W", """
                (defun main (p)
                  (let ((acc 0))
                    (dotimes (i 2000) (setq acc (+ acc i)))
                    acc))""", instruction_cost=cost)
            env.call("W", None)
            return env.cluster.kernel.now

        cheap = run_with_cost(1e-7)
        expensive = run_with_cost(1e-4)
        assert expensive > cheap * 5
