"""Shared store and distributed lock tests (paper Section 4.2)."""

import os

import pytest

from repro.bluebox import locks as locks_module
from repro.bluebox.locks import CoordinatorLockManager, FileLockManager
from repro.bluebox.store import DirectoryStore, SharedStore, StoreError


class TestSharedStore:
    def test_write_read_round_trip(self):
        store = SharedStore()
        store.write("k", b"data")
        assert store.read("k") == b"data"

    def test_missing_key_raises(self):
        with pytest.raises(StoreError):
            SharedStore().read("missing")

    def test_delete(self):
        store = SharedStore()
        store.write("k", b"x")
        store.delete("k")
        assert not store.exists("k")
        store.delete("k")  # idempotent

    def test_keys_prefix(self):
        store = SharedStore()
        store.write("a/1", b"")
        store.write("a/2", b"")
        store.write("b/1", b"")
        assert store.keys("a/") == ["a/1", "a/2"]

    def test_non_bytes_rejected(self):
        with pytest.raises(TypeError):
            SharedStore().write("k", "string")  # type: ignore

    def test_io_cost_model(self):
        store = SharedStore()
        store.op_latency, store.per_byte = 0.01, 0.001
        cost = store.write("k", b"abcd")
        assert cost == pytest.approx(0.01 + 4 * 0.001)
        assert store.cost(0) == 0.01

    def test_statistics(self):
        store = SharedStore()
        store.write("k", b"abc")
        store.read("k")
        store.read("k")
        assert store.writes == 1
        assert store.reads == 2
        assert store.bytes_written == 3
        assert store.bytes_read == 6

    def test_size_and_total(self):
        store = SharedStore()
        store.write("a", b"12")
        store.write("b", b"345")
        assert store.size("a") == 2
        assert store.total_bytes() == 5


class TestDirectoryStore:
    def test_persists_to_disk(self, tmp_path):
        store = DirectoryStore(str(tmp_path))
        store.write("fiber/1", b"state")
        # a second store over the same directory sees it (the NFS story)
        other = DirectoryStore(str(tmp_path))
        assert other.read("fiber/1") == b"state"

    def test_delete_removes_file(self, tmp_path):
        store = DirectoryStore(str(tmp_path))
        store.write("k", b"x")
        store.delete("k")
        assert not DirectoryStore(str(tmp_path)).exists("k")

    def test_slash_in_key_encoded(self, tmp_path):
        store = DirectoryStore(str(tmp_path))
        store.write("a/b/c", b"1")
        files = os.listdir(str(tmp_path))
        assert all("/" not in f for f in files)


class TestFileLockManager:
    def test_acquire_release(self):
        locks = FileLockManager(SharedStore())
        assert locks.try_acquire("f1", "me")
        assert locks.holder("f1") == "me"
        assert locks.release("f1", "me")
        assert locks.holder("f1") is None

    def test_contention(self):
        locks = FileLockManager(SharedStore())
        assert locks.try_acquire("f1", "a")
        assert not locks.try_acquire("f1", "b")
        assert locks.contentions == 1

    def test_reentrant_same_owner(self):
        locks = FileLockManager(SharedStore())
        assert locks.try_acquire("f1", "a")
        assert locks.try_acquire("f1", "a")

    def test_release_wrong_owner_fails(self):
        locks = FileLockManager(SharedStore())
        locks.try_acquire("f1", "a")
        assert not locks.release("f1", "b")
        assert locks.held("f1")

    def test_force_release(self):
        locks = FileLockManager(SharedStore())
        locks.try_acquire("f1", "a")
        locks.force_release("f1")
        assert locks.try_acquire("f1", "b")

    def test_nfs_visibility_quirk(self, monkeypatch):
        """The paper's complaint: after release, other clients may still
        see the lock held for a window (attribute caching)."""
        clock = {"now": 0.0}
        monkeypatch.setattr(locks_module, "RELEASE_VISIBILITY_DELAY", 1.0)
        locks = FileLockManager(SharedStore(), clock_now=lambda: clock["now"])
        locks.try_acquire("f1", "a")
        locks.release("f1", "a")
        # immediately after release: another owner still sees it held
        assert not locks.try_acquire("f1", "b")
        clock["now"] = 2.0
        assert locks.try_acquire("f1", "b")

    def test_quirk_does_not_block_same_owner(self, monkeypatch):
        clock = {"now": 0.0}
        monkeypatch.setattr(locks_module, "RELEASE_VISIBILITY_DELAY", 1.0)
        locks = FileLockManager(SharedStore(), clock_now=lambda: clock["now"])
        locks.try_acquire("f1", "a")
        locks.release("f1", "a")
        assert locks.try_acquire("f1", "a")  # own release is visible


class TestCoordinatorLockManager:
    def test_acquire_release(self):
        locks = CoordinatorLockManager()
        assert locks.try_acquire("f1", "session-a")
        assert not locks.try_acquire("f1", "session-b")
        assert locks.release("f1", "session-a")
        assert locks.try_acquire("f1", "session-b")

    def test_session_expiry_releases_all(self):
        """ZooKeeper semantics: a dead node's session releases its
        ephemeral locks — fixing the stale-NFS-lock problem."""
        locks = CoordinatorLockManager()
        locks.try_acquire("f1", "s1")
        locks.try_acquire("f2", "s1")
        locks.try_acquire("f3", "s2")
        released = locks.expire_session("s1")
        assert released == ["f1", "f2"]
        assert locks.holder("f1") is None
        assert locks.holder("f3") == "s2"
        assert locks.expired_sessions == 1

    def test_a_session_ends_with_its_last_lock(self):
        """A window's owner (``instance#message-id``) takes locks once:
        a session kept after its last release would never be used or
        dropped again."""
        locks = CoordinatorLockManager()
        locks.try_acquire("a", "s1")
        locks.try_acquire("b", "s1")
        assert not locks.try_acquire("a", "s2")  # contention opens none
        locks.release("a", "s1")
        assert locks._sessions == {"s1": {"b"}}
        locks.expire_lock("b")
        assert locks._sessions == {}
        assert locks.expire_session("s1") == []
        assert locks.expired_sessions == 0

    def test_a_drive_keeps_only_the_sessions_of_lock_holders(self):
        from repro.vinz.api import VinzEnvironment

        env = VinzEnvironment(nodes=3, seed=7)
        env.deploy_workflow("W", """
            (defun main (p) (for-each (x in p) (compute 0.1) (* x 2)))""")
        results = []
        for _ in range(3):
            task_id = env.start("W", [1, 2, 3])
            # part-way through the drive some windows hold locks
            env.cluster.run_until(lambda: env.locks._locks)
            held = {}
            for key, owner in env.locks._locks.items():
                held.setdefault(owner, set()).add(key)
            assert env.locks._sessions == held
            results.append(env.wait_for_task(task_id).result)
        assert results == [[2, 4, 6]] * 3
        assert env.locks.acquisitions > 3
        assert env.locks._sessions == {} and env.locks._locks == {}

    def test_session_locks_listing(self):
        locks = CoordinatorLockManager()
        locks.try_acquire("b", "s")
        locks.try_acquire("a", "s")
        assert locks.session_locks("s") == ["a", "b"]

    def test_reentrant(self):
        locks = CoordinatorLockManager()
        assert locks.try_acquire("f", "s")
        assert locks.try_acquire("f", "s")

    def test_release_not_held(self):
        assert not CoordinatorLockManager().release("f", "s")
