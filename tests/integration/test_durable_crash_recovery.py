"""Cross-process durability: a writer killed mid-batch, recovered here.

The durable store's crash-recovery contract, proven across a real
process boundary: a child process commits fiber state through a
file-backed write-ahead journal and is SIGKILLed in the middle of a
batch append (only a prefix of the frame reaches disk).  The parent
then rebuilds a store over the same directory, replays the journal,
and must see every committed fiber — and none of the torn tail.
"""

import os
import signal
import subprocess
import sys
import textwrap

COMMITTED = 5  # whole batches the child commits before dying


def _paths(tmp_path):
    return (str(tmp_path / "wal" / "journal.bin"),
            [str(tmp_path / f"plane-{i}") for i in range(2)])


def _build_store(journal_path, roots):
    from repro.durastore import DirectoryBackend, DurableStore, \
        FileJournalStorage, WriteAheadJournal
    backends = [DirectoryBackend(f"shard-{i}", root)
                for i, root in enumerate(roots)]
    journal = WriteAheadJournal(FileJournalStorage(journal_path))
    store = DurableStore(backends=backends, journal=journal)
    store.checkpoint_interval = 0
    return store


def test_writer_killed_mid_batch_recovers_committed_state(tmp_path):
    journal_path, roots = _paths(tmp_path)
    script = textwrap.dedent(f"""
        import os, signal
        from repro.durastore import DirectoryBackend, DurableStore, \\
            FileJournalStorage, WriteAheadJournal, encode_batch

        backends = [DirectoryBackend(f"shard-{{i}}", root)
                    for i, root in enumerate({roots!r})]
        journal = WriteAheadJournal(FileJournalStorage({journal_path!r}))
        store = DurableStore(backends=backends, journal=journal)
        store.checkpoint_interval = 0

        for i in range({COMMITTED}):
            store.begin_window()
            store.write(f"fiber-state/f{{i}}", b"committed-%d" % i)
            store.write(f"fiber-thunk/f{{i}}", b"thunk-%d" % i)
            store.commit_batch(store.seal_window())

        # one more window: its backend writes land, its journal frame
        # is cut short by the crash — a torn tail on disk
        store.begin_window()
        store.write("fiber-state/doomed", b"never-committed")
        batch = store.seal_window()
        journal.storage.append(batch.framed[: len(batch.framed) // 2])
        print("DYING", flush=True)
        os.kill(os.getpid(), signal.SIGKILL)
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [p for p in (env.get("PYTHONPATH"),) if p]
        + [os.path.join(os.path.dirname(__file__), "..", "..", "src")])
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    assert "DYING" in proc.stdout

    # the uncommitted write reached its backend directory before the
    # kill — exactly the state a crashed filer client leaves behind
    store = _build_store(journal_path, roots)
    assert store.exists("fiber-state/doomed")

    report = store.recover()
    assert report["tail_error"] is not None
    assert report["tail_bytes_dropped"] > 0
    assert report["batches"] == COMMITTED
    assert report["recovered_keys"] == 2 * COMMITTED

    # every committed fiber is back, byte for byte
    for i in range(COMMITTED):
        assert store.read(f"fiber-state/f{i}") == b"committed-%d" % i
        assert store.read(f"fiber-thunk/f{i}") == b"thunk-%d" % i
    # and the torn batch is gone everywhere, including the backends
    assert not store.exists("fiber-state/doomed")
    assert store.keys("fiber-state/doomed") == []


def test_recovered_store_resumes_normal_service(tmp_path):
    """After recovery the same store keeps journaling: new commits land
    on the repaired tail and a second replay sees old + new state."""
    journal_path, roots = _paths(tmp_path)
    first = _build_store(journal_path, roots)
    first.begin_window()
    first.write("fiber-state/a", b"one")
    first.commit_batch(first.seal_window())
    # simulated crash mid-append
    first.begin_window()
    first.write("fiber-state/b", b"never")
    batch = first.seal_window()
    first.journal.storage.append(batch.framed[:9])
    del first

    store = _build_store(journal_path, roots)
    report = store.recover()
    assert report["tail_error"] is not None
    store.begin_window()
    store.write("fiber-state/c", b"after-recovery")
    store.commit_batch(store.seal_window())

    fresh = _build_store(journal_path, roots)
    state = fresh.journal.replay()["state"]
    assert state["fiber-state/a"] == b"one"
    assert state["fiber-state/c"] == b"after-recovery"
    assert "fiber-state/b" not in state
