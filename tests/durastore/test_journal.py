"""Write-ahead journal: group commit, torn tails, checkpoint, recovery."""

import pytest

from repro.bluebox.store import StoreWriteError
from repro.durastore import (
    DurableStore,
    FileJournalStorage,
    MemoryJournalStorage,
    SealedBatch,
    WriteAheadJournal,
    encode_batch,
)
from repro.faults import FaultPlan, JournalFault, TORN_COMMIT
from repro.faults.injector import FaultInjector


def batch(*records):
    recs = list(records)
    return SealedBatch(recs, encode_batch(recs), 0.0)


# ---------------------------------------------------------------------------
# the journal proper
# ---------------------------------------------------------------------------

def test_append_and_replay():
    j = WriteAheadJournal()
    j.append_batch(batch(("put", "a", b"1"), ("put", "b", b"2")))
    j.append_batch(batch(("del", "a", None), ("put", "c", b"3")))
    replay = j.replay()
    assert replay["state"] == {"a": None, "b": b"2", "c": b"3"}
    assert replay["batches"] == 2 and replay["records"] == 4
    assert replay["tail_error"] is None
    assert j.commits == 2 and j.records_committed == 4


def test_torn_tail_dropped_and_repaired():
    j = WriteAheadJournal()
    j.append_batch(batch(("put", "a", b"committed")))
    # a crash mid-write(2): only a prefix of the frame lands
    torn = encode_batch([("put", "b", b"never-committed")])
    j.storage.append(torn[: len(torn) // 2])
    j._dirty_tail = True
    j.torn_appends += 1

    replay = j.replay()
    assert replay["state"] == {"a": b"committed"}
    assert replay["tail_error"] is not None
    assert replay["tail_bytes_dropped"] == len(torn) // 2

    # the next append lands on a repaired tail and replays cleanly
    j.append_batch(batch(("put", "c", b"after")))
    replay = j.replay()
    assert replay["state"] == {"a": b"committed", "c": b"after"}
    assert replay["tail_error"] is None


def test_checkpoint_truncates_and_seeds_replay():
    j = WriteAheadJournal()
    for i in range(5):
        j.append_batch(batch(("put", f"k{i}", bytes([i]))))
    size_before = j.storage.size()
    j.checkpoint({"k0": b"\x00", "frozen": b"snap"})
    assert j.checkpoints == 1
    j.append_batch(batch(("put", "later", b"x"), ("del", "k0", None)))
    replay = j.replay()
    assert replay["checkpoint_keys"] == 2
    assert replay["state"] == {"k0": None, "frozen": b"snap", "later": b"x"}
    # the log was compacted: old batches are gone
    assert j.storage.size() < size_before + 64


def test_journal_fault_tears_exactly_the_configured_fraction():
    plan = FaultPlan([JournalFault(nth=2, count=1, keep_fraction=0.25)])
    injector = FaultInjector(3, plan)
    j = WriteAheadJournal()
    j.injector = injector
    j.append_batch(batch(("put", "a", b"one")))
    good = j.storage.size()
    torn = batch(("put", "b", b"two"))
    with pytest.raises(StoreWriteError):
        j.append_batch(torn)
    assert j.torn_appends == 1
    assert injector.injected[TORN_COMMIT] == 1
    assert j.storage.size() == good + int(len(torn.framed) * 0.25)
    # replay sees only the committed prefix
    assert j.replay()["state"] == {"a": b"one"}
    # and the repaired tail accepts the retry
    j.append_batch(batch(("put", "b", b"two")))
    assert j.replay()["state"] == {"a": b"one", "b": b"two"}


def test_file_journal_storage_roundtrip(tmp_path):
    path = str(tmp_path / "wal" / "journal.bin")
    j = WriteAheadJournal(FileJournalStorage(path))
    j.append_batch(batch(("put", "a", b"disk")))
    # a fresh journal over the same file replays the same state
    fresh = WriteAheadJournal(FileJournalStorage(path))
    assert fresh.replay()["state"] == {"a": b"disk"}
    fresh.storage.truncate(fresh.storage.size() - 1)
    assert fresh.replay()["tail_error"] is not None


# ---------------------------------------------------------------------------
# DurableStore: windows, group commit, rollback, recovery
# ---------------------------------------------------------------------------

def test_window_batches_into_one_commit():
    store = DurableStore(shards=2)
    store.begin_window()
    w1 = store.write("fiber-state/f1", b"blob-one")
    w2 = store.write("fiber-thunk/f2", b"blob-two")
    d1 = store.delete("task-env/old")
    # in-window mutations defer the op latency...
    assert w1 == pytest.approx(len(b"blob-one") * store.per_byte)
    assert w2 == pytest.approx(len(b"blob-two") * store.per_byte)
    assert d1 == 0.0
    sealed = store.seal_window()
    # ...which the seal charges exactly once
    assert sealed.cost >= store.op_latency
    store.commit_batch(sealed)
    assert store.journal.commits == 1
    assert store.journal.records_committed == 3
    assert store.read("fiber-state/f1") == b"blob-one"


def test_empty_window_seals_to_nothing():
    store = DurableStore(shards=2)
    store.begin_window()
    assert store.seal_window() is None
    store.commit_batch(None)  # no-op
    assert store.journal.commits == 0


def test_reopening_a_window_is_refused():
    store = DurableStore(shards=2)
    store.begin_window()
    with pytest.raises(RuntimeError):
        store.begin_window()


def test_out_of_window_mutations_auto_commit():
    store = DurableStore(shards=2)
    store.write("a", b"1")
    store.delete("a")
    assert store.auto_commits == 2
    assert store.journal.replay()["state"] == {"a": None}


def test_aborted_window_never_reaches_the_log():
    store = DurableStore(shards=2)
    store.begin_window()
    store.write("ghost", b"rolled-back")
    store.abort_window()
    assert store.windows_aborted == 1
    assert "ghost" not in store.journal.replay()["state"]


def test_discarded_batch_never_reaches_the_log():
    store = DurableStore(shards=2)
    store.begin_window()
    store.write("ghost", b"node-died")
    sealed = store.seal_window()
    store.discard_batch(sealed)
    assert store.batches_discarded == 1
    assert "ghost" not in store.journal.replay()["state"]


def test_rollback_scrubs_the_open_window():
    store = DurableStore(shards=2)
    store.write("k", b"old")
    store.begin_window()
    store.write("k", b"new")
    store.rollback_value("k", b"old")
    store.write("other", b"kept")
    store.commit_batch(store.seal_window())
    assert store.read("k") == b"old"
    # the rolled-back write never journaled; the kept one did
    state = store.journal.replay()["state"]
    assert "other" in state and state["k"] == b"old"


def test_group_commit_shares_flushes_within_interval():
    clock = [0.0]
    store = DurableStore(shards=2)
    store.now_fn = lambda: clock[0]

    def window(key, at):
        clock[0] = at
        store.begin_window()
        store.write(key, b"v")
        store.commit_batch(store.seal_window())

    window("a", 10.0)              # pays its own flush
    window("b", 10.0005)           # within op_latency: piggybacks
    window("c", 10.0015)           # still within the same horizon
    window("d", 10.5)              # a fresh flush
    assert store.journal.commits == 4
    assert store.journal.flushes == 2
    assert store.shared_flushes == 2


def test_checkpoint_interval_compacts_the_log():
    store = DurableStore(shards=2)
    store.checkpoint_interval = 4
    for i in range(9):
        store.begin_window()
        store.write(f"k{i}", b"x" * 50)
        store.commit_batch(store.seal_window())
    assert store.journal.checkpoints == 2
    replay = store.journal.replay()
    assert sum(1 for v in replay["state"].values() if v is not None) == 9


def test_a_checkpoint_holds_only_committed_writes():
    """Window Y writes ``k`` and seals; window X commits and the commit
    takes a checkpoint; then Y is discarded and rolled back.  Y's value
    was never committed, so neither the journal nor a recovery may
    bring it back."""
    store = DurableStore(shards=2)
    store.checkpoint_interval = 1
    store.write("k", b"before")  # out of window: committed at once
    store.begin_window()
    store.write("k", b"Y")
    y = store.seal_window()
    store.begin_window()
    store.write("x", b"X")
    store.commit_batch(store.seal_window())
    assert store.journal.checkpoints == 2
    store.discard_batch(y)
    store.rollback_value("k", b"before")
    assert store.journal.replay()["state"] == {"k": b"before", "x": b"X"}
    store.recover()
    assert store.read("k") == b"before" and store.read("x") == b"X"


def test_recover_rebuilds_committed_state_only():
    store = DurableStore(shards=2)
    store.begin_window()
    store.write("committed/a", b"alpha")
    store.write("committed/b", b"beta")
    store.commit_batch(store.seal_window())
    store.begin_window()
    store.delete("committed/b")
    store.commit_batch(store.seal_window())
    # an uncommitted straggler sits in the backends but not the log
    store._put("uncommitted/c", b"ghost")

    report = store.recover()
    assert report["recovered_keys"] == 1
    assert report["deleted_keys"] == 1
    assert store.read("committed/a") == b"alpha"
    assert not store.exists("committed/b")
    assert not store.exists("uncommitted/c")
    assert store.recoveries == 1


def test_recover_drops_torn_tail():
    store = DurableStore(shards=2)
    store.begin_window()
    store.write("good", b"committed")
    store.commit_batch(store.seal_window())
    torn = encode_batch([("put", "bad", b"torn-away")])
    store.journal.storage.append(torn[:7])
    store._put("bad", b"torn-away")

    report = store.recover()
    assert report["tail_error"] is not None
    assert report["tail_bytes_dropped"] == 7
    assert store.read("good") == b"committed"
    assert not store.exists("bad")


def test_stats_snapshot_shape():
    store = DurableStore(shards=2)
    store.begin_window()
    store.write("k", b"v")
    store.commit_batch(store.seal_window())
    snap = store.stats_snapshot()
    assert snap["kind"] == "DurableStore"
    assert snap["journal"]["commits"] == 1
    assert snap["group_commit"]["windows_sealed"] == 1
    assert snap["group_commit"]["deferred_ops"] == 1
    assert set(snap["shards"]) == {"shard-0", "shard-1"}
