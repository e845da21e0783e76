"""Consistent-hash sharding: placement, stats, outages."""

import random
from bisect import bisect_right

import pytest

from repro.bluebox.store import StoreError, StoreWriteError
from repro.durastore import (DurableStore, MemoryBackend, ShardedStore,
                             memory_backends)
from repro.durastore.sharded import VNODES, _hash64
from repro.faults import SHARD_OUTAGE, FaultPlan, ShardFault
from repro.faults.injector import FaultInjector


def filled(shards=4, keys=200):
    store = ShardedStore(shards=shards)
    for i in range(keys):
        store.write(f"fiber-state/f{i}", b"x" * (10 + i % 7))
    return store


def test_placement_is_stable_and_total():
    store = filled()
    for key in store.keys():
        shard = store.shard_for(key)
        assert store.shard_for(key) == shard
        assert store.backends[shard].contains(key)
    assert sum(store.key_distribution().values()) == 200


def ring_lookup(store):
    """The ring built from scratch, looked up without any memo."""
    points = sorted((_hash64(f"{name}#{replica}"), name)
                    for name in store.backends for replica in range(VNODES))
    hashes = [point for point, _name in points]

    def shard_of(key):
        return points[bisect_right(hashes, _hash64(key)) % len(points)][1]

    return shard_of


@pytest.mark.parametrize("make", [lambda: ShardedStore(shards=4),
                                  lambda: DurableStore(shards=4)],
                         ids=["sharded", "durable"])
def test_memoised_shard_for_matches_the_ring(make):
    store = make()
    rng = random.Random(35)
    keys = [f"fiber-state/{rng.getrandbits(48):x}" for _ in range(1_000)]
    shard_of = ring_lookup(store)
    expected = {key: shard_of(key) for key in keys}

    def check():
        assert {key: store.shard_for(key) for key in keys} == expected

    check()
    for key in keys[:600]:
        store.write(key, b"v")
    check()
    deleted = keys[:300]
    for key in deleted[:150]:
        store.delete(key)
    if isinstance(store, DurableStore):
        # deletes inside a group-commit window take their own path
        store.begin_window()
        for key in deleted[150:]:
            store.delete(key)
        store.commit_batch(store.seal_window())
    else:
        for key in deleted[150:]:
            store.delete(key)
    assert not set(deleted) & set(store._shard_of)
    for key in deleted:
        assert not store.backends[expected[key]].contains(key)
    check()


def test_recovery_clears_the_shard_memo():
    store = DurableStore(shards=2)
    store.write("fiber-state/kept", b"v")
    store.write("fiber-state/gone", b"v")
    store.delete("fiber-state/gone")
    store.shard_for("fiber-state/never-written")
    store.recover()
    assert set(store._shard_of) <= {"fiber-state/kept"}
    assert store.read("fiber-state/kept") == b"v"


def test_distribution_is_roughly_even():
    dist = filled(shards=4, keys=400).key_distribution()
    assert len(dist) == 4
    assert min(dist.values()) > 0
    # 64 vnodes/shard keeps the spread within a small factor
    assert max(dist.values()) < 4 * min(dist.values())


def test_reads_route_and_count_per_shard():
    store = filled(keys=50)
    for i in range(50):
        store.read(f"fiber-state/f{i}")
    snap = store.stats_snapshot()
    assert sum(s["reads"] for s in snap["shards"].values()) == 50
    assert sum(s["writes"] for s in snap["shards"].values()) == 50
    assert snap["kind"] == "ShardedStore"


def test_delete_counts_per_shard_and_charges():
    store = filled(keys=10)
    shard = store.shard_for("fiber-state/f0")
    cost = store.delete("fiber-state/f0")
    assert cost == pytest.approx(store.op_latency)
    assert store.shard_stats[shard].deletes == 1
    assert not store.exists("fiber-state/f0")


def test_duplicate_shard_name_refused():
    with pytest.raises(ValueError):
        ShardedStore(backends=[MemoryBackend("shard-1"),
                               MemoryBackend("shard-1")])


def test_backends_can_be_supplied_explicitly():
    store = ShardedStore(backends=[MemoryBackend("east"),
                                   MemoryBackend("west")])
    store.write("k", b"v")
    assert store.shard_names() == ["east", "west"]
    assert store.read("k") == b"v"


class _Env:
    """The minimal environment FaultInjector.install needs."""

    def __init__(self, store):
        self.store = store
        self.cluster = None


def test_shard_outage_vetoes_io_in_window():
    store = ShardedStore(shards=2)
    plan = FaultPlan([ShardFault(shard="shard-0", nth=1, count=3)])
    injector = FaultInjector(7, plan)
    store.injector = injector

    hit = vetoed = 0
    for i in range(40):
        key = f"k{i}"
        if store.shard_for(key) != "shard-0":
            continue
        hit += 1
        if hit > 3:
            break
        with pytest.raises(StoreWriteError):
            store.write(key, b"v")
        vetoed += 1
    assert vetoed == 3
    assert store.faulted_ops == 3
    assert injector.injected[SHARD_OUTAGE] == 3
    # the other shard never faulted
    other = next(k for k in (f"k{i}" for i in range(100))
                 if store.shard_for(k) == "shard-1")
    store.write(other, b"v")
