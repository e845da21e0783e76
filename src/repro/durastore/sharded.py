"""Consistent-hash sharding over pluggable backends.

The paper's Vinz funnels every fiber blob through one NFS filer
(Section 4.2); Netherite's answer — partition the state space and give
each partition its own store — is what :class:`ShardedStore` builds.
Keys map to backends via a consistent-hash ring (virtual nodes per
shard); the set of shards is fixed when the store is built.

It is a drop-in :class:`~repro.bluebox.store.SharedStore`: the cost
model, statistics and fault hooks are inherited, with per-shard stats
and a shard-outage fault consultation layered on.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Any, Dict, List, Optional, Sequence

from ..bluebox.store import SharedStore, StoreError
from .backend import StoreBackend, memory_backends

#: virtual ring points per shard — enough that key distribution is even
#: within a few percent for realistic shard counts
VNODES = 64


def _hash64(data: str) -> int:
    return int.from_bytes(
        hashlib.md5(data.encode("utf-8")).digest()[:8], "big")


class ShardStats:
    """Per-shard IO accounting."""

    __slots__ = ("reads", "writes", "deletes", "bytes_read",
                 "bytes_written", "io_seconds")

    def __init__(self):
        self.reads = 0
        self.writes = 0
        self.deletes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.io_seconds = 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {s: getattr(self, s) for s in self.__slots__}


class ShardedStore(SharedStore):
    """A SharedStore whose key space is consistent-hashed over
    N :class:`~repro.durastore.backend.StoreBackend` planes."""

    def __init__(self, backends: Optional[Sequence[StoreBackend]] = None,
                 shards: int = 4):
        super().__init__()
        if backends is None:
            backends = memory_backends(shards)
        if not backends:
            raise ValueError("a sharded store needs at least one backend")
        self.backends: Dict[str, StoreBackend] = {}
        self.shard_stats: Dict[str, ShardStats] = {}
        self._ring: List[int] = []
        self._ring_shards: List[str] = []
        #: key -> shard, memoised: the ring is fixed once built, and a
        #: key leaves the memo when the store removes it
        self._shard_of: Dict[str, str] = {}
        for backend in backends:
            if backend.name in self.backends:
                raise ValueError(f"duplicate shard name {backend.name!r}")
            self.backends[backend.name] = backend
            self.shard_stats[backend.name] = ShardStats()
        self._rebuild_ring()

    # ------------------------------------------------------------------
    # ring construction and lookup
    # ------------------------------------------------------------------

    def _rebuild_ring(self) -> None:
        points = []
        for name in self.backends:
            for replica in range(VNODES):
                points.append((_hash64(f"{name}#{replica}"), name))
        points.sort()
        self._ring = [p[0] for p in points]
        self._ring_shards = [p[1] for p in points]

    def shard_for(self, key: str) -> str:
        """The shard name ``key`` lives on under the ring."""
        shard = self._shard_of.get(key)
        if shard is None:
            shard = self._shard_of[key] = self._ring_lookup(key)
        return shard

    def _ring_lookup(self, key: str) -> str:
        point = _hash64(key)
        index = bisect_right(self._ring, point) % len(self._ring)
        return self._ring_shards[index]

    def shard_names(self) -> List[str]:
        return sorted(self.backends)

    # ------------------------------------------------------------------
    # storage primitives routed through the ring
    # ------------------------------------------------------------------

    def _backend(self, key: str) -> StoreBackend:
        return self.backends[self.shard_for(key)]

    def _consult_shard(self, key: str, write: bool) -> None:
        """Shard-outage faults: a downed shard rejects all its IO."""
        if self.injector is not None:
            on_shard_op = getattr(self.injector, "on_shard_op", None)
            if on_shard_op is not None:
                try:
                    on_shard_op(self.shard_for(key), key, write)
                except StoreError:
                    self.faulted_ops += 1
                    raise

    def _get(self, key: str) -> Optional[bytes]:
        return self._backend(key).get(key)

    def _put(self, key: str, data: bytes) -> None:
        self._backend(key).put(key, data)

    def _remove(self, key: str) -> None:
        self._backend(key).remove(key)
        self._shard_of.pop(key, None)

    def _contains(self, key: str) -> bool:
        return self._backend(key).contains(key)

    def _key_list(self) -> List[str]:
        out: List[str] = []
        for backend in self.backends.values():
            out.extend(backend.keys())
        return out

    # ------------------------------------------------------------------
    # public API overrides: shard consultation + per-shard stats
    # ------------------------------------------------------------------

    def write(self, key: str, data: bytes) -> float:
        self._consult_shard(key, write=True)
        cost = super().write(key, data)
        stats = self.shard_stats[self.shard_for(key)]
        stats.writes += 1
        stats.bytes_written += len(data)
        stats.io_seconds += cost
        return cost

    def read(self, key: str) -> bytes:
        self._consult_shard(key, write=False)
        data = super().read(key)
        stats = self.shard_stats[self.shard_for(key)]
        stats.reads += 1
        stats.bytes_read += len(data)
        stats.io_seconds += self.cost(len(data))
        return data

    def delete(self, key: str) -> float:
        # looked up before the delete drops the key from the memo
        stats = self.shard_stats[self.shard_for(key)]
        self._consult_shard(key, write=True)
        cost = super().delete(key)
        stats.deletes += 1
        stats.io_seconds += cost
        return cost

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def key_distribution(self) -> Dict[str, int]:
        """Keys per shard — how even the ring spread is."""
        return {name: len(backend.keys())
                for name, backend in sorted(self.backends.items())}

    def stats_snapshot(self) -> Dict[str, Any]:
        snap = super().stats_snapshot()
        snap["shards"] = {name: stats.snapshot()
                          for name, stats in sorted(self.shard_stats.items())}
        snap["key_distribution"] = self.key_distribution()
        return snap
