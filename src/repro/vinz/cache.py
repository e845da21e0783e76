"""The per-node fiber cache (paper Section 4.2).

"Reconstituting a fiber from its persisted state is still relatively
slow and so a cache of recently seen fibers is maintained in memory on
each instance.  Because Vinz executes no control over where a fiber
will be asked to run (leaving that in the hands of the message queue),
the cache is only somewhat effective.  Empirical measurements show
cache hit rates of about 18% and 66% for mutable and immutable data,
respectively."

The split the paper measures maps onto two caches:

* **mutable** — the fiber's continuation, re-versioned at every
  suspend; one entry per fiber, holding the newest version this node
  saw.  A hit requires this node to have run *that exact version*.
  For a persisted version placement is the queue's random choice, as
  in the paper, so the rate stays low.  A version elided by the
  snapshot interval lives only here, so its resume waits for this node
  (up to what a cold rebuild would cost) and mostly hits.  A miss on
  an elided version may still find an older committed version here:
  the replay rebuild starts from it instead of from the last snapshot
  or the task start (:meth:`FiberCache.newest_before`);
* **immutable** — per-task data that never changes after Start (the
  task's parameters/environment); a hit only requires this node to have
  seen *any* fiber of the task before, so the rate is much higher.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Generic, Hashable, Optional, Tuple, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

#: cache-miss sentinel: distinguishes "not cached" from "cached None".
#: A task whose immutable environment is legitimately ``None`` must be
#: a cache *hit* — treating it as a miss re-fetches from the store on
#: every delivery and skews the hit-rate statistics.
MISS = object()


class LruCache(Generic[K, V]):
    """A small LRU cache with hit/miss statistics."""

    #: class-level alias for callers: ``cache.get(k, LruCache.MISS)``
    MISS = MISS

    def __init__(self, capacity: int = 256):
        self.capacity = capacity
        self._data: "OrderedDict[K, V]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: K, default: Any = None) -> Optional[V]:
        """The cached value, or ``default`` on a miss.  Pass
        :data:`MISS` as the default when cached ``None`` values must be
        distinguishable from absence."""
        if key in self._data:
            self._data.move_to_end(key)
            self.hits += 1
            return self._data[key]
        self.misses += 1
        return default

    def __contains__(self, key: K) -> bool:
        """Presence test; does not touch LRU order or statistics."""
        return key in self._data

    def peek(self, key: K, default: Any = None) -> Optional[V]:
        """The cached value without touching LRU order or statistics."""
        return self._data.get(key, default)

    def put(self, key: K, value: V) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def invalidate(self, key: K) -> None:
        self._data.pop(key, None)

    def clear(self) -> None:
        self._data.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._data)


class FiberCache:
    """One node's in-memory cache of recently seen fibers.

    Keys: mutable entries by ``fiber_id``, each ``(version,
    continuation)``; immutable entries by ``task_id``.  The cluster
    wipes a node's memory on failure, which correctly loses the cache.
    """

    #: module-level miss sentinel, re-exported for callers
    MISS = MISS

    def __init__(self, mutable_capacity: int = 256,
                 immutable_capacity: int = 1024):
        self.mutable: LruCache[str, Tuple[int, Any]] = \
            LruCache(mutable_capacity)
        self.immutable: LruCache[str, Any] = LruCache(immutable_capacity)
        #: v2 snapshots only: continuations keyed by manifest state
        #: digest.  Content-addressed, so unlike the version-keyed
        #: mutable cache a hit needs only that this node restored *the
        #: same state bytes* before — a fiber suspending unchanged
        #: around a loop hits here without refetching or deserializing.
        #: (Content addressing also makes abort-eviction unnecessary:
        #: a digest always names the state it was cached from.)
        self.by_digest: LruCache[str, Any] = LruCache(mutable_capacity)

    def get_continuation(self, fiber_id: str, version: int,
                         default: Any = None) -> Optional[Any]:
        """The continuation at exactly ``version``; anything else is a
        miss (the paper's mutable hit)."""
        entry = self.mutable.peek(fiber_id)
        if entry is None or entry[0] != version:
            self.mutable.misses += 1
            return default
        return self.mutable.get(fiber_id)[1]  # counts the hit

    def put_continuation(self, fiber_id: str, version: int, state: Any) -> None:
        self.mutable.put(fiber_id, (version, state))

    def newest_before(self, fiber_id: str, version: int,
                      floor: int) -> Optional[Tuple[Any, int]]:
        """``(continuation, v)`` when this node holds version ``v`` of
        the fiber with ``floor < v < version``, else ``None``: a warmer
        base than ``floor`` for rebuilding ``version``.  Neither a hit
        nor a miss."""
        entry = self.mutable.peek(fiber_id)
        if entry is None or not floor < entry[0] < version:
            return None
        return entry[1], entry[0]

    def evict_continuation(self, fiber_id: str, from_version: int) -> None:
        """Drop the fiber's entry if it holds ``from_version`` or later
        (abort rollback: those versions are being rolled back, so
        neither a retry re-reaching them nor a rebuild may start from
        the aborted window's state)."""
        entry = self.mutable.peek(fiber_id)
        if entry is not None and entry[0] >= from_version:
            self.mutable.invalidate(fiber_id)

    def get_digest(self, hex_digest: str, default: Any = None) -> Optional[Any]:
        return self.by_digest.get(hex_digest, default)

    def put_digest(self, hex_digest: str, state: Any) -> None:
        self.by_digest.put(hex_digest, state)

    def get_task_env(self, task_id: str, default: Any = None) -> Optional[Any]:
        return self.immutable.get(task_id, default)

    def put_task_env(self, task_id: str, env: Any) -> None:
        self.immutable.put(task_id, env)

    @classmethod
    def for_node(cls, node, **kwargs) -> "FiberCache":
        """Get/create the cache living in a cluster node's memory."""
        cache = node.memory.get("fiber-cache")
        if cache is None:
            cache = cls(**kwargs)
            node.memory["fiber-cache"] = cache
        return cache
