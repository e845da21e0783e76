"""The shared persistent store (the paper's NFS filer).

"A shared NFS filesystem provides all instances with read and write
access to this data" (paper Section 4.2).  Vinz writes serialized fiber
state here and any node can read it back.  The store models per-
operation and per-byte IO costs so the serialization benchmark (S4a)
can reproduce the paper's finding that compressing before writing is a
net win: smaller payloads save more simulated IO time than the
compression costs.

``DirectoryStore`` keeps the data in a real directory instead, for
tests that want to survive process boundaries.

Subclasses override the ``_get``/``_put``/``_remove``/``_contains``/
``_key_list`` storage primitives (the durable sharded store in
:mod:`repro.durastore` routes them across backends); the public API —
cost model, statistics, fault-injection consultation — lives here once.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..observe import MetricsRegistry, Tracer


class StoreError(KeyError):
    """A missing key or failed store operation."""


class StoreWriteError(StoreError):
    """A write failed before any state changed (injected IO fault)."""

    #: propagate through the GVM instead of becoming a Gozer condition:
    #: IO faults abort the operation window and are retried by the
    #: platform, invisibly to the workflow program
    tunnels_through_vm = True


class StoreReadError(StoreError):
    """A read failed at the IO layer (injected fault), key intact."""

    tunnels_through_vm = True


class StoreCorruptionError(StoreError):
    """A read returned a corrupt block, detected by the store's
    integrity check (modelled as checksummed NFS: corruption surfaces
    as an IO error rather than silently returning garbage)."""

    tunnels_through_vm = True


class FencedWriteError(StoreError):
    """A fiber-state write was rejected by the fencing check: the
    writer's lock lease was expired or stolen, so a newer owner may
    already be running — the zombie's window aborts instead of
    corrupting state (Netherite-style fencing)."""

    tunnels_through_vm = True


class SharedStore:
    """In-memory shared key/value store with an IO cost model.

    ``op_latency`` is charged per read/write (seek + protocol), and
    ``per_byte`` per byte moved — the costs that make compression
    trade-offs measurable.  Costs are *reported*, not slept: callers in
    the discrete-event world charge them to the simulation clock.
    """

    #: Cost-model calibration (2010-era NFS with many small, synchronous
    #: writers): ~2 ms per operation (RPC + commit) and ~2 µs/byte
    #: (≈0.5 MB/s effective per-client throughput under contention).
    #: With these numbers a typical 4 KB raw fiber blob costs ~10 ms to
    #: write while its ~2 KB deflated form costs ~6 ms — which is what
    #: makes compression "a net win by reducing IO costs considerably"
    #: (paper Section 4.2).
    op_latency = 0.002
    per_byte = 2.0e-6

    def __init__(self):
        self._data: Dict[str, bytes] = {}
        #: optional fault-injection hooks (repro.faults.FaultInjector);
        #: consulted before every read/write/delete and may raise
        #: StoreError
        self.injector = None
        # statistics
        self.reads = 0
        self.writes = 0
        self.deletes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.faulted_ops = 0
        #: charged IO operations / simulated IO seconds, the raw
        #: material of the store-scaling benchmark (group commit's
        #: claim is exactly "fewer ops, less IO time")
        self.io_ops = 0
        self.io_seconds = 0.0
        #: observability wiring (VinzEnvironment points these at the
        #: cluster's; a standalone store traces nothing)
        self.tracer = Tracer(events=False)
        self.metrics = MetricsRegistry(enabled=False)
        self.now_fn = None

    # -- the operation-window protocol ------------------------------------

    #: whether a window is open right now (a context created meanwhile
    #: runs *inside* that window and its writes join that batch)
    window_open = False

    def _no_window(self, batch=None) -> None:
        """The cluster brackets every operation window with these five
        (repro.durastore overrides all): a flat store groups nothing."""

    begin_window = seal_window = abort_window = _no_window
    commit_batch = discard_batch = _no_window

    # -- storage primitives (what subclasses reroute) ---------------------

    def _get(self, key: str) -> Optional[bytes]:
        return self._data.get(key)

    def _put(self, key: str, data: bytes) -> None:
        self._data[key] = data

    def _remove(self, key: str) -> None:
        self._data.pop(key, None)

    def _contains(self, key: str) -> bool:
        return key in self._data

    def _key_list(self) -> List[str]:
        return list(self._data)

    # -- fault-injection consultation -------------------------------------

    def _consult_write(self, key: str) -> None:
        if self.injector is not None:
            try:
                self.injector.on_store_write(key)
            except StoreError:
                self.faulted_ops += 1
                raise

    def _consult_read(self, key: str) -> None:
        if self.injector is not None:
            try:
                self.injector.on_store_read(key)
            except StoreError:
                self.faulted_ops += 1
                raise

    def _checked_lookup(self, key: str) -> bytes:
        """The one missing-key/injector path every read-side operation
        shares: a fault campaign that blacks out a key is visible to
        ``read``, ``read_cost`` and ``size`` alike."""
        self._consult_read(key)
        data = self._get(key)
        if data is None:
            raise StoreError(key)
        return data

    def _account(self, cost: float) -> float:
        self.io_ops += 1
        self.io_seconds += cost
        return cost

    # -- core API ---------------------------------------------------------

    def write(self, key: str, data: bytes) -> float:
        """Store ``data``; return the simulated IO cost in seconds."""
        if not isinstance(data, bytes):
            raise TypeError("store values must be bytes")
        self._consult_write(key)
        self._put(key, data)
        self.writes += 1
        self.bytes_written += len(data)
        return self._account(self.cost(len(data)))

    def read(self, key: str) -> bytes:
        data = self._checked_lookup(key)
        self.reads += 1
        self.bytes_read += len(data)
        self._account(self.cost(len(data)))
        return data

    def read_cost(self, key: str) -> float:
        """Probe the cost a :meth:`read` of ``key`` would charge
        (uncounted — no payload moves)."""
        return self.cost(len(self._checked_lookup(key)))

    def delete(self, key: str) -> float:
        """Remove ``key``; return the simulated IO cost in seconds.

        Deletes are store IO too: they charge ``op_latency``, count in
        the statistics, and the fault injector may veto them exactly
        like writes (a delete mutates the filer).  Deleting a missing
        key is a no-op but still costs the round trip.
        """
        self._consult_write(key)
        self._remove(key)
        self.deletes += 1
        return self._account(self.cost(0))

    def exists(self, key: str) -> bool:
        return self._contains(key)

    def keys(self, prefix: str = "") -> List[str]:
        return sorted(k for k in self._key_list() if k.startswith(prefix))

    def size(self, key: str) -> int:
        return len(self._checked_lookup(key))

    def cost(self, nbytes: int) -> float:
        """The simulated seconds one IO of ``nbytes`` takes."""
        return self.op_latency + nbytes * self.per_byte

    # -- crash-recovery support (no stats impact) -------------------------

    def snapshot_value(self, key: str) -> Optional[bytes]:
        """Peek a value for later restoration (uncounted)."""
        return self._get(key)

    def restore_value(self, key: str, value: Optional[bytes]) -> None:
        """Put back a snapshot taken with :meth:`snapshot_value`
        (uncounted) — used to roll back writes of an aborted operation."""
        if value is None:
            self._remove(key)
        else:
            self._put(key, value)

    #: the abort-undo entry point: a journaled store also scrubs the key
    #: from its uncommitted batch, so rollback and replay compose
    rollback_value = restore_value

    def total_bytes(self) -> int:
        return sum(len(self._get(k) or b"") for k in self._key_list())

    # -- reporting ---------------------------------------------------------

    def stats_snapshot(self) -> Dict[str, Any]:
        """The store section of the observability report."""
        return {
            "kind": type(self).__name__,
            "reads": self.reads,
            "writes": self.writes,
            "deletes": self.deletes,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "faulted_ops": self.faulted_ops,
            "io_ops": self.io_ops,
            "io_seconds": self.io_seconds,
        }


class DirectoryStore(SharedStore):
    """A shared store kept in a real directory.

    Used by the persistence integration tests to prove a fiber written
    by one process can be resumed by another — the property the paper's
    NFS setup provides between JVMs.  The bytes live in a
    :class:`~repro.durastore.backend.DirectoryBackend` (file naming,
    atomic writes, hydration from disk); this class adds the cost
    model, statistics and fault hooks every ``SharedStore`` has.
    """

    def __init__(self, root: str):
        super().__init__()
        # imported here: repro.durastore's package init imports this
        # module for StoreError
        from ..durastore.backend import DirectoryBackend
        self.root = root
        self._plane = DirectoryBackend("directory", root)

    def _get(self, key: str) -> Optional[bytes]:
        return self._plane.get(key)

    def _put(self, key: str, data: bytes) -> None:
        self._plane.put(key, data)

    def _remove(self, key: str) -> None:
        self._plane.remove(key)

    def _contains(self, key: str) -> bool:
        return self._plane.contains(key)

    def _key_list(self) -> List[str]:
        return self._plane.keys()
