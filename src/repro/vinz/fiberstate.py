"""Fiber state on the shared store: keys, persist, load, rollback.

"Persist, resume anywhere" (paper Section 4.2).  Everything that knows
where a fiber's state lives and how it gets there is here: the store
keys, the fencing check guarding every state write, snapshot-interval
elision, the abort-undo that rolls a window's writes back, reclamation,
and the interplay with the per-node fiber cache.

There is one :meth:`FiberStateStore.persist` and one
:meth:`FiberStateStore.load`.  The whole-blob format (v1) and the
chunked manifest format (v2, :mod:`repro.persistsnap`) differ only in
the encode and decode steps.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Optional, Tuple

from ..bluebox.services import OperationContext, ServiceFault
from ..bluebox.store import StoreError
from ..history import recorder as hist
from ..persistsnap.manifest import is_manifest
from .cache import FiberCache
from .task import FiberRecord, TaskRecord


def state_key(fiber_id: str) -> str:
    return f"fiber-state/{fiber_id}"


def thunk_key(fiber_id: str) -> str:
    return f"fiber-thunk/{fiber_id}"


def task_env_key(task_id: str) -> str:
    return f"task-env/{task_id}"


def task_var_key(task_id: str, name: str) -> str:
    return f"taskvar/{task_id}/{name}"


#: what an operation window may change on the records it advances, and
#: an aborted window must put back
_FIBER_ROLLBACK = ("version", "last_persisted_version", "status",
                   "waiting_on", "finished_at", "result", "error",
                   "instructions_since_snapshot", "snapshot_read_cost")


class _Encoded(NamedTuple):
    """What the encode step produced for one snapshot."""

    blob: bytes             # for the state key
    cost: float             # IO cost already incurred (chunk writes)
    span: str
    detail: dict
    digest: Optional[str]   # digest-cache key (v2)
    read_cost: float        # one later read of the chunks (v2)
_TASK_ROLLBACK = ("status", "finished_at", "result")


class FiberStateStore:
    """One workflow service's view of its fibers' persisted state."""

    def __init__(self, service):
        self.service = service
        self.vinz = service.vinz

    # -- the per-node cache ----------------------------------------------------

    def node_cache(self, ctx: OperationContext) -> Optional[FiberCache]:
        service = self.service
        if not service.cache_enabled or ctx.instance is None:
            return None
        return FiberCache.for_node(
            ctx.node, mutable_capacity=service.cache_capacity,
            immutable_capacity=4 * service.cache_capacity)

    def touch_task_env(self, ctx: OperationContext,
                       cache: Optional[FiberCache],
                       task: TaskRecord) -> None:
        """Load the task's immutable environment (cached per node)."""
        if cache is not None:
            # MISS sentinel: a legitimately-None environment must count
            # as a hit, not force a store re-read on every delivery
            env = cache.get_task_env(task.id, FiberCache.MISS)
            if env is not FiberCache.MISS:
                self.vinz.metrics.incr("cache.immutable.hit")
                return
            self.vinz.metrics.incr("cache.immutable.miss")
        key = task_env_key(task.id)
        if self.vinz.store.exists(key):
            env = self._read(ctx, key, self.service.codec.loads,
                             task=task.id, what="task-env")
        else:  # pragma: no cover - Start always writes it
            env = {"workflow": self.service.name, "params": task.params}
        if cache is not None:
            cache.put_task_env(task.id, env)

    # -- reading ------------------------------------------------------------------

    def _read(self, ctx: OperationContext, key: str,
              decode: Callable[[bytes], Any], **detail: Any) -> Any:
        """Read and decode one blob, charged to the window, under a
        ``persist.decode`` span."""
        store = self.vinz.store
        tracer = ctx.cluster.tracer
        vstart = ctx.now + ctx.charged
        blob = store.read(key)
        ctx.charge(store.cost(len(blob)))
        value = decode(blob)
        if tracer.enabled:
            span = tracer.begin(
                "persist.decode", kind="persistence", start=vstart,
                parent_id=ctx.span_id or None, **detail, bytes=len(blob))
            tracer.end(span, end=ctx.now + ctx.charged)
        return value

    def load_thunk(self, ctx: OperationContext,
                   fiber: FiberRecord) -> Tuple[Any, list]:
        """A child fiber's start thunk ``(fn, args)``: the cloned state."""
        return self._read(
            ctx, thunk_key(fiber.id),
            lambda blob: self.service.codec.loads(blob, fiber_id=fiber.id),
            fiber=fiber.id, what="thunk")

    def load(self, ctx: OperationContext, cache: Optional[FiberCache],
             fiber: FiberRecord):
        """The continuation at ``fiber.version``: from this node's
        cache, from the persisted snapshot, or rebuilt by replay."""
        vinz = self.vinz
        if cache is not None:
            cached = cache.get_continuation(fiber.id, fiber.version,
                                            FiberCache.MISS)
            if cached is not FiberCache.MISS:
                vinz.metrics.incr("cache.mutable.hit")
                return cached
            vinz.metrics.incr("cache.mutable.miss")
        from_start = vinz.recovery_mode == "replay"
        if vinz.history is not None and (
                from_start or fiber.last_persisted_version != fiber.version):
            # either the platform recovers by replay (never reads
            # continuation snapshots), or the wanted version was never
            # persisted (snapshot-interval elision): re-execute the
            # fiber against its recorded history, forward from the
            # newest version this node holds when that is newer than
            # the latest readable snapshot, else from that snapshot,
            # else from the start.  A cached version below
            # ``fiber.version`` is committed: every abort evicts what
            # its window cached, and node death wipes the cache.
            floor = 0 if from_start else fiber.last_persisted_version
            base = (cache.newest_before(fiber.id, fiber.version, floor)
                    if cache is not None else None)
            if base is not None:
                base_from = "cache"
            elif floor:
                base = (self._read_snapshot(ctx, cache, fiber), floor)
                base_from = "snapshot"
            else:
                base_from = "start"
            continuation = self._rebuild(ctx, fiber, base, base_from)
        else:
            continuation = self._read_snapshot(ctx, cache, fiber)
        if cache is not None:
            cache.put_continuation(fiber.id, fiber.version, continuation)
        return continuation

    def _read_snapshot(self, ctx: OperationContext,
                       cache: Optional[FiberCache], fiber: FiberRecord):
        return self._read(
            ctx, state_key(fiber.id),
            lambda blob: self._decode(ctx, cache, fiber, blob),
            fiber=fiber.id, version=fiber.version)

    def _decode(self, ctx: OperationContext, cache: Optional[FiberCache],
                fiber: FiberRecord, blob: bytes):
        """The decode step.  v1 blobs — written in v1 mode or by a
        pre-upgrade deployment — go through the codec (a *manifest*
        reaching a v1 service trips the downgrade guard inside loads).
        v2 manifests try the digest cache first (an unchanged state
        skips chunk fetch *and* deserialization), else fetch + verify
        every chunk; corruption surfaces as a typed
        :class:`~repro.persistsnap.SnapshotError` that aborts the window
        for a policy-driven retry — never a wrong-value restore."""
        service = self.service
        snapper = service.snapper
        if snapper is None or not is_manifest(blob):
            return service.codec.loads(blob, fiber_id=fiber.id)
        snapper.injector = self.vinz.injector
        manifest = snapper.read_manifest(blob, fiber_id=fiber.id)
        if cache is not None:
            hit = cache.get_digest(manifest.hex_digest, FiberCache.MISS)
            if hit is not FiberCache.MISS:
                self.vinz.metrics.incr("cache.digest.hit")
                return hit
            self.vinz.metrics.incr("cache.digest.miss")
        raw, fetch_cost = snapper.fetch_state(manifest, fiber_id=fiber.id)
        ctx.charge(fetch_cost)
        continuation = service.codec.deserialize_state(
            raw, fiber_id=fiber.id, fmt="v2")
        if cache is not None:
            cache.put_digest(manifest.hex_digest, continuation)
        return continuation

    def _rebuild(self, ctx: OperationContext, fiber: FiberRecord, base,
                 base_from: str):
        """Reconstruct the continuation at ``fiber.version`` by replay,
        from the task's start or forward from ``base``, which came from
        ``base_from`` (``"cache"``, ``"snapshot"`` or ``"start"``).  The
        re-executed instructions are charged at the service's
        instruction cost — replay is compute traded for persistence
        IO."""
        from ..history.replay import ReplayError

        try:
            continuation, instructions = self.vinz.replayer.rebuild(
                self.service, fiber, fiber.version, base=base,
                base_from=base_from)
        except ReplayError as err:
            # the recorded history cannot reproduce this fiber: that is
            # this task's problem, not the platform's — fail it through
            # the window runner instead of taking the event loop down
            self.vinz.metrics.incr("history.divergences")
            raise ServiceFault(
                self.service.wsdl.fault_qname("ReplayDiverged"),
                str(err)) from err
        ctx.charge(instructions * self.service.instruction_cost)
        if ctx.tracing:
            ctx.trace("fiber-rebuild", task=fiber.task_id, fiber=fiber.id,
                      version=fiber.version,
                      base=(base[1] if base is not None else None),
                      base_from=base_from)
        return continuation

    def cold_rebuild_cost(self, fiber: FiberRecord) -> float:
        """Virtual seconds a node holding no warm base would be charged
        to rebuild ``fiber``'s current version: one read of the last
        snapshot plus the instructions run since, at the service's
        instruction cost.  0 when that version was persisted (every node
        reads it at the same cost) or no node caches it.  Both inputs
        are fixed when the suspension is persisted or elided."""
        if self.vinz.history is None or not self.service.cache_enabled \
                or fiber.last_persisted_version == fiber.version:
            return 0.0
        return (fiber.snapshot_read_cost + fiber.instructions_since_snapshot
                * self.service.instruction_cost)

    # -- writing ------------------------------------------------------------------

    def persist(self, ctx: OperationContext, cache: Optional[FiberCache],
                fiber: FiberRecord, continuation, instructions: int) -> None:
        """Persist the next version of ``fiber``'s continuation, reached
        by a window that ran ``instructions``."""
        vinz = self.vinz
        # a zombie must not even bump the version: the raise tunnels
        # through the GVM, aborts the window and the message retries
        ctx.check_fence("persist.fence-rejected")
        fiber.version += 1
        if vinz.history is not None \
                and fiber.version % vinz.snapshot_interval:
            # snapshot-interval elision: with history on, only every
            # Nth suspension persists — the versions between snapshots
            # live in the node cache and are rebuilt by replay after a
            # crash or cache miss
            vinz.metrics.incr("persist.skipped")
            fiber.instructions_since_snapshot += instructions
            if cache is not None:
                cache.put_continuation(fiber.id, fiber.version, continuation)
            return
        tracer = ctx.cluster.tracer
        vstart = ctx.now + ctx.charged
        key = state_key(fiber.id)
        encoded = self._encode(ctx, key, fiber, continuation)
        detail = encoded.detail
        ctx.charge(encoded.cost + vinz.store.write(key, encoded.blob))
        if tracer.enabled:
            span = tracer.begin(
                encoded.span, kind="persistence", start=vstart,
                parent_id=ctx.span_id or None, fiber=fiber.id,
                version=fiber.version, **detail)
            tracer.end(span, end=ctx.now + ctx.charged)
        vinz.metrics.incr("persist.writes")
        vinz.metrics.add("persist.bytes", detail["bytes"])
        fiber.last_persisted_version = fiber.version
        if vinz.recovery_mode == "replay":
            # a cold node still rebuilds from the start
            fiber.instructions_since_snapshot += instructions
        else:
            fiber.instructions_since_snapshot = 0
            fiber.snapshot_read_cost = (vinz.store.cost(len(encoded.blob))
                                        + encoded.read_cost)
        if vinz.history is not None:
            vinz.history.record(ctx, fiber.task_id, hist.SNAPSHOT_TAKEN,
                                fiber=fiber.id, version=fiber.version)
        if cache is not None:
            cache.put_continuation(fiber.id, fiber.version, continuation)
            if encoded.digest is not None:
                cache.put_digest(encoded.digest, continuation)
        if vinz.injector is not None:
            # crash-during-persistence faults fire here: the node dies
            # with the window open, the abort hooks roll the fiber (and
            # the just-written blob) back, and the message is requeued
            vinz.injector.on_persist(ctx, fiber)

    def _encode(self, ctx: OperationContext, key: str, fiber: FiberRecord,
                continuation) -> _Encoded:
        """The encode step.  v1 is the whole compressed blob; v2
        chunk-dedups against the fiber's prior manifest and writes only
        new chunks plus a small manifest."""
        snapper = self.service.snapper
        if snapper is None:
            blob = self.service.codec.dumps(continuation)
            return _Encoded(blob, 0.0, "persist.encode",
                            {"bytes": len(blob)}, None, 0.0)
        injector = self.vinz.injector
        snapper.injector = injector
        result = snapper.encode(key, continuation, fiber_id=fiber.id)
        # registered *before* the manifest write: if that write faults,
        # the abort must already know how to roll the chunk writes back.
        # The *prior* manifest's stale references are dropped inside the
        # commit, so the decrements ride its journal batch (compensated
        # if the append fails: a retry against the rolled-back manifest
        # still finds every chunk it names).
        ctx.snap_undos.append(result.undo)
        ctx.before_commit(lambda: ctx.snap_undos.append(result.release()))
        blob = result.blob
        if injector is not None:
            # a torn-manifest fault truncates the blob we are about to
            # write — the tear is silent here and detected on restore
            blob = injector.on_manifest_write(key, blob)
        detail = {"raw": result.raw_len,
                  "bytes": result.chunk_bytes_written + len(blob),
                  "new_chunks": result.chunks_new,
                  "reused": result.chunks_reused}
        store = self.vinz.store
        return _Encoded(blob, result.cost, "snap.encode", detail,
                        result.manifest.hex_digest,
                        sum(store.cost(ref.stored_len)
                            for ref in result.manifest.chunks))

    # -- rollback and reclamation -----------------------------------------------

    def abort_undo(self, ctx: OperationContext, task: TaskRecord,
                   fiber: FiberRecord) -> Callable[[], None]:
        """Build the state-rollback hook for node death mid-window."""
        store = self.vinz.store
        fiber_was = {name: getattr(fiber, name) for name in _FIBER_ROLLBACK}
        task_was = {name: getattr(task, name) for name in _TASK_ROLLBACK}
        blob = store.snapshot_value(state_key(fiber.id))
        thunk = store.snapshot_value(thunk_key(fiber.id))

        def undo():
            # a version persisted inside the aborted window may sit in
            # this node's fiber cache; neither a retry re-reaching the
            # same version number nor a rebuild may start from the
            # aborted state (the group-commit abort path aborts *after*
            # the handler finished, so the cache insert has happened)
            cache = self.node_cache(ctx)
            if cache is not None:
                cache.evict_continuation(fiber.id, fiber_was["version"] + 1)
            for name, value in fiber_was.items():
                setattr(fiber, name, value)
            for name, value in task_was.items():
                setattr(task, name, value)
            # rollback_value (not restore_value): a journaled store
            # also scrubs the key from its uncommitted batch, so the
            # rolled-back write can never be replayed after a crash
            store.rollback_value(state_key(fiber.id), blob)
            store.rollback_value(thunk_key(fiber.id), thunk)

        return undo

    def reclaim(self, ctx, *keys: str) -> None:
        """Best-effort reclamation of persisted fiber state.

        Deletes are real store IO: charged to the window, counted, and
        subject to fault injection.  But a vetoed delete must not take
        down the platform path that happens to be sweeping (finishing a
        task, dead-letter handling) — the blob is merely orphaned, for
        a later sweep to reclaim, so a write-storm campaign degrades
        cleanup without costing liveness.
        """
        store = self.vinz.store
        snapper = self.service.snapper
        for key in keys:
            if snapper is not None:
                # a v2 state key holds a manifest: its chunk references
                # go inside the commit (GC rides the window's batch)
                blob = store.snapshot_value(key)
                if blob is not None and is_manifest(blob):
                    ctx.before_commit(lambda b=blob: ctx.snap_undos.append(
                        snapper.release_blob(b)))
            try:
                ctx.charge(store.delete(key))
            except StoreError:
                if ctx.tracing:
                    ctx.trace("reclaim-skipped", key=key)
                self.vinz.metrics.incr("store.reclaim-skipped")
