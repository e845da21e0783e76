"""Every task-owned store key: names, writes, reads, rollback, reclaim.

"Persist, resume anywhere" (paper Section 4.2).  A task owns its
environment (``task-env/``), child fibers' start thunks
(``fiber-thunk/``), fibers' continuations (``fiber-state/``) and task
variables (``taskvar/``).  Only this module touches them, through one
write path whose undos join the window's undo log; a finishing fiber
drops its state and thunk, a finishing task its environment and the
task variables it set.  The history stays, for ``replay_task``.

There is one :meth:`FiberStateStore.persist` and one
:meth:`FiberStateStore.load`.  The whole-blob format (v1) and the
chunked manifest format (v2, :mod:`repro.persistsnap`) differ only in
the encode and decode steps.
"""

from __future__ import annotations

from typing import Any, Callable, List, NamedTuple, Optional, Tuple

from ..bluebox.services import OperationContext, ServiceFault
from ..bluebox.store import StoreError
from ..lang.errors import GozerRuntimeError
from ..persistsnap.manifest import is_manifest
from .cache import FiberCache
from .task import FiberRecord, TaskRecord, log_undo

#: seconds a task-variable write pays for its lock round trip
TASKVAR_LOCK_OVERHEAD = 0.002


def state_key(fiber_id: str) -> str:
    return f"fiber-state/{fiber_id}"


def thunk_key(fiber_id: str) -> str:
    return f"fiber-thunk/{fiber_id}"


def task_env_key(task_id: str) -> str:
    return f"task-env/{task_id}"


def task_var_key(task_id: str, name: str) -> str:
    return f"taskvar/{task_id}/{name}"


def owned_keys(store, task: TaskRecord) -> List[str]:
    """The keys ``task`` owns that ``store`` still holds."""
    keys = [task_env_key(task.id)] + [
        key(fiber_id) for fiber_id in task.fiber_ids
        for key in (state_key, thunk_key)]
    return ([key for key in keys if store.exists(key)]
            + store.keys(task_var_key(task.id, "")))


class _Encoded(NamedTuple):
    """What the encode step produced for one snapshot."""

    blob: bytes             # for the state key
    cost: float             # IO cost already incurred (chunk writes)
    span: str
    detail: dict
    read_cost: float        # one later read of the chunks (v2)


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
            ctx.node, mutable_capacity=service.cache_capacity)

    def touch_task_env(self, ctx: OperationContext,
                       cache: Optional[FiberCache],
                       task: TaskRecord) -> None:
        """Read the task's immutable environment unless this node did
        already (Section 4.2); nothing decodes it, so it caches a marker."""
        if cache is not None:
            if cache.get_task_env(task.id) is not None:
                self.vinz.metrics.incr("cache.immutable.hit")
                return
            self.vinz.metrics.incr("cache.immutable.miss")
        key = task_env_key(task.id)
        if self.vinz.store.exists(key):  # dropped once the task finished
            self._read(ctx, key, len, task=task.id, what="task-env")
        if cache is not None:
            cache.put_task_env(task.id, True)

    def write_task_env(self, ctx: OperationContext, task: TaskRecord) -> None:
        """Persist the task's immutable environment once, at Start."""
        self._write(ctx, task_env_key(task.id), self.service.codec.dumps(
            {"workflow": self.service.name, "params": task.params}))

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
             fiber: FiberRecord) -> Tuple[Any, Optional[tuple]]:
        """``(continuation, live)`` at ``fiber.version``: the
        continuation from this node's cache, else from that version's
        own snapshot, else rebuilt by replay from the newest base;
        ``live`` the state a suspension on this node left beside a
        cached one, taken (so at most once), else None."""
        vinz = self.vinz
        if cache is not None:
            cached = cache.get_continuation(fiber.id, fiber.version,
                                            FiberCache.MISS)
            if cached is not FiberCache.MISS:
                vinz.metrics.incr("cache.mutable.hit")
                live = cache.take_live(fiber.id, fiber.version)
                if live is not None:
                    vinz.metrics.incr("cache.mutable.live")
                return cached, live
            vinz.metrics.incr("cache.mutable.miss")
        if fiber.last_persisted_version != fiber.version:
            # the wanted version was never persisted (snapshot-interval
            # elision, so history is on): re-execute the fiber against
            # its recorded history, forward from the newest version this
            # node holds when that is newer than the last persisted one,
            # else from that snapshot, else from the start.  A cached
            # version below ``fiber.version`` is committed: every abort
            # evicts what its window cached, and node death wipes the
            # cache.
            floor = fiber.last_persisted_version
            base = (cache.newest_before(fiber.id, fiber.version, floor)
                    if cache is not None else None)
            if base is not None:
                base_from = "cache"
            elif floor:
                base = (self._read_snapshot(ctx, fiber), floor)
                base_from = "snapshot"
            else:
                base_from = "start"
            continuation = self._rebuild(ctx, fiber, base, base_from)
        else:
            continuation = self._read_snapshot(ctx, fiber)
        if cache is not None:
            cache.put_continuation(fiber.id, fiber.version, continuation)
        return continuation, None

    def _read_snapshot(self, ctx: OperationContext, fiber: FiberRecord):
        return self._read(
            ctx, state_key(fiber.id),
            lambda blob: self._decode(ctx, fiber, blob),
            fiber=fiber.id, version=fiber.version)

    def _decode(self, ctx: OperationContext, fiber: FiberRecord,
                blob: bytes):
        """The decode step.  v1 blobs — written in v1 mode or by a
        pre-upgrade deployment — go through the codec (a *manifest*
        reaching a v1 service trips the downgrade guard inside loads).
        v2 manifests fetch and verify every chunk; corruption surfaces
        as a typed :class:`~repro.persistsnap.SnapshotError` that aborts
        the window for a policy-driven retry — never a wrong-value
        restore."""
        service = self.service
        snapper = service.snapper
        if snapper is None or not is_manifest(blob):
            return service.codec.loads(blob, fiber_id=fiber.id)
        snapper.injector = self.vinz.injector
        manifest = snapper.read_manifest(blob, fiber_id=fiber.id)
        raw, fetch_cost = snapper.fetch_state(manifest, fiber_id=fiber.id)
        ctx.charge(fetch_cost)
        return service.codec.deserialize_state(
            raw, fiber_id=fiber.id, fmt="v2")

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
        if not self.service.cache_enabled \
                or fiber.last_persisted_version == fiber.version:
            return 0.0
        return (fiber.snapshot_read_cost + fiber.instructions_since_snapshot
                * self.service.instruction_cost)

    # -- writing ------------------------------------------------------------------

    def persist(self, ctx: OperationContext, cache: Optional[FiberCache],
                fiber: FiberRecord, continuation, instructions: int,
                live: Optional[tuple] = None) -> None:
        """Persist the next version of ``fiber``'s continuation, reached
        by a window that ran ``instructions``; the node cache keeps
        ``live``, the state the suspended VM stopped using, beside it.

        With history on, the write is elided while fewer than
        ``snapshot_interval`` versions have passed since the fiber's
        last snapshot and replaying the work since that snapshot costs
        no more than one store write of the capture's bytes: a window
        that would replay for longer is snapshotted where it ends.  With
        the default interval of 1 every suspension is written."""
        vinz = self.vinz
        # a zombie must not even bump the version: the raise tunnels
        # through the GVM, aborts the window and the message retries
        ctx.check_fence("persist.fence-rejected")
        version = fiber.version + 1
        if cache is not None:
            # neither a retry re-reaching this version number nor a
            # rebuild may start from what an aborted window cached
            log_undo(ctx, lambda: cache.evict_continuation(fiber.id, version))
        replay_since = fiber.instructions_since_snapshot + instructions
        if (version - fiber.last_persisted_version < vinz.snapshot_interval
                and replay_since * self.service.instruction_cost
                <= vinz.store.cost(len(continuation.raw))):
            # elided (history is on): the version lives only in the
            # node cache and is rebuilt by replay after a crash or a
            # cache miss
            vinz.metrics.incr("persist.skipped")
            vinz.registry.set(ctx, fiber, version=version,
                              instructions_since_snapshot=replay_since)
            if cache is not None:
                cache.put_continuation(fiber.id, version, continuation, live)
            return
        tracer = ctx.cluster.tracer
        vstart = ctx.now + ctx.charged
        key = state_key(fiber.id)
        encoded = self._encode(ctx, key, fiber, continuation)
        detail = encoded.detail
        ctx.charge(encoded.cost)
        self._write(ctx, key, encoded.blob)
        if tracer.enabled:
            span = tracer.begin(
                encoded.span, kind="persistence", start=vstart,
                parent_id=ctx.span_id or None, fiber=fiber.id,
                version=version, **detail)
            tracer.end(span, end=ctx.now + ctx.charged)
        vinz.metrics.incr("persist.writes")
        vinz.metrics.add("persist.bytes", detail["bytes"])
        vinz.registry.set(ctx, fiber, version=version,
                          last_persisted_version=version,
                          instructions_since_snapshot=0,
                          snapshot_read_cost=(vinz.store.cost(
                              len(encoded.blob)) + encoded.read_cost))
        if cache is not None:
            cache.put_continuation(fiber.id, fiber.version, continuation,
                                   live)
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
                            {"bytes": len(blob)}, 0.0)
        injector = self.vinz.injector
        snapper.injector = injector
        result = snapper.encode(key, continuation, fiber_id=fiber.id)
        # registered *before* the manifest write: if that write faults,
        # the abort must already know how to roll the chunk writes back.
        # The *prior* manifest's stale references are dropped inside the
        # commit, so the decrements ride its journal batch (compensated
        # if the append fails: a retry against the rolled-back manifest
        # still finds every chunk it names).
        ctx.on_abort(result.undo)
        ctx.before_commit(lambda window: window.on_abort(result.release()))
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
                        sum(store.cost(ref.stored_len)
                            for ref in result.manifest.chunks))

    # -- the one write path -----------------------------------------------------

    def _write(self, ctx: OperationContext, key: str,
               blob: Optional[bytes]) -> None:
        """Write ``blob`` at a task-owned key (None deletes), charged to
        the window.  An abort puts back the value this replaced while the
        key still holds ``blob`` (the very object), so a later window's
        write stays; newest-first, a key written twice goes back through
        each value.  ``rollback_value`` also scrubs the journal batch."""
        store = self.vinz.store
        prior = store.snapshot_value(key)
        ctx.charge(store.write(key, blob) if blob is not None
                   else store.delete(key))

        def undo() -> None:
            if store.snapshot_value(key) is blob:
                store.rollback_value(key, prior)

        log_undo(ctx, undo)

    def _delete(self, ctx: OperationContext, key: str) -> None:
        """Best-effort delete: a vetoed one (store fault) orphans the
        blob and is counted, so a write-storm campaign degrades cleanup
        but not the path that is sweeping (task finish, dead letters)."""
        snapper = self.service.snapper
        blob = self.vinz.store.snapshot_value(key)
        if snapper is not None and blob is not None and is_manifest(blob):
            # a v2 state key holds a manifest: its chunk references go
            # inside the commit (GC rides the window's batch)
            ctx.before_commit(
                lambda window: window.on_abort(snapper.release_blob(blob)))
        try:
            self._write(ctx, key, None)
        except StoreError:
            if ctx.tracing:
                ctx.trace("reclaim-skipped", key=key)
            self.vinz.metrics.incr("store.reclaim-skipped")

    # -- thunks and task variables ------------------------------------------------

    def write_thunk(self, ctx: OperationContext, fiber: FiberRecord,
                    fn, args: List[Any]) -> None:
        """A child fiber's start thunk: serializing the closure clones
        everything ``fn`` captures (Section 3.4)."""
        self._write(ctx, thunk_key(fiber.id),
                    self.service.codec.dumps((fn, list(args))))

    def get_task_var(self, ctx: OperationContext, task: TaskRecord,
                     fiber: FiberRecord, name: str) -> Any:
        """Read-through to the store: every fiber "will always see the
        latest value" (Section 3.6)."""
        key = task_var_key(task.id, name)
        self.vinz.metrics.incr("taskvar.reads")
        if self.vinz.store.exists(key):
            return self._read(
                ctx, key,
                lambda blob: self.service.codec.loads(blob, fiber_id=fiber.id),
                fiber=fiber.id, what="taskvar")
        if name not in self.service.task_var_defaults:
            raise GozerRuntimeError(f"undeclared task variable ^{name}^")
        return self.service.task_var_defaults[name]

    def set_task_var(self, ctx: OperationContext, task: TaskRecord,
                     name: str, value: Any) -> None:
        """Locked write: the paper's "very high synchronization
        overhead for mutation".  The lock is named like the key."""
        locks = self.vinz.locks
        key = task_var_key(task.id, name)
        while not locks.try_acquire(key, ctx.owner):
            # NFS attribute caching: a just-released file lock still
            # looks held; nothing holds it longer (see the release below)
            wait = getattr(locks, "stale_visibility_remaining",
                           lambda _k: 0.0)(key)
            if not wait:  # pragma: no cover - defensive
                raise GozerRuntimeError(f"task variable lock {key} is "
                                        f"held by {locks.holder(key)}")
            ctx.charge(wait)
            locks.expire_visibility(key)
        try:
            self._write(ctx, key, self.service.codec.dumps(value))
            ctx.charge(TASKVAR_LOCK_OVERHEAD)
            self.vinz.metrics.incr("taskvar.writes")
        finally:
            locks.release(key, ctx.owner)

    # -- reclamation ------------------------------------------------------------

    def drop_fiber(self, ctx: OperationContext, fiber: FiberRecord) -> None:
        """A finished fiber (completed, failed or terminated) drops its
        state, its start thunk and its live state."""
        self._delete(ctx, state_key(fiber.id))
        self._delete(ctx, thunk_key(fiber.id))
        self.drop_live(ctx, fiber)

    def drop_live(self, ctx: OperationContext, fiber: FiberRecord) -> None:
        """The node that last ran ``fiber`` (``fiber.last_node``), the
        only one a suspension can have left a live state on, forgets it:
        the fiber finished or runs elsewhere now, so one live state per
        unfinished fiber stays the most the cluster holds."""
        node = ctx.cluster.nodes.get(fiber.last_node)
        cache = FiberCache.of_node(node) if node is not None else None
        if cache is not None:
            cache.drop_live(fiber.id)

    def drop_task(self, ctx: OperationContext, task: TaskRecord) -> None:
        """A finished task drops its environment and every task
        variable it set; its history stays for verification."""
        self._delete(ctx, task_env_key(task.id))
        for name in self.service.task_var_defaults:
            key = task_var_key(task.id, name)
            if self.vinz.store.exists(key):
                self._delete(ctx, key)
