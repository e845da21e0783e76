"""The content-addressed chunk plane with reference counting.

Chunks live in the ordinary shared store (and therefore in the durable
store's journal, when one is configured) under ``snapchunk/<digest>``;
each chunk's reference count lives beside it under ``snapref/<digest>``
as a little-endian u32.  Refcount mutations are real store writes, so
inside an operation window they ride the window's group-commit journal
batch — a fiber completing decrements its chunks *in the journal*, and
crash recovery replays exactly the committed refcount state.

Reference counts are read through an in-memory cache (hydrated lazily
with uncounted peeks, like the lock manager's metadata): every node in
the simulation shares the store object, so the cache is just the
store-side index a real implementation would keep per storage plane.
Mutations always write through.
"""

from __future__ import annotations

import struct
from typing import Dict, Optional, Tuple

CHUNK_PREFIX = "snapchunk/"
REF_PREFIX = "snapref/"

_REF = struct.Struct("<I")


class ChunkStore:
    """Refcounted content-addressed chunks over a shared store."""

    def __init__(self, store):
        self.store = store
        #: hex digest -> cached refcount (write-through)
        self._refs: Dict[str, int] = {}
        #: hex digest -> stored payload length (for the size gauge)
        self._sizes: Dict[str, int] = {}
        # statistics
        self.chunks_written = 0
        self.chunks_reused = 0
        self.chunks_deleted = 0
        self.bytes_stored = 0

    @classmethod
    def for_store(cls, store) -> "ChunkStore":
        """The chunk plane living on ``store`` (one per store, shared by
        every workflow service, so dedup works across deployments)."""
        plane = getattr(store, "_chunk_plane", None)
        if plane is None:
            plane = cls(store)
            store._chunk_plane = plane
        return plane

    @staticmethod
    def chunk_key(hex_digest: str) -> str:
        return CHUNK_PREFIX + hex_digest

    @staticmethod
    def ref_key(hex_digest: str) -> str:
        return REF_PREFIX + hex_digest

    # -- refcount bookkeeping ---------------------------------------------

    def refcount(self, hex_digest: str) -> int:
        cached = self._refs.get(hex_digest)
        if cached is not None:
            return cached
        raw = self.store.snapshot_value(self.ref_key(hex_digest))
        count = _REF.unpack(raw)[0] if raw else 0
        self._refs[hex_digest] = count
        return count

    def _write_ref(self, hex_digest: str, count: int) -> float:
        cost = self.store.write(self.ref_key(hex_digest), _REF.pack(count))
        self._refs[hex_digest] = count
        return cost

    # -- the write path ---------------------------------------------------

    def add(self, hex_digest: str, payload: bytes) -> Tuple[float, bool]:
        """Reference ``payload`` under its digest: writes the chunk
        only when it is not already stored, always increments the
        refcount.  Returns ``(io_cost, created)``; :meth:`rollback_add`
        is its abort-undo."""
        prev = self.refcount(hex_digest)
        cost = 0.0
        created = False
        if prev == 0 or not self.store.exists(self.chunk_key(hex_digest)):
            cost += self.store.write(self.chunk_key(hex_digest), payload)
            created = True
            self.chunks_written += 1
            self.bytes_stored += len(payload)
            self._sizes[hex_digest] = len(payload)
        else:
            self.chunks_reused += 1
        cost += self._write_ref(hex_digest, prev + 1)
        return cost, created

    # Chunk keys are shared: while the window that took (or dropped) a
    # reference is in flight, another fiber's window may move the same
    # count.  So the abort-undos *compensate* — apply the inverse step
    # to whatever the count is now — instead of restoring the value the
    # aborted window first saw; they must run newest-first.

    def _restore_ref(self, hex_digest: str, count: int) -> None:
        self.store.rollback_value(self.ref_key(hex_digest),
                                  _REF.pack(count) if count else None)
        self._refs[hex_digest] = count

    def rollback_add(self, hex_digest: str) -> None:
        """Abort-undo for one :meth:`add`: give the reference back, and
        remove the chunk only if nobody else holds one."""
        count = max(self.refcount(hex_digest) - 1, 0)
        self._restore_ref(hex_digest, count)
        if not count:
            self.store.rollback_value(self.chunk_key(hex_digest), None)
            self.chunks_written -= 1
            self.bytes_stored -= self._sizes.pop(hex_digest, 0)

    def rollback_release(self, hex_digest: str,
                         payload: Optional[bytes]) -> None:
        """Abort-undo for one :meth:`release`: take the reference back,
        re-storing the chunk (``payload`` is what release returned) if
        the release had deleted it."""
        key = self.chunk_key(hex_digest)
        if payload is not None and not self.store.exists(key):
            self.store.rollback_value(key, payload)
            self.chunks_deleted -= 1
            self.bytes_stored += len(payload)
            self._sizes[hex_digest] = len(payload)
        self._restore_ref(hex_digest, self.refcount(hex_digest) + 1)

    # -- the release path (GC) --------------------------------------------

    def release(self, hex_digest: str) -> Optional[bytes]:
        """Drop one reference; delete the chunk when none remain.

        The decrement (or the deletes) are ordinary store mutations:
        inside an operation window they join its journal batch, which
        is how "GC via refcount decrement in the journal" composes with
        crash recovery.  Returns the payload of a chunk it deleted (for
        :meth:`rollback_release`), else ``None``.
        """
        count = self.refcount(hex_digest)
        if count > 1:
            self._write_ref(hex_digest, count - 1)
            return None
        payload = self.store.snapshot_value(self.chunk_key(hex_digest))
        self.store.delete(self.chunk_key(hex_digest))
        self.store.delete(self.ref_key(hex_digest))
        self._refs[hex_digest] = 0
        self.chunks_deleted += 1
        self.bytes_stored -= self._sizes.pop(hex_digest, 0)
        return payload

    # -- reads ------------------------------------------------------------

    def get(self, hex_digest: str) -> Optional[bytes]:
        """The stored payload, or ``None`` when the plane lost it.
        Charged by the caller via the returned payload's size."""
        key = self.chunk_key(hex_digest)
        if not self.store.exists(key):
            return None
        return self.store.read(key)

    # -- reporting ---------------------------------------------------------

    def stats_snapshot(self) -> Dict[str, int]:
        return {
            "chunks_written": self.chunks_written,
            "chunks_reused": self.chunks_reused,
            "chunks_deleted": self.chunks_deleted,
            "bytes_stored": self.bytes_stored,
        }
