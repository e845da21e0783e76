"""The content-addressed chunk plane with reference counting.

Chunks live in the ordinary shared store (and therefore in the durable
store's journal, when one is configured) under ``snapchunk/<digest>``.
A chunk's reference count is not stored anywhere: it is how many times
the manifests on the store name it.  The plane derives that index once,
when it is built, from an uncounted scan of the store's manifests, and
from then on :meth:`ChunkStore.add`, :meth:`ChunkStore.release` and
their undos keep it in step with the manifests they make and unmake.

Only the chunk writes and deletes are store mutations, so inside an
operation window they ride the window's group-commit journal batch
beside the manifest that made them necessary.  Crash recovery replays
manifests and chunks; a plane built over the recovered store counts
the recovered manifests, which is the right count whatever order the
windows committed in.  Every node in the simulation shares the store
object, so the index is just the store-side one a real implementation
would keep per storage plane.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Optional, Tuple

from ..bluebox.store import StoreError
from .manifest import decode_manifest, is_manifest

CHUNK_PREFIX = "snapchunk/"


def chunk_counts(blob: Optional[bytes]) -> Counter:
    """How many times the manifest ``blob`` names each chunk digest:
    nothing for an absent key, a v1 blob or a torn manifest (it never
    finished, so it holds no reference)."""
    if blob is None or not is_manifest(blob):
        return Counter()
    try:
        manifest = decode_manifest(blob)
    except StoreError:
        return Counter()
    return Counter(ref.hex for ref in manifest.chunks)


class ChunkStore:
    """Refcounted content-addressed chunks over a shared store."""

    def __init__(self, store):
        self.store = store
        #: hex digest -> references the manifests hold (live ones only)
        self.refs: Counter = Counter()
        for key in store.keys():
            if not key.startswith(CHUNK_PREFIX):
                self.refs.update(chunk_counts(store.snapshot_value(key)))
        #: hex digest -> stored payload length, recorded when the plane
        #: stores the chunk: the size gauge, and what lets an encode name
        #: a chunk the plane holds without compressing it again
        self._sizes: Dict[str, int] = {}
        # statistics
        self.chunks_written = 0
        #: adds that found the chunk already stored (refcount only)
        self.chunks_present = 0
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

    def refcount(self, hex_digest: str) -> int:
        return self.refs[hex_digest]

    def stored_size(self, hex_digest: str) -> Optional[int]:
        """The stored length of a chunk this plane wrote, or ``None``
        (never written here: new, or counted from recovered manifests)."""
        return self._sizes.get(hex_digest)

    # -- the write path ---------------------------------------------------

    def add(self, hex_digest: str,
            make_payload: Callable[[], bytes]) -> Tuple[float, bool]:
        """Reference a chunk under its digest: writes it — the bytes
        ``make_payload()`` returns, asked for only then — when it is not
        already stored, always increments the refcount.  Returns
        ``(io_cost, created)``; :meth:`rollback_add` is its abort-undo."""
        prev = self.refs[hex_digest]
        cost = 0.0
        created = False
        if prev == 0 or not self.store.exists(self.chunk_key(hex_digest)):
            payload = make_payload()
            cost = self.store.write(self.chunk_key(hex_digest), payload)
            created = True
            self.chunks_written += 1
            self.bytes_stored += len(payload)
            self._sizes[hex_digest] = len(payload)
        else:
            self.chunks_present += 1
        self.refs[hex_digest] = prev + 1
        return cost, created

    # Chunk keys are shared: while the window that took (or dropped) a
    # reference is in flight, another fiber's window may move the same
    # count.  So the abort-undos *compensate* — apply the inverse step
    # to whatever the count is now — instead of restoring the value the
    # aborted window first saw; they must run newest-first.

    def rollback_add(self, hex_digest: str) -> None:
        """Abort-undo for one :meth:`add`: give the reference back, and
        remove the chunk only if nobody else holds one."""
        count = self.refs[hex_digest] - 1
        if count > 0:
            self.refs[hex_digest] = count
            return
        self.refs.pop(hex_digest, None)
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
        self.refs[hex_digest] += 1

    # -- the release path (GC) --------------------------------------------

    def release(self, hex_digest: str) -> Optional[bytes]:
        """Drop one reference; delete the chunk when none remain.

        The delete is an ordinary store mutation: inside an operation
        window it joins the journal batch that drops the manifest's
        reference, which is how chunk GC composes with crash recovery.
        Returns the payload of a chunk it deleted (for
        :meth:`rollback_release`), else ``None``.
        """
        count = self.refs[hex_digest]
        if count > 1:
            self.refs[hex_digest] = count - 1
            return None
        key = self.chunk_key(hex_digest)
        payload = self.store.snapshot_value(key)
        self.store.delete(key)
        self.refs.pop(hex_digest, None)
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
            "chunks_present": self.chunks_present,
            "chunks_deleted": self.chunks_deleted,
            "bytes_stored": self.bytes_stored,
        }
