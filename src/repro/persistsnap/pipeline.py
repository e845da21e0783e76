"""The incremental continuation-snapshot pipeline (format v2).

v1 persistence rewrites a fiber's whole compressed blob on every
suspension.  v2 splits the serialized state into content-defined
chunks, stores each chunk once (content-addressed, refcounted) and
persists the suspension as a small *manifest* of chunk digests — so a
fiber suspending twenty times around a loop rewrites the few chunks
its mutation actually touched, not its whole continuation.  This is
the incremental-state-capture lever Netherite demonstrates for
durable-workflow throughput, applied to Gozer's hottest path.

Responsibilities are split with the workflow service:

* the pipeline serializes, chunks, compresses (per-chunk raw deflate,
  stored raw when it saves under 10%), writes new chunks, counts their
  references, and builds the manifest blob;
* the service writes the manifest at the fiber's state key (so the
  existing abort-undo machinery rolls it back untouched), charges the
  returned IO cost to the operation window, registers the pipeline's
  ``undo`` (on abort) and ``release`` (inside the commit) callables,
  and emits the ``snap.*`` spans.

Reference counts are derived from the manifests (see
:mod:`.chunkstore`); only chunk writes and deletes reach the store, so
inside an operation window they ride the durable store's group-commit
journal batch with the manifests that name them.
"""

from __future__ import annotations

import zlib
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List, Optional, Tuple

from ..bluebox.store import StoreError
from ..observe.metrics import MetricsRegistry
from .chunker import chunk_spans
from .chunkstore import ChunkStore, chunk_counts
from .errors import (ChunkCorruptionError, MissingChunkError,
                     StateDigestError)
from .manifest import (ENC_DEFLATE, ENC_RAW, ChunkRef, Manifest,
                       content_digest, decode_manifest, encode_manifest)

#: compression must save at least 10% or the chunk is stored raw: a
#: marginal ratio is not worth the inflate cost on every restore.
MIN_SAVINGS_NUM, MIN_SAVINGS_DEN = 9, 10


@dataclass
class SnapshotWrite:
    """Everything the service needs from one incremental persist."""

    blob: bytes                 # the manifest, ready for the state key
    manifest: Manifest
    raw_len: int                # serialized state size before chunking
    chunk_bytes_written: int    # physical chunk payload bytes written
    chunks_new: int
    chunks_reused: int
    cost: float                 # store IO cost of the chunk writes
    #: give this persist's chunk references back (abort path); once
    undo: Callable[[], None] = field(repr=False)
    #: drop the references the *prior* manifest held beyond this one
    #: (commit path), GC at zero; returns its own compensating undo
    release: Callable[[], Callable[[], None]] = field(repr=False)


class SnapshotPipeline:
    """Chunked, deduplicated, adaptively compressed fiber snapshots."""

    def __init__(self, codec, store, metrics=None):
        self.codec = codec
        self.store = store
        self.chunks = ChunkStore.for_store(store)
        #: where the ``snap.*`` gauges go (counts live in the stats
        #: below and reach reports through :meth:`stats_snapshot`)
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry(enabled=False)
        #: consulted on chunk reads (missing-chunk / corrupt-chunk
        #: faults); set by the service from the installed injector
        self.injector = None
        # statistics
        self.encodes = 0
        self.decodes = 0
        self.raw_bytes = 0         # logical: what v1 would have rewritten
        self.written_bytes = 0     # physical: new chunks + manifests
        #: compressions attempted and stored raw (savings under the
        #: threshold); a chunk the plane already holds is not compressed
        #: again, so it is not counted again either
        self.compress_futile = 0
        self.release_skipped = 0   # GC vetoed by store fault (orphans)
        self.chunks_new_total = 0
        self.chunks_reused_total = 0  # deduped: diffed-away or present

    # ------------------------------------------------------------------
    # encode: state -> chunks + manifest
    # ------------------------------------------------------------------

    def encode(self, key: str, state, fiber_id: Optional[str] = None,
               raw: Optional[bytes] = None) -> SnapshotWrite:
        """Persist ``state`` incrementally against whatever manifest is
        currently at ``key``.

        Writes only chunks the store does not already hold; returns the
        manifest blob for the service to write at ``key``, plus undo /
        release callables for the window's abort / commit hooks.
        """
        # the fiber codec's format; imported here because repro.vinz
        # imports this package
        from ..vinz.persistence import CODEC_CUSTOM, DEFLATE_LEVEL

        if raw is None:
            raw = self.codec.serialize_state(state)
        state_digest = content_digest(raw)
        spans = chunk_spans(raw)

        # the manifest currently at ``key``: an uncounted peek, because
        # the prior blob is this node's own just-read state, not new IO
        prior = chunk_counts(self.store.snapshot_value(key))
        refs: List[ChunkRef] = []
        added: List[str] = []

        def undo() -> None:
            for hexd in reversed(added):
                self.chunks.rollback_add(hexd)

        new_counts: Counter = Counter()
        cost = 0.0
        written = 0
        chunks_new = 0
        chunks_reused = 0
        #: hex digest -> (stored_len, enc, payload) per distinct chunk
        stored = {}
        for span in spans:
            digest = content_digest(span)
            hexd = digest.hex()
            entry = stored.get(hexd)
            if entry is None:
                entry = stored[hexd] = self._stored_form(hexd, span,
                                                         DEFLATE_LEVEL)
            stored_len, enc, payload = entry
            refs.append(ChunkRef(digest, len(span), stored_len, enc))
            new_counts[hexd] += 1
            # only reference-count the *difference* against the prior
            # manifest: an unchanged chunk costs zero store writes
            if new_counts[hexd] > prior.get(hexd, 0):
                try:
                    add_cost, created = self.chunks.add(
                        hexd, partial(self._payload, span, payload,
                                      DEFLATE_LEVEL))
                except StoreError:
                    # a failed add mid-encode aborts the whole persist
                    # before any undo hook exists — unwind the adds
                    # this call already made, or they leak past the
                    # window abort
                    undo()
                    raise
                cost += add_cost
                added.append(hexd)
                if created:
                    written += stored_len
                    chunks_new += 1
                else:
                    chunks_reused += 1
            else:
                chunks_reused += 1

        blob = encode_manifest(CODEC_CUSTOM, state_digest, len(raw), refs)
        manifest = Manifest(CODEC_CUSTOM, state_digest, len(raw),
                            tuple(refs))

        # references the prior manifest holds beyond the new one are
        # dropped only as the window commits (never mid-window: an
        # abort must find every chunk the prior manifest names)
        stale = prior - new_counts

        self.encodes += 1
        self.raw_bytes += len(raw)
        self.written_bytes += written + len(blob)
        self.chunks_new_total += chunks_new
        self.chunks_reused_total += chunks_reused
        self._publish_gauges()
        return SnapshotWrite(blob=blob, manifest=manifest, raw_len=len(raw),
                             chunk_bytes_written=written,
                             chunks_new=chunks_new,
                             chunks_reused=chunks_reused, cost=cost,
                             undo=undo,
                             release=lambda: self._release_counts(stale))

    def _stored_form(self, hexd: str, span: bytes,
                     level: int) -> Tuple[int, int, Optional[bytes]]:
        """``(stored_len, enc, payload)`` for one chunk of a state.

        A chunk the plane wrote keeps the length it was stored at, and
        under the futility rule it is raw exactly when that equals its
        raw length (a deflated chunk is always shorter), so the chunk is
        not compressed again: ``payload`` is ``None`` and
        :meth:`_payload` makes it only if the plane must write it.
        """
        size = self.chunks.stored_size(hexd)
        if size is not None:
            return size, (ENC_RAW if size == len(span) else ENC_DEFLATE), None
        payload, enc = self._encode_chunk(span, level)
        return len(payload), enc, payload

    def _payload(self, span: bytes, payload: Optional[bytes],
                 level: int) -> bytes:
        """The bytes :meth:`ChunkStore.add` writes for ``span``."""
        if payload is None:
            payload, _enc = self._encode_chunk(span, level)
        return payload

    def _encode_chunk(self, span: bytes, level: int) -> Tuple[bytes, int]:
        """Per-chunk compression: raw deflate at ``level`` (the paper's
        codec) unless it proves futile."""
        packed = zlib.compress(span, level)
        if len(packed) * MIN_SAVINGS_DEN >= len(span) * MIN_SAVINGS_NUM:
            self.compress_futile += 1
            return span, ENC_RAW
        return packed, ENC_DEFLATE

    # ------------------------------------------------------------------
    # decode: manifest -> chunks -> state
    # ------------------------------------------------------------------

    def read_manifest(self, blob: bytes,
                      fiber_id: Optional[str] = None) -> Manifest:
        return decode_manifest(blob, fiber_id=fiber_id)

    def fetch_state(self, manifest: Manifest,
                    fiber_id: Optional[str] = None) -> Tuple[bytes, float]:
        """Fetch, verify and reassemble the serialized state.

        Every failure mode is a typed :class:`SnapshotError`; a byte
        that fails any check never reaches the caller.  Returns the raw
        state and the store IO cost of the chunk reads.
        """
        parts: List[bytes] = []
        cost = 0.0
        for ref in manifest.chunks:
            payload = self.chunks.get(ref.hex)
            if self.injector is not None:
                payload = self.injector.on_chunk_read(
                    ChunkStore.chunk_key(ref.hex), payload)
            if payload is None:
                raise MissingChunkError(
                    f"chunk {ref.hex[:12]} referenced by manifest is "
                    f"missing from the store", fiber_id=fiber_id)
            cost += self.store.cost(len(payload))
            if len(payload) != ref.stored_len:
                raise ChunkCorruptionError(
                    f"chunk {ref.hex[:12]} is {len(payload)} stored bytes, "
                    f"manifest says {ref.stored_len}", fiber_id=fiber_id)
            if ref.enc == ENC_DEFLATE:
                try:
                    span = zlib.decompress(payload)
                except zlib.error as exc:
                    raise ChunkCorruptionError(
                        f"chunk {ref.hex[:12]} failed to inflate: {exc}",
                        fiber_id=fiber_id) from exc
            else:
                span = payload
            if len(span) != ref.raw_len or content_digest(span) != ref.digest:
                raise ChunkCorruptionError(
                    f"chunk {ref.hex[:12]} content does not match its "
                    f"digest", fiber_id=fiber_id)
            parts.append(span)
        raw = b"".join(parts)
        if len(raw) != manifest.raw_len or \
                content_digest(raw) != manifest.state_digest:
            raise StateDigestError(
                "reassembled state does not match the manifest's "
                "whole-state digest", fiber_id=fiber_id)
        self.decodes += 1
        return raw, cost

    def load(self, blob: bytes, fiber_id: Optional[str] = None):
        """Convenience: manifest blob all the way back to a state."""
        manifest = self.read_manifest(blob, fiber_id=fiber_id)
        raw, _cost = self.fetch_state(manifest, fiber_id=fiber_id)
        return self.codec.deserialize_state(raw, fiber_id=fiber_id,
                                            fmt="v2")

    # ------------------------------------------------------------------
    # release: fiber completion / reclamation
    # ------------------------------------------------------------------

    def release_blob(self, blob: bytes) -> Callable[[], None]:
        """Drop every chunk reference a manifest holds (the fiber is
        done; its state key is being reclaimed); returns the undo.  A
        torn manifest has nothing to release: it never finished."""
        return self._release_counts(chunk_counts(blob))

    def _release_counts(self, counts: Counter) -> Callable[[], None]:
        """Best-effort decrefs, GC at zero; returns the compensating
        undo.  A vetoed store op (fault injection) orphans the chunk
        rather than failing the completion path — exactly the
        `FiberStateStore.reclaim` trade."""
        released: List[Tuple[str, Optional[bytes]]] = []
        for hexd, occurrences in counts.items():
            for _ in range(occurrences):
                try:
                    released.append((hexd, self.chunks.release(hexd)))
                except StoreError:
                    self.release_skipped += 1
        self._publish_gauges()

        def undo() -> None:
            for hexd, payload in reversed(released):
                self.chunks.rollback_release(hexd, payload)

        return undo

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def _publish_gauges(self) -> None:
        if not self.metrics.enabled:
            return
        self.metrics.gauge("snap.chunkstore_bytes").set(
            self.chunks.bytes_stored)
        if self.written_bytes:
            self.metrics.gauge("snap.dedup_ratio").set(
                self.raw_bytes / self.written_bytes)

    @property
    def dedup_ratio(self) -> float:
        """Logical (v1-equivalent) bytes over physical bytes written."""
        return (self.raw_bytes / self.written_bytes
                if self.written_bytes else 1.0)

    def stats_snapshot(self) -> dict:
        stats = dict(self.chunks.stats_snapshot())
        stats.update({
            "encodes": self.encodes,
            "decodes": self.decodes,
            "raw_bytes": self.raw_bytes,
            "written_bytes": self.written_bytes,
            "dedup_ratio": round(self.dedup_ratio, 3),
            "compress_futile": self.compress_futile,
            "release_skipped": self.release_skipped,
            # per-suspension view: how many chunk slots were served by
            # dedup (either unchanged vs the prior manifest or already
            # in the plane) vs physically written
            "chunks_new": self.chunks_new_total,
            "chunks_reused": self.chunks_reused_total,
        })
        return stats
