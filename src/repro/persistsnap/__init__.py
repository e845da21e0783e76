"""Incremental continuation snapshots with chunk-level dedup.

Snapshot format v2: a suspended fiber's serialized state is split into
content-defined chunks, stored content-addressed with refcounts, and
the fiber's state key holds a small manifest of chunk digests — only
new or changed chunks are written per suspension.  See
``docs/persistence.md`` for the format and failure modes.
"""

from .chunker import DEFAULT_MAX_SIZE, DEFAULT_MIN_SIZE, chunk_spans
from .chunkstore import CHUNK_PREFIX, ChunkStore
from .errors import (ChunkCorruptionError, ManifestFormatError,
                     MissingChunkError, SnapshotError, StateDigestError,
                     TornManifestError)
from .manifest import (ENC_DEFLATE, ENC_RAW, FORMAT_VERSION, MANIFEST_MAGIC,
                       ChunkRef, Manifest, content_digest, decode_manifest,
                       encode_manifest, is_manifest)
from .pipeline import SnapshotPipeline, SnapshotWrite

__all__ = [
    "CHUNK_PREFIX",
    "DEFAULT_MAX_SIZE",
    "DEFAULT_MIN_SIZE",
    "ENC_DEFLATE",
    "ENC_RAW",
    "FORMAT_VERSION",
    "MANIFEST_MAGIC",
    "ChunkCorruptionError",
    "ChunkRef",
    "ChunkStore",
    "Manifest",
    "ManifestFormatError",
    "MissingChunkError",
    "SnapshotError",
    "SnapshotPipeline",
    "SnapshotWrite",
    "StateDigestError",
    "TornManifestError",
    "chunk_spans",
    "content_digest",
    "decode_manifest",
    "encode_manifest",
    "is_manifest",
]
