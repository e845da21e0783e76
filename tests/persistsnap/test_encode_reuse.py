"""Encode against a plane that already holds chunks (persistsnap.pipeline).

A chunk the plane wrote is not compressed again: its manifest entry
takes the stored length the plane recorded, and its encoding follows
from that length.  These tests pin that the manifest bytes do not
depend on what the plane held, and that a chunk is still written with
its real payload whenever the plane must write it.
"""

import pickle
import random

from repro.bluebox.store import SharedStore
from repro.persistsnap import (ENC_DEFLATE, ENC_RAW, ChunkStore,
                               SnapshotPipeline)
from repro.vinz.persistence import FiberCodec


def rows(first, count):
    return pickle.dumps([(i, i * 1.5, f"row-{i}") for i in
                         range(first, first + count)])


#: incompressible bytes: their chunks are stored raw
NOISE = random.Random(5).randbytes(3_000)
#: two states sharing their noise and half their rows
STATE_A = rows(0, 300) + NOISE
STATE_B = rows(150, 300) + NOISE + rows(0, 100)


def counted(pipeline):
    """Record the spans ``pipeline`` compresses."""
    compressed = []
    encode_chunk = pipeline._encode_chunk

    def counting(span, level):
        compressed.append(span)
        return encode_chunk(span, level)

    pipeline._encode_chunk = counting
    return compressed


def persist(pipeline, key, raw):
    result = pipeline.encode(key, None, raw=raw)
    pipeline.store.write(key, result.blob)
    result.release()
    return result


def test_manifest_does_not_depend_on_what_the_plane_holds():
    cold = SnapshotPipeline(FiberCodec(), SharedStore())
    expected = cold.encode("fiber-state/b", None, raw=STATE_B)

    warm = SnapshotPipeline(FiberCodec(), SharedStore())
    held = {ref.hex for ref in
            persist(warm, "fiber-state/a", STATE_A).manifest.chunks}
    compressed = counted(warm)
    result = warm.encode("fiber-state/b", None, raw=STATE_B)

    assert result.blob == expected.blob
    # the held chunks include stored-raw ones, and none was compressed
    assert {ref.enc for ref in result.manifest.chunks
            if ref.hex in held} == {ENC_RAW, ENC_DEFLATE}
    assert len(compressed) == result.chunks_new
    assert result.chunks_new < len({ref.hex for ref in
                                    result.manifest.chunks})
    raw, _cost = warm.fetch_state(result.manifest)
    assert raw == STATE_B


def test_reencoding_the_same_state_compresses_nothing():
    pipeline = SnapshotPipeline(FiberCodec(), SharedStore())
    first = persist(pipeline, "fiber-state/a", STATE_A)
    compressed = counted(pipeline)
    again = pipeline.encode("fiber-state/a", None, raw=STATE_A)
    assert again.blob == first.blob
    assert compressed == []
    assert again.chunks_new == 0


def test_plane_rebuilt_from_manifests_compresses_again():
    """A plane that counted a chunk from the store's manifests but never
    wrote it has no stored length for it, so it compresses the span."""
    pipeline = SnapshotPipeline(FiberCodec(), SharedStore())
    first = persist(pipeline, "fiber-state/a", STATE_A)
    recovered = SharedStore()
    for key in pipeline.store.keys():
        recovered.restore_value(key, pipeline.store.read(key))
    rebuilt = SnapshotPipeline(FiberCodec(), recovered)
    compressed = counted(rebuilt)
    result = rebuilt.encode("fiber-state/c", None, raw=STATE_A)
    assert result.blob == first.blob
    assert len(compressed) == len({ref.hex for ref in first.manifest.chunks})


def test_lost_chunk_key_is_rewritten_with_its_payload():
    """The plane holds a reference but the store lost the chunk: the
    add writes the real payload again, and the restore verifies."""
    pipeline = SnapshotPipeline(FiberCodec(), SharedStore())
    first = persist(pipeline, "fiber-state/a", STATE_A)
    store = pipeline.store
    lost = {}
    for enc in (ENC_DEFLATE, ENC_RAW):
        ref = next(r for r in first.manifest.chunks if r.enc == enc)
        key = ChunkStore.chunk_key(ref.hex)
        lost[key] = store.read(key)
        store.delete(key)
        assert pipeline.chunks.refcount(ref.hex) == 1

    result = pipeline.encode("fiber-state/b", None, raw=STATE_A)
    assert result.blob == first.blob
    assert result.chunks_new == len(lost)
    for key, payload in lost.items():
        assert store.read(key) == payload
    raw, _cost = pipeline.fetch_state(result.manifest)
    assert raw == STATE_A


def test_compress_futile_counts_attempts_only():
    pipeline = SnapshotPipeline(FiberCodec(), SharedStore())
    persist(pipeline, "fiber-state/a", STATE_A)
    futile = pipeline.compress_futile
    assert futile > 0  # the noise chunks were tried and stored raw
    persist(pipeline, "fiber-state/b", STATE_A)
    assert pipeline.compress_futile == futile
