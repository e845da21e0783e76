"""Restore fuzzing: every corruption is *detected*, never restored.

The invariant under test is the one the chaos campaign relies on: a
damaged manifest or chunk may fail the restore with a typed
:class:`SnapshotError` (which the retry machinery handles), but it must
never produce a wrong-value restore or escape as an untyped exception.
"""

import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bluebox.store import SharedStore
from repro.persistsnap import (
    ChunkCorruptionError,
    ChunkStore,
    ManifestFormatError,
    MissingChunkError,
    SnapshotError,
    SnapshotPipeline,
    StateDigestError,
    TornManifestError,
    content_digest,
    decode_manifest,
    encode_manifest,
)
from repro.persistsnap.manifest import ChunkRef, MANIFEST_MAGIC
from repro.vinz.persistence import DeserializationError, FiberCodec

STATE = {"carried": [f"block-{i:04d}" for i in range(300)],
         "noise": bytes(random.Random(11).randrange(256)
                        for _ in range(3000)),
         "pc": 7}


def snapshot():
    """A fresh pipeline with STATE persisted; returns (pipeline, blob)."""
    pipeline = SnapshotPipeline(FiberCodec(), SharedStore())
    result = pipeline.encode("fiber-state/f1", STATE, fiber_id="f1")
    pipeline.store.write("fiber-state/f1", result.blob)
    result.release()
    return pipeline, result.blob


def flip_bit(data: bytes, bit_index: int) -> bytes:
    out = bytearray(data)
    out[bit_index // 8] ^= 1 << (bit_index % 8)
    return bytes(out)


class TestManifestCorruption:
    def test_truncation_at_every_offset(self):
        pipeline, blob = snapshot()
        for cut in range(len(blob)):
            with pytest.raises((SnapshotError, DeserializationError)):
                pipeline.load(blob[:cut], fiber_id="f1")

    def test_truncation_inside_frame_is_torn(self):
        pipeline, blob = snapshot()
        with pytest.raises(TornManifestError):
            pipeline.read_manifest(blob[:6], fiber_id="f1")
        with pytest.raises(TornManifestError):
            pipeline.read_manifest(blob[:-1], fiber_id="f1")

    def test_every_single_bit_flip_detected(self):
        """CRC32 catches all single-bit errors; the magic and frame are
        covered by their own checks.  No flip may restore silently."""
        pipeline, blob = snapshot()
        for bit in range(len(blob) * 8):
            with pytest.raises((SnapshotError, DeserializationError)):
                pipeline.load(flip_bit(blob, bit), fiber_id="f1")

    @given(st.binary(min_size=0, max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_arbitrary_garbage_is_typed(self, junk):
        pipeline, _ = snapshot()
        with pytest.raises((SnapshotError, DeserializationError)):
            pipeline.load(MANIFEST_MAGIC + junk, fiber_id="f1")

    def test_unknown_version_rejected(self):
        _, blob = snapshot()
        manifest = decode_manifest(blob)
        body_start = 4 + 8
        body = bytearray(blob[body_start:])
        body[0] = 99  # future format version
        reframed = (MANIFEST_MAGIC
                    + __import__("struct").pack(
                        "<II", len(body), zlib.crc32(bytes(body))
                        & 0xFFFFFFFF)
                    + bytes(body))
        with pytest.raises(ManifestFormatError):
            decode_manifest(reframed, fiber_id="f1")
        assert manifest.raw_len > 0

    def test_error_carries_fiber_identity(self):
        pipeline, blob = snapshot()
        with pytest.raises(TornManifestError) as exc:
            pipeline.read_manifest(blob[:10], fiber_id="fib-42")
        assert "fib-42" in str(exc.value)
        assert "v2" in str(exc.value)


class TestChunkCorruption:
    def _manifest(self, pipeline, blob):
        return pipeline.read_manifest(blob, fiber_id="f1")

    def test_missing_chunk_is_typed(self):
        pipeline, blob = snapshot()
        manifest = self._manifest(pipeline, blob)
        victim = manifest.chunks[len(manifest.chunks) // 2]
        pipeline.store.delete(ChunkStore.chunk_key(victim.hex))
        with pytest.raises(MissingChunkError) as exc:
            pipeline.fetch_state(manifest, fiber_id="f1")
        assert victim.hex[:8] in str(exc.value)

    def test_bit_flipped_chunk_detected_or_harmless(self):
        """A flip anywhere in a stored chunk either raises the typed
        error or — in the rare case it lands in a deflate stream's
        unused padding bits — decompresses to the identical bytes.  A
        wrong-value restore is never acceptable."""
        pipeline, blob = snapshot()
        manifest = self._manifest(pipeline, blob)
        rng = random.Random(5)
        detected = 0
        for victim in manifest.chunks:
            key = ChunkStore.chunk_key(victim.hex)
            good = pipeline.store.read(key)
            pipeline.store.write(
                key, flip_bit(good, rng.randrange(len(good) * 8)))
            try:
                pipeline.load(blob, fiber_id="f1")
            except ChunkCorruptionError:
                detected += 1
            else:
                # undetectable flips must be byte-exact no-ops
                assert pipeline.load(blob, fiber_id="f1") == STATE
            pipeline.store.write(key, good)  # heal for the next victim
        assert detected >= len(manifest.chunks) - 1
        # healed store restores fine again
        assert pipeline.load(blob, fiber_id="f1") == STATE

    def test_truncated_chunk_is_typed(self):
        pipeline, blob = snapshot()
        manifest = self._manifest(pipeline, blob)
        victim = manifest.chunks[0]
        key = ChunkStore.chunk_key(victim.hex)
        pipeline.store.write(key, pipeline.store.read(key)[:-3])
        with pytest.raises(ChunkCorruptionError):
            pipeline.fetch_state(manifest, fiber_id="f1")

    def test_swapped_chunk_payloads_are_typed(self):
        """Right lengths, wrong content: only the digest check can
        catch a chunk stored under another chunk's address."""
        pipeline, blob = snapshot()
        manifest = self._manifest(pipeline, blob)
        assert len(manifest.chunks) >= 2
        a_key = ChunkStore.chunk_key(manifest.chunks[0].hex)
        b_key = ChunkStore.chunk_key(manifest.chunks[1].hex)
        a, b = pipeline.store.read(a_key), pipeline.store.read(b_key)
        pipeline.store.write(a_key, b)
        pipeline.store.write(b_key, a)
        with pytest.raises(ChunkCorruptionError):
            pipeline.fetch_state(manifest, fiber_id="f1")

    def test_wrong_state_digest_is_typed(self):
        """Chunks all verify individually but the whole-state digest
        disagrees — e.g. a manifest overwritten with a stale one."""
        pipeline, blob = snapshot()
        manifest = self._manifest(pipeline, blob)
        forged = encode_manifest(
            manifest.codec_byte
            if isinstance(manifest.codec_byte, bytes)
            else bytes([manifest.codec_byte]),
            content_digest(b"something else entirely"),
            manifest.raw_len,
            list(manifest.chunks))
        with pytest.raises(StateDigestError):
            pipeline.load(forged, fiber_id="f1")

    def test_dangling_digest_is_missing_chunk(self):
        pipeline, blob = snapshot()
        manifest = self._manifest(pipeline, blob)
        phantom = ChunkRef(digest=content_digest(b"never stored"),
                           raw_len=64, stored_len=64, enc=0)
        forged = encode_manifest(
            manifest.codec_byte
            if isinstance(manifest.codec_byte, bytes)
            else bytes([manifest.codec_byte]),
            manifest.state_digest, manifest.raw_len,
            [phantom, *manifest.chunks])
        with pytest.raises(MissingChunkError):
            pipeline.load(forged, fiber_id="f1")


class TestNeverWrongValue:
    """The umbrella property: random damage anywhere in the snapshot's
    storage footprint either leaves the restore exact or raises a typed
    error.  A wrong-value restore fails the test immediately."""

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_damage_never_restores_wrong(self, seed):
        rng = random.Random(seed)
        pipeline, blob = snapshot()
        keys = ["fiber-state/f1"] + [
            k for k in pipeline.store.keys("snapchunk/")]
        victim_key = rng.choice(keys)
        original = pipeline.store.read(victim_key)
        mode = rng.choice(["flip", "truncate", "garbage", "delete"])
        if mode == "flip" and len(original) > 0:
            damaged = flip_bit(original,
                               rng.randrange(len(original) * 8))
            pipeline.store.write(victim_key, damaged)
        elif mode == "truncate":
            pipeline.store.write(
                victim_key, original[:rng.randrange(len(original) + 1)])
        elif mode == "garbage":
            pipeline.store.write(
                victim_key,
                bytes(rng.randrange(256)
                      for _ in range(rng.randrange(1, 200))))
        else:
            pipeline.store.delete(victim_key)
        try:
            restored = pipeline.load(
                pipeline.store.read("fiber-state/f1")
                if pipeline.store.exists("fiber-state/f1") else b"",
                fiber_id="f1")
        except (SnapshotError, DeserializationError):
            return  # detected: the acceptable outcome
        # undetected damage is only acceptable if the value is exact
        assert restored == STATE
