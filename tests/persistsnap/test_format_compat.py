"""Cross-format compatibility: v1 <-> v2 snapshot blobs.

Three guarantees under test:

* **upgrade** — v1 blobs written by a v1 service restore under a v2
  service (the magic sniff in ``FiberStateStore._decode`` falls back to the
  v1 codec path);
* **downgrade guard** — a v2 manifest reaching a v1 reader fails with a
  clear, actionable :class:`SnapshotFormatError`, never a pickle error;
* **layout pin** — the v2 manifest wire format is golden-filed; any
  byte-level drift fails here before it corrupts a deployment.
"""

import pathlib

import pytest

from repro.persistsnap import SnapshotPipeline, decode_manifest, is_manifest
from repro.persistsnap.manifest import (
    _ENTRY,
    _FRAME,
    _HEADER,
    FORMAT_VERSION,
    MANIFEST_MAGIC,
    ChunkRef,
    content_digest,
    encode_manifest,
)
from repro.vinz.api import VinzEnvironment
from repro.vinz.persistence import (
    MAGIC,
    FiberCodec,
    SNAPSHOT_V2_MAGIC,
    SnapshotFormatError,
)

GOLDEN = pathlib.Path(__file__).parent / "golden_manifest_v2.bin"

FANOUT = """
(defun main (params)
  (for-each (x in params) (* x 10)))
"""


def make_golden_manifest() -> bytes:
    chunks = [
        ChunkRef(digest=content_digest(b"chunk-alpha"),
                 raw_len=1024, stored_len=512, enc=1),
        ChunkRef(digest=content_digest(b"chunk-beta"),
                 raw_len=700, stored_len=700, enc=0),
        ChunkRef(digest=content_digest(b"chunk-gamma"),
                 raw_len=2048, stored_len=901, enc=1),
    ]
    return encode_manifest(b"D", content_digest(b"whole-state"), 3772,
                           chunks)


class TestV1ReadableUnderV2:
    def test_v1_blob_roundtrips_through_new_code(self):
        state = {"frames": list(range(200)), "pc": 3}
        for codec_name in ("none", "gzip", "deflate", "custom"):
            codec = FiberCodec(codec_name)
            blob = codec.dumps(state)
            assert blob[:4] == MAGIC
            assert not is_manifest(blob)
            assert codec.loads(blob, fiber_id="f1") == state

    def test_service_upgraded_midflight_finishes_on_v1_blobs(self):
        """The upgrade path: a node redeployed with snapshots="v2" must
        resume fibers whose state was persisted by the v1 code."""
        env = VinzEnvironment(nodes=3, seed=5)
        service = env.deploy_workflow("W", FANOUT, snapshots="v1")
        assert service.snapper is None
        task_id = env.start("W", list(range(8)))
        # run until at least one v1 fiber-state blob is on disk
        env.cluster.run_until(
            lambda: env.counters.get("persist.writes") >= 1)
        # upgrade in place: same store, same codec, new pipeline
        service.snapshot_format = "v2"
        service.snapper = SnapshotPipeline(
            service.codec, env.store, metrics=service.codec.metrics)
        record = env.wait_for_task(task_id)
        assert record.result == [x * 10 for x in range(8)]
        # the tail of the run persisted through the v2 pipeline
        assert service.snapper.encodes > 0


class TestDowngradeGuard:
    def test_v2_manifest_under_v1_reader_is_actionable(self):
        codec = FiberCodec("deflate")
        pipeline = SnapshotPipeline(codec, VinzEnvironment(
            nodes=1, seed=1).store)
        blob = pipeline.encode("k", {"x": 1}, fiber_id="f9").blob
        with pytest.raises(SnapshotFormatError) as exc:
            codec.loads(blob, fiber_id="f9")
        message = str(exc.value)
        assert "v2" in message and "redeploy" in message
        assert "f9" in message  # names the fiber it failed on

    def test_blob_codec_name_identifies_v2(self):
        assert make_golden_manifest()[:4] == SNAPSHOT_V2_MAGIC != MAGIC


class TestLayoutPin:
    def test_golden_file_bytes(self):
        """The manifest encoder output is byte-frozen.  If this fails
        you changed the wire format: bump FORMAT_VERSION, keep a reader
        for version 2, and regenerate the golden file."""
        assert make_golden_manifest() == GOLDEN.read_bytes()

    def test_golden_file_decodes(self):
        manifest = decode_manifest(GOLDEN.read_bytes())
        assert manifest.state_digest == content_digest(b"whole-state")
        assert manifest.raw_len == 3772
        assert [c.raw_len for c in manifest.chunks] == [1024, 700, 2048]
        assert [c.enc for c in manifest.chunks] == [1, 0, 1]

    def test_struct_sizes_pinned(self):
        assert MANIFEST_MAGIC == b"GZS2"
        assert FORMAT_VERSION == 2
        assert _FRAME.size == 8
        assert _HEADER.size == 24
        assert _ENTRY.size == 25
        # total manifest size: 36 fixed + 25 per chunk
        assert len(make_golden_manifest()) == 4 + 8 + 24 + 3 * 25

    def test_v1_magic_pinned(self):
        assert MAGIC == b"GZR1"
