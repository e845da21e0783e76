"""Regression: deserialization failures are typed and carry context.

The latent bug class this pins down: ``FiberCodec.loads`` used to let
raw ``UnpicklingError`` / ``zlib.error`` / bare ``ValueError`` escape
with no indication of *which* fiber or *what* format failed — the
operator saw "pickle data was truncated" with nothing to grep for.
Every decode failure must now surface as a
:class:`DeserializationError` naming the fiber id and the format
version, and must tunnel through the VM boundary like other store
errors so the retry/dead-letter machinery sees it.
"""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bluebox.store import StoreError
from repro.vinz.persistence import (
    CODEC_CUSTOM,
    DEFLATE_LEVEL,
    MAGIC,
    DeserializationError,
    FiberCodec,
    SnapshotFormatError,
)

STATE = {"stack": list(range(50)), "label": "suspend-3"}


class TestErrorContext:
    def test_truncated_pickle_names_fiber_and_format(self):
        codec = FiberCodec()
        truncated = codec.serialize_state(STATE)[:-7]
        blob = MAGIC + CODEC_CUSTOM + zlib.compress(truncated, DEFLATE_LEVEL)
        with pytest.raises(DeserializationError) as exc:
            codec.loads(blob, fiber_id="fiber-0017")
        message = str(exc.value)
        assert "fiber-0017" in message
        assert "format=v1" in message

    def test_corrupt_compressed_payload_names_fiber(self):
        codec = FiberCodec()
        blob = codec.dumps(STATE)
        damaged = blob[:5] + b"\x00garbage\xff" + blob[10:]
        with pytest.raises(DeserializationError) as exc:
            codec.loads(damaged, fiber_id="f2")
        assert "f2" in str(exc.value)

    def test_unknown_codec_byte_is_typed(self):
        codec = FiberCodec()
        blob = MAGIC + b"?" + b"whatever"
        with pytest.raises(SnapshotFormatError) as exc:
            codec.loads(blob, fiber_id="f3")
        assert "f3" in str(exc.value)

    @pytest.mark.parametrize("codec_byte", [b"N", b"G", b"D"])
    def test_retired_codec_bytes_are_refused(self, codec_byte):
        """The raw, gzip and deflate write modes are gone: a blob framed
        with one of their bytes is refused by name, whatever follows."""
        payload = zlib.compress(FiberCodec().serialize_state(STATE))
        with pytest.raises(SnapshotFormatError) as exc:
            FiberCodec().loads(MAGIC + codec_byte + payload,
                               fiber_id="f7")
        assert "fiber=f7" in str(exc.value)
        assert repr(codec_byte) in str(exc.value)

    def test_bad_magic_is_typed(self):
        codec = FiberCodec()
        with pytest.raises(SnapshotFormatError):
            codec.loads(b"NOPE" + b"C" + b"x", fiber_id="f4")

    def test_error_chains_original_cause(self):
        codec = FiberCodec()
        blob = codec.dumps(STATE)
        with pytest.raises(DeserializationError) as exc:
            codec.loads(blob[:-1], fiber_id="f5")
        assert exc.value.__cause__ is not None

    def test_deserialize_state_wraps_unpickling(self):
        codec = FiberCodec()
        with pytest.raises(DeserializationError) as exc:
            codec.deserialize_state(b"not a pickle", fiber_id="f6",
                                    fmt="v2")
        assert "format=v2" in str(exc.value)


class TestErrorTyping:
    """The hierarchy the rest of the platform depends on."""

    def test_is_store_error_and_tunnels(self):
        # StoreError → the window aborts, rolls back and retries per
        # the fiber's RetryPolicy instead of poisoning the VM
        assert issubclass(DeserializationError, StoreError)
        err = DeserializationError("x", fiber_id="f")
        assert err.tunnels_through_vm

    def test_is_value_error_for_legacy_callers(self):
        # pre-existing callers catch ValueError on bad blobs; the
        # typed error must remain catchable there
        assert issubclass(DeserializationError, ValueError)
        assert issubclass(SnapshotFormatError, DeserializationError)

    @given(st.binary(max_size=400))
    @settings(max_examples=120, deadline=None)
    def test_no_untyped_escape(self, junk):
        """Whatever bytes arrive at loads(), the only exception that
        may escape is the typed one."""
        codec = FiberCodec()
        try:
            codec.loads(MAGIC + CODEC_CUSTOM + junk, fiber_id="fz")
        except DeserializationError:
            pass  # typed — acceptable

    @given(st.binary(max_size=400))
    @settings(max_examples=120, deadline=None)
    def test_no_untyped_escape_raw_layer(self, junk):
        codec = FiberCodec()
        try:
            codec.deserialize_state(junk, fiber_id="fz")
        except DeserializationError:
            pass


class TestRoundTripStillWorks:
    def test_wrapping_does_not_break_good_blobs(self):
        codec = FiberCodec()
        assert codec.loads(codec.dumps(STATE), fiber_id="f") == STATE

    def test_loads_without_fiber_id_still_typed(self):
        codec = FiberCodec()
        blob = codec.dumps(STATE)
        with pytest.raises(DeserializationError):
            codec.loads(blob[:-3])
