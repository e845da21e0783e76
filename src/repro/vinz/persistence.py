"""Fiber persistence: serialization and compression (paper Section 4.2).

"Vinz writes a fiber's state and data using Java serialization, with
many customizations for efficiency" — here, pickle with the same three
optimizations the paper reports:

1. **Compression before writing**: "compressing the serialized data
   before writing it to NFS was a net win by reducing IO costs
   considerably".
2. **Raw deflate over gzip**: "plain deflate can be made to perform
   approximately 30% better than the more robust and space-efficient
   gzip format".  ``deflate`` here is raw zlib with no gzip header or
   CRC32 trailer, at a lighter compression level; ``gzip`` uses the
   full gzip framing at its default level — the same robustness-for-
   speed trade the paper describes.
3. **A custom format for the most commonly serialized objects**: the
   dominant payload in a fiber snapshot is *program code* (CodeObjects)
   and interned symbols, which never change after load.  The custom
   codec pickles them by reference into a shared
   :class:`CodeRegistry` instead of by value, the way the paper's
   custom format special-cases its hottest object types.

Serialized blobs are framed ``b"GZR1" + codec byte + payload`` so any
node can decode a blob written with any codec.
"""

from __future__ import annotations

import gzip
import io
import pickle
import struct
import zlib
from typing import Any, Dict, List, Optional, Tuple

from ..bluebox.store import StoreError
from ..gvm.continuations import is_program_object
from ..observe.metrics import DEFAULT_SIZE_BUCKETS, MetricsRegistry
from ..lang.bytecode import CodeObject

MAGIC = b"GZR1"

#: magic of the v2 incremental-snapshot manifest (persistsnap); a v1
#: reader must recognize it to refuse it *clearly* rather than fail
#: deep inside unpickling
SNAPSHOT_V2_MAGIC = b"GZS2"


class DeserializationError(StoreError, ValueError):
    """A persisted fiber blob failed to decode.

    Carries the fiber id, the snapshot format and the codec (when
    known), so a dead-letter report names *which* fiber's state is
    undecodable instead of surfacing a bare ``zlib.error`` — the latent
    bug class this hierarchy fixes.  A :class:`~repro.bluebox.store.StoreError`
    so detection mid-fiber aborts the operation window for a
    policy-driven retry; also a :class:`ValueError` for callers probing
    blobs directly.
    """

    tunnels_through_vm = True

    def __init__(self, message: str, fiber_id: Optional[str] = None,
                 fmt: str = "v1", codec: Optional[str] = None):
        detail = []
        if fiber_id is not None:
            detail.append(f"fiber={fiber_id}")
        detail.append(f"format={fmt}")
        if codec is not None:
            detail.append(f"codec={codec}")
        super().__init__(f"{message} ({', '.join(detail)})")
        self.fiber_id = fiber_id
        self.format = fmt
        self.codec = codec

    def __str__(self) -> str:  # StoreError is a KeyError; avoid repr quoting
        return self.args[0]


class SnapshotFormatError(DeserializationError):
    """The blob's *framing* is not one this deployment can read: not a
    fiber blob at all, an unknown codec byte, or — the downgrade guard —
    a v2 manifest read by a service configured for v1 snapshots."""

CODEC_NONE = b"N"
CODEC_GZIP = b"G"
CODEC_DEFLATE = b"D"
CODEC_CUSTOM = b"C"

#: raw-deflate compression level: lighter than gzip's default 9-ish
#: work factor; this is where the ~30% CPU savings come from.
DEFLATE_LEVEL = 3
GZIP_LEVEL = 9


class CodeRegistry:
    """Shared registry of immutable program objects.

    Both serializing and deserializing nodes have the workflow program
    loaded (Vinz deploys it everywhere, Section 3.1), so code objects
    can travel as small reference tokens.  Registration is idempotent
    and keyed by a stable id.
    """

    def __init__(self):
        self._by_key: Dict[str, CodeObject] = {}
        self._by_id: Dict[int, str] = {}
        self._counter = 0

    def register(self, code: CodeObject) -> str:
        existing = self._by_id.get(id(code))
        if existing is not None:
            return existing
        key = f"code:{self._counter}:{code.name}"
        self._counter += 1
        self._by_key[key] = code
        self._by_id[id(code)] = key
        return key

    def register_tree(self, code: CodeObject) -> None:
        """Register ``code`` and every code object it references."""
        from ..lang.bytecode import nested_code_objects

        for obj in nested_code_objects(code):
            self.register(obj)

    def lookup(self, key: str) -> CodeObject:
        return self._by_key[key]

    def key_for(self, code: CodeObject) -> Optional[str]:
        return self._by_id.get(id(code))

    def __len__(self) -> int:
        return len(self._by_key)


class HostFunctionRegistry:
    """Host (Python) functions referenced by serialized fibers.

    A suspended fiber's operand stacks may hold references to builtins
    and Vinz intrinsics (e.g. ``%parse-wsdl-response`` loaded before its
    argument is evaluated).  Those are part of the *program*, present on
    every node, so — like the paper's custom format for common objects —
    they serialize as small name tokens rather than by value.
    """

    def __init__(self):
        self._by_name: Dict[str, Any] = {}
        self._by_id: Dict[int, str] = {}

    def register(self, name: str, fn: Any) -> None:
        self._by_name[name] = fn
        self._by_id[id(fn)] = name

    def key_for(self, fn: Any) -> Optional[str]:
        return self._by_id.get(id(fn))

    def lookup(self, name: str):
        return self._by_name[name]

    def __len__(self) -> int:
        return len(self._by_name)


class _RegistryPickler(pickle.Pickler):
    def __init__(self, file, registry: CodeRegistry,
                 hosts: HostFunctionRegistry, ref_code: bool):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._registry = registry
        self._hosts = hosts
        self._ref_code = ref_code

    def persistent_id(self, obj):
        if not is_program_object(obj):
            return None
        if isinstance(obj, CodeObject):
            if not self._ref_code:
                return None
            key = self._registry.key_for(obj)
            if key is None:
                # unseen code (e.g. built interactively): register so
                # the reader side of *this* registry can resolve it.
                key = self._registry.register(obj)
            return ("code", key)
        key = self._hosts.key_for(obj)
        return None if key is None else ("host", key)


class _RegistryUnpickler(pickle.Unpickler):
    def __init__(self, file, registry: CodeRegistry,
                 hosts: Optional[HostFunctionRegistry]):
        super().__init__(file)
        self._registry = registry
        self._hosts = hosts

    def persistent_load(self, pid):
        kind, key = pid
        if kind == "code":
            return self._registry.lookup(key)
        if kind == "host":
            return self._hosts.lookup(key)
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")


class FiberCodec:
    """Encodes/decodes fiber state blobs with a selectable codec.

    ``codec`` is one of ``"none" | "gzip" | "deflate" | "custom"``.
    ``custom`` implies the code-registry pickling *plus* raw deflate of
    the (much smaller) remainder.
    """

    NAMES = {
        "none": CODEC_NONE,
        "gzip": CODEC_GZIP,
        "deflate": CODEC_DEFLATE,
        "custom": CODEC_CUSTOM,
    }

    def __init__(self, codec: str = "deflate",
                 registry: Optional[CodeRegistry] = None,
                 hosts: Optional[HostFunctionRegistry] = None):
        if codec not in self.NAMES:
            raise ValueError(f"unknown codec {codec!r}")
        self.codec = codec
        self.registry = registry if registry is not None else CodeRegistry()
        self.hosts = hosts if hosts is not None else HostFunctionRegistry()
        # statistics
        self.encoded = 0
        self.decoded = 0
        self.raw_bytes = 0
        self.stored_bytes = 0
        #: where blob-size histograms go; the owning WorkflowService
        #: points this at the cluster's registry
        self.metrics = MetricsRegistry(enabled=False)

    # -- encode ---------------------------------------------------------

    def dumps(self, state: Any) -> bytes:
        # every codec pickles host functions by reference (they are
        # program, not state); only `custom` also refs CodeObjects
        raw = self._pickle(state, ref_code=(self.codec == "custom"))
        if self.codec == "none":
            payload = raw
        elif self.codec == "gzip":
            payload = gzip.compress(raw, compresslevel=GZIP_LEVEL)
        else:  # deflate and custom
            payload = zlib.compress(raw, DEFLATE_LEVEL)
        self.encoded += 1
        self.raw_bytes += len(raw)
        blob = MAGIC + self.NAMES[self.codec] + payload
        self.stored_bytes += len(blob)
        if self.metrics.enabled:
            self.metrics.histogram(
                "codec.encode_bytes",
                buckets=DEFAULT_SIZE_BUCKETS).observe(len(blob))
        return blob

    # -- decode ---------------------------------------------------------

    def loads(self, blob: bytes, fiber_id: Optional[str] = None) -> Any:
        if blob[:4] == SNAPSHOT_V2_MAGIC:
            # downgrade guard: this fiber was persisted as a v2
            # incremental-snapshot manifest; a v1-configured service
            # must refuse it loudly, not feed manifest bytes to zlib
            raise SnapshotFormatError(
                "blob is a v2 incremental-snapshot manifest; this service "
                "reads v1 — redeploy with snapshots=\"v2\" to restore it",
                fiber_id=fiber_id, fmt="v2")
        if blob[:4] != MAGIC:
            raise SnapshotFormatError("not a Gozer fiber blob",
                                      fiber_id=fiber_id)
        codec = blob[4:5]
        payload = blob[5:]
        codec_name = next(
            (name for name, byte in self.NAMES.items() if byte == codec),
            None)
        if codec_name is None:
            raise SnapshotFormatError(f"unknown codec byte {codec!r}",
                                      fiber_id=fiber_id)
        try:
            if codec == CODEC_NONE:
                raw = payload
            elif codec == CODEC_GZIP:
                raw = gzip.decompress(payload)
            else:  # deflate and custom
                raw = zlib.decompress(payload)
        except (zlib.error, gzip.BadGzipFile, EOFError, OSError) as exc:
            raise DeserializationError(
                f"fiber blob failed to decompress: {exc}",
                fiber_id=fiber_id, codec=codec_name) from exc
        state = self.deserialize_state(raw, fiber_id=fiber_id,
                                       codec_name=codec_name)
        self.decoded += 1
        if self.metrics.enabled:
            self.metrics.histogram(
                "codec.decode_bytes",
                buckets=DEFAULT_SIZE_BUCKETS).observe(len(blob))
        return state

    # -- the raw (uncompressed, unframed) layer ---------------------------

    def serialize_state(self, state: Any) -> bytes:
        """Serialize without compression or framing — the input to the
        v2 chunking pipeline (compression there is per-chunk)."""
        return self._pickle(state, ref_code=(self.codec == "custom"))

    def deserialize_state(self, raw: bytes, fiber_id: Optional[str] = None,
                          fmt: str = "v1",
                          codec_name: Optional[str] = None) -> Any:
        """Deserialize raw pickled state, converting every decode
        failure into a typed :class:`DeserializationError` that names
        the fiber and format (never a swallowed ``UnpicklingError``)."""
        try:
            return self._unpickle(raw)
        except (pickle.UnpicklingError, EOFError, AttributeError, KeyError,
                IndexError, MemoryError, TypeError, ValueError, ImportError,
                OverflowError, struct.error) as exc:
            raise DeserializationError(
                f"fiber state failed to deserialize: "
                f"{type(exc).__name__}: {exc}",
                fiber_id=fiber_id, fmt=fmt, codec=codec_name) from exc

    # -- helpers ----------------------------------------------------------

    def _pickle(self, state: Any, ref_code: bool) -> bytes:
        buffer = io.BytesIO()
        _RegistryPickler(buffer, self.registry, self.hosts, ref_code).dump(state)
        return buffer.getvalue()

    def _unpickle(self, raw: bytes) -> Any:
        return _RegistryUnpickler(io.BytesIO(raw), self.registry,
                                  self.hosts).load()


#: CRC frame layout: magic + u32 payload length + u32 crc32(payload)
_FRAME_HEADER = struct.Struct("<II")


def crc_frame(payload: bytes, magic: bytes) -> bytes:
    """Wrap ``payload`` in a length+CRC frame.

    The durable store's write-ahead journal and checkpoints persist
    through these frames: a torn tail (a write cut short by a crash)
    is detectable — the length or the checksum will not line up — so
    replay can drop exactly the uncommitted suffix.
    """
    return (magic + _FRAME_HEADER.pack(len(payload),
                                       zlib.crc32(payload) & 0xFFFFFFFF)
            + payload)


def parse_crc_frames(data: bytes, magic: bytes,
                     offset: int = 0) -> Tuple[List[bytes], int, Optional[str]]:
    """Parse consecutive CRC frames from ``data`` starting at ``offset``.

    Returns ``(payloads, good_offset, tail_error)``: every frame that
    passed its check, the offset just past the last good frame, and —
    when the stream ends in a torn or corrupt record — a short reason
    string (``None`` for a clean tail).  Frames after a bad one are
    never trusted: a torn record means the writer died there.
    """
    payloads: List[bytes] = []
    header_len = len(magic) + _FRAME_HEADER.size
    while offset < len(data):
        header = data[offset:offset + header_len]
        if len(header) < header_len:
            return payloads, offset, "torn-header"
        if header[:len(magic)] != magic:
            return payloads, offset, "bad-magic"
        length, crc = _FRAME_HEADER.unpack(header[len(magic):])
        start = offset + header_len
        payload = data[start:start + length]
        if len(payload) < length:
            return payloads, offset, "torn-payload"
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            return payloads, offset, "crc-mismatch"
        payloads.append(payload)
        offset = start + length
    return payloads, offset, None
