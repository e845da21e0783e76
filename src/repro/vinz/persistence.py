"""Fiber persistence: serialization and compression (paper Section 4.2).

"Vinz writes a fiber's state and data using Java serialization, with
many customizations for efficiency" — here, pickle with the three
optimizations the paper reports, folded into one format:

1. **Compression before writing**: "compressing the serialized data
   before writing it to NFS was a net win by reducing IO costs
   considerably".
2. **Raw deflate over gzip**: "plain deflate can be made to perform
   approximately 30% better than the more robust and space-efficient
   gzip format".  The payload is raw zlib with no gzip header or CRC32
   trailer, at a light compression level.
3. **A custom format for the most commonly serialized objects**: the
   dominant payload in a fiber snapshot is *program code* (CodeObjects)
   and host functions, which never change after load.  Capture's
   pickler (:func:`~repro.gvm.continuations.dump_state`) writes a code
   object as its registry key, ``("code", key)``, and a host function
   by its importable name (``("host", name)`` for one without), the way
   the paper's custom format special-cases its hottest object types.
   Older blobs carry the keys as pickle persistent ids; those still
   load.

``benchmarks/bench_serialization.py`` measures the generic baselines
(code by value, stored raw, gzip and deflate) against this format.

Serialized blobs are framed ``b"GZR1" + b"C" + payload``; the codec
byte names the format, and a blob carrying any other byte is refused.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import Any, Dict, Optional

from ..bluebox.services import ServiceFault
from ..bluebox.store import StoreError
from ..gvm.continuations import dump_state, load_state
from ..gvm.frames import ATOM_TYPES
from ..observe.metrics import DEFAULT_SIZE_BUCKETS, MetricsRegistry
from ..lang.bytecode import CodeObject
from ..persistsnap.manifest import is_manifest

MAGIC = b"GZR1"
CODEC_CUSTOM = b"C"

#: the fault a value that cannot cross a fiber boundary raises
UNSERIALIZABLE = "{urn:vinz}Unserializable"

#: raw-deflate compression level: lighter than gzip's default 9-ish
#: work factor; this is where the ~30% CPU savings come from.
DEFLATE_LEVEL = 3


class DeserializationError(StoreError, ValueError):
    """A persisted fiber blob failed to decode.

    Carries the fiber id and the snapshot format (when known), so a
    dead-letter report names *which* fiber's state is undecodable
    instead of surfacing a bare ``zlib.error`` — the latent bug class
    this hierarchy fixes.  A :class:`~repro.bluebox.store.StoreError`
    so detection mid-fiber aborts the operation window for a
    policy-driven retry; also a :class:`ValueError` for callers probing
    blobs directly.
    """

    tunnels_through_vm = True

    def __init__(self, message: str, fiber_id: Optional[str] = None,
                 fmt: str = "v1"):
        detail = f"format={fmt}"
        if fiber_id is not None:
            detail = f"fiber={fiber_id}, {detail}"
        super().__init__(f"{message} ({detail})")
        self.fiber_id = fiber_id
        self.format = fmt

    def __str__(self) -> str:  # StoreError is a KeyError; avoid repr quoting
        return self.args[0]


class SnapshotFormatError(DeserializationError):
    """The blob's *framing* is not one this deployment can read: not a
    fiber blob at all, a codec byte other than ``C``, or — the
    downgrade guard — a v2 manifest read by a service configured for
    v1 snapshots."""


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

    def register(self, code: CodeObject) -> str:
        existing = self._by_id.get(id(code))
        if existing is not None:
            return existing
        key = f"code:{len(self._by_key)}:{code.name}"
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

    def __len__(self) -> int:
        return len(self._by_key)


class HostFunctionRegistry:
    """Host (Python) functions referenced by serialized fibers.

    A suspended fiber's operand stacks may hold references to builtins
    and Vinz intrinsics (e.g. ``%parse-wsdl-response`` loaded before its
    argument is evaluated).  Those are part of the *program*, present on
    every node, so — like the paper's custom format for common objects —
    they serialize as small name tokens rather than by value: by their
    importable name, or, for one without (a closure), by the name this
    registry holds it under.
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


class FiberCodec:
    """Encodes/decodes fiber state blobs in the paper's custom format:
    program objects pickled by reference into ``registry``/``hosts``,
    the rest raw-deflated.

    ``codec`` names the format for callers that pass it (the probes in
    ``perf/`` do); any name but ``"custom"`` raises :class:`ValueError`.
    """

    def __init__(self, codec: str = "custom",
                 registry: Optional[CodeRegistry] = None,
                 hosts: Optional[HostFunctionRegistry] = None):
        if codec != "custom":
            raise ValueError(f"unknown codec {codec!r}")
        self.registry = registry if registry is not None else CodeRegistry()
        self.hosts = hosts if hosts is not None else HostFunctionRegistry()
        #: where blob-size histograms go; the owning WorkflowService
        #: points this at the cluster's registry
        self.metrics = MetricsRegistry(enabled=False)

    # -- encode ---------------------------------------------------------

    def dumps(self, state: Any) -> bytes:
        blob = (MAGIC + CODEC_CUSTOM
                + zlib.compress(self.serialize_state(state), DEFLATE_LEVEL))
        if self.metrics.enabled:
            self.metrics.histogram(
                "codec.encode_bytes",
                buckets=DEFAULT_SIZE_BUCKETS).observe(len(blob))
        return blob

    # -- decode ---------------------------------------------------------

    def loads(self, blob: bytes, fiber_id: Optional[str] = None) -> Any:
        if is_manifest(blob):
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
        if codec != CODEC_CUSTOM:
            raise SnapshotFormatError(f"unknown codec byte {codec!r}",
                                      fiber_id=fiber_id)
        try:
            raw = zlib.decompress(blob[5:])
        except zlib.error as exc:
            raise DeserializationError(
                f"fiber blob failed to decompress: {exc}",
                fiber_id=fiber_id) from exc
        state = self.deserialize_state(raw, fiber_id=fiber_id)
        if self.metrics.enabled:
            self.metrics.histogram(
                "codec.decode_bytes",
                buckets=DEFAULT_SIZE_BUCKETS).observe(len(blob))
        return state

    # -- program references -----------------------------------------------

    def _key_for(self, obj: Any) -> Optional[tuple]:
        if isinstance(obj, CodeObject):
            # unseen code (e.g. built interactively) is registered
            return ("code", self.registry.register(obj))
        name = self.hosts.key_for(obj)
        return None if name is None else ("host", name)

    def _resolve(self, key: tuple) -> Any:
        kind, name = key
        return (self.registry if kind == "code" else self.hosts).lookup(name)

    # -- crossing a fiber boundary ------------------------------------------

    def copy_value(self, value: Any) -> Any:
        """``value`` as a fiber on the other side of a boundary gets it:
        an atom as it is, anything else as a copy that shares no mutable
        object with ``value`` — what a suspension and a decode between
        the two would have made of it.  A value that does not serialize
        cannot cross, as it could not between nodes: a typed
        :class:`~repro.bluebox.services.ServiceFault`, which a fiber
        sees as a condition."""
        if type(value) in ATOM_TYPES:
            return value
        try:
            raw = self.serialize_state(value)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise ServiceFault(UNSERIALIZABLE,
                               f"a value crossing a fiber boundary does "
                               f"not serialize: {exc}") from exc
        return self.deserialize_state(raw)

    # -- the raw (uncompressed, unframed) layer ---------------------------

    def serialize_state(self, state: Any) -> bytes:
        """Serialize without compression or framing — the input to the
        v2 chunking pipeline (compression there is per-chunk)."""
        return dump_state(state, self._key_for)

    def deserialize_state(self, raw: bytes, fiber_id: Optional[str] = None,
                          fmt: str = "v1") -> Any:
        """Deserialize raw pickled state, converting every decode
        failure into a typed :class:`DeserializationError` that names
        the fiber and format (never a swallowed ``UnpicklingError``)."""
        try:
            return load_state(raw, self._resolve)
        except (pickle.UnpicklingError, EOFError, AttributeError, KeyError,
                IndexError, MemoryError, TypeError, ValueError, ImportError,
                OverflowError, struct.error) as exc:
            raise DeserializationError(
                f"fiber state failed to deserialize: "
                f"{type(exc).__name__}: {exc}",
                fiber_id=fiber_id, fmt=fmt) from exc
