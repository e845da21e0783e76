"""The v2 snapshot manifest: a content-addressed recipe for a fiber.

A manifest replaces the v1 monolithic blob at the fiber's state key.
It names the chunks (by content digest) whose concatenation, after
per-chunk decompression, is the fiber's serialized state — plus enough
integrity metadata that *any* corruption is detected before a byte of
restored state reaches the GVM.

Pinned wire layout (the golden-file test asserts these bytes exactly;
bump ``FORMAT_VERSION`` and keep a reader for the old layout if it ever
changes)::

    blob  := b"GZS2" | u32 body_len | u32 crc32(body) | body
    body  := u8 version(=2) | u8 codec_byte | 16B state_digest
             | u32 raw_len | u16 nchunks | nchunks * entry
    entry := 16B chunk_digest | u32 raw_len | u32 stored_len | u8 enc

All integers little-endian.  ``state_digest`` is blake2b-128 of the
whole serialized state; ``chunk_digest`` blake2b-128 of the chunk's
*raw* (uncompressed) bytes — content addressing and integrity check in
one.  ``enc`` is 0 (stored raw) or 1 (raw-deflate, the paper's codec).
The frame is the journal's :func:`~repro.durastore.journal.crc_frame`,
so a torn manifest write is detectable exactly like a torn journal
record.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import List, Tuple

from ..durastore.journal import crc_frame, parse_crc_frames
from .errors import ManifestFormatError, TornManifestError

MANIFEST_MAGIC = b"GZS2"
FORMAT_VERSION = 2

ENC_RAW = 0
ENC_DEFLATE = 1

DIGEST_SIZE = 16

_HEADER = struct.Struct("<BB16sIH")    # version, codec, state_digest, raw_len, nchunks
_ENTRY = struct.Struct("<16sIIB")      # digest, raw_len, stored_len, enc


def content_digest(data: bytes) -> bytes:
    """The 128-bit content address used for chunks and whole states."""
    return hashlib.blake2b(data, digest_size=DIGEST_SIZE).digest()


@dataclass(frozen=True)
class ChunkRef:
    """One manifest entry: which chunk, how big, how encoded."""

    digest: bytes
    raw_len: int
    stored_len: int
    enc: int

    @property
    def hex(self) -> str:
        return self.digest.hex()


@dataclass(frozen=True)
class Manifest:
    """A decoded v2 manifest."""

    codec_byte: bytes
    state_digest: bytes
    raw_len: int
    chunks: Tuple[ChunkRef, ...]

    @property
    def hex_digest(self) -> str:
        return self.state_digest.hex()


def encode_manifest(codec_byte: bytes, state_digest: bytes, raw_len: int,
                    chunks: List[ChunkRef]) -> bytes:
    body = _HEADER.pack(FORMAT_VERSION, codec_byte[0], state_digest,
                        raw_len, len(chunks))
    body += b"".join(_ENTRY.pack(c.digest, c.raw_len, c.stored_len, c.enc)
                     for c in chunks)
    return crc_frame(body, MANIFEST_MAGIC)


def is_manifest(blob: bytes) -> bool:
    """Cheap magic sniff: is this blob a v2 manifest (vs a v1 blob)?"""
    return blob[:4] == MANIFEST_MAGIC


def decode_manifest(blob: bytes, fiber_id=None) -> Manifest:
    """Decode and integrity-check a manifest blob.

    Raises :class:`TornManifestError` for truncation/CRC damage and
    :class:`ManifestFormatError` for a well-framed body this reader
    does not understand.  Never returns a partially-decoded manifest.
    """
    if not is_manifest(blob):
        raise ManifestFormatError("not a v2 snapshot manifest",
                                  fiber_id=fiber_id)
    bodies, _, tail_error = parse_crc_frames(blob, MANIFEST_MAGIC)
    if not bodies:
        raise TornManifestError(f"manifest torn ({tail_error})",
                                fiber_id=fiber_id)
    body = bodies[0]
    if len(body) < _HEADER.size:
        raise ManifestFormatError("manifest body shorter than its header",
                                  fiber_id=fiber_id)
    version, codec, state_digest, raw_len, nchunks = \
        _HEADER.unpack(body[:_HEADER.size])
    if version != FORMAT_VERSION:
        raise ManifestFormatError(
            f"unknown snapshot format version {version}", fiber_id=fiber_id)
    expected = _HEADER.size + nchunks * _ENTRY.size
    if len(body) != expected:
        raise ManifestFormatError(
            f"manifest body is {len(body)} bytes, {expected} expected "
            f"for {nchunks} chunks", fiber_id=fiber_id)
    chunks = []
    offset = _HEADER.size
    for _ in range(nchunks):
        digest, c_raw, c_stored, enc = _ENTRY.unpack(
            body[offset:offset + _ENTRY.size])
        if enc not in (ENC_RAW, ENC_DEFLATE):
            raise ManifestFormatError(f"unknown chunk encoding {enc}",
                                      fiber_id=fiber_id)
        chunks.append(ChunkRef(digest, c_raw, c_stored, enc))
        offset += _ENTRY.size
    return Manifest(bytes([codec]), state_digest, raw_len, tuple(chunks))
