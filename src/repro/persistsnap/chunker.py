"""Content-defined chunking: stable boundaries under mutation.

A suspended fiber's serialized state changes a little on every
suspension — the top frame's pc and operand stack, the tail of an
accumulator — while most of the stream (deep frames, shared
environments, task parameters) is byte-identical to the previous
version.  Fixed-size chunking would shift every boundary after an
insertion; content-defined chunking (the FastCDC/gear-hash family used
by dedup stores) cuts wherever a rolling hash of the *content* hits a
pattern, so unchanged regions keep their exact chunk boundaries no
matter how the bytes around them moved.

The hash is the gear hash ``h = (h << 1) + GEAR[byte]``, and a position
is a cut when the low :data:`AVG_BITS` bits of ``h`` are zero.  Each
shift moves older bytes' contributions up, so bit ``j`` of ``h`` reads
only the last ``j + 1`` bytes: the cut test reads the last
:data:`AVG_BITS` bytes and nothing else.  Whether a position is a cut
candidate therefore does not depend on where its chunk started, and
:func:`chunk_spans` finds every candidate of the whole input in one
pass of big-integer arithmetic, then walks them with the size clamps.

The gear table is generated from a fixed seed: chunk boundaries — and
therefore chunk digests, manifests and the golden-file test — are
deterministic across runs and platforms.
"""

from __future__ import annotations

import random
from typing import List

#: the gear table: 256 pseudo-random 64-bit words from a pinned seed.
#: Changing this seed changes every chunk boundary (and breaks dedup
#: against previously written snapshots) — treat it as format v2 state.
_GEAR_SEED = 0x476F7A32  # "Goz2"
_gear_rng = random.Random(_GEAR_SEED)
_GEAR = tuple(_gear_rng.getrandbits(64) for _ in range(256))
del _gear_rng

#: default chunking geometry: ~256 B average chunks, bounded to
#: [64 B, 2 KiB].  Fiber blobs run under a KiB to a few tens of KiB and
#: mutate in a small region per suspension, so the geometry trades two
#: costs: coarser chunks rewrite more unchanged bytes around every
#: edit, finer chunks pay more manifest entries (25 B each, on *every*
#: persist) and compress worse.  A sweep over captured suspension
#: streams put the minimum of (rewritten chunk + manifest) bytes here —
#: ~2.6x fewer persisted bytes per suspension than whole-blob v1 on the
#: loop-heavy benchmark, vs ~1.8x at a 512 B average.
DEFAULT_MIN_SIZE = 64
DEFAULT_MAX_SIZE = 2048

#: the cut test reads the hash's low AVG_BITS bits (~2**8 = 256 B
#: average chunks), and so the last AVG_BITS bytes; the candidate search
#: below is built for exactly one byte
AVG_BITS = 8

#: the gear table's low bytes as a ``bytes.translate`` table: the cut
#: test reads no other bits of it
_GEAR_LOW = bytes(g & 0xFF for g in _GEAR)

#: ``x * _WINDOW_SUM`` adds to each 16-bit lane of ``x``, for every
#: ``k < AVG_BITS``, the lane ``k`` back shifted left ``k`` bits:
#: ``1 << 17 * k`` is ``k`` lanes plus ``k`` bits
_WINDOW_SUM = sum(1 << 17 * k for k in range(AVG_BITS))


def _hash_low_bytes(gears: bytes) -> bytes:
    """Byte ``i`` is the low byte of the gear hash of ``data[:i + 1]``
    (``gears`` is ``data`` through :data:`_GEAR_LOW`), which is also
    the low byte of the hash of every suffix of it of at least
    :data:`AVG_BITS` bytes.

    Each byte gets a 16-bit lane of one big integer; one multiplication
    makes lane ``i`` hold ``sum(gears[i - k] << k for k in range(8))``.
    That is at most 255 * 255 < 2**16, so no lane carries into the
    next, and its low byte is the hash's.
    """
    n = len(gears)
    lanes = bytearray(2 * n)
    lanes[0::2] = gears
    x = int.from_bytes(lanes, "little") * _WINDOW_SUM
    return x.to_bytes(2 * n + 16, "little")[0:2 * n:2]


def chunk_spans(data: bytes, min_size: int = DEFAULT_MIN_SIZE,
                max_size: int = DEFAULT_MAX_SIZE) -> List[bytes]:
    """Split ``data`` into content-defined chunks.

    Invariants (property-tested):

    * ``b"".join(chunk_spans(data)) == data`` — lossless;
    * every chunk except possibly the last is within
      ``[min_size, max_size]``;
    * a boundary depends only on the last :data:`AVG_BITS` bytes before
      it (and on ``min_size``/``max_size`` from the previous boundary),
      so regions far from an edit keep their boundaries.

    The one-pass candidate search is exact only when every candidate's
    window lies inside its chunk, so ``min_size`` is at least
    ``AVG_BITS - 1``.
    """
    if min_size < AVG_BITS - 1 or max_size < min_size:
        raise ValueError(f"need {AVG_BITS - 1} <= min_size <= max_size")
    n = len(data)
    if n == 0:
        return []
    lows = _hash_low_bytes(data.translate(_GEAR_LOW))
    chunks: List[bytes] = []
    start = 0
    while start < n:
        if n - start <= min_size:
            chunks.append(data[start:])
            break
        end = min(start + max_size, n)
        # a cut may only follow the first min_size bytes
        i = lows.find(0, start + min_size, end)
        cut = end if i < 0 else i + 1
        chunks.append(data[start:cut])
        start = cut
    return chunks
