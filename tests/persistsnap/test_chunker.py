"""Content-defined chunking invariants (persistsnap.chunker)."""

import os
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.persistsnap.chunker import (
    DEFAULT_MAX_SIZE,
    DEFAULT_MIN_SIZE,
    _GEAR,
    chunk_spans,
)

_MASK64 = (1 << 64) - 1


def reference_chunk_spans(data, min_size=DEFAULT_MIN_SIZE,
                          max_size=DEFAULT_MAX_SIZE):
    """The gear chunker one byte at a time: restart the rolling hash at
    each chunk start and cut after the first position at least
    ``min_size`` bytes in whose hash has a zero low byte."""
    n = len(data)
    chunks = []
    start = 0
    while start < n:
        end = min(start + max_size, n)
        if end - start <= min_size:
            chunks.append(data[start:end])
            break
        h = 0
        cut = end
        boundary_from = start + min_size
        for i in range(start, end):
            h = ((h << 1) + _GEAR[data[i]]) & _MASK64
            if i >= boundary_from and (h & 0xFF) == 0:
                cut = i + 1
                break
        chunks.append(data[start:cut])
        start = cut
    return chunks


#: the default geometry, the smallest minimum (the first candidate's
#: 8-byte window is the chunk's first bytes), and coarser ones
GEOMETRIES = [(DEFAULT_MIN_SIZE, DEFAULT_MAX_SIZE), (7, 50), (8, 300),
              (100, 1000), (64, 65)]
geometries = st.sampled_from(GEOMETRIES)


@st.composite
def few_symbol_binaries(draw):
    """Low-entropy inputs: random bytes folded onto 2-4 byte values."""
    alphabet = draw(st.lists(st.integers(0, 255), min_size=2, max_size=4,
                             unique=True))
    fold = bytes(alphabet[b % len(alphabet)] for b in range(256))
    return draw(st.binary(max_size=20_000)).translate(fold)


@st.composite
def pickled_rows(draw):
    rows = draw(st.lists(st.tuples(st.integers(), st.text(max_size=12)),
                         max_size=400))
    return pickle.dumps(rows)


class TestInvariants:
    @given(st.binary(min_size=0, max_size=20_000))
    @settings(max_examples=100)
    def test_lossless(self, data):
        assert b"".join(chunk_spans(data)) == data

    @given(st.binary(min_size=1, max_size=20_000))
    @settings(max_examples=100)
    def test_size_bounds(self, data):
        chunks = chunk_spans(data)
        for chunk in chunks[:-1]:
            assert DEFAULT_MIN_SIZE <= len(chunk) <= DEFAULT_MAX_SIZE
        assert 0 < len(chunks[-1]) <= DEFAULT_MAX_SIZE

    @given(st.binary(min_size=0, max_size=10_000))
    @settings(max_examples=50)
    def test_deterministic(self, data):
        assert chunk_spans(data) == chunk_spans(data)

    def test_empty(self):
        assert chunk_spans(b"") == []

    def test_equal_min_and_max_is_lossless(self):
        """Regression: with ``min_size == max_size`` every full window
        used to end the walk, dropping the rest of the input."""
        data = bytes(range(256)) * 4
        chunks = chunk_spans(data, min_size=100, max_size=100)
        assert b"".join(chunks) == data
        assert [len(c) for c in chunks] == [100] * 10 + [24]

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            chunk_spans(b"x", min_size=0)
        with pytest.raises(ValueError):
            chunk_spans(b"x", min_size=100, max_size=50)
        with pytest.raises(ValueError):
            # a cut candidate's 8-byte window must lie inside its chunk
            chunk_spans(b"x", min_size=6)


class TestMatchesReference:
    """The one-pass candidate search cuts exactly where the gear loop
    does: every stored chunk, and so every digest, stays the same."""

    @given(st.binary(max_size=20_000), geometries)
    @settings(max_examples=100, deadline=None)
    def test_random_binaries(self, data, geometry):
        assert chunk_spans(data, *geometry) == \
            reference_chunk_spans(data, *geometry)

    @given(few_symbol_binaries(), geometries)
    @settings(max_examples=100, deadline=None)
    def test_few_symbol_alphabets(self, data, geometry):
        assert chunk_spans(data, *geometry) == \
            reference_chunk_spans(data, *geometry)

    @given(pickled_rows(), geometries)
    @settings(max_examples=50, deadline=None)
    def test_pickled_row_lists(self, data, geometry):
        assert chunk_spans(data, *geometry) == \
            reference_chunk_spans(data, *geometry)

    def test_full_size_inputs(self):
        """Drawn inputs are mostly short; these run to 20 KB."""
        rng = random.Random(35)
        noise = rng.randbytes(20_000)
        inputs = [bytes(20_000), noise,
                  noise.translate(bytes(b"\x00\x01\xfe"[b % 3]
                                        for b in range(256))),
                  pickle.dumps([(i, i * 1.5, f"row-{i}")
                                for i in range(400)])]
        for data in inputs:
            for geometry in GEOMETRIES:
                assert chunk_spans(data, *geometry) == \
                    reference_chunk_spans(data, *geometry)


class TestGearTable:
    def test_gear_values_are_distinct(self):
        """Regression: the table must come from ONE seeded RNG — a
        constant table gives a position-only hash that never cuts."""
        assert len(set(_GEAR)) > 250

    def test_gear_is_pinned(self):
        """The table is format state: changing the seed breaks dedup
        against previously written snapshots."""
        expected = random.Random(0x476F7A32)
        assert _GEAR[0] == expected.getrandbits(64)


class TestBoundaryStability:
    """The reason for content-defined over fixed-size chunking."""

    def _payload(self, seed=7, n=16_000):
        rng = random.Random(seed)
        return bytes(rng.randrange(256) for _ in range(n))

    def test_cuts_happen(self):
        chunks = chunk_spans(self._payload())
        assert len(chunks) > 20  # ~256B average on random data

    def test_tail_append_keeps_prefix_chunks(self):
        data = self._payload()
        grown = data + self._payload(seed=8, n=2_000)
        before = chunk_spans(data)
        after = set(map(bytes, chunk_spans(grown)))
        # everything except the final (boundary-crossing) chunk survives
        surviving = sum(1 for c in before[:-1] if c in after)
        assert surviving >= len(before) - 2

    def test_head_insert_keeps_suffix_chunks(self):
        data = self._payload()
        shifted = self._payload(seed=9, n=777) + data
        before = chunk_spans(data)
        after = set(map(bytes, chunk_spans(shifted)))
        # fixed-size chunking would lose every chunk to the 777-byte
        # shift; CDC re-synchronizes after at most a couple of chunks
        surviving = sum(1 for c in before[2:] if c in after)
        assert surviving >= len(before) - 6

    def test_middle_edit_is_local(self):
        data = self._payload()
        position = len(data) // 2
        edited = data[:position] + b"EDIT" + data[position + 4:]
        before = chunk_spans(data)
        after = set(map(bytes, chunk_spans(edited)))
        changed = sum(1 for c in before if c not in after)
        assert changed <= 3  # the edit disturbs its own chunk, not all


class TestOsRandomSmoke:
    def test_incompressible_payload_chunks(self):
        data = os.urandom(50_000)
        chunks = chunk_spans(data)
        assert b"".join(chunks) == data
        sizes = [len(c) for c in chunks[:-1]]
        assert all(DEFAULT_MIN_SIZE <= s <= DEFAULT_MAX_SIZE for s in sizes)
