"""Storage backends: byte planes, disk mirroring, name escaping."""

import os
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bluebox.store import DirectoryStore, SharedStore, StoreError
from repro.durastore import DirectoryBackend, MemoryBackend, StoreBackend, \
    memory_backends


def test_memory_backend_roundtrip():
    b = MemoryBackend("shard-0")
    assert isinstance(b, StoreBackend)
    b.put("a/b", b"one")
    b.put("c", b"two!")
    assert b.get("a/b") == b"one"
    assert b.contains("c") and not b.contains("missing")
    assert sorted(b.keys()) == ["a/b", "c"]
    assert b.nbytes() == 7
    b.remove("a/b")
    b.remove("a/b")  # idempotent
    assert b.get("a/b") is None
    assert b.keys() == ["c"]


def test_memory_backends_factory_names():
    planes = memory_backends(3)
    assert [p.name for p in planes] == ["shard-0", "shard-1", "shard-2"]


def test_directory_backend_mirrors_and_hydrates(tmp_path):
    root = str(tmp_path / "plane")
    b = DirectoryBackend("shard-0", root)
    b.put("fiber-state/f1", b"alpha")
    b.put("odd%2Fkey", b"beta")
    b.remove("fiber-state/f1")
    b.put("fiber-state/f1", b"gamma")

    # a fresh backend over the same directory sees the same state —
    # the process-crash pickup path
    fresh = DirectoryBackend("shard-0", root)
    assert sorted(fresh.keys()) == ["fiber-state/f1", "odd%2Fkey"]
    assert fresh.get("fiber-state/f1") == b"gamma"
    assert fresh.get("odd%2Fkey") == b"beta"


def test_directory_backend_skips_tmp_files(tmp_path):
    root = str(tmp_path / "plane")
    b = DirectoryBackend("shard-0", root)
    b.put("k", b"v")
    # a crash can leave a half-written temp file behind
    with open(os.path.join(root, "junk.tmp"), "wb") as fh:
        fh.write(b"partial")
    fresh = DirectoryBackend("shard-0", root)
    assert fresh.keys() == ["k"]


# ---------------------------------------------------------------------------
# the escaped file-name encoding (satellite: % escaped before /)
# ---------------------------------------------------------------------------

#: keys mixing the escape character, the separator, and pre-escaped
#: sequences — the inputs where a wrong escape order loses information
tricky_keys = st.text(
    alphabet=string.ascii_letters + string.digits + "%/2F5.-_", max_size=40)


@given(tricky_keys)
def test_directory_backend_name_encoding_inverts(key):
    encoded = DirectoryBackend._encode_name(key)
    assert "/" not in encoded
    assert DirectoryBackend._decode_name(encoded) == key


def test_encoding_distinguishes_escape_collisions():
    # the regression the %-first order fixes: a key literally containing
    # "%2F" must not collide with one containing "/"
    a = DirectoryBackend._encode_name("a%2Fb")
    b = DirectoryBackend._encode_name("a/b")
    assert a != b
    assert DirectoryBackend._decode_name(a) == "a%2Fb"
    assert DirectoryBackend._decode_name(b) == "a/b"


def test_directory_store_roundtrips_tricky_keys(tmp_path):
    store = DirectoryStore(str(tmp_path))
    store.write("a%2Fb", b"escaped")
    store.write("a/b", b"nested")
    fresh = DirectoryStore(str(tmp_path))
    assert fresh.read("a%2Fb") == b"escaped"
    assert fresh.read("a/b") == b"nested"


@pytest.mark.parametrize("reopen", [
    lambda root: DirectoryStore(root),
    lambda root: DirectoryBackend("plane", root),
], ids=["store", "backend"])
def test_stray_tmp_file_is_not_a_key(tmp_path, reopen):
    # a crash between the write of k.tmp and its os.replace leaves the
    # temporary behind: it must not come back as a key named "k.tmp"
    DirectoryBackend("plane", str(tmp_path)).put("k", b"committed")
    (tmp_path / "k.tmp").write_bytes(b"half-written")
    (tmp_path / "other.tmp").write_bytes(b"never committed")
    assert sorted(reopen(str(tmp_path)).keys()) == ["k"]


# ---------------------------------------------------------------------------
# satellites: delete is IO too; missing-key probes share the read path
# ---------------------------------------------------------------------------

def test_delete_charges_and_counts():
    store = SharedStore()
    store.write("k", b"data")
    before_ops = store.io_ops
    cost = store.delete("k")
    assert cost == pytest.approx(store.op_latency)
    assert store.deletes == 1
    assert store.io_ops == before_ops + 1
    # deleting a missing key is a no-op but still a round trip
    assert store.delete("k") == pytest.approx(store.op_latency)
    assert store.deletes == 2


def test_delete_consults_injector():
    class Veto:
        def on_store_write(self, key):
            raise StoreError(f"vetoed {key}")

        def on_store_read(self, key):
            pass

    store = SharedStore()
    store._put("k", b"data")
    store.injector = Veto()
    with pytest.raises(StoreError):
        store.delete("k")
    assert store.faulted_ops == 1
    assert store.exists("k"), "vetoed delete must not mutate"


def test_read_cost_and_size_share_missing_key_path():
    store = SharedStore()
    with pytest.raises(StoreError):
        store.read("nope")
    with pytest.raises(StoreError):
        store.read_cost("nope")
    with pytest.raises(StoreError):
        store.size("nope")


def test_read_cost_and_size_consult_injector():
    class Blackout:
        def on_store_read(self, key):
            raise StoreError(f"blackout {key}")

    store = SharedStore()
    store._put("k", b"data")
    store.injector = Blackout()
    for probe in (store.read_cost, store.size):
        with pytest.raises(StoreError):
            probe("k")
    assert store.faulted_ops == 2
