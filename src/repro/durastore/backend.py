"""Storage backends: the raw byte planes shards are built from.

A :class:`StoreBackend` is deliberately dumber than
:class:`~repro.bluebox.store.SharedStore`: no cost model, no fault
hooks, no statistics — just named byte blobs.  The sharded store owns
policy (hashing, costs, faults, stats) and treats backends as
interchangeable planes, the way Netherite treats its partition stores.

Two implementations ship: :class:`MemoryBackend` (a dict — the
simulation workhorse) and :class:`DirectoryBackend` (a real directory,
for state that must survive a process boundary).
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Protocol, runtime_checkable


@runtime_checkable
class StoreBackend(Protocol):
    """What the sharded store requires of one storage plane."""

    #: stable identity — shard-ring points hash this, so renaming a
    #: backend remaps its keys
    name: str

    def get(self, key: str) -> Optional[bytes]: ...

    def put(self, key: str, data: bytes) -> None: ...

    def remove(self, key: str) -> None: ...

    def contains(self, key: str) -> bool: ...

    def keys(self) -> List[str]: ...


class MemoryBackend:
    """An in-memory storage plane."""

    def __init__(self, name: str):
        self.name = name
        self._data: Dict[str, bytes] = {}

    def get(self, key: str) -> Optional[bytes]:
        return self._data.get(key)

    def put(self, key: str, data: bytes) -> None:
        self._data[key] = data

    def remove(self, key: str) -> None:
        self._data.pop(key, None)

    def contains(self, key: str) -> bool:
        return key in self._data

    def keys(self) -> List[str]:
        return list(self._data)

    def __repr__(self) -> str:
        return f"<MemoryBackend {self.name} keys={len(self._data)}>"


class DirectoryBackend:
    """A storage plane mirrored onto a real directory.

    Keys become file names by escaping ``%`` first, then ``/``, so the
    encoding inverts.  An in-memory view is hydrated from disk at
    construction, so a process that crashed mid-run can be picked up by
    a fresh backend over the same directory; a ``*.tmp`` file left by a
    crash between write and rename is not a key.
    :class:`~repro.bluebox.store.DirectoryStore` is built on this class.
    """

    def __init__(self, name: str, root: str):
        self.name = name
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._data: Dict[str, bytes] = {}
        for fname in os.listdir(root):
            path = os.path.join(root, fname)
            if os.path.isfile(path) and not fname.endswith(".tmp"):
                with open(path, "rb") as fh:
                    self._data[self._decode_name(fname)] = fh.read()

    @staticmethod
    def _encode_name(key: str) -> str:
        # escape the escape character first: a key literally containing
        # "%2F" must not collide with a key containing "/"
        return key.replace("%", "%25").replace("/", "%2F")

    @staticmethod
    def _decode_name(name: str) -> str:
        return name.replace("%2F", "/").replace("%25", "%")

    def _path(self, key: str) -> str:
        return os.path.join(self.root, self._encode_name(key))

    def get(self, key: str) -> Optional[bytes]:
        return self._data.get(key)

    def put(self, key: str, data: bytes) -> None:
        self._data[key] = data
        tmp = self._path(key) + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, self._path(key))

    def remove(self, key: str) -> None:
        self._data.pop(key, None)
        path = self._path(key)
        if os.path.exists(path):
            os.unlink(path)

    def contains(self, key: str) -> bool:
        return key in self._data

    def keys(self) -> List[str]:
        return list(self._data)

    def __repr__(self) -> str:
        return f"<DirectoryBackend {self.name} root={self.root!r}>"


def memory_backends(count: int) -> List[MemoryBackend]:
    """``count`` uniformly named in-memory planes."""
    return [MemoryBackend(f"shard-{i}") for i in range(count)]
