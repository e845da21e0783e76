"""Declarative fault schedules.

A :class:`FaultPlan` is a *data* description of every fault a chaos
campaign will inject: drop/duplicate/delay the Nth matching message,
fail or corrupt the Nth store IO touching a key prefix, crash/restart a
node at virtual time T (or on the Nth fiber persist), slow a node by a
factor.  Compiled with a seed into a
:class:`~repro.faults.injector.FaultInjector`, the same ``(seed, plan)``
pair replays bit-identically under the virtual clock — a failing
campaign is a name you can re-run, not a dice roll.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

# message fault actions
DROP = "drop"
DUPLICATE = "duplicate"
DELAY = "delay"
# store fault actions
FAIL_WRITE = "fail-write"
FAIL_READ = "fail-read"
CORRUPT_READ = "corrupt-read"
# node fault actions
CRASH = "crash"
SLOW = "slow"
# durable-store fault actions
SHARD_OUTAGE = "shard-outage"
TORN_COMMIT = "torn-commit"
# incremental-snapshot (persistsnap) fault actions
TORN_MANIFEST = "torn-manifest"
MISSING_CHUNK = "missing-chunk"
CORRUPT_CHUNK = "corrupt-chunk"
# history-log fault actions
TORN_TAIL = "torn-tail"
DROPPED_BATCH = "dropped-batch"
CORRUPT_FRAME = "corrupt-frame"


@dataclass(frozen=True)
class MessageFault:
    """Drop, duplicate or delay deliveries of matching messages.

    A message matches when ``service``/``operation`` match (``None`` is
    a wildcard).  The fault fires on matching deliveries number ``nth``
    through ``nth + count - 1`` (1-based).  Semantics follow JMS
    at-least-once delivery:

    * ``drop`` — the delivery is lost; the queue's redelivery machinery
      notices (an attempt is consumed) and the message retries per its
      :class:`~repro.bluebox.retry.RetryPolicy`, or dead-letters.
    * ``duplicate`` — the message is delivered *and* re-enqueued once,
      exercising receiver idempotence.
    * ``delay`` — delivery is postponed ``delay`` virtual seconds
      without consuming an attempt.
    """

    action: str
    service: Optional[str] = None
    operation: Optional[str] = None
    nth: int = 1
    count: int = 1
    delay: float = 0.5

    def __post_init__(self):
        if self.action not in (DROP, DUPLICATE, DELAY):
            raise ValueError(f"unknown message fault action {self.action!r}")
        if self.nth < 1 or self.count < 1:
            raise ValueError("nth and count are 1-based and positive")

    def matches(self, service: str, operation: str) -> bool:
        return ((self.service is None or self.service == service)
                and (self.operation is None or self.operation == operation))


@dataclass(frozen=True)
class StoreFault:
    """Fail or corrupt shared-store IO touching ``key_prefix``.

    Fires on matching operations number ``nth`` through
    ``nth + count - 1`` (1-based, counted per fault).  ``fail-write``
    and ``fail-read`` raise an IO error before any state changes;
    ``corrupt-read`` models a checksum-detected corrupt block (the read
    fails rather than silently returning garbage).  All three abort the
    operation mid-window; the platform rolls back and retries the
    message per its retry policy.
    """

    action: str
    key_prefix: str = ""
    nth: int = 1
    count: int = 1

    def __post_init__(self):
        if self.action not in (FAIL_WRITE, FAIL_READ, CORRUPT_READ):
            raise ValueError(f"unknown store fault action {self.action!r}")
        if self.nth < 1 or self.count < 1:
            raise ValueError("nth and count are 1-based and positive")

    def matches(self, key: str) -> bool:
        return key.startswith(self.key_prefix)


@dataclass(frozen=True)
class NodeFault:
    """Crash, restart or slow a node.

    * ``crash`` at virtual time ``at``, on the ``on_persist``-th
      fiber-state persist cluster-wide (death *during* persistence), or
      on the ``on_lock``-th fiber-lock acquisition cluster-wide (death
      the instant a node takes a fiber's lock — the worst case for the
      lease-recovery machinery); ``restart_after`` revives the node
      that many seconds later (``None`` = never).
    * ``slow`` multiplies every operation duration on the node by
      ``factor`` from ``at`` (default 0) for ``duration`` seconds
      (``None`` = forever).

    ``node`` may be empty: the injector picks one deterministically
    from the seeded RNG at install time.
    """

    action: str
    node: str = ""
    at: Optional[float] = None
    restart_after: Optional[float] = 1.0
    on_persist: Optional[int] = None
    on_lock: Optional[int] = None
    factor: float = 2.0
    duration: Optional[float] = None

    def __post_init__(self):
        if self.action not in (CRASH, SLOW):
            raise ValueError(f"unknown node fault action {self.action!r}")
        if self.action == CRASH and self.at is None \
                and self.on_persist is None and self.on_lock is None:
            raise ValueError("crash fault needs `at`, `on_persist` "
                             "or `on_lock`")
        if self.action == SLOW and self.factor <= 0:
            raise ValueError("slow factor must be positive")


@dataclass(frozen=True)
class ShardFault:
    """Take one shard of a :class:`~repro.durastore.ShardedStore` down.

    During the outage every IO routed to the shard fails (reads and
    writes, or writes only) — the simulation's stand-in for one storage
    plane dropping off the network while the others keep serving.

    Two firing modes:

    * **time window** — ``at`` (virtual seconds) for ``duration``
      seconds (``None`` = never recovers);
    * **op window** — when ``at`` is ``None``, matching operations
      number ``nth`` through ``nth + count - 1`` fail (1-based),
      mirroring :class:`StoreFault` determinism.

    ``shard`` may be empty: the injector picks one deterministically
    from the seeded RNG at install time (or matches any shard when it
    cannot see the ring).
    """

    action: str = SHARD_OUTAGE
    shard: str = ""
    at: Optional[float] = None
    duration: Optional[float] = None
    nth: int = 1
    count: int = 1
    writes_only: bool = False

    def __post_init__(self):
        if self.action != SHARD_OUTAGE:
            raise ValueError(f"unknown shard fault action {self.action!r}")
        if self.nth < 1 or self.count < 1:
            raise ValueError("nth and count are 1-based and positive")


@dataclass(frozen=True)
class JournalFault:
    """Tear a write-ahead-journal group commit mid-append.

    Fires on journal append number ``nth`` through ``nth + count - 1``
    (1-based): only ``keep_fraction`` of the framed batch reaches
    storage and the append raises — the writer died inside ``write(2)``.
    The next replay must drop exactly the torn record; the aborted
    window's message retries per its policy.
    """

    action: str = TORN_COMMIT
    nth: int = 1
    count: int = 1
    keep_fraction: float = 0.5

    def __post_init__(self):
        if self.action != TORN_COMMIT:
            raise ValueError(f"unknown journal fault action {self.action!r}")
        if self.nth < 1 or self.count < 1:
            raise ValueError("nth and count are 1-based and positive")
        if not 0.0 <= self.keep_fraction < 1.0:
            raise ValueError("keep_fraction must be in [0, 1)")


@dataclass(frozen=True)
class SnapshotFault:
    """Damage the incremental-snapshot (format v2) plane.

    * ``torn-manifest`` — the Nth manifest write cluster-wide is
      silently truncated to ``keep_fraction`` of its bytes (the writer
      died inside ``write(2)``); the tear surfaces on the next restore
      as a :class:`~repro.persistsnap.TornManifestError`.
    * ``missing-chunk`` — the Nth chunk read returns nothing, as if GC
      or an operator lost the content-addressed block.
    * ``corrupt-chunk`` — the Nth chunk read comes back with a bit
      flipped (position drawn from the injector's seeded RNG); the
      per-chunk digest check must catch it.

    Fires on matching operations number ``nth`` through
    ``nth + count - 1`` (1-based, counted per fault).  All three must
    surface as typed snapshot errors that abort the window for a
    policy-driven retry — never a wrong-value restore.
    """

    action: str
    nth: int = 1
    count: int = 1
    keep_fraction: float = 0.5

    def __post_init__(self):
        if self.action not in (TORN_MANIFEST, MISSING_CHUNK, CORRUPT_CHUNK):
            raise ValueError(f"unknown snapshot fault action {self.action!r}")
        if self.nth < 1 or self.count < 1:
            raise ValueError("nth and count are 1-based and positive")
        if not 0.0 <= self.keep_fraction < 1.0:
            raise ValueError("keep_fraction must be in [0, 1)")


@dataclass(frozen=True)
class HistoryFault:
    """Damage the event-sourced history-log plane.

    * ``torn-tail`` — the Nth history-batch write cluster-wide is
      silently truncated to ``keep_fraction`` of its bytes (the writer
      died inside ``write(2)``); the tear must surface on the next
      replay as a :class:`~repro.history.TornHistoryError`.
    * ``dropped-batch`` — the Nth batch write is lost entirely (buffer
      never reached storage); replay must detect the hole as a
      :class:`~repro.history.DroppedBatchError`.
    * ``corrupt-frame`` — the Nth batch write lands with a bit flipped
      (position drawn from the injector's seeded RNG); the CRC frame
      check must catch it.

    Fires on history-batch writes number ``nth`` through
    ``nth + count - 1`` (1-based, counted per fault).  All three must
    fail closed — replay raises a typed error, never silently trusts a
    damaged history.
    """

    action: str
    nth: int = 1
    count: int = 1
    keep_fraction: float = 0.5

    def __post_init__(self):
        if self.action not in (TORN_TAIL, DROPPED_BATCH, CORRUPT_FRAME):
            raise ValueError(f"unknown history fault action {self.action!r}")
        if self.nth < 1 or self.count < 1:
            raise ValueError("nth and count are 1-based and positive")
        if not 0.0 <= self.keep_fraction < 1.0:
            raise ValueError("keep_fraction must be in [0, 1)")


Fault = Union[MessageFault, StoreFault, NodeFault, ShardFault, JournalFault,
              SnapshotFault, HistoryFault]


@dataclass(frozen=True)
class FaultPlan:
    """A named, declarative schedule of faults.

    The plan is pure data; pair it with a seed and compile via
    :meth:`FaultInjector.install <repro.faults.injector.FaultInjector>`.
    ``describe()`` and ``to_dict()`` give a stable, human-readable
    identity for the campaign matrix.
    """

    faults: Tuple[Fault, ...] = ()
    name: str = ""

    def __init__(self, faults: Sequence[Fault] = (), name: str = ""):
        object.__setattr__(self, "faults", tuple(faults))
        object.__setattr__(self, "name", name)

    def __iter__(self):
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def __add__(self, other: "FaultPlan") -> "FaultPlan":
        return FaultPlan(self.faults + tuple(other),
                         name=self.name or other.name)

    def message_faults(self) -> List[MessageFault]:
        return [f for f in self.faults if isinstance(f, MessageFault)]

    def store_faults(self) -> List[StoreFault]:
        return [f for f in self.faults if isinstance(f, StoreFault)]

    def node_faults(self) -> List[NodeFault]:
        return [f for f in self.faults if isinstance(f, NodeFault)]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "faults": [dict(kind=type(f).__name__, **asdict(f))
                       for f in self.faults],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        kinds = {"MessageFault": MessageFault, "StoreFault": StoreFault,
                 "NodeFault": NodeFault, "ShardFault": ShardFault,
                 "JournalFault": JournalFault,
                 "SnapshotFault": SnapshotFault,
                 "HistoryFault": HistoryFault}
        faults = []
        for entry in data.get("faults", []):
            entry = dict(entry)
            kind = kinds[entry.pop("kind")]
            faults.append(kind(**entry))
        return cls(faults, name=data.get("name", ""))

    def describe(self) -> str:
        """One line per fault, a stable campaign fingerprint."""
        lines = [f"FaultPlan {self.name or '<anonymous>'}:"]
        for f in self.faults:
            bits = ", ".join(f"{k}={v!r}" for k, v in asdict(f).items()
                             if v not in (None, ""))
            lines.append(f"  {type(f).__name__}({bits})")
        return "\n".join(lines)
