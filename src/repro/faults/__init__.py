"""Deterministic fault injection: plans, injectors, retry policies.

The survivability story (paper Sections 1 and 3.2) as a *regression
suite*: a seeded :class:`FaultPlan` compiled into a
:class:`FaultInjector` replays the same faults bit-identically under
the virtual clock, and :class:`RetryPolicy` + the message queue's
dead-letter machinery bound how the platform degrades when retries run
out.

The chaos-campaign harness lives in :mod:`repro.faults.campaign`
(imported separately — it pulls in the full Vinz stack).
"""

from ..bluebox.retry import RetryPolicy
from .plan import (
    CORRUPT_CHUNK,
    CORRUPT_FRAME,
    CORRUPT_READ,
    CRASH,
    DELAY,
    DROP,
    DROPPED_BATCH,
    DUPLICATE,
    FAIL_READ,
    FAIL_WRITE,
    Fault,
    FaultPlan,
    HistoryFault,
    JournalFault,
    MISSING_CHUNK,
    MessageFault,
    NodeFault,
    SHARD_OUTAGE,
    SLOW,
    ShardFault,
    SnapshotFault,
    StoreFault,
    TORN_COMMIT,
    TORN_MANIFEST,
    TORN_TAIL,
)
from .injector import FaultInjector

__all__ = [
    "RetryPolicy",
    "FaultPlan", "Fault", "MessageFault", "StoreFault", "NodeFault",
    "ShardFault", "JournalFault", "SnapshotFault", "HistoryFault",
    "FaultInjector",
    "DROP", "DUPLICATE", "DELAY",
    "FAIL_WRITE", "FAIL_READ", "CORRUPT_READ",
    "CRASH", "SLOW",
    "SHARD_OUTAGE", "TORN_COMMIT",
    "TORN_MANIFEST", "MISSING_CHUNK", "CORRUPT_CHUNK",
    "TORN_TAIL", "DROPPED_BATCH", "CORRUPT_FRAME",
]
