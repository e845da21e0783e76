"""Durable storage for task histories: CRC-framed batches on the store.

Each committing operation window appends one batch per task under
``history//<task-id>/<n>``.  The write happens inside the window's
commit, so on a journaled store it is one more record of the window's
own group-commit batch — history durability costs no extra IO — and a
failed write aborts the window like any other store fault.  A batch
frame is ``magic + u32 len + u32 crc + payload`` (the
same framing the write-ahead journal uses), so a torn tail — the writer
died inside ``write(2)`` — is *detectable*: the length or checksum will
not line up.

The read side fails closed: any tear, gap or CRC mismatch surfaces as a
typed :exc:`HistoryCorruptionError` subclass rather than a silently
truncated (and therefore wrong) history.  Replay would otherwise happily
rebuild a fiber from half its life and diverge — or worse, not diverge.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..durastore.journal import crc_frame, parse_crc_frames
from ..vinz.persistence import MAGIC
from .recorder import SCHEMA_VERSION, HistoryEvent

#: frame magic for the history plane (journal uses its own)
HISTORY_MAGIC = b"GZH1"


class HistoryLogError(RuntimeError):
    """Base class for history-plane failures."""


class HistoryCorruptionError(HistoryLogError):
    """A history batch failed its integrity check — the stream cannot
    be trusted past this point and replay must not proceed."""

    def __init__(self, task_id: str, batch: int, reason: str):
        super().__init__(f"history of {task_id} corrupt at batch "
                         f"{batch}: {reason}")
        self.task_id = task_id
        self.batch = batch
        self.reason = reason


class TornHistoryError(HistoryCorruptionError):
    """The history's tail batch is torn (crash mid-append)."""


class DroppedBatchError(HistoryCorruptionError):
    """A mid-stream batch is missing (sequence gap) — a dropped write."""


class HistoryLog:
    """Batched, CRC-framed history storage on a shared-store plane."""

    def __init__(self, store):
        self.store = store
        #: optional FaultInjector (set by ``FaultInjector.install``):
        #: consulted before every batch write for HistoryFault damage
        self.injector = None
        #: next batch index per task
        self._next_batch: Dict[str, int] = {}
        self.batches_written = 0
        self.bytes_written = 0

    @staticmethod
    def _key(task_id: str, index: int) -> str:
        return f"history//{task_id}/{index:08d}"

    # -- write side -----------------------------------------------------

    def append_batch(self, task_id: str, events: List[HistoryEvent],
                     codec) -> None:
        """Append one committed window's events for ``task_id``.

        One fiber-codec pass over the ``(seq, kind, fiber, payload)``
        rows: anything a fiber can hold round-trips, byte-for-byte
        deterministically (the recorder-determinism test pins this).
        """
        rows = [(e.seq, e.kind, e.fiber, e.payload) for e in events]
        blob = crc_frame(codec.dumps((SCHEMA_VERSION, rows)), HISTORY_MAGIC)
        index = self._next_batch.get(task_id, 0)
        key = self._key(task_id, index)
        if self.injector is not None:
            blob = self.injector.on_history_write(key, blob)
        if blob is not None:  # None: dropped-batch fault, never lands
            # a failed write raises before anything here changed: the
            # window aborts and the message redelivers, like any write
            self.store.write(key, blob)
            self.batches_written += 1
            self.bytes_written += len(blob)
        self._next_batch[task_id] = index + 1

    def rollback_batch(self, task_id: str) -> None:
        """Abort-undo of ``task_id``'s last :meth:`append_batch`: the
        window that wrote it did not commit."""
        index = self._next_batch[task_id] - 1
        self._next_batch[task_id] = index
        key = self._key(task_id, index)
        blob = self.store.snapshot_value(key)
        if blob is not None:
            self.store.rollback_value(key, None)
            self.batches_written -= 1
            self.bytes_written -= len(blob)

    # -- read side ------------------------------------------------------

    def read_task(self, task_id: str, codec) -> List[HistoryEvent]:
        """Read and verify the full event stream of one task.

        Fails closed: torn frames, CRC mismatches and sequence gaps all
        raise typed errors.  A gap means a batch was dropped mid-stream;
        a tear means the final append was cut short — either way the
        suffix cannot be trusted.
        """
        events: List[HistoryEvent] = []
        index = 0
        while True:
            key = self._key(task_id, index)
            if not self.store.exists(key):
                break
            blob = self.store.read(key)
            payloads, _, tail_error = parse_crc_frames(blob, HISTORY_MAGIC)
            if tail_error is not None or len(payloads) != 1:
                raise TornHistoryError(task_id, index,
                                       tail_error or "empty-frame")
            payload = payloads[0]
            try:
                # schema 1 framed a bare pickle: read it only to name it
                version, rows = (codec.loads(payload)
                                 if payload[:4] == MAGIC
                                 else codec.deserialize_state(payload))
            except (ValueError, TypeError) as exc:  # undecodable or misshapen
                raise HistoryCorruptionError(task_id, index,
                                             f"undecodable batch: {exc}")
            if version != SCHEMA_VERSION:
                raise HistoryCorruptionError(
                    task_id, index, f"schema version {version} "
                    f"(expected {SCHEMA_VERSION})")
            events.extend(HistoryEvent(*row) for row in rows)
            index = index + 1
        # a dropped batch leaves a hole: either the batch index stops
        # short of what the writer appended, or (defense in depth) the
        # per-task sequence numbers have a gap
        highest = self._next_batch.get(task_id, index)
        if index < highest:
            raise DroppedBatchError(task_id, index, "missing batch")
        for position, event in enumerate(events):
            if event.seq != position:
                raise DroppedBatchError(
                    task_id, index,
                    f"sequence gap: expected seq {position}, "
                    f"found {event.seq}")
        return events

    # -- introspection --------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        return {
            "batches_written": self.batches_written,
            "log_bytes": self.bytes_written,
        }
