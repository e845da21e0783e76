"""Event-sourced task histories and deterministic replay.

The third leg of the durability story, next to ``persistsnap`` and
``vinz/recovery``: every nondeterministic decision a task makes is
recorded as a typed event (``recorder``), persisted as CRC-framed
batches on the shared store (``log``), and any fiber can be rebuilt —
or a whole finished task *verified* — by re-executing its bytecode with
the recorded decisions fed back in (``replay``).

Only :mod:`.recorder` is imported eagerly: :mod:`.log` pulls in the
vinz persistence framing and :mod:`.replay` the workflow service
itself, so both load lazily to keep ``vinz -> history -> vinz`` from
becoming a cycle.
"""

from .recorder import (
    FIBER_COMPLETED,
    FIBER_FAILED,
    FIBER_FORKED,
    FIBER_JOINED,
    FIBER_SUSPENDED,
    MESSAGE_DELIVERED,
    NONDET_RECORDED,
    RESUME_KINDS,
    SCHEMA_VERSION,
    SERVICE_COMPLETED,
    TASK_STARTED,
    TIMER_FIRED,
    HistoryEvent,
    HistoryRecorder,
    resume_kind_for,
)

_LAZY = {
    "HistoryLog": "log",
    "HistoryLogError": "log",
    "HistoryCorruptionError": "log",
    "TornHistoryError": "log",
    "DroppedBatchError": "log",
    "HISTORY_MAGIC": "log",
    "ReplayEngine": "replay",
    "ReplayError": "replay",
    "ReplayReport": "replay",
    "ReplayDivergenceError": "replay",
    "IncompleteHistoryError": "replay",
}

__all__ = [
    "FIBER_COMPLETED", "FIBER_FAILED", "FIBER_FORKED", "FIBER_JOINED",
    "FIBER_SUSPENDED", "MESSAGE_DELIVERED", "NONDET_RECORDED",
    "RESUME_KINDS", "SCHEMA_VERSION", "SERVICE_COMPLETED", "TASK_STARTED",
    "TIMER_FIRED", "HistoryEvent", "HistoryRecorder", "resume_kind_for",
    *sorted(_LAZY),
]


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module_name}", __name__), name)
