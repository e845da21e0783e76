"""Trace exporters: Chrome ``trace_event`` JSON and a plain-JSON report.

The Chrome format is the JSON array/object understood by Perfetto
(https://ui.perfetto.dev) and the legacy ``chrome://tracing`` viewer:
each finished span becomes a complete event (``"ph": "X"``) with
microsecond ``ts``/``dur``; nodes map to processes (``pid`` plus a
``process_name`` metadata record) and fibers to threads, so one task's
migration across machines is visible as its spans jumping between
process tracks.  Parent links travel in ``args`` (``span``/``parent``),
which is what the span-tree assertions in the Figure-1 bench check
after a JSON round trip.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from .tracer import Tracer

#: virtual seconds -> trace_event microseconds
_US = 1e6


def _jsonable(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def chrome_trace_events(tracer: Tracer) -> List[Dict[str, Any]]:
    """Every span (and the events inside it) as a ``trace_event``
    record."""
    events: List[Dict[str, Any]] = []
    pids: Dict[str, int] = {}
    tids: Dict[str, int] = {}

    def pid_for(name: str) -> int:
        pid = pids.get(name)
        if pid is None:
            pid = pids[name] = len(pids) + 1
            events.append({"name": "process_name", "ph": "M", "pid": pid,
                           "tid": 0, "args": {"name": name}})
        return pid

    def tid_for(pid: int, name: str) -> int:
        key = f"{pid}/{name}"
        tid = tids.get(key)
        if tid is None:
            tid = tids[key] = len(tids) + 1
            events.append({"name": "thread_name", "ph": "M", "pid": pid,
                           "tid": tid, "args": {"name": name}})
        return tid

    for span in tracer.spans():
        node = span.attrs.get("node")
        if node is None:
            node = "queue" if span.kind == "queue-hop" else "platform"
        pid = pid_for(str(node))
        lane = span.attrs.get("fiber") or span.attrs.get("task") or span.kind
        tid = tid_for(pid, str(lane))
        end = span.end if span.end is not None else span.start
        args = {"span": span.id, "parent": span.parent_id}
        for key, value in span.attrs.items():
            args[key] = _jsonable(value)
        events.append({
            "name": span.name,
            "cat": span.kind,
            "ph": "X",
            "ts": span.start * _US,
            "dur": max(end - span.start, 0.0) * _US,
            "pid": pid,
            "tid": tid,
            "args": args,
        })
        for time, name, attrs in span.annotations:
            events.append({
                "name": name,
                "cat": "annotation",
                "ph": "i",
                "s": "t",
                "ts": time * _US,
                "pid": pid,
                "tid": tid,
                "args": {"span": span.id,
                         **{k: _jsonable(v) for k, v in attrs.items()}},
            })
    return events


def chrome_trace(tracer: Tracer) -> Dict[str, Any]:
    """The full Perfetto-loadable document."""
    return {"traceEvents": chrome_trace_events(tracer),
            "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer, path: str) -> str:
    """Serialize to ``path``; returns the path for convenience."""
    with open(path, "w") as fh:
        json.dump(chrome_trace(tracer), fh, indent=1)
    return path


def span_tree_from_events(events: List[Dict[str, Any]]) -> Dict[int, int]:
    """span id -> parent id, recovered from exported ``args`` — what a
    consumer (or a test) uses to rebuild the causal tree from the JSON
    alone, without the live tracer."""
    return {e["args"]["span"]: e["args"]["parent"]
            for e in events
            if e.get("ph") == "X" and "span" in e.get("args", {})}


def json_report(env) -> Dict[str, Any]:
    """The plain-JSON observability report for a VinzEnvironment:
    metrics snapshot (counters, percentiles), span summary, event count
    and cache hit rates — everything the harness needs to publish."""
    cluster = env.cluster
    return {
        "virtual_time": cluster.kernel.now,
        "metrics": cluster.metrics.snapshot(),
        "spans": cluster.tracer.summary(),
        "trace_log": {"events": len(cluster.tracer.events)},
        "cache_hit_rates": env.cache_hit_rates(),
        "store": env.store.stats_snapshot(),
        "snapshots": env.snapshot_stats(),
        "history": (env.history.summary()
                    if getattr(env, "history", None) is not None else None),
    }
