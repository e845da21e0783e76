"""The two platform configurations the benchmark measures.

This is the only file in ``perf/`` that spells the option names
(``store``, ``history``, ``snapshot_interval``, ``snapshots``): a PR
that renames or folds those options edits this file and nothing else
in the benchmark.

* ``paper``   -- ``VinzEnvironment`` defaults: flat ``SharedStore``,
  whole-blob v1 snapshots at every suspension, history off.
* ``durable`` -- sharded write-ahead store with group commit,
  event-sourced history, a continuation snapshot every 8th suspension
  in the chunk-deduplicated v2 format.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.durastore import DurableStore
from repro.vinz.api import VinzEnvironment

CONFIGS = ("paper", "durable")


def build_env(config: str, *, nodes: int, slots: int, seed: int,
              spans: bool = False) -> VinzEnvironment:
    """A fresh environment.  Program tracing is off; ``spans=True``
    turns the ``observe`` span tracer on (used only to measure its
    overhead)."""
    if config == "paper":
        options: Dict[str, Any] = {}
    elif config == "durable":
        options = {"store": DurableStore(shards=4), "history": "on",
                   "snapshot_interval": 8}
    else:
        raise ValueError(f"unknown configuration {config!r}")
    return VinzEnvironment(nodes=nodes, slots=slots, seed=seed, trace=False,
                           spans=True if spans else None, **options)


def workflow_options(config: str) -> Dict[str, Any]:
    """Per-deployment options the configuration adds."""
    if config == "durable":
        return {"snapshots": "v2"}
    return {}
