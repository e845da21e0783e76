"""Experiment D1 — durable store scaling (the durastore subsystem).

The paper's Vinz pays the shared filer's per-operation latency (~2 ms)
for *every* fiber-state write, thunk write and reclamation delete.  The
durable store's group commit batches each operation window's mutations
into one write-ahead-journal append, so a window that persisted a
continuation, wrote fork thunks and swept a finished fiber pays one
op latency instead of several.

This bench runs the same production-day workload on three store tiers —

* **flat**      — the seed :class:`~repro.bluebox.store.SharedStore`
* **sharded**   — :class:`~repro.durastore.ShardedStore` (4 shards)
* **durable**   — :class:`~repro.durastore.DurableStore` (4 shards +
  journal + group commit)

— and checks the headline claim: the durable tier performs **at least
2× fewer write-side store operations** (journal commits vs individual
writes+deletes) with write-side IO time reduced accordingly.

A second section runs a tiny crash-recovery campaign (torn journal
record + node crash) on the durable tier, replays the journal, and
writes the recovery report to ``benchmarks/out/
store_recovery_report.json`` — the artifact CI uploads.
"""

import json
import os

import pytest

from repro.bluebox.store import SharedStore
from repro.durastore import DurableStore, ShardedStore
from repro.faults import CRASH, FaultPlan, JournalFault, NodeFault
from repro.faults.campaign import run_campaign
from repro.harness.reporting import series, table
from repro.workloads.production import run_production_day

SCALE = 0.01
NODES = 8
SLOTS = 4
SEED = 2010

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


def _write_side(stats):
    """(ops, seconds) actually spent on the write path for one run."""
    if "journal" in stats:
        journal = stats["journal"]
        # one physical IO per journal *flush* (commits landing within
        # one op latency of an in-flight flush share it — group
        # commit); bytes are the whole framed batches
        ops = journal["flushes"] + journal["torn_appends"]
        op_latency = 0.002
        per_byte = 2.0e-6
        seconds = ops * op_latency + journal["bytes_appended"] * per_byte
        return ops, seconds
    ops = stats["writes"] + stats["deletes"]
    op_latency = 0.002
    per_byte = 2.0e-6
    seconds = ops * op_latency + stats["bytes_written"] * per_byte
    return ops, seconds


def test_store_scaling(benchmark, bench_report):
    def run_all():
        tiers = {}
        for name, store in (
                ("flat", SharedStore()),
                ("sharded", ShardedStore(shards=4)),
                ("durable", DurableStore(shards=4))):
            result = run_production_day(scale=SCALE, nodes=NODES,
                                        slots=SLOTS, seed=SEED,
                                        store=store)
            tiers[name] = (result, store)
        return tiers

    tiers = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    measured = {}
    for name, (result, store) in tiers.items():
        stats = result.store_stats
        ops, seconds = _write_side(stats)
        measured[name] = dict(ops=ops, seconds=seconds,
                              mutations=stats["writes"] + stats["deletes"],
                              completed=result.completed_tasks,
                              failed=result.failed_tasks)
        rows.append((name, stats["writes"] + stats["deletes"], ops,
                     round(seconds, 3), round(stats["io_seconds"], 3),
                     result.completed_tasks))

    # every tier completes the same workload correctly
    for name, m in measured.items():
        assert m["failed"] == 0, f"{name}: {m['failed']} failed tasks"
    assert len({m["completed"] for m in measured.values()}) == 1

    # the same logical mutations hit every tier (sharding and
    # journaling change *how* they are persisted, not how many)
    assert measured["flat"]["mutations"] == \
        measured["sharded"]["mutations"] == measured["durable"]["mutations"]

    # the headline: group commit performs >= 2x fewer write-side store
    # operations, and its write-side IO time drops accordingly
    op_reduction = measured["flat"]["ops"] / max(1, measured["durable"]["ops"])
    io_reduction = measured["flat"]["seconds"] / \
        max(1e-9, measured["durable"]["seconds"])
    assert op_reduction >= 2.0, \
        f"group commit only cut write ops {op_reduction:.2f}x"
    assert io_reduction > 1.0, \
        f"group commit did not reduce write-side IO time " \
        f"({io_reduction:.2f}x)"

    durable_store = tiers["durable"][1]
    dist = durable_store.key_distribution()
    snap = durable_store.stats_snapshot()

    text = series(
        "D1  store scaling: flat vs sharded vs group commit "
        f"(production day, scale={SCALE})",
        "tier",
        ["mutations", "write IOs", "write io_s", "total io_s", "tasks"],
        rows)
    text += "\n" + table(
        "D1  group-commit effect",
        ["metric", "value"],
        [("write-op reduction (flat/durable)", f"{op_reduction:.2f}x"),
         ("write-IO-time reduction", f"{io_reduction:.2f}x"),
         ("windows sealed", snap["group_commit"]["windows_sealed"]),
         ("ops deferred into batches", snap["group_commit"]["deferred_ops"]),
         ("commits sharing a flush", snap["group_commit"]["shared_flushes"]),
         ("physical journal flushes", snap["journal"]["flushes"]),
         ("journal checkpoints", snap["journal"]["checkpoints"]),
         ("live shard keys", sum(dist.values())),
         ("shard key spread", str(dist))])
    bench_report("bench_store_scaling", text)


def test_crash_recovery_campaign(benchmark, bench_report):
    """A small chaos campaign on the durable tier: torn journal commits
    plus a node crash, then journal replay.  Asserts the recovery
    contract — every committed key is reconstructed, no uncommitted
    tail survives — and publishes the recovery report JSON."""

    def run():
        store = DurableStore(shards=4)
        plan = FaultPlan([JournalFault(nth=3, count=2),
                          NodeFault(CRASH, at=0.4, restart_after=1.0)],
                         name="store-recovery-smoke")
        campaign = run_campaign(plan, seed=11, tasks=3, nodes=3,
                                store=store)
        return store, campaign

    store, campaign = benchmark.pedantic(run, rounds=1, iterations=1)

    assert campaign.all_completed, campaign.statuses
    assert campaign.wrong_results() == []
    assert campaign.injected.get("torn-commit", 0) >= 1
    assert store.journal.torn_appends >= 1

    # live state before simulated crash; then recover from the journal
    live = {key: store.read(key) for key in store.keys()}
    report = store.recover()

    # contract: replay reconstructs exactly the committed state
    assert report["recovered_keys"] == len(live)
    for key, value in live.items():
        assert store.read(key) == value
    # recovery is observable as spans
    recovery_spans = campaign.env.cluster.tracer.spans_of_kind("recovery")
    assert len(recovery_spans) == 1

    payload = {
        "campaign": campaign.name,
        "seed": campaign.seed,
        "plan": store.journal.stats_snapshot(),
        "faults_injected": dict(campaign.injector.injected),
        "recovery": {k: v for k, v in report.items()},
        "group_commit": store.stats_snapshot()["group_commit"],
        "recovery_spans": len(recovery_spans),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, "store_recovery_report.json")
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2, default=str)

    text = table(
        "D1b  crash-recovery campaign (durable store)",
        ["metric", "value"],
        [("faults injected", dict(campaign.injector.injected)),
         ("torn journal appends", store.journal.torn_appends),
         ("batches committed", store.batches_committed),
         ("recovered keys", report["recovered_keys"]),
         ("committed deletes replayed", report["deleted_keys"]),
         ("tail error", report["tail_error"]),
         ("tail bytes dropped", report["tail_bytes_dropped"]),
         ("report artifact", out_path)])
    bench_report("bench_store_recovery", text)
