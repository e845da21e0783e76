"""The benchmark command.  Three ways to call it:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One workload, in this process.  Prints progress on stderr and, as
    the last line of stdout, one JSON object with ``correct``,
    ``attempted``, ``failed`` and ``metrics``: every end-to-end metric
    of BENCHMARK.json with ``--trace 0``, every per-layer metric with
    ``--trace 1``.  ``--out FILE`` also writes the detailed document
    (repeats, spreads, which tail percentile was used).

``run.py --seed N --out FILE [--smoke]``
    The ledger: every workload, each in a fresh child process, one at a
    time, first untraced and then traced; prints every metric by name
    with its unit and writes one document.

``run.py --compare A.json B.json``
    One row per workload and end-to-end metric of two ledger documents.

See perf/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

if __package__ in (None, ""):
    # run as a script: import ourselves as the ``perf`` package instead
    # of putting this directory (whose trace.py would shadow the
    # standard library's) at the front of the path
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perf import manifest, out_path  # noqa: E402

#: child set-ups timed for ``setup_s``
SETUP_RUNS = 7
#: fewest timed repeats of a run
MIN_REPEATS = 3
#: the counts that are end-to-end metrics: equal on every repeat of a
#: run, or the run is not correct
END_TO_END_COUNTS = ("store_write_ios_per_task", "store_bytes_per_task")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# one repeat: fresh environment, timed drive, oracle, counts
# ---------------------------------------------------------------------------

@dataclass
class Repeat:
    """What one run of a workload's operations produced."""

    wall_s: float
    tasks: int
    #: virtual seconds from issue to finish, correct tasks only
    latencies: List[float]
    results: List[Any]
    failed: int
    counts: Dict[str, float]


def run_repeat(workload, ops, *, spans: bool = False,
               tracer=None, replay: bool = False) -> Repeat:
    """Deploy into a fresh environment (untimed), drive the operations
    (timed), check every result.  With ``tracer`` the two phases run
    under its root spans; with ``replay`` every task is afterwards
    re-executed from its history log."""
    from perf import trace, workloads

    def under(name, fn):
        return tracer.root(name, fn) if tracer is not None else fn()

    env = under(trace.SETUP, lambda: workloads.deploy(workload, spans))
    # as timeit does: collect now, and keep the cyclic collector out of
    # the timed region, where its pauses moved wall_s by 6-9% between
    # repeats (0.6-2% without); peak_rss_mb still sees the garbage
    gc.collect()
    gc.disable()
    try:
        t0 = perf_counter()
        issued = under(trace.DRIVE,
                       lambda: workloads.drive(env, workload, ops))
        wall_s = perf_counter() - t0
    finally:
        gc.enable()
    latencies, results, failed = workloads.check(env, ops, issued)
    counts = collect_counts(env, len(ops))
    counts["history.divergences"] = \
        replay_divergences(env, issued) if replay else 0
    return Repeat(wall_s, len(ops), latencies, results, failed, counts)


def replay_divergences(env, issued) -> int:
    """Re-execute every finished task from its durable history log; a
    task whose replay disagrees with the record is a divergence."""
    from repro.history import ReplayDivergenceError
    if env.replayer is None:
        return 0
    divergences = 0
    for task_id, _ in issued:
        try:
            env.replay_task(task_id)
        except ReplayDivergenceError as err:
            log(f"replay divergence: {err}")
            divergences += 1
    return divergences


def collect_counts(env, tasks: int) -> Dict[str, float]:
    """Counts read from the platform's public accessors after a run."""
    summary = env.summary()
    store = summary["store"]
    counters = env.counters
    journal = store.get("journal")
    if journal is not None:
        # bench_store_scaling's write-side rule: one physical IO per
        # journal flush; bytes are the whole framed batches
        write_ios = journal["flushes"] + journal["torn_appends"]
        write_bytes = journal["bytes_appended"]
    else:
        write_ios = store["writes"] + store["deletes"]
        write_bytes = store["bytes_written"]
    snapshots = summary["snapshots"] or {}
    history = summary["history"] or {}
    queue = env.cluster.queue
    flushes = journal["flushes"] if journal else 0
    return {
        "store_write_ios_per_task": write_ios / tasks,
        "store_bytes_per_task": write_bytes / tasks,
        "vinz.persist_writes_per_task": counters.get("persist.writes") / tasks,
        "vinz.persist_skipped_per_task":
            counters.get("persist.skipped") / tasks,
        "vinz.persist_bytes_per_task":
            counters.get_sum("persist.bytes") / tasks,
        "vinz.cache_hit_rate.mutable": summary["cache"]["mutable"],
        "vinz.cache_hit_rate.immutable": summary["cache"]["immutable"],
        "vinz.fibers_per_task": summary["fibers_total"] / tasks,
        "persistsnap.dedup_ratio": snapshots.get("dedup_ratio", 1.0),
        "persistsnap.chunks_new_per_task":
            snapshots.get("chunks_new", 0) / tasks,
        "persistsnap.chunks_reused_per_task":
            snapshots.get("chunks_reused", 0) / tasks,
        "history.events_per_task": history.get("events", 0) / tasks,
        "history.bytes_per_task": history.get("log_bytes", 0) / tasks,
        "history.rebuilds_per_task": counters.get("history.rebuilds") / tasks,
        "durastore.flushes_per_task": flushes / tasks,
        "durastore.writes_per_flush":
            journal["records_committed"] / flushes if flushes else 0.0,
        "durastore.bytes_appended_per_task":
            (journal["bytes_appended"] if journal else 0) / tasks,
        "bluebox.messages_per_task": summary["queue"]["enqueued"] / tasks,
        "bluebox.redelivered": summary["queue"]["redelivered"],
        "bluebox.queue_wait_virt_mean_s": queue.mean_wait(),
        "bluebox.queue_wait_virt_p99_s": queue.wait_percentile(0.99),
        "bluebox.lease_renewals_per_task":
            summary["recovery"]["leases"]["renewed"] / tasks,
        "bluebox.store_reads_per_task": store["reads"] / tasks,
        "bluebox.store_io_virt_s": store["io_seconds"],
        "bluebox.utilization": summary["utilization"],
        "bluebox.virt_makespan_s": summary["virtual_time"],
        "sched.governor_decisions": summary["sched"]["governor"]["decisions"],
    }


# ---------------------------------------------------------------------------
# host speed: this sandbox runs the same code 10-15% slower for tens of
# seconds at a time, and up to 2x slower for a few hundred milliseconds
# ---------------------------------------------------------------------------

#: a fixed pure-Python loop, and what one pass takes here when nothing
#: interferes (the reference speed the wall metrics are scaled to)
CALIBRATION_ITERATIONS = 400_000
CALIBRATION_QUIET_S = 0.0210
CALIBRATION_PASSES = 6


def sample_host(passes: List[float]) -> None:
    """Time a few passes of the calibration loop."""
    for _ in range(CALIBRATION_PASSES):
        t0 = perf_counter()
        total = 0
        for i in range(CALIBRATION_ITERATIONS):
            total += i * i
        passes.append(perf_counter() - t0)


def host_slowdown(passes: List[float]) -> float:
    """How much slower than its quiet speed the host ran during this
    run: the lower quartile of the calibration passes taken between the
    repeats (short bursts hit under a quarter of them) over the quiet
    time.  Dividing the fastest repeat by this took the run-to-run
    spread of ``wall_s`` from 7% to 2.3% in a noisy half hour and left
    it at 3% in a calm one (perf/README.md, Steadiness)."""
    return statistics.quantiles(passes, n=4)[0] / CALIBRATION_QUIET_S


def warm_up(workload, seed: int, smoke: bool) -> None:
    """One untimed repeat at a tenth of the size, so that lazy imports
    and caches are paid before the timing starts.  ``--smoke`` skips it:
    its only repeat is that size already."""
    if not smoke:
        run_repeat(workload, workload.make_ops(seed, workload.small()))


def tail(latencies: List[float]) -> Dict[str, Any]:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond
    it (nearest rank), else the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    for percentile in (99, 95, 90, 75):
        if n * (100 - percentile) >= 1000:
            rank = math.ceil(n * percentile / 100)
            return {"value": ordered[rank - 1], "percentile": f"p{percentile}",
                    "n": n}
    return {"value": ordered[-1], "percentile": "max", "n": n}


# ---------------------------------------------------------------------------
# --trace 0: the end-to-end metrics
# ---------------------------------------------------------------------------

def measure_setup(workload_name: str, passes: List[float],
                  runs: int) -> List[float]:
    """Wall seconds of fresh child processes that import the platform,
    build the workload's environment and deploy its workflow."""
    samples = []
    for _ in range(runs):
        sample_host(passes)
        t0 = perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--setup-probe", workload_name], check=True)
        samples.append(perf_counter() - t0)
    return samples


def end_to_end(workload, seed: int, seconds: float,
               smoke: bool) -> Dict[str, Any]:
    setup_passes: List[float] = []
    setup = measure_setup(workload.name, setup_passes,
                          1 if smoke else SETUP_RUNS)
    setup_s = statistics.median(setup) / host_slowdown(setup_passes)
    log(f"setup_s {setup_s:.3f} (n={len(setup)})")
    size = workload.small() if smoke else workload.size
    warm_up(workload, seed, smoke)
    ops = workload.make_ops(seed, size)
    repeats: List[Repeat] = []
    passes: List[float] = []
    began = perf_counter()
    while True:
        sample_host(passes)
        repeats.append(run_repeat(workload, ops, replay=not repeats))
        log(f"repeat {len(repeats)}: {repeats[-1].wall_s:.3f} s, "
            f"{repeats[-1].failed} failed")
        if smoke or (len(repeats) >= MIN_REPEATS
                     and perf_counter() - began >= seconds):
            break
    sample_host(passes)
    slowdown = host_slowdown(passes)
    log(f"host slowdown {slowdown:.3f}")
    first = repeats[0]
    walls = [r.wall_s for r in repeats]
    # repeats of one input differ only by interference from the host,
    # which only ever adds time: the fastest is the steadiest estimate
    wall_s = min(walls) / slowdown
    attempted = sum(r.tasks for r in repeats)
    failed = sum(r.failed for r in repeats)
    problems = [f"{name} differs between repeats" for name in END_TO_END_COUNTS
                if any(r.counts[name] != first.counts[name] for r in repeats)]
    if any(r.latencies != first.latencies for r in repeats):
        problems.append("virtual latencies differ between repeats")
    if first.counts["history.divergences"]:
        problems.append("history replay diverged")
    if not first.latencies:
        raise SystemExit("no task completed correctly: nothing to report")
    tail_latency = tail(first.latencies)
    completed = first.tasks - first.failed
    return {
        "attempted": attempted, "failed": failed, "problems": problems,
        "results": first.results,
        "tail": {k: tail_latency[k] for k in ("percentile", "n")},
        "host_slowdown": slowdown,
        # samples are as measured; wall values are scaled to quiet speed
        "metrics": {
            "setup_s": {"value": setup_s, "samples": setup},
            "wall_s": {"value": wall_s, "samples": walls},
            "tasks_per_s": {"value": completed / wall_s,
                            "samples": [completed / w for w in walls]},
            "virt_task_latency_p50_s":
                {"value": statistics.median(first.latencies)},
            "virt_task_latency_tail_s": {"value": tail_latency["value"]},
            "store_write_ios_per_task":
                {"value": first.counts["store_write_ios_per_task"]},
            "store_bytes_per_task":
                {"value": first.counts["store_bytes_per_task"]},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024},
        },
    }


# ---------------------------------------------------------------------------
# --trace 1: counts, probes and the traced repeats
# ---------------------------------------------------------------------------

def per_layer(workload, seed: int, seconds: float,
              smoke: bool) -> Dict[str, Any]:
    from perf import probes, trace
    size = workload.small() if smoke else workload.size
    warm_up(workload, seed, smoke)
    ops = workload.make_ops(seed, size)
    plain: List[Repeat] = []
    traced: List[Repeat] = []
    spanned: List[Repeat] = []
    tracers: List[trace.WallTracer] = []
    began = perf_counter()
    while True:
        plain.append(run_repeat(workload, ops, replay=not plain))
        tracer = trace.WallTracer()
        tracer.install()
        try:
            traced.append(run_repeat(workload, ops, tracer=tracer))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        spanned.append(run_repeat(workload, ops, spans=True))
        log(f"round {len(plain)}: plain {plain[-1].wall_s:.3f} s, traced "
            f"{traced[-1].wall_s:.3f} s, spans on {spanned[-1].wall_s:.3f} s")
        # a round is three repeats: start another only if it fits
        elapsed = perf_counter() - began
        if smoke or elapsed + elapsed / len(plain) > seconds:
            break

    first = plain[0]
    tasks = first.tasks
    wall_s = min(r.wall_s for r in plain)
    metrics: Dict[str, Dict[str, Any]] = {
        name: {"value": value} for name, value in first.counts.items()
        if name not in END_TO_END_COUNTS}
    metrics["gvm.instructions_per_task"] = {
        "value": tracers[0].instructions / tasks}
    metrics["history.rebuild_instructions_per_task"] = {
        "value": tracers[0].rebuild_instructions / tasks}
    metrics["observe.trace_overhead_share"] = {
        "value": min(r.wall_s for r in traced) / wall_s - 1}
    metrics["observe.spans_on_overhead_share"] = {
        "value": min(r.wall_s for r in spanned) / wall_s - 1}
    shares: Dict[str, List[float]] = {layer: [] for layer in trace.LAYERS}
    for tracer in tracers:
        self_ns, drive_ns = tracer.self_ns_by_layer()
        for layer, ns in self_ns.items():
            shares[layer].append(ns / drive_ns)
    for layer, values in shares.items():
        metrics[f"{layer}.self_share"] = {
            "value": statistics.median(values), "n": len(values)}
    log("probes ...")
    for name, (value, n) in probes.run_all(20 if smoke else 200).items():
        metrics[name] = {"value": value, "n": n}

    tracers[0].dump(str(out_path(f"trace_{workload.name}.json")),
                    workload=workload.name, seed=seed)

    problems = []
    for group in (plain, traced, spanned):
        if any(r.failed for r in group):
            problems.append("a task failed or returned a wrong value")
        if any(r.latencies != first.latencies for r in group):
            problems.append("tracing changed the virtual-time outcome")
    if first.counts["history.divergences"]:
        problems.append("history replay diverged")
    repeats = plain + traced + spanned
    return {"attempted": sum(r.tasks for r in repeats),
            "failed": sum(r.failed for r in repeats),
            "problems": problems, "results": first.results,
            "metrics": metrics}


# ---------------------------------------------------------------------------
# the command line
# ---------------------------------------------------------------------------

def run_workload(args) -> int:
    from perf import workloads
    spec = manifest()
    workload = workloads.WORKLOADS[args.workload]
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    measure = per_layer if args.trace else end_to_end
    outcome = measure(workload, args.seed, seconds, args.smoke)
    units = {m["name"]: m["unit"] for m in declared}
    measured = outcome["metrics"]
    if set(measured) != set(units):
        raise SystemExit(
            "metrics measured and metrics declared in BENCHMARK.json differ: "
            f"{sorted(set(measured) ^ set(units))}")
    for name, entry in measured.items():
        entry["unit"] = units[name]
    for problem in outcome["problems"]:
        log(f"NOT CORRECT: {problem}")
    correct = not outcome["problems"] and outcome["failed"] == 0
    if args.out:
        document = {"workload": workload.name, "seed": args.seed,
                    "trace": args.trace, "smoke": args.smoke,
                    "correct": correct, **outcome}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=1, default=repr)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in measured.items()},
    }))
    return 0


def setup_probe(workload_name: str) -> int:
    from perf import workloads
    workloads.deploy(workloads.WORKLOADS[workload_name])
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=2010)
    parser.add_argument("--seconds", type=float,
                        help="how long to measure (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the detailed JSON document")
    parser.add_argument("--smoke", action="store_true",
                        help="a tenth of the size, one repeat")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.setup_probe)
    if args.compare:
        from perf import ledger
        return ledger.compare(*args.compare, spec=manifest())
    if args.workload:
        return run_workload(args)
    from perf import ledger
    return ledger.run_all(args.seed, args.seconds, args.out, args.smoke,
                          spec=manifest())


if __name__ == "__main__":
    sys.exit(main())
