"""The paper-calibrated production day (Section 5).

"A typical 24-hour period will see around 10,000 new top-level tasks
comprising about 45,000 individual fibers.  Tasks during this period
may run for as long as 12 hours or as little as 20 milliseconds, with
the average being about a minute.  If these 10,000 tasks were run
back-to-back, they would require about 190 hours to complete."

:func:`run_production_day` drives a scaled version of that day through
a Vinz cluster and reports both the generated-workload statistics
(which should match the quoted numbers) and the execution outcome
(throughput, concurrency, utilization).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from ..bluebox.messagequeue import ReplyTo
from ..vinz.api import VinzEnvironment
from .generators import TaskSpec, WorkloadProfile, generate_tasks, \
    workload_statistics

#: Paper constants (Section 5)
PAPER_TASKS_PER_DAY = 10_000
PAPER_FIBERS_PER_DAY = 45_000
PAPER_MIN_SECONDS = 0.020
PAPER_MAX_SECONDS = 12 * 3600.0
PAPER_MEAN_SECONDS = 60.0
PAPER_SERIAL_HOURS = 190.0
DAY_SECONDS = 24 * 3600.0

#: The generic batch workflow every synthetic task runs.  ``compute``
#: charges simulated seconds; optional non-blocking service calls hit
#: the synthetic DataStore service; the optional fanout is a for-each.
BATCH_WORKFLOW_SOURCE = """
(deflink DS :wsdl "urn:datastore-service")

(defun main (params)
  (let ((head   (getf params :head-seconds))
        (chunks (getf params :chunks))
        (calls  (getf params :service-calls)))
    (dotimes (i (or calls 0))
      (DS-Fetch-Method :Key i))
    (compute head)
    (if (consp chunks)
        (apply #'+ (for-each (c in chunks) (compute c) 1))
        0)))
"""


def datastore_service(latency: float = 0.05):
    """A synthetic backing service workflows call non-blockingly."""
    from ..bluebox.services import simple_service

    def fetch(ctx, body):
        ctx.charge(latency)
        return {"key": body.get("Key"), "value": "payload"}

    return simple_service("DataStore", {"Fetch": fetch},
                          namespace="urn:datastore-service",
                          parameters={"Fetch": ["Key"]})


@dataclass
class ProductionDayResult:
    """Everything the production-day bench reports."""

    generated: Dict[str, float]
    completed_tasks: int
    failed_tasks: int
    total_fibers: int
    makespan_hours: float
    peak_task_concurrency: int
    mean_task_concurrency: float
    peak_fiber_concurrency: int
    utilization: float
    queue_mean_wait: float
    cache_hit_rates: Dict[str, float]
    persist_writes: int
    #: the shared store's full stats snapshot (io_ops/io_seconds, and —
    #: for sharded/durable stores — per-shard and journal sections),
    #: the raw material of the store-scaling benchmark
    store_stats: Dict[str, Any] = field(default_factory=dict)
    #: tail of the queue-wait distribution (reservoir-sampled), the
    #: latency figure the scheduler benchmark compares
    queue_p99_wait: float = 0.0
    #: scheduling-subsystem summary (policy, governor) when
    #: the run used one — see VinzEnvironment.summary()["sched"]
    sched: Dict[str, Any] = field(default_factory=dict)

    def rows(self) -> List[tuple]:
        """(metric, paper value, measured value) rows for reporting."""
        g = self.generated
        scale = g["tasks"] / PAPER_TASKS_PER_DAY
        return [
            ("tasks/day", PAPER_TASKS_PER_DAY, g["tasks"] / scale),
            ("fibers/day", PAPER_FIBERS_PER_DAY, self.total_fibers / scale),
            ("min task seconds", PAPER_MIN_SECONDS, g["min_seconds"]),
            ("max task seconds", PAPER_MAX_SECONDS, g["max_seconds"]),
            ("mean task seconds", PAPER_MEAN_SECONDS, g["mean_seconds"]),
            ("serial hours", PAPER_SERIAL_HOURS, g["serial_hours"] / scale),
            ("makespan hours (<24 required)", 24.0, self.makespan_hours),
            ("peak task concurrency", None, self.peak_task_concurrency),
            ("utilization", None, self.utilization),
        ]


def run_production_day(scale: float = 0.01, nodes: int = 12,
                       slots: int = 4, seed: int = 2010,
                       store=None,
                       spawn_limit: Any = 8,
                       scheduler: Any = None) -> ProductionDayResult:
    """Run a ``scale``-sized production day and collect statistics.

    ``scale=0.01`` runs 100 tasks over a 0.24-hour virtual window with
    a proportionally smaller cluster — the shape (not the absolute
    numbers) is what reproduces.  ``store`` swaps the shared-store
    implementation (flat / sharded / durable) for the store-scaling
    benchmark.  ``spawn_limit`` (an int or ``"auto"`` for the adaptive
    governor) plus ``scheduler`` drive the scheduler benchmark's
    static-vs-adaptive comparison.
    """
    count = max(1, int(PAPER_TASKS_PER_DAY * scale))
    period = DAY_SECONDS * scale
    profile = WorkloadProfile(
        mean_task_seconds=PAPER_SERIAL_HOURS * 3600 / PAPER_TASKS_PER_DAY)
    specs = generate_tasks(count, period, seed=seed, profile=profile)
    generated = workload_statistics(specs)

    env = VinzEnvironment(nodes=nodes, slots=slots, seed=seed, trace=False,
                          store=store, scheduler=scheduler)
    env.deploy_service(datastore_service())
    env.deploy_workflow("Batch", BATCH_WORKFLOW_SOURCE,
                        spawn_limit=spawn_limit, instruction_cost=1e-6)

    for spec in specs:
        env.cluster.kernel.schedule(
            spec.arrival,
            lambda s=spec: env.cluster.send(
                "Batch", "Start", {"params": s.to_params()},
                reply_to=ReplyTo(callback=lambda body: None)))
    env.cluster.run_until_idle()

    counts = env.registry.counts()
    makespan = env.cluster.kernel.now
    return ProductionDayResult(
        generated=generated,
        completed_tasks=counts.get("completed", 0),
        failed_tasks=counts.get("error", 0) + counts.get("terminated", 0),
        total_fibers=len(env.registry.fibers),
        makespan_hours=makespan / 3600.0,
        peak_task_concurrency=env.task_concurrency.peak,
        mean_task_concurrency=env.task_concurrency.mean_until(makespan),
        peak_fiber_concurrency=env.fiber_concurrency.peak,
        utilization=env.cluster.utilization(),
        queue_mean_wait=env.cluster.queue.mean_wait(),
        cache_hit_rates=env.cache_hit_rates(),
        persist_writes=env.counters.get("persist.writes"),
        store_stats=env.store.stats_snapshot(),
        queue_p99_wait=env.cluster.queue.wait_percentile(0.99),
        sched=env.summary()["sched"],
    )
