"""The four benchmark workloads: inputs, drivers and correctness oracles.

An *operation* is one top-level task.  Every workload makes its
operations from ``--seed`` alone; the program under test receives only
the generated parameters.  The expected result of every operation is
computed here in plain Python, independently of the engine.

What the seed varies is the *content* of the inputs (which numbers are
squared, which rows are touched, when each task of the day arrives);
the *amount* of work per run is fixed, so that runs on different seeds
are comparable within the regression bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bluebox.messagequeue import ReplyTo
from repro.lang.symbols import Keyword
from repro.vinz.task import COMPLETED
from repro.workloads.generators import WorkloadProfile, generate_tasks
from repro.workloads.production import (
    BATCH_WORKFLOW_SOURCE,
    DAY_SECONDS,
    PAPER_SERIAL_HOURS,
    PAPER_TASKS_PER_DAY,
    datastore_service,
)

from . import configs


@dataclass(frozen=True)
class Op:
    """One top-level task to run."""

    params: Any
    expected: Any
    #: virtual second the Start message is due (open loop); ``None``
    #: means the single closed-loop client issues it when the previous
    #: task has completed
    arrival: Optional[float] = None


@dataclass(frozen=True)
class Workload:
    name: str
    #: a key of ``configs.CONFIGS``
    config: str
    nodes: int
    slots: int
    workflow: str
    source: str
    #: full-size operation count; warm-up and ``--smoke`` run a tenth
    size: int
    make_ops: Callable[[int, int], List[Op]]
    deploy_options: Dict[str, Any] = field(default_factory=dict)
    uses_datastore: bool = False
    #: one client that issues the next task when the last has finished;
    #: otherwise tasks arrive on their schedule whatever the backlog
    closed_loop: bool = False

    def small(self) -> int:
        return max(1, math.ceil(self.size / 10))


# ---------------------------------------------------------------------------
# production_day: the paper's Section 5 day (orchestration-bound)
# ---------------------------------------------------------------------------

#: ``run_production_day``'s own default seed.  The day's task
#: *population* (durations, fan-outs, service calls) is this one
#: calibrated draw: a heavy-tailed population re-drawn per seed moves
#: p50 latency by ~10% and fibers/task by ~3% between seeds, which
#: would drown the 2-5% bounds.  ``--seed`` re-draws the Poisson
#: arrival times and which task arrives when.
CALIBRATION_SEED = 2010


def production_day_ops(seed: int, count: int) -> List[Op]:
    period = DAY_SECONDS * count / PAPER_TASKS_PER_DAY
    profile = WorkloadProfile(
        mean_task_seconds=PAPER_SERIAL_HOURS * 3600 / PAPER_TASKS_PER_DAY)
    specs = generate_tasks(count, period, seed=CALIBRATION_SEED,
                           profile=profile)
    rng = random.Random(seed)
    arrivals = sorted(rng.uniform(0.0, period) for _ in specs)
    rng.shuffle(specs)
    # the batch workflow answers with one 1 per for-each chunk
    return [Op(params=spec.to_params(), expected=len(spec.child_seconds),
               arrival=arrival)
            for spec, arrival in zip(specs, arrivals)]


# ---------------------------------------------------------------------------
# dist_fanout: Listing 1's distributed sum of squares (GVM-bound)
# ---------------------------------------------------------------------------

FANOUT_WIDTH = 24
FANOUT_ITERATIONS = 2000

DIST_FANOUT_SOURCE = f"""
(defun main (numbers)
  (apply #'+
    (for-each (n in numbers)
      (let ((acc 0))
        (dotimes (i {FANOUT_ITERATIONS}) (setq acc (+ acc (* n n))))
        acc))))
"""


def dist_fanout_ops(seed: int, count: int) -> List[Op]:
    rng = random.Random(seed)
    ops = []
    for _ in range(count):
        numbers = [rng.randrange(1, 1000) for _ in range(FANOUT_WIDTH)]
        ops.append(Op(params=numbers,
                      expected=sum(FANOUT_ITERATIONS * n * n
                                   for n in numbers)))
    return ops


# ---------------------------------------------------------------------------
# suspend_churn_*: many suspensions on a large live state (persistence-bound)
# ---------------------------------------------------------------------------

CHURN_WIDTH = 400
CHURN_CALLS = 24
CHURN_ARRIVAL_GAP = 0.010

#: every DS-Fetch-Method call suspends the fiber (capture, encode,
#: store write, queue hop, lock, restore); one row changes in between,
#: so successive snapshots differ in one place
SUSPEND_CHURN_SOURCE = """
(deflink DS :wsdl "urn:datastore-service")

(defun main (params)
  (let ((rows (loop for i from 0 below (getf params :width) collect
                    (list i (* i i) "row-payload")))
        (acc 0))
    (dolist (k (getf params :touch))
      (DS-Fetch-Method :Key k)
      (setq acc (+ acc (second (nth k rows))))
      (setf (nth k rows) (list k acc "row-payload")))
    (list acc (length rows) (apply #'+ (mapcar #'second rows)))))
"""


def churn_expected(width: int, touch: List[int]) -> List[int]:
    values = [i * i for i in range(width)]
    acc = 0
    for k in touch:
        acc += values[k]
        values[k] = acc
    return [acc, width, sum(values)]


def suspend_churn_ops(seed: int, count: int) -> List[Op]:
    rng = random.Random(seed)
    ops = []
    for index in range(count):
        touch = [rng.randrange(CHURN_WIDTH) for _ in range(CHURN_CALLS)]
        ops.append(Op(params=[Keyword("width"), CHURN_WIDTH,
                              Keyword("touch"), touch],
                      expected=churn_expected(CHURN_WIDTH, touch),
                      arrival=index * CHURN_ARRIVAL_GAP))
    return ops


# ---------------------------------------------------------------------------

def _churn(name: str, config: str) -> Workload:
    return Workload(name=name, config=config, nodes=4, slots=2,
                    workflow="Churn", source=SUSPEND_CHURN_SOURCE, size=12,
                    make_ops=suspend_churn_ops, uses_datastore=True)


#: why each was chosen is in BENCHMARK.json and perf/README.md
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="production_day", config="paper", nodes=12, slots=4,
        workflow="Batch", source=BATCH_WORKFLOW_SOURCE, size=500,
        make_ops=production_day_ops,
        deploy_options={"spawn_limit": 8, "instruction_cost": 1e-6},
        uses_datastore=True),
    Workload(
        name="dist_fanout", config="paper", nodes=4, slots=2,
        workflow="SumSquares", source=DIST_FANOUT_SOURCE, size=3,
        make_ops=dist_fanout_ops, closed_loop=True),
    _churn("suspend_churn_paper", "paper"),
    _churn("suspend_churn_durable", "durable"),
)}

#: the platform's own seed (placement tie-breaks).  The platform gets
#: the generated inputs, never ``--seed``.
PLATFORM_SEED = 0


def deploy(workload: Workload, spans: bool = False):
    """A fresh environment with the workload's services deployed."""
    env = configs.build_env(workload.config, nodes=workload.nodes,
                            slots=workload.slots, seed=PLATFORM_SEED,
                            spans=spans)
    if workload.uses_datastore:
        env.deploy_service(datastore_service())
    env.deploy_workflow(workload.workflow, workload.source,
                        **workload.deploy_options,
                        **configs.workflow_options(workload.config))
    return env


def drive(env, workload: Workload,
          ops: List[Op]) -> List[Tuple[Optional[str], float]]:
    """Run every operation to quiescence.  Returns, per operation, the
    task id (``None`` if the platform refused it) and the virtual time
    it was issued at."""
    kernel = env.cluster.kernel
    if workload.closed_loop:
        issued = []
        for op in ops:
            now = kernel.now
            issued.append((env.run(workload.workflow, op.params), now))
        return issued
    task_ids: List[Optional[str]] = [None] * len(ops)

    def start(index: int, op: Op) -> None:
        def replied(body: Dict[str, Any]) -> None:
            task_ids[index] = (body.get("result") or {}).get("task")
        env.cluster.send(workload.workflow, "Start", {"params": op.params},
                         reply_to=ReplyTo(callback=replied))

    for index, op in enumerate(ops):
        kernel.schedule(op.arrival, lambda i=index, o=op: start(i, o))
    env.cluster.run_until_idle()
    return [(task_id, op.arrival) for task_id, op in zip(task_ids, ops)]


def check(env, ops: List[Op], issued) -> Tuple[List[float], List[Any], int]:
    """Compare every task with its reference result.  Returns the
    virtual latencies (from issue to finish) of the correct tasks,
    every task's result, and the number of failed operations: errors,
    terminations, refusals and wrong values all count."""
    latencies: List[float] = []
    results: List[Any] = []
    failed = 0
    for op, (task_id, issued_at) in zip(ops, issued):
        task = env.registry.tasks.get(task_id) if task_id else None
        results.append(task.result if task is not None else None)
        if task is None or task.status != COMPLETED \
                or task.result != op.expected:
            failed += 1
            continue
        latencies.append(task.finished_at - issued_at)
    return latencies, results, failed
