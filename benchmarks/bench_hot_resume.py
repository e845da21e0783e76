"""Experiment C3 — hot resume: a resume on the node that suspended the
fiber runs on its live state instead of decoding its bytes.

Paper Section 4.2 keeps "a cache of recently seen fibers ... in memory
on each instance" because "reconstituting a fiber from its persisted
state is still relatively slow".  This bench drives the durable churn
workload at full size (12 tasks, 24 suspensions each on a 400-row live
state; sharded write-ahead store, history on, a v2 snapshot every 8th
suspension) through the public API and reports how the mutable hits
resumed:

* ``live`` — hits that took the state their suspension left on the
  node and skipped the decode; at least 80% of mutable hits must;
* ``live_held`` — live states the node caches still hold once the run
  is idle: 0, since a finished fiber keeps none;
* ``live_refused`` — suspensions that kept no live state, by reason
  (a program global that held a mutable value).

The report JSON (``benchmarks/out/hot_resume_report.json``) is what
CI's hot-resume smoke asserts on.
"""

import json
import os
import random

from repro.bluebox.messagequeue import ReplyTo
from repro.durastore import DurableStore
from repro.harness.reporting import table
from repro.lang.symbols import Keyword
from repro.vinz.api import VinzEnvironment
from repro.workloads.production import datastore_service

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")

SEED = 2010
TASKS = 12
WIDTH = 400
CALLS = 24
ARRIVAL_GAP = 0.010

SOURCE = """
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


def expected(touch):
    values = [i * i for i in range(WIDTH)]
    acc = 0
    for k in touch:
        acc += values[k]
        values[k] = acc
    return [acc, WIDTH, sum(values)]


def test_hot_resume_durable_churn(bench_report):
    rng = random.Random(SEED)
    touches = [[rng.randrange(WIDTH) for _ in range(CALLS)]
               for _ in range(TASKS)]
    env = VinzEnvironment(nodes=4, slots=2, seed=0, trace=False,
                          store=DurableStore(shards=4), history="on",
                          snapshot_interval=8)
    env.deploy_service(datastore_service())
    env.deploy_workflow("Churn", SOURCE, snapshots="v2")
    task_ids = [None] * TASKS

    def start(index, touch):
        def replied(body):
            task_ids[index] = (body.get("result") or {}).get("task")
        env.cluster.send("Churn", "Start", {"params": [
            Keyword("width"), WIDTH, Keyword("touch"), touch]},
            reply_to=ReplyTo(callback=replied))

    kernel = env.cluster.kernel
    for index, touch in enumerate(touches):
        kernel.schedule(index * ARRIVAL_GAP,
                        lambda i=index, t=touch: start(i, t))
    env.cluster.run_until_idle()

    results = [env.registry.tasks[task_id].result for task_id in task_ids]
    assert results == [expected(touch) for touch in touches]
    cache = env.cache_stats()
    hits = env.metrics.get("cache.mutable.hit")
    live_share = cache["live"] / hits if hits else 0.0
    assert live_share >= 0.8, cache
    assert cache["live_held"] == 0, cache

    payload = {
        "tasks": TASKS,
        "suspensions_per_task": CALLS,
        "mutable_hits": hits,
        "mutable_misses": env.metrics.get("cache.mutable.miss"),
        "live": cache["live"],
        "live_share_of_hits": round(live_share, 3),
        "live_held": cache["live_held"],
        "live_refused": cache["live_refused"],
        "hit_rates": {kind: round(cache[kind], 3)
                      for kind in ("mutable", "immutable")},
        "rebuilds": env.metrics.get("history.rebuilds"),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "hot_resume_report.json"), "w") as fh:
        json.dump(payload, fh, indent=2)
    bench_report("hot_resume", table(
        "C3  hot resume on the durable churn row",
        ["metric", "value"],
        [(key, value) for key, value in payload.items()]))
