"""When a suspension is persisted under history (Section 4.2).

With history on, a suspension need not reach the store: a node that
holds no copy of the version rebuilds it by replaying the fiber's
recorded history forward from its last snapshot.  A suspension is
elided only while fewer than ``snapshot_interval`` versions have passed
since that snapshot and replaying the work since it costs no more than
one store write of the state in hand; otherwise it is written.  A
fiber whose windows are expensive is snapshotted where they end, so no
rebuild re-runs them.
"""

import random

import pytest

from repro.bluebox.messagequeue import ReplyTo
from repro.durastore import DurableStore
from repro.lang.symbols import Keyword
from repro.vinz.api import VinzEnvironment
from repro.workloads.production import datastore_service

#: ``rows`` rows of live state, then 24 suspensions; the window that
#: ends at version ``costly + 1`` first runs a 2000-iteration loop
WORKFLOW = """
(defun main (params)
  (let ((rows (loop for i from 0 below (getf params :rows)
                    collect (list i (* i i))))
        (acc 0))
    (dotimes (v 24)
      (when (= v (getf params :costly))
        (dotimes (i 2000) (setq acc (+ acc i))))
      (workflow-sleep 0.1))
    (list acc (length rows))))
"""


def deploy(interval=8, **options):
    env = VinzEnvironment(history="on", snapshot_interval=interval,
                          **options)
    env.deploy_workflow("W", WORKFLOW)
    return env


def params(rows=0, costly=-1):
    return [Keyword("rows"), rows, Keyword("costly"), costly]


def result(rows=0, costly=-1):
    return [sum(range(2000)) if 0 <= costly < 24 else 0, rows]


def persisted_versions(env):
    return [span.attrs["version"]
            for span in env.tracer.spans_of_kind("persistence")
            if span.name.endswith(".encode")]


@pytest.mark.parametrize("case, versions", [
    # building 1000 rows replays for longer than a write of them: v1
    # is written, and the interval counts from there
    ({"rows": 1000}, [1, 9, 17]),
    # the costly window that ends at v3 is written at once
    ({"costly": 2}, [3, 11, 19]),
    # cheap windows are elided up to the interval
    ({}, [8, 16, 24]),
])
def test_a_suspension_is_written_when_replaying_would_cost_more(case,
                                                                versions):
    env = deploy()
    task = env.wait_for_task(env.start("W", params(**case)))
    assert (task.status, task.result) == ("completed", result(**case))
    assert persisted_versions(env) == versions
    assert env.metrics.get("persist.skipped") == 24 - len(versions)
    env.replay_task(task.id)


def test_an_interval_of_one_persists_every_suspension():
    env = deploy(interval=1)
    task = env.wait_for_task(env.start("W", params(rows=1000)))
    assert task.result == result(rows=1000)
    assert persisted_versions(env) == list(range(1, 25))
    assert env.metrics.get("persist.skipped") == 0


def test_a_crash_after_v1_rebuilds_forward_from_the_v1_snapshot():
    """The node that holds the fiber's elided versions dies while a
    resume waits for it: another node reads the v1 snapshot and
    replays forward from it, instead of re-running the first window."""
    env = deploy(nodes=3, seed=11)
    queue = env.cluster.queue
    enqueue = queue.enqueue
    killed = []

    def kill_the_first_owner(message, now, held_for=None):
        enqueue(message, now, held_for=held_for)
        if held_for is not None and not killed:
            killed.append(held_for)
            env.cluster.kernel.schedule(0.0,
                                        lambda: env.fail_node(held_for))

    queue.enqueue = kill_the_first_owner
    task = env.wait_for_task(env.start("W", params(rows=1000)))
    assert killed
    assert (task.status, task.result) == ("completed", result(rows=1000))
    bases = env.summary()["history"]["rebuild_base"]
    assert bases.get("snapshot", 0) >= 1 and bases.get("start", 0) == 0
    env.replay_task(task.id)


#: the durable churn row at full size: 12 tasks of 24 suspensions each
#: on a 400-row live state, a v2 snapshot at most every 8th suspension
CHURN = """
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


def churn_expected(width, touch):
    values = [i * i for i in range(width)]
    acc = 0
    for k in touch:
        acc += values[k]
        values[k] = acc
    return [acc, width, sum(values)]


def test_the_durable_churn_row_never_rebuilds_without_faults():
    """Its first window builds the 400 rows, which replays for longer
    than a write of them: with v1 snapshotted, every resume either
    hits a node cache or reads a snapshot, and none replays."""
    width, rng = 400, random.Random(2010)
    touches = [[rng.randrange(width) for _ in range(24)] for _ in range(12)]
    env = VinzEnvironment(nodes=4, slots=2, seed=0, trace=False,
                          store=DurableStore(shards=4), history="on",
                          snapshot_interval=8)
    env.deploy_service(datastore_service())
    env.deploy_workflow("Churn", CHURN, snapshots="v2")
    task_ids = [None] * len(touches)

    def start(index, touch):
        def replied(body):
            task_ids[index] = body["result"]["task"]
        env.cluster.send("Churn", "Start", {"params": [
            Keyword("width"), width, Keyword("touch"), touch]},
            reply_to=ReplyTo(callback=replied))

    for index, touch in enumerate(touches):
        env.cluster.kernel.schedule(
            index * 0.010, lambda i=index, t=touch: start(i, t))
    env.cluster.run_until_idle()
    assert [env.registry.tasks[task_id].result for task_id in task_ids] \
        == [churn_expected(width, touch) for touch in touches]
    assert env.metrics.get("history.rebuilds") == 0
    assert env.metrics.get("persist.writes") == 3 * len(touches)
