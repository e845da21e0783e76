"""Chaos campaign: randomized node failures under load.

The paper's survivability claim (Sections 1 and 3.2) in its strongest
form: no matter when instances die, as long as some capacity eventually
exists, every task completes with the right answer.  These tests kill
random nodes at random (virtual) times throughout a workload and verify
full completion and correct results.
"""

import random

import pytest

from repro.bluebox.services import simple_service
from repro.vinz import execution
from repro.vinz.api import VinzEnvironment
from repro.vinz.task import COMPLETED

WORKFLOW = """
(deflink DS :wsdl "urn:chaos-data")

(defun main (params)
  ;; params: (:id n :items (...))
  (let* ((items (getf params :items))
         (enriched (for-each (x in items)
                     (compute 0.3)
                     (+ x (DS-Lookup-Method :Key x))))
         (total (apply #'+ enriched)))
    (workflow-sleep 0.5)
    (list :id (getf params :id) :total total)))
"""


def data_service():
    def lookup(ctx, body):
        ctx.charge(0.2)
        return body.get("Key", 0) * 10

    return simple_service("ChaosData", {"Lookup": lookup},
                          namespace="urn:chaos-data",
                          parameters={"Lookup": ["Key"]})


def expected_total(items):
    return sum(x + x * 10 for x in items)


def run_campaign(seed: int, kills: int, nodes: int = 6,
                 tasks: int = 6) -> VinzEnvironment:
    rng = random.Random(seed)
    env = VinzEnvironment(nodes=nodes, seed=seed, trace=False)
    env.deploy_service(data_service())
    env.deploy_workflow("Chaos", WORKFLOW, spawn_limit=3)

    inputs = {}
    for i in range(tasks):
        items = [rng.randint(1, 9) for _ in range(rng.randint(2, 5))]
        inputs[i] = items
        from repro.lang.symbols import Keyword as K

        env.cluster.send("Chaos", "Start",
                         {"params": [K("id"), i, K("items"), items]})

    # schedule node murders at random virtual times; always revive one
    # node at the end so the cluster retains capacity
    node_ids = list(env.cluster.nodes)
    for k in range(kills):
        victim = rng.choice(node_ids)
        when = rng.uniform(0.05, 3.0)
        env.cluster.kernel.schedule(
            when, lambda v=victim: env.fail_node(v)
            if env.cluster.nodes[v].alive else None)
        env.cluster.kernel.schedule(
            when + rng.uniform(0.5, 2.0),
            lambda v=victim: env.restore_node(v))
    env.cluster.run_until_idle()
    # correctness: every task completed with the right total
    assert len(env.registry.tasks) == tasks
    for task in env.registry.tasks.values():
        assert task.status == COMPLETED, (task.id, task.status, task.error)
        plist = {task.result[i].name: task.result[i + 1]
                 for i in range(0, len(task.result), 2)}
        assert plist["total"] == expected_total(inputs[plist["id"]]), task.id
    return env


class TestChaosCampaign:
    @pytest.mark.parametrize("seed", [101, 202, 303, 404, 505])
    def test_random_failures_never_lose_work(self, seed):
        env = run_campaign(seed=seed, kills=4)
        # failures actually happened (the campaign wasn't a no-op)
        # and redelivery kicked in at least sometimes across seeds
        assert env.cluster.queue.enqueued > 0

    def test_heavy_kill_storm(self):
        """Many kills, few nodes: recovery under sustained damage."""
        env = run_campaign(seed=777, kills=10, nodes=3, tasks=4)
        assert env.registry.counts() == {COMPLETED: 4}

    def test_redelivery_observed_across_campaign(self):
        """At least one seed of the campaign must actually exercise the
        in-flight redelivery path (otherwise the campaign is too soft)."""
        total_redelivered = 0
        for seed in (101, 202, 303, 404, 505, 777):
            env = run_campaign(seed=seed, kills=6, nodes=4, tasks=4)
            total_redelivered += env.cluster.queue.redelivered
        assert total_redelivered > 0


class TestKitchenSinkChaos:
    """Every extension enabled at once + random failures: EDF
    scheduling, adaptive migration, chained for-each, auto chunking,
    mailboxes — all under node-kill pressure."""

    SOURCE = """
    (deflink DS :wsdl "urn:chaos-data")

    (deftaskvar finished 0)

    (defun crunch (x)
      (compute 0.2)
      (+ x (DS-Lookup-Method :Key x)))

    (defun main (params)
      (let* ((items (getf params :items))
             ;; chained distribution
             (chained (for-each (x in items :strategy :chain) (crunch x)))
             ;; auto-chunked distribution over the same items
             (chunked (for-each (x in items :chunk-size :auto)
                        (compute 0.05) (* x 2)))
             ;; a mailbox round trip
             (me (get-process-id))
             (child (fork-and-exec
                      (lambda (parent)
                        (send-message parent :hello)
                        :sent)
                      :arguments (list me)))
             (greeting (receive-message)))
        (join-process child)
        (setf ^finished^ 1)
        (list :id (getf params :id)
              :chained (apply #'+ chained)
              :chunked (apply #'+ chunked)
              :greeting greeting
              :done ^finished^)))
    """

    def test_everything_on_with_failures(self, monkeypatch):
        monkeypatch.setattr(execution, "AUTO_CHUNK_TARGET", 1.0)
        rng = random.Random(4242)
        env = VinzEnvironment(nodes=5, seed=4242, trace=False)
        env.scheduling_policy = "edf"
        env.migration_policy = "adaptive"
        env.deploy_service(data_service())
        env.deploy_workflow("Sink", self.SOURCE, spawn_limit=3)
        from repro.lang.symbols import Keyword as K

        inputs = {}
        for i in range(4):
            items = [rng.randint(1, 9) for _ in range(6)]
            inputs[i] = items
            env.cluster.send("Sink", "Start",
                             {"params": [K("id"), i, K("items"), items],
                              "deadline": 30.0 + i})
        # two scheduled kills with revival
        for when, victim in ((0.8, "node-1"), (2.0, "node-3")):
            env.cluster.kernel.schedule(
                when, lambda v=victim: env.fail_node(v))
            env.cluster.kernel.schedule(
                when + 1.5, lambda v=victim: env.restore_node(v))
        env.cluster.run_until_idle()

        assert env.registry.counts() == {COMPLETED: 4}
        for task in env.registry.tasks.values():
            plist = {task.result[i].name: task.result[i + 1]
                     for i in range(0, len(task.result), 2)}
            items = inputs[plist["id"]]
            assert plist["chained"] == expected_total(items)
            assert plist["chunked"] == sum(2 * x for x in items)
            assert plist["greeting"].name == "hello"
            assert plist["done"] == 1
