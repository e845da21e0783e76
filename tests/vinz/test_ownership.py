"""Fiber ownership: a resume of an elided version waits for its node.

With history on and a snapshot interval above 1, most suspensions are
never persisted: the version lives only in the cache of the node that
ran the fiber.  A message that resumes such a version is parked for
that node for at most what a cold node would be charged to rebuild the
version (the last snapshot's read plus the instructions run since), and
then goes to balanced dispatch.  The paper's configuration never elides
a version, so it never parks anything.
"""

import pytest

from repro.bluebox.services import simple_service
from repro.faults.campaign import run_campaign
from repro.faults.plan import CRASH, FaultPlan, NodeFault
from repro.vinz.api import VinzEnvironment

WORKFLOW = """
(deflink DS :wsdl "urn:owned-data")

(defun main (params)
  (let ((acc (apply #'+ (loop for i from 0 below 300 collect (* i i)))))
    (dolist (k params)
      (setq acc (+ acc (DS-Fetch-Method :Key k))))
    acc))
"""

#: what the loop before the first suspension adds up: it makes a cold
#: rebuild cost enough virtual time to be worth waiting for
PROLOGUE = sum(i * i for i in range(300))

INPUTS = [[k, k + 1, k + 2, k + 3, k + 4, k + 5, k + 6] for k in range(6)]


def expected(keys):
    return PROLOGUE + sum(10 * k for k in keys)


def make_env(deploy_options=None, **options):
    env = VinzEnvironment(nodes=3, seed=11, **options)

    def fetch(ctx, body):
        ctx.charge(0.02)
        return 10 * body["Key"]

    env.deploy_service(simple_service(
        "OwnedData", {"Fetch": fetch}, namespace="urn:owned-data",
        parameters={"Fetch": ["Key"]}))
    env.deploy_workflow("Owned", WORKFLOW, **(deploy_options or {}))
    return env


def run_all(env):
    task_ids = [env.start("Owned", keys) for keys in INPUTS]
    env.cluster.run_until_idle()
    for task_id, keys in zip(task_ids, INPUTS):
        task = env.registry.tasks[task_id]
        assert (task.status, task.result) == ("completed", expected(keys))
    return task_ids


def owner(env, outcome):
    return env.metrics.get(f"placement.owner.{outcome}")


@pytest.mark.parametrize("options", [
    {},
    {"locks": "file"},
    {"history": "on"},
    {"history": "on", "recovery": "replay"},
    {"history": "on", "snapshot_interval": 1},
])
def test_the_paper_options_never_park_a_message(options):
    env = make_env(**options)
    run_all(env)
    assert owner(env, "held") == 0
    assert env.summary()["placement"]["held"] == 0


def test_an_elided_version_waits_for_the_node_that_holds_it():
    env = make_env(history="on", snapshot_interval=3)
    task_ids = run_all(env)
    held, served = owner(env, "held"), owner(env, "served")
    assert held > 0 and served > 0
    assert held == served + owner(env, "released") + owner(env, "node-lost")
    # a resume served by its owner is an exact cache hit: no rebuild
    assert env.metrics.get("history.rebuilds") <= owner(env, "released")
    placement = env.summary()["placement"]
    assert placement["held"] == held and placement["served"] == served
    for task_id in task_ids:
        env.replay_task(task_id)


def test_without_a_cache_no_node_holds_the_version():
    env = make_env(deploy_options={"cache": False}, history="on",
                   snapshot_interval=3)
    run_all(env)
    assert owner(env, "held") == 0
    assert env.metrics.get("history.rebuilds") > 0


def test_the_owner_dying_releases_the_resume_to_a_rebuild():
    env = make_env(history="on", snapshot_interval=3)
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
    run_all(env)
    assert killed and owner(env, "node-lost") >= 1
    # the version died with its node's cache: rebuilt elsewhere
    assert env.metrics.get("history.rebuilds") >= 1


def test_a_hold_that_runs_out_goes_cold_and_stays_correct():
    """A tiny instruction cost makes a cold rebuild nearly free, so no
    owner is worth waiting for past the first queue hop."""
    env = make_env(deploy_options={"instruction_cost": 1e-9},
                   history="on", snapshot_interval=3)
    task_ids = run_all(env)
    assert owner(env, "released") > 0
    assert env.metrics.get("history.rebuilds") > 0
    for task_id in task_ids:
        env.replay_task(task_id)


def test_replay_lock_recovery_campaign_with_owners():
    """Crashes while holding file locks, with resumes parked for their
    owners: nothing stuck, nothing run twice, no replay divergence."""
    plan = FaultPlan([
        NodeFault(CRASH, on_lock=2, restart_after=2.0),
        NodeFault(CRASH, on_lock=9, restart_after=2.0),
        NodeFault(CRASH, on_persist=5, restart_after=2.0),
    ], name="owned-recovery")
    report = run_campaign(plan, seed=42, tasks=8, nodes=4, history="on",
                          recovery="replay", snapshot_interval=3,
                          locks="file", lease_ttl=1.0)
    env = report.env
    assert report.all_completed, report.statuses
    assert report.wrong_results() == []
    assert report.stuck_fibers() == []
    assert report.single_runner_violations() == []
    assert owner(env, "held") > 0
    report.replay_all()
    assert env.metrics.get("history.divergences") == 0
