"""The shared fiber-execution path: every intrinsic and every window
outcome must behave the same live, under verification replay and under
a crash rebuild — they are one bridge and one window runner."""

import pytest

from repro.bluebox.services import ServiceFault, simple_service
from repro.gvm.conditions import GozerCondition, UnhandledConditionError
from repro.vinz.api import VinzEnvironment
from repro.vinz.distribution import VinzBreak, VinzTerminateTask
from repro.vinz.execution import WindowOutcome, run_window
from repro.vinz.task import COMPLETED, ERROR

PING_PONG = """
(defun pong-loop (parent)
  (loop
    (let ((m (receive-message)))
      (if (eq m :stop)
          (return :ponged)
          (send-message parent (+ m 100))))))
(defun main (params)
  (let* ((me (get-process-id))
         (child (fork-and-exec #'pong-loop :argument me)))
    (send-message child 1)
    (let ((a (receive-message)))
      (send-message child 2)
      (let ((b (receive-message)))
        (send-message child :stop)
        (list a b (join-process child))))))
"""

SERVICE_CALLS = """
(deflink M :wsdl "urn:mixed")
(defun main (params)
  (list (M-Echo-Method :x 1)
        (let ((*vinz-force-sync* t)) (M-Echo-Method :x 2))
        (M-Echo-Method :x 3)))
"""

#: name -> (source, params, deploy config)
WORKFLOWS = {
    "chain-for-each": ("""
        (defun main (params)
          (for-each (x in params :strategy :chain) (compute 0.2) (* x x)))
        """, [1, 2, 3, 4, 5], {"spawn_limit": 2}),
    "awake-for-each": ("""
        (defun main (params)
          (for-each (x in params) (compute 0.2) (* x x)))
        """, [1, 2, 3, 4, 5], {"spawn_limit": 2}),
    "auto-chunk": ("""
        (defun main (params)
          (for-each (x in params :chunk-size :auto) (compute 1.0) (* x 2)))
        """, list(range(10)), {"spawn_limit": 4}),
    "mailboxes": (PING_PONG, None, {}),
    "task-variables": ("""
        (deftaskvar box 0)
        (defun main (params)
          (dotimes (i 3)
            (setf ^box^ (+ ^box^ i))
            (workflow-sleep 0.1))
          ^box^)
        """, None, {}),
    "service-calls": (SERVICE_CALLS, None, {}),
    "workflow-sleep": ("""
        (defun main (params)
          (dotimes (i 5) (workflow-sleep 0.2))
          :done)
        """, None, {}),
    "failing-child": ("""
        (defun main (params)
          (for-each (x in params) (if (= x 2) (error "bad") x)))
        """, [1, 2, 3], {}),
}


def _run(name, snapshot_interval=1, **deploy):
    source, params, config = WORKFLOWS[name]
    env = VinzEnvironment(nodes=3, seed=31, history="on",
                          snapshot_interval=snapshot_interval)

    def echo(ctx, body):
        ctx.charge(0.01)
        return body.get("x")

    env.deploy_service(simple_service("Mixed", {"Echo": echo},
                                      namespace="urn:mixed",
                                      parameters={"Echo": ["x"]}))
    env.deploy_workflow("W", source, **config, **deploy)
    task = env.registry.tasks[env.run("W", params)]
    return env, task


def _replays_clean(env):
    for task_id in env.registry.tasks:
        env.replay_task(task_id)  # raises on the first divergence
    assert env.metrics.get("history.divergences") == 0


@pytest.mark.parametrize("name", sorted(WORKFLOWS))
class TestEveryIntrinsicReplays:
    def test_verification_replay_from_the_log(self, name):
        env, task = _run(name)
        expected = ERROR if name == "failing-child" else COMPLETED
        assert task.status == expected, task.error
        _replays_clean(env)

    def test_rebuild_on_every_resume_gives_the_same_task(self, name):
        """snapshot_interval=3 without a fiber cache: every resume of
        an elided version re-executes the fiber through the replay
        bridge, and the task must not be able to tell."""
        _, live = _run(name)
        env, rebuilt = _run(name, snapshot_interval=3, cache=False)
        assert env.metrics.get("history.rebuilds") > 0
        assert (rebuilt.status, rebuilt.result, rebuilt.error) == \
            (live.status, live.result, live.error)
        _replays_clean(env)

    def test_warm_rebuild_base_replays_no_more(self, name):
        """snapshot_interval=3 with the fiber cache on: a rebuild starts
        from the newest version the node still holds when that beats
        the snapshot, so it never replays more than a cold one."""
        _, live = _run(name)
        cold, _ = _run(name, snapshot_interval=3, cache=False)
        env, warm = _run(name, snapshot_interval=3)
        assert (warm.status, warm.result, warm.error) == \
            (live.status, live.result, live.error)
        assert env.metrics.get("history.rebuild_instructions") <= \
            cold.metrics.get("history.rebuild_instructions")
        _replays_clean(env)


FAULT = ServiceFault("{urn:w-service}NoMainFunction",
                     "workflow W defines no (main params)")
BAD = GozerCondition(message="bad", condition_type="simple-error")

#: exception -> how the window runner must classify it, and a workflow
#: whose first child fiber (or, for the fault, main fiber) ends that way
OUTCOMES = [
    (VinzBreak("break"), WindowOutcome("completed", None),
     "(defun main (p) (for-each (x in p) (break-fiber)))"),
    (VinzTerminateTask("stop"), WindowOutcome("failed", "stop", True),
     '(defun main (p) (for-each (x in p) (terminate-task "stop")))'),
    (UnhandledConditionError(BAD), WindowOutcome("failed", str(BAD)),
     '(defun main (p) (for-each (x in p) (error "bad")))'),
    (FAULT, WindowOutcome("failed", f"{FAULT.qname}: {FAULT.message}", True),
     "(defun not-main (p) p)"),
]


@pytest.mark.parametrize("exc, outcome, source", OUTCOMES,
                         ids=[type(o[0]).__name__ for o in OUTCOMES])
def test_window_outcomes_classify_identically_live_and_replayed(
        exc, outcome, source):
    def thunk():
        raise exc

    assert run_window(thunk) == outcome
    # live: the fiber's recorded terminal event is that classification
    env = VinzEnvironment(nodes=2, seed=37, history="on")
    env.deploy_workflow("W", source)
    task_id = env.run("W", [1])
    fiber_id = env.registry.tasks[task_id].fiber_ids[-1]
    terminal = [e for e in env.history.events_of(task_id)
                if e.fiber == fiber_id
                and e.kind in ("fiber-completed", "fiber-failed")]
    assert [e.kind for e in terminal] == [f"fiber-{outcome.state}"]
    assert terminal[0].payload.get("error") == (
        outcome.value if outcome.state == "failed" else None)
    if outcome.state == "failed":
        # a task-terminating failure ends the task in that same window;
        # otherwise the parent gets to see the child's error first
        task, fiber = env.registry.tasks[task_id], env.registry.fibers[fiber_id]
        assert (task.finished_at == fiber.finished_at) == \
            outcome.terminate_task
    # replay: re-running the window must reach the same terminal event
    # with the same text, or verification diverges
    _replays_clean(env)


class TestAdaptiveMigrationIsRecorded:
    """`vinz-should-migrate` reads the live latency learner: under the
    adaptive policy that is an observation and must come from history."""

    WORKFLOW = """
        (deflink M :wsdl "urn:mixed")
        (defun main (params)
          (dotimes (i 4) (M-Fast-Method))
          (M-Slow-Method))"""

    def _env(self, policy, **kwargs):
        env = VinzEnvironment(nodes=4, seed=6, history="on", **kwargs)
        env.migration_policy = policy

        def fast(ctx, body):
            ctx.charge(0.001)
            return "fast"

        def slow(ctx, body):
            ctx.charge(2.0)
            return "slow"

        env.deploy_service(simple_service(
            "Mixed", {"Fast": fast, "Slow": slow}, namespace="urn:mixed"))
        env.deploy_workflow("W", self.WORKFLOW)
        return env

    def test_adaptive_run_replays_clean(self):
        env = self._env("adaptive")
        for _ in range(3):  # explore, then exploit
            env.run("W", None)
        assert env.metrics.get("sync.Mixed.Fast") > 0
        _replays_clean(env)

    def test_concurrent_tasks_survive_rebuilds(self):
        env = self._env("adaptive", snapshot_interval=4)
        tasks = [env.start("W", None) for _ in range(3)]
        env.cluster.run_until_idle()
        assert [env.registry.tasks[t].status for t in tasks] == \
            [COMPLETED] * 3
        assert env.metrics.get("history.rebuilds") > 0
        _replays_clean(env)

    def test_programmer_policy_records_nothing(self):
        env = self._env("programmer")
        task_id = env.run("W", None)
        ops = {e.payload.get("op") for e in env.history.events_of(task_id)
               if e.kind == "nondet"}
        assert not any(op.startswith("should-migrate") for op in ops)


def test_diverging_rebuild_fails_one_task_not_the_platform():
    """A history that cannot reproduce its fiber is that task's
    problem: it ends in error naming the divergence, and everything
    else in flight completes."""
    env = VinzEnvironment(nodes=3, seed=41, history="on",
                          snapshot_interval=4)
    env.deploy_workflow("W", """
        (defun main (params)
          (let ((n (random 1000)))
            (if (< n 1000) (workflow-sleep 1.0) (join-process "nobody"))
            (workflow-sleep 1.0)
            n))""", cache=False)
    victim, *others = [env.start("W", None) for _ in range(3)]
    fiber = env.registry.fibers_of(victim)[0]
    env.cluster.run_until(lambda: fiber.version == 1
                          and not env.cluster._in_flight)
    draw = next(e for e in env.history.events_of(victim)
                if e.kind == "nondet" and e.payload.get("op") == "random")
    draw.payload = dict(draw.payload, value=5000)  # now takes the join

    env.cluster.run_until_idle()

    failed = env.registry.tasks[victim]
    assert failed.status == ERROR
    assert "ReplayDiverged" in failed.error
    for part in (victim, fiber.id, "diverged at event"):
        assert part in failed.error
    assert env.metrics.get("history.divergences") == 1
    assert [env.registry.tasks[t].status for t in others] == [COMPLETED] * 2
    assert all(isinstance(env.registry.tasks[t].result, int) for t in others)


def test_inline_start_records_the_child_task_from_its_first_event():
    """A ``:sync t`` deflink runs the child workflow's ``Start`` on an
    inline context.  Its hooks used to be dropped, so the child's
    history began at ``fiber-completed`` and replay diverged at event
    0; an inline context now commits like any other window."""
    env = VinzEnvironment(nodes=2, seed=3, history="on")
    env.deploy_workflow("Child", "(defun main (params) (* 2 params))")
    env.deploy_workflow("Parent", """
        (deflink CH :wsdl "urn:child-service" :sync t)
        (defun main (params)
          (CH-Start-Method :params params))
        """)
    started = env.call("Parent", 21)
    env.cluster.run_until_idle()
    child = env.registry.tasks[started["task"]]
    assert (child.workflow, child.status, child.result) == \
        ("Child", COMPLETED, 42)
    assert [e.kind for e in env.history.events_of(child.id)] == \
        ["task-started", "fiber-completed"]
    for task_id in env.registry.tasks:
        env.replay_task(task_id)  # raises on the first divergence
