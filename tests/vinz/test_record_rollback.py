"""An aborted window puts back what it did to task and fiber records.

Every change a window makes to a task or fiber record goes through
:class:`~repro.vinz.task.ProcessRegistry`, which logs its inverse on
the window's undo log.  These sweeps abort windows at every point a
small workflow offers — a torn journal commit (``JournalFault(nth=k)``)
and a node that dies while persisting (``NodeFault(on_persist=n)``) —
and hold each run to the same outcome as a fault-free one:

* the task finishes with the right value, counted once;
* the ``tasks.in_flight`` and ``fibers.in_flight`` levels end at 0,
  and the started counters equal the finished ones: no creation, finish
  or wake-up of an aborted window survives it, nor is any lost.
"""

import pytest

from repro.durastore import DurableStore
from repro.faults import FaultInjector
from repro.faults.plan import FaultPlan, JournalFault, NodeFault
from repro.lang.symbols import Keyword
from repro.vinz.api import VinzEnvironment

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
        (list a b (join-process child))))))"""

#: name -> (source, params, right value, deploy config)
WORKFLOWS = {
    "join-process": ("""
        (defun main (params)
          (let ((child (fork-and-exec (lambda (x) (* x 2)) :argument params)))
            (+ 1 (join-process child))))""", 20, 41, {}),
    "ping-pong": (PING_PONG, None, [101, 102, Keyword("ponged")], {}),
    "chained-for-each": ("""
        (defun main (params)
          (for-each (x in params :strategy :chain) (* x x)))""",
                         [1, 2, 3, 4, 5], [1, 4, 9, 16, 25],
                         {"spawn_limit": 2}),
    "for-each": ("""
        (defun main (params)
          (for-each (x in params) (* x x)))""", [1, 2, 3], [1, 4, 9], {}),
    # the child's window is still open when the main fiber finishes
    # the task and commits; the child's window then dies
    "sibling-outlives-main": ("""
        (defun main (params)
          (fork-and-exec (lambda (x) (compute 2.0) x) :argument 1)
          (workflow-sleep 0.5)
          42)""", None, 42, {}),
}

FAULTS = ([("torn-commit", k, FaultPlan([JournalFault(nth=k)]))
           for k in range(1, 41)]
          + [("crash-on-persist", n,
              FaultPlan([NodeFault("crash", on_persist=n,
                                   restart_after=0.2)]))
             for n in range(1, 16)])


def run(name, plan, seed=15, nodes=3):
    source, params, _right, config = WORKFLOWS[name]
    env = VinzEnvironment(nodes=nodes, seed=seed,
                          store=DurableStore(shards=2))
    env.deploy_workflow("W", source, **config)
    FaultInjector(seed, plan).install(env)
    task_id = env.start("W", params)
    env.cluster.run_until_idle()
    return env, env.registry.tasks[task_id]


def check(env, task, name):
    assert (task.status, task.result) == ("completed", WORKFLOWS[name][2]), \
        task.error
    metrics = env.metrics
    assert metrics.get("tasks.completed") == metrics.get("tasks.started") \
        == len(env.registry.tasks) == 1
    finished = sum(metrics.get(f"fibers.{status}")
                   for status in ("completed", "terminated", "error"))
    assert finished == metrics.get("fibers.started") \
        == len(env.registry.fibers)
    assert (env.task_concurrency.level, env.fiber_concurrency.level) == (0, 0)
    assert all(fiber.finished for fiber in env.registry.fibers.values())


@pytest.mark.parametrize("fault,point,plan", FAULTS,
                         ids=[f"{fault}-{point}" for fault, point, _ in FAULTS])
@pytest.mark.parametrize("name", sorted(WORKFLOWS))
def test_an_aborted_window_leaves_no_record_change(name, fault, point, plan):
    env, task = run(name, plan)
    check(env, task, name)


@pytest.mark.parametrize("at", [0.5, 1.0, 1.5])
def test_a_sibling_dying_after_the_task_finished_leaves_it_finished(at):
    """The child's node dies after the main fiber committed the task's
    completion: the task stays completed with its result."""
    env, task = run("sibling-outlives-main", FaultPlan(
        [NodeFault("crash", node="node-2", at=at, restart_after=0.2)]),
        seed=3, nodes=2)
    assert env.injector.injected.get("crash") == 1
    check(env, task, "sibling-outlives-main")
