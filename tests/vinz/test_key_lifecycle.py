"""The lifecycle of every store key a task owns.

A task owns its environment, each child fiber's start thunk, each
fiber's persisted state and its task variables
(:mod:`repro.vinz.fiberstate`).  Each is written through one path that
an aborted window undoes, and reclaimed when its fiber or task
finishes; only the history, which ``replay_task`` verifies from,
outlives the task.
"""

import pytest

from repro.bluebox.services import OperationContext
from repro.durastore import DurableStore
from repro.faults import CRASH, FaultInjector, FaultPlan, NodeFault
from repro.lang.symbols import Keyword
from repro.vinz.api import VinzEnvironment
from repro.vinz.execution import FiberExecution
from repro.vinz.fiberstate import owned_keys, task_var_key, thunk_key
from repro.vinz.task import COMPLETED, ERROR

K = Keyword

STORES = {"shared": lambda: None, "durable": lambda: DurableStore(shards=2)}


def _journaled(store, key):
    """The value a replay of ``store``'s journal gives ``key``."""
    return store.journal.replay()["state"].get(key)


def test_a_child_that_errors_drops_its_thunk():
    env = VinzEnvironment(nodes=3, seed=4)
    env.deploy_workflow("W", """
        (defun main (params)
          (handler-case
              (for-each (x in params)
                (if (= x 13) (error "unlucky") x))
            (child-fiber-error (c) :handled)))""")
    assert env.call("W", [1, 13]) == K("handled")
    failed = [f for f in env.registry.fibers.values() if f.status == ERROR]
    assert len(failed) == 1
    assert not env.store.exists(thunk_key(failed[0].id))
    assert env.store.keys() == []


@pytest.mark.parametrize("store", sorted(STORES))
def test_a_completed_task_leaves_no_key(store):
    env = VinzEnvironment(nodes=3, seed=6, store=STORES[store]())
    env.deploy_workflow("W", """
        (deftaskvar total 0)
        (deftaskvar unused 0)
        (defun main (params)
          (setf ^total^ (apply #'+ (for-each (x in params) (* x x))))
          ^total^)""")
    task = env.registry.tasks[env.run("W", [1, 2, 3])]
    assert (task.status, task.result) == (COMPLETED, 14)
    assert owned_keys(env.store, task) == []
    assert env.store.keys() == []


def test_an_aborted_task_variable_write_is_undone():
    """The node dies persisting the window that set ``^box^``: the
    abort puts the key back as it was, on the backends and so as the
    journal has it."""
    store = DurableStore(shards=2)
    env = VinzEnvironment(nodes=3, seed=5, store=store)
    env.deploy_workflow("W", """
        (deftaskvar box 0)
        (defun main (params)
          (setf ^box^ (random 1000000))
          (for-each (x in (list 1 2)) x)
          ^box^)""")
    FaultInjector(1, FaultPlan([NodeFault(CRASH, on_persist=1)])).install(env)
    after_abort = []
    fail_node = env.fail_node

    def observed(node_id):
        requeued = fail_node(node_id)
        key = task_var_key(next(iter(env.registry.tasks)), "box")
        after_abort.append((store.snapshot_value(key), _journaled(store, key)))
        return requeued

    env.fail_node = observed
    task = env.wait_for_task(env.start("W"), deadline=60.0)
    env.cluster.run_until_idle()
    assert env.injector.injected.get("crash-on-persist") == 1
    assert after_abort == [(None, None)]
    assert task.status == COMPLETED and 0 <= task.result < 1000000
    assert env.store.keys() == []


def test_an_abort_keeps_a_later_committed_write():
    """Window A sets a task variable, window B sets it and commits,
    then A aborts: B's value stays, on the backends and the journal."""
    store = DurableStore(shards=2)
    env = VinzEnvironment(nodes=2, seed=1, store=store)
    env.deploy_workflow("W", "(deftaskvar box 0) (defun main (p) ^box^)")
    service = env.workflows["W"]
    task = env.registry.new_task("W", None, 0.0)
    fiber = env.registry.new_fiber(task, 0.0)
    key = task_var_key(task.id, "box")

    def window(node_id, value):
        cluster = env.cluster
        ctx = OperationContext(
            cluster, cluster.nodes[node_id].services["W"],
            cluster.queue.make_message("W", "Probe", {}))
        store.begin_window()
        ctx.owns_window = True
        FiberExecution(service, ctx, task, fiber).set_task_var("box", value)
        ctx.batch = store.seal_window()
        return ctx

    first, second = sorted(env.cluster.nodes)
    a = window(first, "from-a")
    b = window(second, "from-b")
    b.commit()
    a.abort("node-failure", node_failed=True)
    assert service.codec.loads(store.read(key)) == "from-b"
    assert _journaled(store, key) == store.read(key)


def test_an_aborted_caller_undoes_its_inline_start():
    """A synchronous (inline) Start joins its caller's window: when the
    caller's node dies later in that window, the started task, its
    environment and its first RunFiber go with the caller's commit that
    never happened.  The caller's retry starts the child again."""
    store = DurableStore(shards=2)
    env = VinzEnvironment(nodes=3, seed=9, store=store)
    env.deploy_workflow("Child", "(defun main (params) (* 2 params))")
    env.deploy_workflow("Parent", """
        (deflink CH :wsdl "urn:child-service" :sync t)
        (defun main (params)
          (CH-Start-Method :params 21)
          (apply #'+ (for-each (x in (list 1 2)) x)))""")
    FaultInjector(1, FaultPlan([NodeFault(CRASH, on_persist=1)])).install(env)
    task = env.wait_for_task(env.start("Parent"), deadline=60.0)
    env.cluster.run_until_idle()
    assert env.injector.injected.get("crash-on-persist") == 1
    assert (task.status, task.result) == (COMPLETED, 3)
    children = [t for t in env.registry.tasks.values()
                if t.workflow == "Child"]
    assert [(t.status, t.result) for t in children] == [(COMPLETED, 42)]
    assert store.keys() == []
    assert store.journal.replay()["state"].get(
        f"task-env/{children[0].id}") is None


@pytest.mark.parametrize("name", ["production_day", "dist_fanout",
                                  "suspend_churn_paper",
                                  "suspend_churn_durable"])
def test_a_full_benchmark_drive_leaves_only_history(name):
    """Every task of a full-size drive of each benchmark workload
    completes and leaves no task-owned key; the durable configuration
    keeps its history and nothing else."""
    from perf import workloads

    workload = workloads.WORKLOADS[name]
    env = workloads.deploy(workload)
    ops = workload.make_ops(2010, workload.size)
    issued = workloads.drive(env, workload, ops)
    _latencies, _results, failed = workloads.check(env, ops, issued)
    assert failed == 0
    for task in env.registry.tasks.values():
        assert owned_keys(env.store, task) == []
    left = env.store.keys()
    if name == "suspend_churn_durable":
        assert left and all(key.startswith("history//") for key in left)
    else:
        assert left == []
