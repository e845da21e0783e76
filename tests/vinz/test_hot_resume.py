"""A fiber resumed on the node that suspended it runs on its live state.

At a suspension the node's fiber cache keeps the state the suspended VM
stopped using beside the bytes the capture wrote; the first resume of
that exact version there takes it instead of decoding (paper Section
4.2: "reconstituting a fiber from its persisted state is still
relatively slow").  These tests hold a hot resume to what a decode gives:

* privacy: nothing outside the fiber reaches a mutable object in its
  live state, so each run below gives the result the same run gives
  with the cache off (every resume decodes) -- one case per rule;
* take-once: a live state is resumed at most once, and a retry after
  an aborted window decodes the bytes;
* memory: the cluster holds at most one live state per unfinished
  fiber, and none once the run is idle.
"""

import threading

import pytest

from repro.bluebox.services import simple_service
from repro.durastore import DurableStore
from repro.faults import FaultInjector
from repro.faults.plan import (
    FAIL_WRITE,
    FaultPlan,
    JournalFault,
    NodeFault,
    StoreFault,
)
from repro.gvm.runtime import Runtime
from repro.gvm.vm import Done, Yielded
from repro.lang.symbols import Keyword, Symbol
from repro.vinz.api import VinzEnvironment, WorkflowError
from repro.vinz.cache import FiberCache
from repro.vinz.fiberstate import FiberStateStore
from repro.vinz.persistence import UNSERIALIZABLE
from repro.vinz.task import COMPLETED


def live_held(env):
    return env.cache_stats()["live_held"]


# -- privacy ------------------------------------------------------------------

def keeper_service():
    """Keeps the list it is sent; shows what it keeps."""
    kept = {}

    def keep(ctx, body):
        kept["items"] = body.get("items")
        return True

    def show(ctx, body):
        return list(kept["items"])

    return simple_service("Keeper", {"Keep": keep, "Show": show},
                          namespace="urn:keeper",
                          parameters={"Keep": ["items"]})


def source_service():
    """Answers with a list it keeps, and changes that list later."""
    rows = [1, 2, 3]

    def get(ctx, body):
        return rows

    def bump(ctx, body):
        rows[0] += 100
        return True

    return simple_service("Source", {"Get": get, "Bump": bump},
                          namespace="urn:source")


def run_params_case(env, capacity=256):
    """Two tasks share one params list.  A changes it after its second
    suspension; B, which suspended before A's change, reads it after."""
    env.deploy_workflow("A", """
        (defun main (params)
          (workflow-sleep 0.5)
          (workflow-sleep 0.1)
          (setf (first params) (+ (first params) 100))
          (first params))""", cache_capacity=capacity)
    env.deploy_workflow("B", """
        (defun main (params)
          (workflow-sleep 0.1)
          (workflow-sleep 2.0)
          (first params))""", cache_capacity=capacity)
    shared = [1, 2, 3]
    tasks = [env.start("A", shared), env.start("B", shared)]
    return [env.wait_for_task(task).result for task in tasks]


def run_sent_list_case(env, capacity=256):
    """A list sent to a service that keeps it, changed by the sender
    after the send's suspension."""
    env.deploy_service(keeper_service())
    env.deploy_workflow("W", """
        (deflink K :wsdl "urn:keeper")
        (defun main (params)
          (workflow-sleep 0.1)
          (let ((xs (list 1 2 3)))
            (K-Keep-Method :items xs)
            (setf (first xs) 99)
            (list xs (K-Show-Method))))""", cache_capacity=capacity)
    return env.call("W", None)


def run_response_case(env, capacity=256):
    """A service response the service changes after answering."""
    env.deploy_service(source_service())
    env.deploy_workflow("W", """
        (deflink S :wsdl "urn:source")
        (defun main (params)
          (workflow-sleep 0.1)
          (let ((xs (S-Get-Method)))
            (S-Bump-Method)
            (first xs)))""", cache_capacity=capacity)
    return env.call("W", None)


def run_sync_response_case(env, capacity=256):
    """The same through a synchronous call: the inline reply crosses
    into the fiber too."""
    env.deploy_service(source_service())
    env.deploy_workflow("W", """
        (deflink S :wsdl "urn:source" :sync t)
        (defun main (params)
          (workflow-sleep 0.1)
          (let ((xs (S-Get-Method)))
            (workflow-sleep 0.1)
            (S-Bump-Method)
            (first xs)))""", cache_capacity=capacity)
    return env.call("W", None)


def run_message_case(env, capacity=256):
    """A list sent to another fiber, changed by the sender after the
    send's window; the receiver reads its mailbox later."""
    env.deploy_workflow("W", """
        (defun receiver (x) (workflow-sleep 1.0) (receive-message))
        (defun main (params)
          (workflow-sleep 0.1)
          (let* ((xs (list 1 2))
                 (r (fork-and-exec #'receiver :argument 0)))
            (send-message r xs)
            (workflow-sleep 0.1)
            (setf (first xs) 99)
            (join-process r)))""", cache_capacity=capacity)
    return env.call("W", None)


def run_global_case(env, capacity=256):
    """A fiber holds a global's list across a suspension and changes
    it after the resume."""
    env.deploy_workflow("W", """
        (defvar *shared* (list 1 2 3))
        (defun main (params)
          (workflow-sleep 0.1)
          (let ((xs *shared*))
            (workflow-sleep 0.1)
            (setf (first xs) (+ (first xs) 100))
            (list (first xs) (first *shared*))))""", cache_capacity=capacity)
    return env.call("W", None)


PRIVACY_CASES = {
    "mutated-params": run_params_case,
    "list-sent-to-a-service": run_sent_list_case,
    "response-changed-by-its-service": run_response_case,
    "sync-response-changed-by-its-service": run_sync_response_case,
    "list-sent-to-a-fiber": run_message_case,
    "mutable-global": run_global_case,
}


def one_node():
    """One node: every resume runs where its fiber suspended."""
    return VinzEnvironment(nodes=1, seed=5)


def test_a_task_owns_its_params():
    """The caller's objects stay the caller's: the main fiber binds the
    task's own copy of its params, so a change it makes reaches neither
    the caller nor (with its first window live) anything else."""
    env = one_node()
    env.deploy_workflow("W", """
        (defun main (params)
          (setf (first params) (+ (first params) 1))
          (workflow-sleep 0.1)
          (first params))""")
    params = [1]
    assert env.call("W", params) == 2
    assert params == [1]
    assert env.cache_stats()["live"] == 1


@pytest.mark.parametrize("case", sorted(PRIVACY_CASES))
def test_a_hot_resume_sees_what_a_decode_sees(case):
    run = PRIVACY_CASES[case]
    cold = run(one_node(), capacity=0)
    env = one_node()
    assert run(env) == cold
    assert live_held(env) == 0


#: values a fiber takes in from the history's own objects, changed
#: after a hot resume; the task must still replay from the in-memory
#: history, which the live rebuild path reads
RECORDED_CASES = {
    "collected-child-results": """
        (defun main (params)
          (workflow-sleep 0.1)
          (let ((rows (for-each (x in (list 1 2)) (list x))))
            (workflow-sleep 0.1)
            (setf (first (first rows)) (+ 100 (first (first rows))))
            rows))""",
    "forked-closure": """
        (defun main (params)
          (workflow-sleep 0.1)
          (let* ((base (list 10))
                 (child (fork-and-exec (lambda (x) (+ x (first base)))
                                       :argument 1)))
            (workflow-sleep 0.5)
            (setf (first base) 99)
            (join-process child)))""",
}


@pytest.mark.parametrize("case", sorted(RECORDED_CASES))
def test_a_hot_resume_leaves_the_recorded_history_alone(case):
    results = []
    for capacity in (0, 256):
        env = VinzEnvironment(nodes=1, seed=5, history="on")
        env.deploy_workflow("W", RECORDED_CASES[case],
                            cache_capacity=capacity)
        task_id = env.start("W", None)
        results.append(env.wait_for_task(task_id).result)
        env.replay_task(task_id, source="memory")
    assert results[0] == results[1]
    assert env.cache_stats()["live"] > 0


def test_a_value_that_does_not_serialize_cannot_cross():
    """As between nodes: a resume value that does not pickle fails the
    fiber with a typed fault, and a synchronous reply that does not
    pickle is a condition the workflow can handle."""
    env = one_node()
    env.deploy_service(simple_service(
        "Odd", {"Get": lambda ctx, body: {"lock": threading.Lock()}},
        namespace="urn:odd"))
    env.deploy_workflow("W", """
        (deflink O :wsdl "urn:odd")
        (defun main (params) (O-Get-Method) :done)""")
    with pytest.raises(WorkflowError, match="Unserializable"):
        env.call("W", None)
    env.deploy_workflow("S", """
        (deflink O :wsdl "urn:odd" :sync t)
        (defun main (params)
          (handler-case (O-Get-Method)
            (error (c) (condition-message c))))""")
    assert env.call("S", None).startswith(UNSERIALIZABLE)


def test_the_cases_run_hot_where_the_rules_allow():
    """The privacy cases are not vacuous: without a mutable global,
    every resume takes the live state, the first window's too (the
    main fiber's params are its task's own copy)."""
    env = one_node()
    run_response_case(env)
    stats = env.cache_stats()
    assert stats["live"] == 3
    assert stats["live_refused"] == {"mutable-global": 0}
    env = one_node()
    run_global_case(env)
    stats = env.cache_stats()
    assert stats["live"] == 0
    assert stats["live_refused"]["mutable-global"] == 2


def test_a_global_write_of_a_list_is_sticky():
    env = one_node()
    env.deploy_workflow("W", "(defun main (params) 1)")
    global_env = env.workflows["W"].runtime.global_env
    assert not global_env.holds_mutable
    env.deploy_workflow("V", "(defvar *n* 3) (defun main (params) *n*)")
    assert not env.workflows["V"].runtime.global_env.holds_mutable
    env.deploy_workflow("U", """
        (defun main (params)
          (setq *made-here* (list 1))
          (workflow-sleep 0.1)
          (setq *made-here* nil)
          (workflow-sleep 0.1)
          :done)""")
    assert env.call("U", None) == Keyword("done")
    assert env.workflows["U"].runtime.global_env.holds_mutable
    assert env.cache_stats()["live_refused"]["mutable-global"] == 2


def test_only_a_vinz_suspension_hands_over_live_state():
    """A plain runtime keeps none: a yield value is shared with the
    caller, and ``Runtime.resume`` may resume a continuation twice."""
    runtime = Runtime()
    yielded = runtime.start("(let ((xs (list 1 2))) (yield xs) xs)")
    assert isinstance(yielded, Yielded) and yielded.live is None
    vm = runtime.new_vm(allow_yield=True)
    vm.keep_live = True
    form, = runtime.read_all("(let ((xs (list 1 2))) (push-cc) (yield xs) xs)")
    yielded = vm.run_code(runtime.compile(form))
    frames, handlers, restarts, dynamics = yielded.live
    assert frames and yielded.value is frames[-1].env.lookup(Symbol("xs"))
    assert vm.resume(yielded.continuation, None, yielded.live) \
        == Done([1, 2])


# -- take-once ----------------------------------------------------------------

def test_a_live_state_is_taken_once():
    cache = FiberCache()
    state = ([], [], [], {})
    cache.put_continuation("f1", 3, "bytes-v3", state)
    assert cache.live_held() == 1
    assert cache.take_live("f1", 2) is None      # another version
    assert cache.take_live("f1", 3) is state
    assert cache.take_live("f1", 3) is None      # taken
    assert cache.get_continuation("f1", 3) == "bytes-v3"
    cache.put_continuation("f1", 4, "bytes-v4", state)
    cache.put_continuation("f1", 5, "bytes-v5")   # replaced
    assert cache.live_held() == 0
    cache.put_continuation("f1", 6, "bytes-v6", state)
    cache.drop_live("f1")
    assert (cache.take_live("f1", 6), cache.live_held()) == (None, 0)


def test_a_second_resume_of_one_version_decodes():
    env = one_node()
    env.deploy_workflow("W", """
        (defun main (params)
          (workflow-sleep 0.1)
          (workflow-sleep 0.1)
          :done)""")
    service = env.workflows["W"]
    loads = []
    load = FiberStateStore.load

    def recording(self, ctx, cache, fiber):
        continuation, live = load(self, ctx, cache, fiber)
        loads.append((fiber.version, live is not None))
        if live is not None:
            # a second reader of the same version, e.g. a retry
            again = load(self, ctx, cache, fiber)
            loads.append((fiber.version, again[1] is not None))
            assert again[0] is continuation
        return continuation, live

    service.state.load = recording.__get__(service.state)
    assert env.call("W", None) == Keyword("done")
    assert loads == [(1, True), (1, False), (2, True), (2, False)]


# -- faults -------------------------------------------------------------------

CHURN = """
(defun main (params)
  (let ((rows (loop for i from 0 below (getf params :width) collect
                    (list i (* i i) "row-payload")))
        (acc 0))
    (dolist (k (getf params :touch))
      (workflow-sleep 0.01)
      (setq acc (+ acc (second (nth k rows))))
      (setf (nth k rows) (list k acc "row-payload")))
    (list acc (length rows) (apply #'+ (mapcar #'second rows)))))
"""

WIDTH = 40
TOUCH = [(i * 7) % WIDTH for i in range(8)]


def churn_params():
    return [Keyword("width"), WIDTH, Keyword("touch"), TOUCH]


def churn_expected():
    values = [i * i for i in range(WIDTH)]
    acc = 0
    for k in TOUCH:
        acc += values[k]
        values[k] = acc
    return [acc, WIDTH, sum(values)]


#: torn commits and crashes abort a window after its persist replaced
#: the cache entry; a failed state write aborts it before, so the entry
#: it resumed stays, its live state already taken
FAULTS = ([("torn-commit", k, FaultPlan([JournalFault(nth=k)]))
           for k in range(1, 41)]
          + [("crash-on-persist", n,
              FaultPlan([NodeFault("crash", on_persist=n,
                                   restart_after=0.2)]))
             for n in range(1, 16)]
          + [("failed-state-write", n,
              FaultPlan([StoreFault(FAIL_WRITE, key_prefix="fiber-state/",
                                    nth=n)]))
             for n in range(1, 9)])


def run_churn(plan, monkeypatch):
    """The churn program under ``plan``; every load as ``(fiber,
    version, took the live state)``."""
    loads = []
    load = FiberStateStore.load

    def recording(self, ctx, cache, fiber):
        continuation, live = load(self, ctx, cache, fiber)
        loads.append((fiber.id, fiber.version, live is not None))
        return continuation, live

    monkeypatch.setattr(FiberStateStore, "load", recording)
    env = VinzEnvironment(nodes=3, seed=15, store=DurableStore(shards=2))
    env.deploy_workflow("W", CHURN)
    FaultInjector(15, plan).install(env)
    task_id = env.start("W", churn_params())
    env.cluster.run_until_idle()
    task = env.registry.tasks[task_id]
    assert (task.status, task.result) == (COMPLETED, churn_expected()), \
        task.error
    assert live_held(env) == 0
    return loads


@pytest.mark.parametrize("fault,point,plan", FAULTS,
                         ids=[f"{fault}-{point}" for fault, point, _ in FAULTS])
def test_an_aborted_window_never_resumes_a_live_state_twice(
        fault, point, plan, monkeypatch):
    taken = [(fiber, version)
             for fiber, version, live in run_churn(plan, monkeypatch) if live]
    assert taken, "the run resumed no live state"
    assert len(taken) == len(set(taken)), taken


@pytest.mark.parametrize("plan", [
    FaultPlan([JournalFault(nth=4)]),
    FaultPlan([NodeFault("crash", on_persist=3, restart_after=0.2)]),
    FaultPlan([StoreFault(FAIL_WRITE, key_prefix="fiber-state/", nth=5)]),
], ids=["torn-commit-4", "crash-on-persist-3", "failed-state-write-5"])
def test_a_retry_after_a_taken_live_state_decodes(plan, monkeypatch):
    """A window that took a version's live state aborts; its retry
    loads that version again, from the bytes."""
    loads = run_churn(plan, monkeypatch)
    assert [(fiber, version) for index, (fiber, version, live)
            in enumerate(loads)
            if live and (fiber, version, False) in loads[index + 1:]]


# -- memory -------------------------------------------------------------------

def test_live_states_held_stay_at_most_one_per_unfinished_fiber():
    env = VinzEnvironment(nodes=4, slots=2, seed=0, trace=False,
                          store=DurableStore(shards=4), history="on",
                          snapshot_interval=8)
    env.deploy_workflow("Churn", CHURN, snapshots="v2")
    kernel = env.cluster.kernel
    samples = []

    def sample():
        unfinished = sum(not fiber.finished
                         for fiber in env.registry.fibers.values())
        samples.append((live_held(env), unfinished))
        tasks = env.registry.tasks.values()
        if len(tasks) < 12 or any(not task.finished for task in tasks):
            kernel.schedule(0.003, sample)

    for index in range(12):
        kernel.schedule(index * 0.01, lambda: env.cluster.send(
            "Churn", "Start", {"params": churn_params()}))
    kernel.schedule(0.001, sample)
    env.cluster.run_until_idle()
    tasks = list(env.registry.tasks.values())
    assert len(tasks) == 12
    assert all(task.result == churn_expected() for task in tasks)
    assert all(held <= unfinished for held, unfinished in samples), samples
    assert max(held for held, _ in samples) > 0
    assert live_held(env) == 0


def test_a_fiber_swept_while_suspended_drops_its_live_state():
    """The main fiber finishes the task while a child sleeps on a live
    state; the sweep that terminates the child drops it."""
    env = one_node()
    env.deploy_workflow("W", """
        (defun main (params)
          (fork-and-exec (lambda (x) (workflow-sleep 0.1)
                                     (workflow-sleep 5.0) x)
                         :argument 1)
          (workflow-sleep 0.5)
          42)""")
    task_id = env.start("W", None)
    kernel = env.cluster.kernel
    kernel.run_until(lambda: kernel.now > 0.3)
    # the child's, and the main fiber's: its first window, which ends
    # in the sleep, keeps its live state too
    assert live_held(env) == 2
    env.cluster.run_until_idle()
    assert env.registry.tasks[task_id].result == 42
    assert live_held(env) == 0
