"""Continuation capture is one pickle and resume one unpickle.

No ``copy.deepcopy`` anywhere on the suspension path, a bounded number
of Python-level pickler calls for a large state, and the determination
rule (Section 4.1) enforced by the pickle itself: a future still running
at ``yield`` is waited for, a failed one raises at the ``yield``.
"""

import copy
import os
import threading

import pytest

from repro.conformance import load_dir, run_stepwise, run_vm
from repro.durastore import DurableStore
from repro.gvm import continuations
from repro.gvm.conditions import UnhandledConditionError
from repro.gvm.futures import ThreadPoolFutureExecutor
from repro.gvm.runtime import Runtime
from repro.gvm.vm import Done, Yielded
from repro.lang.symbols import Keyword, Symbol
from repro.vinz.api import VinzEnvironment
from repro.vinz.task import COMPLETED

WIDTH = 400
CALLS = 24

#: a 400-row live state that suspends 24 times, one row changed between
#: suspensions
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

TOUCH = [(i * 37) % WIDTH for i in range(CALLS)]


def churn_expected():
    values = [i * i for i in range(WIDTH)]
    acc = 0
    for k in TOUCH:
        acc += values[k]
        values[k] = acc
    return [acc, WIDTH, sum(values)]


def churn_params():
    return [Keyword("width"), WIDTH, Keyword("touch"), TOUCH]


@pytest.fixture
def no_deepcopy(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("copy.deepcopy on the suspension path")

    monkeypatch.setattr(copy, "deepcopy", refuse)


def deploy_churn(config):
    if config == "paper":
        env = VinzEnvironment(nodes=4, slots=2, seed=0, trace=False)
        env.deploy_workflow("Churn", CHURN)
    else:
        env = VinzEnvironment(nodes=4, slots=2, seed=0, trace=False,
                              store=DurableStore(shards=4), history="on",
                              snapshot_interval=8)
        env.deploy_workflow("Churn", CHURN, snapshots="v2")
    return env


@pytest.mark.parametrize("config", ["paper", "durable"])
def test_churn_task_suspends_without_deepcopy(no_deepcopy, config):
    env = deploy_churn(config)
    task = env.wait_for_task(env.start("Churn", churn_params()))
    assert (task.status, task.result) == (COMPLETED, churn_expected())
    assert env.metrics.get("persist.writes") \
        + env.metrics.get("persist.skipped") >= CALLS


CORPUS = {p.name: p for p in load_dir(os.path.join(
    os.path.dirname(__file__), os.pardir, "conformance", "corpus"))}


#: recursion with a host function on every operand stack, closures
#: passed as values, and a block exited from inside a loop
@pytest.mark.parametrize("name", ["seed-prop-factorial", "seed-diff-05",
                                  "seed-diff-08"])
def test_stepwise_corpus_without_deepcopy(no_deepcopy, name):
    program = CORPUS[name]
    result = run_stepwise(program, stride=1)
    assert result.segments > 0
    assert result.outcome.agrees_with(run_vm(program)), \
        result.outcome.describe()
    assert result.counts_agree


def test_reducer_override_calls_bounded(monkeypatch):
    """Only objects that are not plain containers reach Python: a
    400-row state costs a few dozen calls, not one per row."""
    calls = []
    original = continuations._CapturePickler.reducer_override

    def counting(self, obj):
        calls.append(type(obj).__name__)
        return original(self, obj)

    monkeypatch.setattr(continuations._CapturePickler, "reducer_override",
                        counting)
    env = deploy_churn("paper")
    persisted = []
    service = env.workflows["Churn"]
    encode = service.codec.dumps

    def dumps(state):
        persisted.append(len(calls))
        return encode(state)

    monkeypatch.setattr(service.codec, "dumps", dumps)
    task = env.wait_for_task(env.start("Churn", churn_params()))
    assert task.result == churn_expected()
    per_capture = [b - a for a, b in zip([0] + persisted, persisted)]
    assert len(per_capture) >= CALLS
    assert max(per_capture) <= 64, per_capture


@pytest.fixture
def threaded_rt():
    runtime = Runtime(executor=ThreadPoolFutureExecutor(max_workers=2))
    yield runtime
    runtime.shutdown()


@pytest.mark.parametrize("holder, reader", [
    ("f", "held"),
    # a callable instance is state: the pickle reaches the future in it
    # (in a closure, since a host call forces a future argument)
    ("(constantly (let ((g f)) (lambda () g)))", "(funcall (funcall held))"),
], ids=["bound", "in-callable-instance"])
def test_running_future_is_determined_in_the_capture(threaded_rt, holder,
                                                      reader):
    """The future cannot finish before ``arm-release`` runs, so it is
    still running at the ``yield``; the capture waits for it."""
    release = threading.Event()
    timers = []

    def arm_release():
        timers.append(threading.Timer(0.05, release.set))
        timers[-1].start()

    threaded_rt.global_env.define(Symbol("wait-for-release"),
                                  lambda: release.wait(5) and 42)
    threaded_rt.global_env.define(Symbol("arm-release"), arm_release)
    try:
        # only `held` reaches the future at the yield
        result = threaded_rt.start(f"""
            (let* ((f (future (wait-for-release)))
                   (was-determined (determined-p f))
                   (held {holder}))
              (setq f nil)
              (arm-release)
              (yield was-determined)
              (touch {reader}))""")
    finally:
        for timer in timers:
            timer.cancel()
    assert isinstance(result, Yielded) and result.value is False
    assert release.is_set()
    assert threaded_rt.resume(result.continuation, None) == Done(42)


def test_failed_future_raises_at_the_yield(threaded_rt):
    with pytest.raises(UnhandledConditionError):
        threaded_rt.start("""
            (let ((f (future (error "inside the future"))))
              (yield :never-reached)
              :resumed)""")
