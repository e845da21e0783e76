"""Continuation capture is one pickle and resume one unpickle.

No ``copy.deepcopy`` anywhere on the suspension path, a bounded number
of Python-level pickler calls for a large state, and the determination
rule (Section 4.1) enforced by the pickle itself: a future still running
at ``yield`` is waited for, a failed one raises at the ``yield``.
"""

import copy
import gc
import os
import sys
import threading

import pytest

from repro.conformance import load_dir, run_stepwise, run_vm
from repro.durastore import DurableStore
from repro.gvm import continuations
from repro.gvm import vm as vm_module
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


def test_capture_python_calls_bounded(monkeypatch):
    """Only code objects reach Python: a 400-row state costs a few
    dozen Python-level calls per persisted capture (the capture and
    the codec's re-pickle of it), not one per row."""
    captures = []
    capture = vm_module.capture

    def counted_capture(*args, **kwargs):
        out = []
        captures.append(python_calls(
            lambda: out.append(capture(*args, **kwargs))))
        return out[0]

    monkeypatch.setattr(vm_module, "capture", counted_capture)
    env = deploy_churn("paper")
    service = env.workflows["Churn"]
    encode = service.codec.dumps
    per_capture = []

    def dumps(state):
        out = []
        calls = python_calls(lambda: out.append(encode(state)))
        if isinstance(state, continuations.Continuation):
            per_capture.append(captures[-1] + calls)
        return out[0]

    monkeypatch.setattr(service.codec, "dumps", dumps)
    task = env.wait_for_task(env.start("Churn", churn_params()))
    assert task.result == churn_expected()
    assert len(per_capture) >= CALLS
    assert max(per_capture) <= 64, per_capture


def churn_blobs(width):
    """Run the churn workflow at ``width`` rows; return its codec, the
    last continuation it persisted and a fork thunk over the rows."""
    env = VinzEnvironment(nodes=4, slots=2, seed=0, trace=False)
    env.deploy_workflow("Churn", CHURN)
    service = env.workflows["Churn"]
    codec = service.codec
    states = []
    encode = codec.dumps

    def dumps(state):
        states.append(state)
        return encode(state)

    touch = [(i * 37) % width for i in range(CALLS)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codec, "dumps", dumps)
        task = env.wait_for_task(env.start(
            "Churn", [Keyword("width"), width, Keyword("touch"), touch]))
    assert task.status == COMPLETED
    continuation = [s for s in states
                    if isinstance(s, continuations.Continuation)][-1]
    rows = [[i, i * i, "row-payload"] for i in range(width)]
    thunk = (service.runtime.global_env.lookup(Symbol("main")), [rows])
    return codec, continuation, thunk


def python_calls(fn) -> int:
    """Python-level function calls made while ``fn`` runs."""
    calls = []

    def profile(_frame, event, _arg):
        if event == "call":
            calls.append(1)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return len(calls)


@pytest.mark.parametrize("blob", ["continuation", "fork-thunk"])
def test_codec_calls_do_not_grow_with_state(blob):
    """The codec pickles through capture's reducer: a row of plain data
    never reaches Python, so a 400-row state costs what a 40-row one
    does."""
    counts = []
    for width in (40, WIDTH):
        codec, continuation, thunk = churn_blobs(width)
        state = continuation if blob == "continuation" else thunk
        codec.dumps(state)
        counts.append(python_calls(lambda: codec.dumps(state)))
    assert counts[0] == counts[1] <= 64, counts


def test_pickling_leaves_no_cyclic_garbage():
    """Picklers hold no reference to themselves: with the collector
    off, as the benchmark drives, every round is freed by refcount."""
    codec, continuation, thunk = churn_blobs(40)
    gc.collect()
    gc.disable()
    try:
        for _ in range(50):
            frames, handlers, restarts, dynamics = \
                continuations.materialize(continuation)
            again = continuations.capture(frames, handlers, restarts,
                                          dynamics)
            codec.loads(codec.dumps(again))
            codec.dumps(thunk)
        assert gc.collect() == 0
    finally:
        gc.enable()


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


def test_a_host_function_without_an_importable_name_is_kept_by_reference():
    """The C pickler writes a function by its importable name; a lambda
    has none, so the capture retries keying functions, and the resume
    calls the very same function."""
    runtime = Runtime()
    runtime.global_env.define(Symbol("twice"), lambda x: 2 * x)
    yielded = runtime.start("(twice (yield 1))")
    assert isinstance(yielded, Yielded)
    assert yielded.continuation.refs.count(
        runtime.global_env.lookup(Symbol("twice"))) == 1
    assert runtime.resume(yielded.continuation, 21) == Done(42)
