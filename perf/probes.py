"""Layer probes: each layer's public functions timed in isolation.

Every probe calls into one layer from here, on inputs harvested through
public API only: the sources of the benchmark's workflows, continuations
from ``Runtime.start``/``Runtime.resume`` on a local yield loop carrying
the same 400-row state the ``suspend_churn`` tasks carry, messages from
``MessageQueue.make_message``.  Microsecond probes report the median of
``n`` individually timed calls (``n`` >= 200 at full size); rate probes
report work per second over the median of a few whole runs.

The probes do not depend on the workload being run: they are the
"engine micro-costs measured in isolation" that the workload's counts
are multiplied with when predicting an end-to-end change.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter, perf_counter_ns
from typing import Any, Callable, Dict, List, Tuple

from repro.bluebox.clock import SimKernel
from repro.bluebox.locks import CoordinatorLockManager, FileLockManager
from repro.bluebox.messagequeue import MessageQueue
from repro.bluebox.store import SharedStore
from repro.durastore import DurableStore
from repro.gvm.frames import GozerFunction
from repro.gvm.interpreter import TreeInterpreter
from repro.gvm.runtime import make_runtime
from repro.history import HistoryLog
from repro.history.recorder import HistoryEvent
from repro.lang.bytecode import nested_code_objects
from repro.lang.reader import read_string
from repro.persistsnap import SnapshotPipeline
from repro.sched.fair import make_policy
from repro.vinz.persistence import (
    CodeRegistry,
    FiberCodec,
    HostFunctionRegistry,
)

from . import workloads

#: name -> (value, number of timed calls or runs behind it)
Results = Dict[str, Tuple[float, int]]


def _p50_us(fn: Callable[[], Any], n: int,
            before: Callable[[], Any] = lambda: None) -> Tuple[float, int]:
    """Median microseconds of ``n`` calls; ``before`` runs untimed
    ahead of each."""
    samples = []
    for _ in range(n):
        before()
        t0 = perf_counter_ns()
        fn()
        samples.append(perf_counter_ns() - t0)
    return statistics.median(samples) / 1e3, n


def _median_seconds(fn: Callable[[], Any], runs: int) -> float:
    samples = []
    for _ in range(runs):
        t0 = perf_counter()
        fn()
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# lang: reader and compiler over the benchmark's own workflow sources
# ---------------------------------------------------------------------------

def lang_probes(n: int) -> Results:
    sources: Dict[str, Any] = {}
    for workload in workloads.WORKLOADS.values():
        if workload.source not in sources:
            # a deployed service's runtime has the Vinz macros
            # (for-each, deflink) the sources need to compile
            env = workloads.deploy(workload)
            sources[workload.source] = env.workflows[workload.workflow].runtime
    rounds = max(1, n // 8)
    forms = read_s = 0
    for _ in range(rounds):
        for source, runtime in sources.items():
            t0 = perf_counter()
            forms += len(runtime.read_all(source))
            read_s += perf_counter() - t0
    compiled = emitted = compile_s = 0
    for _ in range(rounds):
        for source, runtime in sources.items():
            for form in runtime.read_all(source):
                t0 = perf_counter()
                code = runtime.compile(form)
                compile_s += perf_counter() - t0
                compiled += 1
                emitted += sum(len(c.instructions)
                               for c in nested_code_objects(code))
    return {
        "lang.read_forms_per_s": (forms / read_s, forms),
        "lang.compile_forms_per_s": (compiled / compile_s, compiled),
        "lang.compile_instr_emitted": (emitted / rounds, rounds),
    }


# ---------------------------------------------------------------------------
# gvm: dispatch rate, tree-walker ratio, yield/resume round trip
# ---------------------------------------------------------------------------

#: bench_gvm's three programs (loop-sum shortened to fit the run's time
#: budget) plus a closure-calling one (the tree-walker
#: has no mapcar/funcall, so the closure is called by name); (definitions, call, expected)
GVM_PROGRAMS = {
    "call_heavy": (
        "(defun bfib (n) (if (< n 2) n (+ (bfib (- n 1)) (bfib (- n 2)))))",
        "(bfib 17)", 1597),
    "branch_heavy": (
        "(defun bsum (n) (let ((acc 0) (i 0)) "
        "(while (< i n) (setq acc (+ acc i)) (setq i (+ i 1))) acc))",
        "(bsum 10000)", sum(range(10000))),
    "macro_heavy": (
        "(defun process (items) (let ((acc 0)) "
        "(dolist (x items) (when (evenp x) (incf acc (* x x)))) acc))",
        "(dotimes (rep 300 (process (list 1 2 3 4 5 6 7 8)))"
        " (process (list 1 2 3 4 5 6 7 8)))", 4 + 16 + 36 + 64),
    "closure_hof": (
        "(defun make-scaler (k) (lambda (x) (* k x))) "
        "(defun scaled-sum (items) (let ((f (make-scaler 3)) (acc 0)) "
        "(dolist (x items) (setq acc (+ acc (f x)))) acc))",
        "(dotimes (rep 300 (scaled-sum (list 1 2 3 4 5 6 7 8)))"
        " (scaled-sum (list 1 2 3 4 5 6 7 8)))", 3 * 36),
}

YIELD_LOOP = """
(defun churn-loop (width)
  (let ((rows (loop for i from 0 below width collect
                    (list i (* i i) "row-payload")))
        (acc 0))
    (while t
      (let ((k (yield acc)))
        (setq acc (+ acc (second (nth k rows))))
        (setf (nth k rows) (list k acc "row-payload"))))))
"""


def churn_continuations(count: int):
    """``count`` successive continuations of the yield loop, one row
    changed between each, and the runtime that made them."""
    runtime = make_runtime(deterministic=True)
    runtime.eval_string(YIELD_LOOP)
    step = runtime.start(f"(churn-loop {workloads.CHURN_WIDTH})")
    states = [step.continuation]
    for index in range(1, count):
        step = runtime.resume(step.continuation,
                              (index * 37) % workloads.CHURN_WIDTH)
        states.append(step.continuation)
    return runtime, states


def gvm_probes(n: int) -> Results:
    out: Results = {}
    runs = 3 if n >= 200 else 1
    ratios = []
    for name, (definitions, call, expected) in GVM_PROGRAMS.items():
        vm_runtime = make_runtime(deterministic=True)
        vm_runtime.eval_string(definitions)
        code = vm_runtime.compile(read_string(call))
        executed = []

        def run_vm():
            vm = vm_runtime.new_vm()
            if vm.run_code(code).value != expected:
                raise AssertionError(f"gvm probe {name}: wrong value")
            executed.append(vm.instruction_count)

        vm_s = _median_seconds(run_vm, runs)
        out[f"gvm.minstr_per_s.{name}"] = (executed[0] / vm_s / 1e6, runs)

        tree_runtime = make_runtime(deterministic=True)
        interpreter = TreeInterpreter(tree_runtime.global_env,
                                      apply_fn=tree_runtime.apply)
        for form in tree_runtime.read_all(definitions):
            interpreter.eval(form)
        form = read_string(call)

        def run_tree():
            if interpreter.eval(form) != expected:
                raise AssertionError(f"tree probe {name}: wrong value")

        ratios.append(_median_seconds(run_tree, runs) / vm_s)
    out["gvm.tree_speedup_geomean"] = (
        math.exp(sum(map(math.log, ratios)) / len(ratios)), runs)

    runtime, states = churn_continuations(1)
    state = [states[0]]

    def round_trip():
        state[0] = runtime.resume(state[0], 7).continuation

    out["gvm.yield_resume_us"] = _p50_us(round_trip, n)
    return out


# ---------------------------------------------------------------------------
# vinz codec and persistsnap pipeline, on 24 successive versions of the state
# ---------------------------------------------------------------------------

def _codec_for(runtime) -> FiberCodec:
    """The paper's custom codec with the runtime's program registered,
    as a deployed workflow service sets it up."""
    registry, hosts = CodeRegistry(), HostFunctionRegistry()
    for name, value in runtime.global_env.variables.items():
        if isinstance(value, GozerFunction):
            registry.register_tree(value.code)
        elif callable(value):
            hosts.register(name.name, value)
    return FiberCodec("custom", registry=registry, hosts=hosts)


def persistence_probes(n: int) -> Results:
    runtime, states = churn_continuations(workloads.CHURN_CALLS)
    codec = _codec_for(runtime)
    blob = codec.dumps(states[-1])
    out: Results = {
        "vinz.codec_dumps_us": _p50_us(lambda: codec.dumps(states[-1]), n),
        "vinz.codec_loads_us": _p50_us(lambda: codec.loads(blob), n),
        "vinz.codec_bytes_per_state": (float(len(blob)), 1),
    }

    pipeline = SnapshotPipeline(codec, SharedStore())
    key = "fiber-state/probe"
    encode_ns: List[int] = []
    load_ns: List[int] = []
    while len(encode_ns) < n:
        for state in states:
            t0 = perf_counter_ns()
            write = pipeline.encode(key, state, fiber_id="probe")
            encode_ns.append(perf_counter_ns() - t0)
            # what the service's commit hook does: land the manifest,
            # then drop the previous version's stale chunks
            pipeline.store.write(key, write.blob)
            write.release()
            t0 = perf_counter_ns()
            pipeline.load(write.blob, fiber_id="probe")
            load_ns.append(perf_counter_ns() - t0)
    out["persistsnap.encode_us"] = (statistics.median(encode_ns) / 1e3,
                                    len(encode_ns))
    out["persistsnap.load_us"] = (statistics.median(load_ns) / 1e3,
                                  len(load_ns))
    return out


# ---------------------------------------------------------------------------
# history log, replay, durable store (on a small durable churn run)
# ---------------------------------------------------------------------------

def durable_probes(n: int) -> Results:
    workload = workloads.WORKLOADS["suspend_churn_durable"]
    ops = workload.make_ops(0, workload.small())
    env = workloads.deploy(workload)
    issued = workloads.drive(env, workload, ops)
    task_id = issued[0][0]
    codec = env.workflows[workload.workflow].codec
    events = env.history.events_of(task_id)
    out: Results = {}

    # one committed window records about three events
    log = HistoryLog(SharedStore())
    batches = [[HistoryEvent(i + j, e.kind, e.fiber, e.payload)
                for j, e in enumerate(events[i:i + 3])]
               for i in range(0, len(events), 3)]
    cursor = [0]

    def append():
        index = cursor[0]
        cursor[0] += 1
        log.append_batch(f"probe-{index // len(batches)}",
                         batches[index % len(batches)], codec)

    # whole tasks only, so that every probe task reads back complete
    appends = len(batches) * max(1, round(n / len(batches)))
    out["history.append_us"] = _p50_us(append, appends)
    out["history.read_task_us"] = _p50_us(
        lambda: log.read_task("probe-0", codec), n)

    replayed = []

    def replay():
        replayed.append(env.replay_task(task_id).instructions)

    runs = max(3, n // 20)
    replay_s = _median_seconds(replay, runs)
    out["history.replay_minstr_per_s"] = (replayed[0] / replay_s / 1e6, runs)

    store = DurableStore(shards=4)
    payload = b"x" * 2048
    counter = [0]

    def window():
        index = counter[0]
        counter[0] += 1
        store.begin_window()
        for part in range(3):
            store.write(f"probe/{index}/{part}", payload)
        if index:
            store.delete(f"probe/{index - 1}/0")
        store.commit_batch(store.seal_window())

    out["durastore.window_commit_us"] = _p50_us(window, n)
    # recovery replays the journal those windows left behind
    runs = max(3, n // 40)
    out["durastore.recover_s"] = (_median_seconds(store.recover, runs), runs)
    return out


# ---------------------------------------------------------------------------
# bluebox: queue hop, lock cycle, event loop; sched: the two queue policies
# ---------------------------------------------------------------------------

def _queue_hop(queue: MessageQueue) -> Callable[[], None]:
    body = {"fiber": "fiber-1", "task": "task-1"}

    def hop():
        message = queue.make_message("Probe", "RunFiber", body, now=1.0)
        queue.enqueue(message, 1.0)
        queue.pop_next("Probe", 1.002)

    return hop


def _lock_cycle(locks) -> Callable[[], None]:
    locks.configure_leases(ttl=2.0, clock_now=lambda: 0.0)

    def cycle():
        if not locks.try_acquire("fiber/probe", "node-1/Probe#1"):
            raise AssertionError("lock probe: could not acquire")
        locks.renew_owner("node-1/Probe#1")
        locks.release("fiber/probe", "node-1/Probe#1")

    return cycle


def bluebox_probes(n: int) -> Results:
    out: Results = {
        "bluebox.queue_hop_us": _p50_us(_queue_hop(MessageQueue()), n),
        "bluebox.lock_cycle_us.coordinator": _p50_us(
            _lock_cycle(CoordinatorLockManager()), n),
        "bluebox.lock_cycle_us.file": _p50_us(
            _lock_cycle(FileLockManager(SharedStore(),
                                        clock_now=lambda: 0.0)), n),
    }
    events = 100 * n
    runs = 3

    def event_loop():
        kernel = SimKernel()
        for index in range(events):
            kernel.schedule(index * 1e-3, _noop)
        kernel.run_until_idle()

    out["bluebox.kernel_events_per_s"] = (
        events / _median_seconds(event_loop, runs), runs)

    for policy in ("strict", "fair"):
        queue = MessageQueue(policy=make_policy(policy))
        # a standing backlog over four workflows, so that a pop chooses
        for index in range(64):
            queue.enqueue(queue.make_message(
                "Probe", "RunFiber",
                {"fiber": f"fiber-{index}", "task": f"task-{index % 4}"},
                now=0.0), 0.0)

        def refill(queue=queue):
            queue.enqueue(queue.make_message(
                "Probe", "RunFiber", {"fiber": "fiber-x", "task": "task-1"},
                now=1.0), 1.0)

        out[f"sched.policy_pop_us.{policy}"] = _p50_us(
            lambda queue=queue: queue.pop_next("Probe", 1.002), n,
            before=refill)
    return out


def _noop() -> None:
    pass


def run_all(n: int = 200) -> Results:
    """Every probe.  ``n`` is the number of timed calls behind each
    microsecond figure (``--smoke`` passes a tenth)."""
    out: Results = {}
    for probe in (lang_probes, gvm_probes, persistence_probes,
                  durable_probes, bluebox_probes):
        out.update(probe(n))
    return out
