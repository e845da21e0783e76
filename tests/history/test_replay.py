"""Deterministic replay: verification sweeps, divergence detection,
snapshot-interval elision and crash recovery through replay."""

import random

import pytest

from repro.bluebox.services import simple_service
from repro.faults import FaultInjector, RetryPolicy
from repro.faults.campaign import run_campaign
from repro.faults.plan import (
    FAIL_WRITE,
    FaultPlan,
    MessageFault,
    NodeFault,
    StoreFault,
)
from repro.durastore.journal import crc_frame, parse_crc_frames
from repro.history import HistoryEvent, ReplayDivergenceError
from repro.history.log import HISTORY_MAGIC
from repro.history.recorder import SCHEMA_VERSION
from repro.lang.symbols import Keyword, Symbol
from repro.vinz.api import VinzEnvironment
from repro.vinz.execution import GLOBAL_WRITE
from repro.vinz.task import COMPLETED, ERROR

CHAOS = FaultPlan([
    MessageFault("drop", operation="RunFiber", nth=2, count=2),
    MessageFault("duplicate", operation="AwakeFiber", nth=1, count=2),
    NodeFault("crash", at=1.0, restart_after=2.0),
], name="chaos")

CRASHY = FaultPlan([
    NodeFault("crash", on_lock=3, restart_after=2.0),
    NodeFault("crash", on_persist=5, restart_after=2.0),
    MessageFault("drop", operation="RunFiber", nth=1, count=2),
], name="crashy")

#: a workflow exercising the recorded-nondeterminism builtins: clock
#: reads, RNG draws, gensym — all must replay from history, not rerun
NONDET_WORKFLOW = """
(defun main (params)
  (let* ((items (getf params :items))
         (t0 (get-universal-time))
         (tag (gensym "run"))
         (doubled (for-each (x in items)
                    (compute 0.1)
                    (+ (* x 2) (random 1)))))
    (list :total (apply #'+ doubled)
          :started (< t0 (get-universal-time))
          :tag (if tag 1 0))))
"""


def forge_history(env, task_id, edit):
    """Rewrite the durable history of ``task_id`` as a damaged log
    would hold it: ``edit`` changes the decoded events in place (an
    event it appends joins the last batch), and every batch is framed
    and written back under its own key.  Returns the edited events."""
    log, store = env.history_log, env.store
    codec = env.workflows[env.registry.tasks[task_id].workflow].codec
    batches = []
    while store.exists(log._key(task_id, len(batches))):
        (payload,), _, _ = parse_crc_frames(
            store.read(log._key(task_id, len(batches))), HISTORY_MAGIC)
        _version, rows = codec.loads(payload)
        batches.append([HistoryEvent(*row) for row in rows])
    events = [event for batch in batches for event in batch]
    edit(events)
    batches[-1].extend(events[sum(map(len, batches)):])
    for index, batch in enumerate(batches):
        rows = [(e.seq, e.kind, e.fiber, e.payload) for e in batch]
        store.write(log._key(task_id, index), crc_frame(
            codec.dumps((SCHEMA_VERSION, rows)), HISTORY_MAGIC))
    return events


def forge_payload(env, task_id, matches, **fields):
    """Forge ``fields`` into the first stored event ``matches``
    accepts; returns that event."""
    forged = []

    def edit(events):
        victim = next(e for e in events if matches(e))
        victim.payload = dict(victim.payload, **fields)
        forged.append(victim)

    forge_history(env, task_id, edit)
    return forged[0]


class TestVerificationReplay:
    def test_chaos_campaign_replays_with_zero_divergences(self):
        report = run_campaign(CHAOS, seed=17, tasks=6, history="on")
        assert report.all_completed, report.statuses
        replays = report.replay_all()
        assert len(replays) == 6
        assert sum(r.windows for r in replays) > 6
        assert sum(r.instructions for r in replays) > 0
        assert report.env.cluster.metrics.get("history.replays") == 6

    def test_nondet_builtins_replay_from_history(self):
        env = VinzEnvironment(nodes=3, seed=23, history="on")
        env.deploy_workflow("Nondet", NONDET_WORKFLOW, spawn_limit=2)
        task_id = env.run("Nondet", [Keyword("items"), [1, 2, 3, 4]])
        assert env.registry.tasks[task_id].status == COMPLETED
        kinds = {e.payload.get("op") for e in env.history.events_of(task_id)
                 if e.kind == "nondet"}
        assert "clock" in kinds
        assert "random" in kinds
        assert "gensym" in kinds
        report = env.replay_task(task_id)
        assert report.fibers_replayed == 5

    def test_divergence_pinpoints_first_mismatch(self):
        """Tamper with one recorded nondet value: replay must fail at
        exactly that event, naming the fiber and sequence number."""
        env = VinzEnvironment(nodes=3, seed=23, history="on")
        env.deploy_workflow("Nondet", NONDET_WORKFLOW, spawn_limit=2)
        task_id = env.run("Nondet", [Keyword("items"), [1, 2]])
        victim = forge_payload(
            env, task_id, lambda e: e.kind == "nondet"
            and e.payload.get("op") == "collect",
            value=[("completed", 999, None)] * 2)
        with pytest.raises(ReplayDivergenceError) as info:
            env.replay_task(task_id)
        err = info.value
        assert err.task == task_id
        assert err.fiber == victim.fiber
        assert err.seq is not None

    def test_tampered_result_detected(self):
        env = VinzEnvironment(nodes=3, seed=23, history="on")
        env.deploy_workflow("Nondet", NONDET_WORKFLOW, spawn_limit=2)
        task_id = env.run("Nondet", [Keyword("items"), [1, 2]])
        root = env.registry.tasks[task_id].fiber_ids[0]
        forge_payload(env, task_id, lambda e: e.kind == "fiber-completed"
                      and e.fiber == root, result="forged")
        with pytest.raises(ReplayDivergenceError):
            env.replay_task(task_id)

    @pytest.mark.parametrize("body", [
        "(list (random 100) (random 100))",
        "(handler-case (list (random 100) (random 100))"
        " (error (c) :swallowed))",
    ], ids=["bare", "handler-case"])
    def test_a_divergence_inside_the_program_names_its_event(self, body):
        """A divergence raised while the replayed program runs leaves
        the VM as it is: no handler of the program can swallow it, and
        it names the event it happened at, not a later one."""
        env = VinzEnvironment(nodes=2, seed=1, history="on")
        env.deploy_workflow("W", f"(defun main (params) {body})")
        task_id = env.run("W", None)
        first = forge_payload(env, task_id, lambda e: e.kind == "nondet",
                              op="get-universal-time")
        with pytest.raises(ReplayDivergenceError) as info:
            env.replay_task(task_id)
        err = info.value
        assert err.seq == first.seq
        assert (err.expected, err.actual) == \
            ("nondet 'get-universal-time'", "nondet 'random'")


#: a service call, a fork and a join: one recorded field of each kind
#: replay checks rather than feeds back
CHECKED_WORKFLOW = """
(deflink E :wsdl "urn:echo")
(defun main (params)
  (let ((child (fork-and-exec (lambda (x) (* x 2)) :argument 3)))
    (list (E-Echo-Method :x 1) (join-process child))))
"""

#: every field a history event may carry: each is fed back into the
#: replayed fiber or checked against it
FIELDS = {
    "task-started": {"root", "params", "workflow"},
    "fiber-forked": {"child", "fn", "args", "notify",
                     "chain", "children", "items"},
    "nondet": {"op", "value"},
    "fiber-suspended": {"why", "version", "soap_action"},
    "service-completed": {"value"},
    "timer-fired": {"value"},
    "fiber-joined": {"value"},
    "message-delivered": {"value"},
    "fiber-completed": {"result"},
    "fiber-failed": {"error"},
}


class TestTheHistoryHoldsWhatReplayReads:
    @staticmethod
    def _checked_run():
        env = VinzEnvironment(nodes=2, seed=3, history="on")
        env.deploy_service(simple_service(
            "Echo", {"Echo": lambda ctx, body: body.get("x")},
            namespace="urn:echo", parameters={"Echo": ["x"]}))
        env.deploy_workflow("W", CHECKED_WORKFLOW)
        task_id = env.run("W", None)
        assert env.registry.tasks[task_id].result == [1, 6]
        env.replay_task(task_id)
        return env, task_id

    @pytest.mark.parametrize("kind, field, forged", [
        ("fiber-suspended", "soap_action", "urn:echo:Other"),
        ("fiber-suspended", "why", "sleep"),
        ("fiber-forked", "notify", True),
        ("task-started", "root", "fiber-999"),
        ("task-started", "workflow", "V"),
    ])
    def test_a_tampered_checked_field_diverges_at_its_event(
            self, kind, field, forged):
        env, task_id = self._checked_run()
        victim = forge_payload(env, task_id, lambda e: e.kind == kind
                               and field in e.payload, **{field: forged})
        with pytest.raises(ReplayDivergenceError) as info:
            env.replay_task(task_id)
        assert info.value.seq == victim.seq
        assert repr(forged) in info.value.expected

    def test_every_recorded_event_and_field_is_read_by_replay(self):
        """A chaos campaign's durable history holds one task-scoped
        TaskStarted per task and otherwise only events the replay
        cursor consumes, each carrying only fields replay reads."""
        report = run_campaign(CHAOS, seed=17, tasks=6, history="on")
        assert report.all_completed, report.statuses
        env = report.env
        replays = {replay.task: replay for replay in report.replay_all()}
        assert len(replays) == 6
        kinds = set()
        for task_id, replay in replays.items():
            codec = env.workflows["Campaign"].codec
            events = env.history_log.read_task(task_id, codec)
            task_scoped = [e.kind for e in events if e.fiber is None]
            assert task_scoped == ["task-started"]
            assert replay.events_consumed == len(events) - 1
            for event in events:
                kinds.add(event.kind)
                assert set(event.payload) <= FIELDS[event.kind], event
        assert {"fiber-suspended", "service-completed",
                "fiber-forked"} <= kinds


class TestFailedWhileSuspended:
    """The platform fails a suspended fiber: its stream records
    FiberSuspended, then FiberFailed where a resume would be.  Replay
    ends the fiber there with the recorded error.  A fiber whose first
    delivery dead-lettered never ran: its stream is that FiberFailed
    alone, and replay ends it without running it."""

    def _replay(self, env, task_id):
        task = env.registry.tasks[task_id]
        assert task.status == ERROR
        assert [e.kind for e in env.history.events_of(task_id)][-2:] == \
            ["fiber-suspended", "fiber-failed"]
        report = env.replay_task(task_id)  # raises on a divergence
        assert report.fibers_replayed == 1 and not report.partial_fibers
        return task

    def test_join_on_a_missing_process(self):
        env = VinzEnvironment(nodes=2, seed=5, history="on")
        env.deploy_workflow("W", '(defun main (p) (join-process "nobody"))')
        task = self._replay(env, env.run("W", None))
        assert "NoSuchProcess" in task.error

    def test_dead_lettered_wake_up(self):
        env = VinzEnvironment(nodes=2, seed=5, history="on",
                              retry_policy=RetryPolicy(
                                  max_attempts=3, base_delay=0.01,
                                  max_delay=0.1, jitter=0.0))
        env.deploy_workflow("W", """
            (defun main (p) (workflow-sleep 1) (workflow-sleep 1) :done)""")
        # the first persist succeeds; resuming from it never can
        FaultInjector(5, FaultPlan([StoreFault(
            FAIL_WRITE, key_prefix="fiber-state/", nth=2,
            count=10_000)])).install(env)
        task_id = env.start("W", None)
        env.cluster.run_until_idle()
        task = self._replay(env, task_id)
        assert "dead-lettered" in task.error
        assert env.cluster.queue.dead_lettered == 1

    @staticmethod
    def _runs_dead_lettered(source, nth):
        """Every RunFiber delivery from the ``nth`` on is dropped until
        its message dead-letters."""
        env = VinzEnvironment(nodes=2, seed=5, history="on",
                              retry_policy=RetryPolicy(
                                  max_attempts=3, base_delay=0.01,
                                  max_delay=0.1, jitter=0.0))
        env.deploy_workflow("W", source)
        FaultInjector(5, FaultPlan([MessageFault(
            "drop", operation="RunFiber", nth=nth,
            count=10_000)])).install(env)
        task_id = env.start("W", None)
        env.cluster.run_until_idle()
        assert env.registry.tasks[task_id].status == ERROR
        return env, task_id

    def test_root_fiber_dead_lettered_before_it_ran(self):
        env, task_id = self._runs_dead_lettered("(defun main (p) :done)", 1)
        assert [e.kind for e in env.history.events_of(task_id)] == \
            ["task-started", "fiber-failed"]
        report = env.replay_task(task_id)  # raises on a divergence
        assert report.fibers_replayed == 1 and report.instructions == 0

    def test_child_fiber_dead_lettered_before_it_ran(self):
        env, task_id = self._runs_dead_lettered(
            "(defun main (p) (for-each (x in '(1 2)) x))", 2)
        children = [fiber for fiber in env.registry.fibers.values()
                    if fiber.parent_id is not None]
        assert len(children) == 2
        for child in children:
            assert [e.kind for e in env.history.events_of(task_id)
                    if e.fiber == child.id] == ["fiber-failed"]
        report = env.replay_task(task_id)
        assert report.fibers_replayed == 3 and not report.partial_fibers

    def test_events_after_the_failure_diverge(self):
        env = VinzEnvironment(nodes=2, seed=5, history="on")
        env.deploy_workflow("W", '(defun main (p) (join-process "nobody"))')
        task_id = env.run("W", None)
        failed = forge_history(env, task_id, lambda events: events.append(
            HistoryEvent(events[-1].seq + 1, events[-1].kind,
                         events[-1].fiber, events[-1].payload)))[-2]
        with pytest.raises(ReplayDivergenceError) as info:
            env.replay_task(task_id)
        assert info.value.seq == failed.seq + 1


class TestSnapshotInterval:
    def test_interval_skips_persists_and_still_completes(self):
        report = run_campaign(CHAOS, seed=17, tasks=6, history="on",
                              snapshot_interval=8)
        assert report.all_completed, report.statuses
        assert report.wrong_results() == []
        assert report.env.counters.get("persist.skipped") > 0
        report.replay_all()

    def test_interval_writes_fewer_bytes(self):
        every = run_campaign(CHAOS, seed=17, tasks=6, history="on",
                             snapshot_interval=1)
        sparse = run_campaign(CHAOS, seed=17, tasks=6, history="on",
                              snapshot_interval=8)
        assert sparse.env.counters.get_sum("persist.bytes") < \
            every.env.counters.get_sum("persist.bytes")
        assert sparse.env.counters.get("persist.writes") < \
            every.env.counters.get("persist.writes")

    def test_elided_version_rebuilt_by_replay(self):
        """Evict the fiber caches mid-run under an interval: loading a
        version that was never persisted must rebuild it from
        history (history.rebuilds ticks up) with correct results."""
        report = run_campaign(CRASHY, seed=21, tasks=4, nodes=4,
                              history="on", snapshot_interval=8,
                              locks="file", lease_ttl=1.0)
        assert report.all_completed, report.statuses
        assert report.wrong_results() == []
        assert report.env.counters.get("history.rebuilds") > 0
        report.replay_all()


    def test_a_rebuild_from_the_start_sees_the_params_the_task_began_with(self):
        """The main fiber's first window changes its params; a rebuild
        of a later version re-executes from the params as started."""
        env = VinzEnvironment(nodes=2, seed=1, history="on",
                              snapshot_interval=8)
        env.deploy_workflow("W", """
            (defun main (params)
              (setf (first params) (+ (first params) 1))
              (workflow-sleep 0.1)
              (first params))""", cache_capacity=0)
        assert env.call("W", [1]) == 2
        assert env.metrics.get("history.rebuilds") == 1


class TestReplayRecovery:
    """Recovery on the durable row's path: a snapshot every third
    suspension, and a crashed fiber's elided version rebuilt by replay
    from the newest base."""

    def test_replay_recovery_rebuilds_elided_versions_after_a_crash(self):
        """A node dies holding the only copies of elided versions: each
        comes back by replay, from a snapshot when one was persisted,
        and a snapshot is read only as a version or a rebuild base."""
        env = VinzEnvironment(nodes=3, seed=7, locks="file",
                              lease_ttl=1.0, history="on",
                              snapshot_interval=3)
        state_reads = []
        original_read = env.store.read

        def spying_read(key):
            if key.startswith("fiber-state/"):
                state_reads.append(key)
            return original_read(key)

        env.store.read = spying_read
        env.deploy_workflow("Recovery", """
(defun main (params)
  (let* ((items (getf params :items))
         (doubled (for-each (x in items) (compute 0.4) (* x 2))))
    (list :id (getf params :id) :total (apply #'+ doubled))))
""", spawn_limit=2)
        rng = random.Random(7)
        inputs = {}
        for i in range(3):
            items = [rng.randint(1, 9) for _ in range(6)]
            inputs[i] = items
            env.cluster.send("Recovery", "Start",
                             {"params": [Keyword("id"), i,
                                         Keyword("items"), items]})
        env.cluster.kernel.schedule_at(1.0,
                                       lambda: env.fail_node("node-1"))
        env.cluster.run_until_idle()
        bases = env.summary()["history"]["rebuild_base"]
        assert env.counters.get("history.rebuilds") > 0
        assert bases["snapshot"] > 0, bases
        # every snapshot read is a load of a persisted version (a cache
        # miss) or the base of a rebuild
        assert len(state_reads) == (env.counters.get("cache.mutable.miss")
                                    - bases["start"] - bases["cache"])
        for task in env.registry.tasks.values():
            assert task.status == COMPLETED, (task.id, task.error)
            plist = {task.result[i].name: task.result[i + 1]
                     for i in range(0, len(task.result), 2)}
            assert plist["total"] == sum(x * 2
                                         for x in inputs[plist["id"]])
            env.replay_task(task.id)

    def test_replay_recovery_lock_invariants(self):
        """The lease-recovery campaign's verdict with elided versions
        rebuilt by replay: nothing stuck, nothing double-run, answers
        right."""
        report = run_campaign(CRASHY, seed=21, tasks=4, nodes=4,
                              history="on", snapshot_interval=3,
                              locks="file", lease_ttl=1.0)
        assert report.all_completed, report.statuses
        assert report.wrong_results() == []
        assert report.stuck_fibers() == []
        assert report.single_runner_violations() == []
        report.replay_all()

    def test_replay_recovery_matches_snapshot_recovery_results(self):
        """A snapshot at every suspension and one every third give the
        same answers under the same crashes."""
        snap = run_campaign(CRASHY, seed=33, tasks=4, history="on",
                            snapshot_interval=1)
        repl = run_campaign(CRASHY, seed=33, tasks=4, history="on",
                            snapshot_interval=3)
        def totals(report):
            out = {}
            for task in report.env.registry.tasks.values():
                plist = {task.params[i].name: task.params[i + 1]
                         for i in range(0, len(task.params), 2)}
                rlist = {task.result[i].name: task.result[i + 1]
                         for i in range(0, len(task.result), 2)}
                out[plist["id"]] = rlist["total"]
            return out
        assert totals(snap) == totals(repl)
        assert repl.env.counters.get("persist.skipped") > 0


class TestAFiberWritesNoGlobal:
    """A program's globals live in its runtime, not in a fiber's
    history: a rebuild that re-executed a global write would write it
    again (``*n*`` read 3 instead of 1 once two rebuilds replayed it).
    A fiber's write of a global is refused with a typed fault instead,
    the same whether the fiber resumes from the cache or by rebuild."""

    COUNTER = """
        (defvar *n* 0)
        (defun main (params)
          (setq *n* (+ *n* 1))
          (workflow-sleep 0.1)
          (workflow-sleep 0.1)
          *n*)"""

    KEPT = """
        (defvar *n* 0)
        (defun bump () (setq *n* (+ *n* 1)))
        (defun main (params)
          (let ((*n* 10))
            (bump)
            (workflow-sleep 0.1)
            (bump)
            (workflow-sleep 0.1)
            (list *n* (handler-case (setq *m* 1)
                        (error (c) (condition-message c))))))"""

    @staticmethod
    def _run(source, capacity):
        env = VinzEnvironment(history="on", snapshot_interval=8)
        env.deploy_workflow("W", source, cache_capacity=capacity)
        task = env.wait_for_task(env.start("W", None))
        env.replay_task(task.id)
        return env, task

    @pytest.mark.parametrize("capacity", [256, 0])
    def test_the_write_is_refused_with_a_typed_fault(self, capacity):
        env, task = self._run(self.COUNTER, capacity)
        assert task.status == ERROR
        assert task.error == (f"{GLOBAL_WRITE}: a fiber cannot write "
                              f"the program global *n*")
        runtime = env.workflows["W"].runtime
        assert runtime.global_env.lookup(Symbol("*n*")) == 0
        assert env.metrics.get("fiber.global-write-refused") == 1

    @pytest.mark.parametrize("capacity", [256, 0])
    def test_a_dynamic_binding_keeps_the_state(self, capacity):
        """A binding the fiber made is its state and survives the
        suspensions; the refusal is a condition it can handle."""
        env, task = self._run(self.KEPT, capacity)
        assert task.status == COMPLETED
        assert task.result[0] == 12
        assert task.result[1].startswith(GLOBAL_WRITE)
        if capacity == 0:
            assert env.metrics.get("history.rebuilds") == 2
