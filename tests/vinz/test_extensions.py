"""Tests for the Section 5 future-work extensions.

The paper closes with a list of planned improvements; this reproduction
implements four of them, each off by default (the paper's production
behaviour) and switchable:

1. locality-aware placement (``placement="affinity"``) — "devising a
   way to move the processing work to the last location of the data";
2. adaptive migration (``migration_policy="adaptive"``) — "have Vinz
   automatically learn which requests ... do or do not benefit from
   task migration";
3. sibling chaining (``for-each ... :strategy :chain``) — "as the child
   fiber died, it could simply spawn whatever sibling fiber is next
   without involving the parent";
4. deadline-aware scheduling (``scheduling_policy="edf"``) — FCFS "has
   been shown to be suboptimal in the presence of deadlines" (the
   paper's references [7] and [8]).
"""

import pytest

from repro.bluebox.services import simple_service
from repro.vinz import execution
from repro.vinz.api import MIGRATION_THRESHOLD, VinzEnvironment

MULTI_HOP = """
(defun main (params)
  (dotimes (i 6) (workflow-sleep 0.2))
  :done)
"""

FANOUT = """
(defun main (params)
  (for-each (x in params %STRATEGY%) (compute 0.5) (* x x)))
"""


class TestAffinityPlacement:
    def test_affinity_improves_mutable_hit_rate(self):
        rates = {}
        reads = {}
        for placement in ("balanced", "affinity"):
            env = VinzEnvironment(nodes=6, seed=2, placement=placement)
            env.deploy_workflow("W", MULTI_HOP)
            for _ in range(4):
                env.run("W", None)
            rates[placement] = env.cache_hit_rates()["mutable"]
            reads[placement] = env.store.reads
        assert rates["affinity"] > rates["balanced"]
        assert rates["affinity"] > 0.9  # nearly every resume is local
        # a local resume is a store read that never happens
        assert reads["affinity"] < reads["balanced"]

    def test_affinity_hint_counted(self):
        env = VinzEnvironment(nodes=4, seed=3, placement="affinity")
        env.deploy_workflow("W", MULTI_HOP)
        env.run("W", None)
        hits = env.cluster.metrics.get("placement.affinity-hit")
        assert hits > 0

    def test_affinity_is_soft_busy_node_falls_back(self):
        """When the preferred node is busy, work goes elsewhere —
        affinity must never deadlock or starve."""
        env = VinzEnvironment(nodes=2, seed=4, placement="affinity")
        env.deploy_workflow("W", """
            (defun main (params)
              (for-each (x in params) (compute 1.0) x))""",
            spawn_limit=8)
        assert env.call("W", [1, 2, 3, 4, 5, 6]) == [1, 2, 3, 4, 5, 6]
        misses = env.cluster.metrics.get("placement.affinity-miss")
        assert misses >= 0  # fallback path exists and is harmless

    def test_affinity_survives_node_failure(self):
        """A dead preferred node must not strand the fiber."""
        env = VinzEnvironment(nodes=3, seed=5, placement="affinity")
        env.deploy_workflow("W", MULTI_HOP)
        task = env.start("W", None)
        env.cluster.run_until(
            lambda: any(e.kind == "fiber-suspend"
                        for e in env.cluster.tracer.events))
        fiber = env.registry.fibers_of(task)[0]
        env.fail_node(fiber.last_node)
        assert env.wait_for_task(task).status == "completed"

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError):
            VinzEnvironment(nodes=1, placement="psychic")


class TestAdaptiveMigration:
    def _env(self, policy):
        env = VinzEnvironment(nodes=4, seed=6)
        env.migration_policy = policy

        def fast(ctx, body):
            ctx.charge(0.001)
            return "fast"

        def slow(ctx, body):
            ctx.charge(2.0)
            return "slow"

        env.deploy_service(simple_service(
            "Mixed", {"Fast": fast, "Slow": slow}, namespace="urn:mixed"))
        env.deploy_workflow("W", """
            (deflink M :wsdl "urn:mixed")
            (defun main (params)
              (dotimes (i 4) (M-Fast-Method))
              (M-Slow-Method))""")
        return env

    def test_programmer_policy_always_migrates(self):
        env = self._env("programmer")
        env.call("W", None)
        # every service call migrated: 5 ResumeFromCalls
        assert env.cluster.metrics.get("op.W.ResumeFromCall") == 5

    def test_adaptive_learns_to_skip_migration_for_fast_ops(self):
        env = self._env("adaptive")
        env.call("W", None)   # first task explores
        env.call("W", None)   # second task exploits
        env.call("W", None)
        # fast ops stopped migrating after the first observation;
        # the slow op still migrates every time
        resumes = env.cluster.metrics.get("op.W.ResumeFromCall")
        sync_fast = env.cluster.metrics.get("sync.Mixed.Fast")
        assert sync_fast >= 8   # most fast calls went synchronous
        assert resumes < 15     # far fewer migrations than programmer mode
        # the learner's table has both operations
        assert any(a.endswith(":Fast") for a in env.service_latency)
        assert any(a.endswith(":Slow") for a in env.service_latency)

    def test_adaptive_persists_less_than_programmer(self):
        """A call that does not migrate does not suspend, so it does
        not persist either."""
        writes = {}
        for policy in ("programmer", "adaptive"):
            env = self._env(policy)
            for _ in range(3):
                env.call("W", None)
            writes[policy] = env.counters.get("persist.writes")
        assert writes["adaptive"] < writes["programmer"]

    def test_adaptive_keeps_migrating_slow_ops(self):
        env = self._env("adaptive")
        for _ in range(3):
            env.call("W", None)
        slow_latency = [v for k, v in env.service_latency.items()
                        if k.endswith(":Slow")][0]
        assert slow_latency > MIGRATION_THRESHOLD
        assert env.should_migrate("urn:mixed:Slow") is True
        assert env.should_migrate("urn:mixed:Fast") is False

    def test_unknown_operation_migrates_to_explore(self):
        env = self._env("adaptive")
        assert env.should_migrate("urn:never-seen:Op") is True

    def test_ewma_update(self):
        env = VinzEnvironment(nodes=1, seed=0)
        env.record_service_latency("a:Op", 1.0)
        assert env.service_latency["a:Op"] == 1.0
        env.record_service_latency("a:Op", 0.0)
        assert 0.5 < env.service_latency["a:Op"] < 1.0  # smoothed


class TestSiblingChaining:
    def _run(self, strategy, items, spawn_limit=2, seed=7):
        env = VinzEnvironment(nodes=4, seed=seed)
        source = FANOUT.replace("%STRATEGY%",
                                ":strategy :chain" if strategy == "chain"
                                else "")
        env.deploy_workflow("W", source, spawn_limit=spawn_limit)
        result = env.call("W", items)
        return env, result

    def test_chain_results_match_awake(self):
        items = [1, 2, 3, 4, 5, 6, 7]
        _, chain = self._run("chain", items)
        _, awake = self._run("awake", items)
        assert chain == awake == [x * x for x in items]

    def test_chain_single_parent_wakeup(self):
        """N children cost 1 AwakeFiber instead of N."""
        env, _ = self._run("chain", list(range(8)))
        assert env.cluster.metrics.get("op.W.AwakeFiber") == 1

    def test_awake_strategy_wakes_parent_per_child(self):
        env, _ = self._run("awake", list(range(8)))
        assert env.cluster.metrics.get("op.W.AwakeFiber") >= 8

    def test_chain_delivers_fewer_messages(self):
        chain, _ = self._run("chain", list(range(8)))
        awake, _ = self._run("awake", list(range(8)))
        assert chain.cluster.queue.delivered < awake.cluster.queue.delivered

    def test_chain_respects_spawn_limit(self):
        """At most `limit` chain children run concurrently."""
        env, _ = self._run("chain", list(range(6)), spawn_limit=2)
        events = [e for e in env.cluster.tracer.events
                  if e.kind in ("fiber-run", "fiber-complete")
                  and e.detail.get("fiber") != "fiber-1"]
        running = 0
        peak = 0
        for event in events:
            if event.kind == "fiber-run":
                running += 1
                peak = max(peak, running)
            else:
                running -= 1
        assert peak <= 2

    def test_chain_parent_suspends_once(self):
        env, _ = self._run("chain", list(range(6)))
        parent_suspends = [e for e in env.cluster.tracer.events
                           if e.kind == "fiber-suspend"
                           and e.detail.get("fiber") == "fiber-1"]
        assert len(parent_suspends) == 1

    def test_chain_empty_sequence(self):
        _, result = self._run("chain", [])
        assert result == []

    def test_chain_child_failure_surfaces(self):
        from repro.vinz.api import WorkflowError

        env = VinzEnvironment(nodes=4, seed=8)
        env.deploy_workflow("W", """
            (defun main (params)
              (for-each (x in params :strategy :chain)
                (if (= x 3) (error "bad") x)))""")
        with pytest.raises(WorkflowError):
            env.call("W", [1, 2, 3])

    def test_chain_with_chunking_rejected(self):
        from repro.lang.errors import CompileError

        env = VinzEnvironment(nodes=2, seed=9)
        with pytest.raises(CompileError):
            env.deploy_workflow("W", """
                (defun main (params)
                  (for-each (x in params :chunk-size 2 :strategy :chain)
                    x))""")


class TestDeadlineScheduling:
    def _run_batch(self, policy, seed=14):
        """10 one-second tasks submitted together on a 2-slot cluster;
        deadlines are INVERSE to submission order (the last-submitted
        task has the tightest deadline), so FCFS misses what EDF saves.
        All Starts are enqueued before the simulation runs, so the
        RunFibers genuinely compete in the queue."""
        env = VinzEnvironment(nodes=1, slots=2, seed=seed, trace=False)
        env.scheduling_policy = policy
        env.edf_horizon = 12.0
        env.deploy_workflow("W", """
            (defun main (params) (compute 1.0) :done)""")
        n = 10
        deadlines = []
        for i in range(n):
            deadline = 2.0 + (n - 1 - i) * 0.7  # inverse to submit order
            deadlines.append(deadline)
            env.cluster.send("W", "Start",
                             {"params": i, "deadline": deadline})
        env.cluster.run_until_idle()
        misses = 0
        for task, deadline in zip(env.registry.tasks.values(), deadlines):
            assert task.status == "completed"
            if task.finished_at > deadline:
                misses += 1
        return misses

    def test_edf_reduces_deadline_misses(self):
        fcfs = self._run_batch("fcfs")
        edf = self._run_batch("edf")
        assert edf < fcfs

    def test_fcfs_is_default(self):
        env = VinzEnvironment(nodes=1)
        assert env.scheduling_policy == "fcfs"

    def test_priority_mapping(self):
        env = VinzEnvironment(nodes=1)
        env.scheduling_policy = "edf"
        env.edf_horizon = 60.0
        from repro.vinz.task import TaskRecord

        urgent = TaskRecord(id="t", workflow="W", params=None, deadline=0.0)
        relaxed = TaskRecord(id="t2", workflow="W", params=None,
                             deadline=1000.0)
        none = TaskRecord(id="t3", workflow="W", params=None)
        assert env.message_priority(urgent, 5) == 1
        assert env.message_priority(relaxed, 5) == 8
        assert env.message_priority(none, 5) == 5

    def test_fcfs_ignores_deadlines(self):
        env = VinzEnvironment(nodes=1)
        from repro.vinz.task import TaskRecord

        task = TaskRecord(id="t", workflow="W", params=None, deadline=0.0)
        assert env.message_priority(task, 5) == 5


class TestFiberMailboxes:
    """Extension 5: 'Workflow authors have requested lighter-weight
    cross-process communication mechanisms' (Section 5)."""

    def test_ping_pong(self):
        env = VinzEnvironment(nodes=3, seed=15)
        env.deploy_workflow("W", """
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
                    (list a b (join-process child))))))""")
        from repro.lang.symbols import Keyword

        assert env.call("W", None) == [101, 102, Keyword("ponged")]

    def test_messages_queue_in_order(self):
        env = VinzEnvironment(nodes=2, seed=16)
        env.deploy_workflow("W", """
            (defun main (params)
              (let ((me (get-process-id)))
                ;; a child that fires three messages at us
                (fork-and-exec
                  (lambda (parent)
                    (send-message parent :a)
                    (send-message parent :b)
                    (send-message parent :c))
                  :argument me)
                (list (receive-message) (receive-message)
                      (receive-message))))""")
        from repro.lang.symbols import Keyword as K

        assert env.call("W", None) == [K("a"), K("b"), K("c")]

    def test_receive_fast_path_no_suspend(self):
        """A message already in the mailbox is consumed without a
        yield: the receiver sleeps (the message lands during the sleep,
        appended without waking it), then its receive pops directly --
        so the child's only persisted suspension is the sleep."""
        env = VinzEnvironment(nodes=2, seed=17)
        env.deploy_workflow("W", """
            (defun main (params)
              (let ((child (fork-and-exec
                             (lambda (x)
                               (workflow-sleep 0.5)
                               (receive-message))
                             :arguments (list nil))))
                (send-message child :gift)
                (join-process child)))""")
        from repro.lang.symbols import Keyword

        assert env.call("W", None) == Keyword("gift")
        child = [f for f in env.registry.fibers.values()
                 if f.parent_id is not None][0]
        assert child.version == 1  # the sleep; receive never suspended

    def test_message_to_finished_fiber_dropped(self):
        env = VinzEnvironment(nodes=2, seed=18)
        env.deploy_workflow("W", """
            (defun main (params)
              (let ((child (fork-and-exec (lambda (x) :done)
                                          :arguments (list nil))))
                (join-process child)
                (send-message child :too-late)
                :ok))""")
        from repro.lang.symbols import Keyword

        assert env.call("W", None) == Keyword("ok")

    def test_no_duplicate_delivery_under_lock_contention(self):
        """The regression this feature shipped with: a DeliverMessage
        re-queued against a locked receiver must not duplicate the
        payload."""
        env = VinzEnvironment(nodes=4, seed=19)
        env.deploy_workflow("W", """
            (defun main (params)
              (let ((me (get-process-id)))
                (fork-and-exec
                  (lambda (parent)
                    (dotimes (i 5) (send-message parent i)))
                  :argument me)
                (compute 0.5)  ; stay busy so deliveries hit our lock
                (list (receive-message) (receive-message)
                      (receive-message) (receive-message)
                      (receive-message))))""")
        assert env.call("W", None) == [0, 1, 2, 3, 4]

    def test_duplicate_wake_up_leaves_no_execution_behind(self):
        """A mailbox wake-up that finds the mailbox empty (it raced an
        earlier consumption) returns before the fiber is set up to run:
        no FiberExecution stays current, and the fiber still resumes on
        the next real delivery."""
        from repro.vinz import distribution
        from repro.vinz.service import WorkflowService

        env = VinzEnvironment(nodes=1, seed=21)
        env.deploy_workflow("W", "(defun main (params) (receive-message))")
        task_id = env.start("W", None)
        env.cluster.run_until_idle()
        fiber_id = env.registry.tasks[task_id].fiber_ids[0]
        before = distribution.CURRENT_EXECUTION.get()
        env.cluster.send("W", "JoinProcess",
                         {"fiber": fiber_id,
                          "result": WorkflowService._MAILBOX})
        env.cluster.run_until_idle()
        assert distribution.CURRENT_EXECUTION.get() is before
        env.cluster.send("W", "DeliverMessage",
                         {"fiber": fiber_id, "value": 5})
        assert env.wait_for_task(task_id).result == 5

    def test_mailbox_cheaper_than_task_variables(self):
        """The motivation: task variables have 'a very high
        synchronization overhead for mutation'; mailboxes avoid the
        store+lock round trips."""
        def run(source):
            env = VinzEnvironment(nodes=3, seed=20)
            env.deploy_workflow("W", source)
            env.call("W", None)
            return env

        taskvar_env = run("""
            (deftaskvar box)
            (defun main (params)
              (dotimes (i 10) (setf ^box^ i))
              ^box^)""")
        mailbox_env = run("""
            (defun main (params)
              (let ((me (get-process-id)))
                (fork-and-exec
                  (lambda (parent)
                    (dotimes (i 10) (send-message parent i)))
                  :argument me)
                (let ((last nil))
                  (dotimes (i 10) (setq last (receive-message)))
                  last)))""")
        # task vars: one locked store write per mutation
        assert taskvar_env.counters.get("taskvar.writes") == 10
        assert mailbox_env.counters.get("taskvar.writes") == 0
        assert mailbox_env.counters.get("mailbox.delivered") == 10
        # the mailbox path writes far less to the shared store
        assert mailbox_env.store.writes < taskvar_env.store.writes


class TestAutoChunkSizing:
    """Extension 6 (Section 5): 'The for-each chunking function should
    also dynamically optimize chunk sizes based on the processing time
    of the body.'"""

    @pytest.fixture(autouse=True)
    def _target(self, monkeypatch):
        monkeypatch.setattr(execution, "AUTO_CHUNK_TARGET", 2.0)

    def _run(self, items, per_item, nodes=6):
        env = VinzEnvironment(nodes=nodes, seed=22)
        env.deploy_workflow("W", f"""
            (defun main (params)
              (for-each (x in params :chunk-size :auto)
                (compute {per_item})
                (* x 2)))""", spawn_limit=8)
        result = env.call("W", items)
        task = list(env.registry.tasks.values())[0]
        decisions = env.cluster.tracer.of_kind("auto-chunk")
        return env, result, task, decisions

    def test_results_correct_and_ordered(self):
        items = list(range(15))
        _, result, _, _ = self._run(items, per_item=0.5)
        assert result == [x * 2 for x in items]

    def test_chunk_size_tracks_body_time(self):
        """Slow bodies get small chunks; fast bodies get large ones."""
        _, _, _, slow = self._run(list(range(12)), per_item=2.0)
        _, _, _, fast = self._run(list(range(12)), per_item=0.05)
        assert slow[0].detail["size"] < fast[0].detail["size"]
        # slow: ~2s per item with a 2s target -> singleton chunks
        assert slow[0].detail["size"] == 1
        # fast: many items per chunk
        assert fast[0].detail["size"] >= 10

    def test_fewer_fibers_than_unchunked_for_fast_items(self):
        items = list(range(30))
        _, _, task, _ = self._run(items, per_item=0.05)
        # unchunked would be 31 fibers; auto chunking collapses the
        # fast remainder into a few chunk fibers
        assert len(task.fiber_ids) < 10

    def test_small_inputs_skip_the_probe(self):
        _, result, task, decisions = self._run([1, 2, 3], per_item=0.5)
        assert result == [2, 4, 6]
        assert not decisions  # plain distribution, no probe phase

    def test_size_clamped(self, monkeypatch):
        monkeypatch.setattr(execution, "AUTO_CHUNK_TARGET", 1000.0)
        env = VinzEnvironment(nodes=4, seed=23)
        env.deploy_workflow("W", """
            (defun main (params)
              (for-each (x in params :chunk-size :auto)
                x))""")
        result = env.call("W", list(range(10)))
        assert result == list(range(10))
        sizes = [e.detail["size"]
                 for e in env.cluster.tracer.of_kind("auto-chunk")]
        assert all(1 <= s <= 64 for s in sizes)
