"""AIMD spawn-governor tests: the control law in isolation, the
``(vinz-auto-spawn-limit)`` opt-in path, and the chaos campaign proving
the governor converges (backs off, then recovers) under an injected
node slow-down."""

import pytest

from repro.faults.campaign import run_campaign
from repro.faults.plan import FaultPlan, NodeFault
from repro.sched.governor import SpawnGovernor
from repro.vinz.api import VinzEnvironment


def make_env(**kw):
    return VinzEnvironment(nodes=2, seed=11, **kw)


class TestControlLaw:
    def test_additive_increase_with_headroom(self):
        env = make_env()
        g = env.governor
        base = g.limit
        limits = [g.current_limit((i + 1) * g.INTERVAL)
                  for i in range(5)]
        # an idle cluster is all headroom: +increase per interval
        assert limits == [base + g.INCREASE * (i + 1)
                          for i in range(5)]
        assert g.increases == 5 and g.decreases == 0

    def test_multiplicative_decrease_on_queue_depth(self):
        env = make_env()
        g = env.governor
        q = env.cluster.queue
        slots = env.cluster.total_slots()
        for _ in range(int(g.DEPTH_HIGH * slots) + slots):
            q.enqueue(q.make_message("S", "Op", {}), now=0.0)
        before = g.limit
        g.current_limit(g.INTERVAL)
        assert g.limit == max(g.MIN_LIMIT,
                              int(before * g.DECREASE))
        assert g.decreases == 1

    def test_decrease_on_interval_queue_wait(self):
        env = make_env()
        g = env.governor
        q = env.cluster.queue
        q.enqueue(q.make_message("S", "Op", {}), now=0.0)
        q.pop_next("S", now=1.0)  # one delivery that waited >= wait_high
        before = g.limit
        g.current_limit(1.0)
        assert g.limit < before

    def test_limit_clamped_to_bounds(self, monkeypatch):
        monkeypatch.setattr(SpawnGovernor, "INITIAL", 2)
        monkeypatch.setattr(SpawnGovernor, "MAX_LIMIT", 6)
        monkeypatch.setattr(SpawnGovernor, "INTERVAL", 0.1)
        env = make_env()
        g = env.governor
        for i in range(1, 20):
            g.current_limit(i * 0.1)
        assert g.limit == 6
        # now congest hard: repeated halving stops at min_limit
        q = env.cluster.queue
        for _ in range(50):
            q.enqueue(q.make_message("S", "Op", {}), now=2.0)
        for i in range(20, 40):
            g.current_limit(i * 0.1)
        assert g.limit == g.MIN_LIMIT

    def test_at_most_one_decision_per_interval(self):
        env = make_env()
        g = env.governor
        g.current_limit(g.INTERVAL)
        decided = g.decisions
        g.current_limit(g.INTERVAL)  # same instant: no re-decide
        assert g.decisions == decided

    def test_history_and_summary_track_changes(self):
        env = make_env()
        g = env.governor
        g.current_limit(g.INTERVAL)
        summary = g.summary()
        assert summary["limit"] == g.limit
        assert summary["max_seen"] == g.limit
        assert g.history[0][1] == g.INITIAL

    def test_spawn_limit_gauge_published(self):
        env = make_env()
        env.governor.current_limit(env.governor.INTERVAL)
        assert env.cluster.metrics.gauge("sched.spawn_limit").value == \
            env.governor.limit


class TestAutoSpawnLimitOptIn:
    def test_auto_spawn_limit_intrinsic_reads_governor(self):
        env = make_env()
        env.deploy_workflow("W", """
            (defun main (params)
              (auto-spawn-limit))""")
        assert env.call("W", None) == env.governor.limit

    def test_auto_task_reads_limit_through_governor(self):
        env = make_env()
        env.deploy_workflow("W", """
            (defun main (params)
              (auto-spawn-limit)
              (get-spawn-limit))""")
        assert env.call("W", None) == env.governor.limit

    def test_deploy_with_auto_limit(self):
        env = make_env()
        env.deploy_workflow("W", """
            (defun main (params)
              (get-spawn-limit))""", spawn_limit="auto")
        assert env.call("W", None) == env.governor.limit

    def test_static_limit_ignores_governor(self):
        env = make_env()
        env.deploy_workflow("W", """
            (defun main (params)
              (get-spawn-limit))""", spawn_limit=7)
        assert env.call("W", None) == 7


class TestChaosConvergence:
    """The ISSUE's convergence proof: a chaos campaign injects a 10x
    node slow-down mid-run and the governor's history must show the
    AIMD shape — additive ramp while calm, multiplicative cuts once the
    injected latency lands — with the campaign still completing every
    task correctly, bit-identically on replay."""

    FAULT_AT = 8.0
    PLAN = FaultPlan([NodeFault(action="slow", node="node-1", at=FAULT_AT,
                                factor=10.0, duration=5.0)],
                     name="slow-node")
    #: thresholds calibrated to the campaign topology (2 nodes, wide
    #: fan-outs saturate ~11 messages/slot even when healthy), so the
    #: *latency* signal is the discriminating one.  ``WAIT_HIGH`` sits
    #: clear of the healthy run's peak interval wait (3.45 s at seed 23;
    #: it moves with persisted blob sizes, which set store IO cost), so
    #: the slow node's cuts (t = 11.2 s and 13.8 s) come from latency
    TUNING = dict(INTERVAL=0.25, DEPTH_HIGH=30.0, DEPTH_LOW=15.0,
                  WAIT_HIGH=4.0, WAIT_LOW=2.0, LATENCY_FACTOR=2.0)

    @pytest.fixture(autouse=True)
    def _tuned_governor(self, monkeypatch):
        for name, value in self.TUNING.items():
            monkeypatch.setattr(SpawnGovernor, name, value)

    def _run(self, plan=PLAN, seed=23):
        return run_campaign(plan, seed=seed, tasks=6, nodes=2,
                            adaptive_spawn=True, items_range=(8, 16))

    def test_governor_converges_under_injected_slowdown(self):
        report = self._run()
        g = report.env.governor
        assert report.all_completed
        assert not report.wrong_results()
        # calm phase: the limit ramped additively above its start
        ramped = [t for t, limit in g.history
                  if t < self.FAULT_AT and limit > g.INITIAL]
        assert g.increases >= 1 and ramped
        # fault phase: the injected latency forced multiplicative cuts
        assert g.decreases >= 1
        cuts = [(t1, l1) for (_t0, l0), (t1, l1)
                in zip(g.history, g.history[1:]) if l1 < l0]
        assert cuts and all(t >= self.FAULT_AT for t, _ in cuts)
        assert g.limit < g.summary()["max_seen"]

    def test_no_fault_baseline_never_backs_off(self):
        report = self._run(plan=FaultPlan())
        g = report.env.governor
        assert report.all_completed
        assert g.increases >= 1 and g.decreases == 0

    def test_convergence_trace_replays_bit_identically(self):
        first = self._run()
        second = self._run()
        assert first.env.governor.history == second.env.governor.history
        assert first.signature() == second.signature()
