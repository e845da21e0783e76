"""The reproducible chaos matrix (fault-injection subsystem).

Every campaign here is a named ``(seed, FaultPlan)`` pair: a seeded
matrix over message faults × store faults × node faults asserting the
paper's survivability claim end to end (every task completes with the
right answer), plus replay tests asserting the same pair produces a
bit-identical trace, and dead-letter tests asserting that exhausted
messages fail loudly through the condition system instead of hanging.
"""

import pytest

from repro.bluebox.services import simple_service
from repro.faults import (
    CORRUPT_READ,
    CRASH,
    DELAY,
    DROP,
    DUPLICATE,
    FAIL_WRITE,
    FaultInjector,
    FaultPlan,
    MessageFault,
    NodeFault,
    RetryPolicy,
    StoreFault,
)
from repro.faults.campaign import run_campaign
from repro.lang.symbols import Keyword
from repro.vinz.api import VinzEnvironment
from repro.vinz.task import COMPLETED, ERROR

MESSAGE_FAULTS = {
    "drop": MessageFault(DROP, nth=2, count=2),
    "duplicate": MessageFault(DUPLICATE, nth=3, count=1),
    "delay": MessageFault(DELAY, nth=4, count=1, delay=0.6),
}

STORE_FAULTS = {
    "fail-write": StoreFault(FAIL_WRITE, nth=2, count=2),
    "corrupt-read": StoreFault(CORRUPT_READ, nth=2, count=1),
}

NODE_FAULTS = {
    "crash-mid-fiber": NodeFault(CRASH, at=0.4, restart_after=1.0),
    "crash-on-persist": NodeFault(CRASH, on_persist=3, restart_after=1.0),
}


class TestFaultMatrix:
    @pytest.mark.parametrize("message_kind", sorted(MESSAGE_FAULTS))
    @pytest.mark.parametrize("store_kind", sorted(STORE_FAULTS))
    @pytest.mark.parametrize("node_kind", sorted(NODE_FAULTS))
    def test_campaign_completes_correctly(self, message_kind, store_kind,
                                          node_kind):
        plan = FaultPlan([MESSAGE_FAULTS[message_kind],
                          STORE_FAULTS[store_kind],
                          NODE_FAULTS[node_kind]],
                         name=f"{message_kind}+{store_kind}+{node_kind}")
        report = run_campaign(plan, seed=1234, tasks=3, nodes=3)
        # every task finished with the arithmetically correct answer
        assert report.statuses == {COMPLETED: 3}, report.statuses
        assert report.wrong_results() == []
        # the campaign was not a no-op: every fault category fired
        injected = report.injected
        assert sum(injected.values()) >= 3, injected
        assert any(k in injected for k in
                   (MESSAGE_FAULTS[message_kind].action,)), injected
        assert any(k in injected for k in
                   (STORE_FAULTS[store_kind].action,)), injected
        assert ("crash" in injected) or ("crash-on-persist" in injected), \
            injected
        # nothing was abandoned under the default bounded policy
        assert report.dead_lettered == 0

    def test_drop_fault_forces_redelivery(self):
        plan = FaultPlan([MessageFault(DROP, nth=2, count=3)], name="drops")
        report = run_campaign(plan, seed=99, tasks=2, nodes=2)
        assert report.statuses == {COMPLETED: 2}
        assert report.injected.get(DROP) == 3
        assert report.redelivered >= 3
        # retries were traced with their backoff
        assert any(e.kind == "retry.scheduled"
                   for e in report.env.cluster.tracer.events)

    def test_duplicate_fault_is_idempotent(self):
        plan = FaultPlan([MessageFault(DUPLICATE, nth=1, count=4)],
                         name="dups")
        report = run_campaign(plan, seed=13, tasks=2, nodes=2)
        # duplicated Starts / fiber messages create no extra tasks and
        # corrupt no results
        assert report.statuses == {COMPLETED: 2}
        assert report.wrong_results() == []
        assert report.duplicated == 4


class TestReplayDeterminism:
    KNOWN_PLAN = FaultPlan([
        MessageFault(DROP, nth=2, count=1),
        MessageFault(DELAY, nth=5, count=1, delay=0.8),
        StoreFault(CORRUPT_READ, key_prefix="fiber-state/", nth=2),
        NodeFault(CRASH, on_persist=4, restart_after=1.5),
        NodeFault(CRASH, at=0.7, restart_after=1.0),
    ], name="known-schedule")

    def test_same_seed_and_plan_replay_bit_identically(self):
        first = run_campaign(self.KNOWN_PLAN, seed=7, tasks=3, nodes=3)
        second = run_campaign(self.KNOWN_PLAN, seed=7, tasks=3, nodes=3)
        assert first.signature() == second.signature()
        assert first.injected == second.injected
        # and the run did real work under real damage
        assert first.statuses == {COMPLETED: 3}
        assert sum(first.injected.values()) >= 3

    def test_different_seed_diverges(self):
        first = run_campaign(self.KNOWN_PLAN, seed=7, tasks=3, nodes=3)
        other = run_campaign(self.KNOWN_PLAN, seed=8, tasks=3, nodes=3)
        assert first.signature() != other.signature()

    def test_fault_events_replay_identically(self):
        """The fault-event subset of the trace is also stable (the
        injector's own decisions are part of the replay contract)."""
        kinds = ("fault.injected", "retry.scheduled", "deadletter.enqueued")
        first = run_campaign(self.KNOWN_PLAN, seed=21, tasks=2, nodes=3)
        second = run_campaign(self.KNOWN_PLAN, seed=21, tasks=2, nodes=3)
        assert first.signature(*kinds) == second.signature(*kinds)
        assert len(first.signature("fault.injected")) \
            == sum(first.injected.values())


class TestDeadLetterLiveness:
    TIGHT = RetryPolicy(max_attempts=3, base_delay=0.01, multiplier=2.0,
                        max_delay=0.1, jitter=0.0)

    def test_unwritable_fiber_state_fails_tasks_instead_of_hanging(self):
        # every fiber-state persist fails: fibers can never make
        # progress, so their messages must exhaust and dead-letter, and
        # the owning tasks must surface ERROR — not hang the campaign
        plan = FaultPlan([StoreFault(FAIL_WRITE, key_prefix="fiber-state/",
                                     nth=1, count=10_000)],
                         name="persist-storm")
        report = run_campaign(plan, seed=5, tasks=2, nodes=2,
                              retry_policy=self.TIGHT)
        assert report.statuses == {ERROR: 2}
        assert report.dead_lettered == 2
        for task in report.env.registry.tasks.values():
            assert "dead-lettered" in (task.error or "")
        trace_kinds = [e.kind for e in report.env.cluster.tracer.events]
        assert trace_kinds.count("deadletter.enqueued") == 2

    def test_dead_letters_are_retained_for_inspection(self):
        plan = FaultPlan([StoreFault(FAIL_WRITE, nth=1, count=10_000)],
                         name="write-storm")
        report = run_campaign(plan, seed=5, tasks=2, nodes=2,
                              retry_policy=self.TIGHT)
        queue = report.env.cluster.queue
        assert len(queue.dead_letters) == queue.dead_lettered == 2
        for message in queue.dead_letters:
            assert message.attempts >= self.TIGHT.max_attempts

    def test_no_message_is_both_completed_and_dead_lettered(self):
        plan = FaultPlan([MessageFault(DROP, nth=1, count=30)],
                         name="heavy-drops")
        report = run_campaign(plan, seed=77, tasks=2, nodes=2,
                              retry_policy=self.TIGHT.with_max_attempts(2))
        completed = {d["msg"] for e in report.env.cluster.tracer.events
                     if e.kind == "complete"
                     for d in (e.detail,) if "msg" in d}
        assert completed.isdisjoint(report.env.cluster.queue.dead_letter_ids())


class TestConditionSurfacing:
    SOURCE = """
    (deflink DS :wsdl "urn:dl-data")
    (defun main (params)
      (handler-case
          (DS-Lookup-Method :Key params)
        (service-error (c) (list :fallback params))))
    """

    def _env(self):
        env = VinzEnvironment(
            nodes=2, seed=3,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.01,
                                     multiplier=1.0, max_delay=0.01,
                                     jitter=0.0))

        def lookup(ctx, body):
            return body.get("Key", 0) * 10

        env.deploy_service(simple_service(
            "DLData", {"Lookup": lookup}, namespace="urn:dl-data",
            parameters={"Lookup": ["Key"]}))
        env.deploy_workflow("W", self.SOURCE)
        return env

    def test_dead_lettered_request_signals_catchable_condition(self):
        """A service request that exhausts its retries answers with a
        ``{urn:bluebox}DeadLettered`` fault, which the workflow catches
        with an ordinary ``handler-case`` — the existing condition
        system, not a new error channel."""
        env = self._env()
        plan = FaultPlan([MessageFault(DROP, service="DLData",
                                       nth=1, count=50)], name="drop-all")
        FaultInjector(3, plan).install(env)
        assert env.call("W", 7) == [Keyword("fallback"), 7]
        assert env.cluster.queue.dead_lettered == 1

    def test_without_faults_the_request_succeeds(self):
        env = self._env()
        assert env.call("W", 7) == 70
