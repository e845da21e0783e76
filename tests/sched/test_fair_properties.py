"""Scheduling-policy property tests.

Two invariants pin the fair scheduler down:

* **starvation freedom** — under a sustained interactive-priority flood
  a normal-priority message is still delivered within the priority-aging
  bound.  The strict seed policy is *expected to fail* this guarantee
  (the flood harness asserts that too, so the suite documents exactly
  the failure mode the fair policy exists to fix);
* **per-workflow FIFO** — whatever the interleaving of flows,
  priorities and pop instants, messages of one flow leave in arrival
  order, and every message pushed is popped exactly once.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bluebox.messagequeue import (
    MessageQueue,
    PRIORITY_INTERACTIVE,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
)
from repro.sched.fair import (
    CONTROL_FLOW,
    DeficitRoundRobinPolicy,
    StrictPriorityPolicy,
    default_flow_of,
    make_policy,
)


def flood_until_victim_served(policy, steps=80, step=0.1):
    """A hog workflow floods interactive-priority messages while one
    normal-priority victim waits.  Each step enqueues a fresh hog
    message and pops once.  Returns the virtual time the victim was
    served, or None if it starved for the whole flood."""
    q = MessageQueue(policy=policy)
    victim = q.make_message("S", "Work", {"task": "victim"},
                            priority=PRIORITY_NORMAL)
    q.enqueue(victim, now=0.0)
    for i in range(steps):
        now = i * step
        hog = q.make_message("S", "Work", {"task": "hog"},
                             priority=PRIORITY_INTERACTIVE)
        q.enqueue(hog, now=now)
        if q.pop_next("S", now=now) is victim:
            return now
    return None


class TestStarvationFreedom:
    def test_strict_heap_starves_normal_priority(self):
        """The seed policy never serves the victim under a flood — the
        bug this subsystem fixes.  If this assertion ever fails, strict
        priority grew an aging mechanism and the fair policy's reason
        to exist should be re-examined."""
        assert flood_until_victim_served(StrictPriorityPolicy()) is None

    def test_fair_serves_victim_within_aging_bound(self):
        served_at = flood_until_victim_served(DeficitRoundRobinPolicy())
        # NORMAL (5) ages into the INTERACTIVE band (2) after
        # (5 - 2) / aging_rate = 3 virtual seconds; one rotation later
        # the victim must come off the queue
        assert served_at is not None
        assert served_at <= 3.5

    def test_fair_counts_the_aged_promotion(self):
        policy = DeficitRoundRobinPolicy()
        assert flood_until_victim_served(policy) is not None
        assert policy.aged_promotions >= 1

    @given(st.floats(min_value=0.25, max_value=4.0))
    @settings(max_examples=20, deadline=None)
    def test_aging_bound_scales_with_rate(self, rate):
        policy = DeficitRoundRobinPolicy()
        policy.aging_rate = rate
        served_at = flood_until_victim_served(policy, steps=400, step=0.05)
        assert served_at is not None
        bound = (PRIORITY_NORMAL - PRIORITY_INTERACTIVE) / rate
        assert served_at <= bound + 1.0


#: a random workload: (flow id, priority, inter-arrival gap)
arrival_plans = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.sampled_from([PRIORITY_INTERACTIVE, PRIORITY_NORMAL,
                               PRIORITY_LOW]),
              st.floats(min_value=0.0, max_value=0.5)),
    min_size=1, max_size=40)


def _fill(queue, plan):
    """Enqueue the plan; returns ({flow key: [message, ...]}, end time)."""
    now = 0.0
    pushed = {}
    for flow_id, prio, gap in plan:
        now += gap
        msg = queue.make_message("S", "Op", {"task": f"flow-{flow_id}"},
                                 priority=prio)
        queue.enqueue(msg, now=now)
        pushed.setdefault(f"flow-{flow_id}", []).append(msg)
    return pushed, now


class TestPerWorkflowFifo:
    @given(arrival_plans, st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_drr_preserves_flow_order_and_conserves_messages(
            self, plan, pop_gap):
        q = MessageQueue(policy=DeficitRoundRobinPolicy())
        pushed, now = _fill(q, plan)
        popped = {}
        while q.total_depth():
            now += pop_gap
            msg = q.pop_next("S", now=now)
            popped.setdefault(default_flow_of(msg), []).append(msg)
        assert sum(len(v) for v in popped.values()) == len(plan)
        for key, msgs in pushed.items():
            assert [m.id for m in popped.get(key, [])] == \
                [m.id for m in msgs]

    @given(arrival_plans, st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_peek_and_pop_agree_at_the_same_instant(self, plan, pop_gap):
        """The cluster dispatch loop peeks, places, then pops — all at
        one virtual instant — and relies on the three answers naming
        the same message."""
        q = MessageQueue(policy=DeficitRoundRobinPolicy())
        _pushed, now = _fill(q, plan)
        while q.total_depth():
            now += pop_gap
            peeked = q.peek_message("S", now=now)
            prio_key = q.peek_priority("S", now=now)
            msg = q.pop_next("S", now=now)
            assert peeked is msg
            assert prio_key is not None

    def test_control_flow_gathers_anonymous_messages(self):
        q = MessageQueue(policy=DeficitRoundRobinPolicy())
        msg = q.make_message("S", "Ping", {})
        assert default_flow_of(msg) == CONTROL_FLOW


class TestPolicyPlumbing:
    def test_make_policy_specs(self):
        assert isinstance(make_policy(None), StrictPriorityPolicy)
        assert isinstance(make_policy("strict"), StrictPriorityPolicy)
        assert isinstance(make_policy("fair"), DeficitRoundRobinPolicy)
        with pytest.raises(ValueError):
            make_policy("lottery")
        with pytest.raises(ValueError):
            make_policy(DeficitRoundRobinPolicy())

    def test_queue_default_policy_is_strict(self):
        assert MessageQueue().policy.name == "strict"
