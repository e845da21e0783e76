"""Observability must not alter behaviour, and must count each fact once.

The same seeded chaos campaign — node crashes at lock acquisition and
mid-persist, dropped and duplicated messages, file locks recovered by
lease expiry, fibers rebuilt by history replay — runs with everything
on, everything off, and spans only.  What the platform *did* must be
identical in all three; only what it *recorded about itself* differs.
"""

import functools

import pytest

from repro.faults import campaign
from repro.faults.plan import FaultPlan, MessageFault, NodeFault
from repro.vinz.api import VinzEnvironment

PLAN = FaultPlan([
    NodeFault("crash", on_lock=3, restart_after=2.0),
    NodeFault("crash", on_persist=5, restart_after=2.0),
    MessageFault("drop", operation="RunFiber", nth=1, count=2),
    MessageFault("duplicate", operation="AwakeFiber", nth=1, count=2),
], name="observer-effect")

#: mode -> (trace, spans)
MODES = {
    "everything": (True, None),
    "nothing": (False, None),
    "spans-only": (False, True),
}


@pytest.fixture(scope="module")
def runs():
    out = {}
    for mode, (trace, spans) in MODES.items():
        # run_campaign builds the environment itself and passes
        # ``trace`` through; ``spans`` is VinzEnvironment's own switch
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(campaign, "VinzEnvironment",
                          functools.partial(VinzEnvironment, spans=spans))
            out[mode] = campaign.run_campaign(
                PLAN, seed=3, tasks=6, trace=trace, locks="file",
                lease_ttl=1.0, history="on", snapshot_interval=3)
    return out


def behaviour(report):
    env = report.env
    summary = env.summary()
    return {
        "results": {task.id: (task.status, task.result)
                    for task in env.registry.tasks.values()},
        "virtual_time": env.cluster.kernel.now,
        "store": summary["store"],
        "queue": summary["queue"],
        "history_log": {key: env.store.snapshot_value(key)
                        for key in env.store.keys("history/")},
    }


def test_the_modes_record_what_they_say(runs):
    everything, nothing, spans_only = (runs[m].env.tracer for m in MODES)
    assert everything.events and everything.spans()
    assert not nothing.events and not nothing.spans()
    assert not spans_only.events and spans_only.spans()


def test_the_campaign_exercised_recovery(runs):
    report = runs["nothing"]
    assert report.all_completed and not report.wrong_results()
    assert sum(report.injected.values()) >= 4
    assert behaviour(report)["history_log"]


@pytest.mark.parametrize("mode", ["everything", "spans-only"])
def test_observing_does_not_change_behaviour(runs, mode):
    assert behaviour(runs[mode]) == behaviour(runs["nothing"])


@pytest.mark.parametrize("mode", ["everything", "spans-only"])
def test_each_fact_is_counted_once_whatever_is_switched_on(runs, mode):
    quiet = runs["nothing"].env.metrics
    observed = runs[mode].env.metrics
    for name in ("history.rebuilds", "recovery.reawakened",
                 "recovery.locks_expired"):
        assert quiet.get(name) > 0
        assert observed.get(name) == quiet.get(name), name
    # and so is every other counter and sum
    for block in ("counters", "sums", "levels"):
        assert observed.snapshot()[block] == quiet.snapshot()[block]
    # the scanner's summary reads the same single count
    recovery = runs[mode].env.summary()["recovery"]
    assert recovery["locks_expired"] == quiet.get("recovery.locks_expired")
    assert recovery["fibers_reawakened"] == quiet.get("recovery.reawakened")
