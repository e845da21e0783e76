"""Messages parked for one node (an :class:`Affinity` with a ``hold``).

A parked message waits for its node's next free slot, competing there
in ``(priority, seq)`` order with the queued messages of every service
the node hosts.  It goes to ordinary balanced dispatch when its hold
runs out, or at once when the node dies; it never holds back other
messages from free nodes, and it keeps the queue's accounting.
"""

import pytest

from repro.bluebox.cluster import DELIVERY_LATENCY, Cluster
from repro.bluebox.messagequeue import PRIORITY_LOW, Affinity
from repro.bluebox.services import simple_service


def make_cluster(nodes=2):
    """A cluster whose ``Work`` operations record where and when each
    started, and hold the node's one slot for ``body["for"]`` seconds."""
    cluster = Cluster(seed=1)
    cluster.add_nodes(nodes)
    started = {}

    def work(ctx, body):
        started[body["n"]] = (ctx.node.id, ctx.now)
        ctx.charge(body.get("for", 0.01))

    cluster.deploy(simple_service("Work", {"Work": work}))
    cluster.deploy(simple_service("Other", {"Work": work}))
    return cluster, started


def occupy(cluster, node_id, seconds):
    """Start a long operation on ``node_id`` right now."""
    cluster.send("Work", "Work", {"n": "busy", "for": seconds},
                 affinity=Affinity(node_id))
    cluster.run_until(lambda: cluster.nodes[node_id].busy)


def test_a_parked_message_runs_on_its_node_when_a_slot_frees():
    cluster, started = make_cluster()
    occupy(cluster, "node-1", 0.5)
    cluster.send("Work", "Work", {"n": 1}, affinity=Affinity("node-1", 5.0))
    cluster.run_until_idle()
    node, at = started[1]
    assert node == "node-1"
    assert at == pytest.approx(started["busy"][1] + 0.5, abs=0.002)
    assert cluster.metrics.get("placement.owner.held") == 1
    assert cluster.metrics.get("placement.owner.served") == 1
    assert cluster.metrics.get("placement.owner.released") == 0
    # the queue's accounting counts the parked stay like any other
    queue = cluster.queue
    assert queue.enqueued == queue.delivered == 2
    assert queue.total_depth() == 0
    assert max(queue.wait_times) == pytest.approx(0.5, abs=DELIVERY_LATENCY)


def test_the_hold_running_out_sends_it_to_balanced_dispatch():
    cluster, started = make_cluster()
    occupy(cluster, "node-1", 5.0)
    sent_at = cluster.kernel.now
    cluster.send("Work", "Work", {"n": 1}, affinity=Affinity("node-1", 0.3))
    cluster.run_until_idle()
    node, at = started[1]
    assert node == "node-2"
    assert at == pytest.approx(sent_at + DELIVERY_LATENCY + 0.3)
    assert cluster.metrics.get("placement.owner.released") == 1
    assert cluster.metrics.get("placement.owner.served") == 0


def test_the_owner_dying_releases_it_at_once():
    cluster, started = make_cluster()
    occupy(cluster, "node-1", 5.0)
    cluster.send("Work", "Work", {"n": 1}, affinity=Affinity("node-1", 3.0))
    cluster.kernel.schedule(0.1, lambda: cluster.fail_node("node-1"))
    died_at = cluster.kernel.now + 0.1
    cluster.run_until_idle()
    node, at = started[1]
    assert node == "node-2" and at == pytest.approx(died_at)
    assert cluster.metrics.get("placement.owner.node-lost") == 1
    assert cluster.metrics.get("placement.owner.released") == 0


def test_a_dead_or_missing_owner_parks_nothing():
    cluster, started = make_cluster()
    cluster.fail_node("node-1")
    cluster.send("Work", "Work", {"n": 1}, affinity=Affinity("node-1", 3.0))
    cluster.send("Work", "Work", {"n": 2}, affinity=Affinity("node-9", 3.0))
    cluster.run_until_idle()
    assert started[1][0] == started[2][0] == "node-2"
    assert cluster.metrics.get("placement.owner.held") == 0


def test_no_head_of_line_blocking():
    """A message parked for a busy node does not hold back the messages
    queued behind it: they go to the free node straight away."""
    cluster, started = make_cluster()
    occupy(cluster, "node-1", 1.0)
    sent_at = cluster.kernel.now
    cluster.send("Work", "Work", {"n": 1}, affinity=Affinity("node-1", 5.0))
    cluster.send("Work", "Work", {"n": 2})
    cluster.run_until_idle()
    assert started[2] == ("node-2", pytest.approx(sent_at + DELIVERY_LATENCY))
    assert started[1][0] == "node-1"


def test_a_freed_slot_serves_parked_and_queued_work_in_priority_order():
    """On its node, a parked message competes with the queue heads of
    every service the node hosts, by ``(priority, seq)``."""
    cluster, started = make_cluster(nodes=1)
    occupy(cluster, "node-1", 0.5)
    cluster.send("Other", "Work", {"n": "low"}, priority=PRIORITY_LOW)
    cluster.send("Work", "Work", {"n": "parked"},
                 affinity=Affinity("node-1", 5.0))
    cluster.send("Other", "Work", {"n": "later"})
    cluster.run_until_idle()
    order = sorted(("parked", "later", "low"), key=lambda n: started[n][1])
    assert order == ["parked", "later", "low"]


def test_the_hop_span_says_it_waited_for_its_owner():
    cluster, _started = make_cluster()
    occupy(cluster, "node-1", 0.2)
    message = cluster.send("Work", "Work", {"n": 1},
                           affinity=Affinity("node-1", 4.0))
    cluster.run_until_idle()
    hop = cluster.tracer.get(message.span_id)
    held, = [e for e in hop.annotations if e.kind == "queue-held"]
    assert held.detail["owner"] == "node-1" and held.detail["bound"] == 4.0
    assert hop.end - hop.start == pytest.approx(0.2, abs=0.002)


def test_a_zero_hold_is_the_soft_hint():
    cluster, started = make_cluster()
    occupy(cluster, "node-1", 1.0)
    cluster.send("Work", "Work", {"n": 1}, affinity=Affinity("node-1"))
    cluster.run_until_idle()
    assert started[1][0] == "node-2"
    assert cluster.metrics.get("placement.affinity-miss") == 1
    assert cluster.metrics.get("placement.owner.held") == 0
