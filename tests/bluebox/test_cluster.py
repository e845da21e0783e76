"""Cluster tests: dispatch, load balancing, failure, slots."""

import pytest

from repro.bluebox.cluster import Cluster
from repro.bluebox.messagequeue import PRIORITY_LOW, ReplyTo
from repro.bluebox.services import Deferred, Requeue, ServiceFault, simple_service


def echo_service(charge=0.1):
    def echo(ctx, body):
        ctx.charge(charge)
        return {"echo": body.get("x"), "node": ctx.node.id}

    return simple_service("Echo", {"Echo": echo})


class TestBasicCalls:
    def test_call_returns_value(self):
        cluster = Cluster(seed=0)
        cluster.add_nodes(2)
        cluster.deploy(echo_service())
        envelope = cluster.call("Echo", "Echo", {"x": 5})
        assert envelope.ok
        assert envelope.value["echo"] == 5

    def test_fault_propagates(self):
        cluster = Cluster(seed=0)
        cluster.add_node()

        def boom(ctx, body):
            raise ServiceFault("{urn:t}Boom", "no")

        cluster.deploy(simple_service("T", {"Boom": boom}))
        envelope = cluster.call("T", "Boom", {})
        assert not envelope.ok
        assert envelope.fault_qname == "{urn:t}Boom"

    def test_unknown_operation_is_fault(self):
        cluster = Cluster(seed=0)
        cluster.add_node()
        cluster.deploy(echo_service())
        envelope = cluster.call("Echo", "Nope", {})
        assert not envelope.ok
        assert "NoSuchOperation" in envelope.fault_qname

    def test_send_to_unknown_service_raises(self):
        cluster = Cluster(seed=0)
        cluster.add_node()
        with pytest.raises(KeyError):
            cluster.send("Ghost", "Op", {})

    def test_virtual_time_advances_with_charges(self):
        cluster = Cluster(seed=0)
        cluster.add_node()
        cluster.deploy(echo_service(charge=2.0))
        cluster.call("Echo", "Echo", {"x": 1})
        assert cluster.kernel.now >= 2.0
        assert cluster.kernel.now < 3.0  # but not wildly more

    def test_call_timeout(self):
        cluster = Cluster(seed=0)
        cluster.add_node()

        def never(ctx, body):
            return ctx.defer()  # reply never resolved

        cluster.deploy(simple_service("T", {"Never": never}))
        with pytest.raises(TimeoutError):
            cluster.call("T", "Never", {}, timeout=5.0)


class TestLoadBalancing:
    def test_work_spreads_across_nodes(self):
        cluster = Cluster(seed=1)
        cluster.add_nodes(4)
        cluster.deploy(echo_service(charge=1.0))
        for i in range(8):
            cluster.send("Echo", "Echo", {"x": i})
        cluster.run_until_idle()
        counts = [n.processed for n in cluster.nodes.values()]
        assert sum(counts) == 8
        assert all(c == 2 for c in counts)  # perfect balance: equal cost

    def test_parallel_makespan(self):
        """4 one-second jobs on 4 nodes finish in ~1 second, not 4."""
        cluster = Cluster(seed=1)
        cluster.add_nodes(4)
        cluster.deploy(echo_service(charge=1.0))
        for i in range(4):
            cluster.send("Echo", "Echo", {"x": i})
        cluster.run_until_idle()
        assert cluster.kernel.now < 1.5

    def test_queueing_when_saturated(self):
        """8 one-second jobs on 2 nodes take ~4 seconds."""
        cluster = Cluster(seed=1)
        cluster.add_nodes(2)
        cluster.deploy(echo_service(charge=1.0))
        for i in range(8):
            cluster.send("Echo", "Echo", {"x": i})
        cluster.run_until_idle()
        assert 3.5 <= cluster.kernel.now <= 4.5

    def test_node_slots_multiply_capacity(self):
        cluster = Cluster(seed=1)
        cluster.add_node(slots=4)
        cluster.deploy(echo_service(charge=1.0))
        for i in range(4):
            cluster.send("Echo", "Echo", {"x": i})
        cluster.run_until_idle()
        assert cluster.kernel.now < 1.5

    def test_shared_slots_block_other_services(self):
        """Two services on a 1-slot node contend — the Section 5
        phenomenon of unrelated operations blocking."""
        cluster = Cluster(seed=1)
        cluster.add_node(slots=1)

        def slow(ctx, body):
            ctx.charge(10.0)
            return True

        def fast(ctx, body):
            return True

        cluster.deploy(simple_service("Slow", {"Go": slow}))
        cluster.deploy(simple_service("Fast", {"Go": fast}))
        cluster.send("Slow", "Go", {})
        done = []
        cluster.send("Fast", "Go", {},
                     reply_to=ReplyTo(callback=lambda b: done.append(
                         cluster.kernel.now)))
        cluster.run_until_idle()
        assert done and done[0] >= 10.0  # fast op waited behind slow one


class TestFailureInjection:
    def _setup(self):
        cluster = Cluster(seed=2)
        cluster.add_nodes(2)

        def slow(ctx, body):
            ctx.charge(5.0)
            return {"node": ctx.node.id}

        cluster.deploy(simple_service("S", {"Slow": slow}))
        return cluster

    def test_in_flight_message_redelivered(self):
        cluster = self._setup()
        responses = []
        cluster.send("S", "Slow", {},
                     reply_to=ReplyTo(callback=responses.append))
        cluster.run_until(
            lambda: any(e.kind == "deliver" for e in cluster.tracer.events))
        victim = [e for e in cluster.tracer.events
                  if e.kind == "deliver"][0].detail["node"]
        assert cluster.fail_node(victim) == 1
        cluster.run_until_idle()
        assert len(responses) == 1
        assert responses[0]["result"]["node"] != victim

    def test_failed_node_gets_no_work(self):
        cluster = self._setup()
        cluster.fail_node("node-1")
        for _ in range(4):
            cluster.send("S", "Slow", {})
        cluster.run_until_idle()
        assert cluster.nodes["node-1"].processed == 0
        assert cluster.nodes["node-2"].processed == 4

    def test_node_memory_wiped_on_failure(self):
        cluster = self._setup()
        cluster.nodes["node-1"].memory["cache"] = {"x": 1}
        cluster.fail_node("node-1")
        assert cluster.nodes["node-1"].memory == {}

    def test_restore_node_resumes_service(self):
        cluster = self._setup()
        cluster.fail_node("node-1")
        cluster.restore_node("node-1")
        for _ in range(4):
            cluster.send("S", "Slow", {})
        cluster.run_until_idle()
        assert cluster.nodes["node-1"].processed > 0

    def test_all_nodes_down_queues_work(self):
        cluster = self._setup()
        cluster.fail_node("node-1")
        cluster.fail_node("node-2")
        cluster.send("S", "Slow", {})
        cluster.run_until_idle()
        assert cluster.queue.peek_depth("S") == 1  # buffered, not lost
        cluster.restore_node("node-1")
        cluster.run_until_idle()
        assert cluster.queue.peek_depth("S") == 0


class TestDeferredAndRequeue:
    def test_deferred_reply_resolves_later(self):
        cluster = Cluster(seed=0)
        cluster.add_node()
        pending = []

        def op(ctx, body):
            deferred = ctx.defer()
            pending.append(deferred)
            return deferred

        cluster.deploy(simple_service("T", {"Op": op}))
        got = []
        cluster.send("T", "Op", {}, reply_to=ReplyTo(callback=got.append))
        cluster.run_until_idle()
        assert not got  # still deferred
        pending[0].resolve(42)
        cluster.run_until_idle()
        assert got == [{"result": 42}]

    def test_deferred_double_resolve_ignored(self):
        cluster = Cluster(seed=0)
        cluster.add_node()
        got = []
        deferred_box = []

        def op(ctx, body):
            d = ctx.defer()
            deferred_box.append(d)
            return d

        cluster.deploy(simple_service("T", {"Op": op}))
        cluster.send("T", "Op", {}, reply_to=ReplyTo(callback=got.append))
        cluster.run_until_idle()
        deferred_box[0].resolve(1)
        deferred_box[0].resolve(2)
        cluster.run_until_idle()
        assert got == [{"result": 1}]

    def test_requeue_redelivers(self):
        cluster = Cluster(seed=0)
        cluster.add_node()
        state = {"tries": 0}

        def op(ctx, body):
            state["tries"] += 1
            if state["tries"] < 3:
                return Requeue(delay=0.01)
            return "done"

        cluster.deploy(simple_service("T", {"Op": op}))
        envelope = cluster.call("T", "Op", {})
        assert envelope.value == "done"
        assert state["tries"] == 3


class TestInlineCalls:
    def test_call_inline_bypasses_queue(self):
        cluster = Cluster(seed=0)
        cluster.add_node()
        cluster.deploy(echo_service(charge=0.5))
        before = cluster.queue.enqueued
        envelope = cluster.call_inline("Echo", "Echo", {"x": 1})
        assert envelope.ok
        assert cluster.queue.enqueued == before  # no queue traffic

    def test_call_inline_charges_parent(self):
        cluster = Cluster(seed=0)
        cluster.add_nodes(2)
        cluster.deploy(echo_service(charge=0.5))

        def caller(ctx, body):
            cluster.call_inline("Echo", "Echo", {"x": 1}, parent_context=ctx)
            return True

        cluster.deploy(simple_service("C", {"Go": caller}))
        cluster.call("C", "Go", {})
        # the caller's charged time includes the inline call's cost
        assert cluster.kernel.now >= 0.5


    def test_call_inline_commits_its_context(self):
        """An inline handler's hooks and sends are not dropped: its
        context commits — once — when the handler returns."""
        cluster = Cluster(seed=0)
        cluster.add_node()
        ran = []

        def op(ctx, body):
            ctx.on_complete(lambda: ran.append("complete"))
            ctx.on_abort(lambda: ran.append("abort"))
            ctx.send("T", "Note", {})
            return "done"

        cluster.deploy(simple_service(
            "T", {"Op": op, "Note": lambda ctx, body: ran.append("note")}))
        assert cluster.call_inline("T", "Op", {}).value == "done"
        assert ran == ["complete"]
        cluster.run_until_idle()
        assert ran == ["complete", "note"]


class TestIntrospection:
    def test_utilization(self):
        cluster = Cluster(seed=0)
        cluster.add_node()
        cluster.deploy(echo_service(charge=1.0))
        cluster.call("Echo", "Echo", {"x": 1})
        util = cluster.utilization()
        assert 0.5 < util <= 1.0

    def test_alive_nodes_and_slots(self):
        cluster = Cluster(seed=0)
        cluster.add_nodes(3, slots=2)
        assert len(cluster.alive_nodes()) == 3
        assert cluster.total_slots() == 6
        cluster.fail_node("node-1")
        assert cluster.total_slots() == 4
