"""Message queue tests: priorities, redelivery, statistics."""

from repro.bluebox.messagequeue import (
    MessageQueue,
    PRIORITY_INTERACTIVE,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    ReplyTo,
)


def make(queue, op="Op", prio=PRIORITY_NORMAL, service="S"):
    msg = queue.make_message(service, op, {}, priority=prio)
    queue.enqueue(msg, now=0.0)
    return msg


class TestOrdering:
    def test_fifo_same_priority(self):
        q = MessageQueue()
        m1, m2 = make(q, "A"), make(q, "B")
        assert q.pop_next("S", 0.0) is m1
        assert q.pop_next("S", 0.0) is m2

    def test_priority_order(self):
        """Interactive beats normal beats low — the paper's AwakeFiber
        prioritization (Section 5)."""
        q = MessageQueue()
        low = make(q, "low", PRIORITY_LOW)
        normal = make(q, "norm", PRIORITY_NORMAL)
        interactive = make(q, "int", PRIORITY_INTERACTIVE)
        assert q.pop_next("S", 0.0) is interactive
        assert q.pop_next("S", 0.0) is normal
        assert q.pop_next("S", 0.0) is low

    def test_pop_empty_returns_none(self):
        q = MessageQueue()
        assert q.pop_next("S", 0.0) is None

    def test_per_service_isolation(self):
        q = MessageQueue()
        make(q, service="A")
        assert q.pop_next("B", 0.0) is None
        assert q.peek_depth("A") == 1


class TestRedelivery:
    def test_requeue_increments_attempts(self):
        q = MessageQueue()
        msg = make(q)
        q.pop_next("S", 0.0)
        assert q.requeue(msg, 1.0)
        assert msg.attempts == 1
        assert q.peek_depth("S") == 1

    def test_poison_message_dropped(self):
        q = MessageQueue()
        msg = make(q)
        msg.max_attempts = 3
        q.pop_next("S", 0.0)
        assert q.requeue(msg, 0.0)
        assert q.requeue(msg, 0.0)
        assert not q.requeue(msg, 0.0)  # third strike: dead-lettered
        assert q.dead_lettered == 1

    def test_redelivered_counter(self):
        q = MessageQueue()
        msg = make(q)
        q.pop_next("S", 0.0)
        q.requeue(msg, 0.0)
        assert q.redelivered == 1


class TestStatistics:
    def test_wait_times_recorded(self):
        q = MessageQueue()
        msg = q.make_message("S", "Op", {})
        q.enqueue(msg, now=1.0)
        q.pop_next("S", now=4.0)
        assert q.wait_times == [3.0]
        assert q.mean_wait() == 3.0

    def test_mean_wait_empty(self):
        assert MessageQueue().mean_wait() == 0.0

    def test_total_depth(self):
        q = MessageQueue()
        make(q, service="A")
        make(q, service="B")
        make(q, service="B")
        assert q.total_depth() == 3
        assert set(q.services_with_messages()) == {"A", "B"}

    def test_ids_unique_and_increasing(self):
        q = MessageQueue()
        ids = [make(q).id for _ in range(5)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 5

    def test_body_copied(self):
        q = MessageQueue()
        body = {"k": 1}
        msg = q.make_message("S", "Op", body)
        body["k"] = 2
        assert msg.body["k"] == 1


class TestReplyTo:
    def test_callback_form(self):
        hits = []
        rt = ReplyTo(callback=hits.append)
        rt.callback({"x": 1})
        assert hits == [{"x": 1}]

    def test_message_form_fields(self):
        rt = ReplyTo(service="WF", operation="ResumeFromCall",
                     extra={"fiber": "f-1"})
        assert rt.service == "WF"
        assert rt.extra["fiber"] == "f-1"
