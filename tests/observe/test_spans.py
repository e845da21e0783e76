"""Unit tests for the tracer's span tree (repro.observe.tracer)."""

from repro.observe import Tracer


def test_begin_end_and_duration():
    tracer = Tracer()
    span_id = tracer.begin("work", kind="operation", start=1.0, node="n1")
    assert span_id == 1
    span = tracer.get(span_id)
    assert span.kind == "operation"
    assert not span.finished
    assert span.duration is None
    tracer.end(span_id, end=3.5, ok=True)
    assert span.finished
    assert span.duration == 2.5
    assert span.attrs == {"node": "n1", "ok": True}


def test_parent_links_and_queries():
    tracer = Tracer()
    root = tracer.begin("task:t1", kind="task", start=0.0, task="t1")
    fiber = tracer.begin("fiber:f1", kind="fiber", start=0.0,
                         parent_id=root, task="t1", fiber="f1")
    hop = tracer.begin("hop", kind="queue-hop", start=0.1, parent_id=fiber)
    assert [s.id for s in tracer.children_of(root)] == [fiber]
    assert [s.id for s in tracer.ancestors(hop)] == [fiber, root]
    assert tracer.task_root("t1").id == root
    assert [s.id for s in tracer.task_tree("t1")] == [root, fiber, hop]
    assert tracer.verify_parents() == []


def test_verify_parents_flags_dangling_ids():
    tracer = Tracer()
    orphan = tracer.begin("x", kind="operation", start=0.0, parent_id=999)
    assert [s.id for s in tracer.verify_parents()] == [orphan]


def test_annotations_attach_in_order():
    tracer = Tracer()
    span_id = tracer.begin("hop", kind="queue-hop", start=0.0)
    tracer.event(0.5, "fault.drop", span_id, msg=7)
    tracer.event(0.9, "dead-letter", span_id)
    span = tracer.get(span_id)
    assert [(t, n) for t, n, _ in span.annotations] == \
        [(0.5, "fault.drop"), (0.9, "dead-letter")]


def test_disabled_tracer_allocates_nothing():
    tracer = Tracer(events=False)
    span_id = tracer.begin("work", kind="operation", start=0.0)
    assert span_id == 0
    # end/event on the 0 sentinel are harmless no-ops
    tracer.end(span_id, end=1.0)
    tracer.event(0.5, "mark", span_id)
    assert tracer.events == []
    assert tracer.spans_created == 0
    assert tracer.spans() == []


def test_end_unknown_span_is_noop():
    tracer = Tracer()
    tracer.end(42, end=1.0)
    tracer.event(1.0, "x", 42)
    assert tracer.spans() == []


def test_summary_and_open_spans():
    tracer = Tracer()
    a = tracer.begin("a", kind="task", start=0.0)
    tracer.begin("b", kind="queue-hop", start=0.0, parent_id=a)
    tracer.end(a, end=1.0)
    summary = tracer.summary()
    assert summary["created"] == 2
    assert summary["open"] == 1
    assert summary["by_kind"] == {"task": 1, "queue-hop": 1}
    assert [s.kind for s in tracer.open_spans()] == ["queue-hop"]


def test_render_tree_shows_nesting_and_annotations():
    tracer = Tracer()
    root = tracer.begin("task:t1", kind="task", start=0.0, task="t1")
    hop = tracer.begin("hop:Run", kind="queue-hop", start=0.1,
                       parent_id=root, msg=3)
    tracer.event(0.2, "fault.drop", hop)
    tracer.end(hop, end=0.3)
    tracer.end(root, end=1.0)
    text = tracer.render_tree(tracer.get(root))
    lines = text.splitlines()
    assert lines[0].startswith("task task:t1")
    assert lines[1].startswith("  queue-hop hop:Run")
    assert "msg=3" in lines[1]
    assert "@ 0.200 fault.drop" in lines[2]
