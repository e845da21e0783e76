"""The tracer's flat event stream and the registry's always-on
instruments (counters, sums, levels)."""

from repro.observe import Level, MetricsRegistry, Tracer


class TestEventStream:
    def test_record_and_query(self):
        tracer = Tracer()
        tracer.event(1.0, "enqueue", task="t1")
        tracer.event(2.0, "deliver", task="t1")
        tracer.event(3.0, "enqueue", task="t2")
        assert len(tracer.of_kind("enqueue")) == 2
        assert len(tracer.for_task("t1")) == 2

    def test_disabled_records_nothing(self):
        tracer = Tracer(events=False)
        tracer.event(1.0, "x")
        assert tracer.events == []

    def test_render_format(self):
        tracer = Tracer()
        tracer.event(1.5, "deliver", node="n1")
        text = tracer.render()
        assert "deliver" in text and "node=n1" in text

    def test_one_write_lands_in_the_stream_and_on_the_span(self):
        tracer = Tracer()
        span_id = tracer.begin("hop", kind="queue-hop", start=0.0)
        tracer.event(0.5, "fault.injected", span_id, action="drop")
        (event,) = tracer.events
        assert tracer.get(span_id).annotations == [event]
        assert (event.time, event.kind, event.detail) == \
            (0.5, "fault.injected", {"action": "drop"})

    def test_spans_only_annotates_without_filling_the_stream(self):
        tracer = Tracer(events=False, spans=True)
        span_id = tracer.begin("hop", kind="queue-hop", start=0.0)
        tracer.event(0.5, "mark", span_id)
        assert tracer.events == []
        assert [e.kind for e in tracer.get(span_id).annotations] == ["mark"]

    def test_events_only_creates_no_spans(self):
        tracer = Tracer(events=True, spans=False)
        assert tracer.enabled
        assert tracer.begin("hop", kind="queue-hop", start=0.0) == 0
        tracer.event(0.5, "mark")
        assert tracer.spans() == [] and len(tracer.events) == 1

    def test_signature_is_order_preserving_and_filterable(self):
        tracer = Tracer()
        tracer.event(0.0, "a", x=1)
        tracer.event(1.0, "b")
        assert tracer.signature() == tracer.signature()
        assert len(tracer.signature("a")) == 1


class TestCounters:
    def test_incr_get(self):
        c = MetricsRegistry()
        c.incr("x")
        c.incr("x", 2)
        assert c.get("x") == 3
        assert c.get("missing") == 0

    def test_sums_and_mean(self):
        c = MetricsRegistry()
        c.add("dur", 2.0)
        c.add("dur", 4.0)
        c.incr("n")
        c.incr("n")
        assert c.get_sum("dur") == 6.0
        assert c.mean("dur", "n") == 3.0
        assert c.mean("dur", "never") == 0.0

    def test_snapshot(self):
        c = MetricsRegistry()
        c.incr("a")
        c.add("s", 1.5)
        snap = c.snapshot()
        assert snap["counters"] == {"a": 1}
        assert snap["sums"] == {"s": 1.5}

    def test_counters_count_when_the_registry_is_disabled(self):
        c = MetricsRegistry(enabled=False)
        c.incr("a")
        c.add("s", 2.0)
        c.level("in_flight").change(0.0, +1)
        c.histogram("h").observe(1.0)
        c.gauge("g").set(1.0)
        snap = c.snapshot()
        assert snap["counters"] == {"a": 1} and snap["sums"] == {"s": 2.0}
        assert snap["levels"] == {"in_flight": {"level": 1, "peak": 1}}
        assert snap["histograms"] == {} and snap["gauges"] == {}


class TestLevel:
    def test_peak_tracking(self):
        s = Level("tasks")
        s.change(0.0, +1)
        s.change(1.0, +1)
        s.change(2.0, -1)
        assert s.peak == 2
        assert s.level == 1

    def test_time_weighted_mean(self):
        s = Level("tasks")
        s.change(0.0, +2)   # level 2 for [0, 10)
        s.change(10.0, -1)  # level 1 for [10, 20)
        assert s.mean_until(20.0) == (2 * 10 + 1 * 10) / 20

    def test_mean_at_zero_time(self):
        assert Level("tasks").mean_until(0.0) == 0.0

    def test_registry_hands_out_one_level_per_name(self):
        registry = MetricsRegistry()
        assert registry.level("tasks") is registry.level("tasks")
