"""Tracing must be zero-cost when disabled: a traced-off run creates no
spans, records no events, allocates no per-message span state, and
keeps no histograms or gauges (counters are the always-on set
``summary()`` reports)."""

from repro.bluebox.services import simple_service
from repro.vinz.api import VinzEnvironment

WORKFLOW = """
(deflink SVC :wsdl "urn:overhead-svc")

(defun main (items)
  (apply #'+ (for-each (x in items)
               (+ x (SVC-Echo-Method :Value x)))))
"""


def build_env(**kwargs):
    env = VinzEnvironment(nodes=3, seed=31, **kwargs)

    def echo(ctx, body):
        ctx.charge(0.1)
        return body.get("Value", 0)

    env.deploy_service(simple_service("Overhead", {"Echo": echo},
                                      namespace="urn:overhead-svc",
                                      parameters={"Echo": ["Value"]}))
    env.deploy_workflow("Over", WORKFLOW)
    return env


def test_disabled_run_creates_no_spans_events_histograms_or_gauges():
    env = build_env(trace=False)
    task_id = env.run("Over", [1, 2, 3])
    assert env.registry.tasks[task_id].result == 12

    assert not env.tracer.enabled
    assert env.tracer.spans_created == 0
    assert env.tracer.spans() == []
    assert env.tracer.events == []
    snapshot = env.metrics.snapshot()
    assert snapshot["histograms"] == {} and snapshot["gauges"] == {}
    assert snapshot["counters"]["tasks.completed"] == 1
    # no span ids leaked into fiber records either
    assert all(f.span_id == 0 for f in env.registry.fibers.values())
    assert all(t.span_id == 0 for t in env.registry.tasks.values())


def test_spans_flag_decouples_the_span_tree_from_the_event_stream():
    # spans on, event stream off: the tree is built (events land on
    # their spans), the flat stream stays empty
    env = build_env(trace=False, spans=True)
    env.run("Over", [1, 2])
    assert env.tracer.spans_created > 0
    assert env.tracer.events == []
    assert any(s.annotations for s in env.tracer.spans())

    # spans explicitly off even though the event stream is on
    env = build_env(trace=True, spans=False)
    env.run("Over", [1, 2])
    assert env.tracer.spans_created == 0
    assert env.tracer.events
    assert env.metrics.snapshot()["histograms"] == {}


def test_no_call_site_builds_arguments_when_tracing_is_off(monkeypatch):
    """Every observability call site checks the flag before evaluating
    its keyword arguments: with tracing off, none of the recording
    entry points is even entered."""
    from repro.observe import Tracer

    def forbidden(self, *args, **kwargs):
        raise AssertionError("tracer write reached with tracing off")

    for name in ("event", "begin", "end"):
        monkeypatch.setattr(Tracer, name, forbidden)
    env = build_env(trace=False)
    task_id = env.run("Over", [1, 2, 3])
    assert env.registry.tasks[task_id].result == 12
