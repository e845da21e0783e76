"""Experiment F1 — Figure 1: Sample Workflow Lifetime.

Regenerates the paper's Figure 1 as a causally ordered event trace of
one task: Start -> RunFiber -> non-blocking service call (suspend +
persist) -> ResumeFromCall -> for-each fan-out -> AwakeFiber x N ->
completion.  The benchmark measures the end-to-end advance of one such
lifetime, reconstructs it as a causal span *tree* (repro.observe), and
exports a Perfetto-loadable Chrome ``trace_event`` JSON of it.
"""

import json
import os

from repro.bluebox.services import simple_service
from repro.faults.injector import FaultInjector
from repro.faults.plan import DROP, FaultPlan, MessageFault
from repro.harness.reporting import observability_tables, table, \
    write_json_report
from repro.observe.export import span_tree_from_events, write_chrome_trace
from repro.vinz.api import VinzEnvironment

SAMPLE_WORKFLOW = """
(deflink MKT :wsdl "urn:market-service")

(defun main (params)
  ;; one non-blocking service call: the fiber migrates away while the
  ;; service computes (Section 3.2)
  (let ((price (MKT-Quote-Method :Symbol params)))
    ;; then a distributed map over two positions (Section 3.5)
    (apply #'+ (for-each (qty in (list 10 20))
                 (* qty price)))))
"""


def build_env(trace=True):
    env = VinzEnvironment(nodes=3, seed=202, trace=trace)

    def quote(ctx, body):
        ctx.charge(0.5)
        return 4.25

    env.deploy_service(simple_service("Market", {"Quote": quote},
                                      namespace="urn:market-service",
                                      parameters={"Quote": ["Symbol"]}))
    env.deploy_workflow("Sample", SAMPLE_WORKFLOW)
    return env


def run_lifetime(env):
    task_id = env.run("Sample", "IBM")
    assert env.registry.tasks[task_id].result == (10 + 20) * 4.25
    return task_id


def test_figure1_lifetime(benchmark, bench_report):
    benchmark(lambda: run_lifetime(build_env(trace=False)))

    env = build_env()
    task_id = run_lifetime(env)
    events = env.cluster.tracer.for_task(task_id)

    lines = ["== Figure 1 — Sample Workflow Lifetime (reproduced) ==",
             f"(one task: {task_id}; times are virtual seconds)", ""]
    for event in events:
        lines.append(repr(event))

    # summarize the phases for the experiments table
    kinds = [e.kind for e in events]
    phases = [
        ("Start creates task+fiber, persists initial state",
         "task-start" in kinds),
        ("RunFiber begins the fiber on some instance",
         "fiber-run" in kinds),
        ("service request -> yield -> persist (non-blocking)",
         "service-request" in kinds and "fiber-suspend" in kinds),
        ("ResumeFromCall restores the fiber elsewhere",
         any(e.kind == "fiber-run" and e.detail.get("resume")
             for e in events)),
        ("for-each forks child fibers", "fiber-fork" in kinds),
        ("children complete, AwakeFiber wakes the parent",
         sum(1 for k in kinds if k == "fiber-complete") >= 3),
        ("task completes", "task-complete" in kinds),
    ]
    lines.append("")
    lines.append(table("Lifetime phases", ["phase", "observed"], phases))
    bench_report("fig1_lifetime", "\n".join(lines))

    for _phase, observed in phases:
        assert observed, _phase


def test_figure1_span_tree_export(bench_report):
    """One task's full distributed lifetime as a causal span tree:
    queue hops, operation windows, fiber runs and persistence nest with
    correct parent links, and the tree survives a round trip through
    the exported Chrome ``trace_event`` JSON."""
    env = build_env()
    task_id = run_lifetime(env)
    tracer = env.tracer

    tree = tracer.task_tree(task_id)
    assert tree, "task span tree is empty"
    kinds = {span.kind for span in tree}
    for kind in ("task", "fiber", "queue-hop", "operation",
                 "fiber-run", "persistence"):
        assert kind in kinds, f"span tree lacks {kind} spans"
    assert tracer.verify_parents() == [], "dangling parent ids"

    # structural nesting: fiber-run -> operation -> queue-hop
    by_id = {span.id: span for span in tree}
    runs = [span for span in tree if span.kind == "fiber-run"]
    assert runs
    for run in runs:
        op = by_id[run.parent_id]
        assert op.kind == "operation"
        assert by_id[op.parent_id].kind == "queue-hop"
    # persistence nests under the work that did it: continuation
    # encode/decode under a fiber-run; the task-env read happens in the
    # operation window before the fiber advances
    persists = [span for span in tree if span.kind == "persistence"]
    assert persists
    for span in persists:
        assert by_id[span.parent_id].kind in ("fiber-run", "operation")
    assert any(by_id[span.parent_id].kind == "fiber-run"
               for span in persists)

    out_dir = os.path.join(os.path.dirname(__file__), "out")
    os.makedirs(out_dir, exist_ok=True)
    path = write_chrome_trace(tracer,
                              os.path.join(out_dir, "fig1_trace.json"))
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["traceEvents"]
    exported = span_tree_from_events(doc["traceEvents"])
    for span in tree:
        assert exported.get(span.id) == span.parent_id

    report_path = write_json_report(
        env, os.path.join(out_dir, "fig1_observability.json"))
    with open(report_path) as fh:
        assert json.load(fh)["spans"]["created"] > 0

    root = tracer.task_root(task_id)
    bench_report(
        "fig1_span_tree",
        "== Figure 1 — causal span tree (one task) ==\n"
        f"(task {task_id}; times are virtual seconds)\n\n"
        + tracer.render_tree(root)
        + f"\n\nexported: {path} ({len(doc['traceEvents'])} events)\n"
        + f"report:   {report_path}\n\n"
        + observability_tables(env))


def test_figure1_trace_links_fault_redelivery():
    """A fault-driven redelivery opens a new queue-hop span parented to
    the message's *original* hop, so the retried lifetime stays one
    tree — the acceptance criterion for retries in the span model."""
    env = build_env()
    plan = FaultPlan([MessageFault(action=DROP, service="Sample",
                                   operation="RunFiber", nth=1)])
    FaultInjector(7, plan).install(env)
    task_id = run_lifetime(env)
    tracer = env.tracer

    retries = [span for span in tracer.spans_of_kind("queue-hop")
               if "retry_of" in span.attrs]
    assert retries, "the dropped RunFiber produced no retry hop span"
    for hop in retries:
        origin = tracer.get(hop.attrs["retry_of"])
        assert origin is not None and origin.kind == "queue-hop"
        assert hop.parent_id == origin.id
        assert hop.attrs["attempt"] >= 1
    # the redelivered message's spans still belong to the task's tree
    tree_ids = {span.id for span in tracer.task_tree(task_id)}
    assert any(hop.id in tree_ids for hop in retries)
    # the injected drop is recorded on the original hop span
    origins = {tracer.get(hop.attrs["retry_of"]) for hop in retries}
    assert any(event.kind == "fault.injected"
               and event.detail["action"] == DROP
               for origin in origins
               for event in origin.annotations)
    assert tracer.verify_parents() == []


def test_figure1_nodes_differ():
    """The lifetime genuinely spans machines: the fiber's successive
    run events land on more than one node (migration, Section 3.1)."""
    env = build_env()
    task_id = run_lifetime(env)
    events = env.cluster.tracer.for_task(task_id)
    runs = [e.detail["node"] for e in events if e.kind == "fiber-run"]
    assert len(set(runs)) >= 2
