"""Admission-control tests: watermark verdicts in isolation, then the
full backpressure loop end-to-end — an overloaded service sheds with a
retryable ``{urn:bluebox}ServerBusy`` fault, a Gozer ``defhandler``
retries it to success, and every decision is visible as ``sched.*``
metrics and ``sched``-kind spans in the Chrome trace export."""

import pytest

from repro.bluebox.services import simple_service
from repro.observe.export import chrome_trace_events
from repro.sched.admission import (
    ACCEPT,
    DELAY,
    SERVER_BUSY_QNAME,
    SHED,
    AdmissionConfig,
    AdmissionController,
    make_admission,
)
from repro.vinz.api import VinzEnvironment
from repro.vinz.task import COMPLETED


class TestWatermarks:
    def test_accept_below_delay_watermark(self):
        c = AdmissionController()
        assert c.decide("S", "Op", backlog=3, slots=1,
                        sheddable=True) == (ACCEPT, 0.0)

    def test_delay_between_watermarks(self):
        c = AdmissionController()
        verdict, delay = c.decide("S", "Op", backlog=6, slots=1,
                                  sheddable=True)
        assert verdict == DELAY and delay > 0.0

    def test_shed_above_shed_watermark(self):
        c = AdmissionController()
        verdict, delay = c.decide("S", "Op", backlog=20, slots=1,
                                  sheddable=True)
        assert verdict == SHED and delay == 0.0

    def test_unsheddable_request_is_delayed_not_shed(self):
        """No reply_to means nobody to hand the fault to — the deepest
        overload still only delays."""
        c = AdmissionController()
        verdict, delay = c.decide("S", "Op", backlog=50, slots=1,
                                  sheddable=False)
        assert verdict == DELAY and delay > 0.0

    def test_exempt_operations_always_accepted(self):
        c = AdmissionController()
        for op in ("RunFiber", "AwakeFiber", "ResumeFromCall",
                   "JoinProcess", "DeliverMessage", "Terminate"):
            assert c.decide("S", op, backlog=500, slots=1,
                            sheddable=True) == (ACCEPT, 0.0)

    def test_backlog_normalised_by_slots(self):
        c = AdmissionController()
        assert c.decide("S", "Op", backlog=20, slots=8,
                        sheddable=True)[0] == ACCEPT

    def test_deeper_overload_backs_off_harder(self):
        c = AdmissionController()
        shallow = c.decide("S", "Op", 5, 1, False)[1]
        deep = c.decide("S", "Op", 40, 1, False)[1]
        assert deep > shallow

    def test_decisions_are_counted(self):
        c = AdmissionController()
        c.decide("S", "Op", 0, 1, True)
        c.decide("S", "Op", 6, 1, True)
        c.decide("S", "Op", 20, 1, True)
        assert c.summary() == {"accepted": 1, "delayed": 1, "shed": 1}

    def test_scoped_to_named_services(self):
        c = AdmissionController(AdmissionConfig(
            services=frozenset({"Backend"})))
        # ungoverned service: any backlog is accepted
        assert c.decide("Workflow", "Start", backlog=100, slots=1,
                        sheddable=True) == (ACCEPT, 0.0)
        # governed service still sheds
        assert c.decide("Backend", "Op", backlog=100, slots=1,
                        sheddable=True)[0] == SHED

    def test_make_admission_specs(self):
        assert make_admission(None) is None
        assert make_admission(False) is None
        assert isinstance(make_admission(True), AdmissionController)
        cfg = AdmissionConfig(delay_watermark=1.0)
        controller = make_admission(cfg)
        assert controller.config is cfg
        assert make_admission(controller) is controller
        with pytest.raises(ValueError):
            make_admission("open-door")


class TestEndToEndBackpressure:
    def _overloaded_env(self):
        """Twelve concurrent workflows all call one slow two-slot
        service: backlog rockets past the shed watermark, so some calls
        are answered with ServerBusy, and the workflow-side handler
        retries them until the cluster drains."""
        env = VinzEnvironment(
            nodes=2, seed=5,
            admission=AdmissionConfig(delay_watermark=0.5,
                                      shed_watermark=1.0,
                                      services=frozenset({"Svc"})))
        calls = {"n": 0}

        def tx(ctx, body):
            calls["n"] += 1
            ctx.charge(0.5)
            return "ok"

        env.deploy_service(simple_service("Svc", {"Tx": tx},
                                          namespace="urn:svc"))
        env.deploy_workflow("W", """
            (deflink S :wsdl "urn:svc")
            (defhandler busy-retry
              :code ("{urn:bluebox}ServerBusy")
              :action retry
              :count 1000)
            (defun main (params)
              (with-handler busy-retry (S-Tx-Method)))""")
        return env, calls

    def test_overload_sheds_then_gozer_retry_succeeds(self):
        env, calls = self._overloaded_env()
        tasks = [env.start("W", i) for i in range(12)]
        env.cluster.run_until_idle()
        # every task survived the overload...
        assert all(env.registry.tasks[t].status == COMPLETED
                   for t in tasks)
        # ...the service actually shed (the handler had work to do)...
        admission = env.cluster.admission
        assert admission.shed > 0
        # ...and each task's call executed exactly once: sheds happen at
        # the front door, before the service runs
        assert calls["n"] == 12

    def test_decisions_visible_as_metrics_and_spans(self):
        env, _calls = self._overloaded_env()
        tasks = [env.start("W", i) for i in range(12)]
        env.cluster.run_until_idle()
        assert all(env.registry.tasks[t].status == COMPLETED
                   for t in tasks)
        # sched.* metrics
        metrics = env.cluster.metrics
        assert metrics.get("sched.admission.shed") == \
            env.cluster.admission.shed > 0
        assert metrics.gauge("sched.backlog.Svc").value >= 0
        # sched-kind spans, present in the Chrome trace export
        shed_spans = [s for s in env.cluster.tracer.spans_of_kind("sched")
                      if s.name.startswith("sched:shed")]
        assert shed_spans
        names = {e.get("name") for e in
                 chrome_trace_events(env.cluster.tracer)}
        assert any(n and n.startswith("sched:shed") for n in names)

    def test_shed_fault_is_the_documented_qname(self):
        """A caller with no handler sees the raw retryable fault."""
        env = VinzEnvironment(
            nodes=1, seed=5,
            admission=AdmissionConfig(delay_watermark=0.1,
                                      shed_watermark=0.1))
        replies = []

        def probe(ctx, body):
            ctx.charge(1.0)
            return "slow"

        env.deploy_service(simple_service("Svc", {"Px": probe},
                                          namespace="urn:svc"))
        from repro.bluebox.messagequeue import ReplyTo
        # two sends back-to-back: the second finds backlog >= watermark
        env.cluster.send("Svc", "Px", {},
                         reply_to=ReplyTo(callback=replies.append))
        env.cluster.send("Svc", "Px", {},
                         reply_to=ReplyTo(callback=replies.append))
        env.cluster.run_until_idle()
        # callbacks receive the serialized reply body
        faults = [r for r in replies if "fault" in r]
        assert faults and faults[0]["fault"] == SERVER_BUSY_QNAME

    def test_admission_off_by_default(self):
        env = VinzEnvironment(nodes=1, seed=5)
        assert env.cluster.admission is None
