"""deflink tests (paper Section 3.3 / Listing 2)."""

import pytest

from repro.bluebox.services import Service, ServiceFault, simple_service
from repro.lang.errors import CompileError
from repro.lang.symbols import Keyword, Symbol
from repro.vinz.api import VinzEnvironment, WorkflowError

S = Symbol
K = Keyword


def security_manager():
    """A stand-in for the paper's SecurityManager service."""
    svc = Service("SecurityManager",
                  namespace="urn:security-manager-service",
                  doc="Session management.")

    def list_sessions(ctx, body):
        ctx.charge(0.01)
        realm = body.get("WithinRealm") or "default"
        return [f"session-{realm}-1", f"session-{realm}-2"]

    svc.add_operation(
        "ListSessions", list_sessions,
        doc="Returns a list of sessions visible to the caller.",
        parameters=["FilterParams", "WithinRealm"])
    svc.add_operation(
        "InternalOnly", lambda ctx, body: None,
        doc="Not invokable from Gozer.", bridgeable=False)
    return svc


@pytest.fixture
def env():
    environment = VinzEnvironment(nodes=3, seed=9)
    environment.deploy_service(security_manager())
    return environment


class TestGeneratedFunctions:
    def test_method_function_generated(self, env):
        env.deploy_workflow("W", """
            (deflink SM :wsdl "urn:security-manager-service"
                        :port "SecurityManager")
            (defun main (params)
              (SM-ListSessions-Method :WithinRealm "prod"))""")
        assert env.call("W", None) == ["session-prod-1", "session-prod-2"]

    def test_invoker_function_generated(self, env):
        env.deploy_workflow("W", """
            (deflink SM :wsdl "urn:security-manager-service")
            (defun main (params)
              (let ((msg (make-service-message "ListSessions")))
                (. msg (set "WithinRealm" "x"))
                (SM-ListSessions :message msg)))""")
        assert env.call("W", None) == ["session-x-1", "session-x-2"]

    def test_documentation_preserved(self, env):
        """'the documentation specified in the interface document is
        preserved for the Gozer programmer' (Section 3.3)."""
        env.deploy_workflow("W", "(defun main (p) p)" + """
            (deflink SM :wsdl "urn:security-manager-service")""")
        runtime = env.workflows["W"].runtime
        fn = runtime.global_env.lookup(S("SM-ListSessions-Method"))
        assert "Returns a list of sessions" in fn.doc

    def test_keyword_arguments_match_wsdl_parts(self, env):
        env.deploy_workflow("W", """
            (deflink SM :wsdl "urn:security-manager-service")
            (defun main (params)
              (SM-ListSessions-Method))""")  # all params optional
        assert env.call("W", None) == ["session-default-1", "session-default-2"]

    def test_unknown_namespace_fails_at_load(self, env):
        with pytest.raises(Exception):
            env.deploy_workflow("W", """
                (deflink X :wsdl "urn:does-not-exist")
                (defun main (p) p)""")


class TestErrorStubs:
    def test_unbridgeable_op_not_defined_as_function(self, env):
        env.deploy_workflow("W", """
            (deflink SM :wsdl "urn:security-manager-service")
            (defun main (p) p)""")
        runtime = env.workflows["W"].runtime
        assert runtime.global_env.lookup_or(S("SM-InternalOnly")) is None

    def test_unbridgeable_op_use_is_compile_time_error(self, env):
        """'if and only if the workflow tried to invoke that operation,
        a compile-time error will occur and the workflow will not be
        loaded' (Section 3.3)."""
        with pytest.raises(CompileError):
            env.deploy_workflow("W", """
                (deflink SM :wsdl "urn:security-manager-service")
                (defun main (p) (SM-InternalOnly))""")

    def test_unused_unbridgeable_op_loads_fine(self, env):
        env.deploy_workflow("W", """
            (deflink SM :wsdl "urn:security-manager-service")
            (defun main (p) :loaded)""")
        assert env.call("W", None) == K("loaded")


class TestFaultIntegration:
    def test_service_fault_signalled_as_condition(self, env):
        def denied(ctx, body):
            raise ServiceFault("{urn:flaky}Denied", "no access")

        env.deploy_service(simple_service("Flaky", {"Check": denied},
                                          namespace="urn:flaky"))
        env.deploy_workflow("W", """
            (deflink F :wsdl "urn:flaky")
            (defun main (params)
              (handler-case (F-Check-Method)
                (service-error (c) (list :qname (condition-qname c)
                                         :msg (condition-message c)))))""")
        result = env.call("W", None)
        assert result == [K("qname"), "{urn:flaky}Denied",
                          K("msg"), "no access"]

    def test_qname_handler_matching(self, env):
        """Listing 6 style: handlers match on XML QNames."""
        def denied(ctx, body):
            raise ServiceFault("{urn:flaky}Denied", "no")

        env.deploy_service(simple_service("Flaky", {"Check": denied},
                                          namespace="urn:flaky"))
        env.deploy_workflow("W", """
            (deflink F :wsdl "urn:flaky")
            (defun main (params)
              (handler-case (F-Check-Method)
                ("{urn:flaky}Denied" (c) :matched-by-qname)))""")
        assert env.call("W", None) == K("matched-by-qname")

    def test_unhandled_fault_fails_task(self, env):
        def denied(ctx, body):
            raise ServiceFault("{urn:flaky}Denied", "no")

        env.deploy_service(simple_service("Flaky", {"Check": denied},
                                          namespace="urn:flaky"))
        env.deploy_workflow("W", """
            (deflink F :wsdl "urn:flaky")
            (defun main (params) (F-Check-Method))""")
        with pytest.raises(WorkflowError):
            env.call("W", None)


class TestSyncModes:
    def _count_service(self, env):
        calls = {"n": 0}

        def op(ctx, body):
            calls["n"] += 1
            return calls["n"]

        env.deploy_service(simple_service("Cnt", {"Hit": op},
                                          namespace="urn:cnt"))
        return calls

    def test_static_sync_mode_skips_migration(self, env):
        self._count_service(env)
        env.deploy_workflow("W", """
            (deflink C :wsdl "urn:cnt" :sync t)
            (defun main (params) (C-Hit-Method))""")
        assert env.call("W", None) == 1
        # no ResumeFromCall happened: the call was synchronous
        assert env.cluster.metrics.get("op.W.ResumeFromCall") == 0
        assert env.cluster.metrics.get("sync.Cnt.Hit") == 1

    def test_dynamic_force_sync(self, env):
        """*vinz-force-sync* switches to synchronous at run time."""
        self._count_service(env)
        env.deploy_workflow("W", """
            (deflink C :wsdl "urn:cnt")
            (defun main (params)
              (let ((*vinz-force-sync* t))
                (C-Hit-Method)))""")
        assert env.call("W", None) == 1
        assert env.cluster.metrics.get("op.W.ResumeFromCall") == 0

    def test_async_by_default_on_fiber_thread(self, env):
        self._count_service(env)
        env.deploy_workflow("W", """
            (deflink C :wsdl "urn:cnt")
            (defun main (params) (C-Hit-Method))""")
        assert env.call("W", None) == 1
        assert env.cluster.metrics.get("op.W.ResumeFromCall") == 1

    def test_background_thread_goes_sync_automatically(self, env):
        """Section 3.2: from a future's thread, Vinz 'detects this and
        automatically makes a standard synchronous request'."""
        self._count_service(env)
        env.deploy_workflow("W", """
            (deflink C :wsdl "urn:cnt")
            (defun main (params)
              (touch (future (C-Hit-Method))))""")
        assert env.call("W", None) == 1
        assert env.cluster.metrics.get("op.W.ResumeFromCall") == 0
        assert env.cluster.metrics.get("sync.Cnt.Hit") == 1


class TestRestartsFromDeflink:
    def test_retry_restart_bound(self, env):
        state = {"fails": 2}

        def flaky(ctx, body):
            if state["fails"] > 0:
                state["fails"] -= 1
                raise ServiceFault("{urn:fl}Connect", "reset")
            return "ok"

        env.deploy_service(simple_service("Fl", {"Go": flaky},
                                          namespace="urn:fl"))
        env.deploy_workflow("W", """
            (deflink F :wsdl "urn:fl")
            (defun main (params)
              (handler-bind ((error (lambda (c) (invoke-restart 'retry))))
                (F-Go-Method)))""")
        assert env.call("W", None) == "ok"

    def test_ignore_restart_bound(self, env):
        def always_fails(ctx, body):
            raise ServiceFault("{urn:fl}Boom", "x")

        env.deploy_service(simple_service("Fl", {"Go": always_fails},
                                          namespace="urn:fl"))
        env.deploy_workflow("W", """
            (deflink F :wsdl "urn:fl")
            (defun main (params)
              (handler-bind ((error (lambda (c) (invoke-restart 'ignore))))
                (list :result (F-Go-Method))))""")
        assert env.call("W", None) == [K("result"), None]
