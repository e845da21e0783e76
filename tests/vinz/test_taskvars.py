"""Task variable tests (paper Section 3.6)."""

import pytest

from repro.lang.symbols import Keyword
from repro.vinz.api import VinzEnvironment, WorkflowError

K = Keyword


@pytest.fixture
def env():
    return VinzEnvironment(nodes=3, seed=21)


class TestBasics:
    def test_default_value(self, env):
        env.deploy_workflow("W", """
            (deftaskvar counter "Counts things." 0)
            (defun main (params) ^counter^)""")
        assert env.call("W", None) == 0

    def test_set_and_read_back(self, env):
        env.deploy_workflow("W", """
            (deftaskvar flag)
            (defun main (params)
              (setf ^flag^ :set)
              ^flag^)""")
        assert env.call("W", None) == K("set")

    def test_setf_returns_value(self, env):
        env.deploy_workflow("W", """
            (deftaskvar v)
            (defun main (params) (setf ^v^ 42))""")
        assert env.call("W", None) == 42

    def test_undeclared_task_var_errors(self, env):
        env.deploy_workflow("W", """
            (defun main (params) (%get-task-var 'undeclared^))""")
        with pytest.raises(WorkflowError):
            env.call("W", None)

    def test_reader_macro_expansion(self, env):
        """^var^ reads as (%get-task-var 'var^) — Listing 5."""
        env.deploy_workflow("W", "(defun main (p) p)")
        service = env.workflows["W"]
        form = service.runtime.read("^exit-flag^")
        from repro.lang.symbols import Symbol

        assert form[0] is Symbol("%get-task-var")
        assert form[1][1] is Symbol("exit-flag^")

    def test_unbalanced_caret_is_reader_error(self, env):
        env.deploy_workflow("W", "(defun main (p) p)")
        service = env.workflows["W"]
        from repro.gvm.conditions import UnhandledConditionError

        with pytest.raises(UnhandledConditionError):
            service.runtime.read("^no-trailing-caret")


class TestCrossFiberVisibility:
    def test_child_sees_parent_write(self, env):
        """All fibers within a task 'will always see the latest value'."""
        env.deploy_workflow("W", """
            (deftaskvar shared "Shared state." :initial)
            (defun main (params)
              (setf ^shared^ :from-parent)
              (car (for-each (x in (list 1)) ^shared^)))""")
        assert env.call("W", None) == K("from-parent")

    def test_parent_sees_child_write(self, env):
        env.deploy_workflow("W", """
            (deftaskvar result-box)
            (defun main (params)
              (for-each (x in (list 7)) (setf ^result-box^ (* x x)))
              ^result-box^)""")
        assert env.call("W", None) == 49

    def test_isolation_between_tasks(self, env):
        """Task variables are per-task: two tasks don't share."""
        env.deploy_workflow("W", """
            (deftaskvar acc 0)
            (defun main (params)
              (setf ^acc^ (+ ^acc^ params))
              ^acc^)""")
        assert env.call("W", 5) == 5
        assert env.call("W", 3) == 3  # fresh task starts from default

    def test_value_survives_suspension(self, env):
        env.deploy_workflow("W", """
            (deftaskvar v)
            (defun main (params)
              (setf ^v^ :before-sleep)
              (workflow-sleep 10)
              ^v^)""")
        assert env.call("W", None) == K("before-sleep")

    @pytest.mark.parametrize("held, call", [
        ("#'read-from-string", '(funcall ^hook^ "42")'),
        ("#'double", "(funcall ^hook^ 21)"),
        ("(lambda (x) (* x 2))", "(funcall ^hook^ 21)"),
    ], ids=["nested-intrinsic", "defun", "lambda"])
    def test_function_value_round_trips(self, env, held, call):
        """A task variable holds anything a fiber can: it goes through
        the fiber codec, so a host intrinsic defined inside an
        installer travels by name like it does on an operand stack."""
        env.deploy_workflow("W", f"""
            (deftaskvar hook)
            (defun double (x) (* x 2))
            (defun main (params)
              (setf ^hook^ {held})
              (workflow-sleep 1)
              {call})""")
        assert env.call("W", None) == 42


class TestOverheadAccounting:
    def test_writes_are_counted(self, env):
        env.deploy_workflow("W", """
            (deftaskvar v 0)
            (defun main (params)
              (dotimes (i 5) (setf ^v^ i))
              ^v^)""")
        env.call("W", None)
        assert env.counters.get("taskvar.writes") == 5
        assert env.counters.get("taskvar.reads") >= 1

    def test_mutation_has_high_sync_overhead(self, env):
        """Section 5: 'task variables ... have a very high
        synchronization overhead for mutation' — writes cost more
        simulated time than plain computation."""
        env.deploy_workflow("Writes", """
            (deftaskvar v 0)
            (defun main (params)
              (dotimes (i 50) (setf ^v^ i)))""")
        env.deploy_workflow("Plain", """
            (defun main (params)
              (let ((v 0)) (dotimes (i 50) (setq v i))))""")
        env.run("Writes", None)
        t_writes = env.cluster.kernel.now
        base = env.cluster.kernel.now
        env.run("Plain", None)
        t_plain = env.cluster.kernel.now - base
        assert t_writes > 5 * t_plain

    def test_docs_recorded(self, env):
        env.deploy_workflow("W", """
            (deftaskvar flag "A global flag.")
            (defun main (p) p)""")
        service = env.workflows["W"]
        assert service.task_var_docs["flag"] == "A global flag."
