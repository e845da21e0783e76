"""A VM started from a fiber runs as that fiber.

A future's body, and the forms ``eval`` and ``load-file`` evaluate, run
on VMs of their own, started from the fiber's VM
(``Runtime.new_vm(parent)``), and carry its ``vm.vinz``: the fiber's
rules hold there with no code of their own (docs/language.md §4).
``(% is-fiber-thread)`` answers whether a VM may yield, which only the
fiber's own VM may.
"""

import pytest

from repro.bluebox.services import simple_service
from repro.gvm.futures import ThreadPoolFutureExecutor
from repro.gvm.runtime import make_runtime
from repro.gvm.vm import Done
from repro.lang.symbols import Keyword, Symbol
from repro.vinz.api import VinzEnvironment
from repro.vinz.execution import GLOBAL_WRITE
from repro.vinz.task import COMPLETED, ERROR

REFUSED = f"{GLOBAL_WRITE}: a fiber cannot write the program global *n*"


def deploy(body, capacity=256, defs="(defvar *n* 0)"):
    """``main`` evaluates ``body``, then suspends twice: with
    ``capacity=0`` both resumes rebuild the fiber from the task start."""
    env = VinzEnvironment(history="on", snapshot_interval=8)
    env.deploy_workflow("W", f"""{defs}
        (defun main (params)
          (let ((value {body}))
            (workflow-sleep 0.1)
            (workflow-sleep 0.1)
            value))""", cache_capacity=capacity)
    return env


def run(env):
    """Run the task to its end and verify it by replay."""
    task = env.wait_for_task(env.start("W", None))
    env.replay_task(task.id)
    return task


class TestAGlobalWriteIsRefused:
    """A future's or an ``eval``'s write of a program global would be
    written again by every rebuild (``(1 1)`` with the cache, ``(3 3)``
    without, when nothing refused it)."""

    @pytest.mark.parametrize("capacity", [256, 0])
    @pytest.mark.parametrize("body", [
        "(touch (future (setq *n* (+ *n* 1))))",
        "(eval '(setq *n* (+ *n* 1)))",
        "(eval '(progn 1 (setq *n* (+ *n* 1))))",
        "(eval '(defvar *n* 5))",
    ])
    def test_with_the_fibers_typed_fault(self, body, capacity):
        env = deploy(body, capacity)
        task = run(env)
        assert (task.status, task.error) == (ERROR, REFUSED)
        runtime = env.workflows["W"].runtime
        assert runtime.global_env.lookup(Symbol("*n*")) == 0
        assert env.metrics.get("fiber.global-write-refused") == 2

    def test_by_load_file(self, tmp_path):
        path = tmp_path / "bump.gozer"
        path.write_text("(setq *n* (+ *n* 1))")
        task = run(deploy(f'(load-file "{path}")'))
        assert (task.status, task.error) == (ERROR, REFUSED)

    @pytest.mark.parametrize("form", ["(defmacro m () 1)",
                                      "(defun m () 1)"])
    def test_of_a_definition_by_eval(self, form):
        env = deploy(f"(eval '{form})", defs="")
        task = run(env)
        assert task.status == ERROR
        assert task.error == (f"{GLOBAL_WRITE}: a fiber cannot write "
                              f"the program global m")
        global_env = env.workflows["W"].runtime.global_env
        assert Symbol("m") not in global_env.macros
        assert not global_env.is_bound(Symbol("m"))


    @pytest.mark.parametrize("capacity", [256, 0])
    @pytest.mark.parametrize("body", ["(list (eval '(bump)) *n*)",
                                      "(list (macroexpand '(bump)) *n*)"])
    def test_by_a_macro_expander_run_from_the_fiber(self, body, capacity):
        """The expander ``eval`` (or ``macroexpand``) runs while it
        expands a form in a fiber runs on a VM started from the fiber's,
        so it writes no global either."""
        env = deploy(body, capacity, defs="(defvar *n* 0)"
                     " (defmacro bump () (setq *n* (+ *n* 1)) *n*)")
        task = run(env)
        assert (task.status, task.error) == (ERROR, REFUSED)
        runtime = env.workflows["W"].runtime
        assert runtime.global_env.lookup(Symbol("*n*")) == 0


class TestRecordedNondeterminism:
    @pytest.mark.parametrize("body", [
        "(touch (future (list (random 1000000) (get-universal-time))))",
        "(eval '(list (random 1000000) (get-universal-time)))",
    ])
    def test_clock_and_random_replay(self, body):
        """Drawn from the platform and recorded in the fiber's history,
        so a rebuild reads what the live run drew, and so does
        ``replay_task``."""
        results = []
        for capacity in (256, 0):
            env = deploy(body, capacity)
            task = run(env)
            assert task.status == COMPLETED
            ops = [event.payload["op"]
                   for event in env.history.events_of(task.id)
                   if event.kind == "nondet"]
            assert ops == ["random", "clock"]
            results.append(task.result)
        assert results[0] == results[1]
        assert env.metrics.get("history.rebuilds") == 2


class TestWhatAFutureOrAnEvalMayDo:
    def test_a_service_call_from_eval_is_synchronous(self):
        """Section 3.2's fallback: a flow of control that cannot
        suspend the fiber calls the service synchronously (a future's
        call: ``test_deflink.py::test_background_thread_goes_sync_automatically``)."""
        env = VinzEnvironment(nodes=3, seed=9)
        env.deploy_service(simple_service(
            "Cnt", {"Hit": lambda ctx, body: 1}, namespace="urn:cnt"))
        env.deploy_workflow("W", """
            (deflink C :wsdl "urn:cnt")
            (defun main (params) (eval '(C-Hit-Method)))""")
        assert env.call("W", None) == 1
        assert env.cluster.metrics.get("op.W.ResumeFromCall") == 0
        assert env.cluster.metrics.get("sync.Cnt.Hit") == 1

    @pytest.mark.parametrize("capacity", [256, 0])
    def test_task_variables(self, capacity):
        env = deploy("(progn (touch (future (setf ^hits^ (+ ^hits^ 1))))"
                     "       (eval '(setf ^hits^ (+ ^hits^ 1)))"
                     "       ^hits^)", capacity, defs="(deftaskvar hits 0)")
        task = run(env)
        assert (task.status, task.result) == (COMPLETED, 2)

    @pytest.mark.parametrize("capacity", [256, 0])
    @pytest.mark.parametrize("body, result", [
        ('(touch (future (error "x")))', "x"),
        ("(touch (future (setq *n* 1)))", REFUSED),
    ])
    def test_a_futures_failure_is_handled_where_it_is_touched(
            self, body, result, capacity):
        """``touch`` signals the future's condition in the fiber's VM,
        whose ``handler-case`` catches it."""
        env = deploy(f"(handler-case {body}"
                     "   (error (c) (list :caught (condition-message c))))",
                     capacity)
        task = run(env)
        assert (task.status, task.result) == (COMPLETED,
                                              [Keyword("caught"), result])

    @pytest.mark.parametrize("body", ["(touch (future (workflow-sleep 1)))",
                                      "(eval '(workflow-sleep 1))",
                                      "(touch (future (sleep 1)))"])
    def test_no_wait(self, body):
        """Only the fiber's own flow of control can suspend it: a sleep
        elsewhere fails the fiber rather than moving a clock."""
        env = deploy(body)
        task = run(env)
        assert task.status == ERROR
        assert task.error.startswith("YieldFromNestedContext: ")
        assert env.workflows["W"].runtime.clock.slept == 0

    def test_a_future_on_a_thread_pool_reaches_its_fiber(self):
        """A future's VM carries the fiber to whichever thread runs it:
        the distribution intrinsics and the recorded random draw work on
        a pool thread as on the synchronous executor."""
        env = deploy("(progn (set-spawn-limit 3)"
                     "       (touch (future (list (% is-fiber-thread)"
                     "                            (get-spawn-limit)"
                     "                            (random 1000000)))))",
                     defs="")
        runtime = env.workflows["W"].runtime
        runtime.executor = ThreadPoolFutureExecutor(max_workers=1)
        try:
            task = run(env)
        finally:
            runtime.shutdown()
        assert task.status == COMPLETED, task.error
        assert task.result[:2] == [False, 3]


class TestIsFiberThread:
    """``(% is-fiber-thread)``: may this VM yield."""

    def test_true_on_a_fibers_own_vm(self):
        assert run(deploy("(% is-fiber-thread)")).result is True

    @pytest.mark.parametrize("body", ["(touch (future (% is-fiber-thread)))",
                                      "(eval '(% is-fiber-thread))"])
    def test_false_for_a_future_or_an_eval_of_a_fiber(self, body):
        assert run(deploy(body)).result is False

    def test_true_in_runtime_start_and_false_at_top_level(self):
        rt = make_runtime(deterministic=True)
        assert rt.start("(% is-fiber-thread)") == Done(True)
        assert rt.eval_string("(% is-fiber-thread)") is False
        assert rt.eval_string("(touch (future (% is-fiber-thread)))") \
            is False

    def test_false_at_top_level_after_a_fiber_ran_on_the_thread(self):
        run(deploy("(% is-fiber-thread)"))
        rt = make_runtime(deterministic=True)
        assert rt.eval_string("(% is-fiber-thread)") is False
