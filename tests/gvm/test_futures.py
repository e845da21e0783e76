"""Future tests (paper Section 2): transparency, touch, pcall, executors."""

import threading

import pytest

from repro.gvm.futures import (
    GozerFuture,
    SynchronousFutureExecutor,
    ThreadPoolFutureExecutor,
    force,
)
from repro.gvm.runtime import Runtime
from repro.lang.errors import GozerRuntimeError
from repro.gvm.conditions import UnhandledConditionError
from repro.lang.symbols import Keyword


class TestGozerFuture:
    def test_determination(self):
        f = GozerFuture("t")
        assert not f.determined
        f._determine(5)
        assert f.determined
        assert f.touch() == 5

    def test_failure_reraised_at_touch(self):
        f = GozerFuture("t")
        f._fail(ValueError("boom"))
        with pytest.raises(ValueError):
            f.touch()

    def test_touch_timeout(self):
        f = GozerFuture("t")
        with pytest.raises(GozerRuntimeError):
            f.touch(timeout=0.01)

    def test_force_passthrough(self):
        assert force(42) == 42
        f = GozerFuture("t")
        f._determine("x")
        assert force(f) == "x"

    def test_pickle_as_determined_value(self):
        import pickle

        f = GozerFuture("t")
        f._determine([1, 2])
        clone = pickle.loads(pickle.dumps(f))
        assert isinstance(clone, GozerFuture)
        assert clone.determined
        assert clone.touch() == [1, 2]


class TestLanguageLevelFutures:
    def test_future_returns_future_object(self, rt):
        value = rt.eval_string("(future 42)")
        assert isinstance(value, GozerFuture)

    def test_touch_gets_value(self, rt):
        assert rt.eval_string("(touch (future (* 6 7)))") == 42

    def test_future_transparent_to_arithmetic(self, rt):
        """Passing a future to a builtin determines it (Section 4.1)."""
        assert rt.eval_string("(+ 1 (future 2))") == 3

    def test_futures_in_data_structures(self, rt):
        """Futures can be stored in data structures and mixed freely."""
        assert rt.eval_string("""
            (let ((xs (list (future 1) 2 (future 3))))
              (apply #'+ xs))""") == 6

    def test_par_sum_squares_listing1(self, rt):
        """The paper's Listing 1 par-sum-squares."""
        rt.eval_string("""
            (defun par-sum-squares (numbers)
              (apply #'+
                (loop for number in numbers
                      collect (future (* number number)))))""")
        assert rt.eval_string("(par-sum-squares (list 1 2 3 4 5))") == 55

    def test_future_captures_lexical_scope(self, rt):
        assert rt.eval_string("""
            (let ((x 10)) (touch (future (* x x))))""") == 100

    def test_pcall_forces_arguments(self, rt):
        assert rt.eval_string("""
            (pcall #'list (future 1) (future 2) 3)""") == [1, 2, 3]

    def test_futurep_predicate(self, rt):
        assert rt.eval_string("(futurep (future 1))") is True
        assert rt.eval_string("(futurep 1)") is False

    def test_determined_p_non_future_always(self, rt):
        """'Any value that is not a future is always said to be
        determined' (Section 2)."""
        assert rt.eval_string("(determined-p 5)") is True

    def test_future_error_propagates_at_touch(self, rt):
        with pytest.raises(UnhandledConditionError):
            rt.eval_string('(touch (future (error "inside")))')

    @pytest.mark.parametrize("executor", [SynchronousFutureExecutor,
                                          ThreadPoolFutureExecutor])
    def test_a_futures_failure_is_handled_where_it_is_touched(self,
                                                              executor):
        """``touch`` signals the condition the future's VM found no
        handler for in the touching VM, whose handlers see it."""
        with Runtime(executor=executor()) as rt:
            assert rt.eval_string("""
                (handler-case (touch (future (error "x")))
                  (error (c) (list :caught (condition-message c))))""") \
                == [Keyword("caught"), "x"]
            assert rt.eval_string("""
                (handler-case (+ 1 (future (error "y")))
                  (error (c) (condition-message c)))""") == "y"

    def test_nested_futures(self, rt):
        assert rt.eval_string(
            "(touch (touch (future (future 5))))") == 5

    def test_a_future_is_not_a_fiber_thread(self, rt):
        """Futures run with background-thread semantics even on the
        synchronous executor: a future's VM may not yield."""
        assert rt.eval_string("(touch (future (% is-fiber-thread)))") is False


class TestFutureInCalleePosition:
    """A future is touched wherever it is called: in a direct call, and
    through ``VM.call`` (``funcall``, ``apply``, ``mapcar``, ``mapc``)."""

    #: (program, value) with ``f`` a determined future of ``+``
    CALLS = [
        ("(f 20 1)", 21),
        ("(funcall f 20 1)", 21),
        ("(apply f 20 '(1))", 21),
        ("(mapcar f '(1 2) '(10 20))", [11, 22]),
        ("(let ((acc ()))"
         "  (mapc (lambda (x) (setq acc (cons (f x 1) acc))) '(1 2))"
         "  (list (mapc f '(1 2) '(3 4)) acc))", [[1, 2], [3, 2]]),
    ]

    @pytest.mark.parametrize("source,value", CALLS)
    def test_vm_and_tree_walker_agree(self, rt, source, value):
        from repro.conformance.oracles import ConformanceTreeInterpreter
        from repro.lang.reader import read_string
        from repro.lang.symbols import Symbol

        plus = GozerFuture("f")
        plus._determine(rt.global_env.lookup(Symbol("+")))
        rt.global_env.define(Symbol("f"), plus)
        tree = ConformanceTreeInterpreter(
            rt.global_env, apply_fn=rt.apply,
            scratch_vm=rt.new_vm(allow_yield=False))
        assert rt.eval_string(source) == value
        assert tree.eval(read_string(source)) == value

    @pytest.mark.parametrize("source,value", [
        ("(let ((f (future #'+))) (f 20 1))", 21),
        ("(let ((f (future #'+))) (funcall f 20 1))", 21),
        ("(let ((f (future #'+))) (apply f 20 '(1)))", 21),
        ("(let ((f (future (lambda (x) (* x x))))) (mapcar f '(1 2 3)))",
         [1, 4, 9]),
        ("(let ((seen ()))"
         "  (mapc (future (lambda (x) (setq seen (cons x seen)))) '(1 2 3))"
         "  seen)", [3, 2, 1]),
    ])
    def test_future_of_a_function_is_callable(self, rt, source, value):
        assert rt.eval_string(source) == value


class TestThreadedExecution:
    def test_real_parallel_execution(self, threaded_rt):
        value = threaded_rt.eval_string("""
            (apply #'+ (loop for i from 1 to 20 collect (future (* i i))))""")
        assert value == 2870

    def test_threaded_future_really_concurrent(self, threaded_rt):
        """Two futures that each wait on a shared barrier can only finish
        if they truly run in parallel."""
        barrier = threading.Barrier(2, timeout=5)
        threaded_rt.global_env.define(
            __import__("repro.lang.symbols", fromlist=["Symbol"]).Symbol("hit-barrier"),
            lambda: barrier.wait())
        value = threaded_rt.eval_string("""
            (let ((a (future (hit-barrier) 1))
                  (b (future (hit-barrier) 2)))
              (+ (touch a) (touch b)))""")
        assert value == 3

    def test_executor_shutdown_rejects_new_work(self):
        executor = ThreadPoolFutureExecutor(max_workers=1)
        executor.shutdown()
        with pytest.raises(GozerRuntimeError):
            executor.submit(lambda: 1)


class TestSynchronousExecutor:
    def test_runs_inline(self):
        executor = SynchronousFutureExecutor()
        f = executor.submit(lambda: 99)
        assert f.determined
        assert f.touch() == 99
        assert executor.submitted == 1

    def test_failure_stored(self):
        executor = SynchronousFutureExecutor()
        f = executor.submit(lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            f.touch()
