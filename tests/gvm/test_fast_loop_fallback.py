"""What the fast dispatch loop must not lose by keeping calls, returns
and variable access to itself.

``VM._run_fast`` switches frames in place only when a frame has nothing
to tear down and no handler or restart group is live; otherwise the
``return`` goes through ``VM._step``.  Host-function and argument-count
errors are raised out of the middle of the loop.  Free names are read
without a scope-chain walk.  None of that may be visible to a program.
"""

import pickle

import pytest

from repro.gvm.conditions import UnhandledConditionError
from repro.gvm.environment import Env
from repro.gvm.vm import Done, Yielded
from repro.lang.symbols import Keyword, Symbol

K = Keyword
S = Symbol


class TestTeardownStillRuns:
    def test_unwind_protect_cleanup_runs_on_every_return(self, rt):
        assert rt.eval_string("""
            (defvar *log* ())
            (defun guarded (x)
              (unwind-protect (* x x) (setq *log* (cons x *log*))))
            (let ((acc 0))
              (dotimes (i 4) (setq acc (+ acc (guarded i))))
              (list acc *log*))""") == [14, [3, 2, 1, 0]]

    def test_cleanup_runs_when_a_callee_exits_through_the_frame(self, rt):
        assert rt.eval_string("""
            (defvar *log* ())
            (defun inner () (return-from outer :escaped))
            (defun middle ()
              (unwind-protect (inner) (setq *log* (cons :cleaned *log*))))
            (list (block outer (middle) :not-reached) *log*)""") \
            == [K("escaped"), [K("cleaned")]]

    def test_frame_after_unwind_protect_is_still_tail_called(self, rt):
        rt.eval_string("""
            (defvar *log* ())
            (defun count-down (n)
              (unwind-protect (setq *log* (cons n *log*)) nil)
              (if (= n 0) :done (count-down (- n 1))))""")
        vm = rt.new_vm()
        depths = []
        vm.call_hook = lambda depth, name, args: depths.append(depth)
        assert vm.run_code(rt.compile(rt.read("(count-down 50)"))).value \
            == K("done")
        # cleanups and tail calls alike start from a two-frame stack
        assert depths[0] == 1 and set(depths[1:]) == {2}, \
            "tail calls must not grow the frame stack"
        assert rt.eval_string("(length *log*)") == 51

    def test_special_binding_is_undone_when_the_binder_returns(self, rt):
        assert rt.eval_string("""
            (defvar *level* 0)
            (defun level () *level*)
            (defun deeper () (let ((*level* (+ *level* 1))) (level)))
            (let ((seen ()))
              (dotimes (i 3) (setq seen (cons (deeper) seen)))
              (list seen (level)))""") == [[1, 1, 1], 0]

    def test_special_binding_is_undone_by_a_non_local_exit(self, rt):
        assert rt.eval_string("""
            (defvar *level* 0)
            (defun escape () (return-from out *level*))
            (defun binder () (let ((*level* 7)) (escape)))
            (list (block out (binder)) *level*)""") == [7, 0]

    def test_returns_under_a_live_handler_keep_the_handler_stack(self, rt):
        # every (risky i) call and return happens with a handler group
        # and a restart group live, i.e. through the fallback
        assert rt.eval_string("""
            (defun risky (i) (if (evenp i) (/ i 0) i))
            (let ((acc ()))
              (handler-bind ((division-by-zero
                              (lambda (c) (invoke-restart 'use-value :even))))
                (dotimes (i 4)
                  (setq acc (cons (restart-case (risky i)
                                    (use-value (v) v))
                                  acc))))
              acc)""") == [3, K("even"), 1, K("even")]

    def test_handler_groups_are_gone_after_the_binder_returned(self, rt):
        rt.eval_string("""
            (defun guarded ()
              (handler-bind ((error (lambda (c) (invoke-restart 'zero))))
                (restart-case (/ 1 0) (zero () 0))))""")
        vm = rt.new_vm()
        assert vm.run_code(rt.compile(rt.read("(guarded)"))).value == 0
        assert vm.handlers == [] and vm.restarts == []
        with pytest.raises(UnhandledConditionError):
            rt.eval_string("(progn (guarded) (/ 1 0))")


class TestErrorsRaisedInsideTheLoop:
    def test_host_error_in_a_loop_body_resumes_after_the_call(self, rt):
        # the restart's value lands where (/ 100 d) was being computed:
        # frame.pc pointed past the failing call when it was signalled
        assert rt.eval_string("""
            (let ((acc 0))
              (handler-bind ((division-by-zero
                              (lambda (c) (invoke-restart 'use-value 1000))))
                (dolist (d (list 5 0 20 0))
                  (setq acc (+ acc (restart-case (/ 100 d)
                                     (use-value (v) v))))))
              acc)""") == 20 + 1000 + 5 + 1000

    def test_wrong_argument_count_is_a_condition(self, rt):
        assert rt.eval_string("""
            (defun two (a b) (+ a b))
            (let ((acc ()))
              (dotimes (i 3)
                (setq acc (cons (handler-case (if (= i 1) (two i) (two i i))
                                  (error (c) :bad-call))
                                acc)))
              acc)""") == [4, K("bad-call"), 0]

    def test_unhandled_host_error_leaves_a_clean_vm(self, rt):
        vm = rt.new_vm()
        code = rt.compile(rt.read(
            "(let ((n 3)) (while t (setq n (- n 1)) (/ 6 n)))"))
        with pytest.raises(UnhandledConditionError, match="division"):
            vm.run_code(code)
        assert vm.frames == [] and vm._depth == 0

    def test_yield_after_a_recovered_error_round_trips(self, rt):
        rt.eval_string("""
            (defun step (d)
              (handler-bind ((division-by-zero
                              (lambda (c) (invoke-restart 'use-value -1))))
                (restart-case (/ 12 d) (use-value (v) v))))
            (defun run (ds)
              (let ((acc ()))
                (dolist (d ds) (setq acc (cons (+ (step d) (yield d)) acc)))
                acc))""")
        result = rt.start("(run (list 3 0 4))")
        fed = []
        while isinstance(result, Yielded):
            fed.append(result.value)
            continuation = pickle.loads(pickle.dumps(result.continuation))
            result = rt.resume(continuation, 100)
        assert fed == [3, 0, 4]
        assert result == Done([103, 99, 104])


class TestNameResolution:
    def test_defvar_after_the_function_that_reads_it(self, rt):
        assert rt.eval_string("""
            (defun late () *late*)
            (defvar *late* 5)
            (list (late) (let ((*late* 6)) (late)) (late))""") == [5, 6, 5]

    def test_global_defined_after_its_reader(self, rt):
        assert rt.eval_string("""
            (defun reader () counter)
            (setq counter 1)
            (reader)""") == 1

    def test_unbound_free_name_is_still_an_unbound_variable(self, rt):
        with pytest.raises(UnhandledConditionError, match="nowhere"):
            rt.eval_string("(defun f () nowhere) (f)")

    def test_key_default_reads_an_earlier_parameter(self, rt):
        assert rt.eval_string("""
            (defun scaled (a &optional (b (* a 2)) &key (c (+ a b)))
              (list a b c))
            (list (scaled 1) (scaled 1 5) (scaled 1 5 :c 0))""") \
            == [[1, 2, 3], [1, 5, 6], [1, 5, 0]]

    def test_default_thunk_sees_the_closure_it_was_defined_in(self, rt):
        assert rt.eval_string("""
            (let ((base 10))
              (defun from-base (&optional (n (+ base 1))) n))
            (list (from-base) (from-base 3))""") == [11, 3]

    def test_local_shadowing_a_builtin(self, rt):
        assert rt.eval_string("""
            (defun apply-op (+ a b) (+ a b))
            (list (let ((+ -)) (+ 5 3))
                  (let ((+ (lambda (a b) (* a b)))) (mapcar (lambda (x) (+ x x))
                                                            (list 1 2 3)))
                  (apply-op #'* 4 5)
                  (+ 5 3))""") == [2, [1, 4, 9], 20, 8]

    def test_let_star_closure_sees_a_later_binding(self, rt):
        assert rt.eval_string("(let* ((f (lambda () b)) (b 2)) (f))") == 2

    def test_start_with_a_supplied_scope(self, rt):
        env = Env(bindings={S("x"): 20, S("+"): lambda a, b: a * b})
        assert rt.start("(+ x 2)", env=env) == Done(40)
        assert rt.start("(+ 20 2)") == Done(22)

