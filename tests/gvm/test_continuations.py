"""Continuation tests: yield, push-cc, serialization, re-resumption."""

import pickle

import pytest

from repro.gvm.continuations import Continuation
from repro.gvm.vm import Done, Yielded, YieldFromNestedContext
from repro.lang.symbols import Keyword, Symbol

K = Keyword


def start(rt, text):
    return rt.start(text)


class TestYield:
    def test_yield_surfaces_value(self, rt):
        result = start(rt, "(yield :ping)")
        assert isinstance(result, Yielded)
        assert result.value == K("ping")

    def test_yield_no_value_is_nil(self, rt):
        result = start(rt, "(yield)")
        assert result.value is None

    def test_resume_delivers_value(self, rt):
        result = start(rt, "(+ 100 (yield))")
        done = rt.resume(result.continuation, 7)
        assert done == Done(107)

    def test_multiple_yields(self, rt):
        result = start(rt, "(list (yield :a) (yield :b) (yield :c))")
        values = [result.value]
        for reply in (1, 2):
            result = rt.resume(result.continuation, reply)
            values.append(result.value)
        done = rt.resume(result.continuation, 3)
        assert values == [K("a"), K("b"), K("c")]
        assert done == Done([1, 2, 3])

    def test_yield_inside_function_call(self, rt):
        result = start(rt, """
            (defun stage (x) (+ x (yield x)))
            (stage 10)""")
        assert result.value == 10
        assert rt.resume(result.continuation, 5) == Done(15)

    def test_yield_deep_in_call_stack(self, rt):
        result = start(rt, """
            (defun a (x) (b (+ x 1)))
            (defun b (x) (c (+ x 1)))
            (defun c (x) (yield x))
            (a 0)""")
        assert result.value == 2
        assert rt.resume(result.continuation, 99) == Done(99)

    def test_yield_inside_loop(self, rt):
        result = start(rt, """
            (loop for x in (list 1 2 3) collect (yield x))""")
        outs = [result.value]
        result = rt.resume(result.continuation, 10)
        outs.append(result.value)
        result = rt.resume(result.continuation, 20)
        outs.append(result.value)
        done = rt.resume(result.continuation, 30)
        assert outs == [1, 2, 3]
        assert done == Done([10, 20, 30])

    def test_locals_preserved_across_yield(self, rt):
        result = start(rt, """
            (let ((a 1) (b 2))
              (yield)
              (+ a b))""")
        assert rt.resume(result.continuation, None) == Done(3)


class TestContinuationIsolation:
    def test_resume_twice_independent(self, rt):
        """Resuming the same continuation twice replays independently —
        the property fork-and-exec's cloning relies on (Section 3.4)."""
        result = start(rt, """
            (let ((acc (list)))
              (append! acc (yield))
              acc)""")
        done_a = rt.resume(result.continuation, 1)
        done_b = rt.resume(result.continuation, 2)
        assert done_a == Done([1])
        assert done_b == Done([2])

    def test_mutation_after_capture_invisible(self, rt):
        """The continuation is a snapshot: later mutations in the
        original flow don't leak into it."""
        result = start(rt, """
            (let ((xs (list 1)))
              (yield xs)
              xs)""")
        # mutate the list we got out — the continuation must hold a copy
        result.value.append(999)
        assert rt.resume(result.continuation, None) == Done([1])

    CONSTANTLY = """
        (let* ((acc (list 0))
               (c (constantly acc)))
          (yield 1)
          (append! (funcall c) 5)
          (length acc))"""

    def test_callable_instance_keeps_identity_across_yield(self, rt):
        """A ``constantly`` result is state, not program: it is copied
        with the list it shares with ``acc``, and they stay one list."""
        result = start(rt, self.CONSTANTLY)
        assert rt.resume(result.continuation, None) == Done(2)

    def test_callable_instance_not_shared_between_resumes(self, rt):
        result = start(rt, self.CONSTANTLY)
        done = [rt.resume(result.continuation, None) for _ in range(3)]
        assert done == [Done(2)] * 3


class TestSerialization:
    def test_pickle_round_trip(self, rt):
        result = start(rt, """
            (defun work (x) (+ x (yield :checkpoint)))
            (work 40)""")
        blob = pickle.dumps(result.continuation)
        restored = pickle.loads(blob)
        assert isinstance(restored, Continuation)
        assert rt.resume(restored, 2) == Done(42)

    def test_pickle_with_rich_state(self, rt):
        result = start(rt, """
            (let ((table (make-hash-table))
                  (items (list 1 "two" :three (list 4))))
              (setf (gethash :k table) items)
              (yield)
              (gethash :k table))""")
        restored = pickle.loads(pickle.dumps(result.continuation))
        done = rt.resume(restored, None)
        assert done == Done([1, "two", K("three"), [4]])

    def test_pickle_preserves_handler_stack(self, rt):
        result = start(rt, """
            (handler-case
                (progn (yield) (error "late failure") :no)
              (error (c) :caught-after-resume))""")
        restored = pickle.loads(pickle.dumps(result.continuation))
        assert rt.resume(restored, None) == Done(K("caught-after-resume"))

    def test_pickle_preserves_restarts(self, rt):
        result = start(rt, """
            (handler-bind ((error (lambda (c) (invoke-restart 'use 9))))
              (restart-case (progn (yield) (error "x"))
                (use (v) v)))""")
        restored = pickle.loads(pickle.dumps(result.continuation))
        assert rt.resume(restored, None) == Done(9)

    def test_pickle_inside_a_defvar_value(self, rt):
        # the defvar intrinsic is on the operand stack while its value
        # form suspends
        result = start(rt, """
            (let ((a 1)) (defvar *q* (yield :value)) (+ a *q*))""")
        restored = pickle.loads(pickle.dumps(result.continuation))
        assert rt.resume(restored, 5) == Done(6)

    def test_estimated_size_positive(self, rt):
        result = start(rt, "(yield)")
        assert result.continuation.estimated_size() > 0


class TestPushCC:
    def test_push_cc_returns_continuation_object(self, rt):
        result = rt.start("(push-cc)")
        assert isinstance(result, Done)
        assert isinstance(result.value, Continuation)

    def test_push_cc_resume_redelivers(self, rt):
        result = rt.start("(list :r (push-cc))")
        done_value = result.value
        # the first run got [:r, <continuation>]
        cont = done_value[1]
        assert isinstance(cont, Continuation)
        # resume: the push-cc expression now evaluates to :injected
        done2 = rt.resume(cont, K("injected"))
        assert done2 == Done([K("r"), K("injected")])


class TestNestedContextRestrictions:
    def test_yield_from_future_rejected(self, rt):
        """Section 3.2: migration is impossible from a future's thread."""
        with pytest.raises(YieldFromNestedContext):
            rt.start("(touch (future (yield :nope)))")

    def test_yield_from_mapcar_callback_rejected(self, rt):
        with pytest.raises(YieldFromNestedContext):
            rt.start("(mapcar (lambda (x) (yield x)) (list 1))")

    def test_yield_outside_fiber_run_rejected(self, rt):
        with pytest.raises(YieldFromNestedContext):
            rt.eval_string("(yield)")  # eval_string VMs disallow yield


class TestFuturesDeterminedAtCapture:
    def test_future_in_scope_determined_before_yield(self, rt):
        """Section 4.1: capturing a continuation determines referenced
        futures; after resume the value is available immediately."""
        result = rt.start("""
            (let ((f (future (* 6 7))))
              (yield)
              (touch f))""")
        restored = pickle.loads(pickle.dumps(result.continuation))
        assert rt.resume(restored, None) == Done(42)
