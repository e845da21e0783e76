"""VM edge cases: re-entrancy guards, control-flow corners, interop."""

import os

import pytest

from repro.conformance import load_dir
from repro.gvm.conditions import UnhandledConditionError
from repro.gvm.frames import GozerFunction
from repro.gvm.runtime import make_runtime
from repro.gvm.vm import Done, Yielded
from repro.lang.printer import print_form
from repro.lang.errors import GozerRuntimeError
from repro.lang.symbols import Keyword, Symbol

K = Keyword
S = Symbol


class TestReentrancyGuards:
    def test_run_code_while_running_rejected(self, rt):
        vm = rt.new_vm()
        code = rt.compile(rt.read("1"))
        vm.frames.append(object())  # simulate mid-run state
        with pytest.raises(GozerRuntimeError):
            vm.run_code(code)

    def test_resume_while_running_rejected(self, rt):
        result = rt.start("(yield)")
        vm = rt.new_vm(allow_yield=True)
        vm.frames.append(object())
        with pytest.raises(GozerRuntimeError):
            vm.resume(result.continuation, None)

    def test_vm_call_plain_python_callable(self, rt):
        vm = rt.new_vm()
        assert vm.call(lambda a, b: a + b, [1, 2]) == 3

    def test_vm_call_non_callable_rejected(self, rt):
        with pytest.raises(GozerRuntimeError):
            rt.new_vm().call(42, [])


class TestControlFlowCorners:
    def test_return_from_restores_handler_stack(self, rt):
        """Handlers bound inside an exited block must not linger."""
        assert rt.eval_string("""
            (progn
              (block b
                (handler-bind ((error (lambda (c) (return-from b :inner))))
                  (error "x")))
              ;; the handler group above must be gone now:
              (handler-case (error "again")
                (error (c) :outer-caught)))""") == K("outer-caught")

    def test_restart_case_value_is_protected_form_when_no_invoke(self, rt):
        assert rt.eval_string("""
            (restart-case (+ 1 2) (r () :never))""") == 3

    def test_restart_clause_with_arguments(self, rt):
        assert rt.eval_string("""
            (handler-bind ((error (lambda (c) (invoke-restart 'fix 10 20))))
              (restart-case (error "x")
                (fix (a b) (+ a b))))""") == 30

    def test_yield_inside_restart_clause(self, rt):
        """Restart clauses run in the fiber's own flow, so they can
        yield (the deflink retry pattern depends on this)."""
        result = rt.start("""
            (handler-bind ((error (lambda (c) (invoke-restart 'again))))
              (restart-case (error "first try")
                (again () (yield :retrying))))""")
        assert isinstance(result, Yielded)
        assert result.value == K("retrying")
        assert rt.resume(result.continuation, 42).value == 42

    def test_deeply_nested_blocks(self, rt):
        assert rt.eval_string("""
            (block a (block b (block c (return-from a :direct))))""") == \
            K("direct")

    def test_block_shadowing_inner_wins(self, rt):
        assert rt.eval_string("""
            (block x
              (block x (return-from x :inner))
              :after-inner)""") == K("after-inner")

    def test_while_result_is_nil(self, rt):
        assert rt.eval_string("(while nil)") is None

    def test_and_or_empty(self, rt):
        assert rt.eval_string("(and)") is True
        assert rt.eval_string("(or)") is None

    def test_dynamic_unbind_after_nonlocal_exit(self, rt):
        rt.eval_string("(defvar *d* :global) (defun readit () *d*)")
        assert rt.eval_string("""
            (block b (let ((*d* :bound)) (return-from b (readit))))""") == \
            K("bound")
        assert rt.eval_string("(readit)") == K("global")


class TestPushCCInWorkflows:
    def test_push_cc_checkpoint_pattern(self, rt):
        """push-cc gives an explicit checkpoint object the program can
        store and re-enter (the paper's other capture form)."""
        rt2 = rt
        result = rt2.start("""
            (let ((cc (push-cc)))
              (if (eq cc :rerun)
                  :second-pass
                  (list :first-pass cc)))""")
        assert isinstance(result, Done)
        first, continuation = result.value
        assert first == K("first-pass")
        done = rt2.resume(continuation, K("rerun"))
        assert done.value == K("second-pass")


class TestHostInterop:
    def test_dot_chained_calls(self, rt):
        assert rt.eval_string('(. (. "a,b,c" (split ",")) (index "b"))') == 1

    def test_dot_setf_on_host_object(self, rt):
        class Box:
            value = 0

        rt.global_env.define(S("make-box"), Box)
        assert rt.eval_string("""
            (let ((b (make-box)))
              (setf (. b value) 42)
              (. b value))""") == 42

    def test_host_exception_in_dot_call_is_condition(self, rt):
        assert rt.eval_string("""
            (handler-case (. "abc" (index "z"))
              (error (c) :caught))""") == K("caught")

    def test_keyword_call_forwarding(self, rt):
        """Gozer keywords in an argument list reach &key parameters even
        through apply."""
        rt.eval_string("(defun kw-fn (&key a b) (list a b))")
        assert rt.eval_string("(apply #'kw-fn (list :b 2 :a 1))") == [1, 2]


class TestFrameAccounting:
    def test_frame_stack_flat_after_run(self, rt):
        vm = rt.new_vm()
        vm.run_code(rt.compile(rt.read("(+ 1 (* 2 3))")))
        assert vm.frames == []
        assert vm.handlers == []
        assert vm.restarts == []

    def test_frame_stack_flat_after_error(self, rt):
        vm = rt.new_vm()
        with pytest.raises(UnhandledConditionError):
            vm.run_code(rt.compile(rt.read('(error "boom")')))
        assert vm.frames == []

    def test_continuation_frames_are_frames(self, rt):
        from repro.gvm.frames import Frame

        result = rt.start("(progn (yield) 1)")
        assert all(isinstance(f, Frame)
                   for f in result.continuation.frames)


class TestRuntimeAPI:
    def test_context_manager_shutdown(self):
        from repro import make_runtime

        with make_runtime(deterministic=True) as rt:
            assert rt.eval_string("(+ 1 1)") == 2

    def test_start_with_defs_and_body(self, rt):
        result = rt.start("""
            (defun f (x) (* x 3))
            (defun g (x) (+ (f x) 1))
            (g 5)""")
        assert result == Done(16)

    def test_start_empty_source(self, rt):
        assert rt.start("") == Done(None)

    def test_compile_validates(self, rt):
        from repro.lang.bytecode import validate

        code = rt.compile(rt.read("(let ((x 1)) (if x (+ x 1) 0))"))
        assert validate(code) == []


class TestTracingHooks:
    def test_call_hook_sees_call_tree(self, rt):
        rt.eval_string("""
            (defun sq (x) (* x x))
            (defun hyp2 (a b) (+ (sq a) (sq b)))""")
        vm = rt.new_vm()
        calls = []
        vm.call_hook = lambda depth, name, args: calls.append(
            (depth, name, list(args)))
        vm.run_code(rt.compile(rt.read("(hyp2 3 4)")))
        assert calls == [(1, "hyp2", [3, 4]), (2, "sq", [3]), (2, "sq", [4])]

    def test_instruction_hook_sees_every_instruction(self, rt):
        vm = rt.new_vm()
        ops = []
        vm.instruction_hook = lambda frame, op, arg: ops.append(op)
        result = vm.run_code(rt.compile(rt.read("(+ 1 (* 2 3))")))
        assert result.value == 7
        assert ops.count("call") == 2
        assert ops[-1] == "return"

    def test_traced_loop_supports_yield(self, rt):
        from repro.gvm.vm import Yielded

        vm = rt.new_vm(allow_yield=True)
        vm.instruction_hook = lambda f, op, a: None
        result = vm.run_code(rt.compile(rt.read("(+ 1 (yield :q))")))
        assert isinstance(result, Yielded)

    def test_repl_trace_command(self):
        import subprocess, sys, os

        repl = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))),
            "examples", "repl.py")
        proc = subprocess.run(
            [sys.executable, repl],
            input="(defun d (x) (* 2 x))\n:trace (d 21)\n:quit\n",
            capture_output=True, text=True, timeout=120)
        assert "(d 21)" in proc.stdout and ";;" in proc.stdout
        assert "42" in proc.stdout


# ---------------------------------------------------------------------------
# the fast loop against the traced loop, over everything we have
# ---------------------------------------------------------------------------

_CORPUS_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "conformance", "corpus")

#: the perf ledger's four dispatch probes (perf/probes.py), shortened
_PROBE_PROGRAMS = {
    "probe-call-heavy": """
        (defun bfib (n) (if (< n 2) n (+ (bfib (- n 1)) (bfib (- n 2)))))
        (bfib 11)""",
    "probe-branch-heavy": """
        (defun bsum (n) (let ((acc 0) (i 0))
          (while (< i n) (setq acc (+ acc i)) (setq i (+ i 1))) acc))
        (bsum 300)""",
    "probe-macro-heavy": """
        (defun process (items) (let ((acc 0))
          (dolist (x items) (when (evenp x) (incf acc (* x x)))) acc))
        (dotimes (rep 5 (process (list 1 2 3 4 5 6 7 8)))
          (process (list 1 2 3 4 5 6 7 8)))""",
    "probe-closure-hof": """
        (defun make-scaler (k) (lambda (x) (* k x)))
        (defun scaled-sum (items) (let ((f (make-scaler 3)) (acc 0))
          (dolist (x items) (setq acc (+ acc (f x)))) acc))
        (dotimes (rep 5 (scaled-sum (list 1 2 3 4 5 6 7 8)))
          (scaled-sum (list 1 2 3 4 5 6 7 8)))""",
}

_LOOP_PROGRAMS = [(p.name, p.sequential_source, p.feeds or (1,))
                  for p in load_dir(_CORPUS_DIR)] \
    + [(name, source, (1,)) for name, source in _PROBE_PROGRAMS.items()]


def _observe(source, feeds, traced):
    """Run ``source`` (yields answered from ``feeds``) and return what a
    caller can see: the outcome, the instructions executed, and every
    ``call_hook`` firing."""
    rt = make_runtime(deterministic=True)
    *definitions, body = rt.read_all(source)
    for form in definitions:
        rt.eval_form(form)
    code = rt.compile(body)
    calls = []
    vms = []

    def hooked_vm():
        vm = rt.new_vm(allow_yield=True)
        vm.call_hook = lambda depth, name, args: calls.append(
            (depth, name, print_form(list(args))))
        if traced:
            vm.instruction_hook = lambda frame, op, arg: None
        vms.append(vm)
        return vm

    try:
        result = hooked_vm().run_code(code)
        while isinstance(result, Yielded) and len(vms) <= 64:
            result = hooked_vm().resume(result.continuation,
                                        feeds[(len(vms) - 2) % len(feeds)])
        outcome = print_form(result.value)
    except Exception as exc:  # noqa: BLE001 - an outcome like any other
        outcome = f"{type(exc).__name__}: {exc}"
    return outcome, sum(vm.instruction_count for vm in vms), calls


@pytest.mark.parametrize("name,source,feeds", _LOOP_PROGRAMS,
                         ids=[p[0] for p in _LOOP_PROGRAMS])
def test_traced_loop_matches_fast_loop(name, source, feeds):
    """Hooked and unhooked runs of every corpus program and dispatch
    probe agree on the value, the instruction count and the sequence of
    ``call_hook`` firings (calls made inside the fast loop still fire
    it)."""
    fast_outcome, fast_count, fast_calls = _observe(source, feeds, False)
    traced_outcome, traced_count, traced_calls = _observe(source, feeds, True)
    assert fast_outcome == traced_outcome
    assert fast_count == traced_count > 0
    assert fast_calls == traced_calls
    if name.startswith("probe-"):
        assert fast_calls, "in-loop calls must fire call_hook"
