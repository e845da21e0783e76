"""VM fundamentals: evaluation, scoping, functions, truthiness."""

import pytest

from repro.gvm.environment import Env
from repro.gvm.vm import truthy
from repro.lang.errors import (
    GozerRuntimeError,
    UnboundVariableError,
    WrongArgumentCount,
)
from repro.gvm.conditions import UnhandledConditionError
from repro.lang.symbols import Keyword, Symbol

S = Symbol


class TestTruthiness:
    def test_nil_false(self):
        assert not truthy(None)

    def test_false_false(self):
        assert not truthy(False)

    def test_zero_truthy(self):
        assert truthy(0)

    def test_empty_list_truthy(self):
        assert truthy([])

    def test_empty_string_truthy(self):
        assert truthy("")


class TestEvaluation:
    def test_self_evaluating(self, rt):
        assert rt.eval_string("5") == 5
        assert rt.eval_string('"s"') == "s"
        assert rt.eval_string(":k") == Keyword("k")
        assert rt.eval_string("t") is True
        assert rt.eval_string("nil") is None

    def test_if_branches(self, rt):
        assert rt.eval_string("(if t 1 2)") == 1
        assert rt.eval_string("(if nil 1 2)") == 2
        assert rt.eval_string("(if nil 1)") is None

    def test_if_zero_is_true(self, rt):
        assert rt.eval_string("(if 0 :t :f)") == Keyword("t")

    def test_progn_value(self, rt):
        assert rt.eval_string("(progn 1 2 3)") == 3

    def test_progn_empty(self, rt):
        assert rt.eval_string("(progn)") is None

    def test_and_short_circuit(self, rt):
        assert rt.eval_string("""
            (let ((n 0))
              (and nil (setq n 1))
              n)""") == 0

    def test_or_short_circuit(self, rt):
        assert rt.eval_string("""
            (let ((n 0))
              (or 1 (setq n 1))
              n)""") == 0

    def test_and_returns_last(self, rt):
        assert rt.eval_string("(and 1 2 3)") == 3

    def test_or_returns_first_truthy(self, rt):
        assert rt.eval_string("(or nil 2 3)") == 2


class TestScoping:
    def test_let_binds(self, rt):
        assert rt.eval_string("(let ((x 1) (y 2)) (+ x y))") == 3

    def test_let_values_in_outer_scope(self, rt):
        # plain let evaluates all values before binding any
        assert rt.eval_string("""
            (let ((x 1))
              (let ((x 10) (y x))  ; y sees the OUTER x
                y))""") == 1

    def test_let_star_sequential(self, rt):
        assert rt.eval_string("(let* ((x 1) (y (+ x 1))) y)") == 2

    def test_shadowing_restored(self, rt):
        assert rt.eval_string("""
            (let ((x 1))
              (let ((x 2)) x)
              x)""") == 1

    def test_setq_mutates_innermost(self, rt):
        assert rt.eval_string("""
            (let ((x 1))
              (let ((x 2)) (setq x 99))
              x)""") == 1

    def test_closure_captures_environment(self, rt):
        assert rt.eval_string("""
            (let ((counter (let ((n 0)) (lambda () (setq n (+ n 1)) n))))
              (funcall counter)
              (funcall counter)
              (funcall counter))""") == 3

    def test_unbound_variable_signals(self, rt):
        with pytest.raises(UnhandledConditionError):
            rt.eval_string("this-is-unbound")

    def test_setq_unbound_creates_global(self, rt):
        rt.eval_string("(setq fresh-global 42)")
        assert rt.eval_string("fresh-global") == 42


class TestFunctions:
    def test_defun_and_call(self, rt):
        rt.eval_string("(defun add3 (a b c) (+ a b c))")
        assert rt.eval_string("(add3 1 2 3)") == 6

    def test_defun_returns_name(self, rt):
        assert rt.eval_string("(defun foo () 1)") is S("foo")

    def test_docstring_preserved(self, rt):
        rt.eval_string('(defun doc-fn (x) "Does things." x)')
        fn = rt.global_env.lookup(S("doc-fn"))
        assert fn.doc == "Does things."

    def test_docstring_only_body_is_value(self, rt):
        # a single string body is the return value, not a docstring
        rt.eval_string('(defun just-str () "hello")')
        assert rt.eval_string("(just-str)") == "hello"

    def test_lambda_immediate_call(self, rt):
        assert rt.eval_string("((lambda (x) (* x 2)) 21)") == 42

    def test_optional_defaults(self, rt):
        rt.eval_string("(defun opt (a &optional (b 10)) (+ a b))")
        assert rt.eval_string("(opt 1)") == 11
        assert rt.eval_string("(opt 1 2)") == 3

    def test_optional_default_sees_earlier_params(self, rt):
        rt.eval_string("(defun opt2 (a &optional (b (* a 2))) (list a b))")
        assert rt.eval_string("(opt2 3)") == [3, 6]

    def test_rest_parameter(self, rt):
        rt.eval_string("(defun rest-fn (a &rest more) (list a more))")
        assert rt.eval_string("(rest-fn 1 2 3)") == [1, [2, 3]]

    def test_keyword_arguments(self, rt):
        rt.eval_string("(defun kw (&key x (y 5)) (list x y))")
        assert rt.eval_string("(kw :x 1)") == [1, 5]
        assert rt.eval_string("(kw :y 2 :x 1)") == [1, 2]
        assert rt.eval_string("(kw)") == [None, 5]

    def test_unknown_keyword_errors(self, rt):
        rt.eval_string("(defun kw2 (&key x) x)")
        with pytest.raises(UnhandledConditionError):
            rt.eval_string("(kw2 :zzz 1)")

    def test_too_few_arguments(self, rt):
        rt.eval_string("(defun two (a b) a)")
        with pytest.raises(UnhandledConditionError):
            rt.eval_string("(two 1)")

    def test_too_many_arguments(self, rt):
        rt.eval_string("(defun one (a) a)")
        with pytest.raises(UnhandledConditionError):
            rt.eval_string("(one 1 2)")

    def test_recursion(self, rt):
        rt.eval_string("""
            (defun fact (n) (if (<= n 1) 1 (* n (fact (- n 1)))))""")
        assert rt.eval_string("(fact 10)") == 3628800

    def test_mutual_recursion(self, rt):
        rt.eval_string("""
            (defun my-even (n) (if (= n 0) t (my-odd (- n 1))))
            (defun my-odd (n) (if (= n 0) nil (my-even (- n 1))))""")
        assert rt.eval_string("(my-even 10)") is True

    def test_deep_tail_recursion_constant_frames(self, rt):
        """Proper tail calls keep the heap frame stack flat."""
        rt.eval_string("""
            (defun count-down (n) (if (= n 0) :done (count-down (- n 1))))""")
        assert rt.eval_string("(count-down 20000)") == Keyword("done")

    def test_calling_non_callable_errors(self, rt):
        with pytest.raises(UnhandledConditionError):
            rt.eval_string("(5 1 2)")


class TestWhile:
    def test_while_loop(self, rt):
        assert rt.eval_string("""
            (let ((i 0) (acc 0))
              (while (< i 5)
                (setq acc (+ acc i))
                (setq i (+ i 1)))
              acc)""") == 10

    def test_while_false_never_runs(self, rt):
        assert rt.eval_string("""
            (let ((n 0)) (while nil (setq n 1)) n)""") == 0


class TestBlocks:
    def test_block_normal_value(self, rt):
        assert rt.eval_string("(block b 1 2 3)") == 3

    def test_return_from(self, rt):
        assert rt.eval_string("(block b (return-from b 9) 1)") == 9

    def test_return_from_inner_block(self, rt):
        assert rt.eval_string("""
            (block outer
              (block inner (return-from inner 1))
              :after)""") == Keyword("after")

    def test_return_from_outer_skips(self, rt):
        assert rt.eval_string("""
            (block outer
              (block inner (return-from outer :jump))
              :never)""") == Keyword("jump")

    def test_return_from_across_function_call(self, rt):
        """Blocks have dynamic extent across function boundaries."""
        assert rt.eval_string("""
            (block b
              (mapcar (lambda (x) (when (= x 3) (return-from b x)))
                      (list 1 2 3 4))
              :not-found)""") == 3

    def test_return_nil_block(self, rt):
        assert rt.eval_string("(block nil (return 5) 1)") == 5

    def test_return_from_missing_block_errors(self, rt):
        with pytest.raises(UnhandledConditionError):
            rt.eval_string("(return-from nowhere 1)")

    def test_loop_stack_discipline(self, rt):
        # a return-from with values on the operand stack restores depth
        assert rt.eval_string("""
            (block b (+ 1 (return-from b 7)))""") == 7


class TestInstructionCounting:
    def test_instruction_count_increases(self, rt):
        vm = rt.new_vm()
        code = rt.compile(rt.read("(+ 1 2)"))
        vm.run_code(code)
        assert vm.instruction_count > 0


class TestEnvWalk:
    def test_holder_is_the_scope_lookup_and_assign_use(self):
        root = Env(bindings={S("x"): 1})
        mid = Env(root, {S("y"): 2})
        inner = Env(mid, {S("x"): 3})
        assert inner.holder(S("x")) is inner.bindings
        assert mid.holder(S("x")) is root.bindings
        assert inner.holder(S("y")) is mid.bindings
        assert inner.holder(S("z")) is None
        assert mid.assign(S("x"), 9) and root.bindings[S("x")] == 9
        assert inner.lookup(S("x")) == 3 and mid.lookup(S("x")) == 9
        assert not inner.assign(S("z"), 1) and not inner.is_bound(S("z"))
        with pytest.raises(UnboundVariableError):
            inner.lookup(S("z"))


class TestRuntimeApply:
    """``Runtime.apply`` calls a function by the VM's one rule."""

    def test_a_builtin_that_takes_the_vm_gets_it(self, rt):
        mapcar, car = (rt.global_env.variables[S(name)]
                       for name in ("mapcar", "car"))
        assert rt.apply(mapcar, [car, [[1, 2], [3, 4]]]) == [1, 3]

    def test_a_plain_host_function_gets_its_futures_forced(self, rt):
        length = rt.global_env.variables[S("length")]
        assert rt.apply(length, [rt.eval_string("(future (list 1 2))")]) == 2

    def test_a_gozer_function_and_a_non_function(self, rt):
        rt.eval_string("(defun twice (x) (* 2 x))")
        assert rt.apply(rt.global_env.variables[S("twice")], [4]) == 8
        with pytest.raises(GozerRuntimeError, match="not callable"):
            rt.apply(5, [])

    def test_a_reader_macro_bound_to_a_builtin(self, rt):
        # set-macro-character's adapter calls its function through apply
        rt.eval_string("(set-macro-character #\\! #'list)")
        value = rt.eval_string("(quote !)")
        assert type(value) is list and len(value) == 2
