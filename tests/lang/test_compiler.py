"""Compiler tests: special forms, lambda lists, bytecode well-formedness."""

import pytest

from repro.lang.bytecode import CodeObject, nested_code_objects, validate
from repro.lang.compiler import Compiler
from repro.lang.errors import CompileError
from repro.lang.reader import read_string
from repro.lang.symbols import Symbol

S = Symbol


@pytest.fixture
def compiler():
    return Compiler()


def compile_text(compiler, text):
    return compiler.compile_toplevel(read_string(text))


class TestBasicCompilation:
    def test_constant(self, compiler):
        code = compile_text(compiler, "42")
        assert code.instructions[0] == ("const", 42)
        assert code.instructions[-1][0] == "return"

    def test_symbol_load(self, compiler):
        code = compile_text(compiler, "x")
        assert code.instructions[0] == ("load-global", S("x"))

    def test_call(self, compiler):
        code = compile_text(compiler, "(f 1 2)")
        ops = [op for op, _ in code.instructions]
        assert "call" in ops
        call_arg = [arg for op, arg in code.instructions if op == "call"][0]
        assert call_arg == 2

    def test_quote(self, compiler):
        code = compile_text(compiler, "'(1 2)")
        assert ("const", [1, 2]) in code.instructions

    def test_if_has_two_jumps(self, compiler):
        code = compile_text(compiler, "(if a b c)")
        ops = [op for op, _ in code.instructions]
        assert "jump-if-false" in ops and "jump" in ops

    def test_empty_list_constant(self, compiler):
        code = compile_text(compiler, "()")
        assert code.instructions[0] == ("const", [])


class TestValidation:
    """All emitted bytecode passes the static validator."""

    PROGRAMS = [
        "42",
        "(+ 1 2)",
        "(if a b c)",
        "(let ((x 1) (y 2)) (+ x y))",
        "(let* ((x 1) (y (+ x 1))) y)",
        "(lambda (a b) (+ a b))",
        "(defun f (x) (* x x))",
        "(while (< i 10) (setq i (+ i 1)))",
        "(and a b c)",
        "(or a b c)",
        "(block b (return-from b 1))",
        "(setf x 1)",
        "(progn 1 2 3)",
        "(cond ((= x 1) :one) ((= x 2) :two) (t :other))",
        "(when x 1 2)",
        "(unless x 1 2)",
        "(dolist (x xs) (print x))",
        "(dotimes (i 10) (print i))",
        "(loop for x in xs collect (* x x))",
        "(loop for i from 0 to 10 by 2 sum i)",
        "(unwind-protect (f) (cleanup))",
        "(handler-bind ((error (lambda (c) c))) (f))",
        "(restart-case (f) (retry () (f)) (ignore () nil))",
        "(future (+ 1 2))",
        "(yield)",
        "(push-cc)",
        "(. obj (method 1 2))",
        "(. obj field)",
        "(% is-fiber-thread)",
        "`(a ~b ~@c)",
        "(case x (1 :one) ((2 3) :few) (otherwise :many))",
    ]

    def test_all_programs_validate(self, compiler):
        for text in self.PROGRAMS:
            code = compile_text(compiler, text)
            for obj in nested_code_objects(code):
                problems = validate(obj)
                assert not problems, f"{text}: {problems}"


class TestLambdaLists:
    def test_required_only(self, compiler):
        spec = compiler.parse_lambda_list(read_string("(a b c)"))
        assert [p.name for p in spec.required] == ["a", "b", "c"]
        assert spec.max_positional == 3

    def test_optional(self, compiler):
        spec = compiler.parse_lambda_list(read_string("(a &optional b (c 7))"))
        assert len(spec.optional) == 2
        assert spec.optional[0][1] is None
        assert spec.optional[1][1] is not None  # compiled default

    def test_rest(self, compiler):
        spec = compiler.parse_lambda_list(read_string("(a &rest more)"))
        assert spec.rest is S("more")
        assert spec.max_positional is None

    def test_keys(self, compiler):
        spec = compiler.parse_lambda_list(read_string("(&key x (y 2))"))
        assert len(spec.keys) == 2

    def test_bad_lambda_list(self, compiler):
        with pytest.raises(CompileError):
            compiler.parse_lambda_list(read_string("(1 2)"))

    def test_arity_description(self, compiler):
        spec = compiler.parse_lambda_list(read_string("(a &optional b)"))
        assert spec.arity_description() == "1 to 2"


class TestErrors:
    BAD = [
        "(if)",
        "(quote)",
        "(quote a b)",
        "(let x 1)",
        "(lambda)",
        "(defun 42 () 1)",
        "(setq 42 1)",
        "(setq x)",
        "(setf (unknown-place x) 1)",
        "(block 42 x)",
        "(function 42)",
        "(the x)",
        "(. obj)",
    ]

    def test_bad_forms_raise_compile_error(self, compiler):
        for text in self.BAD:
            with pytest.raises(CompileError):
                compile_text(compiler, text)


class TestSetfPlaces:
    def test_setf_symbol_is_setq(self, compiler):
        code = compile_text(compiler, "(setf x 1)")
        assert ("store", S("x")) in code.instructions

    def test_setf_gethash(self, compiler):
        code = compile_text(compiler, '(setf (gethash "k" h) 2)')
        assert ("load-global", S("%sethash")) in code.instructions

    def test_setf_car(self, compiler):
        code = compile_text(compiler, "(setf (car x) 2)")
        assert ("load-global", S("set-car!")) in code.instructions

    def test_setf_pairs(self, compiler):
        code = compile_text(compiler, "(setf a 1 b 2)")
        stores = [arg for op, arg in code.instructions if op == "store"]
        assert stores == [S("a"), S("b")]

    def test_setf_task_var(self, compiler):
        code = compile_text(compiler, "(setf (%get-task-var 'f^) t)")
        assert ("load-global", S("%set-task-var")) in code.instructions


class TestTailCalls:
    def test_tail_position_in_defun(self, compiler):
        code = compile_text(compiler, "(defun f (x) (f x))")
        inner = [arg for op, arg in code.instructions if op == "closure"][0]
        ops = [op for op, _ in inner.instructions]
        assert "tail-call" in ops

    def test_non_tail_not_tail_call(self, compiler):
        code = compile_text(compiler, "(defun f (x) (+ 1 (f x)))")
        inner = [arg for op, arg in code.instructions if op == "closure"][0]
        # the recursive call is an argument — not a tail call
        calls = [op for op, _ in inner.instructions if op == "call"]
        assert len(calls) >= 1

    def test_tail_through_if(self, compiler):
        code = compile_text(compiler, "(defun f (x) (if x (f x) nil))")
        inner = [arg for op, arg in code.instructions if op == "closure"][0]
        assert "tail-call" in [op for op, _ in inner.instructions]


class TestDisassembler:
    def test_disassemble_output(self, compiler):
        code = compile_text(compiler, "(+ 1 2)")
        text = code.disassemble()
        assert "const" in text
        assert "call" in text

    def test_nested_code_objects_found(self, compiler):
        code = compile_text(compiler, "(lambda (x) (lambda (y) (+ x y)))")
        assert len(nested_code_objects(code)) == 3


class TestFreeNameClassification:
    """A reference is ``load-global`` only when no code object around
    it binds the name lexically; everything else stays ``load``."""

    @staticmethod
    def refs(code, name):
        """The opcodes that reference ``name`` in ``code`` and every
        code object nested in it (default thunks included)."""
        return sorted(op for unit in nested_code_objects(code)
                      for op, arg in unit.instructions
                      if arg is S(name) and op.startswith("load"))

    def test_parameter_and_let_names_stay_lexical(self, compiler):
        code = compile_text(
            compiler, "(defun f (a &rest more) (let ((b 1)) (g a b more)))")
        for name in ("a", "b", "more"):
            assert self.refs(code, name) == ["load"]
        assert self.refs(code, "g") == ["load-global"]

    def test_closure_sees_enclosing_bindings(self, compiler):
        code = compile_text(
            compiler, "(let ((k 3)) (lambda (x) (lambda () (* k x y))))")
        assert self.refs(code, "k") == ["load"]
        assert self.refs(code, "x") == ["load"]
        assert self.refs(code, "y") == ["load-global"]
        assert self.refs(code, "*") == ["load-global"]

    def test_inner_binding_does_not_capture_outer_reference(self, compiler):
        # the lambda's own `n` is not on the scope chain of the code
        # that creates the lambda
        code = compile_text(compiler, "(progn n (lambda (n) n))")
        assert self.refs(code, "n") == ["load", "load-global"]

    def test_shadowed_builtin_stays_lexical_everywhere_in_the_unit(
            self, compiler):
        code = compile_text(compiler, "(progn (+ 1 2) (let ((+ 5)) +))")
        assert self.refs(code, "+") == ["load", "load"]

    def test_let_star_closure_sees_later_binding(self, compiler):
        # position is ignored: the closure captures the scope `b` is
        # later bound in
        code = compile_text(compiler, "(let* ((f (lambda () b)) (b 2)) (f))")
        assert self.refs(code, "b") == ["load"]

    def test_default_thunks_keep_plain_load(self, compiler):
        code = compile_text(
            compiler, "(defun f (a &optional (b (g a)) &key (c (h b))) c)")
        for name in ("a", "b", "g", "h"):
            assert "load-global" not in self.refs(code, name)

    def test_open_unit_keeps_plain_load(self, compiler):
        code = compiler.compile_toplevel(read_string("(+ x 1)"), closed=False)
        assert self.refs(code, "x") == self.refs(code, "+") == ["load"]

    def test_special_variable_is_free(self):
        from repro.gvm.runtime import make_runtime

        rt = make_runtime(deterministic=True)
        rt.eval_string("(defvar *depth* 0)")
        code = rt.compile(rt.read("(let ((*depth* 1)) *depth*)"))
        assert ("dyn-bind", S("*depth*")) in code.instructions
        assert ("load-global", S("*depth*")) in code.instructions
        assert rt.new_vm().run_code(code).value == 1

    def test_instruction_count_is_unchanged(self, compiler):
        text = "(defun f (a) (let ((b (g a))) (lambda () (+ a b c))))"
        closed = compile_text(compiler, text)
        opened = compiler.compile_toplevel(read_string(text), closed=False)
        assert [len(c.instructions) for c in nested_code_objects(closed)] \
            == [len(c.instructions) for c in nested_code_objects(opened)]
