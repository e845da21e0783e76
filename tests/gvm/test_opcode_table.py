"""``OPCODES`` is the instruction set the VM executes — no more, no less.

The VM dispatches on opcode strings in two ``if``/``elif`` chains:
``VM._step`` (every instruction; the traced loop and the fast loop's
fallback) and ``VM._run_fast`` (the inlined hot subset, plus the
``FUSED`` superinstructions of its fused view).  Reading the opcode
literals out of their source is the one check that catches both
directions: a table entry nothing executes (the old ``call-kw``) and a
branch for an opcode ``CodeObject.emit`` would refuse.

The fused view is checked against ``instructions`` over every corpus
program: same length, and each fused entry stands for exactly the
instructions at its pcs.
"""

import inspect
import os
import pickle
import re

import pytest

from repro.conformance import load_dir
from repro.conformance.coverage import CALL_GLOBAL_SHAPES, fused_forms
from repro.gvm.conditions import UnhandledConditionError
from repro.gvm.frames import BINARY_PRIMITIVES
from repro.gvm.runtime import make_runtime
from repro.gvm.vm import VM
from repro.lang import stdlib
from repro.lang.bytecode import (FUSED, OPCODES, PRIMITIVES, CodeObject,
                                 fuse, nested_code_objects, validate)


def dispatched(method) -> set:
    return set(re.findall(r'\bop == "([^"]+)"', inspect.getsource(method)))


def test_step_dispatches_exactly_the_opcode_table():
    assert dispatched(VM._step) == set(OPCODES)


def test_fast_loop_inlines_only_known_opcodes():
    inlined = dispatched(VM._run_fast)
    assert inlined <= set(OPCODES) | set(FUSED)
    assert set(FUSED) <= inlined
    # the instructions ordinary execution is made of stay in the loop
    assert {"load", "load-global", "store", "call", "tail-call",
            "return"} <= inlined


def test_unknown_opcode_is_refused_by_both_ends():
    with pytest.raises(AssertionError):
        CodeObject(name="bad").emit("call-kw", (1, ()))
    code = CodeObject(name="bad")
    code.instructions.append(("call-kw", (1, ())))
    with pytest.raises(UnhandledConditionError, match="unknown opcode"):
        make_runtime(deterministic=True).new_vm().run_code(code)


def test_fused_forms_are_refused_by_emit_and_validate():
    assert not set(FUSED) & set(OPCODES)
    for name in FUSED:
        with pytest.raises(AssertionError):
            CodeObject(name="bad").emit(name, None)
        code = CodeObject(name="bad")
        code.instructions.extend([(name, None), ("return", None)])
        assert validate(code) == [f"pc 0: unknown opcode {name!r}"]


# ---------------------------------------------------------------------------
# the fused view, over every corpus code object
# ---------------------------------------------------------------------------

def unfuse(entry):
    """The instructions a fused-view entry stands for, as ``FUSED``
    describes them."""
    op, arg = entry
    if op == "store-pop":
        return [("dup", None), ("store", arg), ("pop", None)]
    if op == "call-global":
        name, pushes, tail, span, then = arg
        # the postfix pushes back to instructions: one run per value
        values = []
        for push, value in pushes:
            if push == "primitive":
                assert value in PRIMITIVES
                second, first = values.pop(), values.pop()
                values.append([("load-global", value), *first, *second,
                               ("call", 2)])
            else:
                assert push in ("load", "load-global", "const") \
                    and type(value) is not list
                values.append([(push, value)])
        if then is None:
            assert not (name in PRIMITIVES and len(values) == 2)
            replaced = [("load-global", name),
                        *(instruction for run in values
                          for instruction in run),
                        ("tail-call" if tail else "call", len(values))]
        else:
            # f's own call is the last primitive, so one value is left
            (replaced,) = values
            assert replaced[0] == ("load-global", name)
            if tail:
                replaced[-1] = ("tail-call", 2)
        assert span == len(replaced) - 1
        kind, target = then or ("push", None)
        if kind == "jump-if-false":
            assert not tail
            replaced.append(("jump-if-false", target))
        elif kind == "store":
            assert not tail
            replaced += [("dup", None), ("store", target), ("pop", None)]
        else:
            assert kind == "push" and target is None
        return replaced
    return [entry]


_CORPUS = load_dir(os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "conformance", "corpus"))


def _corpus_code(program):
    """Every code object one corpus program compiles to (definitions
    included), on a fresh runtime."""
    rt = make_runtime(deterministic=True)
    *definitions, body = rt.read_all(program.sequential_source)
    codes = []
    for form in definitions:
        codes.extend(nested_code_objects(rt.compile(form)))
        rt.eval_form(form)
    codes.extend(nested_code_objects(rt.compile(body)))
    return codes


@pytest.mark.parametrize("program", _CORPUS, ids=lambda p: p.name)
def test_fused_view_stands_for_the_instructions(program):
    for code in _corpus_code(program):
        view = fuse(code.instructions)
        assert len(view) == len(code.instructions)
        for pc, entry in enumerate(view):
            replaced = unfuse(entry)
            assert code.instructions[pc:pc + len(replaced)] == replaced, \
                (code.name, pc, entry)
            if entry[0] in FUSED:
                # an entry inside a span is the original instruction or
                # a fused entry whose own span nests inside this one
                # (each is checked at its own pc), so a jump into the
                # span, or a deopt to pc + 1, runs the unfused code
                end = pc + len(replaced)
                for inner_pc in range(pc + 1, end):
                    inner = view[inner_pc]
                    assert inner[0] in OPCODES \
                        or inner_pc + len(unfuse(inner)) <= end, \
                        (code.name, pc, inner_pc)
            else:
                assert entry == code.instructions[pc]


def test_corpus_reaches_both_fused_forms():
    # both forms, and every shape a call-global takes
    seen = set()
    for program in _CORPUS:
        for code in _corpus_code(program):
            for entry in fuse(code.instructions):
                seen.update(fused_forms(entry))
    assert set(FUSED) | set(CALL_GLOBAL_SHAPES) <= seen


def test_primitive_names_are_the_registered_primitives():
    registered = {name for name, fn in stdlib._REGISTRY.items()
                  if fn in BINARY_PRIMITIVES}
    assert {symbol.name for symbol in PRIMITIVES} == registered
    assert len(BINARY_PRIMITIVES) == len(PRIMITIVES) == 8


def test_list_constants_are_never_fused():
    # the VM copies a list constant at every push; a fused call would
    # have to repeat that rule, so the sequence stays unfused
    rt = make_runtime(deterministic=True)
    code = rt.compile(rt.read("(append '(1 2) x)"))
    assert fuse(code.instructions)[0][0] == "load-global"
    assert fuse(rt.compile(rt.read("(+ 1 x)")).instructions)[0][0] \
        == "call-global"


@pytest.mark.parametrize("program", _CORPUS, ids=lambda p: p.name)
def test_running_code_does_not_change_its_pickle(program):
    rt = make_runtime(deterministic=True)
    *definitions, body = rt.read_all(program.sequential_source)
    for form in definitions:
        rt.eval_form(form)
    code = rt.compile(body)
    before = pickle.dumps(code)
    vm = rt.new_vm(allow_yield=True)
    try:
        vm.run_code(code)
    except Exception:  # noqa: BLE001 - the outcome is not the point
        pass
    assert code.fused is not None, "the fast loop never ran the code"
    assert pickle.dumps(code) == before
    clone = pickle.loads(before)
    assert clone.fused is None and clone == code
