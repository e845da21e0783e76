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
from repro.gvm.conditions import UnhandledConditionError
from repro.gvm.runtime import make_runtime
from repro.gvm.vm import VM
from repro.lang.bytecode import (FUSED, OPCODES, CodeObject, fuse,
                                 nested_code_objects, validate)


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
        name, pushes, tail = arg
        assert all(push in ("load", "load-global", "const")
                   and type(value) is not list for push, value in pushes)
        return [("load-global", name), *pushes,
                ("tail-call" if tail else "call", len(pushes))]
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
                # the entries inside a span stay original, so a jump
                # into it runs the unfused instructions
                assert all(inner[0] in OPCODES
                           for inner in view[pc + 1:pc + len(replaced)])
            else:
                assert entry == code.instructions[pc]


def test_corpus_reaches_both_fused_forms():
    seen = set()
    for program in _CORPUS:
        for code in _corpus_code(program):
            seen.update(op for op, _ in fuse(code.instructions))
    assert set(FUSED) <= seen


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
