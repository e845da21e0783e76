"""``OPCODES`` is the instruction set the VM executes — no more, no less.

The VM dispatches on opcode strings in two ``if``/``elif`` chains:
``VM._step`` (every instruction; the traced loop and the fast loop's
fallback) and ``VM._run_fast`` (the inlined hot subset).  Reading the
opcode literals out of their source is the one check that catches both
directions: a table entry nothing executes (the old ``call-kw``) and a
branch for an opcode ``CodeObject.emit`` would refuse.
"""

import inspect
import re

import pytest

from repro.gvm.conditions import UnhandledConditionError
from repro.gvm.runtime import make_runtime
from repro.gvm.vm import VM
from repro.lang.bytecode import OPCODES, CodeObject


def dispatched(method) -> set:
    return set(re.findall(r'\bop == "([^"]+)"', inspect.getsource(method)))


def test_step_dispatches_exactly_the_opcode_table():
    assert dispatched(VM._step) == set(OPCODES)


def test_fast_loop_inlines_only_known_opcodes():
    inlined = dispatched(VM._run_fast)
    assert inlined <= set(OPCODES)
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
