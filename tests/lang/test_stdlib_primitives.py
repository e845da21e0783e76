"""The eight binary numeric primitives: the stdlib function against the
``operator`` function the GVM's fast loop computes in its place.

``repro.lang.templates.BINARY_PRIMITIVES`` maps each of ``+ - * < > =
<= >=`` to its function and an ``operator`` function, and the fast loop computes that
instead of calling the builtin when both arguments are exactly an
``int`` or a ``float``.  The traced loop (and the stepwise oracle,
history replay and the tree interpreter) always call the function, so
the two must agree on every such pair: value, type, sign of zero, nan,
and the error a huge int meets beside a float.
"""

import itertools
import math

import pytest

from repro.gvm.conditions import UnhandledConditionError
from repro.lang import stdlib
from repro.lang.bytecode import fuse
from repro.lang.symbols import Symbol
from repro.lang.templates import BINARY_PRIMITIVES

NAMES = ("+", "-", "*", "<", ">", "=", "<=", ">=")

#: int, float, both zeros, nan, both infinities and ints beyond what a
#: float holds (mixing those with a float overflows)
OPERANDS = (0, 3, -7, 0.0, -0.0, 2.5, -1e308, math.nan, math.inf,
            -math.inf, 2**70, -(10**400))
PAIRS = list(itertools.product(OPERANDS, repeat=2))
#: and for the loops, values the inline path must leave to the function
#: (``(+ "ab" "ab")`` is a type-error, ``(+ t t)`` is 2)
LOOP_PAIRS = list(itertools.product(OPERANDS + (True, "ab", [1]), repeat=2))


def outcome(fn, *args):
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared like a value
        return type(exc)
    # repr keeps the sign of zero and makes nan equal to itself
    return type(value), repr(value)


@pytest.mark.parametrize("name", NAMES)
def test_the_inline_operator_equals_the_function(name):
    fn, op = BINARY_PRIMITIVES[Symbol(name)]
    assert fn is stdlib._REGISTRY[name]
    for a, b in PAIRS:
        assert outcome(op, a, b) == outcome(fn, a, b), (name, a, b)


class TestNegativeZero:
    """``(+ -0.0 -0.0)`` and ``(+ -0.0)`` are -0.0, as IEEE and CL say;
    the old ``0 + a + b`` answered 0.0."""

    @pytest.mark.parametrize("traced", [False, True])
    def test_sums_of_negative_zero(self, rt, traced):
        vm = rt.new_vm()
        if traced:
            vm.instruction_hook = lambda frame, op, arg: None
        code = rt.compile(rt.read(
            "(let ((z -0.0)) (list (+ z z) (+ z) (+ z z z) (+ -0.0 0.0)))"))
        value = vm.run_code(code).value
        assert [math.copysign(1.0, v) for v in value] == [-1, -1, -1, 1]

    def test_the_function_still_refuses_what_is_not_a_number(self, rt):
        for source in ('(+ "a" "b")', '(+ "a")', "(+ (list 1) (list 2))",
                       "(+ nil 1)", '(+ 1 "b")'):
            with pytest.raises(UnhandledConditionError, match="type-error"):
                rt.eval_string(source)
        assert rt.eval_string("(list (+) (+ 4) (+ 1 2 3) (+ t t))") \
            == [0, 4, 6, 2]


@pytest.mark.parametrize("name", NAMES)
def test_fast_and_traced_loops_agree_on_every_pair(rt, name):
    """``(p a b)`` with ``a`` and ``b`` globals: the fast loop computes
    it inline when both are an int or a float (and falls back to the
    call for any other value, or an int too big for a float beside a
    float), the traced loop calls the function; the value or the
    condition and the instruction count agree."""
    code = rt.compile(rt.read(f"(list ({name} a b))"))
    assert any(op == "block" and arg[4] == ("push", None)
               for op, arg in fuse(code))

    def run(traced, a, b):
        rt.global_env.define(Symbol("a"), a)
        rt.global_env.define(Symbol("b"), b)
        vm = rt.new_vm()
        if traced:
            vm.instruction_hook = lambda frame, op, arg: None
        try:
            seen = repr(vm.run_code(code).value)
        except UnhandledConditionError as exc:
            seen = exc.condition.condition_type
        return seen, vm.instruction_count

    for a, b in LOOP_PAIRS:
        assert run(False, a, b) == run(True, a, b), (name, a, b)
