"""Every builtin survives a suspension.

A fiber may be suspended with any function value of the global table
live — on its operand stack, as in ``(eval (yield 1))``, or bound in a
frame.  Migration and persistence pickle that state, so each function
value of a fresh runtime must pickle (by reference: it is program, not
state) both through plain ``pickle`` and through the fiber codec, and
resume to the very same object.
"""

import pickle

import pytest

from repro.gvm.runtime import make_runtime
from repro.gvm.vm import Done, Yielded
from repro.lang.symbols import Symbol
from repro.vinz.persistence import FiberCodec

_S = Symbol


def _function_names():
    rt = make_runtime(deterministic=True)
    return sorted(name.name for name, value in
                  rt.global_env.variables.items() if callable(value))


@pytest.fixture(scope="module")
def rt():
    return make_runtime(deterministic=True)


@pytest.fixture(scope="module")
def codec():
    return FiberCodec()


def test_the_table_is_walked():
    names = _function_names()
    assert len(names) > 150
    assert {"eval", "read", "read-from-string", "macroexpand", "load-file",
            "set-macro-character", "%is-fiber-thread"} <= set(names)


@pytest.mark.parametrize("name", _function_names())
def test_a_suspended_fiber_holding_it_round_trips(rt, codec, name):
    fn = rt.global_env.variables[_S(name)]
    # (let ((f (function NAME))) (yield 1) f): the value is live in the
    # suspended frame
    form = [_S("let"), [[_S("f"), [_S("function"), _S(name)]]],
            [_S("yield"), 1], _S("f")]
    out = rt.start(rt.compile(form))
    assert isinstance(out, Yielded)
    for copy in (pickle.loads(pickle.dumps(out.continuation)),
                 codec.loads(codec.dumps(out.continuation))):
        done = rt.resume(copy, None)
        assert isinstance(done, Done) and done.value is fn


def test_the_runtime_intrinsics_work_after_a_resume(rt):
    """The intrinsics that need the runtime reach it through the VM, so
    the resumed copy still evaluates and reads."""
    for source, value, want in (
            ("(eval (yield 1))", [_S("+"), 1, 2], 3),
            ("(read-from-string (yield 1))", "(a b)", [_S("a"), _S("b")]),
            ("(macroexpand (yield 1))", [_S("when"), 1, 2],
             [_S("if"), 1, [_S("progn"), 2], None])):
        out = rt.start(source)
        copy = pickle.loads(pickle.dumps(out.continuation))
        assert rt.resume(copy, value) == Done(want)
