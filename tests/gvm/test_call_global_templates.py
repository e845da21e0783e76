"""A fused call's pushes as generated straight-line Python.

``lang.templates`` compiles each ``block``'s pushes, once per *shape*
(push kinds, primitive operators, tail), into a factory.  A block whose
call the fast loop makes — a Gozer function's, an unregistered host
function's — has the ``call`` tail: its ``run(e0, gv, dyn, stack,
count)`` pushes the callee and the argument values and returns the pc
of its own ``call``, or None to deopt.  Every load is resolved from the
frame's innermost scope ``e0``: its own bindings, else ``Env.holder``.
Here:

* over random shapes, the block pushes exactly what the push loop it
  replaced computed (kept below as :func:`reference`), or both deopt;
* where a load finds its name — nested scopes, a name bound later in
  its scope, a name no scope of the frame binds, scopes a jump or an
  exit leaves inconsistent, the ``fused-depth-*`` corpus — read by the
  fused and the traced loop alike;
* names and constants the generated source must never hold.
"""

import math
import os
import random
import sys

import pytest

from repro.conformance import load_dir
from repro.gvm.conditions import UnhandledConditionError
from repro.gvm.environment import Env
from repro.gvm.runtime import make_runtime
from repro.lang import stdlib
from repro.lang.bytecode import CodeObject, nested_code_objects
from repro.lang.symbols import Symbol
from repro.lang.templates import (BINARY_PRIMITIVES, instantiate_blocks,
                                  push_shape, template)

S = Symbol

#: the eight primitives' names, and their functions by name and back
PRIMITIVES = sorted(BINARY_PRIMITIVES, key=lambda symbol: symbol.name)
PRIMITIVE_FUNCTIONS = {name: fn for name, (fn, _) in BINARY_PRIMITIVES.items()}
OPERATORS = {fn: op for fn, op in BINARY_PRIMITIVES.values()}

#: the argument types the push loop computed a primitive inline for
NUMBERS = frozenset((int, float))


def reference(pushes, scope, global_variables, dynamic_stacks):
    """The interpretive push loop the generated code replaced: every
    load walks the chain from the innermost scope.  The argument list,
    or None where the fused entry deopts."""
    args = []
    for push, value, _k in pushes:
        if push == "load":
            env = scope
            while env is not None:
                bindings = env.bindings
                if value in bindings:
                    args.append(bindings[value])
                    break
                env = env.parent
            else:
                return None
        elif push == "primitive":
            b = args.pop()
            a = args[-1]
            if type(a) not in NUMBERS or type(b) not in NUMBERS:
                return None
            if dynamic_stacks and value in dynamic_stacks:
                return None
            try:
                binary = OPERATORS[global_variables[value]]
                args[-1] = binary(a, b)
            except (KeyError, TypeError, OverflowError):
                return None
        elif push == "const":
            args.append(value)
        elif dynamic_stacks and value in dynamic_stacks:
            args.append(dynamic_stacks[value][-1])
        else:
            if value not in global_variables:
                return None
            args.append(global_variables[value])
    return args


def observed(args):
    """What a result is, down to the type and the sign of a zero."""
    if args is None:
        return None
    return [(type(value), repr(value)) for value in args]


#: the callee of every block here: a function the fast loop calls
F = S("f")
#: a stdlib function that is not one of the eight
MAX = stdlib._REGISTRY["max"]


def call_block(pushes):
    """A block at pc 10 that calls ``f`` on the values of ``pushes``:
    ``(e0, gv, dyn)`` gives the values it leaves for the fast loop's
    ``call`` — the callee first — or None where it deopts."""
    # each simple push is one instruction, each nested call two more
    # (its load-global and its call); then f's load-global and call
    width = 2 + sum(1 if k is None else 2 for _, _, k in pushes)
    run, _source = instantiate_blocks(
        [(10, (("load-global", F, None),) + tuple(pushes), ("call", None),
          width)])

    def values(e0, gv, dyn):
        stack = ["below"]
        moved = run(e0, gv, dyn, stack, 1)
        if moved is None:
            assert stack == ["below"]  # nothing pushed
            return None
        # on at the call, counted up to it
        assert moved == (10 + width - 1, width - 1)
        assert stack[:2] == ["below", gv[F]]
        return stack[2:]

    return values


VALUES = (0, 3, -7, 2.5, 0.0, -0.0, 1e308, math.inf, True, False, "ab",
          10 ** 400, -(2 ** 70))
LEXICALS = [S(f"lex{i}") for i in range(5)]
GLOBALS = [S(f"glob{i}") for i in range(3)]
#: the scopes a case builds: depths 0-3 of the frame, and one beyond
#: its base (a closure's, say)
DEPTHS = 4


class Case:
    """One random shape over one random environment: each loaded name
    bound in any of the scopes, several of them or none."""

    def __init__(self, seed):
        rng = self.rng = random.Random(seed)
        self.pushes = []
        for _ in range(rng.randint(1, 3)):
            self._expression(0)
        self.pushes = tuple(self.pushes)
        self.scopes = [{} for _ in range(DEPTHS + 1)]
        self.loaded = {value for kind, value, _ in self.pushes
                       if kind == "load"}
        for name in self.loaded:
            if rng.random() < 0.1:
                continue  # bound nowhere: the entry deopts
            for d in range(DEPTHS + 1):
                if rng.random() < 0.3:
                    self.scopes[d][name] = rng.choice(VALUES)
        self.global_variables = dict(PRIMITIVE_FUNCTIONS)
        self.global_variables[F] = MAX
        self.dynamic_stacks = {}
        for name in GLOBALS:
            # bound, unbound, dynamically bound over a global or not
            if rng.random() < 0.75:
                self.global_variables[name] = rng.choice(VALUES)
            if rng.random() < 0.2:
                self.dynamic_stacks[name] = [rng.choice(VALUES)]
        for name in PRIMITIVES:
            roll = rng.random()
            if roll < 0.03:
                del self.global_variables[name]
            elif roll < 0.06:
                self.global_variables[name] = MAX
            elif roll < 0.08:
                self.global_variables[name] = [1]  # no dictionary hashes it
            elif roll < 0.1:
                self.dynamic_stacks[name] = [PRIMITIVE_FUNCTIONS[name]]
        if rng.random() < 0.3:
            self.dynamic_stacks[S("unrelated")] = [1]

    def _expression(self, level):
        rng = self.rng
        if level < 2 and rng.random() < 0.45:
            self._expression(level + 1)
            self._expression(level + 1)
            self.pushes.append(("primitive", rng.choice(PRIMITIVES), 2))
            return
        roll = rng.random()
        if roll < 0.55:
            self.pushes.append(("load", rng.choice(LEXICALS), None))
        elif roll < 0.8:
            self.pushes.append(("load-global", rng.choice(GLOBALS), None))
        else:
            self.pushes.append(("const", rng.choice(VALUES), None))

    def innermost(self):
        env = None
        for bindings in reversed(self.scopes):
            env = Env(env, bindings)
        return env

    def both(self):
        env = self.innermost()
        return (observed(call_block(self.pushes)(
                    env, self.global_variables, self.dynamic_stacks)),
                observed(reference(self.pushes, env, self.global_variables,
                                   self.dynamic_stacks)))


def test_generated_pushes_match_the_push_loop():
    seen = {"deopt": 0, "value": 0, "later": 0, "depths": set()}
    for seed in range(1500):
        case = Case(seed)
        generated, expected = case.both()
        assert generated == expected, (seed, case.pushes)
        seen["deopt" if expected is None else "value"] += 1
        seen["depths"].update(
            min(d for d, scope in enumerate(case.scopes) if name in scope)
            for name in case.loaded
            if any(name in scope for scope in case.scopes))
        # a name bound later, nearer than it was: the block reads the
        # new binding, as the walk from the innermost scope does
        for name in case.loaded:
            d = case.rng.randrange(DEPTHS + 1)
            if name not in case.scopes[d]:
                case.scopes[d][name] = case.rng.choice(VALUES)
                seen["later"] += 1
        generated, expected = case.both()
        assert generated == expected, (seed, "later", case.pushes)
    assert seen["depths"] == set(range(DEPTHS + 1))
    assert seen["deopt"] > 100 and seen["value"] > 100 and seen["later"]


def test_huge_ints_and_zeros_at_the_operator():
    plus, times = S("+"), S("*")
    gv = dict(PRIMITIVE_FUNCTIONS)
    gv[F] = MAX
    env = Env(None, {S("a"): 10 ** 400, S("b"): 1.5, S("z"): -0.0})
    a, b, z = (("load", S(name), None) for name in "abz")
    for pushes in [
            (a, b, ("primitive", plus, 2)),
            (b, a, ("primitive", times, 2)),
            (z, z, ("primitive", plus, 2)),
            (z, ("const", 0, None), ("primitive", times, 2)),
            (a, a, ("primitive", times, 2), b, ("primitive", S("-"), 2))]:
        assert observed(call_block(pushes)(env, gv, {})) \
            == observed(reference(pushes, env, gv, {})), pushes


def test_a_primitive_bound_to_another_primitive_deopts(rt):
    # the push loop computed whichever primitive the name was bound to;
    # the generated code computes only the one it was made for and
    # leaves any other binding to the call, which computes the same
    plus = S("+")
    pushes = (("const", 5, None), ("const", 3, None),
              ("primitive", plus, 2))
    gv = dict(PRIMITIVE_FUNCTIONS)
    gv[F] = MAX
    gv[plus] = PRIMITIVE_FUNCTIONS[S("-")]
    assert call_block(pushes)(Env(), gv, {}) is None
    assert reference(pushes, Env(), gv, {}) == [2]
    rt.eval_string("(defun sub (a) (let ((b 3)) (+ a b)))")
    rt.global_env.define(plus, PRIMITIVE_FUNCTIONS[S("-")])
    code = rt.compile(rt.read("(sub 5)"))
    for traced in (False, True):
        vm = rt.new_vm()
        if traced:
            vm.instruction_hook = lambda frame, op, arg: None
        assert vm.run_code(code).value == 2


def test_one_template_per_shape():
    a = (("load", S("x"), None), ("const", 1, None), ("primitive", S("+"), 2))
    b = (("load", S("y"), None), ("const", "s", None),
         ("primitive", S("+"), 2))
    assert push_shape(a) == push_shape(b) == (("load",), ("const",),
                                              ("primitive", "+"))
    callee = (("load-global", F, None),)
    assert template(("block", ((push_shape(callee + a), ("call",), 6),))) \
        is template(("block", ((push_shape(callee + b), ("call",), 6),)))
    assert instantiate_blocks([(0, callee + a, ("call", None), 6)])[0] \
        is not instantiate_blocks([(0, callee + b, ("call", None), 6)])[0]


# ---------------------------------------------------------------------------
# where a load finds its name
# ---------------------------------------------------------------------------

@pytest.fixture
def found(monkeypatch):
    """Each name generated code resolves past the innermost scope, as
    ``(name, d, file)``: found ``d`` scopes up, by a ``<block>`` or a
    ``<region>``; ``d`` is None where nothing binds it."""
    hits = []
    holder = Env.holder

    def recording(env, name):
        bindings = holder(env, name)
        caller = sys._getframe(1).f_code.co_filename
        if caller in ("<block>", "<region>"):
            depth = next((d for d, scope in enumerate(env.chain())
                          if scope.bindings is bindings), None)
            hits.append((name.name, depth, caller))
        return bindings

    monkeypatch.setattr(Env, "holder", recording)
    return hits


def _fast_and_traced(rt, code, env=None):
    """The value and instruction count of ``code`` on the fast loop and
    on the traced one, which must agree; the fast loop's value."""
    results = []
    for traced in (False, True):
        vm = rt.new_vm()
        if traced:
            vm.instruction_hook = lambda frame, op, arg: None
        results.append((vm.run_code(code, env).value, vm.instruction_count))
    assert results[0] == results[1]
    return results[0][0]


def test_depths_of_nested_scopes(rt, found):
    # a is the innermost binding: read without a walk; b is found one
    # scope up, at each of its two loads
    code = rt.compile(rt.read("""(let ((a 1)) (let ((b 2)) (let ((a 3) (c 4))
                                   (list (+ a b) (+ c b)))))"""))
    assert _fast_and_traced(rt, code) == [5, 6]
    assert found == [("b", 1, "<block>")] * 2


def test_a_name_bound_later_in_its_scope_starts_there(rt, found):
    # the same load, before and after the innermost scope binds b: the
    # outer b, found one scope up, then the one bound later, read there
    # without a walk
    b, plus = S("b"), S("+")
    code = CodeObject(name="t")
    add = [("load-global", plus), ("load", b), ("const", 0), ("call", 2)]
    for op, arg in [("push-scope", None), *add, ("bind", S("first")),
                    ("const", 1), ("bind", b),
                    ("load-global", S("list")), ("load", S("first")), *add,
                    ("call", 2), ("pop-scope", None), ("return", None)]:
        code.emit(op, arg)
    assert _fast_and_traced(rt, code, Env(None, {b: 10})) == [10, 1]
    assert found == [("b", 1, "<block>")]


def test_a_name_no_scope_binds_is_found_beyond_the_base(rt, found):
    # in the closure's frame m is the innermost binding, n its base
    # (parameter) scope's and k the scope it closed over's
    code = rt.compile(rt.read("""
        (let ((k 5))
          (let ((f (lambda (n) (let ((m 1)) (+ n (* k m))))))
            (funcall f 2)))"""))
    assert _fast_and_traced(rt, code) == 7
    assert found == [("n", 1, "<block>"), ("k", 2, "<block>")]


@pytest.mark.parametrize("instructions", [
    # a jump into another scope
    [("push-scope", None), ("jump", 4), ("pop-scope", None),
     ("push-scope", None), ("load-global", S("+")), ("load", S("a")),
     ("const", 1), ("call", 2), ("pop-scope", None), ("return", None)],
    # a block whose exit pc is inside a scope it was not made in
    [("push-block", (None, 3)), ("push-scope", None), ("const", 1),
     ("load-global", S("+")), ("load", S("a")), ("const", 1), ("call", 2),
     ("pop-scope", None), ("return", None)],
    # a pop-scope of the base scope
    [("pop-scope", None), ("push-scope", None), ("load-global", S("+")),
     ("load", S("a")), ("const", 1), ("call", 2), ("return", None)],
])
def test_inconsistent_scopes_prove_nothing(rt, instructions):
    # the fused view assumes nothing of the scopes: each load is
    # resolved from wherever the frame's innermost scope is when it runs
    code = CodeObject(name="t")
    for op, arg in instructions:
        code.emit(op, arg)
    assert any(op == "block" for op, _ in code.fuse())
    start = Env(Env(None, {S("a"): 5}), {S("a"): 7})
    popped = instructions[0][0] == "pop-scope"
    assert _fast_and_traced(rt, code, start) == (6 if popped else 8)


_FUSED_DEPTH = [program for program in load_dir(os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "conformance", "corpus")) if program.name.startswith("fused-depth-")]


def test_the_fused_depth_corpus_reads_past_the_innermost_scope(found):
    # a lone block and a region each find a load's name past the
    # innermost scope, and read what the traced loop reads
    assert len(_FUSED_DEPTH) >= 5
    for program in _FUSED_DEPTH:
        rt = make_runtime(deterministic=True)
        *definitions, body = rt.read_all(program.sequential_source)
        for form in definitions:
            rt.eval_form(form)
        _fast_and_traced(rt, rt.compile(body))
        rt.shutdown()
    past = {caller for _name, depth, caller in found if depth}
    assert past == {"<block>", "<region>"}, found


# ---------------------------------------------------------------------------
# hostile names: nothing of the program is formatted into the source
# ---------------------------------------------------------------------------

HOSTILE = ['x"y', "x'y", 'x\ny', "x#y", "import os", '"""; import os #',
           "x\\'y", "os.system('true')"]


@pytest.mark.parametrize("hostile", HOSTILE)
@pytest.mark.parametrize("shape", ["at-0", "at-2"])
def test_hostile_names_and_constants(rt, hostile, shape):
    name, other = S(hostile), S(hostile + "2")
    let, plus, lst = S("let"), S("+"), S("list")
    inner = [lst, name, hostile, [plus, name, 1], other,
             [S("length"), hostile]]
    if shape == "at-0":
        form = [let, [[other, 5]], [let, [[name, 2]], inner]]
    else:
        form = [let, [[name, 2]], [let, [[S("q"), 0]],
                                   [let, [[other, 5]], inner]]]
    code = rt.compile(form)
    results = []
    for traced in (False, True):
        vm = rt.new_vm()
        if traced:
            vm.instruction_hook = lambda frame, op, arg: None
        results.append((vm.run_code(code).value, vm.instruction_count))
    assert results[0] == results[1]
    assert results[0][0] == [2, hostile, 3, 5, len(hostile)]
    for nested in nested_code_objects(code):
        for op, arg in nested.fused or nested.fuse():
            if op != "block":
                continue
            pushes, source = arg[3], arg[-1]
            for kind, value, _k in pushes:
                if kind == "primitive":
                    continue  # its operator token is the one text allowed
                text = value.name if isinstance(value, Symbol) else value
                if isinstance(text, str):
                    assert text not in source and repr(text) not in source


def test_disassemble_fused_shows_pushes_and_source(rt):
    code = rt.compile(rt.read(
        "(let ((n 3)) (let ((acc 0)) (dotimes (i 4) (setq acc (+ acc (* n n)))) acc))"))
    listing = code.disassemble_fused()
    assert "block  +" in listing
    assert "        load  n\n" in listing and "        load  acc\n" in listing
    assert "primitive  *  args 2" in listing
    assert "| def make(" in listing and "store-pop" not in listing.split(
        "block", 1)[0]
    assert len(listing.splitlines()) > len(code.instructions)
    # a setq tail names what it assigns
    assert "store  acc\n" in listing and "store  i\n" in listing
    # the dotimes is one region at its backward jump: its pc range, each
    # block's instruction count, and the source of its loop
    assert "33  region  11..33  blocks 11 (5), 16 (10), 26 (7), jump (1)" \
        in listing
    region = listing.split("  region  ", 1)[1]
    assert "| def make(at0, " in region and "|         while True:" in region
    assert "|             count += 23" in region
    # a call the fast loop makes: its callee's load-global first, then
    # the call tail
    listing = rt.compile(rt.read("(let ((a 1)) (max a 2))")).disassemble_fused()
    assert "block  max  width 4\n        load-global  max\n        load  a\n" \
        "        const  2\n        call\n" in listing


def test_a_redefined_primitive_still_computes_through_the_call(rt):
    assert rt.eval_string("""
        (defun sq (n) (let ((k 1)) (let ((acc 0)) (dotimes (i 2) (setq acc (+ acc (* n n k)))) acc)))
        (list (sq 3) (progn (defun * (&rest xs) (apply #'+ xs)) (sq 3)))""") \
        == [18, 14]
    with pytest.raises(UnhandledConditionError):
        rt.eval_string("(let ((a 1)) (let ((b 2)) (+ a (* b \"s\"))))")
