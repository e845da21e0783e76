"""A fused ``call-global``'s pushes as generated straight-line Python.

``lang.templates`` compiles each ``call-global``'s pushes, once per
*shape* (push kinds, load depths, primitive operators), into a factory
whose ``run(e0, gv, dyn)`` returns the argument values or None to deopt.
Its loads start at the depth :func:`~repro.lang.bytecode.load_depths`
proves.  Here:

* over random shapes, ``run`` returns exactly what the push loop it
  replaced returns (kept below as :func:`reference`), or both deopt;
* the depth analysis on the cases that decide it;
* names and constants the generated source must never hold.
"""

import math
import random

import pytest

from repro.gvm.conditions import UnhandledConditionError
from repro.gvm.environment import Env
from repro.lang import stdlib
from repro.lang.bytecode import CodeObject, load_depths, nested_code_objects
from repro.lang.symbols import Symbol
from repro.lang.templates import (BINARY_PRIMITIVES, instantiate,
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
    for push, value, _depth in pushes:
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


VALUES = (0, 3, -7, 2.5, 0.0, -0.0, 1e308, math.inf, True, False, "ab",
          10 ** 400, -(2 ** 70))
#: a stdlib function that is not one of the eight
MAX = stdlib._REGISTRY["max"]
LEXICALS = [S(f"lex{i}") for i in range(5)]
GLOBALS = [S(f"glob{i}") for i in range(3)]
#: the scopes a case builds: depths 0-3 of the frame, and one beyond
#: its base (a closure's, say)
DEPTHS = 4


class Case:
    """One random shape over one random environment.  The loads of one
    name in one span start at one depth d (the same scopes are open
    there), which promises that no scope nearer than d holds the name,
    so the name is only ever placed at or beyond d."""

    def __init__(self, seed):
        rng = self.rng = random.Random(seed)
        self.depth_of = {name: rng.randrange(DEPTHS) for name in LEXICALS}
        self.pushes = []
        for _ in range(rng.randint(1, 3)):
            self._expression(0)
        self.pushes = tuple(self.pushes)
        self.scopes = [{} for _ in range(DEPTHS + 1)]
        self.loaded = {value for kind, value, _ in self.pushes
                       if kind == "load"}
        for name in self.loaded:
            depth = self.depth_of[name]
            where = rng.random()
            if where < 0.1:
                continue  # bound nowhere: the entry deopts
            if where < 0.3:
                self.scopes[DEPTHS][name] = rng.choice(VALUES)
            else:
                for d in range(depth, DEPTHS + 1):
                    if rng.random() < 0.5 or d == depth:
                        self.scopes[d][name] = rng.choice(VALUES)
        self.global_variables = dict(PRIMITIVE_FUNCTIONS)
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
            self.pushes.append(("primitive", rng.choice(PRIMITIVES), None))
            return
        roll = rng.random()
        if roll < 0.55:
            name = rng.choice(LEXICALS)
            self.pushes.append(("load", name, self.depth_of[name]))
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
        run, _source = instantiate(self.pushes)
        return (observed(run(env, self.global_variables,
                             self.dynamic_stacks)),
                observed(reference(self.pushes, env, self.global_variables,
                                   self.dynamic_stacks)))


def test_generated_pushes_match_the_push_loop():
    seen = {"deopt": 0, "value": 0, "later": 0, "depths": set()}
    for seed in range(1500):
        case = Case(seed)
        generated, expected = case.both()
        assert generated == expected, (seed, case.pushes)
        seen["deopt" if expected is None else "value"] += 1
        seen["depths"].update(depth for kind, _, depth in case.pushes
                              if kind == "load")
        # a name bound later in its region: the scope a load starts at
        # gains the binding it did not hold on the first run
        for name in case.loaded:
            depth = case.depth_of[name]
            if name not in case.scopes[depth]:
                case.scopes[depth][name] = case.rng.choice(VALUES)
                seen["later"] += 1
        generated, expected = case.both()
        assert generated == expected, (seed, "later", case.pushes)
    assert seen["depths"] == set(range(DEPTHS))
    assert seen["deopt"] > 100 and seen["value"] > 100 and seen["later"]


def test_huge_ints_and_zeros_at_the_operator():
    plus, times = S("+"), S("*")
    gv = dict(PRIMITIVE_FUNCTIONS)
    env = Env(None, {S("a"): 10 ** 400, S("b"): 1.5, S("z"): -0.0})
    for pushes in [
            (("load", S("a"), 0), ("load", S("b"), 0), ("primitive", plus, None)),
            (("load", S("b"), 0), ("load", S("a"), 0), ("primitive", times, None)),
            (("load", S("z"), 0), ("load", S("z"), 0), ("primitive", plus, None)),
            (("load", S("z"), 0), ("const", 0, None), ("primitive", times, None)),
            (("load", S("a"), 0), ("load", S("a"), 0), ("primitive", times, None),
             ("load", S("b"), 0), ("primitive", S("-"), None))]:
        assert observed(instantiate(pushes)[0](env, gv, {})) \
            == observed(reference(pushes, env, gv, {})), pushes


def test_a_primitive_bound_to_another_primitive_deopts(rt):
    # the push loop computed whichever primitive the name was bound to;
    # the generated code computes only the one it was made for and
    # leaves any other binding to the call, which computes the same
    plus = S("+")
    pushes = (("const", 5, None), ("const", 3, None),
              ("primitive", plus, None))
    gv = dict(PRIMITIVE_FUNCTIONS)
    gv[plus] = PRIMITIVE_FUNCTIONS[S("-")]
    assert instantiate(pushes)[0](Env(), gv, {}) is None
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
    a = (("load", S("x"), 2), ("const", 1, None), ("primitive", S("+"), None))
    b = (("load", S("y"), 2), ("const", "s", None), ("primitive", S("+"), None))
    assert push_shape(a) == push_shape(b) == (("load", 2), ("const",),
                                              ("primitive", "+"))
    assert template(("call", push_shape(a))) \
        is template(("call", push_shape(b)))
    assert instantiate(a)[0] is not instantiate(b)[0]


# ---------------------------------------------------------------------------
# the depth analysis
# ---------------------------------------------------------------------------

def _load_depth_of(rt, source, name):
    """The depths ``load name`` gets in the code ``source`` compiles to
    (closures included), in pc order."""
    found = []
    for code in nested_code_objects(rt.compile(rt.read(source))):
        depths = load_depths(code.instructions)
        found += [depths[pc] for pc, (op, arg) in enumerate(code.instructions)
                  if op == "load" and arg is S(name)]
    return found


def test_depths_of_nested_scopes(rt):
    source = """(let ((a 1)) (let ((b 2)) (let ((a 3) (c 4))
                  (list (+ a b) (+ c b)))))"""
    assert _load_depth_of(rt, source, "a") == [0]
    assert _load_depth_of(rt, source, "b") == [1, 1]


def test_a_name_bound_later_in_its_scope_starts_there(rt):
    # the bind of b comes after the load in the same let* scope
    code = CodeObject(name="t")
    for op, arg in [("push-scope", None), ("load", S("b")), ("pop", None),
                    ("const", 1), ("bind", S("b")), ("load", S("b")),
                    ("pop-scope", None), ("return", None)]:
        code.emit(op, arg)
    assert load_depths(code.instructions) == {1: 0, 5: 0}


def test_a_name_no_scope_binds_starts_at_the_base(rt):
    assert _load_depth_of(rt, "(let ((a 1)) (let ((b 2)) (+ a b x)))",
                          "x") == []  # compiled as a load-global
    code = rt.compiler.compile_toplevel(
        rt.read("(let ((a 1)) (let ((b 2)) (+ a b x)))"), closed=False)
    depths = load_depths(code.instructions)
    loads = {arg.name: depths[pc] for pc, (op, arg)
             in enumerate(code.instructions) if op == "load"}
    # with an outer scope supplied, + is a lexical load too
    assert loads == {"a": 1, "b": 0, "x": 2, "+": 2}


@pytest.mark.parametrize("instructions", [
    # a jump into another scope
    [("push-scope", None), ("jump", 4), ("pop-scope", None),
     ("push-scope", None), ("load", S("a")), ("pop-scope", None),
     ("return", None)],
    # a block whose exit pc is inside a scope it was not made in
    [("push-block", (None, 3)), ("push-scope", None), ("const", 1),
     ("load", S("a")), ("pop-scope", None), ("return", None)],
    # a pop-scope of the base scope
    [("pop-scope", None), ("push-scope", None), ("load", S("a")),
     ("return", None)],
])
def test_inconsistent_scopes_prove_nothing(instructions):
    assert load_depths(instructions) == {}


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
    depths = set()
    for nested in nested_code_objects(code):
        for op, arg in nested.fused or nested.fuse():
            if op != "call-global" and op != "block":
                continue
            pushes, source = arg[3], arg[-1]
            depths.update(depth for kind, value, depth in pushes
                          if kind == "load" and value is name)
            for kind, value, _depth in pushes:
                if kind == "primitive":
                    continue  # its operator token is the one text allowed
                text = value.name if isinstance(value, Symbol) else value
                if isinstance(text, str):
                    assert text not in source and repr(text) not in source
    assert depths == {0 if shape == "at-0" else 2}


def test_disassemble_fused_shows_depths_and_source(rt):
    code = rt.compile(rt.read(
        "(let ((n 3)) (let ((acc 0)) (dotimes (i 4) (setq acc (+ acc (* n n)))) acc))"))
    listing = code.disassemble_fused()
    assert "block  +" in listing
    assert "load  n  depth 2" in listing and "load  acc  depth 1" in listing
    assert "| def make(" in listing and "store-pop" not in listing.split(
        "block", 1)[0]
    assert len(listing.splitlines()) > len(code.instructions)
    # a setq tail assigns from its proven depth too
    assert "store  acc  depth 1" in listing and "store  i  depth 0" in listing
    # the dotimes is one region at its backward jump: its pc range, each
    # block's instruction count, and the source of its loop
    assert "33  region  11..33  blocks 11 (5), 16 (10), 26 (7), jump (1)" \
        in listing
    region = listing.split("  region  ", 1)[1]
    assert "| def make(at0, " in region and "|         while True:" in region
    assert "|             count += 23" in region


def test_a_redefined_primitive_still_computes_through_the_call(rt):
    assert rt.eval_string("""
        (defun sq (n) (let ((k 1)) (let ((acc 0)) (dotimes (i 2) (setq acc (+ acc (* n n k)))) acc)))
        (list (sq 3) (progn (defun * (&rest xs) (apply #'+ xs)) (sq 3)))""") \
        == [18, 14]
    with pytest.raises(UnhandledConditionError):
        rt.eval_string("(let ((a 1)) (let ((b 2)) (+ a (* b \"s\"))))")
