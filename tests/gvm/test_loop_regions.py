"""A loop of straight-line calls as one generated Python function
(``lang.templates``), and the blocks it is made of.

The fused view replaces the backward ``jump`` of a loop made only of
``block`` entries (calls of primitives and registered host functions
made in place, with their tails) with a ``region`` entry, whose one
generated function runs every iteration.  Here:

* over random loop bodies — nested primitive and host calls, ``pop``
  statements, an ``append!`` accumulator that may be a future or no
  list at all, a host call that raises — the region, the plain fused
  loop (the same view with each region put back to its ``jump``) and
  the traced loop (the unfused instructions) agree on the value, the
  final scopes and dynamic bindings, ``instruction_count`` and any
  condition with the pc and count it was signalled at — before and
  after a primitive or a host function is redefined under a view that
  already exists;
* over random straight-line blocks outside any loop — every tail, the
  ``call`` tail of a call the fast loop makes among them, a
  ``load-global`` of a dynamically bound special — the fused and the
  traced loop agree the same way, as built, with a host function
  rebound and with host calls that raise;
* a host function rebound between two runs of a region, inside one
  call;
* a region's entry part, which resolves each name once a call: a load
  that misses its probed scope, a name unbound or a primitive bound
  dynamically at entry, a value another flow of control assigns
  mid-loop, a ``dotimes`` over specials and a binding made between two
  entries;
* the region's boundaries, one factory per shape, the churn rows' build
  loop as one region, and names and constants the generated source
  must never hold.
"""

import math
import pickle
import random

import pytest

from repro.gvm.conditions import UnhandledConditionError
from repro.gvm.environment import Env
from repro.gvm.frames import vm_function
from repro.gvm.futures import GozerFuture
from repro.gvm.runtime import make_runtime
from repro.lang.bytecode import CodeObject, nested_code_objects
from repro.lang.symbols import Keyword, Symbol
from repro.lang.templates import BINARY_PRIMITIVES, instantiate_blocks

S = Symbol

PRIMITIVES = [S(name) for name in ("+", "-", "*", "<", ">", "=", "<=", ">=")]
ARITHMETIC, COMPARISONS = PRIMITIVES[:3], PRIMITIVES[3:]
VALUES = (0, 1, 2, -3, 7, 0.5, -1.25, 0.0, -0.0, 10 ** 400, -(2 ** 70))
#: what a * multiplies by: the loop's values stay small enough to print
FACTORS = (0, 2, -3, 0.5, -0.0)
#: globals a load-global may read: numbers and, rarely, a bool or a
#: string (the entry deopts and the stdlib function decides)
GLOBAL_VALUES = (3, -2, 1.5, -0.0, 4, 0.25, 9, -7.5, 1, True, "ab")
GLOBALS = [S(f"rg{i}") for i in range(3)]
#: names bound outside the frame, in a scope beyond the one it starts
#: with (a closure's, say): a load or setq of one starts at the frame's
#: base scope and walks on
OUTER = [S("y0"), S("y1")]
SPECIAL = S("*rk*")
#: a global no case defines: a setq of it creates it
FRESH = S("rg-new")
#: the accumulator a loop appends to, and a plist it reads
XS, PLIST = S("xs"), S("pl")
#: an outer name holding a future of a list, which xs may be bound to
FUTURE_XS = S("yf")
#: what the accumulator starts as: mostly a list of numbers; rarely a
#: string (append! raises, length counts its characters) or nil
XS_VALUES = ([1, 2.5, -3], [0], [4, -0.0, 7, 1], "ab", None)
#: host functions a random loop calls, and may have redefined
HOSTS = [S(name) for name in ("length", "nth", "car", "second", "list",
                              "getf", "append!")]
#: the three modes a case runs in
MODES = ("region", "fused", "traced")
#: a Gozer function a straight-line block calls: the fast loop makes
#: the call
GOZER_CALLEE = S("rg-swap")


@vm_function
def snapshot(vm):
    """The running frame's scopes, innermost first, the dynamic bindings
    and the globals a case may assign: what its loop leaves behind."""
    scopes = [dict(env.bindings) for env in vm.frames[-1].env.chain()]
    return (scopes, {name: list(stack)
                     for name, stack in vm.dynamics.stacks.items()},
            {name: vm.global_env.variables.get(name)
             for name in (*GLOBALS, SPECIAL, FRESH)})


def observed(value):
    """A value down to the type and the sign of a zero; a future as
    what it holds."""
    if type(value) is GozerFuture:
        return ("future", observed(value.touch()))
    if isinstance(value, dict):
        return {key.name: observed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [observed(item) for item in value]
    return (type(value).__name__, repr(value))


class Loop:
    """One random loop of straight-line calls: three scopes of variables
    (a name may be bound in more than one) inside a frame started on a
    scope whose parent binds more, a counter that is lexical or a
    special bound dynamically around the loop over a global of that
    name, a head test that leaves after at most eight iterations, and
    random blocks —
    ``setq`` of a nested primitive or host expression into a variable
    of any scope (rarely into a global), another ``jump-if-false`` exit
    (some testing a host call's value), or a host call in statement
    position, its value popped: ``(append! xs ...)`` onto the
    accumulator or a pure call.  Sometimes a primitive is bound
    dynamically, around the loop, to another primitive's function.
    The accumulator ``xs`` and the plist ``pl`` are bound in one of
    the scopes; ``xs`` is sometimes a future of its list, and ``y1``
    one of a number, so a host call deopts to the VM, which forces
    them."""

    def __init__(self, seed):
        rng = self.rng = random.Random(seed)
        self.seed = seed
        self.scopes = [[S(f"x{j}") for j in range(4) if rng.random() < 0.6]
                       or [S("x0")] for _ in range(3)]
        self.names = sorted({name for scope in self.scopes for name in scope},
                            key=lambda name: name.name) + OUTER
        self.lists_at = rng.randrange(3)
        self.special = rng.random() < 0.15
        self.counter = SPECIAL if self.special else S("ri")
        self.code = self._assemble()

    def _value(self):
        return self.rng.choice(VALUES)

    def _expression(self, level=0):
        """Postfix instructions of an expression."""
        rng = self.rng
        if level < 2 and rng.random() < 0.45:
            return self._call(self._primitive(), level + 1)
        roll = rng.random()
        if roll < 0.5:
            return [("load", rng.choice(self.names))]
        if roll < 0.6:
            return [self._load_counter()]
        if roll < 0.7:
            return [("load-global", rng.choice(GLOBALS))]
        if roll < 0.8:
            return self._host(level)
        return [("const", self._value())]

    def _host(self, level):
        """A host call whose value is mostly a number: the accumulator's
        length, an element of it, a plist value, the second of a nested
        ``list``; nil for an element or a key that is not there;
        sometimes ``(nth "x" xs)``, which raises."""
        rng = self.rng
        roll = rng.random()
        xs = ("load", XS)
        if roll < 0.25:
            return [("load-global", S("length")), xs, ("call", 1)]
        if roll < 0.45:
            # an element, nil past the end: by the counter, the loop
            # runs to the end of a short list and leaves there
            index = ("const", rng.choice((0, 1, 2, 4)))
            roll = rng.random()
            if roll < 0.4:
                index = self._load_counter()
            elif roll < 0.55:
                index = ("const", "x")
            return [("load-global", S("nth")), index, xs, ("call", 2)]
        if roll < 0.6:
            return [("load-global", S("car")), xs, ("call", 1)]
        if roll < 0.8:
            return [("load-global", S("getf")), ("load", PLIST),
                    ("const", rng.choice((Keyword("a"), Keyword("b"),
                                          Keyword("c")))),
                    ("call", 2)]
        return [("load-global", S("second")), ("load-global", S("list")),
                *self._expression(level + 1), *self._expression(level + 1),
                ("call", 2), ("call", 1)]

    def _primitive(self):
        """Mostly arithmetic: a comparison's bool, stored or added, sends
        the entries that read it to the stdlib function."""
        rng = self.rng
        return rng.choice(ARITHMETIC if rng.random() < 0.85 else PRIMITIVES)

    def _load_counter(self):
        return ("load-global" if self.special else "load", self.counter)

    def _call(self, primitive, level):
        """``(primitive a b)``; a ``*`` multiplies by a small constant,
        so no value outgrows what a test can print."""
        second = [("const", self.rng.choice(FACTORS))] \
            if primitive is S("*") else self._expression(level)
        return [("load-global", primitive), *self._expression(level),
                *second, ("call", 2)]

    def _block(self, primitive, exit_label, target=None):
        """A branch, or a setq of ``target``, on the value of a call of
        ``primitive``, or of a host call when that is None."""
        body = self._call(primitive, 1) if primitive else self._host(1)
        if target is None:
            return body + [("jump-if-false", exit_label)]
        return body + [("dup", None), ("store", target), ("pop", None)]

    def _statement(self):
        """A host call whose value is popped: mostly an append! of a
        number or a two-element list to the accumulator."""
        rng = self.rng
        if rng.random() < 0.25:
            call = self._host(1)
        elif rng.random() < 0.5:
            call = [("load-global", S("append!")), ("load", XS),
                    *self._expression(1), ("call", 2)]
        else:
            call = [("load-global", S("append!")), ("load", XS),
                    ("load-global", S("list")), *self._expression(1),
                    *self._expression(1), ("call", 2), ("call", 2)]
        return call + [("pop", None)]

    def _assemble(self):
        rng = self.rng
        instructions = []
        for depth, scope in enumerate(self.scopes):
            instructions.append(("push-scope", None))
            for name in scope:
                instructions += [("const", self._value()), ("bind", name)]
            if depth == self.lists_at:
                # list constants are copied at each push: never shared
                roll = rng.random()
                if roll < 0.8:
                    xs = ("const", XS_VALUES[0 if roll < 0.5 else 1
                                             if roll < 0.65 else 2])
                elif roll < 0.95:
                    xs = ("load", FUTURE_XS)
                else:
                    xs = ("const", XS_VALUES[rng.randrange(3, 5)])
                instructions += [xs, ("bind", XS),
                                 ("const", [Keyword("a"), 3,
                                            Keyword("b"), 0.5]),
                                 ("bind", PLIST)]
        if self.special:
            instructions += [("const", 0), ("dyn-bind", SPECIAL)]
        else:
            instructions += [("const", 0), ("bind", self.counter)]
        if rng.random() < 0.15:
            # never the counter's < or +: the loop still ends
            kind = rng.choice((ARITHMETIC[1:], COMPARISONS[1:]))
            name, other = rng.sample(kind, 2)
            instructions += [("load-global", other), ("dyn-bind", name)]
        limit = rng.randint(1, 8)
        exit_label = object()
        head = [("load-global", S("<")), self._load_counter(),
                ("const", limit), ("call", 2), ("jump-if-false", exit_label)]
        step = [("load-global", S("+")), self._load_counter(), ("const", 1),
                ("call", 2), ("dup", None), ("store", self.counter),
                ("pop", None)]
        body = [step]
        for _ in range(rng.randint(0, 4)):
            roll = rng.random()
            if roll < 0.2:
                # a number, 0 too, is true: only a comparison, or a
                # host call's nil, can leave
                test = rng.choice(COMPARISONS if rng.random() < 0.5
                                  else ARITHMETIC + [None] * 3)
                body.append(self._block(test, exit_label))
            elif roll < 0.4:
                body.append(self._statement())
            else:
                target = rng.choice(self.names) if rng.random() < 0.95 \
                    else rng.choice(GLOBALS)
                outer = self._primitive() if rng.random() < 0.85 else None
                body.append(self._block(outer, exit_label, target))
        rng.shuffle(body)
        top = len(instructions)
        for block in [head, *body]:
            instructions += block
        instructions.append(("jump", top))
        end = len(instructions)
        instructions += [("load-global", S("snapshot")), ("call", 0),
                         ("return", None)]
        code = CodeObject(name=f"loop{self.seed}")
        for op, arg in instructions:
            code.emit(op, end if arg is exit_label else arg)
        return code

    def runtime(self):
        rt = make_runtime(deterministic=True)
        rt.global_env.define(S("snapshot"), snapshot)
        rt.eval_string(f"(defun {GOZER_CALLEE.name} (a b) (list b a))")
        rt.global_env.define(SPECIAL, 5)
        rng = random.Random(self.seed)
        for name in GLOBALS:
            if rng.random() < 0.95:
                rt.global_env.define(name, rng.choice(GLOBAL_VALUES))
        return rt

    def env(self):
        """A fresh scope to start the frame on, its parent binding the
        outer names; sometimes y1 holds a future of its number."""
        rng = random.Random(self.seed)
        outer = {name: rng.choice(VALUES) for name in OUTER}
        if rng.random() < 0.3:
            outer[OUTER[1]] = _future(rng.choice(VALUES))
        outer[FUTURE_XS] = _future([5, -1])
        return Env(Env(None, outer))


def _future(value):
    """A future already determined to ``value``."""
    future = GozerFuture()
    future._determine(value)
    return future


def run(rt, code, mode, regions_seen, env=None):
    """One run of ``code`` in ``mode``: what it returned or signalled,
    with the pc and count it signalled at, and the count it ended on."""
    vm = rt.new_vm()
    if mode == "traced":
        vm.instruction_hook = lambda frame, op, arg: None
    signalled = []
    plain_signal = vm.signal

    def signal(condition, error_p=False):
        frame = vm.frames[-1]
        signalled.append((type(condition).__name__, str(condition), frame.pc,
                          vm.instruction_count, observed(snapshot(vm))))
        return plain_signal(condition, error_p)

    vm.signal = signal
    view = code.fused or code.fuse()
    for pc, (op, arg) in enumerate(view):
        if op != "region":
            continue
        if mode == "fused":
            view[pc] = code.instructions[pc]
        elif mode == "region" and not hasattr(arg[0], "counted"):
            view[pc] = ("region", (_counted(arg[0], arg[2], regions_seen),
                                   *arg[1:]))
    try:
        outcome = ("value", observed(vm.run_code(code, env).value))
    except UnhandledConditionError:
        outcome = ("error",)
    return outcome, signalled, vm.instruction_count


def _counted(region_run, blocks, seen):
    """``region_run``, counting the iterations it completes and whether
    it returned at an exit or at a block whose guard failed (or at an
    unbound setq's store-pop)."""
    per_iteration = sum(block[5] for _, block in blocks) + 1
    exits = {block[4][1] for _, block in blocks
             if block[4][0] == "jump-if-false"}

    def counted(e0, gv, dyn, stack, count):
        pc, after = region_run(e0, gv, dyn, stack, count)
        seen["iterations"] += (after - count) // per_iteration
        seen["exit" if pc in exits else "deopt"] += 1
        return pc, after

    counted.counted = True
    return counted


def redefine(rt, victim, rng):
    """Rebind the primitive or host function ``victim`` under views that
    exist: to a Gozer function that calls the stdlib one, or to another
    primitive's function of its kind.  The counter's < and + keep what
    they compute, so the loop still ends."""
    original = rt.global_env.variables[victim]
    if victim in HOSTS:
        rt.global_env.define(S("original"), original)
        rt.eval_string(f"(defun {victim.name} (&rest xs) "
                       f"(apply original xs))")
    elif victim in (S("<"), S("+")) or rng.random() < 0.5:
        rt.global_env.define(S("original"), original)
        rt.eval_string(f"(defun {victim.name} (a b) (funcall original a b))")
    else:
        kind = ARITHMETIC if victim in ARITHMETIC else COMPARISONS
        other = rng.choice([p for p in kind if p is not victim])
        rt.global_env.define(victim, rt.global_env.variables[other])


def test_regions_match_the_fused_and_traced_loops():
    seen = {"iterations": 0, "deopt": 0, "exit": 0, "conditions": 0,
            "redefined": 0, "special": 0, "host": 0, "nested": 0, "pop": 0,
            "append!": 0, "future": 0, "raises": 0, "host redefined": 0}
    for seed in range(400):
        loop = Loop(seed)
        rng = random.Random(seed * 7 + 1)
        redefined = rng.random() < 0.3
        victim = rng.choice(PRIMITIVES + HOSTS)
        results = {}
        for mode in MODES:
            rt = loop.runtime()
            code = pickle.loads(pickle.dumps(loop.code))
            first = run(rt, code, mode, seen, loop.env())
            if redefined:
                redefine(rt, victim, random.Random(seed))
            second = run(rt, code, mode, seen, loop.env())
            results[mode] = (first, second)
            rt.shutdown()
        assert results["region"] == results["fused"] == results["traced"], \
            (seed, loop.code.disassemble())
        seen["conditions"] += any(signalled for (_, signalled, _)
                                  in results["region"])
        seen["redefined"] += redefined
        seen["special"] += loop.special
        kinds = _region_kinds(loop.code)
        for kind in ("host", "nested", "pop", "append!"):
            seen[kind] += kind in kinds
        if "host" in kinds:
            instructions = loop.code.instructions
            seen["future"] += ("load", FUTURE_XS) in instructions
            seen["raises"] += ("const", "x") in instructions
            seen["host redefined"] += redefined and victim in HOSTS
    assert seen["iterations"] > 500
    assert seen["exit"] > 100 and seen["deopt"] > 50
    assert seen["conditions"] > 20 and seen["redefined"] > 50
    assert seen["special"] > 30
    assert seen["host"] > 150 and seen["nested"] > 50
    assert seen["pop"] > 80 and seen["append!"] > 60
    assert seen["future"] > 15 and seen["raises"] > 3
    assert seen["host redefined"] > 10, seen


def _region_kinds(code):
    """What the regions of ``code``'s fused view call: ``host`` when a
    block calls a host function, ``nested`` when a push does, ``pop``
    for a pop tail, ``append!`` for an append!."""
    kinds = set()
    for op, arg in code.fused or code.fuse():
        if op != "region":
            continue
        for _pc, (_run, name, _tail, pushes, then, _w, _s) in arg[2]:
            hosts = [value for kind, value, _ in pushes if kind == "host"]
            if hosts:
                kinds.add("host")
            if len(hosts) > (name in HOSTS):
                kinds.add("nested")
            if then[0] == "pop":
                kinds.add("pop")
            if S("append!") in hosts:
                kinds.add("append!")
    return kinds


# ---------------------------------------------------------------------------
# straight-line blocks, outside any loop
# ---------------------------------------------------------------------------

#: an outer name the straight-line accumulator is bound to: a list, or,
#: in the run where host calls raise, a number
OUTER_XS = S("yx")


class Straight(Loop):
    """Random straight-line blocks outside any loop, in the scopes and
    with the expressions of :class:`Loop`: a block whose value is pushed
    into a consumer that is not fused (a ``bind`` or a
    ``store-global``), a forward ``jump-if-false`` over some of the
    blocks after it, a ``setq`` of a lexical name, of a global nothing
    binds, or of the special bound dynamically (twice) around the
    blocks, a popped ``append!``, and a call the fast loop makes (of
    ``max`` or of a Gozer function) whose value is bound.  The counter is that special when it is bound,
    so its loads are ``load-global`` pushes of a dynamic binding."""

    #: the tails a block may carry, with the names that tell them apart
    TAILS = ("push", "jump-if-false", "lexical", "global", "special",
             "append!", "call")

    def _assemble(self):
        rng = self.rng
        self.special = rng.random() < 0.5
        self.counter = SPECIAL if self.special else S("ri")
        instructions = []
        for depth, scope in enumerate(self.scopes):
            instructions.append(("push-scope", None))
            for name in scope:
                instructions += [("const", self._value()), ("bind", name)]
            if depth == self.lists_at:
                instructions += [("load", OUTER_XS), ("bind", XS),
                                 ("const", [Keyword("a"), 3,
                                            Keyword("b"), 0.5]),
                                 ("bind", PLIST)]
        if self.special:
            # bound twice: the blocks read and assign the inner binding
            instructions += [("const", 7), ("dyn-bind", SPECIAL),
                             ("const", rng.choice((0, 2))),
                             ("dyn-bind", SPECIAL)]
        else:
            instructions += [("const", 1), ("bind", self.counter)]
        statements = [self._straight(rng.choice(self.TAILS))
                      for _ in range(rng.randint(2, 7))]
        starts = []
        for statement in statements:
            starts.append(len(instructions))
            instructions += statement
        end = len(instructions)
        starts.append(end)
        instructions += [("load-global", S("snapshot")), ("call", 0),
                         ("return", None)]
        code = CodeObject(name=f"straight{self.seed}")
        for pc, (op, arg) in enumerate(instructions):
            if op == "jump-if-false":
                # forward, to the start of a later statement or the end
                later = [at for at in starts if at > pc]
                arg = later[min(len(later) - 1, arg)]
            code.emit(op, arg)
        return code

    def _straight(self, tail):
        """One statement: a block with ``tail``, its jump's argument the
        number of statements it skips."""
        rng = self.rng
        outer = self._primitive() if rng.random() < 0.7 else None
        if tail == "push":
            call = self._call(outer, 1) if outer else self._host(1)
            return call + [rng.choice((("bind", rng.choice(self.names[:-2])),
                                       ("store-global", GLOBALS[0])))]
        if tail == "jump-if-false":
            test = rng.choice(COMPARISONS + [None])
            body = self._call(test, 1) if test else self._host(1)
            return body + [("jump-if-false", rng.randrange(3))]
        if tail == "append!":
            return self._statement()
        if tail == "call":
            # max raises on a bool or a string; the Gozer function never
            callee = rng.choice((S("max"), GOZER_CALLEE))
            return [("load-global", callee), *self._expression(1),
                    *self._expression(1), ("call", 2),
                    ("bind", rng.choice(self.names[:-2]))]
        target = {"lexical": rng.choice(self.names), "global": FRESH,
                  "special": SPECIAL if self.special else FRESH}[tail]
        return self._block(outer, None, target)

    def env(self, raises=False):
        env = super().env()
        env.parent.bindings[OUTER_XS] = 5 if raises else [1, 2.5, -3]
        return env


def _block_tails(code):
    """The tails of ``code``'s blocks, by the names of
    :attr:`Straight.TAILS`."""
    tails = set()
    for op, arg in code.fused or code.fuse():
        if op != "block":
            continue
        then = arg[4]
        if then[0] == "store":
            tails.add("global" if then[1] is FRESH else "special"
                      if then[1] is SPECIAL else "lexical")
        elif then[0] == "pop":
            tails.add("append!" if arg[1] is S("append!") else "pop")
        else:
            tails.add(then[0])
        if any(kind == "load-global" and value is SPECIAL
               for kind, value, _ in arg[3]):
            tails.add("dynamic load")
    return tails


def test_straight_line_blocks_match_the_traced_loop():
    # each case three times: as built, after a host function is rebound
    # to a Gozer function, and with the accumulator a number, so that
    # the host calls that read it raise
    seen = {name: 0 for name in (*Straight.TAILS, "dynamic load",
                                 "conditions", "raised")}
    for seed in range(300):
        case = Straight(seed)
        results = {}
        for mode in ("fused", "traced"):
            rt = case.runtime()
            code = pickle.loads(pickle.dumps(case.code))
            first = run(rt, code, mode, {}, case.env())
            redefine(rt, random.Random(seed).choice(HOSTS), random.Random(seed))
            second = run(rt, code, mode, {}, case.env())
            third = run(rt, code, mode, {}, case.env(raises=True))
            results[mode] = (first, second, third)
            rt.shutdown()
        assert results["fused"] == results["traced"], \
            (seed, case.code.disassemble())
        first, _second, third = results["fused"]
        seen["conditions"] += bool(first[1])
        seen["raised"] += bool(third[1]) and not first[1]
        for tail in _block_tails(case.code):
            if tail in seen:
                seen[tail] += 1
    assert all(count > 40 for count in seen.values()), seen


@pytest.mark.parametrize("source, iterations", [
    # b holds a bool from the first iteration on: each region call
    # deopts at (* b 2), where the stdlib * multiplies the bool
    ("""(let ((b 0) (n 0))
          (dotimes (i 5) (setq n (+ n (* b 2))) (setq b (> i 1)))
          (list n b))""", False),
    # big passes the float range in the fifth iteration: the region has
    # run the three before it, then (+ big 0.5) deopts and the stdlib +
    # raises at the call's own pc
    ("""(let ((big (* 1000000 1000000)) (f 0))
          (dotimes (i 60) (setq big (* big big)) (setq f (+ big 0.5)))
          f)""", True),
])
def test_a_non_number_mid_loop(source, iterations):
    rt = make_runtime(deterministic=True)
    compiled = pickle.dumps(rt.compile(rt.read(source)))  # one dotimes gensym
    rt.shutdown()
    results = []
    for mode in MODES:
        rt = make_runtime(deterministic=True)
        code = pickle.loads(compiled)
        assert any(op == "region" for op, _ in code.fuse())
        seen = {"iterations": 0, "deopt": 0, "exit": 0}
        results.append(run(rt, code, mode, seen))
        if mode == "region":
            assert seen["deopt"] and bool(seen["iterations"]) == iterations
        rt.shutdown()
    assert results[0] == results[1] == results[2]


def _in_three_modes(source, prelude="", regions_at_top=True):
    """``source`` run in each mode on a fresh runtime that has evaluated
    ``prelude``: the results, and what the regions of the region mode
    did (at the top level, where they are counted)."""
    rt = make_runtime(deterministic=True)
    rt.eval_string(prelude)
    compiled = pickle.dumps(rt.compile(rt.read(source)))
    rt.shutdown()
    results, seen = [], {"iterations": 0, "deopt": 0, "exit": 0}
    for mode in MODES:
        rt = make_runtime(deterministic=True)
        rt.eval_string(prelude)
        code = pickle.loads(compiled)
        assert any(op == "region" for nested in nested_code_objects(code)
                   for op, _ in nested.fuse())
        assert regions_at_top == any(op == "region"
                                     for op, _ in code.fuse())
        results.append(run(rt, code, mode, seen if mode == "region"
                           else dict(seen)))
        rt.shutdown()
    assert results[0] == results[1] == results[2]
    return results[0], seen


@pytest.mark.parametrize("source, iterations", [
    # (length 5) raises in the third iteration: the region has run the
    # second, then its block deopts and the stdlib length raises at the
    # call's own pc and count
    ("""(let ((items (list "ab" (list 1 2 3) 5)) (n 0))
          (dotimes (i 3) (setq n (+ n (length (nth i items)))))
          n)""", True),
    # (nth "x" xs) raises in the third iteration, a nested host call
    # inside another
    ("""(let ((xs (list 1 2)) (ks (list 0 1 "x")) (n 0))
          (dotimes (i 3) (setq n (+ n (nth (nth i ks) xs))))
          n)""", True),
    # append! onto a string raises before it appends: the lists before
    # it keep their one element each
    ("""(let ((accs (list (list) (list) "ab" (list))))
          (dotimes (i 4) (append! (nth i accs) i))
          accs)""", True),
    # xs is a future: each region call deopts at (nth i xs), and the VM
    # forces it for the stdlib nth
    ("""(let ((xs (future (list 1 2 3))) (n 0))
          (dotimes (i 3) (setq n (+ n (nth i xs))))
          n)""", False),
])
def test_a_host_call_that_fails_mid_loop(source, iterations):
    (outcome, signalled, _count), seen = _in_three_modes(source)
    assert seen["deopt"] and bool(seen["iterations"]) == iterations
    if "future" not in source:
        assert outcome == ("error",) and signalled


def test_a_host_function_rebound_between_two_runs_of_a_region():
    # the inner dotimes is a region calling getf; after its first run,
    # the outer loop rebinds getf to a Gozer function, whose result the
    # region's next runs must see: their getf block fails its guard
    # each iteration and deopts, and the new getf is called at its own
    # call instruction
    (outcome, _signalled, _count), seen = _in_three_modes("""
        (let ((total 0) (p (list :k 2)))
          (dotimes (j 3)
            (let ((n 0))
              (dotimes (i 4) (setq n (+ n (getf p :k))))
              (setq total (+ (* total 100) n)))
            (setq getf (lambda (plist key) (+ j 10))))
          total)""")
    assert outcome == ("value", ("int", repr(8 * 10 ** 4 + 44 * 100 + 48)))
    assert seen["iterations"] and seen["deopt"] >= 2


# ---------------------------------------------------------------------------
# a block's setq tail, alone and in a region
# ---------------------------------------------------------------------------

def test_a_setq_tail_assigns_the_nearest_binding():
    x, plus = S("x"), S("+")
    gv = {name: fn for name, (fn, _) in BINARY_PRIMITIVES.items()}
    # the block at pc 10: load-global +; load x; const 1; call 2; dup;
    # store x; pop
    pushes = (("load", x, None), ("const", 1, None), ("primitive", plus, 2))
    run, _source = instantiate_blocks([(10, pushes, ("store", x), 7)])
    # in the innermost scope: assigned there, and on past the block
    # (the count the fast loop gives it is past its first instruction)
    outer, inner, stack = {x: 4}, {x: 0.5}, []
    assert run(Env(Env(None, outer), inner), gv, {}, stack, 1) == (17, 7)
    assert outer == {x: 4} and inner == {x: 1.5} and stack == []
    # one scope up, and beyond: the assignment walks on, as a store does
    inner = {}
    assert run(Env(Env(None, outer), inner), gv, {}, stack, 1) == (17, 7)
    assert outer == {x: 5} and inner == {} and stack == []
    beyond = {x: 1.5}
    assert run(Env(Env(Env(None, beyond), {}), {}), gv, {}, stack, 1) \
        == (17, 7)
    assert beyond == {x: 2.5}
    # bound dynamically: the innermost binding
    consts = pushes[1:2] * 2 + pushes[2:]
    run, _source = instantiate_blocks([(10, consts, ("store", x), 7)])
    dyn = {x: [0, 0]}
    assert run(Env(Env(None, {}), {}), gv, dyn, stack, 1) == (17, 7)
    assert dyn == {x: [0, 2]} and stack == []
    # bound by nothing: the value is pushed for the store-pop entry at
    # pc 14, which creates the global
    assert run(Env(Env(None, {}), {}), gv, {}, stack, 1) == (14, 4)
    assert stack == [2]
    # the same block as a region's only one: the count it is given
    # includes the region's backward jump
    run, _source = instantiate_blocks([(10, consts, ("store", x), 7)],
                                      loop=True)
    assert run(Env(Env(None, {}), {}), gv, {}, stack, 1) == (14, 5)
    assert stack == [2, 2]


# ---------------------------------------------------------------------------
# a region's entry part: names resolved once a call, values read each
# iteration
# ---------------------------------------------------------------------------

X, Y, ACC = S("x"), S("y"), S("acc")


def _counting_region():
    """The region of ``(< x 4)`` leaving for pc 99, ``(setq acc (+ acc
    y))`` and ``(setq x (+ x 1))``, from pc 0: 20 instructions an
    iteration, its jump at pc 19."""
    blocks = [(0, (("load", X, None), ("const", 4, None),
                   ("primitive", S("<"), 2)), ("jump-if-false", 99), 5),
              (5, (("load", ACC, None), ("load", Y, None),
                   ("primitive", S("+"), 2)), ("store", ACC), 7),
              (12, (("load", X, None), ("const", 1, None),
                    ("primitive", S("+"), 2)), ("store", X), 7)]
    run, _source = instantiate_blocks(blocks, loop=True)
    return run


def _primitives():
    return {name: fn for name, (fn, _) in BINARY_PRIMITIVES.items()}


def test_a_load_that_misses_its_probed_scope_reads_the_nearest_binding():
    # a closure's captured names: the probed scope (the frame's
    # innermost) binds none of them, its parent binds them all and
    # the scope above that binds them again; the region resolves each
    # to the parent's dict at entry, and reads and assigns it
    captured, shadowed = {X: 0, ACC: 0.5, Y: 3}, {X: 9, ACC: 0, Y: 100}
    base = Env(Env(Env(None, shadowed), captured), {})
    stack = []
    # four iterations, then the head's exit: 1 + 4 * 20 + 5
    assert _counting_region()(base, _primitives(), {}, stack, 1) == (99, 86)
    assert captured == {X: 4, ACC: 12.5, Y: 3}
    assert shadowed == {X: 9, ACC: 0, Y: 100}
    assert base.bindings == {} and stack == []
    # the same loop as Gozer code: a closure's region over a captured
    # name, in the three modes
    (outcome, _signalled, _count), _seen = _in_three_modes("""
        (let ((k 100))
          (let ((f (let ((k 3))
                     (lambda (n)
                       (let ((acc 0.5))
                         (dotimes (i n) (setq acc (+ acc k)))
                         acc)))))
            (funcall f 4)))""", regions_at_top=False)
    assert outcome == ("value", ("float", "12.5"))


def test_an_unbound_name_or_a_dynamic_primitive_returns_the_head():
    # nothing runs: the region returns its head's pc and the count it
    # was given, which is what its jump does, and the head's own entry
    # then deopts where its guard fails
    region = _counting_region()
    bindings = {X: 0, ACC: 0}  # y is bound nowhere
    stack = []
    assert region(Env(None, bindings), _primitives(), {}, stack, 1) == (0, 1)
    assert bindings == {X: 0, ACC: 0} and stack == []
    bindings[Y] = 2
    minus = BINARY_PRIMITIVES[S("-")][0]
    for name in (S("<"), S("+")):
        dyn = {name: [minus]}
        assert region(Env(None, bindings), _primitives(), dyn, stack, 7) \
            == (0, 7)
        assert bindings == {X: 0, ACC: 0, Y: 2} and stack == []
    # a special bound dynamically that the loop does not call is no
    # reason to leave
    assert region(Env(None, bindings), _primitives(), {S("*rk*"): [1]},
                  stack, 1) == (99, 86)
    assert bindings == {X: 4, ACC: 8, Y: 2}


class _Bumping(dict):
    """Bindings whose every read of ``x`` adds 1 to ``y``: another flow
    of control assigning ``y`` while the loop runs, as a future's thread
    may ``setq`` a name of a scope it shares with the loop."""

    def __getitem__(self, key):
        if key is X:
            dict.__setitem__(self, Y, dict.__getitem__(self, Y) + 1)
        return dict.__getitem__(self, key)


def test_values_are_read_again_on_every_iteration():
    # x is read twice an iteration, so acc adds y = 1, 3, 5, 7: a y
    # read once at entry would add 0 each time
    bindings = _Bumping({X: 0, ACC: 0, Y: 0})
    assert _counting_region()(Env(None, bindings), _primitives(), {}, [],
                              1) == (99, 86)
    assert dict(bindings) == {X: 4, ACC: 16, Y: 9}


def test_a_dotimes_over_a_special_is_one_region():
    # the counter and the accumulator are specials: each load-global and
    # setq reads or assigns the innermost dynamic binding, the outer
    # binding and the global keep their values
    (outcome, _signalled, _count), seen = _in_three_modes("""
        (let ((*acc* 5))
          (list (let ((*acc* 7))
                  (dotimes (*i* 4) (setq *acc* (+ *acc* *i*)))
                  *acc*)
                *acc* *i*))""", "(defvar *i* 0) (defvar *acc* 0)")
    assert outcome == ("value", [("int", "13"), ("int", "5"), ("int", "0")])
    assert seen["iterations"] == 3 and seen["exit"] == 1 \
        and seen["deopt"] == 0


def test_a_region_sees_a_binding_made_between_its_entries():
    # step's region reads *step*: the global on its first and last
    # entries, a let's dynamic binding on the second
    rt = make_runtime(deterministic=True)
    rt.eval_string("(defvar *step* 1)")
    rt.eval_string("(defun step (n) (let ((acc 0)) "
                   "(dotimes (i n) (setq acc (+ acc *step*))) acc))")
    step = rt.global_env.variables[S("step")]
    assert any(op == "region" for op, _ in step.code.fuse())
    results = []
    for traced in (False, True):
        vm = rt.new_vm()
        if traced:
            vm.instruction_hook = lambda frame, op, arg: None
        code = rt.compile(rt.read(
            "(list (step 5) (let ((*step* 10)) (step 5)) (step 5))"))
        results.append((vm.run_code(code).value, vm.instruction_count))
    rt.shutdown()
    assert results[0] == results[1]
    assert results[0][0] == [5, 50, 5]


# ---------------------------------------------------------------------------
# where regions are and are not
# ---------------------------------------------------------------------------

def _regions(rt, source):
    found = []
    for code in nested_code_objects(rt.compile(rt.read(source))):
        found += [(pc, arg) for pc, (op, arg) in enumerate(code.fuse())
                  if op == "region"]
    return found


def test_listing_one_loop_is_one_region(rt):
    ((pc, (_run, head, blocks, _source)),) = _regions(
        rt, "(defun sq (n) (let ((acc 0)) "
            "(dotimes (i 2000) (setq acc (+ acc (* n n)))) acc))")
    assert [block[5] for _, block in blocks] == [5, 10, 7]
    assert pc == head + 22
    # the head leaves the loop; the body's setq and the step's
    assert [block[4][0] for _, block in blocks] \
        == ["jump-if-false", "store", "store"]
    assert [block[4][1].name for _, block in blocks[1:]] == ["acc", "i"]


#: the churn rows' ``main`` (``perf/workloads.py``'s
#: ``SUSPEND_CHURN_SOURCE``) without its service call
CHURN_MAIN = """
(defun main (params)
  (let ((rows (loop for i from 0 below (getf params :width) collect
                    (list i (* i i) "row-payload")))
        (acc 0))
    (dolist (k (getf params :touch))
      (setq acc (+ acc (second (nth k rows))))
      (setf (nth k rows) (list k acc "row-payload")))
    (list acc (length rows) (apply #'+ (mapcar #'second rows)))))
"""


def test_the_churn_build_loop_is_one_region(rt):
    ((pc, (_run, head, blocks, _source)),) = _regions(rt, CHURN_MAIN)
    # the head (< i (getf params :width)), the statement (append! acc
    # (list i (* i i) "row-payload")) and the step (setq i (+ i 1))
    names = [block[1].name for _, block in blocks]
    assert names == ["<", "append!", "+"]
    assert [block[4][0] for _, block in blocks] \
        == ["jump-if-false", "pop", "store"]
    assert pc == head + sum(block[5] for _, block in blocks)
    rt.eval_string(CHURN_MAIN)
    main = rt.global_env.variables[S("main")]
    listing = main.code.disassemble_fused()
    assert listing.count("  region  ") == 1
    assert f"{pc:4d}  region  {head}..{pc}" in listing
    # the value, built in the region, as the traced loop builds it
    params = [Keyword("width"), 40, Keyword("touch"), [3, 7]]
    values = []
    for traced in (False, True):
        vm = rt.new_vm()
        if traced:
            vm.instruction_hook = lambda frame, op, arg: None
        values.append((vm.call(main, [params]), vm.instruction_count))
    assert values[0] == values[1]
    assert values[0][0][1] == 40


@pytest.mark.parametrize("source", [
    # a call of a host function that is not registered
    "(let ((a 0)) (dotimes (i 3) (setq a (max a i))) a)",
    # a branch that stays in the loop
    "(let ((a 0)) (dotimes (i 3) (when (> i 1) (setq a i))) a)",
    # a value pushed and popped: not a setq
    "(let ((a 0)) (dotimes (i 3) (+ a i)) a)",
    # an inner loop: the outer one is not call-free
    "(let ((a 0)) (dotimes (i 3) (dotimes (j 2) (setq a (+ a j)))) a)",
])
def test_what_is_not_a_region(rt, source):
    regions = _regions(rt, source)
    inner = "dotimes (j" in source
    assert len(regions) == (1 if inner else 0)


def test_one_factory_per_region_shape(rt):
    a = _regions(rt, "(let ((p 0)) (dotimes (i 7) (setq p (+ p 2))) p)")
    b = _regions(rt, "(let ((q 1)) (let ((r 5)) (dotimes (k 9) "
                     "(setq q (+ q 3.5)))) q)")
    ((_, (run_a, _, _, source_a)),) = a
    ((_, (run_b, _, _, source_b)),) = b
    # q is one scope further up than p is, and a load is resolved from
    # the innermost scope wherever its name is: one shape
    assert source_a is source_b
    c = _regions(rt, "(let ((z 1.5)) (dotimes (m 4) (setq z (+ z 11))) z)")
    ((_, (run_c, _, _, source_c)),) = c
    # one factory, whose source every entry carries
    assert source_a is source_c
    assert len({run_a, run_b, run_c}) == 3


HOSTILE = ['x"y', "x'y", 'x\ny', "import os", '"""; import os #',
           "os.system('true')"]


@pytest.mark.parametrize("hostile", HOSTILE)
def test_hostile_names_and_constants(rt, hostile):
    name, limit = S(hostile), S(hostile + "-limit")
    counter = S(hostile + "-i")
    constants = (918273645, 0.123456789)
    form = [S("let"), [[name, 1], [limit, 4]],
            [S("dotimes"), [counter, limit],
             [S("setq"), name, [S("+"), [S("*"), name, constants[0]],
                                constants[1]]]],
            name]
    code = rt.compile(form)
    results = []
    for traced in (False, True):
        vm = rt.new_vm()
        if traced:
            vm.instruction_hook = lambda frame, op, arg: None
        results.append((vm.run_code(code).value, vm.instruction_count))
    assert results[0] == results[1]
    ((_, (_run, _, _, source)),) = [
        (pc, arg) for pc, (op, arg) in enumerate(code.fused) if op == "region"]
    for text in (hostile, hostile + "-limit", hostile + "-i", "dotimes"):
        assert text not in source and repr(text) not in source
    for constant in constants:
        assert repr(constant) not in source and str(constant) not in source


def test_a_huge_loop_keeps_exact_counts(rt):
    rt.eval_string("(defun sq (n) (let ((acc 0)) "
                   "(dotimes (i 2000) (setq acc (+ acc (* n n)))) acc))")
    counts = []
    for traced in (False, True):
        vm = rt.new_vm()
        if traced:
            vm.instruction_hook = lambda frame, op, arg: None
        assert vm.run_code(rt.compile(rt.read("(sq 7)"))).value == 98000
        counts.append(vm.instruction_count)
    assert counts[0] == counts[1]
    assert math.isclose(counts[0] / 2000, 23, rel_tol=0.01)
