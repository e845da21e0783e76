"""Generated code for the GVM's fused calls: straight-line Python.

The fast loop (:meth:`repro.gvm.vm.VM._run_fast`) runs two kinds of
fused entry (:func:`repro.lang.bytecode.fuse`) by calling one function
made here:

* a *block*: a call with its tail.  ``run(e0, gv, dyn, stack, count)``
  does the pushes, the call and the tail, and returns ``(pc, count)``,
  where the fast loop goes on, or None to deopt before any effect.  A
  call of a stdlib primitive (:data:`BINARY_PRIMITIVES`, computed by its
  operator) or of a registered host function (:data:`HOST_FUNCTIONS`,
  called in place) is made here, and its tail is its value pushed, a
  ``jump-if-false`` on it, a ``setq`` of it or, for a host call, a
  statement's ``pop``.  A ``setq`` whose name has no lexical or dynamic
  binding pushes the value and returns the pc of its ``store-pop``,
  which creates the global.  Any other call (a Gozer function, an
  unregistered host function) has the ``call`` tail: the block pushes
  the callee's value and the argument values and returns the pc of its
  own ``call`` or ``tail-call``, which the fast loop then makes;
* a *region*: a loop whose entries are all blocks that make their call
  here, run from the entry that replaces its backward ``jump``: the
  same blocks' code inside ``while True``.

Every fused entry resolves each name — a load or a ``setq`` target to
the bindings dict that holds it, from the frame's innermost scope
``e0`` up (its own bindings, else ``Env.holder``), a ``load-global`` to
the innermost dynamic binding or the globals — and then reads or
assigns it with one subscript; a lone block does so at each push.
Nothing in a region binds a name, so an entry part before its loop
resolves each name once a call, and checks there that no primitive or
host function is bound dynamically and that each constant operand is a
number; a name bound nowhere, or a function bound dynamically, returns
the head's pc and the count given, as the ``jump`` would.  Each
iteration reads every value again, with one subscript, and keeps the
``gv[name] is fn``, type and future guards.  A guard that fails, or a
host call that raises, returns the pc of its block with the count the
blocks before it reach, and the block's own entry then deopts at its
own pc, stack and count.  Only a new binding another thread makes
mid-loop, nearer than where a name was found, is seen later than
without the region: at its next entry.  Nothing in a region calls Gozer
code or a ``vm_function``, or yields, so no continuation is captured
inside it; a host function is failure-atomic and only a block's outer
call may have an effect, so a block that fails has changed nothing.

A push may itself call a primitive or a host function.  Each distinct
*shape* (:func:`template_source`) is compiled once per process into a
factory ``make(c0, c1, ...)``; a call site's symbols, constants, stdlib
functions and pcs are the factory's arguments, so nothing of the
program is ever formatted into the source.
"""

from __future__ import annotations

import operator
from types import FunctionType
from typing import Any, Callable, List, Optional, Tuple

from .symbols import Symbol

#: The stdlib's binary numeric primitives, ``{Symbol: (function,
#: operator.*)}``: the ``p`` of a nested primitive push, or a block's
#: ``f``.  Generated code computes the operator in place, on two
#: arguments whose types are exactly ``int`` or ``float``, while the
#: name is still bound to the function (checked by identity); for such
#: arguments the two agree (``tests/lang/test_stdlib_primitives.py``).
#: Filled by :func:`binary_primitive` where the stdlib defines the eight.
BINARY_PRIMITIVES: dict = {}


#: The stdlib host functions generated code may call in place,
#: ``{Symbol: (function, effect)}``: the ``f`` of a nested push, or of a
#: block.  Two rules make calling one early, or twice,
#: indistinguishable from the unfused call:
#:
#: * *VM-free*: it is not a ``vm_function``, never calls Gozer code and
#:   never yields, so nothing can capture a continuation inside it;
#: * *failure-atomic*: it completes, or raises before any effect.  A
#:   generated call that raises deopts, and the call then runs again
#:   at its own pc, where it raises the same way.
#:
#: Only a function with ``effect`` false may be a nested push; one with
#: an effect (``append!``) is only ever the outer call of a statement
#: whose value is popped, the last thing its block does.  Filled by
#: :func:`host_function` where the stdlib defines them.
HOST_FUNCTIONS: dict = {}


def _module_level(fn: Callable) -> None:
    assert type(fn) is FunctionType and "<locals>" not in fn.__qualname__, \
        f"{fn!r}: only module-level functions are registered"


def host_function(*names: str, effect: bool = False) -> Callable:
    """Register a module-level, VM-free, failure-atomic host function as
    the stdlib's ``names``; ``effect`` when it changes one of its
    arguments."""

    def mark(fn: Callable) -> Callable:
        from ..gvm.frames import VM_FUNCTIONS

        _module_level(fn)
        assert fn not in VM_FUNCTIONS, f"{fn!r} takes the VM"
        for name in names:
            HOST_FUNCTIONS[Symbol(name)] = (fn, effect)
        return fn

    return mark


def binary_primitive(name: str, op: Callable) -> Callable:
    """Register a module-level host function, the stdlib's ``name``, as
    computing ``op(a, b)`` on two ``int``/``float`` arguments."""

    def mark(fn: Callable) -> Callable:
        _module_level(fn)
        BINARY_PRIMITIVES[Symbol(name)] = (fn, op)
        return fn

    return mark


#: The Python operator of each primitive's ``operator`` function: the
#: only operator text a template holds.
_OPERATOR_TOKENS = {operator.add: "+", operator.sub: "-",
                    operator.mul: "*", operator.lt: "<", operator.gt: ">",
                    operator.eq: "==", operator.le: "<=", operator.ge: ">="}

#: the tokens whose result, on two ints or floats, is an int or a float
_ARITHMETIC = ("+", "-", "*")

#: shape -> factory, each compiled the first time a fused view needs it
_TEMPLATES: dict = {}


def push_shape(pushes) -> Tuple[Tuple[Any, ...], ...]:
    """The shape of a fused call's pushes: each push's kind, with its
    operator for a ``primitive`` and its argument count for a ``host``
    call."""
    shape = []
    for kind, value, k in pushes:
        if kind == "host":
            shape.append((kind, k))
        elif kind == "primitive":
            shape.append((kind,
                          _OPERATOR_TOKENS[BINARY_PRIMITIVES[value][1]]))
        else:
            shape.append((kind,))
    return tuple(shape)


def push_lines(shape, param: Callable[[], str], value: Callable[[int], str],
               fail: str, entry: Optional[Tuple[List[str], str]] = None
               ) -> Tuple[List[str], List[str]]:
    """Straight-line code for the pushes of ``shape`` (a
    :func:`push_shape`): ``(lines, values)``, ``values`` naming the
    argument values the pushes leave, in order.  ``param()`` names the
    factory's next parameter, ``value(i)`` the variable of the i-th
    push, and ``fail`` is the statement each failed guard runs, and
    each host call that raises.

    Each name is first resolved, then read with one subscript.  A load
    is resolved to the bindings dict that holds it (``h`` and the push's
    variable): ``b0``, the bindings of the innermost scope ``e0``, else
    the first scope from ``e0`` up that binds it (``Env.holder``); the
    code around the lines binds ``b0``.  A
    ``load-global`` is resolved to its innermost dynamic binding's
    stack and ``-1``, else to ``gv`` and the name (``h`` and ``k``), as
    the fast loop's own ``load-global`` reads it.  The check that a
    primitive or a host function is not bound dynamically (dynamic
    bindings belong to one flow of control) and the type check of a
    constant operand go with the resolving.  A name nothing binds, or a
    function bound dynamically, runs ``fail``.

    A region passes ``entry``, the ``(lines, fail)`` of the part of its
    function that runs once per call, before the loop, and the resolving
    and those checks go there, with that ``fail``: nothing in a region
    binds a name.  A lone block passes none, and they go in the lines,
    at their push.  The values themselves, each
    value's type and future guard and each ``gv[name] is fn`` are always
    in the lines."""
    body: List[str] = []
    values: List[str] = []
    numeric = set()  # the values already known to be an int or a float
    plain = set()  # the values known not to be a future
    constants = set()  # the constant operands, type-checked once
    once, once_fail = (body, fail) if entry is None else entry
    for i, push in enumerate(shape):
        kind = push[0]
        if kind == "const":
            values.append(param())
            plain.add(values[-1])
            constants.add(values[-1])
            continue
        c, v = param(), value(i)
        if kind == "load":
            once += [f"h{v} = b0 if {c} in b0 else e0.holder({c})",
                     f"if h{v} is None:",
                     f"    {once_fail}"]
            body.append(f"{v} = h{v}[{c}]")
        elif kind == "load-global":
            once += [f"if dyn and {c} in dyn:",
                     f"    h{v}, k{v} = dyn[{c}], -1",
                     f"elif {c} in gv:",
                     f"    h{v}, k{v} = gv, {c}",
                     "else:",
                     f"    {once_fail}"]
            body.append(f"{v} = h{v}[k{v}]")
        elif kind == "host":
            # the VM forces a future argument before a host call: leave
            # that to it
            fn, k = param(), push[1]
            args = values[len(values) - k:]
            del values[len(values) - k:]
            body += [line for operand in args if operand not in plain
                     for line in (f"if type({operand}) is future:",
                                  f"    {fail}")]
            once += [f"if dyn and {c} in dyn:",
                     f"    {once_fail}"]
            body += ["try:",
                     f"    if gv[{c}] is not {fn}:",
                     f"        {fail}",
                     f"    {v} = {fn}({', '.join(args)})",
                     "except Exception:",
                     f"    {fail}"]
        else:
            token = push[1]
            assert token in _OPERATOR_TOKENS.values(), token
            fn = param()
            b, a = values.pop(), values.pop()
            for operand in (a, b):
                if operand in constants:
                    once += [f"t = type({operand})",
                             "if t is not int and t is not float:",
                             f"    {once_fail}"]
                elif operand not in numeric:
                    body += [f"t = type({operand})",
                             "if t is not int and t is not float:",
                             f"    {fail}"]
            once += [f"if dyn and {c} in dyn:",
                     f"    {once_fail}"]
            body += ["try:",
                     f"    if gv[{c}] is not {fn}:",
                     f"        {fail}",
                     f"    {v} = {a} {token} {b}",
                     "except (KeyError, OverflowError):",
                     f"    {fail}"]
            if token in _ARITHMETIC:
                numeric.add(v)
            plain.add(v)  # a number or a bool
        values.append(v)
    return body, values


def store_lines(c: str, v: str, unbound: List[str],
                once: List[str]) -> List[str]:
    """Code that assigns ``v`` to the lexical binding of the name ``c``,
    looking from the innermost scope up, else to its innermost dynamic
    binding, as a ``store`` does, and runs the ``unbound`` lines when
    neither exists.  The binding is found by lines added to ``once``
    (``h`` and ``k`` and the variable ``v``; a region's entry part, or
    the block's own lines), and the code returned is one subscript
    assignment, or the ``unbound`` lines when there was none."""
    once += [f"h{v} = b0 if {c} in b0 else e0.holder({c})",
             f"k{v} = {c}",
             f"if h{v} is None and dyn and {c} in dyn:",
             f"    h{v}, k{v} = dyn[{c}], -1"]
    return [f"if h{v} is None:",
            *(f"    {line}" for line in unbound),
            f"h{v}[k{v}] = {v}"]


def _count(n: int) -> str:
    """``count`` advanced by the static ``n``."""
    return f"count + {n}" if n else "count"


def block_lines(blocks, param: Callable[..., str], loop: bool) -> List[str]:
    """The code of ``blocks``, each ``(pushes' shape, tail, width)``, one
    after the other.  ``done`` is the count of the instructions before
    the block, from the ``count`` the function was given: that count
    includes a region's backward ``jump``, or a lone block's own first
    instruction.

    A region's code is its entry part (:func:`push_lines`), then the
    blocks inside ``while True``.  An entry that fails returns the head
    block's pc and the count it was given, which is what the ``jump``
    does: the head's own entry then runs, and deopts where a guard
    fails."""
    lines: List[str] = []
    entry: List[str] = []
    done = 0 if loop else -1
    for k, (pushes, tail, width) in enumerate(blocks):
        at = param("at")
        if k == 0:
            head = at
        fail = f"return {at}, {_count(done)}" if loop else "return None"
        block, values = push_lines(
            pushes, param, f"v{k}_{{}}".format, fail,
            (entry, f"return {head}, count") if loop else None)
        value = values[-1]
        if tail[0] == "call":
            # the callee and its arguments, for the fast loop's own call
            # instruction, the last of the block, to call
            block.append(f"stack.extend(({', '.join(values)},))")
            width -= 1
        elif tail[0] == "push":
            block.append(f"stack.append({value})")
        elif tail[0] == "jump-if-false":
            # a primitive's value is never None, and False only as a
            # comparison's; a host function's may be either
            test = f"{value} is False" if pushes[-1][0] == "primitive" \
                else f"{value} is None or {value} is False"
            block += [f"if {test}:",
                      f"    return {param('out')}, {_count(done + width)}"]
        elif tail[0] == "store":
            # unbound: the store-pop after the call creates the global
            called = width - 3
            store = store_lines(param(), value,
                                [f"stack.append({value})",
                                 f"return {at} + {called}, "
                                 f"{_count(done + called)}"],
                                entry if loop else block)
            block += store
        # a pop tail drops the value
        lines += block
        done += width
    if loop:
        # the backward jump ends each iteration
        return entry + ["while True:", *("    " + line for line in lines),
                        f"    count += {done + 1}"]
    return lines + [f"return {at} + {width}, {_count(done)}"]


def template_source(shape) -> str:
    """The Python source of the factory for ``shape``: ``("block",
    (block,))`` for a lone block and ``("region", blocks)`` for a
    region, a block being ``(pushes, tail, width)``: its pushes'
    :func:`push_shape` (the last push is the call itself, or, with the
    ``call`` tail, the last argument), its tail — ``("push",)``,
    ``("jump-if-false",)``, ``("store",)``, ``("pop",)`` or
    ``("call",)`` — and the instructions it stands for.

    ``make(c0, c1, ...)`` takes, in order, each push's symbol or
    constant and, after a primitive's or a host function's symbol, the
    stdlib function it must still be bound to; a block's arguments
    start with its pc and end with its ``jump-if-false`` target or the
    symbol its ``setq`` assigns.  It returns ``run``, as the module
    docstring describes it, over the frame's innermost scope ``e0``,
    the global variables and the dynamic binding stacks.  A load probes
    ``e0``'s own bindings and, on a miss, walks on up from there
    (``Env.holder``); a ``setq`` assigns the same way.  Nothing of the
    program is formatted into the text: only the parameter names, fixed
    scaffolding, the operator tokens of :data:`_OPERATOR_TOKENS` and the
    static counts of the shape.
    """
    kind, blocks = shape
    params: List[str] = []

    def param(prefix: str = "c") -> str:
        params.append(f"{prefix}{len(params)}")
        return params[-1]

    lines = block_lines(blocks, param, kind == "region")
    if any(push[0] == "load" or tail[0] == "store"
           for pushes, tail, _width in blocks for push in pushes):
        lines.insert(0, "b0 = e0.bindings")
    return "\n".join([f"def make({', '.join(params)}):",
                      "    def run(e0, gv, dyn, stack, count):",
                      *("        " + line for line in lines),
                      "    return run", ""])


#: what a generated function's source may use besides its parameters
_NAMESPACE = {"__builtins__": {}, "type": type, "int": int, "float": float,
              "KeyError": KeyError, "OverflowError": OverflowError,
              "Exception": Exception}


def template(shape):
    """The factory for ``shape``, compiled once per process; its source
    is kept as ``make.source``."""
    make = _TEMPLATES.get(shape)
    if make is None:
        from ..gvm.futures import GozerFuture

        source = template_source(shape)
        namespace = dict(_NAMESPACE, future=GozerFuture)
        exec(compile(source, f"<{shape[0]}>", "exec"), namespace)
        make = namespace["make"]
        make.source = source
        make = _TEMPLATES.setdefault(shape, make)
    return make


def push_arguments(pushes) -> List[Any]:
    """The factory arguments of ``pushes`` (``(kind, value, k)`` in
    postfix order, as :func:`~repro.lang.bytecode.fuse` makes them), in
    the order :func:`push_lines` names its parameters."""
    arguments = []
    for kind, value, _k in pushes:
        arguments.append(value)
        if kind == "primitive":
            arguments.append(BINARY_PRIMITIVES[value][0])
        elif kind == "host":
            arguments.append(HOST_FUNCTIONS[value][0])
    return arguments


def instantiate_blocks(blocks, loop: bool = False):
    """``(run, source)`` of one block, or of a region's blocks when
    ``loop``.  ``blocks`` lists each as ``(pc, pushes, then, width)``:
    its pc, its pushes (the last one its own call), its tail as
    :data:`~repro.lang.bytecode.FUSED` describes ``then`` and the
    instructions it stands for."""
    shape: List[Any] = []
    arguments: List[Any] = []
    for pc, pushes, then, width in blocks:
        shape.append((push_shape(pushes), then[:1], width))
        arguments += [pc, *push_arguments(pushes)]
        if then[0] == "jump-if-false" or then[0] == "store":
            arguments.append(then[1])  # the exit pc or the setq's target
    make = template(("region" if loop else "block", tuple(shape)))
    return make(*arguments), make.source
