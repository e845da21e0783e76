"""Call-global templates: a fused call's pushes as straight-line Python.

The GVM's fast loop runs a fused ``call-global`` (:func:`repro.lang.
bytecode.fuse`) by calling one function, ``run(e0, gv, dyn)``, that does
every push of the call and returns the argument values, or None when a
push cannot finish here and the entry deopts; a call with a ``setq``
tail also assigns its value.  A push may itself call a stdlib primitive
(:data:`BINARY_PRIMITIVES`, computed by its operator) or a registered
host function (:data:`HOST_FUNCTIONS`, called in place).  That function
is made here, and the code of its pushes is the block code of a loop
region too (:mod:`repro.lang.regions`).  Each distinct *shape* of
pushes (:func:`push_shape`) is compiled once per process into a factory
``make(c0, c1, ...)``; a call site's symbols, constants and stdlib
functions are the factory's arguments, so nothing of the program is
ever formatted into the source.
"""

from __future__ import annotations

import operator
from types import FunctionType
from typing import Any, Callable, List, Tuple

from .symbols import Symbol

#: The stdlib's binary numeric primitives, ``{Symbol: (function,
#: operator.*)}``: the ``p`` of a nested ``call-global`` push.  A fused
#: call computes the operator in place, on two arguments whose types are
#: exactly ``int`` or ``float``, while the name is still bound to the
#: function (checked by identity); for such arguments the two agree
#: (``tests/lang/test_stdlib_primitives.py``).  Filled by
#: :func:`binary_primitive` where the stdlib defines the eight.
BINARY_PRIMITIVES: dict = {}


#: The stdlib host functions a fused call may call in place, ``{Symbol:
#: (function, effect)}``: the ``f`` of a nested ``call-global`` push, or
#: of the call itself.  Two rules make calling one early, or twice,
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
#: whose value is popped, the last thing its entry does.  Filled by
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

#: what a generated load gets from a scope chain that does not bind it
_MISSING = object()

#: shape -> factory, each compiled the first time a fused view needs it
_TEMPLATES: dict = {}


def push_shape(pushes) -> Tuple[Tuple[Any, ...], ...]:
    """The shape of a ``call-global``'s pushes: each push's kind, with
    its depth for a ``load``, its operator for a ``primitive`` and its
    argument count for a ``host`` call.  Two calls of one shape share
    one template."""
    shape = []
    for kind, value, depth in pushes:
        if kind == "load" or kind == "host":
            shape.append((kind, depth))
        elif kind == "primitive":
            shape.append((kind,
                          _OPERATOR_TOKENS[BINARY_PRIMITIVES[value][1]]))
        else:
            shape.append((kind,))
    return tuple(shape)


def push_lines(shape, param: Callable[[], str], value: Callable[[int], str],
               fail: str, dynamic: bool = False
               ) -> Tuple[List[str], List[str]]:
    """Straight-line code for the pushes of ``shape`` (a
    :func:`push_shape`): ``(lines, values)``, ``values`` naming the
    argument values the pushes leave, in order.  ``param()`` names the
    factory's next parameter, ``value(i)`` the variable of the i-th
    push, and ``fail`` is the statement each failed guard runs, and
    each host call that raises.  A load at depth ``d`` reads ``b{d}``,
    the bindings of ``e{d}``: the code around the lines binds both.  A
    ``load-global`` of a dynamically bound name fails, or, when
    ``dynamic``, reads the innermost binding as the fast loop does."""
    body: List[str] = []
    values: List[str] = []
    numeric = set()  # the values already known to be an int or a float
    plain = set()  # the values known not to be a future
    for i, push in enumerate(shape):
        kind = push[0]
        if kind == "const":
            values.append(param())
            plain.add(values[-1])
            continue
        c, v = param(), value(i)
        if kind == "load":
            d = push[1]
            body += [f"if {c} in b{d}:",
                     f"    {v} = b{d}[{c}]",
                     "else:",
                     f"    p = e{d}.parent",
                     "    if p is None:",
                     f"        {fail}",
                     f"    {v} = p.lookup_or({c}, missing)",
                     f"    if {v} is missing:",
                     f"        {fail}"]
        elif kind == "load-global" and dynamic:
            body += [f"if dyn and {c} in dyn:",
                     f"    {v} = dyn[{c}][-1]",
                     f"elif {c} in gv:",
                     f"    {v} = gv[{c}]",
                     "else:",
                     f"    {fail}"]
        elif kind == "load-global":
            body += [f"if dyn and {c} in dyn:",
                     f"    {fail}",
                     f"if {c} not in gv:",
                     f"    {fail}",
                     f"{v} = gv[{c}]"]
        elif kind == "host":
            # the VM forces a future argument before a host call: leave
            # that to it
            fn, k = param(), push[1]
            args = values[len(values) - k:]
            del values[len(values) - k:]
            body += [line for operand in args if operand not in plain
                     for line in (f"if type({operand}) is future:",
                                  f"    {fail}")]
            body += [f"if dyn and {c} in dyn:",
                     f"    {fail}",
                     "try:",
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
                if operand not in numeric:
                    body += [f"t = type({operand})",
                             "if t is not int and t is not float:",
                             f"    {fail}"]
            body += [f"if dyn and {c} in dyn:",
                     f"    {fail}",
                     "try:",
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


def store_lines(c: str, depth: int, v: str, fail: str) -> List[str]:
    """Code that assigns ``v`` to the lexical binding of the name ``c``,
    looking from the scope ``depth`` up, else to its innermost dynamic
    binding, as a ``store`` does, and runs ``fail`` when neither
    exists."""
    return [f"if {c} in b{depth}:",
            f"    b{depth}[{c}] = {v}",
            "else:",
            f"    p = e{depth}.parent",
            f"    if p is None or not p.assign({c}, {v}):",
            f"        if dyn and {c} in dyn:",
            f"            dyn[{c}][-1] = {v}",
            "        else:",
            f"            {fail}"]


def scope_lines(depths) -> List[str]:
    """The lines that bind ``e{d}`` and ``b{d}`` for each depth in
    ``depths`` (``e0``, the innermost scope, is the caller's)."""
    hops = [f"e{d} = e{d - 1}.parent"
            for d in range(1, max(depths, default=0) + 1)]
    return hops + [f"b{d} = e{d}.bindings" for d in sorted(set(depths))]


def shape_depths(shape) -> List[int]:
    """The scope depths the loads and the store of ``shape`` read."""
    return [push[1] for push in shape if push[0] in ("load", "store")]


def template_source(shape) -> str:
    """The Python source of the factory for ``shape``.

    ``make(c0, c1, ...)`` takes, in push order, each push's symbol or
    constant and, after a primitive's symbol, the stdlib function it
    must still be bound to, and returns ``run(e0, gv, dyn)``: the
    pushes as straight-line code over the frame's innermost scope
    ``e0``, the global variables and the dynamic binding stacks,
    returning the list of argument values or None to deopt.  A load at
    depth ``d`` probes the one scope ``d`` parents up and, on a miss,
    walks on from that scope's parent (``Env.lookup_or``).  A host
    call's symbol is followed by the function it must still be bound
    to, like a primitive's.  A shape that ends in ``("store", d)`` (a
    ``setq`` tail) takes the target's symbol last, assigns the one
    value to it the same way from depth ``d`` (or to its dynamic
    binding), and returns ``()``, or ``[value]`` when nothing binds
    the name.  Nothing of the program is formatted into the text: only
    the ``c``/``v`` names, fixed scaffolding and the operator tokens of
    :data:`_OPERATOR_TOKENS`.
    """
    params: List[str] = []

    def param() -> str:
        params.append(f"c{len(params)}")
        return params[-1]

    pushes, store = shape, None
    if shape and shape[-1][0] == "store":
        pushes, store = shape[:-1], shape[-1][1]
    body, values = push_lines(pushes, param, "v{}".format, "return None")
    if store is None:
        body.append(f"return [{', '.join(values)}]")
    else:
        (value,) = values
        body += store_lines(param(), store, value, f"return [{value}]")
        body.append("return ()")
    body = scope_lines(shape_depths(shape)) + body
    return "\n".join([f"def make({', '.join(params)}):",
                      "    def run(e0, gv, dyn):",
                      *("        " + line for line in body),
                      "    return run", ""])


#: what a generated function's source may use besides its parameters
_NAMESPACE = {"__builtins__": {}, "missing": _MISSING, "type": type,
             "int": int, "float": float, "KeyError": KeyError,
             "OverflowError": OverflowError, "Exception": Exception}


def compile_factory(source: str, filename: str):
    """``make`` from a generated source, with the source kept as
    ``make.source``."""
    from ..gvm.futures import GozerFuture

    namespace = dict(_NAMESPACE, future=GozerFuture)
    exec(compile(source, filename, "exec"), namespace)
    make = namespace["make"]
    make.source = source
    return make


def call_global_template(shape):
    """The factory for ``shape``, compiled once per process; its source
    is kept as ``make.source``."""
    make = _TEMPLATES.get(shape)
    if make is None:
        make = compile_factory(template_source(shape), "<call-global>")
        make = _TEMPLATES.setdefault(shape, make)
    return make


def push_arguments(pushes) -> List[Any]:
    """The factory arguments of ``pushes`` (``(kind, value, depth)`` in
    postfix order, as :func:`~repro.lang.bytecode.fuse` makes them), in
    the order :func:`push_lines` names its parameters."""
    arguments = []
    for kind, value, _depth in pushes:
        arguments.append(value)
        if kind == "primitive":
            arguments.append(BINARY_PRIMITIVES[value][0])
        elif kind == "host":
            arguments.append(HOST_FUNCTIONS[value][0])
    return arguments


def instantiate(pushes, store=None):
    """The ``run`` function of a ``call-global`` with these pushes;
    ``store``, for a ``setq`` tail, is ``(x, d)``: the target and the
    depth its assignment starts at."""
    arguments = push_arguments(pushes)
    shape = push_shape(pushes)
    if store is not None:
        arguments.append(store[0])
        shape += (("store", store[1]),)
    return call_global_template(shape)(*arguments)
