"""Call-global templates: a fused call's pushes as straight-line Python.

The GVM's fast loop runs a fused ``call-global`` (:func:`repro.lang.
bytecode.fuse`) by calling one function, ``run(e0, gv, dyn)``, that does
every push of the call and returns the argument values, or None when a
push cannot finish here and the entry deopts.  That function is made
here.  Each distinct *shape* of pushes (:func:`push_shape`) is compiled
once per process into a factory ``make(c0, c1, ...)``; a call site's
symbols, constants and stdlib functions are the factory's arguments, so
nothing of the program is ever formatted into the source.
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


def binary_primitive(name: str, op: Callable) -> Callable:
    """Register a module-level host function, the stdlib's ``name``, as
    computing ``op(a, b)`` on two ``int``/``float`` arguments."""

    def mark(fn: Callable) -> Callable:
        assert type(fn) is FunctionType and "<locals>" not in fn.__qualname__, \
            f"{fn!r}: only module-level functions are primitives"
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
    its depth for a ``load`` and its operator for a ``primitive``.  Two
    calls of one shape share one template."""
    shape = []
    for kind, value, depth in pushes:
        if kind == "load":
            shape.append((kind, depth))
        elif kind == "primitive":
            shape.append((kind,
                          _OPERATOR_TOKENS[BINARY_PRIMITIVES[value][1]]))
        else:
            shape.append((kind,))
    return tuple(shape)


def template_source(shape) -> str:
    """The Python source of the factory for ``shape``.

    ``make(c0, c1, ...)`` takes, in push order, each push's symbol or
    constant and, after a primitive's symbol, the stdlib function it
    must still be bound to, and returns ``run(e0, gv, dyn)``: the
    pushes as straight-line code over the frame's innermost scope
    ``e0``, the global variables and the dynamic binding stacks,
    returning the list of argument values or None to deopt.  A load at
    depth ``d`` probes the one scope ``d`` parents up and, on a miss,
    walks on from that scope's parent (``Env.lookup_or``).  Nothing of
    the program is formatted into the text: only the ``c``/``v``
    names, fixed scaffolding and the operator tokens of
    :data:`_OPERATOR_TOKENS`.
    """
    params: List[str] = []
    body: List[str] = []
    values: List[str] = []
    numeric = set()  # the values already known to be an int or a float
    depths = sorted({push[1] for push in shape if push[0] == "load"})

    def param() -> str:
        params.append(f"c{len(params)}")
        return params[-1]

    for i, push in enumerate(shape):
        kind = push[0]
        if kind == "const":
            values.append(param())
            continue
        c, v = param(), f"v{i}"
        if kind == "load":
            d = push[1]
            body += [f"if {c} in b{d}:",
                     f"    {v} = b{d}[{c}]",
                     "else:",
                     f"    p = e{d}.parent",
                     "    if p is None:",
                     "        return None",
                     f"    {v} = p.lookup_or({c}, missing)",
                     f"    if {v} is missing:",
                     "        return None"]
        elif kind == "load-global":
            body += [f"if dyn and {c} in dyn:",
                     "    return None",
                     f"if {c} not in gv:",
                     "    return None",
                     f"{v} = gv[{c}]"]
        else:
            token = push[1]
            assert token in _OPERATOR_TOKENS.values(), token
            fn = param()
            b, a = values.pop(), values.pop()
            for operand in (a, b):
                if operand not in numeric:
                    body += [f"t = type({operand})",
                             "if t is not int and t is not float:",
                             "    return None"]
            body += [f"if dyn and {c} in dyn:",
                     "    return None",
                     "try:",
                     f"    if gv[{c}] is not {fn}:",
                     "        return None",
                     f"    {v} = {a} {token} {b}",
                     "except (KeyError, OverflowError):",
                     "    return None"]
            if token in _ARITHMETIC:
                numeric.add(v)
        values.append(v)
    hops = [f"e{d} = e{d - 1}.parent"
            for d in range(1, max(depths, default=0) + 1)]
    scopes = [f"b{d} = e{d}.bindings" for d in depths]
    body = hops + scopes + body + [f"return [{', '.join(values)}]"]
    return "\n".join([f"def make({', '.join(params)}):",
                      "    def run(e0, gv, dyn):",
                      *("        " + line for line in body),
                      "    return run", ""])


def call_global_template(shape):
    """The factory for ``shape``, compiled once per process; its source
    is kept as ``make.source``."""
    make = _TEMPLATES.get(shape)
    if make is None:
        source = template_source(shape)
        namespace = {"__builtins__": {}, "missing": _MISSING, "type": type,
                     "int": int, "float": float, "KeyError": KeyError,
                     "OverflowError": OverflowError}
        exec(compile(source, "<call-global>", "exec"), namespace)
        make = namespace["make"]
        make.source = source
        make = _TEMPLATES.setdefault(shape, make)
    return make


def instantiate(pushes):
    """The ``run`` function of a ``call-global`` with these pushes
    (``(kind, value, depth)`` in postfix order, as :func:`~repro.lang.
    bytecode.fuse` makes them)."""
    arguments = []
    for kind, value, _depth in pushes:
        arguments.append(value)
        if kind == "primitive":
            arguments.append(BINARY_PRIMITIVES[value][0])
    return call_global_template(push_shape(pushes))(*arguments)
