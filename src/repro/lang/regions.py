"""Loop regions: a loop of straight-line calls as one generated function.

A *region* is a loop of the fused view (:func:`repro.lang.bytecode.fuse`)
from a backward ``jump`` to its target, the *head*, in which every entry
is a *block*: a ``call-global`` of a stdlib primitive (:data:`~repro.
lang.templates.BINARY_PRIMITIVES`) or of a registered host function
(:data:`~repro.lang.templates.HOST_FUNCTIONS`), whose pushes call only
those too, carrying a ``jump-if-false`` tail that leaves the loop, a
``setq`` tail or, when the call is a host function's, a ``pop`` tail
(a statement such as ``(append! acc x)``).  Nothing in it calls Gozer
code or a ``vm_function``, or yields, so no continuation can be
captured inside it.

The fast loop runs the region from the entry that replaces the backward
``jump``: one call of ``run(e0, gv, dyn, count)``, which loops over the
blocks from the head, each block the code of its ``call-global``'s
template (:func:`~repro.lang.templates.push_lines`) with every guard it
keeps there, and adds the static instruction count of each block it
completes.  Unlike the template, a block reads a dynamically bound
``load-global`` in place, and its ``setq`` tail assigns a dynamic
binding in place.  It returns ``(pc, count)``: the exit pc when a
``jump-if-false`` leaves, or the pc of the block whose guard failed or
whose host call raised, with the count the blocks before it reach.  The
fast loop goes on there, so a failing block runs its own
``call-global`` and fails at its own pc, stack and count; nothing is
left on the stack in between.  A host function is failure-atomic and
only a block's outer call may have an effect, so a block that fails has
changed nothing.  The head keeps its own entry, so a region never
re-enters itself.

Each region shape is compiled once per process into a factory, like the
templates: the symbols, constants, stdlib functions and pcs of a region
are its arguments, never text of its source.
"""

from __future__ import annotations

from typing import Any, Callable, List, Tuple

from .templates import (compile_factory, push_arguments, push_lines,
                        push_shape, scope_lines, shape_depths, store_lines)

#: shape -> factory, each compiled the first time a fused view needs it
_REGIONS: dict = {}


def region_shape(blocks) -> Tuple[Tuple[Any, ...], ...]:
    """The shape of a region: per block, its pushes' shape, its tail
    (``("jump-if-false",)``, ``("store", d)`` or ``("pop",)``) and its
    instruction count.  ``blocks`` is as :func:`instantiate_region`
    takes it."""
    shape = []
    for _pc, (_name, _run, _tail, _span, then, pushes), count, depth \
            in blocks:
        tail = ("store", depth) if then[0] == "store" else (then[0],)
        shape.append((push_shape(pushes), tail, count))
    return tuple(shape)


def region_source(shape) -> str:
    """The Python source of the factory for a region ``shape``.

    ``make(...)`` takes, block by block, the block's pc (``at``), its
    pushes' arguments as a template takes them (``c``), and its exit
    pc (``out``) or the symbol its ``setq`` assigns (``c``), if any; it
    returns ``run(e0, gv, dyn, count)``, the loop described in the
    module docstring.  Only the parameter names, fixed scaffolding, operator
    tokens and the static counts of the shape are text of the source.
    """
    params: List[str] = []

    def param(prefix: str = "c") -> str:
        params.append(f"{prefix}{len(params)}")
        return params[-1]

    body: List[str] = []
    depths: List[int] = []
    done = 0  # the instructions of one iteration before this block
    for k, (pushes, tail, count) in enumerate(shape):
        at = param("at")
        fail = f"return {at}, count + {done}" if done \
            else f"return {at}, count"
        lines, (value,) = push_lines(pushes, param, f"v{k}_{{}}".format,
                                     fail, dynamic=True)
        if tail[0] == "jump-if-false":
            # a primitive's value is never None, and False only as a
            # comparison's; a host function's may be either
            test = f"{value} is False" if pushes[-1][0] == "primitive" \
                else f"{value} is None or {value} is False"
            lines += [f"if {test}:",
                      f"    return {param('out')}, count + {done + count}"]
        elif tail[0] == "store":
            lines += store_lines(param(), tail[1], value, fail)
        # a pop tail drops the value
        body += lines
        depths += shape_depths(pushes + (tail,))
        done += count
    # the backward jump ends each iteration
    body.append(f"count += {done + 1}")
    return "\n".join([f"def make({', '.join(params)}):",
                      "    def run(e0, gv, dyn, count):",
                      *("        " + line for line in scope_lines(depths)),
                      "        while True:",
                      *("            " + line for line in body),
                      "    return run", ""])


def region_template(shape) -> Callable:
    """The factory for a region ``shape``, compiled once per process;
    its source is kept as ``make.source``."""
    make = _REGIONS.get(shape)
    if make is None:
        make = compile_factory(region_source(shape), "<region>")
        make = _REGIONS.setdefault(shape, make)
    return make


def instantiate_region(blocks) -> Callable:
    """The ``run`` function of a region.  ``blocks`` lists, from the
    head, each block as ``(pc, arg, count, depth)``: its pc, its
    ``call-global``'s argument, the instructions it stands for and, for
    a ``setq`` tail, the depth the assignment starts at (else None)."""
    arguments: List[Any] = []
    for pc, (_name, _run, _tail, _span, then, pushes), _count, _depth \
            in blocks:
        arguments.append(pc)
        arguments += push_arguments(pushes)
        if then[0] != "pop":
            arguments.append(then[1])  # the exit pc or the setq's target
    return region_template(region_shape(blocks))(*arguments)
