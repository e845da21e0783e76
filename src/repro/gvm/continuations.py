"""Continuations: the mechanism behind workflow migration.

Paper Section 3.1: "A continuation represents the completion of the same
flow of control (compare to a future, which represents the completion of
a *different* flow of control)."  The GVM grants one at any ``yield`` or
``push-cc``.  Vinz serializes continuations to the shared store and
resumes them on whatever node the message queue picks — that is the
entire distribution story, so continuations must be:

* *self-contained*: a suspended fiber *is* its serialized stack
  (Section 4.2), so a continuation holds the pickled bytes of the frame
  stack, sharing nothing mutable with the running fiber;
* *future-free*: every future the pickle reaches is determined first
  (Section 4.1) — ``GozerFuture.__getstate__`` touches it;
* *serializable*: the bytes plus ``refs``, the code objects
  (:func:`~repro.gvm.frames.is_program_object`) shared with the program.

Capture is one pickle and resume one unpickle, both in C: only code
objects reach Python.  Every :func:`materialize` returns fresh objects,
so a continuation can be resumed any number of times without an
ownership rule.

All fiber state pickles through :func:`dump_state`/:func:`load_state`:
capture keys code objects by index in ``refs``, the fiber codec
(:mod:`repro.vinz.persistence`) by registry name; a host function goes
by its importable name.
"""

from __future__ import annotations

import copyreg
import io
import pickle
from types import FunctionType
from typing import Any, Callable, Dict, List

from ..lang.bytecode import CodeObject
from .frames import Frame


def _ref(key: Any) -> Any:
    """Stands for the program object named ``key`` inside pickled fiber
    state; only :func:`load_state`'s unpickler can resolve it."""
    raise pickle.UnpicklingError(
        f"program reference {key!r} read outside load_state")


class _CapturePickler(pickle.Pickler):
    """Pickles fiber state, turning each code object into a ``_ref``
    call on the key ``key_for`` gives it (``None`` leaves it to plain
    pickle, by value).

    The reducer sits in a per-pickler ``dispatch_table`` (a copy of
    :data:`copyreg.dispatch_table`), so the C pickler reaches Python only
    for a code object, once per pickle: plain containers, ``Env``,
    ``Frame`` and ``type`` objects never leave C.  A host function never
    reaches the table either (the C pickler saves every function as a
    global); a module-level one pickles by its importable name, and one
    that has none makes :func:`dump_state` retry with
    :class:`_FunctionPickler`.
    """

    def __init__(self, file, key_for: Callable[[Any], Any]):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)

        # a plain closure: a bound method of self would be a cycle
        def reduce_code(code):
            key = key_for(code)
            if key is None:
                return code.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
            return _ref, (key,)

        self.dispatch_table = {**copyreg.dispatch_table,
                               CodeObject: reduce_code}


class _FunctionPickler(_CapturePickler):
    """The retry for state holding a function that has no importable
    name (a lambda, a per-runtime closure): every function ``key_for``
    names becomes a ``_ref`` too, at one Python call per object."""

    def __init__(self, file, key_for: Callable[[Any], Any]):
        super().__init__(file, key_for)
        self._key_for = key_for

    def reducer_override(self, obj):
        if type(obj) is FunctionType and obj is not _ref:
            key = self._key_for(obj)
            if key is not None:
                return _ref, (key,)
        return NotImplemented


class _MaterializeUnpickler(pickle.Unpickler):
    def __init__(self, file, resolve: Callable[[Any], Any]):
        super().__init__(file)
        self._resolve = resolve

    def find_class(self, module, name):
        if name == "_ref" and module == __name__:
            return self._resolve
        return super().find_class(module, name)

    def persistent_load(self, pid):
        # read-compat only: older codec blobs name program objects by
        # persistent id, ("code", key) or ("host", name)
        return self._resolve(pid)


def dump_state(state: Any, key_for: Callable[[Any], Any]) -> bytes:
    """Pickle ``state``, code objects by ``key_for``'s keys and host
    functions by importable name, else by ``key_for``'s keys."""
    buffer = io.BytesIO()
    try:
        _CapturePickler(buffer, key_for).dump(state)
    except (pickle.PicklingError, AttributeError):
        # a function with no importable name ("Can't pickle local
        # object" is an AttributeError)
        buffer = io.BytesIO()
        _FunctionPickler(buffer, key_for).dump(state)
    return buffer.getvalue()


def load_state(raw: bytes, resolve: Callable[[Any], Any]) -> Any:
    """Unpickle :func:`dump_state`'s bytes, resolving each key."""
    return _MaterializeUnpickler(io.BytesIO(raw), resolve).load()


class Continuation:
    """A resumable snapshot of a fiber's control state.

    ``raw`` pickles ``(dynamics, handlers, restarts, frames)``: the VM
    frame stack, with the program counter of the top frame pointing
    just *after* the capturing instruction and its operand stack
    expecting the resume value to be pushed; the condition-system
    handler and restart stacks; and the special-variable bindings.
    ``refs`` holds the code objects (and any host function without an
    importable name) ``raw`` points at.  Immutable: :func:`materialize`
    builds the runnable state.
    """

    __slots__ = ("label", "raw", "refs")

    def __init__(self, label: str, raw: bytes, refs: tuple):
        self.label = label
        self.raw = raw
        self.refs = refs

    @property
    def frames(self) -> List[Frame]:
        """The frame stack, freshly decoded (for diagnostics)."""
        return materialize(self)[0]

    def __repr__(self) -> str:
        frames = self.frames
        top = frames[-1].function_name if frames else "?"
        return f"#<continuation {self.label} at {top} ({len(frames)} frames)>"

    def __getstate__(self):
        return (self.label, self.raw, self.refs)

    def __setstate__(self, state):
        # blobs written before continuations were bytes carry the live
        # state, as the instance __dict__ or as a tagged 6-tuple
        if isinstance(state, dict):
            state = (None, state["label"],
                     state["dynamics"], state["handlers"],
                     state["restarts"], state["frames"])
        if len(state) == 6:
            _tag, label, dynamics, handlers, restarts, frames = state
            state = capture(frames, handlers, restarts, dynamics,
                            label).__getstate__()
        self.label, self.raw, self.refs = state

    def estimated_size(self) -> int:
        """The serialized size of the captured state, in bytes."""
        return len(self.raw)


def capture(frames: List[Frame], handlers: list, restarts: list,
            dynamics: dict, label: str = "continuation") -> Continuation:
    """Snapshot the given VM state into a :class:`Continuation`.

    Enforces the determination rule: every future reachable from the
    state is touched (blocking if necessary) as the pickler reaches it,
    so "the continuation doesn't become available until all futures have
    completed" (Section 4.1); a failed future raises its error here.
    """
    refs: List[Any] = []
    index: Dict[int, int] = {}

    def key_for(obj):
        # stable across dump_state's retry: one entry per object
        key = index.get(id(obj))
        if key is None:
            key = index[id(obj)] = len(refs)
            refs.append(obj)
        return key

    # frames last: the hot mutation (the top frame's pc and operand
    # stack) stays at the tail of the bytes, so content-defined chunking
    # (persistsnap) finds the long unchanged prefix byte-identical
    # between suspensions and dedups it
    raw = dump_state((dynamics, handlers, restarts, frames), key_for)
    return Continuation(label, raw, tuple(refs))


def materialize(continuation: Continuation) -> tuple:
    """Produce fresh, runnable ``(frames, handlers, restarts, dynamics)``.

    The continuation itself stays untouched, so it can be resumed more
    than once (each resume decodes its own objects) — this is also what
    makes ``fork-and-exec`` cloning (Section 3.4) a one-liner.
    """
    dynamics, handlers, restarts, frames = load_state(
        continuation.raw, continuation.refs.__getitem__)
    return frames, handlers, restarts, dynamics
