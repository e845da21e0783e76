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
* *serializable*: the bytes plus ``refs``, the code objects and host
  functions (:func:`is_program_object`) shared with the program.

Capture is one pickle and resume one unpickle, both in C: only objects
that are not plain containers reach Python.  Every :func:`materialize`
returns fresh objects, so a continuation can be resumed any number of
times without an ownership rule.
"""

from __future__ import annotations

import io
import pickle
from types import FunctionType
from typing import Any, List

from ..lang.bytecode import CodeObject
from .frames import Frame


def is_program_object(obj: Any) -> bool:
    """Code objects and host functions are program: immutable and on every
    node, so picklers keep them by reference.  Callable instances
    (``constantly``'s result, a bound method) are state, pickled by value."""
    return isinstance(obj, (CodeObject, FunctionType))


def _ref(index: int) -> Any:
    """Stands for ``refs[index]`` inside a continuation's bytes; only
    :func:`materialize`'s unpickler can resolve it."""
    raise pickle.UnpicklingError(
        f"continuation ref {index} read outside materialize")


class _CapturePickler(pickle.Pickler):
    """Pickles fiber state, turning program objects into ``_ref`` calls.

    The C pickler consults ``reducer_override`` only for objects that
    are not plain containers and not yet memoized, so each code object
    or host function lands in ``refs`` exactly once.
    """

    def __init__(self, file):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.refs: List[Any] = []

    def reducer_override(self, obj):
        if is_program_object(obj) and obj is not _ref:
            self.refs.append(obj)
            return _ref, (len(self.refs) - 1,)
        return NotImplemented


class _MaterializeUnpickler(pickle.Unpickler):
    def __init__(self, file, refs: tuple):
        super().__init__(file)
        self._refs = refs

    def find_class(self, module, name):
        if name == "_ref" and module == __name__:
            return self._refs.__getitem__
        return super().find_class(module, name)


class Continuation:
    """A resumable snapshot of a fiber's control state.

    ``raw`` pickles ``(dynamics, handlers, restarts, frames)``: the VM
    frame stack, with the program counter of the top frame pointing
    just *after* the capturing instruction and its operand stack
    expecting the resume value to be pushed; the condition-system
    handler and restart stacks; and the special-variable bindings.
    ``refs`` holds the code objects and host functions ``raw`` points
    at.  Immutable: :func:`materialize` builds the runnable state.
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
    buffer = io.BytesIO()
    pickler = _CapturePickler(buffer)
    # frames last: the hot mutation (the top frame's pc and operand
    # stack) stays at the tail of the bytes, so content-defined chunking
    # (persistsnap) finds the long unchanged prefix byte-identical
    # between suspensions and dedups it
    pickler.dump((dynamics, handlers, restarts, frames))
    return Continuation(label, buffer.getvalue(), tuple(pickler.refs))


def materialize(continuation: Continuation) -> tuple:
    """Produce fresh, runnable ``(frames, handlers, restarts, dynamics)``.

    The continuation itself stays untouched, so it can be resumed more
    than once (each resume decodes its own objects) — this is also what
    makes ``fork-and-exec`` cloning (Section 3.4) a one-liner.
    """
    dynamics, handlers, restarts, frames = _MaterializeUnpickler(
        io.BytesIO(continuation.raw), continuation.refs).load()
    return frames, handlers, restarts, dynamics
