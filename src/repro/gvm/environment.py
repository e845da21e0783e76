"""Lexical and global environments for the GVM.

Environments must satisfy two requirements from the paper:

* they are ordinary heap objects (so they can be captured inside
  continuations and serialized with a fiber, Section 4.2), and
* a forked child fiber gets a *clone* of the parent's state, after which
  "changes either fiber makes will not be visible to its clone"
  (Section 3.4) — the clone is made by serializing the :class:`Env`
  chain, like every other piece of fiber state.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, Optional

from ..lang.errors import UnboundVariableError
from ..lang.symbols import Symbol

_MISSING = object()


class Env:
    """A chain-linked lexical scope.

    Lookup walks the chain toward the root.  The root of a running
    fiber's chain is *not* the global environment — globals live in a
    separate :class:`GlobalEnvironment` so that fiber serialization does
    not drag the entire workflow definition along with every checkpoint.
    """

    __slots__ = ("bindings", "parent")

    def __init__(self, parent: Optional["Env"] = None,
                 bindings: Optional[Dict[Symbol, Any]] = None):
        self.bindings: Dict[Symbol, Any] = bindings if bindings is not None else {}
        self.parent = parent

    def lookup(self, name: Symbol) -> Any:
        value = self.lookup_or(name, _MISSING)
        if value is _MISSING:
            raise UnboundVariableError(name)
        return value

    def lookup_or(self, name: Symbol, default: Any = None) -> Any:
        env: Optional[Env] = self
        while env is not None:
            value = env.bindings.get(name, _MISSING)
            if value is not _MISSING:
                return value
            env = env.parent
        return default

    def holder(self, name: Symbol) -> Optional[Dict[Symbol, Any]]:
        """The bindings of the first scope from this one up that binds
        ``name``, or None: where :meth:`lookup_or` finds it and
        :meth:`assign` assigns it."""
        env: Optional[Env] = self
        while env is not None:
            if name in env.bindings:
                return env.bindings
            env = env.parent
        return None

    def is_bound(self, name: Symbol) -> bool:
        return self.holder(name) is not None

    def bind(self, name: Symbol, value: Any) -> None:
        """Create (or shadow) a binding in this innermost scope."""
        self.bindings[name] = value

    def assign(self, name: Symbol, value: Any) -> bool:
        """Assign to an *existing* binding; return False if none exists."""
        bindings = self.holder(name)
        if bindings is None:
            return False
        bindings[name] = value
        return True

    def child(self) -> "Env":
        return Env(parent=self)

    def chain(self) -> Iterator["Env"]:
        env: Optional[Env] = self
        while env is not None:
            yield env
            env = env.parent

    def __repr__(self) -> str:
        names = [s.name for s in self.bindings]
        return f"<Env {names}{' + parent' if self.parent else ''}>"


class DynamicBindings:
    """A stack of dynamic (special variable) bindings.

    Gozer inherits Common Lisp's special variables (``defvar`` creates
    one; conventionally ``*earmuffed*``).  Dynamic bindings are
    per-flow-of-control: each fiber (and each future's background
    thread) carries its own stack.

    ``stacks`` maps a name to its live bindings, innermost last, and
    holds no empty list; the VM's dispatch loop reads it directly.
    """

    __slots__ = ("stacks",)

    def __init__(self):
        self.stacks: Dict[Symbol, list] = {}

    def push(self, name: Symbol, value: Any) -> None:
        self.stacks.setdefault(name, []).append(value)

    def pop(self, name: Symbol) -> None:
        stack = self.stacks.get(name)
        if stack:
            stack.pop()
            if not stack:
                del self.stacks[name]

    def get(self, name: Symbol) -> Any:
        stack = self.stacks.get(name)
        if stack:
            return stack[-1]
        return _MISSING

    def set(self, name: Symbol, value: Any) -> bool:
        stack = self.stacks.get(name)
        if stack:
            stack[-1] = value
            return True
        return False

    def snapshot(self) -> Dict[Symbol, Any]:
        return {name: stack[-1] for name, stack in self.stacks.items()}


class GlobalEnvironment:
    """Global variables, function definitions, macros and intrinsics.

    One :class:`GlobalEnvironment` backs one *workflow program* (or one
    interactive session).  It is deliberately not captured inside
    continuations: when a fiber migrates to another node, the receiving
    instance already has the workflow program loaded (Vinz wraps the
    program as a service deployed everywhere, Section 3.1), so only the
    fiber-local state needs to travel.
    """

    def __init__(self):
        self.variables: Dict[Symbol, Any] = {}
        self.macros: Dict[Symbol, Any] = {}
        #: intrinsics are host-implemented operators reachable via the
        #: ``(% name ...)`` syntax and ``%name`` function calls
        #: (Listing 2 uses ``(% is-fiber-thread)``, Listing 5 generates
        #: ``%get-task-var`` calls).
        self.intrinsics: Dict[str, Callable] = {}
        #: names declared special with ``defvar``/``deftaskvar``.
        self.special_names: set = set()
        #: set for good by the first :meth:`define` of a value a fiber
        #: could change (a list, a closure over bindings, ...): a fiber
        #: of this program may then share state with the globals, so
        #: Vinz keeps none of its state live across a suspension
        self.holds_mutable = False

    def lookup(self, name: Symbol) -> Any:
        value = self.variables.get(name, _MISSING)
        if value is _MISSING:
            raise UnboundVariableError(name)
        return value

    def lookup_or(self, name: Symbol, default: Any = None) -> Any:
        return self.variables.get(name, default)

    def is_bound(self, name: Symbol) -> bool:
        return name in self.variables

    def define(self, name: Symbol, value: Any) -> None:
        """Bind a global: the one write path of :attr:`variables`."""
        if not self.holds_mutable:
            from .frames import shares_nothing  # frames imports this module
            self.holds_mutable = not shares_nothing(value)
        self.variables[name] = value

    def define_macro(self, name: Symbol, expander: Any) -> None:
        self.macros[name] = expander

    def get_macro(self, name: Symbol) -> Any:
        return self.macros.get(name)

    def define_intrinsic(self, name: str, fn: Callable) -> None:
        self.intrinsics[name] = fn
        # Intrinsics are also visible as ordinary %-prefixed functions.
        self.define(Symbol("%" + name), fn)

    def declare_special(self, name: Symbol) -> None:
        self.special_names.add(name)

    def is_special(self, name: Symbol) -> bool:
        return name in self.special_names
