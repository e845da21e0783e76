"""The Gozer condition system (paper Section 3.7).

Gozer "provides an implementation of the very general Common Lisp
condition system which goes above and beyond exception handling by not
requiring the stack to unwind to handle conditions".  The pieces:

* :class:`GozerCondition` — the condition value.  Conditions carry an
  optional *QName* (``{urn:service}Connect``) so that distributed error
  responses from services integrate with local handling, exactly as the
  paper describes for ``deflink``-generated functions.
* type specs — a handler matches conditions by host exception class
  name (the paper's "Java classes", here Python classes), by QName
  string, by condition-type symbol, or by a list of any of these.
* the handler/restart *stacks* live on the VM
  (:mod:`repro.gvm.vm`); this module supplies the matching logic and
  the condition taxonomy.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Tuple

from ..lang.symbols import Keyword, Symbol


class GozerCondition(Exception):
    """A signalable condition.

    ``condition_type`` is a symbolic type name (``error``, ``warning``,
    ``simple-error`` ...).  ``qname`` is set for conditions that arrived
    as service error responses (paper Section 3.7: "the response from
    the service might be an error, conveniently expressed as an XML
    QName").  ``wrapped`` holds a host exception when the condition was
    produced by one.
    """

    def __init__(self, message: str = "", condition_type: str = "error",
                 qname: Optional[str] = None, data: Any = None,
                 wrapped: Optional[BaseException] = None):
        super().__init__(message)
        self.message = message
        self.condition_type = condition_type
        self.qname = qname
        self.data = data
        self.wrapped = wrapped

    def __repr__(self) -> str:
        bits = [self.condition_type]
        if self.qname:
            bits.append(self.qname)
        if self.message:
            bits.append(repr(self.message))
        return f"#<condition {' '.join(bits)}>"


class UnhandledConditionError(GozerCondition):
    """Raised to the host when ``error`` finds no handler and no debugger."""

    def __init__(self, condition: GozerCondition):
        super().__init__(f"unhandled condition: {condition!r}",
                         condition_type="unhandled")
        self.condition = condition


#: The condition-type hierarchy.  Maps a type name to its parents.
#: ``condition`` is the root; ``serious-condition``/``error`` mirror CL.
CONDITION_HIERARCHY = {
    "condition": (),
    "warning": ("condition",),
    "serious-condition": ("condition",),
    "error": ("serious-condition",),
    "simple-error": ("error",),
    "type-error": ("error",),
    "arithmetic-error": ("error",),
    "division-by-zero": ("arithmetic-error",),
    "unbound-variable": ("error",),
    "undefined-function": ("error",),
    "control-error": ("error",),
    "service-error": ("error",),
    "network-error": ("service-error",),
    "timeout-error": ("service-error",),
    "unhandled": ("error",),
}

#: Host ("Java" in the paper) class-name aliases.  The paper's
#: Listing 6 uses names like ``java.lang.Throwable`` and
#: ``java.net.SocketException``; we keep those spellings working by
#: mapping them onto the closest Python classes.
HOST_CLASS_ALIASES = {
    "java.lang.Throwable": Exception,
    "java.lang.Exception": Exception,
    "java.lang.RuntimeException": Exception,
    "java.lang.Error": Exception,
    "java.net.SocketException": ConnectionError,
    "java.net.SocketTimeoutException": TimeoutError,
    "java.io.IOException": OSError,
    "java.lang.ArithmeticException": ArithmeticError,
    "java.lang.NullPointerException": AttributeError,
    "java.lang.IllegalArgumentException": ValueError,
}


def condition_type_matches(type_name: str, target: str) -> bool:
    """True when ``type_name`` is ``target`` or inherits from it."""
    if type_name == target:
        return True
    seen = set()
    stack = [type_name]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        for parent in CONDITION_HIERARCHY.get(current, ()):
            if parent == target:
                return True
            stack.append(parent)
    return False


def _spec_name(spec: Any) -> str:
    if isinstance(spec, Symbol):
        return spec.name
    if isinstance(spec, Keyword):
        return spec.name
    return str(spec)


def _python_class_for_name(name: str):
    alias = HOST_CLASS_ALIASES.get(name)
    if alias is not None:
        return alias
    builtin = getattr(__import__("builtins"), name, None)
    if isinstance(builtin, type) and issubclass(builtin, BaseException):
        return builtin
    if "." in name:
        module_name, _, cls_name = name.rpartition(".")
        try:
            module = __import__(module_name, fromlist=[cls_name])
            cls = getattr(module, cls_name, None)
            if isinstance(cls, type) and issubclass(cls, BaseException):
                return cls
        except ImportError:
            return None
    return None


def matches(spec: Any, condition: BaseException) -> bool:
    """Does handler type-spec ``spec`` match ``condition``?

    Specs (paper Listing 6):

    * a list — matches if any element matches;
    * a QName string ``"{urn:...}Name"`` — matches a condition's QName;
    * a host class name string (``"java.net.SocketException"``,
      ``"ValueError"``, ``"pkg.mod.Cls"``) — matches by class;
    * a symbol — matches a condition-type in the hierarchy, with ``t``
      and ``condition`` matching everything.
    """
    if isinstance(spec, (list, tuple)):
        return any(matches(item, condition) for item in spec)
    if spec is True:
        return True
    if isinstance(spec, str):
        if spec.startswith("{"):
            qname = getattr(condition, "qname", None)
            return qname == spec
        cls = _python_class_for_name(spec)
        if cls is not None:
            if isinstance(condition, cls):
                return True
            wrapped = getattr(condition, "wrapped", None)
            return wrapped is not None and isinstance(wrapped, cls)
        return False
    name = _spec_name(spec)
    if name in ("t", "condition"):
        return True
    if isinstance(condition, GozerCondition):
        return condition_type_matches(condition.condition_type, name)
    # Any host exception counts as an `error`.
    if name in ("error", "serious-condition"):
        return isinstance(condition, Exception)
    return False


def coerce_condition(value: Any, default_type: str = "simple-error") -> GozerCondition:
    """Normalize a ``signal``/``error`` argument into a condition object."""
    if isinstance(value, GozerCondition):
        return value
    if isinstance(value, BaseException):
        return GozerCondition(
            message=str(value),
            condition_type=_condition_type_for_exception(value),
            wrapped=value,
        )
    if isinstance(value, Symbol):
        return GozerCondition(message=value.name, condition_type=value.name)
    return GozerCondition(message=str(value), condition_type=default_type)


def _condition_type_for_exception(exc: BaseException) -> str:
    from ..lang.errors import UnboundVariableError, UndefinedFunctionError

    if isinstance(exc, ZeroDivisionError):
        return "division-by-zero"
    if isinstance(exc, ArithmeticError):
        return "arithmetic-error"
    if isinstance(exc, TypeError):
        return "type-error"
    if isinstance(exc, UnboundVariableError):
        return "unbound-variable"
    if isinstance(exc, UndefinedFunctionError):
        return "undefined-function"
    if isinstance(exc, (ConnectionError, TimeoutError)):
        return "network-error"
    return "error"


def make_condition(condition_type: str, message: str = "",
                   qname: Optional[str] = None, data: Any = None) -> GozerCondition:
    """Constructor exposed to Gozer as ``make-condition``."""
    return GozerCondition(message=message, condition_type=condition_type,
                          qname=qname, data=data)


def define_condition_type(name: str, parents: Iterable[str] = ("error",)) -> None:
    """Extend the hierarchy (Gozer's ``define-condition``)."""
    CONDITION_HIERARCHY[name] = tuple(parents)
