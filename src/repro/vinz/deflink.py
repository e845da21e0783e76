"""deflink: WSDL-driven service stub generation (paper Section 3.3).

"A macro called deflink ... requests a service's interface in the form
of an XML document, parses it, and then generates a set of functions to
invoke each operation the service publishes, together with the
appropriate placement of yield statements to make the request
non-blocking."

For every operation ``Op`` of a linked service ``SM``, deflink defines
(exactly as the paper's Listing 2):

* ``SM-Op-Method`` — the high-level entry taking ``&key`` arguments,
  building the message and delegating to:
* ``SM-Op`` — the invoker: on the fiber's own VM it sends the request
  asynchronously and ``yield``s (the fiber migrates away while the
  service works); in a future or an ``eval`` — or when forced
  synchronous, statically via ``:sync t`` or dynamically via
  ``*vinz-force-sync*`` — it makes a standard synchronous request.
  Restarts ``ignore`` and ``retry`` are bound around the call for the
  named-handler actions of Section 3.7.

Operations the WSDL marks un-bridgeable get a *macro* that signals a
compile-time error, "thus avoiding runtime errors" — the workflow fails
to load if and only if it tries to invoke that operation.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..bluebox.wsdl import WsdlDocument, WsdlOperation
from ..bluebox.xmlmsg import ServiceMessage
from ..gvm.conditions import GozerCondition
from ..gvm.frames import GozerMacro, vm_function
from ..lang.errors import CompileError, GozerRuntimeError
from ..lang.symbols import Keyword, Symbol

_S = Symbol


def generate_link_forms(prefix: str, wsdl: WsdlDocument,
                        static_sync: bool = False) -> List[Any]:
    """Build the (defun ...) forms for every bridgeable operation."""
    forms: List[Any] = []
    for operation in wsdl.operations.values():
        if not operation.bridgeable:
            continue
        forms.extend(_forms_for_operation(prefix, wsdl, operation,
                                          static_sync))
    return forms


def _forms_for_operation(prefix: str, wsdl: WsdlDocument,
                         operation: WsdlOperation,
                         static_sync: bool) -> List[Any]:
    fn_name = _S(f"{prefix}-{operation.name}")
    method_name = _S(f"{prefix}-{operation.name}-Method")
    msg = _S("msg")
    message_kw = _S("message")
    doc = operation.doc or f"Invoke {wsdl.service}.{operation.name}."

    # -- SM-Op-Method: keyword interface building the message -----------
    setters = [
        [_S("."), msg, [_S("set"), param.name, _S(param.name)]]
        for param in operation.parameters
    ]
    method_form = [
        _S("defun"), method_name,
        [_S("&key"), *[_S(p.name) for p in operation.parameters]],
        doc,
        [_S("let"), [[msg, [_S("make-service-message"), operation.name]]],
         *setters,
         [fn_name, Keyword("message"), msg]],
    ]

    # -- SM-Op: the invoker with restarts and the sync/async choice ------
    sync_call = [_S("%call-wsdl-operation"), operation.soap_action, message_kw]
    async_call = [_S("yield"),
                  [_S("%call-wsdl-operation-async"), operation.soap_action,
                   message_kw]]
    if static_sync:
        request = sync_call
    else:
        request = [
            _S("if"),
            [_S("and"), [_S("%is-fiber-thread")],
             [_S("not"), _S("*vinz-force-sync*")],
             # adaptive-migration hook (Section 5 future work): under
             # the default policy this is always true
             [_S("%vinz-should-migrate"), operation.soap_action]],
            async_call,
            sync_call,
        ]
    invoker_form = [
        _S("defun"), fn_name, [_S("&key"), message_kw],
        doc,
        [_S("restart-case"),
         [_S("%parse-wsdl-response"), request],
         [_S("ignore"), [],
          [_S("log"), f"Ignoring an exception from {operation.name}"],
          None],
         [_S("retry"), [],
          [fn_name, Keyword("message"), message_kw]]],
    ]
    return [method_form, invoker_form]


@vm_function
def call_async(vm, soap_action, message):
    return {"kind": "service-call",
            "soap_action": str(soap_action),
            "values": _message_values(message)}


@vm_function
def call_sync(vm, soap_action, message):
    if vm.vinz is None:
        raise GozerRuntimeError(
            "synchronous service call outside a Vinz workflow")
    return vm.vinz.call_sync(str(soap_action), _message_values(message))


@vm_function
def should_migrate(vm, soap_action):
    if vm.vinz is None:
        return True
    return vm.vinz.should_migrate(str(soap_action))


@vm_function
def parse_response(vm, body):
    """Unwrap a response envelope; signal faults as conditions.

    "The function arranges for this QName to be signaled as an
    error, thus integrating distributed error conditions into Vinz
    handling" (Section 3.7).
    """
    if not isinstance(body, dict):
        return body
    if "fault" in body:
        condition = GozerCondition(
            message=body.get("message", ""),
            condition_type="service-error",
            qname=body["fault"])
        vm.signal(condition, error_p=True)
    return body.get("result")


#: the deflink stubs' VM intrinsics, by Gozer-visible name
_INTRINSICS = (
    ("call-wsdl-operation-async", call_async),
    ("call-wsdl-operation", call_sync),
    ("vinz-should-migrate", should_migrate),
    ("parse-wsdl-response", parse_response),
)


def install(runtime, workflow_service) -> None:
    """Install the deflink macro and its supporting intrinsics."""
    env = runtime.global_env
    vinz = workflow_service.vinz

    # -- intrinsics the generated code uses ------------------------------

    def make_service_message(operation):
        name = operation.name if isinstance(operation, Symbol) else str(operation)
        return ServiceMessage(name)

    env.define(_S("make-service-message"), make_service_message)

    for name, fn in _INTRINSICS:
        env.define_intrinsic(name, fn)

    # -- the deflink macro itself ------------------------------------------

    def m_deflink(prefix, *options):
        if not isinstance(prefix, Symbol):
            raise CompileError("deflink needs a prefix symbol")
        namespace: Optional[str] = None
        port: Optional[str] = None
        static_sync = False
        i = 0
        opts = list(options)
        while i < len(opts):
            key = opts[i]
            if not isinstance(key, Keyword) or i + 1 >= len(opts):
                raise CompileError(f"deflink: bad option {key!r}")
            value = opts[i + 1]
            i += 2
            if key.name == "wsdl":
                namespace = str(value)
            elif key.name == "port":
                port = str(value)
            elif key.name == "sync":
                static_sync = bool(value)
            else:
                raise CompileError(f"deflink: unknown option :{key.name}")
        if namespace is None:
            raise CompileError("deflink needs :wsdl \"urn:...\"")
        wsdl = vinz.resolve_wsdl(namespace, port)
        forms = generate_link_forms(prefix.name, wsdl, static_sync)
        # un-bridgeable operations become compile-time-error macros:
        # "if and only if the workflow tried to invoke that operation, a
        # compile-time error will occur and the workflow will not be
        # loaded"
        for operation in wsdl.operations.values():
            if operation.bridgeable:
                continue
            _register_error_stub(env, prefix.name, wsdl, operation)
        return [_S("progn"), *forms, [_S("quote"), prefix]]

    env.define_macro(_S("deflink"), GozerMacro(m_deflink, "deflink"))


def _register_error_stub(env, prefix: str, wsdl: WsdlDocument,
                         operation: WsdlOperation) -> None:
    name = f"{prefix}-{operation.name}"

    def error_stub(*_args):
        raise CompileError(
            f"operation {wsdl.service}.{operation.name} cannot be "
            f"invoked from Gozer (deflink generated an error stub)")

    env.define_macro(_S(name), GozerMacro(error_stub, name))
    env.define_macro(_S(name + "-Method"), GozerMacro(error_stub,
                                                      name + "-Method"))


def _message_values(message: Any) -> Dict[str, Any]:
    if isinstance(message, ServiceMessage):
        return dict(message.values)
    if isinstance(message, dict):
        return dict(message)
    if message is None:
        return {}
    if isinstance(message, list):
        # a Gozer plist: (:name value :name2 value2 ...)
        from ..lang.symbols import Keyword, Symbol

        out: Dict[str, Any] = {}
        if len(message) % 2 != 0:
            raise GozerRuntimeError(
                f"service message plist needs key/value pairs: {message!r}")
        for i in range(0, len(message), 2):
            key = message[i]
            if isinstance(key, (Keyword, Symbol)):
                out[key.name] = message[i + 1]
            else:
                out[str(key)] = message[i + 1]
        return out
    raise GozerRuntimeError(f"bad service message: {message!r}")
