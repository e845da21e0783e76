"""The Gozer compiler: s-expressions -> GVM bytecode.

The paper (Section 4.1) notes that compilation to bytecode "was
introduced as an optimization for Vinz persistence": a flat instruction
stream plus a small frame is far cheaper to serialize than a tree
interpreter's host stack (which could not be serialized at all).  This
compiler is a single pass over macro-expanded forms, emitting the
instruction set defined in :mod:`repro.lang.bytecode`, followed by one
walk over the finished unit that turns the ``load`` of every name the
unit never binds lexically into ``load-global``.

The compiler is parameterized by a :class:`GlobalEnvironment` (for macro
lookup and special-variable declarations) and an ``apply_fn`` callback
used to run user ``defmacro`` expanders (which are themselves compiled
Gozer functions and therefore need the runtime).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional

from .bytecode import CodeObject, ParamSpec
from .errors import CompileError
from .macros import is_listform, macroexpand
from .reader import Char
from .symbols import (
    Keyword,
    S_AMP_KEY,
    S_AMP_OPTIONAL,
    S_AMP_REST,
    Symbol,
    gensym,
)

_S = Symbol


class Compiler:
    """Compiles macro-expanded Gozer forms to :class:`CodeObject`."""

    def __init__(self, global_env=None, apply_fn: Optional[Callable] = None):
        self.global_env = global_env
        self.apply_fn = apply_fn
        self._special_forms = {
            "quote": self._c_quote,
            "if": self._c_if,
            "progn": self._c_progn,
            "let": self._c_let,
            "let*": self._c_let_star,
            "lambda": self._c_lambda,
            "fn": self._c_lambda,
            "defun": self._c_defun,
            "defvar": self._c_defvar,
            "defparameter": self._c_defvar,
            "setq": self._c_setq,
            "setf": self._c_setf,
            "function": self._c_function,
            "while": self._c_while,
            "and": self._c_and,
            "or": self._c_or,
            "block": self._c_block,
            "return-from": self._c_return_from,
            "return": self._c_return,
            "yield": self._c_yield,
            "push-cc": self._c_push_cc,
            "future": self._c_future,
            "unwind-protect": self._c_unwind_protect,
            "handler-bind": self._c_handler_bind,
            "restart-case": self._c_restart_case,
            "declare": self._c_declare,
            "the": self._c_the,
            ".": self._c_dot,
            "%": self._c_intrinsic,
        }
        #: additional setf place expanders: head symbol name ->
        #: fn(place_form, value_form) -> replacement form
        self.setf_expanders = dict(_DEFAULT_SETF_EXPANDERS)

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------

    def compile_toplevel(self, form: Any, name: str = "top-level",
                         closed: bool = True) -> CodeObject:
        """Compile one form into a zero-argument code object.

        A ``closed`` unit runs in an empty outer scope, so every lexical
        binding its code can see is one the unit itself makes and the
        references to any other name become ``load-global``.  Pass
        ``closed=False`` for code that will run inside a scope supplied
        at run time (``VM.run_code(code, env)``, default-value thunks).
        """
        code = CodeObject(name=name, source=form)
        self.compile_form(form, code, tail=False)
        code.emit("return")
        if closed:
            _globalize_free_loads(code, ())
        return code

    def compile_function(self, name: str, lambda_list: List[Any],
                         body: List[Any], doc: Optional[str] = None) -> CodeObject:
        """Compile a function body with the given lambda list."""
        params = self.parse_lambda_list(lambda_list)
        if doc is None and len(body) > 1 and isinstance(body[0], str):
            doc, body = body[0], body[1:]
        code = CodeObject(name=name, params=params, doc=doc)
        self.compile_body(body, code, tail=True)
        code.emit("return")
        return code

    # ------------------------------------------------------------------
    # core dispatch
    # ------------------------------------------------------------------

    def compile_form(self, form: Any, code: CodeObject, tail: bool = False) -> None:
        form = macroexpand(form, self.global_env, self.apply_fn)
        if isinstance(form, Symbol):
            self._compile_symbol(form, code)
            return
        if isinstance(form, (int, float, str, bool, Keyword, Char)) or form is None:
            code.emit("const", form)
            return
        if isinstance(form, list):
            if not form:
                code.emit("const", [])
                return
            head = form[0]
            if isinstance(head, Symbol):
                handler = self._special_forms.get(head.name)
                if handler is not None:
                    handler(form, code, tail)
                    return
            self._compile_call(form, code, tail)
            return
        # any other host object compiles as itself
        code.emit("const", form)

    def compile_body(self, body: List[Any], code: CodeObject, tail: bool = False) -> None:
        """Compile a sequence of forms; value of the last is the result."""
        if not body:
            code.emit("const", None)
            return
        for form in body[:-1]:
            self.compile_form(form, code, tail=False)
            code.emit("pop")
        self.compile_form(body[-1], code, tail=tail)

    def _compile_symbol(self, sym: Symbol, code: CodeObject) -> None:
        code.emit("load", sym)

    def _compile_call(self, form: List[Any], code: CodeObject, tail: bool) -> None:
        head, *args = form
        self.compile_form(head, code, tail=False)
        for arg in args:
            self.compile_form(arg, code, tail=False)
        code.emit("tail-call" if tail else "call", len(args))

    # ------------------------------------------------------------------
    # lambda lists
    # ------------------------------------------------------------------

    def parse_lambda_list(self, lambda_list: List[Any]) -> ParamSpec:
        if not isinstance(lambda_list, list):
            raise CompileError("lambda list must be a list", lambda_list)
        required: List[Symbol] = []
        optional: List = []
        keys: List = []
        rest: Optional[Symbol] = None
        mode = "required"
        it = iter(lambda_list)
        for item in it:
            if item is S_AMP_OPTIONAL:
                mode = "optional"
                continue
            if item is S_AMP_REST:
                mode = "rest"
                continue
            if item is S_AMP_KEY:
                mode = "key"
                continue
            if mode == "required":
                if not isinstance(item, Symbol):
                    raise CompileError(f"bad required parameter {item!r}", lambda_list)
                required.append(item)
            elif mode == "optional":
                optional.append(self._parse_defaulted_param(item))
            elif mode == "key":
                keys.append(self._parse_defaulted_param(item))
            elif mode == "rest":
                if rest is not None or not isinstance(item, Symbol):
                    raise CompileError("bad &rest parameter", lambda_list)
                rest = item
        return ParamSpec(
            required=tuple(required),
            optional=tuple(optional),
            rest=rest,
            keys=tuple(keys),
        )

    def _parse_defaulted_param(self, item: Any):
        if isinstance(item, Symbol):
            return (item, None)
        if is_listform(item) and isinstance(item[0], Symbol):
            default_form = item[1] if len(item) > 1 else None
            if default_form is None:
                return (item[0], None)
            # runs in the scope of the parameters bound before it
            default_code = self.compile_toplevel(
                default_form, name=f"default:{item[0].name}", closed=False)
            return (item[0], default_code)
        raise CompileError(f"bad defaulted parameter {item!r}")

    # ------------------------------------------------------------------
    # special forms
    # ------------------------------------------------------------------

    def _c_quote(self, form, code, tail):
        if len(form) != 2:
            raise CompileError("quote takes exactly one form", form)
        code.emit("const", form[1])

    def _c_if(self, form, code, tail):
        if len(form) not in (3, 4):
            raise CompileError("if takes (if test then [else])", form)
        _, test, then = form[:3]
        els = form[3] if len(form) == 4 else None
        self.compile_form(test, code, tail=False)
        jf = code.emit("jump-if-false")
        self.compile_form(then, code, tail=tail)
        jend = code.emit("jump")
        code.patch(jf, code.here)
        self.compile_form(els, code, tail=tail)
        code.patch(jend, code.here)

    def _c_progn(self, form, code, tail):
        self.compile_body(form[1:], code, tail=tail)

    def _c_let(self, form, code, tail):
        bindings, body = self._let_parts(form)
        # evaluate all value forms in the outer scope
        names = []
        for binding in bindings:
            name, value_form = self._binding_parts(binding)
            names.append(name)
            self.compile_form(value_form, code, tail=False)
        code.emit("push-scope")
        for name in reversed(names):
            # `let` of a special variable dynamically rebinds it (CL
            # semantics); lexical names get an ordinary binding.
            code.emit("dyn-bind" if self._is_special(name) else "bind", name)
        self.compile_body(body, code, tail=False)
        for name in names:
            if self._is_special(name):
                code.emit("dyn-unbind", name)
        code.emit("pop-scope")

    def _c_let_star(self, form, code, tail):
        bindings, body = self._let_parts(form)
        code.emit("push-scope")
        names = []
        for binding in bindings:
            name, value_form = self._binding_parts(binding)
            names.append(name)
            self.compile_form(value_form, code, tail=False)
            code.emit("dyn-bind" if self._is_special(name) else "bind", name)
        self.compile_body(body, code, tail=False)
        for name in reversed(names):
            if self._is_special(name):
                code.emit("dyn-unbind", name)
        code.emit("pop-scope")

    def _is_special(self, name: Symbol) -> bool:
        return self.global_env is not None and self.global_env.is_special(name)

    @staticmethod
    def _let_parts(form):
        if len(form) < 2 or not isinstance(form[1], list):
            raise CompileError("let needs a binding list", form)
        return form[1], form[2:]

    @staticmethod
    def _binding_parts(binding):
        if isinstance(binding, Symbol):
            return binding, None
        if is_listform(binding) and isinstance(binding[0], Symbol):
            value = binding[1] if len(binding) > 1 else None
            return binding[0], value
        raise CompileError(f"bad let binding {binding!r}")

    def _c_lambda(self, form, code, tail):
        if len(form) < 2:
            raise CompileError("lambda needs a lambda list", form)
        fn_code = self.compile_function("lambda", form[1], form[2:])
        code.emit("closure", fn_code)

    def _c_defun(self, form, code, tail):
        if len(form) < 3 or not isinstance(form[1], Symbol):
            raise CompileError("defun needs (defun name (args) body...)", form)
        name = form[1]
        fn_code = self.compile_function(name.name, form[2], form[3:])
        code.emit("closure", fn_code)
        code.emit("store-global", name)
        code.emit("const", name)

    def _c_defvar(self, form, code, tail):
        """(defvar name [value [doc]]) — declare a special variable.

        ``defvar`` keeps an existing value (standard CL behaviour);
        ``defparameter`` always overwrites.  Both rewrite to a call of
        the ``%defvar`` intrinsic.
        """
        if len(form) < 2 or not isinstance(form[1], Symbol):
            raise CompileError("defvar needs a symbol", form)
        name = form[1]
        if self.global_env is not None:
            self.global_env.declare_special(name)
        value_form = form[2] if len(form) > 2 else None
        keep_existing = form[0].name == "defvar"
        call = [_S("%defvar"), [_S("quote"), name], value_form,
                True if keep_existing else None]
        self.compile_form(call, code, tail=tail)

    def _c_setq(self, form, code, tail):
        if len(form) != 3 or not isinstance(form[1], Symbol):
            raise CompileError("setq needs (setq name value)", form)
        name, value = form[1], form[2]
        self.compile_form(value, code, tail=False)
        code.emit("dup")
        code.emit("store", name)

    def _c_setf(self, form, code, tail):
        if len(form) < 3:
            raise CompileError("setf needs (setf place value)", form)
        if len(form) > 3:
            # (setf p1 v1 p2 v2 ...) pairs
            pairs = form[1:]
            if len(pairs) % 2 != 0:
                raise CompileError("setf needs place/value pairs", form)
            body = []
            for i in range(0, len(pairs), 2):
                body.append([_S("setf"), pairs[i], pairs[i + 1]])
            self.compile_body(body, code, tail=tail)
            return
        place, value = form[1], form[2]
        place = macroexpand(place, self.global_env, self.apply_fn)
        if isinstance(place, Symbol):
            self._c_setq([form[0], place, value], code, tail)
            return
        if is_listform(place) and isinstance(place[0], Symbol):
            expander = self.setf_expanders.get(place[0].name)
            if expander is not None:
                self.compile_form(expander(place, value), code, tail=tail)
                return
        raise CompileError(f"setf: don't know how to set place {place!r}", form)

    def _c_function(self, form, code, tail):
        if len(form) != 2:
            raise CompileError("function takes one name", form)
        target = form[1]
        if isinstance(target, Symbol):
            code.emit("load", target)
        elif is_listform(target) and isinstance(target[0], Symbol) and \
                target[0].name in ("lambda", "fn"):
            self._c_lambda(target, code, tail)
        else:
            raise CompileError(f"function: bad designator {target!r}", form)

    def _c_while(self, form, code, tail):
        if len(form) < 2:
            raise CompileError("while needs a test", form)
        test, body = form[1], form[2:]
        top = code.here
        self.compile_form(test, code, tail=False)
        jexit = code.emit("jump-if-false")
        for stmt in body:
            self.compile_form(stmt, code, tail=False)
            code.emit("pop")
        code.emit("jump", top)
        code.patch(jexit, code.here)
        code.emit("const", None)

    def _c_and(self, form, code, tail):
        args = form[1:]
        if not args:
            code.emit("const", True)
            return
        jumps = []
        for arg in args[:-1]:
            self.compile_form(arg, code, tail=False)
            code.emit("dup")
            jumps.append(code.emit("jump-if-false"))
            code.emit("pop")
        self.compile_form(args[-1], code, tail=tail)
        for j in jumps:
            code.patch(j, code.here)

    def _c_or(self, form, code, tail):
        args = form[1:]
        if not args:
            code.emit("const", None)
            return
        jumps = []
        for arg in args[:-1]:
            self.compile_form(arg, code, tail=False)
            code.emit("dup")
            jumps.append(code.emit("jump-if-true"))
            code.emit("pop")
        self.compile_form(args[-1], code, tail=tail)
        for j in jumps:
            code.patch(j, code.here)

    def _c_block(self, form, code, tail):
        if len(form) < 2:
            raise CompileError("block needs a name", form)
        name = form[1]
        if name is not None and not isinstance(name, Symbol):
            raise CompileError("block name must be a symbol or nil", form)
        pb = code.emit("push-block")
        self.compile_body(form[2:], code, tail=False)
        code.emit("pop-block", 1)
        code.patch(pb, (name, code.here))

    def _c_return_from(self, form, code, tail):
        if len(form) not in (2, 3):
            raise CompileError("return-from needs (return-from name [value])", form)
        name = form[1]
        if name is not None and not isinstance(name, Symbol):
            raise CompileError("return-from name must be a symbol or nil", form)
        value = form[2] if len(form) == 3 else None
        self.compile_form(value, code, tail=False)
        code.emit("return-from", name)

    def _c_return(self, form, code, tail):
        value = form[1] if len(form) > 1 else None
        self._c_return_from([form[0], None, value], code, tail)

    def _c_yield(self, form, code, tail):
        value = form[1] if len(form) > 1 else None
        self.compile_form(value, code, tail=False)
        code.emit("yield")

    def _c_push_cc(self, form, code, tail):
        code.emit("push-cc")

    def _c_future(self, form, code, tail):
        body_code = CodeObject(name="future", params=ParamSpec())
        self.compile_body(form[1:], body_code, tail=True)
        body_code.emit("return")
        code.emit("spawn-future", body_code)

    def _c_unwind_protect(self, form, code, tail):
        if len(form) < 2:
            raise CompileError("unwind-protect needs a protected form", form)
        protected, cleanup = form[1], form[2:]
        cleanup_code = CodeObject(name="unwind-cleanup", params=ParamSpec())
        self.compile_body(cleanup, cleanup_code, tail=False)
        cleanup_code.emit("return")
        code.emit("push-unwind", cleanup_code)
        self.compile_form(protected, code, tail=False)
        code.emit("pop-unwind")

    def _c_handler_bind(self, form, code, tail):
        if len(form) < 2 or not isinstance(form[1], list):
            raise CompileError("handler-bind needs a binding list", form)
        bindings, body = form[1], form[2:]
        for binding in bindings:
            if not is_listform(binding) or len(binding) != 2:
                raise CompileError("handler binding must be (typespec fn)", binding)
            typespec, fn_form = binding
            code.emit("const", self._typespec_value(typespec))
            self.compile_form(fn_form, code, tail=False)
        code.emit("make-list", 2 * len(bindings))
        code.emit("push-handlers")
        self.compile_body(body, code, tail=False)
        code.emit("pop-handlers", 1)

    @staticmethod
    def _typespec_value(typespec: Any) -> Any:
        """Handler type specs are quoted symbols/strings or lists of them."""
        if is_listform(typespec) and typespec[0] is _S("quote"):
            return typespec[1]
        return typespec

    def _c_restart_case(self, form, code, tail):
        if len(form) < 2:
            raise CompileError("restart-case needs a protected form", form)
        protected, clauses = form[1], form[2:]
        names = []
        for clause in clauses:
            if not is_listform(clause) or len(clause) < 2 or \
                    not isinstance(clause[0], Symbol):
                raise CompileError("restart clause must be (name (args) body...)",
                                   clause)
            name, arglist, *body = clause
            clause_code = self.compile_function(
                f"restart:{name.name}", arglist, list(body))
            names.append(name)
            code.emit("closure", clause_code)
        pr = code.emit("push-restarts")
        self.compile_form(protected, code, tail=False)
        code.emit("pop-restarts", 1)
        code.patch(pr, (tuple(names), code.here))

    def _c_declare(self, form, code, tail):
        code.emit("const", None)

    def _c_the(self, form, code, tail):
        if len(form) != 3:
            raise CompileError("the needs (the type form)", form)
        self.compile_form(form[2], code, tail=tail)

    def _c_dot(self, form, code, tail):
        """(. obj (method args...)) or (. obj field) — host interop."""
        if len(form) < 3:
            raise CompileError(". needs an object and a member", form)
        obj, member = form[1], form[2]
        if is_listform(member) and isinstance(member[0], Symbol):
            call = [_S("%dot"), obj, [_S("quote"), member[0]], *member[1:]]
        elif isinstance(member, Symbol):
            call = [_S("%dot-field"), obj, [_S("quote"), member]]
        else:
            raise CompileError(f". member must be a symbol or call, got {member!r}", form)
        self.compile_form(call, code, tail=tail)

    def _c_intrinsic(self, form, code, tail):
        """(% name args...) calls the host intrinsic ``name``."""
        if len(form) < 2 or not isinstance(form[1], Symbol):
            raise CompileError("% needs an intrinsic name", form)
        call = [_S("%" + form[1].name), *form[2:]]
        self.compile_form(call, code, tail=tail)


def _globalize_free_loads(code: CodeObject, enclosing: Iterable[Symbol]) -> None:
    """Rewrite the ``load`` of every provably free name to ``load-global``.

    ``load`` searches the frame's scope chain, which holds only what
    this code object's parameters and ``bind`` instructions, and those
    of the code objects it is nested in, put there.  A name none of
    them binds anywhere (position is ignored: a ``let*`` closure sees
    bindings made after it was created) cannot be found on the chain,
    so its lookup may start at the dynamic bindings.  Default-value
    thunks are separate, open units and are left alone.
    """
    params = code.params
    bound = set(enclosing)
    bound.update(params.required)
    bound.update(name for name, _ in params.optional + params.keys)
    if params.rest is not None:
        bound.add(params.rest)
    instructions = code.instructions
    bound.update(arg for op, arg in instructions if op == "bind")
    for pc, (op, arg) in enumerate(instructions):
        if op == "load":
            if arg not in bound:
                instructions[pc] = ("load-global", arg)
        elif isinstance(arg, CodeObject):
            _globalize_free_loads(arg, bound)


# ---------------------------------------------------------------------------
# setf place expanders
# ---------------------------------------------------------------------------

def _setf_gethash(place, value):
    _, key, table, *default = place
    return [_S("%sethash"), key, table, value]


def _setf_car(place, value):
    return [_S("set-car!"), place[1], value]


def _setf_cdr(place, value):
    return [_S("set-cdr!"), place[1], value]


def _setf_nth(place, value):
    _, n, lst = place
    return [_S("set-nth!"), n, lst, value]


def _setf_elt(place, value):
    _, lst, n = place
    return [_S("set-nth!"), n, lst, value]


def _setf_dot(place, value):
    _, obj, member = place[:3]
    if not isinstance(member, Symbol):
        raise CompileError("setf of (. obj member) needs a field symbol", place)
    return [_S("%dot-setf"), obj, [_S("quote"), member], value]


def _setf_get_task_var(place, value):
    # (setf (%get-task-var 'name) v) — produced by the ^var^ reader
    # macro (paper Listings 4 and 5).
    _, name_form = place
    return [_S("%set-task-var"), name_form, value]


_DEFAULT_SETF_EXPANDERS = {
    "gethash": _setf_gethash,
    "car": _setf_car,
    "first": _setf_car,
    "cdr": _setf_cdr,
    "rest": _setf_cdr,
    "nth": _setf_nth,
    "elt": _setf_elt,
    ".": _setf_dot,
    "%get-task-var": _setf_get_task_var,
}
