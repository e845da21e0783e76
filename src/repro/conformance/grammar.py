"""Seeded, grammar-based Gozer program generator.

The generator emits :class:`GenProgram` values: a prelude of
definitions plus one main expression, drawn from a weighted grammar
over the compiler's special forms, the core macros, the stdlib
builtins, the condition system, futures, continuations and the Vinz
distribution macros (``for-each``/``parallel``/task variables).

Programs are grouped into three *strata* that decide which oracles can
legally run them (see docs/conformance.md):

* ``pure``    — no suspension points; every oracle applies.
* ``suspend`` — contains ``yield``/``push-cc``; the tree interpreter
  cannot run these (the paper's Section 4.1 argument) and a raw
  ``yield`` under Vinz becomes an ``await`` descriptor that is never
  answered, so only the VM oracles apply.
* ``dist``    — uses ``for-each``/``parallel``/task variables; Vinz
  runs the program distributed while the VM/tree oracles run the
  :func:`sequentialize` rewriting.

Termination is by construction: every loop the generator emits is a
bounded counting loop, recursion depth is bounded by the fuel budget,
and fan-out lists carry at most a handful of elements.

Determinism is by construction too: program ``i`` of seed ``s`` is a
pure function of ``(s, i)`` — the property the corpus reproduction
instructions in docs/conformance.md rely on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..lang.printer import print_form
from ..lang.symbols import Keyword, Symbol

_S = Symbol
_K = Keyword

# strata ------------------------------------------------------------------
PURE = "pure"
SUSPEND = "suspend"
DIST = "dist"
#: the generator's stratum mix: a program's stratum is drawn with these
#: relative weights
STRATUM_WEIGHTS: Dict[str, float] = {PURE: 0.55, SUSPEND: 0.15, DIST: 0.30}

# features (drive per-oracle classification) ------------------------------
F_SUSPEND = "suspend"
F_FUTURE = "future"
F_DIST = "distributed"
F_TASKVAR = "taskvar"
F_SPECIAL_VARS = "special-vars"
F_CONDITIONS = "conditions"
F_HOST = "host-interop"
F_DECLARE = "declare-the"
F_FANCY = "fancy-lambda"

#: features the tree-walking reference interpreter cannot evaluate; a
#: program whose *sequentialized* form carries one of these is expected
#: to diverge on the tree path and is classified, not flagged.
TREE_UNSUPPORTED: FrozenSet[str] = frozenset({
    F_SUSPEND, F_FUTURE, F_DIST, F_TASKVAR, F_SPECIAL_VARS,
    F_CONDITIONS, F_HOST, F_DECLARE, F_FANCY,
})

#: features that make a program unrunnable as a Vinz workflow: a raw
#: ``(yield v)`` is interpreted by the fiber scheduler as an ``await``
#: descriptor no service will ever answer.
VINZ_UNSUPPORTED: FrozenSet[str] = frozenset({F_SUSPEND})

#: builtins whose calls cannot route through the tree interpreter's
#: scratch VM (they need the live handler/restart/future machinery of
#: the *calling* VM, which the tree interpreter does not maintain).
CONDITION_FNS = frozenset({
    "signal", "error", "warn", "invoke-restart", "find-restart",
    "compute-restarts",
})
FUTURE_FNS = frozenset({"pcall", "future-p", "futurep", "determined-p"})

#: higher-order stdlib builtins that are pure given pure arguments: the
#: conformance tree interpreter may run these through a scratch VM.
SAFE_VM_FNS = frozenset({
    "mapcar", "map", "mapc", "mapcan", "filter", "remove-if",
    "remove-if-not", "reduce", "find-if", "position-if", "count-if",
    "every", "some", "sort", "funcall", "apply",
})


# ---------------------------------------------------------------------------
# registries (resolved lazily to avoid import cycles at module load)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def special_form_names() -> FrozenSet[str]:
    from ..lang.compiler import Compiler

    return frozenset(Compiler(None)._special_forms)


@lru_cache(maxsize=1)
def core_macro_names() -> FrozenSet[str]:
    from ..lang.macros import CORE_MACROS

    names = {sym.name for sym in CORE_MACROS}
    # the Vinz distribution macros, installed per WorkflowService
    names.update({"for-each", "parallel", "deftaskvar"})
    return frozenset(names)


@lru_cache(maxsize=1)
def builtin_names() -> FrozenSet[str]:
    from ..lang import stdlib

    out = set()
    for registry in (stdlib._REGISTRY, stdlib._VM_REGISTRY):
        for key in registry:
            out.add(key.name if isinstance(key, Symbol) else str(key))
    return frozenset(out)


# ---------------------------------------------------------------------------
# surface analysis: features + coverage marks from an AST
# ---------------------------------------------------------------------------

_FEATURE_BY_HEAD = {
    "yield": F_SUSPEND, "push-cc": F_SUSPEND,
    "future": F_FUTURE,
    "for-each": F_DIST, "parallel": F_DIST,
    "deftaskvar": F_TASKVAR,
    "%get-task-var": F_TASKVAR, "%set-task-var": F_TASKVAR,
    "defvar": F_SPECIAL_VARS, "defparameter": F_SPECIAL_VARS,
    "handler-bind": F_CONDITIONS, "restart-case": F_CONDITIONS,
    "unwind-protect": F_CONDITIONS, "handler-case": F_CONDITIONS,
    "ignore-errors": F_CONDITIONS, "with-simple-restart": F_CONDITIONS,
    "assert": F_CONDITIONS,
    "declare": F_DECLARE, "the": F_DECLARE,
    ".": F_HOST, "%": F_HOST,
}

_LAMBDA_HEADS = frozenset({"lambda", "fn"})


@dataclass
class Analysis:
    """Surface-walk result: oracle-relevant features + coverage marks.

    Marks are namespaced strings: ``sf:<name>`` for special forms,
    ``macro:<name>`` for core/distribution macros, ``fn:<name>`` for
    stdlib builtin references (head position or ``#'name``).
    """

    features: FrozenSet[str]
    marks: FrozenSet[str]


def analyze(forms: Sequence[Any]) -> Analysis:
    """Walk surface forms (pre-macroexpansion) for features and marks."""
    features: Set[str] = set()
    marks: Set[str] = set()
    specials = special_form_names()
    macros = core_macro_names()
    builtins = builtin_names()

    def note_fn(name: str) -> None:
        if name in builtins:
            marks.add("fn:" + name)
        if name in CONDITION_FNS:
            features.add(F_CONDITIONS)
        if name in FUTURE_FNS:
            features.add(F_FUTURE)
        if name in ("%get-task-var", "%set-task-var"):
            features.add(F_TASKVAR)

    def walk_params(params: Any) -> None:
        if not isinstance(params, list):
            return
        for p in params:
            if isinstance(p, Symbol) and p.name.startswith("&"):
                features.add(F_FANCY)
            elif isinstance(p, list):  # (name default) — optional/key
                for sub in p[1:]:
                    walk(sub)

    def walk(form: Any) -> None:
        if not isinstance(form, list) or not form:
            return
        head = form[0]
        if not isinstance(head, Symbol):
            for item in form:
                walk(item)
            return
        name = head.name
        feature = _FEATURE_BY_HEAD.get(name)
        if feature is not None:
            features.add(feature)
        if name in specials:
            marks.add("sf:" + name)
        elif name in macros:
            marks.add("macro:" + name)
        else:
            note_fn(name)
        if name == "quote":
            return  # quoted data is not code
        if name in _LAMBDA_HEADS and len(form) >= 2:
            walk_params(form[1])
            for body_form in form[2:]:
                walk(body_form)
            return
        if name == "defun" and len(form) >= 3:
            walk_params(form[2])
            for body_form in form[3:]:
                walk(body_form)
            return
        if name == "function" and len(form) == 2 and \
                isinstance(form[1], Symbol):
            note_fn(form[1].name)
            return
        for item in form[1:]:
            walk(item)

    for top in forms:
        walk(top)
    return Analysis(frozenset(features), frozenset(marks))


# ---------------------------------------------------------------------------
# sequentialize: the dist -> plain-Gozer rewriting
# ---------------------------------------------------------------------------

def sequentialize(form: Any) -> Any:
    """Rewrite the distributed forms into their sequential equivalents.

    * ``(for-each (v in seq . opts) body...)`` -> ``(mapcar (lambda (v)
      body...) seq)`` — for-each collects child-fiber results in item
      order, which is exactly mapcar's contract.
    * ``(parallel f1 .. fn)`` -> ``(list f1 .. fn)``.
    * ``(deftaskvar v [doc] [default])`` -> ``(setq v default)`` — a
      plain global, matching the single-task/single-writer discipline
      the generator enforces for task variables.
    * ``(%get-task-var 'v^)`` -> ``v`` and ``(%set-task-var 'v^ e)``
      -> ``(setq v e)``.

    Non-distributed forms pass through structurally unchanged.
    """
    if not isinstance(form, list) or not form:
        return form
    head = form[0]
    if isinstance(head, Symbol):
        name = head.name
        if name == "quote":
            return form
        if name == "for-each" and len(form) >= 2 and \
                isinstance(form[1], list) and len(form[1]) >= 3:
            var, _in, seq = form[1][:3]
            body = [sequentialize(f) for f in form[2:]]
            return [_S("mapcar"), [_S("lambda"), [var], *body],
                    sequentialize(seq)]
        if name == "parallel":
            return [_S("list"), *[sequentialize(f) for f in form[1:]]]
        if name == "deftaskvar" and len(form) >= 2:
            default = None
            for item in form[2:]:
                if not isinstance(item, str):
                    default = item
            return [_S("setq"), _plain_taskvar(form[1]),
                    sequentialize(default)]
        if name == "%get-task-var" and len(form) == 2:
            return _plain_taskvar(form[1])
        if name == "%set-task-var" and len(form) == 3:
            return [_S("setq"), _plain_taskvar(form[1]),
                    sequentialize(form[2])]
    return [sequentialize(item) for item in form]


def _plain_taskvar(quoted: Any) -> Symbol:
    """``(quote counter^)`` -> the global symbol ``counter``."""
    sym = quoted
    if isinstance(quoted, list) and len(quoted) == 2 and \
            isinstance(quoted[0], Symbol) and quoted[0].name == "quote":
        sym = quoted[1]
    if isinstance(sym, Symbol):
        return _S(sym.name.strip("^"))
    raise ValueError(f"not a task-var designator: {quoted!r}")


# ---------------------------------------------------------------------------
# the program value
# ---------------------------------------------------------------------------

@dataclass
class GenProgram:
    """One generated (or corpus-loaded) conformance program."""

    prelude: List[Any] = field(default_factory=list)
    body: Any = None
    feeds: Tuple[int, ...] = ()
    stratum: str = PURE
    name: str = "anonymous"
    seed: Optional[int] = None
    index: Optional[int] = None
    note: str = ""

    @property
    def forms(self) -> List[Any]:
        return list(self.prelude) + [self.body]

    @property
    def source(self) -> str:
        return "\n".join(print_form(f) for f in self.forms)

    @property
    def sequential_forms(self) -> List[Any]:
        return [sequentialize(f) for f in self.forms]

    @property
    def sequential_source(self) -> str:
        return "\n".join(print_form(f) for f in self.sequential_forms)

    @property
    def vinz_source(self) -> str:
        """The program as a Vinz workflow: the body becomes ``main``."""
        forms = list(self.prelude) + [
            [_S("defun"), _S("main"), [_S("params")], self.body]]
        return "\n".join(print_form(f) for f in forms)

    @property
    def analysis(self) -> Analysis:
        return analyze(self.forms)

    @property
    def features(self) -> FrozenSet[str]:
        return self.analysis.features

    @property
    def sequential_features(self) -> FrozenSet[str]:
        return analyze(self.sequential_forms).features


# ---------------------------------------------------------------------------
# builtin call templates
# ---------------------------------------------------------------------------
#
# Each template is (name, result-type, arg-tokens).  Tokens:
#   i   int expression          p   positive int literal (1..6)
#   n   small nat literal 0..3  b   bool expression
#   L   list-of-int expression  Lf  freshly-constructed list (mutable)
#   s   string expression       a   any-data expression
#   k   keyword literal         S   quoted symbol literal
#   f1i int->int function       f1b int->bool predicate
#   f2i (int,int)->int function h   fresh hash-table expression
#   c   condition expression    chr character expression
#   sl  list-of-strings         pl  literal plist       al  literal alist
#   :x  the keyword :x itself   "…" the literal string
#
# Result types: i int, b bool, L list, s string, a any, k keyword.

TEMPLATES: List[Tuple[str, str, Tuple[str, ...]]] = [
    # arithmetic
    ("+", "i", ("i", "i")), ("+", "i", ("i", "i", "i")),
    ("-", "i", ("i", "i")), ("*", "i", ("i", "i")),
    ("/", "a", ("i", "p")),
    ("1+", "i", ("i",)), ("1-", "i", ("i",)),
    ("abs", "i", ("i",)), ("min", "i", ("i", "i")),
    ("max", "i", ("i", "i")), ("mod", "i", ("i", "p")),
    ("rem", "i", ("i", "p")), ("gcd", "i", ("i", "i")),
    ("expt", "i", ("n", "n")),
    ("floor", "i", ("i", "p")), ("ceiling", "i", ("i", "p")),
    ("round", "i", ("i", "p")), ("truncate", "i", ("i", "p")),
    ("sqrt", "a", ("p",)), ("log", "a", ("p",)),
    ("clamp", "i", ("i", "n", "p")),
    ("evenp", "b", ("i",)), ("oddp", "b", ("i",)),
    ("zerop", "b", ("i",)), ("plusp", "b", ("i",)),
    ("minusp", "b", ("i",)),
    ("numberp", "b", ("a",)), ("integerp", "b", ("a",)),
    ("floatp", "b", ("a",)),
    ("parse-integer", "i", ('"-42"',)),
    ("parse-float", "a", ('"2.5"',)),
    ("number-to-string", "s", ("i",)),
    # comparison / equality / logic
    ("<", "b", ("i", "i")), ("<=", "b", ("i", "i")),
    (">", "b", ("i", "i")), (">=", "b", ("i", "i")),
    ("=", "b", ("i", "i")), ("/=", "b", ("i", "i")),
    ("eq", "b", ("k", "k")), ("eql", "b", ("i", "i")),
    ("equal", "b", ("a", "a")), ("equalp", "b", ("a", "a")),
    ("not", "b", ("b",)), ("null", "b", ("a",)),
    ("atom", "b", ("a",)), ("booleanp", "b", ("a",)),
    # lists
    ("list", "L", ("i", "i", "i")), ("list*", "L", ("i", "L")),
    ("cons", "L", ("i", "L")), ("car", "a", ("L",)),
    ("cdr", "L", ("L",)), ("first", "a", ("L",)),
    ("second", "a", ("L",)), ("third", "a", ("L",)),
    ("rest", "L", ("L",)), ("last", "L", ("L",)),
    ("butlast", "L", ("L",)), ("nth", "a", ("n", "L")),
    ("nthcdr", "L", ("n", "L")), ("append", "L", ("L", "L")),
    ("append!", "L", ("Lf", "i")), ("copy-list", "L", ("L",)),
    ("reverse", "L", ("L",)), ("length", "i", ("L",)),
    ("elt", "a", ("Lf", "n")), ("subseq", "L", ("L", "n")),
    ("member", "L", ("i", "L")), ("position", "a", ("i", "L")),
    ("count", "i", ("i", "L")), ("remove", "L", ("i", "L")),
    ("remove-duplicates", "L", ("L",)), ("find", "a", ("i", "L")),
    ("range", "L", ("p",)), ("range", "L", ("n", "p")),
    ("to-list", "L", ("L",)), ("consp", "b", ("a",)),
    ("listp", "b", ("a",)), ("vector", "L", ("i", "i")),
    ("set-car!", "a", ("Lf", "i")), ("set-cdr!", "a", ("Lf", "L")),
    ("set-nth!", "a", ("n", "Lf", "i")),
    ("assoc", "a", ("al", "n")), ("getf", "a", ("pl", ":a")),
    # higher-order (scratch-VM-safe in the tree oracle)
    ("mapcar", "L", ("f1i", "L")), ("map", "L", ("f1i", "L")),
    ("mapc", "L", ("f1i", "L")), ("mapcan", "L", ("f1L", "L")),
    ("filter", "L", ("f1b", "L")), ("remove-if", "L", ("f1b", "L")),
    ("remove-if-not", "L", ("f1b", "L")),
    ("reduce", "i", ("f2i", "L", "i")),
    ("find-if", "a", ("f1b", "L")), ("position-if", "a", ("f1b", "L")),
    ("count-if", "i", ("f1b", "L")), ("every", "b", ("f1b", "L")),
    ("some", "a", ("f1b", "L")),
    ("sort", "L", ("L",)), ("sort", "L", ("L", "f2b")),
    ("funcall", "i", ("f1i", "i")), ("apply", "i", ("f2i", "i", "L1")),
    ("identity", "a", ("a",)), ("functionp", "b", ("f1i",)),
    ("funcall", "a", ("constantly-a",)),
    ("touch", "a", ("a",)),
    # strings
    ("concat", "s", ("s", "s")), ("concatenate-strings", "s", ("s", "s")),
    ("string", "s", ("a",)), ("string-upcase", "s", ("s",)),
    ("string-downcase", "s", ("s",)),
    ("string-join", "s", ("sl", '" "')), ("string-split", "sl", ("s",)),
    ("string-trim", "s", ('" "', "s")),
    ("starts-with-p", "b", ("s", "s")), ("ends-with-p", "b", ("s", "s")),
    ("string-contains-p", "b", ("s", "s")),
    ("string<", "b", ("s", "s")), ("string=", "b", ("s", "s")),
    ("stringp", "b", ("a",)), ("symbol-name", "s", ("S",)),
    ("prin1-to-string", "s", ("a",)), ("princ-to-string", "s", ("a",)),
    ("intern", "a", ("s",)), ("keyword", "k", ('"kw"',)),
    ("make-keyword", "k", ('"mk"',)), ("keywordp", "b", ("a",)),
    ("symbolp", "b", ("S",)),
    ("format", "s", ("nil-lit", '"~a+~d"', "a", "i")),
    # hash tables (constructed fresh, read back immediately)
    ("hash-count", "i", ("h",)), ("hash-keys", "L", ("h",)),
    ("hash-values", "L", ("h",)), ("hash-table-p", "b", ("h",)),
    ("hash-contains-p", "b", ("k", "h")),
    ("gethash", "a", ("k", "h", "i")),
    ("remhash", "a", ("k", "h")),
    # characters
    ("char-code", "i", ("chr",)), ("characterp", "b", ("chr",)),
    ("code-char", "a", ("charcode",)),
    # conditions (data constructors; control flow handled by garnish)
    ("condition-type", "s", ("c",)), ("condition-message", "s", ("c",)),
    ("condition-qname", "a", ("c",)),
]

#: names deliberately not generated, with the reason — surfaced in the
#: coverage report so generator gaps stay visible rather than silent.
EXCLUDED_BUILTINS: Dict[str, str] = {
    "%clock-sleep": "advances the runtime clock (oracle-relative)",
    "sleep": "advances the runtime clock (oracle-relative)",
    "get-universal-time": "reads the runtime clock (oracle-relative)",
    "random": "draws from the per-runtime RNG (oracle-relative)",
    "gensym": "fresh-name counters differ across engines",
    "define-condition": "mutates the process-global condition hierarchy",
    "prin1": "writes to host stdout",
    "princ": "writes to host stdout",
    "print": "writes to host stdout",
    "terpri": "writes to host stdout",
    "warn": "writes to host stderr",
    "constantly": "returns an opaque closure (compared via funcall only)",
    "make-condition": "constructed indirectly by condition accessors",
    "make-hash-table": "constructed indirectly by the hash templates",
    "error": "raised indirectly by the condition-control garnish",
    "signal": "raised indirectly by the condition-control garnish",
    "invoke-restart": "exercised inside the restart-case garnish",
    "find-restart": "exercised inside the restart-case garnish",
    "compute-restarts": "exercised inside the restart-case garnish",
}

#: the float operands of the pure stratum's mixed arithmetic
_FLOATS = (-0.0, 0.0, 0.5, -2.5, 1.25, 3.0)

#: the restricted template pool for the suspend stratum: everything
#: here keeps only picklable values on the operand stack, so a
#: continuation captured mid-expression round-trips through pickle.
_SUSPEND_SAFE = frozenset({
    "+", "-", "*", "1+", "1-", "abs", "min", "max", "mod",
    "list", "car", "cdr", "length", "append", "reverse", "cons",
    "nth", "not", "<", ">", "<=", ">=", "=", "evenp", "oddp", "zerop",
})


# ---------------------------------------------------------------------------
# the generator
# ---------------------------------------------------------------------------

class _Ctx:
    """Mutable generation context: scope, fuel, suspension rights."""

    def __init__(self, rng: random.Random, fuel: int, stratum: str):
        self.rng = rng
        self.fuel = fuel
        self.stratum = stratum
        self.int_vars: List[Symbol] = []
        self.list_vars: List[Symbol] = []
        self.str_vars: List[Symbol] = []
        self.helpers: List[Tuple[Symbol, int]] = []  # (name, arity)
        self.taskvars: List[Symbol] = []
        #: yields may only be placed on the fiber's own control spine
        #: (depth 1): not inside lambdas, futures, handlers or cleanups
        self.can_suspend = False
        self.yield_budget = 0
        #: mutation of outer bindings is illegal inside for-each bodies
        #: (child fibers get a cloned environment)
        self.can_mutate_outer = True
        #: loop induction variables: readable, but never setq/incf/decf
        #: targets — mutating the governor can unbound the loop
        self.frozen_vars: set = set()

    def spend(self, n: int = 1) -> bool:
        self.fuel -= n
        return self.fuel > 0

    def fresh(self, prefix: str) -> Symbol:
        return _S(f"{prefix}{self.rng.randrange(10_000)}x{self.fuel}")


class ProgramGenerator:
    """Deterministic weighted generator over the Gozer grammar."""

    def __init__(self, seed: int):
        self.seed = seed

    # -- public --------------------------------------------------------

    def generate(self, index: int) -> GenProgram:
        rng = random.Random((self.seed * 1_000_003 + index) & 0xFFFFFFFF)
        roll = rng.random()
        total = sum(STRATUM_WEIGHTS.values())
        acc = 0.0
        stratum = PURE
        for name, weight in STRATUM_WEIGHTS.items():
            acc += weight / total
            if roll < acc:
                stratum = name
                break
        ctx = _Ctx(rng, fuel=rng.randint(25, 60), stratum=stratum)
        if stratum == SUSPEND:
            ctx.can_suspend = True
            ctx.yield_budget = rng.randint(1, 4)
        prelude = self._gen_prelude(ctx, index)
        body = self._gen_body(ctx, index)
        feeds = tuple(rng.randint(-9, 9) for _ in range(8)) \
            if stratum == SUSPEND else ()
        return GenProgram(prelude=prelude, body=body, feeds=feeds,
                          stratum=stratum, seed=self.seed, index=index,
                          name=f"seed{self.seed}-{index:04d}")

    def programs(self, budget: int) -> List[GenProgram]:
        return [self.generate(i) for i in range(budget)]

    # -- prelude -------------------------------------------------------

    def _gen_prelude(self, ctx: _Ctx, index: int) -> List[Any]:
        rng = ctx.rng
        prelude: List[Any] = []
        for hk in range(rng.randint(0, 2)):
            name = _S(f"helper{index % 97}n{hk}")
            arity = rng.randint(1, 2)
            params = [_S("a"), _S("b")][:arity]
            sub = _Ctx(rng, fuel=8, stratum=PURE)
            sub.int_vars = list(params)
            body = self._int(sub)
            prelude.append([_S("defun"), name, params, body])
            ctx.helpers.append((name, arity))
        if ctx.stratum == PURE and rng.random() < 0.12:
            head = _S(rng.choice(["defvar", "defparameter"]))
            var = _S(f"*conf-g{index % 53}*")
            prelude.append([head, var, rng.randint(0, 20)])
            ctx.int_vars.append(var)
        if ctx.stratum == DIST and rng.random() < 0.5:
            for tk in range(rng.randint(1, 2)):
                var = _S(f"tv{index % 41}n{tk}")
                prelude.append([_S("deftaskvar"), var, rng.randint(0, 9)])
                ctx.taskvars.append(var)
        return prelude

    # -- body ----------------------------------------------------------

    def _gen_body(self, ctx: _Ctx, index: int) -> Any:
        if ctx.stratum == DIST:
            return self._dist_body(ctx)
        result = self._result_expr(ctx)
        garnish = self._garnish(ctx, index)
        if garnish:
            return [_S("progn"), *garnish, result]
        return result

    def _result_expr(self, ctx: _Ctx) -> Any:
        rng = ctx.rng
        kind = rng.random()
        if ctx.stratum == SUSPEND:
            return self._suspend_spine(ctx)
        if kind < 0.08 and ctx.stratum == PURE:
            # printed, so the sign of a zero is part of the outcome
            return [_S("list"), *[self._number(ctx) for _ in range(3)]]
        if kind < 0.45:
            return self._int(ctx)
        if kind < 0.65:
            return self._list(ctx)
        if kind < 0.75:
            return self._string(ctx)
        if kind < 0.85:
            return self._bool(ctx)
        return self._any(ctx)

    # -- integer expressions -------------------------------------------

    def _int(self, ctx: _Ctx) -> Any:
        rng = ctx.rng
        if not ctx.spend() or rng.random() < 0.25:
            return self._int_leaf(ctx)
        roll = rng.random()
        if roll < 0.30:
            return self._template_call(ctx, ret="i")
        if roll < 0.42:
            return [_S("if"), self._bool(ctx), self._int(ctx),
                    self._int(ctx)]
        if roll < 0.54:
            return self._let_block(ctx, self._int)
        if roll < 0.62 and ctx.helpers:
            name, arity = rng.choice(ctx.helpers)
            return [name, *[self._int(ctx) for _ in range(arity)]]
        if roll < 0.70:
            return self._counting_loop(ctx)
        if roll < 0.78:
            lam = self._fn_expr(ctx, "f1i")
            return [_S("funcall"), lam, self._int(ctx)]
        if roll < 0.86:
            return [_S("length"), self._list(ctx)]
        if roll < 0.93 and ctx.can_suspend and ctx.yield_budget > 0:
            ctx.yield_budget -= 1
            return [_S("yield"), self._int_leaf(ctx)]
        return [_S(rng.choice(["+", "-", "*"])), self._int(ctx),
                self._int(ctx)]

    def _number(self, ctx: _Ctx, depth: int = 0) -> Any:
        """Mixed int/float arithmetic over the eight primitives (pure
        stratum): float literals, -0.0 among them, ints and both mixed,
        so the fast loop's inline arithmetic meets what the function
        answers.  Shallow, so the sign of a zero sum can still reach
        the printed result; the floats stay small: no nan, which is not
        equal to itself, so a replay could not match it."""
        rng = ctx.rng
        if depth == 2 or not ctx.spend() \
                or rng.random() < 0.3 + 0.35 * depth:
            roll = rng.random()
            if roll < 0.35:
                return -0.0  # the zero whose sign a sum must keep
            if roll < 0.7:
                return rng.choice(_FLOATS)
            return self._int_leaf(ctx)
        if rng.random() < 0.1:
            return [_S(rng.choice(["+", "-"])),
                    self._number(ctx, depth + 1)]
        return [_S(rng.choice(["+", "-", "*"])),
                self._number(ctx, depth + 1), self._number(ctx, depth + 1)]

    def _int_leaf(self, ctx: _Ctx) -> Any:
        rng = ctx.rng
        if ctx.int_vars and rng.random() < 0.5:
            return rng.choice(ctx.int_vars)
        return rng.randint(-20, 99)

    def _counting_loop(self, ctx: _Ctx) -> Any:
        """Bounded accumulation loop: the only loops the grammar emits.

        The induction variable is readable inside the generated body
        but frozen against mutation — a ``setq``/``decf`` on the loop
        governor would unbound the loop (found as a fuzzer-hang on
        seed 7, index 57: ``decf`` of a ``loop for`` variable).
        """
        rng = ctx.rng
        n = rng.randint(1, 5)
        i = ctx.fresh("i")
        acc = ctx.fresh("acc")
        saved = list(ctx.int_vars)
        saved_frozen = set(ctx.frozen_vars)
        ctx.int_vars = saved + [i, acc]
        ctx.frozen_vars = saved_frozen | {i.name}
        try:
            style = rng.random()
            if style < 0.30:
                step = self._int(ctx)
                return [_S("let"), [[acc, 0]],
                        [_S("dotimes"), [i, n],
                         [_S("setq"), acc, [_S("+"), acc, step]]],
                        acc]
            if style < 0.55:
                step = self._int(ctx)
                return [_S("let"), [[acc, 0], [i, n]],
                        [_S("while"), [_S(">"), i, 0],
                         [_S("setq"), acc, [_S("+"), acc, step]],
                         [_S("setq"), i, [_S("-"), i, 1]]],
                        acc]
            if style < 0.80:
                ctx.int_vars = saved + [i]
                body = self._int(ctx)
                return [_S("loop"), _S("for"), i, _S("from"), 1,
                        _S("to"), n, _S("sum"), body]
            step = self._int(ctx)
            # the list is evaluated before i is bound
            ctx.int_vars = saved + [acc]
            items = self._list_literal(ctx)
            return [_S("let"), [[acc, 0]],
                    [_S("dolist"), [i, items],
                     [_S("setq"), acc, [_S("+"), acc, step]]],
                    acc]
        finally:
            ctx.int_vars = saved
            ctx.frozen_vars = saved_frozen

    def _let_block(self, ctx: _Ctx, result_gen) -> Any:
        rng = ctx.rng
        head = _S(rng.choice(["let", "let*"]))
        bindings = []
        saved = list(ctx.int_vars)
        # a let* initform sees the variables bound before it; a let
        # initform sees none of its siblings
        sequential = head.name == "let*"
        for _ in range(rng.randint(1, 3)):
            var = ctx.fresh("v")
            bindings.append([var, self._int(ctx)])
            if sequential:
                ctx.int_vars.append(var)
        if not sequential:
            ctx.int_vars.extend(var for var, _ in bindings)
        stmts = [self._statement(ctx) for _ in range(rng.randint(0, 2))]
        result = result_gen(ctx)
        ctx.int_vars = saved
        return [head, bindings, *stmts, result]

    def _statement(self, ctx: _Ctx) -> Any:
        rng = ctx.rng
        roll = rng.random()
        mutable = [v for v in ctx.int_vars
                   if v.name not in ctx.frozen_vars]
        if roll < 0.40 and mutable and ctx.can_mutate_outer:
            return [_S("setq"), rng.choice(mutable), self._int(ctx)]
        if roll < 0.55 and mutable and ctx.can_mutate_outer:
            head = _S(rng.choice(["incf", "decf"]))
            return [head, rng.choice(mutable)]
        if roll < 0.70:
            return [_S(rng.choice(["when", "unless"])), self._bool(ctx),
                    self._int(ctx)]
        if roll < 0.80 and ctx.can_suspend and ctx.yield_budget > 0:
            ctx.yield_budget -= 1
            return [_S("yield"), self._int_leaf(ctx)]
        return self._int(ctx)

    # -- other types ---------------------------------------------------

    def _bool(self, ctx: _Ctx) -> Any:
        rng = ctx.rng
        if not ctx.spend() or rng.random() < 0.3:
            return rng.choice(
                [True, False, [_S("evenp"), self._int_leaf(ctx)]])
        roll = rng.random()
        if roll < 0.10 and ctx.stratum == PURE:
            return [_S(rng.choice(["<", ">", "<=", ">=", "="])),
                    self._number(ctx), self._number(ctx)]
        if roll < 0.35:
            return [_S(rng.choice(["<", ">", "<=", ">=", "=", "/="])),
                    self._int(ctx), self._int(ctx)]
        if roll < 0.55:
            return [_S(rng.choice(["and", "or"])), self._bool(ctx),
                    self._bool(ctx)]
        if roll < 0.65:
            return [_S("not"), self._bool(ctx)]
        return self._template_call(ctx, ret="b")

    def _list(self, ctx: _Ctx) -> Any:
        rng = ctx.rng
        if not ctx.spend() or rng.random() < 0.35:
            return self._list_literal(ctx)
        if ctx.list_vars and rng.random() < 0.25:
            return rng.choice(ctx.list_vars)
        return self._template_call(ctx, ret="L")

    def _list_literal(self, ctx: _Ctx) -> Any:
        rng = ctx.rng
        n = rng.randint(0, 5)
        return [_S("list"), *[self._int_leaf(ctx) for _ in range(n)]]

    def _string(self, ctx: _Ctx) -> Any:
        rng = ctx.rng
        if not ctx.spend() or rng.random() < 0.45:
            return self._string_literal(rng)
        return self._template_call(ctx, ret="s")

    @staticmethod
    def _string_literal(rng: random.Random) -> str:
        alphabet = "abcdefg hij-k"
        return "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(0, 8)))

    def _keyword(self, ctx: _Ctx) -> Any:
        return _K(ctx.rng.choice(
            ["alpha", "beta", "gamma", "delta", "big", "small", "ok"]))

    def _any(self, ctx: _Ctx) -> Any:
        roll = ctx.rng.random()
        if roll < 0.35:
            return self._int(ctx)
        if roll < 0.5:
            return self._string(ctx)
        if roll < 0.65:
            return self._keyword(ctx)
        if roll < 0.8:
            return self._list(ctx)
        if roll < 0.9:
            return self._bool(ctx)
        if roll < 0.95 and ctx.stratum == PURE:
            return self._number(ctx)
        return None

    # -- templates -----------------------------------------------------

    def _template_call(self, ctx: _Ctx, ret: str) -> Any:
        rng = ctx.rng
        pool = [t for t in TEMPLATES if t[1] == ret]
        if ctx.stratum == SUSPEND:
            pool = [t for t in pool if t[0] in _SUSPEND_SAFE]
        if not pool:
            return self._int_leaf(ctx)
        name, _ret, tokens = rng.choice(pool)
        return self._instantiate(ctx, name, tokens)

    def _instantiate(self, ctx: _Ctx, name: str,
                     tokens: Tuple[str, ...]) -> Any:
        return [_S(name), *[self._arg(ctx, tok) for tok in tokens]]

    def _arg(self, ctx: _Ctx, token: str) -> Any:
        rng = ctx.rng
        if token.startswith('"'):
            return token.strip('"')
        if token.startswith(":"):
            return _K(token[1:])
        if token == "i":
            return self._int(ctx)
        if token == "p":
            return rng.randint(1, 6)
        if token == "n":
            return rng.randint(0, 3)
        if token == "b":
            return self._bool(ctx)
        if token == "L":
            return self._list(ctx)
        if token == "Lf":
            return [_S("list"),
                    *[rng.randint(0, 9) for _ in range(rng.randint(1, 4))]]
        if token == "L1":
            return [_S("list"),
                    *[rng.randint(0, 9) for _ in range(rng.randint(1, 4))]]
        if token == "s":
            return self._string(ctx)
        if token == "sl":
            return [_S("list"),
                    *[self._string_literal(rng) for _ in range(rng.randint(1, 3))]]
        if token == "a":
            return self._any(ctx)
        if token == "k":
            return self._keyword(ctx)
        if token == "S":
            return [_S("quote"), _S(rng.choice(["alpha", "beta", "gam"]))]
        if token == "nil-lit":
            return None
        if token == "charcode":
            return rng.randint(65, 90)
        if token == "chr":
            return [_S("code-char"), rng.randint(97, 122)]
        if token == "h":
            pairs = []
            for _ in range(rng.randint(0, 3)):
                pairs.append((self._keyword(ctx), rng.randint(0, 9)))
            h = ctx.fresh("h")
            sets = [[_S("setf"), [_S("gethash"), key, h], value]
                    for key, value in pairs]
            return [_S("let"), [[h, [_S("make-hash-table")]]], *sets, h]
        if token == "c":
            return [_S("make-condition"), "conf-error",
                    self._string_literal(rng)]
        if token == "al":
            return [_S("list"),
                    *[[_S("list"), k, rng.randint(0, 9)]
                      for k in range(rng.randint(1, 4))]]
        if token == "pl":
            return [_S("list"), _K("a"), rng.randint(0, 9),
                    _K("b"), rng.randint(0, 9)]
        if token in ("f1i", "f1b", "f2i", "f2b", "f1L", "constantly-a"):
            return self._fn_expr(ctx, token)
        raise ValueError(f"unknown template token {token!r}")

    def _fn_expr(self, ctx: _Ctx, kind: str) -> Any:
        rng = ctx.rng
        if kind == "constantly-a":
            return [_S("constantly"), self._any(ctx)]
        if kind == "f1i":
            if rng.random() < 0.4:
                return [_S("function"),
                        _S(rng.choice(["1+", "1-", "abs"]))]
            var = ctx.fresh("x")
            saved = list(ctx.int_vars)
            ctx.int_vars = [var]
            suspend_saved = ctx.can_suspend
            ctx.can_suspend = False  # lambdas run in nested loops
            body = self._int(ctx)
            ctx.int_vars = saved
            ctx.can_suspend = suspend_saved
            return [_S(rng.choice(["lambda", "fn"])), [var], body]
        if kind == "f1b":
            if rng.random() < 0.5:
                return [_S("function"),
                        _S(rng.choice(["evenp", "oddp", "plusp",
                                       "minusp", "zerop"]))]
            var = ctx.fresh("x")
            return [_S("lambda"), [var],
                    [_S(rng.choice(["<", ">", "=", ">="])), var,
                     rng.randint(-5, 5)]]
        if kind == "f2i":
            if rng.random() < 0.6:
                return [_S("function"),
                        _S(rng.choice(["+", "-", "*", "max", "min"]))]
            a, b = ctx.fresh("a"), ctx.fresh("b")
            return [_S("lambda"), [a, b],
                    [_S("+"), a, [_S("*"), 2, b]]]
        if kind == "f2b":
            return [_S("function"), _S(rng.choice([">", "<"]))]
        if kind == "f1L":
            var = ctx.fresh("x")
            return [_S("lambda"), [var], [_S("list"), var, var]]
        raise ValueError(kind)

    # -- suspend stratum -----------------------------------------------

    def _suspend_spine(self, ctx: _Ctx) -> Any:
        """The main control spine of a suspend-stratum program."""
        rng = ctx.rng
        acc = ctx.fresh("acc")
        saved = list(ctx.int_vars)
        ctx.int_vars = saved + [acc]
        stmts: List[Any] = []
        if rng.random() < 0.35:
            stmts.append([_S("push-cc")])
        n_stmts = rng.randint(1, 3)
        for _ in range(n_stmts):
            stmts.append(self._statement(ctx))
        if ctx.yield_budget > 0:
            ctx.yield_budget -= 1
            stmts.append([_S("setq"), acc,
                          [_S("+"), acc, [_S("yield"), acc]]])
        result = self._int(ctx)
        ctx.int_vars = saved
        return [_S("let"), [[acc, rng.randint(0, 9)]], *stmts,
                [_S("+"), acc, result]]

    # -- dist stratum --------------------------------------------------

    def _dist_body(self, ctx: _Ctx) -> Any:
        rng = ctx.rng
        stmts: List[Any] = []
        reads: List[Any] = []
        for tv in ctx.taskvars:
            if rng.random() < 0.8:
                stmts.append([_S("%set-task-var"),
                              [_S("quote"), _S(tv.name + "^")],
                              self._int(ctx)])
            reads.append(self._taskvar_read(tv))
        fan = self._fan_out(ctx, depth=1)
        roll = rng.random()
        if roll < 0.4:
            result = [_S("apply"), [_S("function"), _S("+")], fan]
        elif roll < 0.6:
            result = [_S("length"), fan]
        elif roll < 0.8:
            result = fan
        else:
            result = [_S("reverse"), fan]
        if reads:
            result = [_S("list"), result, *reads]
        if stmts:
            return [_S("progn"), *stmts, result]
        return result

    @staticmethod
    def _taskvar_read(tv: Symbol) -> Any:
        return [_S("%get-task-var"), [_S("quote"), _S(tv.name + "^")]]

    def _fan_out(self, ctx: _Ctx, depth: int) -> Any:
        rng = ctx.rng
        if rng.random() < 0.25:
            saved_mut = ctx.can_mutate_outer
            ctx.can_mutate_outer = False
            branches = [self._int(ctx) for _ in range(rng.randint(1, 3))]
            ctx.can_mutate_outer = saved_mut
            return [_S("parallel"), *branches]
        var = ctx.fresh("item")
        items = [_S("list"),
                 *[rng.randint(0, 9) for _ in range(rng.randint(0, 5))]]
        header: List[Any] = [var, _S("in"), items]
        if rng.random() < 0.25:
            header += [_K("chunk-size"), rng.randint(1, 3)]
        elif rng.random() < 0.15:
            header += [_K("strategy"), _K("chain")]
        saved = list(ctx.int_vars)
        saved_mut = ctx.can_mutate_outer
        ctx.int_vars = saved + [var]
        ctx.can_mutate_outer = False
        if depth < 2 and rng.random() < 0.15:
            inner = self._fan_out(ctx, depth + 1)
            body = [_S("apply"), [_S("function"), _S("+")],
                    [_S("cons"), var, inner]]
        else:
            body = self._int(ctx)
        ctx.int_vars = saved
        ctx.can_mutate_outer = saved_mut
        return [_S("for-each"), header, body]

    # -- garnish: round-robin breadth over templates and rare forms ----

    def _garnish(self, ctx: _Ctx, index: int) -> List[Any]:
        """Deterministic breadth filler for the pure stratum.

        Rotates through the full template table and through the rare
        special forms so a modest fuzz budget still visits ~all of the
        grammar; values are computed and discarded (their behaviour is
        still differential — any oracle disagreement in a garnish
        expression changes the signalled-condition outcome).
        """
        if ctx.stratum != PURE:
            return []
        garnish: List[Any] = []
        for j in range(9):
            name, _ret, tokens = TEMPLATES[(index * 7 + j) % len(TEMPLATES)]
            garnish.append(self._instantiate(ctx, name, tokens))
        garnish.append(self._form_garnish(ctx, index))
        # discard the values in one go; `list` keeps them evaluated
        return [[_S("list"), *garnish]]

    def _form_garnish(self, ctx: _Ctx, index: int) -> Any:
        # alternate tree-safe and tree-unsupported builders so the
        # breadth filler doesn't silently disable the tree oracle for
        # the whole pure stratum
        safe = [
            self._g_block_return, self._g_return_nil, self._g_setf,
            self._g_cond_case, self._g_prog1, self._g_push_macro,
            self._g_destructure, self._g_quasi,
            self._g_shadowing, self._g_let_star_later, self._g_deep_loop,
            self._g_outer_setq, self._g_lexical_and_global,
            self._g_region_number_mix, self._g_region_host,
        ]
        unsafe = [
            self._g_unwind, self._g_handler_case, self._g_handler_bind,
            self._g_restart_case, self._g_declare_the, self._g_dot,
            self._g_intrinsic, self._g_future, self._g_ignore_errors,
            self._g_fancy_lambda, self._g_dynvars, self._g_with_restart,
            self._g_assert, self._g_redefine_plus,
            self._g_region_rebind, self._g_region_error,
        ]
        if index % 2 == 0:
            return safe[(index // 2) % len(safe)](ctx)
        return unsafe[(index // 2) % len(unsafe)](ctx)

    # -- lexical resolution: where a load finds its name.  A fused
    # entry resolves a load from the frame's innermost scope up
    # (lang.templates); these put names where that has to be right:
    # shadowed, bound after a closure reads them, several scopes out,
    # assigned from inside, lexical and global at once.

    def _g_shadowing(self, ctx: _Ctx) -> Any:
        # the same name at two depths, read from inside both
        v, w = ctx.fresh("sh"), ctx.fresh("sw")
        return [_S("let"), [[v, self._int(ctx)]],
                [_S("let"), [[w, ctx.rng.randint(1, 9)]],
                 [_S("list"), [_S("+"), v, w],
                  [_S("let"), [[v, [_S("*"), v, 3]]],
                   [_S("setq"), v, [_S("-"), v, w]],
                   [_S("+"), v, [_S("*"), w, w]]],
                  v]]]

    def _g_let_star_later(self, ctx: _Ctx) -> Any:
        # a closure made before the let* binds the name it reads
        f, g, b = ctx.fresh("lf"), ctx.fresh("lg"), ctx.fresh("lb")
        x, y = ctx.fresh("lx"), ctx.fresh("ly")
        return [_S("let*"),
                [[f, [_S("lambda"), [], [_S("+"), b, 1]]],
                 [g, [_S("lambda"), [x],
                      [_S("let"), [[y, 2]], [_S("+"), x, [_S("*"), y, b]]]]],
                 [b, self._int(ctx)]],
                [_S("list"), [_S("funcall"), f], [_S("funcall"), g, 3]]]

    def _g_deep_loop(self, ctx: _Ctx) -> Any:
        # a loop three scopes inside the function reads its parameter
        p, s, k, i = (ctx.fresh("dp"), ctx.fresh("ds"), ctx.fresh("dk"),
                      ctx.fresh("di"))
        return [_S("funcall"),
                [_S("lambda"), [p],
                 [_S("let"), [[s, 0]],
                  [_S("let"), [[k, ctx.rng.randint(1, 5)]],
                   [_S("dotimes"), [i, ctx.rng.randint(1, 4)],
                    [_S("setq"), s, [_S("+"), s, [_S("*"), p, k]]]]],
                  s]],
                self._int(ctx)]

    def _g_outer_setq(self, ctx: _Ctx) -> Any:
        # setq of a variable two scopes out, from inside both
        o, w, z = ctx.fresh("so"), ctx.fresh("sw"), ctx.fresh("sz")
        return [_S("let"), [[o, self._int(ctx)]],
                [_S("let"), [[w, ctx.rng.randint(1, 9)]],
                 [_S("let"), [[z, ctx.rng.randint(1, 9)]],
                  [_S("setq"), o, [_S("+"), o, [_S("*"), w, z]]],
                  [_S("when"), [_S(">"), o, w],
                   [_S("setq"), o, [_S("-"), o, 1]]]]],
                o]

    def _g_lexical_and_global(self, ctx: _Ctx) -> Any:
        # one name: a parameter of one function, a global in the other
        # (set to a value that depends on nothing it held before)
        name, fa, fb = ctx.fresh("lgv"), ctx.fresh("lfa"), ctx.fresh("lfb")
        return [_S("progn"),
                [_S("setq"), name, ctx.rng.randint(0, 9)],
                [_S("defun"), fa, [name], [_S("+"), name, 1]],
                [_S("defun"), fb, [], [_S("*"), name, 2]],
                [_S("list"), [fa, self._int(ctx)], [fb], name]]

    # -- loop regions: a loop of primitive and registered host calls
    # runs as one generated function (lang.templates), which keeps its
    # blocks' guards; these make a guard fail where it matters: a
    # primitive rebound between two runs, a value that leaves the float
    # range mid-iteration, and values that change between int and float
    # from one iteration to the next; and one builds a list the way the
    # churn rows do, calling host functions.

    def _g_region_number_mix(self, ctx: _Ctx) -> Any:
        rng = ctx.rng
        a, b, z, i = (ctx.fresh("ma"), ctx.fresh("mb"), ctx.fresh("mz"),
                      ctx.fresh("mi"))
        return [_S("let"), [[a, rng.randint(-5, 5)],
                            [b, rng.choice([0.5, -1.5, 2.25, 3])],
                            [z, -0.0]],
                [_S("dotimes"), [i, rng.randint(1, 6)],
                 [_S("setq"), a, [_S("+"), a, [_S("*"), b, 2]]],
                 [_S("setq"), z, [_S("-"), z, [_S("*"), i, 0.0]]],
                 [_S("setq"), b, [_S("*"), b, rng.choice([-1.5, 2, 0.5])]]],
                [_S("list"), a, b, z]]

    def _g_region_host(self, ctx: _Ctx) -> Any:
        # the churn rows' build: a collect whose test calls getf and
        # whose body appends (list ...) to its accumulator, nth and
        # length nested inside: one region of host calls
        rng = ctx.rng
        p, xs, i = ctx.fresh("hp"), ctx.fresh("hx"), ctx.fresh("hi")
        width = rng.randint(0, 5)
        return [_S("let"),
                [[p, [_S("list"), _K("w"), width, _K("k"), rng.randint(1, 4)]],
                 [xs, [_S("list"), *(rng.choice([1, -2, 0.5, "s"])
                                     for _ in range(width))]]],
                [_S("loop"), _S("for"), i, _S("from"), 0, _S("below"),
                 [_S("getf"), p, _K("w")], _S("collect"),
                 [_S("list"), i, [_S("*"), i, [_S("getf"), p, _K("k")]],
                  [_S("nth"), i, xs], [_S("length"), xs]]]]

    def _g_region_rebind(self, ctx: _Ctx) -> Any:
        # < rebound, after the function's loop has run, to a Gozer
        # function computing what the builtin does (every arity), so
        # the rest of the program computes what it did, through a call
        fn, n, acc, i = (ctx.fresh("rf"), ctx.fresh("rn"), ctx.fresh("ra"),
                         ctx.fresh("ri"))
        rng = ctx.rng
        loop = [_S("let"), [[acc, 0]],
                [_S("dotimes"), [i, n],
                 [_S("setq"), acc, [_S("+"), acc,
                                    [_S("*"), i, rng.randint(1, 5)]]]],
                acc]
        return [_S("progn"),
                [_S("defun"), fn, [n], loop],
                [_S("list"), [fn, rng.randint(1, 6)],
                 [_S("progn"),
                  [_S("defun"), _S("<"), [_S("&rest"), _S("xs")],
                   [_S("apply"), [_S("function"), _S(">")],
                    [_S("reverse"), _S("xs")]]],
                  [fn, rng.randint(1, 6)]]]]

    def _g_region_error(self, ctx: _Ctx) -> Any:
        # big squared each iteration: (+ big 0.5) leaves the float
        # range in the second block of some iteration, and the stdlib
        # + raises there
        big, f, i, c = (ctx.fresh("eb"), ctx.fresh("ef"), ctx.fresh("ei"),
                        ctx.fresh("c"))
        return [_S("handler-case"),
                [_S("let"), [[big, 10 ** ctx.rng.randint(5, 40)], [f, 0]],
                 [_S("dotimes"), [i, 8],
                  [_S("setq"), big, [_S("*"), big, big]],
                  [_S("setq"), f, [_S("+"), big, 0.5]]],
                 f],
                [_S("error"), [c], [_S("condition-type"), c]]]

    def _g_block_return(self, ctx: _Ctx) -> Any:
        b = ctx.fresh("blk")
        return [_S("block"), b,
                [_S("if"), self._bool(ctx),
                 [_S("return-from"), b, self._int(ctx)]],
                self._int(ctx)]

    def _g_return_nil(self, ctx: _Ctx) -> Any:
        return [_S("block"), None,
                [_S("when"), self._bool(ctx),
                 [_S("return"), self._int(ctx)]],
                self._int(ctx)]

    def _g_unwind(self, ctx: _Ctx) -> Any:
        v = ctx.fresh("u")
        return [_S("let"), [[v, 0]],
                [_S("unwind-protect"),
                 [_S("setq"), v, self._int(ctx)],
                 [_S("setq"), v, [_S("+"), v, 1]]],
                v]

    def _g_handler_case(self, ctx: _Ctx) -> Any:
        c = ctx.fresh("c")
        return [_S("handler-case"),
                [_S("if"), self._bool(ctx),
                 [_S("error"), "conf-boom"], self._int(ctx)],
                [_S("error"), [c], [_S("condition-type"), c]]]

    def _g_handler_bind(self, ctx: _Ctx) -> Any:
        b, c = ctx.fresh("hb"), ctx.fresh("c")
        return [_S("block"), b,
                [_S("handler-bind"),
                 [[_S("error"),
                   [_S("lambda"), [c], [_S("return-from"), b,
                                        self._int(ctx)]]]],
                 [_S("signal"), "conf-note"],
                 [_S("error"), "conf-boom"]]]

    def _g_restart_case(self, ctx: _Ctx) -> Any:
        v = ctx.fresh("rv")
        return [_S("restart-case"),
                [_S("if"), self._bool(ctx),
                 [_S("invoke-restart"), [_S("quote"), _S("use-value")],
                  self._int(ctx)],
                 self._int(ctx)],
                [_S("use-value"), [v], [_S("+"), v, 1]]]

    def _g_declare_the(self, ctx: _Ctx) -> Any:
        v = ctx.fresh("d")
        return [_S("let"), [[v, self._int(ctx)]],
                [_S("declare"), [_S("type"), _S("integer"), v]],
                [_S("the"), _S("integer"), v]]

    def _g_dot(self, ctx: _Ctx) -> Any:
        return [_S("."), self._string(ctx), [_S("upper")]]

    def _g_intrinsic(self, ctx: _Ctx) -> Any:
        h = ctx.fresh("h")
        return [_S("let"), [[h, [_S("make-hash-table")]]],
                [_S("%"), _S("sethash"), self._keyword(ctx), h,
                 self._int(ctx)],
                [_S("hash-count"), h]]

    def _g_future(self, ctx: _Ctx) -> Any:
        f = ctx.fresh("fut")
        if ctx.rng.random() < 0.5:
            return [_S("touch"), [_S("future"), self._int(ctx)]]
        return [_S("let"), [[f, [_S("pcall"), [_S("function"), _S("+")],
                                 self._int(ctx), self._int(ctx)]]],
                [_S("list"), [_S("futurep"), f], [_S("future-p"), f],
                 [_S("touch"), f], [_S("determined-p"), f]]]

    def _g_dynvars(self, ctx: _Ctx) -> Any:
        # defun -> store-global; let over a special -> dyn-bind/unbind
        fn = ctx.fresh("dfn")
        var = _S(f"*conf-dyn{ctx.rng.randrange(1000)}*")
        return [_S("progn"),
                [_S("defun"), fn, [_S("a")], [_S("+"), _S("a"), 1]],
                [_S("defvar"), var, self._int(ctx)],
                [_S("let"), [[var, self._int(ctx)]],
                 [fn, var]]]

    def _g_redefine_plus(self, ctx: _Ctx) -> Any:
        # defun + once a function computing with it has run (its fused
        # view built, + inline); the new + adds as the builtin does, so
        # the rest of the program computes what it did, through a call
        fn, a, b = ctx.fresh("pf"), _S("a"), _S("b")
        args = [self._int(ctx), self._int(ctx)]
        return [_S("progn"),
                [_S("defun"), fn, [a, b], [_S("+"), a, [_S("*"), b, b]]],
                [_S("list"), [fn, *args],
                 [_S("progn"),
                  [_S("defun"), _S("+"), [_S("&rest"), _S("xs")],
                   [_S("-"), [_S("apply"), [_S("function"), _S("-")], 0,
                              _S("xs")]]],
                  [fn, *args]]]]

    def _g_destructure(self, ctx: _Ctx) -> Any:
        a, b = ctx.fresh("da"), ctx.fresh("db")
        return [_S("destructuring-bind"), [a, b],
                [_S("list"), self._int(ctx), self._int(ctx)],
                [_S("-"), a, b]]

    def _g_quasi(self, ctx: _Ctx) -> Any:
        return [_S("quasiquote"),
                [1, [_S("unquote"), self._int(ctx)],
                 [_S("unquote-splicing"), self._list_literal(ctx)]]]

    def _g_with_restart(self, ctx: _Ctx) -> Any:
        return [_S("with-simple-restart"),
                [_S("bail"), "conformance bail-out"],
                [_S("if"), self._bool(ctx),
                 [_S("invoke-restart"), [_S("quote"), _S("bail")]],
                 self._int(ctx)]]

    def _g_assert(self, ctx: _Ctx) -> Any:
        v = ctx.fresh("av")
        return [_S("let"), [[v, self._int(ctx)]],
                [_S("assert"), [_S("="), v, v]],
                v]

    def _g_setf(self, ctx: _Ctx) -> Any:
        v = ctx.fresh("sl")
        return [_S("let"), [[v, [_S("list"), 1, 2, 3]]],
                [_S("setf"), [_S("car"), v], self._int(ctx)],
                [_S("setf"), [_S("nth"), 2, v], self._int(ctx)],
                v]

    def _g_cond_case(self, ctx: _Ctx) -> Any:
        v = ctx.fresh("cc")
        return [_S("let"), [[v, self._int(ctx)]],
                [_S("cond"),
                 [[_S("<"), v, 0], _K("neg")],
                 [[_S("="), v, 0], _K("zero")],
                 [True, [_S("case"), [_S("mod"), v, 3],
                         [0, _K("fizz")], [1, _K("one")],
                         [True, _K("rest")]]]]]

    def _g_ignore_errors(self, ctx: _Ctx) -> Any:
        return [_S("ignore-errors"),
                [_S("if"), self._bool(ctx),
                 [_S("error"), "conf-ie"], self._int(ctx)]]

    def _g_prog1(self, ctx: _Ctx) -> Any:
        return [_S("prog1"), self._int(ctx),
                [_S("prog2"), self._int(ctx), self._int(ctx)]]

    def _g_fancy_lambda(self, ctx: _Ctx) -> Any:
        x, y = ctx.fresh("fx"), ctx.fresh("fy")
        return [[_S("lambda"), [x, _S("&optional"), [y, 10]],
                 [_S("+"), x, y]],
                self._int(ctx)]

    def _g_push_macro(self, ctx: _Ctx) -> Any:
        v, w = ctx.fresh("pv"), ctx.fresh("pw")
        return [_S("let"), [[v, [_S("list"), 9]], [w, [_S("list"), 1, 2]]],
                [_S("push"), self._int(ctx), v],
                [_S("rotatef"), v, w],
                [_S("append"), v, w]]
