"""Distribution primitives: fork-and-exec, join-process, for-each, parallel.

This module installs, into a workflow's runtime, the Gozer-visible face
of Vinz (paper Sections 3.4 and 3.5):

* ``fork-and-exec`` — clone the fiber, run a function in the child;
* ``join-process`` — suspend until another fiber/task terminates;
* ``for-each`` — the map step of map/reduce, spawn-limit throttled,
  optionally chunked for combined distributed + local parallelism;
* ``parallel`` — run each body form in its own fiber;
* ``deftaskvar`` and the ``^var^`` reader macro (Section 3.6).

The macros expand into ordinary Gozer code whose ``yield`` forms are
executed by the *fiber's own* flow of control — exactly the paper's
Listing 3 shape, generalized to a runtime loop so the spawn limit can
change dynamically.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..lang.errors import CompileError, ControlFlowSignal
from ..lang.macros import is_listform
from ..lang.symbols import Keyword, Symbol, gensym
from ..gvm.frames import GozerMacro, vm_function

_S = Symbol


class VinzBreak(ControlFlowSignal):
    """The ``break`` handler action: terminate this fiber cleanly,
    returning nil to the parent (paper Section 3.7)."""


class VinzTerminateTask(ControlFlowSignal):
    """The ``terminate`` handler action: terminate the fiber *and* the
    whole task with an error status (paper Section 3.7)."""

    def __init__(self, reason: str = "terminated by handler"):
        super().__init__(reason)
        self.reason = reason


import contextvars

#: The fiber execution currently advancing on this thread of control.
#: Future bodies run on their own VM (and possibly their own thread),
#: but still belong to the fiber — the contextvar lets Vinz intrinsics
#: reach the execution from there (Section 3.2's automatic synchronous
#: fallback depends on it).
CURRENT_EXECUTION: contextvars.ContextVar = contextvars.ContextVar(
    "vinz-current-execution", default=None)


def current_execution(vm):
    execution = getattr(vm, "vinz", None)
    if execution is None:
        execution = CURRENT_EXECUTION.get()
    if execution is None:
        from ..lang.errors import GozerRuntimeError

        raise GozerRuntimeError(
            "distribution primitive used outside a Vinz workflow fiber")
    return execution


# ---------------------------------------------------------------------------
# intrinsics
# ---------------------------------------------------------------------------

#: the Vinz intrinsics, by Gozer-visible name (``install_intrinsics``)
_INTRINSICS: Dict[str, Callable] = {}


def _intrinsic(name: str):
    """List ``fn(vm, ...)`` as the intrinsic ``name``; it takes the VM."""

    def register(fn):
        _INTRINSICS[name] = vm_function(fn)
        return fn

    return register


@_intrinsic("vinz-fork")
def vinz_fork(vm, fn, args, notify):
    return current_execution(vm).fork(fn, list(args or []), bool(notify))


@_intrinsic("vinz-call-clone")
def vinz_call_clone(vm, fn):
    return current_execution(vm).call_clone(vm, fn)


@_intrinsic("vinz-collect")
def vinz_collect(vm, child_ids):
    return current_execution(vm).collect_results(vm, list(child_ids or []))


@_intrinsic("vinz-fork-chain")
def vinz_fork_chain(vm, fn, items):
    return current_execution(vm).fork_chain(fn, list(items or []))


@_intrinsic("vinz-collect-chain")
def vinz_collect_chain(vm, group_id):
    return current_execution(vm).collect_chain(vm, group_id)


@_intrinsic("vinz-auto-chunk-size")
def vinz_auto_chunk_size(vm):
    return current_execution(vm).auto_chunk_size()


@_intrinsic("vinz-await")
def vinz_await(vm=None):
    return {"kind": "await"}


@_intrinsic("vinz-join")
def vinz_join(vm, pid):
    return {"kind": "join", "target": pid}


@_intrinsic("vinz-join-sync")
def vinz_join_sync(vm, pid):
    return current_execution(vm).join_sync(pid)


@_intrinsic("vinz-sleep")
def vinz_sleep(vm, seconds):
    return {"kind": "sleep", "seconds": seconds}


@_intrinsic("vinz-awake")
def vinz_awake(vm, pid, *payload):
    return current_execution(vm).awake(pid, payload[0] if payload else None)


@_intrinsic("vinz-send-message")
def vinz_send_message(vm, pid, value):
    return current_execution(vm).send_fiber_message(pid, value)


@_intrinsic("vinz-try-receive")
def vinz_try_receive(vm):
    return current_execution(vm).try_receive()


@_intrinsic("vinz-receive")
def vinz_receive(vm):
    return {"kind": "receive"}


@_intrinsic("vinz-spawn-limit")
def vinz_spawn_limit(vm):
    return current_execution(vm).spawn_limit()


@_intrinsic("vinz-set-spawn-limit")
def vinz_set_spawn_limit(vm, n):
    return current_execution(vm).set_spawn_limit(int(n))


@_intrinsic("vinz-auto-spawn-limit")
def vinz_auto_spawn_limit(vm):
    return current_execution(vm).auto_spawn_limit()


@_intrinsic("vinz-current-fiber")
def vinz_current_fiber(vm):
    return current_execution(vm).fiber.id


@_intrinsic("vinz-current-task")
def vinz_current_task(vm):
    return current_execution(vm).task.id


@_intrinsic("vinz-break")
def vinz_break(vm, *_args):
    raise VinzBreak("break")


@_intrinsic("vinz-terminate")
def vinz_terminate(vm, *reason):
    raise VinzTerminateTask(str(reason[0]) if reason else
                            "terminated by workflow")


@_intrinsic("charge")
def vinz_charge(vm, seconds):
    current_execution(vm).charge(float(seconds))
    return None


@_intrinsic("get-task-var")
def get_task_var(vm, name):
    return current_execution(vm).get_task_var(_taskvar_name(name))


@_intrinsic("set-task-var")
def set_task_var(vm, name, value):
    return current_execution(vm).set_task_var(_taskvar_name(name), value)


def install_intrinsics(runtime) -> None:
    env = runtime.global_env
    for name, fn in _INTRINSICS.items():
        env.define_intrinsic(name, fn)


def _taskvar_name(name: Any) -> str:
    """Normalize ``^exit-flag^`` / ``exit-flag^`` / ``exit-flag``."""
    text = name.name if isinstance(name, Symbol) else str(name)
    return text.strip("^")


# ---------------------------------------------------------------------------
# the ^taskvar^ reader macro (paper Listing 5)
# ---------------------------------------------------------------------------

#: The reader macro from the paper's Listing 5, transliterated.  It is
#: installed by evaluating this source with the workflow's runtime, so
#: the mechanism (programmable reader + set-macro-character) is exactly
#: the paper's.
TASKVAR_READER_SOURCE = """
(set-macro-character #\\^
  (lambda (the-stream c)
    ;; ^foo^ -> (%get-task-var 'foo^)
    (let* ((var-name (read the-stream t nil t))
           (var-str  (symbol-name var-name)))
      (unless (ends-with-p var-str "^")
        (error "Task vars must be wrapped in ^"))
      (list '%get-task-var (list 'quote var-name))))
  t)  ;; non-terminating: ^ is a constituent inside the token
"""


# ---------------------------------------------------------------------------
# macros
# ---------------------------------------------------------------------------

def _parse_for_each_header(header: List[Any]):
    """(var in seq [:chunk-size k] [:strategy :chain])
    -> (var, seq_form, chunk_form, strategy)."""
    if not is_listform(header) or len(header) < 3 or \
            not isinstance(header[0], Symbol) or \
            not (isinstance(header[1], Symbol) and header[1].name == "in"):
        raise CompileError("for-each needs (for-each (var in seq) body...)",
                           header)
    var, _in, seq, *options = header
    chunk = None
    strategy = "awake"
    i = 0
    while i < len(options):
        opt = options[i]
        if isinstance(opt, Keyword) and opt.name == "chunk-size":
            chunk = options[i + 1]
            i += 2
        elif isinstance(opt, Keyword) and opt.name == "strategy":
            value = options[i + 1]
            strategy = value.name if isinstance(value, (Keyword, Symbol)) \
                else str(value)
            if strategy not in ("awake", "chain"):
                raise CompileError(
                    f"for-each: unknown strategy {strategy!r} "
                    "(awake or chain)", header)
            i += 2
        else:
            raise CompileError(f"for-each: unknown option {opt!r}", header)
    return var, seq, chunk, strategy


def _spawn_loop(items_form: Any, fn_form: Any) -> Any:
    """The Listing-3 pattern: spawn under the limit, yield per child.

    Expands to code that forks one notifying child per item, yielding
    (to be awakened by AwakeFiber) whenever the configured spawn limit
    is reached, then yields once per outstanding child and collects the
    results in item order.
    """
    items = gensym("fe-items")
    fn = gensym("fe-fn")
    n = gensym("fe-n")
    children = gensym("fe-children")
    i = gensym("fe-i")
    outstanding = gensym("fe-out")
    return [
        _S("let*"),
        [[items, [_S("to-list"), items_form]],
         [fn, fn_form],
         [n, [_S("length"), items]],
         [children, [_S("list")]],
         [i, 0],
         [outstanding, 0]],
        [_S("while"), [_S("<"), i, n],
         # throttle: never more than (spawn-limit) children in flight
         [_S("when"), [_S(">="), outstanding, [_S("%vinz-spawn-limit")]],
          [_S("yield"), [_S("%vinz-await")]],
          [_S("setq"), outstanding, [_S("-"), outstanding, 1]]],
         [_S("append!"), children,
          [_S("%vinz-fork"), fn, [_S("list"), [_S("nth"), i, items]], True]],
         [_S("setq"), outstanding, [_S("+"), outstanding, 1]],
         [_S("setq"), i, [_S("+"), i, 1]]],
        # drain: one yield per AwakeFiber still owed to us
        [_S("while"), [_S(">"), outstanding, 0],
         [_S("yield"), [_S("%vinz-await")]],
         [_S("setq"), outstanding, [_S("-"), outstanding, 1]]],
        [_S("%vinz-collect"), children],
    ]


def _chain_spawn(items_form: Any, fn_form: Any) -> Any:
    """Sibling-chaining expansion (Section 5 future work).

    The parent forks the whole chain in one intrinsic call and performs
    a *single* yield; the children launch each other and the last one
    sends the one AwakeFiber.
    """
    group = gensym("chain-group")
    return [
        _S("let"), [[group, [_S("%vinz-fork-chain"), fn_form,
                             [_S("to-list"), items_form]]]],
        [_S("yield"), [_S("%vinz-await")]],
        [_S("%vinz-collect-chain"), group],
    ]


def _m_for_each(*args):
    """(for-each (var in seq [:chunk-size k] [:strategy :chain]) body...)"""
    if not args:
        raise CompileError("for-each needs a header")
    header, *body = args
    var, seq, chunk, strategy = _parse_for_each_header(list(header))
    item_fn = [_S("lambda"), [var], *body]
    if strategy == "chain":
        if chunk is not None:
            raise CompileError("for-each: :chunk-size with :strategy "
                               ":chain is not supported")
        return [_S("if"), [_S("%is-fiber-thread")],
                _chain_spawn(seq, item_fn),
                _background_fallback(seq, item_fn, chunked=False)]
    if chunk is None:
        return [_S("if"), [_S("%is-fiber-thread")],
                _spawn_loop(seq, item_fn),
                # background threads cannot yield: fork a fiber to run
                # the loop and join it synchronously (paper Section 3.5)
                _background_fallback(seq, item_fn, chunked=False)]
    # chunked: each child fiber processes a whole chunk with *local*
    # parallelism (futures), giving the paper's "combination of
    # distributed and local concurrency".
    chunk_var = gensym("fe-chunk")
    chunk_fn = [
        _S("lambda"), [chunk_var],
        [_S("mapcar"), [_S("function"), _S("touch")],
         [_S("mapcar"),
          [_S("lambda"), [var], [_S("future-call"), item_fn, var]],
          chunk_var]],
    ]
    if isinstance(chunk, Keyword) and chunk.name == "auto":
        # dynamic chunk-size optimization (Section 5 future work: "The
        # for-each chunking function should also dynamically optimize
        # chunk sizes based on the processing time of the body"): run a
        # small probe of singleton items, then size the remaining
        # chunks from their measured durations.
        return [_S("if"), [_S("%is-fiber-thread")],
                _auto_chunk_spawn(seq, item_fn, chunk_fn),
                _background_fallback(seq, item_fn, chunked=False)]
    chunked_items = [_S("chunk-list"), seq, chunk]
    return [_S("if"), [_S("%is-fiber-thread")],
            [_S("apply"), [_S("function"), _S("append")],
             _spawn_loop(chunked_items, chunk_fn)],
            _background_fallback(chunked_items, chunk_fn, chunked=True)]


def _auto_chunk_spawn(seq_form: Any, item_fn: Any, chunk_fn: Any) -> Any:
    items = gensym("ac-items")
    probe_results = gensym("ac-probe")
    size = gensym("ac-size")
    chunk_results = gensym("ac-chunks")
    return [
        _S("let*"), [[items, [_S("to-list"), seq_form]]],
        [_S("if"), [_S("<="), [_S("length"), items], 3],
         # too few items for a probe to pay off: plain distribution
         _spawn_loop(items, item_fn),
         [_S("let*"),
          [[probe_results,
            _spawn_loop([_S("subseq"), items, 0, 2], item_fn)],
           # the probe children have finished: size from their timing
           [size, [_S("%vinz-auto-chunk-size")]],
           [chunk_results,
            [_S("apply"), [_S("function"), _S("append")],
             _spawn_loop([_S("chunk-list"), [_S("subseq"), items, 2],
                          size],
                         chunk_fn)]]],
          [_S("append"), probe_results, chunk_results]]],
    ]


def _background_fallback(seq_form: Any, fn_form: Any, chunked: bool) -> Any:
    """for-each on a future's thread: run the loop on a clone of its
    closure, in place (:meth:`FiberExecution.call_clone`)."""
    runner = [_S("lambda"), [],
              [_S("mapcar"), fn_form, [_S("to-list"), seq_form]]]
    collect: Any = [_S("%vinz-call-clone"), runner]
    if chunked:
        collect = [_S("apply"), [_S("function"), _S("append")], collect]
    return collect


def _m_parallel(*forms):
    """(parallel form1 form2 ...) — each form runs in its own fiber.

    Implemented on top of the for-each machinery, as the paper says the
    two macros are "conceptually layered on top of fork-and-exec": each
    body form becomes a one-argument thunk, and the child fiber calls
    its thunk directly (so a body form may itself yield).
    """
    var = gensym("p-thunk")
    thunk_list = [_S("list"),
                  *[[_S("lambda"), [gensym("pig")], form] for form in forms]]
    # the body is a direct call of the thunk held in `var` — direct so
    # the thunk body runs in the fiber's own flow of control (it may
    # contain nested for-each/service calls that yield)
    return _m_for_each([var, _S("in"), thunk_list], [var, None])


def install_macros(runtime, workflow_service) -> None:
    env = runtime.global_env

    env.define_macro(_S("for-each"), GozerMacro(_m_for_each, "for-each"))
    env.define_macro(_S("parallel"), GozerMacro(_m_parallel, "parallel"))

    def m_deftaskvar(name, *rest):
        if not isinstance(name, Symbol):
            raise CompileError("deftaskvar needs a symbol name")
        default = None
        doc = None
        for item in rest:
            if isinstance(item, str) and doc is None:
                doc = item
            else:
                default = item
        workflow_service.declare_task_var(_taskvar_name(name), default, doc)
        return [_S("quote"), name]

    env.define_macro(_S("deftaskvar"), GozerMacro(m_deftaskvar, "deftaskvar"))


# ---------------------------------------------------------------------------
# the Gozer-level prelude
# ---------------------------------------------------------------------------

PRELUDE_SOURCE = """
;; ------- Vinz prelude: distribution helpers visible to workflows -------

(defvar *vinz-force-sync* nil
  "When true, deflink-generated stubs make standard synchronous
requests instead of migrating the fiber (paper Section 3.2: the
programmer can, statically or dynamically, choose synchronous mode).")

(defun get-process-id ()
  "The id of the fiber executing this code (paper Listing 3)."
  (%vinz-current-fiber))

(defun get-task-id ()
  "The id of the task this fiber belongs to."
  (%vinz-current-task))

(defun fork-and-exec (func &key argument arguments)
  "Clone this fiber; run FUNC in the child (paper Section 3.4).
Returns the child fiber's id.  The child does NOT awaken the parent
on termination; use join-process to wait for it."
  (%vinz-fork func
              (cond (arguments arguments)
                    (argument (list argument))
                    (t (list)))
              nil))

(defun join-process (pid)
  "Suspend until fiber/task PID terminates; return its result
(paper Section 3.4: analogous to the Unix wait function).  From a
future's background thread, only that thread blocks."
  (if (%is-fiber-thread)
      (yield (%vinz-join pid))
      (%vinz-join-sync pid)))

(defun awake (pid &optional payload)
  "Send an AwakeFiber message to PID (paper Listing 3)."
  (%vinz-awake pid payload))

(defun send-message (pid value)
  "Deliver VALUE to fiber PID's mailbox (lightweight cross-process
communication, a Section 5 future-work extension).  Fire-and-forget:
messages to finished fibers are dropped."
  (%vinz-send-message pid value))

(defun receive-message ()
  "Pop the next mailbox message, suspending this fiber (consuming no
resources) until one arrives."
  (let ((m (%vinz-try-receive)))
    (if (eq m :%vinz-no-message)
        (yield (%vinz-receive))
        m)))

(defun collect-child-results (pids)
  "Collect the results of completed child fibers, in PIDS order."
  (%vinz-collect pids))

(defun funcall-direct (f)
  "Call a one-argument thunk with nil (a convenience for callbacks)."
  (funcall f nil))

(defun set-spawn-limit (n)
  "Dynamically adjust this task's spawn limit (paper Section 3.5)."
  (%vinz-set-spawn-limit n))

(defun get-spawn-limit ()
  (%vinz-spawn-limit))

(defun auto-spawn-limit ()
  "Hand this task's spawn limit to the adaptive AIMD governor
(repro.sched.governor): subsequent for-each/parallel iterations re-read
the governed limit, so fan-out width follows live cluster load.
Returns the currently governed limit."
  (%vinz-auto-spawn-limit))

(defun sleep (seconds)
  "Sleeping inside a fiber suspends it on the platform timer (zero
resources, recorded as a TimerFired in the task history); outside a
fiber the runtime clock advances instead — never the host clock."
  (if (%is-fiber-thread)
      (yield (%vinz-sleep seconds))
      (%clock-sleep seconds)))

(defun workflow-sleep (seconds)
  "Suspend this fiber for SECONDS of (simulated) time, consuming no
resources while suspended (the paper's zero-resource waiting)."
  (if (%is-fiber-thread)
      (yield (%vinz-sleep seconds))
      (sleep seconds)))

(defun compute (seconds)
  "Model SECONDS of computation (charges simulated processing time)."
  (%charge seconds))

(defun terminate-task (&optional reason)
  "Terminate the whole task with an error status."
  (%vinz-terminate reason))

(defun break-fiber ()
  "Terminate this fiber cleanly, returning nil to the parent."
  (%vinz-break))

(defun chunk-list (items size)
  "Split ITEMS into chunks of at most SIZE (for-each :chunk-size)."
  (let ((items (to-list items))
        (chunks (list))
        (current (list)))
    (dolist (item items)
      (append! current item)
      (when (>= (length current) size)
        (append! chunks current)
        (setq current (list))))
    (when (consp current)
      (append! chunks current))
    chunks))

(defun future-call (f x)
  "Run (F X) as a future (local parallelism inside a chunk)."
  (future (funcall f x)))
"""


def install(runtime, workflow_service) -> None:
    """Install everything Vinz adds to a workflow's runtime."""
    install_intrinsics(runtime)
    install_macros(runtime, workflow_service)
    runtime.eval_string(PRELUDE_SOURCE)
    # the ^taskvar^ reader macro, installed by running the paper's own
    # Listing 5 through the runtime
    runtime.eval_string(TASKVAR_READER_SOURCE)
