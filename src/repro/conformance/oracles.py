"""The conformance oracles: four independent ways to run one program.

* :func:`run_vm`        — the bytecode VM (the *baseline* oracle).
* :func:`run_vm_pickle` — the VM, but every captured continuation is
  forced through a pickle round-trip before resuming (the persistence
  path Vinz migration depends on).
* :func:`run_tree`      — the tree-walking reference interpreter on the
  sequentialized forms; higher-order stdlib builtins that are pure but
  happen to be implemented against the VM run through a scratch VM.
* :func:`run_stepwise`  — the VM with capture + pickle + restore forced
  at instruction boundaries (stride 1 == *every* boundary), asserting
  bit-equal results and conservation of the instruction count.
* :func:`run_vinz`      — a distributed Vinz execution under a seeded
  survivable chaos plan with event-sourced history and a snapshot
  every third suspension (the versions between are rebuilt by replay),
  cross-checked by deterministic replay.

Every oracle returns an :class:`Outcome`; the executor compares them.
"""

from __future__ import annotations

import pickle
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..gvm.conditions import (GozerCondition, UnhandledConditionError,
                              coerce_condition)
from ..gvm.continuations import capture, materialize
from ..gvm.environment import DynamicBindings
from ..gvm.frames import is_vm_function
from ..gvm.interpreter import (ContinuationsUnsupported, TreeInterpreter,
                               force, force_all)
from ..gvm.runtime import Done, Yielded, make_runtime
from ..gvm.vm import ControlFlowSignal
from ..lang.printer import print_form
from .grammar import SAFE_VM_FNS, GenProgram

# outcome kinds -----------------------------------------------------------
VALUE = "value"            # ran to completion, comparable result
CONDITION = "condition"    # signalled an unhandled condition
UNSUPPORTED = "unsupported"  # engine cannot run this class of program
HANG = "hang"              # exceeded the resume/deadline budget
ENGINE_ERROR = "engine-error"  # the engine itself failed (a real bug)


@dataclass
class Outcome:
    """What one oracle observed for one program."""

    kind: str
    value: Any = None
    ctype: Optional[str] = None
    printed: str = ""
    detail: str = ""
    #: printed yield values, in order (suspend-stratum comparisons)
    yields: Tuple[str, ...] = ()
    #: Vinz replay rebuilds by base (``history.rebuild_base.<base>``)
    rebuilds: Dict[str, int] = field(default_factory=dict)
    #: program-global writes Vinz refused its fibers
    global_writes: int = 0

    @classmethod
    def of_value(cls, value: Any, yields: Tuple[str, ...] = ()) -> "Outcome":
        return cls(kind=VALUE, value=value, printed=print_form(value),
                   yields=yields)

    @classmethod
    def of_exception(cls, exc: BaseException,
                     yields: Tuple[str, ...] = ()) -> "Outcome":
        if isinstance(exc, UnhandledConditionError):
            cond = exc.condition
            return cls(kind=CONDITION, ctype=cond.condition_type,
                       detail=str(cond), yields=yields)
        if isinstance(exc, GozerCondition):
            return cls(kind=CONDITION, ctype=exc.condition_type,
                       detail=str(exc), yields=yields)
        if isinstance(exc, (RecursionError, MemoryError,
                            pickle.PicklingError, AttributeError)):
            return cls(kind=ENGINE_ERROR,
                       detail=f"{type(exc).__name__}: {exc}", yields=yields)
        cond = coerce_condition(exc)
        return cls(kind=CONDITION, ctype=cond.condition_type,
                   detail=f"{type(exc).__name__}: {exc}", yields=yields)

    def agrees_with(self, other: "Outcome", strict_ctype: bool = True,
                    compare_yields: bool = False) -> bool:
        if self.kind != other.kind:
            return False
        if compare_yields and self.yields != other.yields:
            return False
        if self.kind == VALUE:
            return self.printed == other.printed
        if self.kind == CONDITION:
            return (not strict_ctype) or self.ctype == other.ctype
        return True  # hang == hang, unsupported == unsupported

    def signature(self) -> Tuple[Any, ...]:
        """What a shrink must keep of this side of a divergence: its
        kind and, for a condition or an engine error, what it said."""
        if self.kind in (CONDITION, ENGINE_ERROR):
            return (self.kind, self.ctype, self.detail)
        return (self.kind,)

    def describe(self) -> str:
        if self.kind == VALUE:
            return f"value {self.printed}"
        if self.kind == CONDITION:
            return f"condition {self.ctype} ({self.detail})"
        return f"{self.kind} {self.detail}".strip()


# ---------------------------------------------------------------------------
# VM oracle (baseline) and its pickle-roundtrip variant
# ---------------------------------------------------------------------------

#: how many real ``(yield)``s an oracle answers before it calls the
#: program a hang
_MAX_RESUMES = 64


def run_vm(program: GenProgram, pickle_roundtrip: bool = False) -> Outcome:
    """Run the sequentialized program on the bytecode VM.

    Suspend-stratum programs yield; each yield value is recorded and
    answered from the program's cyclic ``feeds`` schedule.  With
    ``pickle_roundtrip`` the continuation crosses ``pickle`` before
    every resume — exactly what fiber migration does to it.
    """
    rt = make_runtime()
    yields: List[str] = []
    feeds = program.feeds or (1,)
    try:
        result = rt.start(program.sequential_source)
        resumes = 0
        while isinstance(result, Yielded):
            yields.append(print_form(result.value))
            if resumes >= _MAX_RESUMES:
                return Outcome(kind=HANG, yields=tuple(yields),
                               detail=f">{_MAX_RESUMES} resumes")
            continuation = result.continuation
            if pickle_roundtrip:
                continuation = pickle.loads(pickle.dumps(continuation))
            result = rt.resume(continuation, feeds[resumes % len(feeds)])
            resumes += 1
        return Outcome.of_value(result.value, yields=tuple(yields))
    except Exception as exc:  # noqa: BLE001 - outcomes, not crashes
        return Outcome.of_exception(exc, yields=tuple(yields))


def run_vm_pickle(program: GenProgram) -> Outcome:
    return run_vm(program, pickle_roundtrip=True)


# ---------------------------------------------------------------------------
# tree-interpreter oracle
# ---------------------------------------------------------------------------

class ConformanceTreeInterpreter(TreeInterpreter):
    """Tree interpreter that may call *pure* VM-hosted builtins.

    ``mapcar``/``reduce``/``sort``/… are implemented against the VM's
    calling convention but are semantically pure; routing them through
    a scratch VM lets the reference interpreter cover far more of the
    generated grammar.  The scratch VM can call back into tree-land
    because :class:`~repro.gvm.interpreter.TreeFunction` is a plain
    callable.  Builtins that need the *live* condition/future machinery
    (``error``, ``invoke-restart``, ``pcall``, …) still raise, which
    the executor classifies via the feature analysis.
    """

    def __init__(self, global_env, apply_fn=None, scratch_vm=None):
        super().__init__(global_env, apply_fn=apply_fn)
        self._scratch_vm = scratch_vm
        self._safe_vm_fns = self._resolve_safe_fns()

    @staticmethod
    def _resolve_safe_fns():
        from ..lang import stdlib

        safe = set()
        for key, fn in stdlib._VM_REGISTRY.items():
            name = key.name if hasattr(key, "name") else str(key)
            if name in SAFE_VM_FNS:
                safe.add(fn)
        return safe

    def _apply(self, fn: Any, args: List[Any]) -> Any:
        target = force(fn)
        if is_vm_function(target) and target in self._safe_vm_fns \
                and self._scratch_vm is not None:
            return target(self._scratch_vm, *force_all(args))
        return super()._apply(fn, args)


def run_tree(program: GenProgram) -> Outcome:
    """Run the sequentialized program on the reference interpreter."""
    rt = make_runtime()
    scratch = rt.new_vm(allow_yield=False)
    interp = ConformanceTreeInterpreter(rt.global_env, apply_fn=rt.apply,
                                        scratch_vm=scratch)
    try:
        value = None
        for form in rt.read_all(program.sequential_source):
            value = interp.eval(form)
        return Outcome.of_value(value)
    except ContinuationsUnsupported as exc:
        return Outcome(kind=UNSUPPORTED, detail=str(exc))
    except Exception as exc:  # noqa: BLE001
        return Outcome.of_exception(exc)


# ---------------------------------------------------------------------------
# stepwise capture/restore oracle
# ---------------------------------------------------------------------------

class _StepPause(ControlFlowSignal):
    """Raised by the instruction hook to stop the VM *between* two
    instructions; subclassing ``ControlFlowSignal`` makes the dispatch
    loop re-raise it without routing it into the condition system, and
    because the hook fires before ``pc``/``instruction_count`` advance,
    the paused instruction re-executes exactly once after restore."""


def stepwise_safe(program: GenProgram) -> bool:
    """Whether every intermediate VM state of the program pickles.

    Futures are excluded conservatively: a stride-1 pause can catch a
    not-yet-touched :class:`~repro.gvm.futures.GozerFuture` — which may
    hold host synchronization state — live in a frame.  (Intrinsic
    references and ``constantly`` results used to be unpicklable local
    closures too; the fuzzer surfaced that and they are now module
    level, see ``repro.lang.stdlib``.)
    """
    from .grammar import F_FUTURE

    return F_FUTURE not in program.analysis.features


@dataclass
class StepwiseResult:
    outcome: Outcome
    segments: int
    instructions: int
    baseline_instructions: int

    @property
    def counts_agree(self) -> bool:
        return self.instructions == self.baseline_instructions


def run_stepwise(program: GenProgram, stride: int = 1,
                 max_segments: int = 200_000) -> StepwiseResult:
    """Run on the VM, forcing capture + pickle + restore every ``stride``
    instruction boundaries (at top-level depth).  A real ``(yield)`` is
    answered from the program's ``feeds``, as :func:`run_vm` answers it.

    Returns the final outcome plus the instruction accounting: the sum
    of instructions over all resumed segments must equal the count of
    one uninterrupted run — capture is transparent to cost, not just to
    the result (the satellite-3 property).
    """
    rt = make_runtime()
    forms = rt.read_all(program.sequential_source)
    for form in forms[:-1]:
        rt.eval_form(form)
    code = rt.compile(forms[-1], name="conf-step")

    # baseline: one uninterrupted run on an identically-prepared runtime
    rt_base = make_runtime()
    for form in rt_base.read_all(program.sequential_source)[:-1]:
        rt_base.eval_form(form)
    base_code = rt_base.compile(
        rt_base.read_all(program.sequential_source)[-1], name="conf-step")
    # a (yield) is answered from the program's cyclic feeds, as run_vm
    # answers it, on both sides
    feeds = program.feeds or (1,)
    vm_base = rt_base.new_vm(allow_yield=True)
    baseline_count = 0
    base_yields: List[str] = []
    try:
        base_result = vm_base.run_code(base_code)
        while isinstance(base_result, Yielded) \
                and len(base_yields) < _MAX_RESUMES:
            baseline_count += vm_base.instruction_count
            base_yields.append(print_form(base_result.value))
            vm_base = rt_base.new_vm(allow_yield=True)
            base_result = vm_base.resume(
                base_result.continuation,
                feeds[(len(base_yields) - 1) % len(feeds)])
        base_outcome = Outcome.of_value(base_result.value) \
            if isinstance(base_result, Done) \
            else Outcome(kind=HANG, detail=f">{_MAX_RESUMES} resumes")
    except Exception as exc:  # noqa: BLE001
        base_outcome = Outcome.of_exception(exc)
    baseline_count += vm_base.instruction_count

    segments = 0
    total = 0

    def install_hook(vm) -> None:
        start = vm.instruction_count

        def hook(frame, op, arg):
            if vm._depth == 1 and vm.instruction_count - start >= stride:
                raise _StepPause()

        vm.instruction_hook = hook

    vm = rt.new_vm(allow_yield=True)
    install_hook(vm)
    pending: Optional[Callable[[], Any]] = lambda: vm.run_code(code)
    outcome: Optional[Outcome] = None
    yields: List[str] = []
    while outcome is None:
        try:
            result = pending()
            if isinstance(result, Done):
                outcome = Outcome.of_value(result.value,
                                           yields=tuple(yields))
            elif len(yields) >= _MAX_RESUMES:
                outcome = Outcome(kind=HANG, yields=tuple(yields),
                                  detail=f">{_MAX_RESUMES} resumes")
            else:
                # a real (yield): answer it from the feeds, on a fresh
                # VM, through pickle, as a resume after a pause is
                yields.append(print_form(result.value))
                total += vm.instruction_count
                continuation = pickle.loads(pickle.dumps(
                    result.continuation))
                feed = feeds[(len(yields) - 1) % len(feeds)]
                vm = rt.new_vm(allow_yield=True)
                install_hook(vm)
                pending = lambda: vm.resume(continuation, feed)  # noqa: E731
        except _StepPause:
            segments += 1
            total += vm.instruction_count
            if segments > max_segments:
                outcome = Outcome(kind=HANG,
                                  detail=f">{max_segments} segments")
                break
            continuation = capture(vm.frames, vm.handlers, vm.restarts,
                                   vm.dynamics.snapshot(), label="step")
            continuation = pickle.loads(pickle.dumps(continuation))
            frames, handlers, restarts, dynamics = materialize(continuation)
            vm = rt.new_vm(allow_yield=True)
            vm.handlers = handlers
            vm.restarts = restarts
            vm.dynamics = DynamicBindings()
            for name, dyn_value in dynamics.items():
                vm.dynamics.push(name, dyn_value)
            vm.frames = frames
            install_hook(vm)
            pending = lambda: vm._run_top(None)  # noqa: E731
        except Exception as exc:  # noqa: BLE001
            outcome = Outcome.of_exception(exc, yields=tuple(yields))
    total += vm.instruction_count
    if not outcome.agrees_with(base_outcome):
        outcome = Outcome(kind=ENGINE_ERROR,
                          detail=f"stepwise {outcome.describe()} != "
                                 f"baseline {base_outcome.describe()}")
    return StepwiseResult(outcome=outcome, segments=segments,
                          instructions=total,
                          baseline_instructions=baseline_count)


#: the stride the fuzz campaign steps a program at: short enough to
#: pause inside most fused entries and loop regions, long enough to
#: keep the campaign's time
STEPWISE_STRIDE = 7


def stepwise_outcome(program: GenProgram) -> Outcome:
    """The stepwise oracle as the campaign runs it, at
    :data:`STEPWISE_STRIDE`: what the stepped run observed, or an engine
    error when its segments' instruction counts do not add up to one
    uninterrupted run's.  A pause whose state does not pickle is an
    engine error too, as a migration of that fiber would be."""
    try:
        stepped = run_stepwise(program, stride=STEPWISE_STRIDE)
    except Exception as exc:  # noqa: BLE001 - outcomes, not crashes
        return Outcome.of_exception(exc)
    if not stepped.counts_agree:
        return Outcome(kind=ENGINE_ERROR,
                       detail=f"stepwise counted {stepped.instructions} "
                              f"instructions, one run "
                              f"{stepped.baseline_instructions}")
    return stepped.outcome


# ---------------------------------------------------------------------------
# distributed Vinz oracle
# ---------------------------------------------------------------------------

#: the survivable fault envelope (mirrors tests/test_properties.py):
#: any plan drawn from it must leave every task COMPLETED and correct.
def survivable_plan(rng: random.Random):
    from ..faults.plan import (CRASH, DELAY, DROP, DUPLICATE, FaultPlan,
                               MessageFault, NodeFault, StoreFault)

    faults: List[Any] = []
    for _ in range(rng.randint(0, 3)):
        roll = rng.random()
        if roll < 0.45:
            faults.append(MessageFault(
                action=rng.choice([DROP, DUPLICATE, DELAY]),
                nth=rng.randint(1, 6), count=rng.randint(1, 2),
                delay=rng.uniform(0.05, 1.0)))
        elif roll < 0.8:
            faults.append(StoreFault(
                action="fail-write",
                key_prefix=rng.choice(["", "fiber-state/", "fiber-thunk/"]),
                nth=rng.randint(1, 6), count=rng.randint(1, 2)))
        else:
            faults.append(NodeFault(
                action=CRASH, at=rng.uniform(0.1, 2.0),
                restart_after=rng.uniform(0.5, 2.0)))
    return FaultPlan(faults, name="conformance-chaos")


def run_vinz(program: GenProgram, seed: int = 0, chaos: bool = True,
             deadline: float = 5_000.0) -> Outcome:
    """Run the program as a distributed Vinz workflow.

    The body becomes ``(defun main (params) ...)``; the task runs on a
    3-node simulated cluster with event-sourced history, a snapshot
    every third suspension (a version between that no node caches is
    rebuilt by replay) and (optionally) a seeded chaos plan drawn from
    the survivable envelope.  A completed task is additionally
    re-verified with :meth:`~repro.vinz.api.VinzEnvironment.replay_task`
    — a replay divergence is an engine error even when the value
    agrees.  The outcome carries the run's rebuilds by base and the
    program-global writes its fibers were refused.
    """
    from ..faults.injector import FaultInjector
    from ..history import ReplayDivergenceError
    from ..history.recorder import REBUILD_BASES
    from ..vinz.api import VinzEnvironment, WorkflowError
    from ..vinz.task import COMPLETED

    rng = random.Random(seed ^ 0xC0FFEE)
    env = VinzEnvironment(nodes=3, seed=seed, trace=True, history="on",
                          snapshot_interval=3)
    try:
        env.deploy_workflow("Conformance", program.vinz_source,
                            spawn_limit=3)
        if chaos:
            FaultInjector(seed, survivable_plan(rng)).install(env)
        task_id = env.start("Conformance", params=[])
        task = env.wait_for_task(
            task_id, deadline=env.cluster.kernel.now + deadline)
        if task.status == COMPLETED:
            env.replay_task(task_id)
            outcome = Outcome.of_value(task.result)
        else:
            outcome = Outcome(kind=CONDITION, ctype="error",
                              detail=str(task.error or task.status))
    except TimeoutError as exc:
        outcome = Outcome(kind=HANG, detail=str(exc))
    except ReplayDivergenceError as exc:
        outcome = Outcome(kind=ENGINE_ERROR,
                          detail=f"replay divergence: {exc}")
    except WorkflowError as exc:
        outcome = Outcome(kind=CONDITION, ctype="error",
                          detail=f"{exc.qname}: {exc.fault_message}")
    except Exception as exc:  # noqa: BLE001
        outcome = Outcome.of_exception(exc)
    outcome.rebuilds = {base: env.metrics.get(f"history.rebuild_base.{base}")
                        for base in REBUILD_BASES}
    outcome.global_writes = env.metrics.get("fiber.global-write-refused")
    return outcome
