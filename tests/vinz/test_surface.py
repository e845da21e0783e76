"""The platform's surface is pinned: options do not creep back in, and
the live and replay bridges cannot drift apart."""

import inspect

import pytest

import repro.sched
from repro.bluebox.clock import SimKernel
from repro.bluebox.cluster import Cluster
from repro.bluebox.locks import FileLockManager
from repro.bluebox.store import SharedStore
from repro.conformance.executor import DifferentialExecutor
from repro.conformance.grammar import ProgramGenerator
from repro.durastore import DurableStore
from repro.faults.campaign import run_campaign
from repro.faults.plan import FaultPlan
from repro.gvm.runtime import Runtime
from repro.history.replay import ReplayEngine, ReplayExecution
from repro.persistsnap import SnapshotPipeline
from repro.sched import DeficitRoundRobinPolicy, SpawnGovernor
from repro.vinz.api import VinzEnvironment
from repro.vinz.cache import FiberCache
from repro.vinz.execution import FiberExecution
from repro.vinz.service import WorkflowService
from repro.workloads.production import run_production_day


def _options(entry_point):
    """Named parameters a caller may leave out."""
    return [p.name
            for p in inspect.signature(entry_point).parameters.values()
            if p.default is not p.empty]


def _public(cls):
    return {name for name, value in inspect.getmembers(cls, callable)
            if not name.startswith("_")}


def test_constructor_options_do_not_grow():
    assert len(_options(Cluster)) <= 5
    assert len(_options(VinzEnvironment)) <= 12
    assert len(_options(WorkflowService)) <= 5
    assert len(_options(run_production_day)) <= 7
    assert len(_options(run_campaign)) <= 7


def test_tuning_constants_stay_constants():
    """Values no caller outside the tests ever set are constants, not
    options: each of these constructors takes only what its callers
    really vary."""
    assert _options(SpawnGovernor) == []
    assert _options(DeficitRoundRobinPolicy) == []
    assert _options(SnapshotPipeline) == ["metrics"]
    assert _options(SharedStore) == []
    assert _options(DurableStore) == ["backends", "shards", "journal"]
    assert _options(FiberCache) == ["mutable_capacity"]
    assert _options(DifferentialExecutor) == ["vinz_every", "chaos",
                                              "metrics"]
    assert _options(ProgramGenerator) == []
    assert _options(Runtime) == ["executor", "clock"]
    assert _options(SimKernel) == []
    assert "GovernorConfig" not in repro.sched.__all__
    # verification reads the durable log; there is no other source
    assert _options(VinzEnvironment.replay_task) == []
    assert _options(ReplayEngine.replay_task) == []


def test_run_campaign_passes_environment_options_through():
    """``run_campaign`` declares no environment option of its own: each
    one reaches ``VinzEnvironment`` as written, and a misspelt one is
    refused there rather than dropped."""
    env = run_campaign(FaultPlan(), seed=3, tasks=1, locks="file",
                       lease_ttl=1.0, history="on",
                       snapshot_interval=3).env
    assert env.locks.lease_ttl == 1.0
    assert isinstance(env.locks, FileLockManager)
    assert env.history is not None
    assert env.snapshot_interval == 3
    with pytest.raises(TypeError, match="VinzEnvironment.*lease_tll"):
        run_campaign(FaultPlan(), seed=3, tasks=1, lease_tll=1.0)


def test_live_and_replay_bridges_have_the_same_intrinsics():
    """An intrinsic added to one side only fails here, not at the
    first crash rebuild."""
    assert _public(ReplayExecution) == _public(FiberExecution)


def test_replay_overrides_only_the_primitives():
    """Replay reverses the data flow of the primitives; every
    intrinsic built on them is inherited, so there is nothing to keep
    in step by hand."""
    overridden = {name for name in vars(ReplayExecution)
                  if not name.startswith("__")}
    assert overridden == {"nondet", "effect", "fork", "fork_chain", "charge"}


def test_a_vm_reaches_its_fiber_only_through_vm_vinz():
    """A future's and an ``eval``'s VM carry their fiber's ``vinz``
    (``Runtime.new_vm``); no thread-local flag or context variable
    says which fiber, or whether one, a thread runs for."""
    import contextvars
    import threading

    import repro.gvm.futures as futures
    import repro.vinz.distribution as distribution

    for module in (futures, distribution):
        assert not [name for name, value in vars(module).items()
                    if isinstance(value, (contextvars.ContextVar,
                                          threading.local))], module
        assert not [name for name in vars(module)
                    if "fiber_thread" in name], module


def test_names_the_benchmark_wraps_stay_where_they_are():
    """``perf/trace.py`` wraps these entry points on the class that
    defines them, and ``perf/probes.py`` drives a bare ``DurableStore``
    window by hand; a refactor that moves or renames one silently
    empties a layer of the ledger."""
    from repro.bluebox.locks import LockManager
    from repro.history import HistoryLog, HistoryRecorder

    pinned = [
        (DurableStore, ("begin_window", "seal_window", "commit_batch")),
        (HistoryRecorder, ("record",)),
        (HistoryLog, ("append_batch", "read_task")),
        (LockManager, ("renew_owner",)),
        (SharedStore, ("read", "write", "delete")),
        (Cluster, ("send",)),
    ]
    for cls, names in pinned:
        for name in names:
            assert callable(vars(cls).get(name)), f"{cls.__name__}.{name}"
    store = DurableStore(shards=2)
    store.begin_window()
    store.write("probe/0", b"x")
    store.delete("probe/0")
    store.commit_batch(store.seal_window())
    journal = store.stats_snapshot()["journal"]
    assert (journal["commits"], journal["records_committed"]) == (1, 2)
    assert {"flushes", "torn_appends", "bytes_appended"} <= set(journal)
