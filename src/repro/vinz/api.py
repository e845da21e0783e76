"""The high-level Vinz API: one object wiring everything together.

:class:`VinzEnvironment` owns the simulated cluster, the shared store,
the distributed lock manager and the process registry, and provides the
operations a platform operator (or a test) performs: deploy a workflow,
start/run/call it, terminate it, wait for completion, inspect metrics.

Typical use::

    from repro.vinz.api import VinzEnvironment

    vinz = VinzEnvironment(nodes=4)
    vinz.deploy_workflow("SumSquares", WORKFLOW_SOURCE)
    result = vinz.call("SumSquares", [1, 2, 3, 4])   # -> 30
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..bluebox.cluster import Cluster
from ..bluebox.locks import (
    CoordinatorLockManager,
    FileLockManager,
    LockManager,
)
from ..bluebox.store import SharedStore
from ..sched.governor import GovernorConfig, SpawnGovernor
from .recovery import RecoveryScanner
from .service import WorkflowService
from .task import ProcessRegistry, TaskRecord

#: adaptive migration: migrate only when the expected service time
#: exceeds this — roughly the cost of one persist + one restore + queue
#: trip
MIGRATION_THRESHOLD = 0.05
#: weight of the newest observation in the per-operation latency EWMA
MIGRATION_EWMA_ALPHA = 0.3


class WorkflowError(RuntimeError):
    """A synchronous Call failed (the task errored or was terminated)."""

    def __init__(self, qname: str, message: str):
        super().__init__(f"{qname}: {message}")
        self.qname = qname
        self.fault_message = message


class VinzEnvironment:
    """The Vinz platform: cluster + store + locks + tracking.

    ``locks`` selects the distributed lock backend: ``"coordinator"``
    (the ZooKeeper-like replacement the paper is building) or ``"file"``
    (the original NFS file locks; their visibility quirk is
    :data:`repro.bluebox.locks.RELEASE_VISIBILITY_DELAY`).
    """

    def __init__(self, nodes: int = 4, slots: int = 1, seed: int = 0,
                 store: Optional[SharedStore] = None,
                 locks: str = "coordinator",
                 trace: bool = True,
                 spans: Optional[bool] = None,
                 placement: str = "balanced",
                 retry_policy=None,
                 scheduler: Any = None,
                 admission: Any = None,
                 governor: Optional[GovernorConfig] = None,
                 lease_ttl: float = 2.0,
                 history: str = "off",
                 snapshot_interval: int = 1,
                 recovery: str = "snapshot"):
        #: ``scheduler`` picks the queue's message-ordering policy
        #: (None/"strict" = the paper's priority heap, "fair" = deficit
        #: round-robin with priority aging); ``admission`` switches on
        #: watermark admission control (True, an AdmissionConfig, or a
        #: ready controller); ``governor`` tunes the AIMD spawn
        #: governor backing ``(vinz-auto-spawn-limit)`` and
        #: ``spawn_limit="auto"`` deployments.  All default to the
        #: paper's behaviour.  See repro.sched / docs/scheduler.md.
        self.cluster = Cluster(seed=seed, trace=trace,
                               retry_policy=retry_policy, spans=spans,
                               scheduler=scheduler, admission=admission)
        self.cluster.add_nodes(nodes, slots=slots)
        self.store = store if store is not None else SharedStore()
        # the cluster brackets every operation window on the store, and
        # store recovery gets tracer/metrics/virtual-time wiring
        self.cluster.store = self.store
        self.store.tracer = self.cluster.tracer
        self.store.metrics = self.cluster.metrics
        self.store.now_fn = lambda: self.cluster.kernel.now
        #: the adaptive spawn governor (repro.sched.governor).  Always
        #: present — it only acts for tasks/deployments that opt in
        #: with ``spawn_limit="auto"`` or ``(vinz-auto-spawn-limit)``.
        self.governor = SpawnGovernor(self.cluster, governor)
        #: optional FaultInjector (set by FaultInjector.install(env))
        self.injector = None
        self.locks: LockManager
        if locks == "coordinator":
            self.locks = CoordinatorLockManager()
        elif locks == "file":
            self.locks = FileLockManager(
                self.store, clock_now=lambda: self.cluster.kernel.now)
        else:
            raise ValueError(f"unknown lock backend {locks!r}")
        # ------- lease layer + orphan-fiber recovery -----------------
        #: every lock (either backend) carries a TTL lease charged to
        #: the virtual clock, renewed by cluster heartbeats while its
        #: operation window runs; ``lease_ttl=0`` disables lapsing
        #: (locks are held until released — the pre-lease behaviour)
        self.locks.configure_leases(
            ttl=lease_ttl,
            clock_now=lambda: self.cluster.kernel.now)
        #: the cluster fences commits and heartbeats in-flight windows
        self.cluster.lock_manager = self.locks
        #: every lease expiry/steal aborts the zombie's window *before*
        #: the lock changes hands (the single ordering invariant that
        #: makes steals safe)
        self.locks.lease_breaker = self.cluster.break_window_for
        #: detects lapsed leases / dead owners and re-awakens orphans
        self.recovery = RecoveryScanner(self)
        # dead-lettered fiber messages must fail their task/fiber
        # through the condition system instead of hanging it
        self.cluster.dead_letter_listeners.append(
            self.recovery.on_message_dead_lettered)
        #: committed advancement windows ``(fiber_id, message_id,
        #: start, end)`` — the raw material of the single-runner audit
        self.runner_audit: List[tuple] = []
        self.registry = ProcessRegistry()
        # ------- event-sourced task history (docs/history_replay.md) --
        if history not in ("off", "on"):
            raise ValueError(f"unknown history mode {history!r}")
        if recovery not in ("snapshot", "replay"):
            raise ValueError(f"unknown recovery mode {recovery!r}")
        if recovery == "replay" and history != "on":
            raise ValueError('recovery="replay" requires history="on"')
        if snapshot_interval < 1:
            raise ValueError("snapshot_interval must be >= 1")
        #: "snapshot" = rebuild crashed fibers from persisted
        #: continuations; "replay" = re-execute from the history log
        self.recovery_mode = recovery
        #: persist a continuation snapshot only every Nth suspension
        #: (1 = the paper's every-step); the versions in between are
        #: rebuilt by history replay, so N > 1 takes effect only with
        #: ``history="on"``
        self.snapshot_interval = int(snapshot_interval)
        self.history = None
        self.history_log = None
        self.replayer = None
        if history == "on":
            from ..history import HistoryLog, HistoryRecorder, ReplayEngine
            self.history_log = HistoryLog(self.store)
            self.history = HistoryRecorder(self, self.history_log)
            self.replayer = ReplayEngine(self)
        if placement not in ("balanced", "affinity"):
            raise ValueError(f"unknown placement policy {placement!r}")
        #: "balanced" = the paper's production behaviour (the queue
        #: alone decides placement); "affinity" = the Section 5
        #: future-work locality policy (prefer the fiber's last node,
        #: so resumes hit that node's fiber cache)
        self.placement = placement
        # ------- adaptive migration (Section 5 future work) ----------
        #: "programmer" = the paper's production behaviour (the stub's
        #: static/dynamic flags decide); "adaptive" = Vinz learns which
        #: operations are fast enough that migration costs more than it
        #: saves, and calls those synchronously.
        self.migration_policy = "programmer"
        #: per-soap-action EWMA of observed service latency (seconds)
        self.service_latency: Dict[str, float] = {}
        # ------- deadline-aware scheduling (Section 5 / refs [7][8]) --
        #: "fcfs" = the paper's production behaviour ("task scheduling
        #: is first-come-first-serve, which has been shown to be
        #: suboptimal in the presence of deadlines"); "edf" = derive
        #: message priorities from task slack (earliest deadline first)
        self.scheduling_policy = "fcfs"
        #: slack (seconds) mapped linearly onto the priority range:
        #: slack <= 0 -> most urgent; slack >= edf_horizon -> normal
        self.edf_horizon = 60.0
        self.workflows: Dict[str, WorkflowService] = {}
        # concurrency profiling for the production bench
        self.task_concurrency = self.metrics.level("tasks.in_flight")
        self.fiber_concurrency = self.metrics.level("fibers.in_flight")

    @property
    def tracer(self):
        """The cluster's tracer: event stream + span tree
        (repro.observe)."""
        return self.cluster.tracer

    @property
    def metrics(self):
        """The cluster's metrics registry (repro.observe)."""
        return self.cluster.metrics

    #: the platform's counters are the registry's always-on counters
    counters = metrics

    # ------------------------------------------------------------------
    # deployment
    # ------------------------------------------------------------------

    def deploy_workflow(self, name: str, source: str,
                        node_ids: Optional[List[str]] = None,
                        **config: Any) -> WorkflowService:
        """Wrap a Gozer program as a workflow service and deploy it.

        ``node_ids`` restricts deployment to specific nodes (default:
        every node, the paper's usual arrangement).
        """
        service = WorkflowService(name, source, self, **config)
        self.cluster.deploy(service, node_ids=node_ids)
        self.workflows[name] = service
        return service

    def deploy_service(self, service) -> None:
        """Deploy an ordinary (non-workflow) BlueBox service."""
        self.cluster.deploy(service)

    # ------------------------------------------------------------------
    # workflow operations (client side of Table 1)
    # ------------------------------------------------------------------

    def _drain_in_flight(self) -> None:
        """Process pending completion events (lock releases, counters).

        ``run_until`` stops at the instant a predicate is satisfied,
        which can leave operations mid-window; draining them keeps the
        platform's bookkeeping consistent for the caller.
        """
        self.cluster.run_until(lambda: not self.cluster._in_flight)

    def start(self, workflow: str, params: Any = None,
              deadline: Optional[float] = None) -> str:
        """Start a task asynchronously; return its id immediately.

        ``deadline`` (absolute virtual time) feeds the EDF scheduling
        policy when ``scheduling_policy="edf"``.
        """
        body: Dict[str, Any] = {"params": params}
        if deadline is not None:
            body["deadline"] = deadline
        envelope = self.cluster.call(workflow, "Start", body)
        if not envelope.ok:
            raise WorkflowError(envelope.fault_qname, envelope.fault_message)
        return envelope.value["task"]

    def run(self, workflow: str, params: Any = None) -> str:
        """Run a task to completion; return its id."""
        envelope = self.cluster.call(workflow, "Run", {"params": params})
        if not envelope.ok:
            raise WorkflowError(envelope.fault_qname, envelope.fault_message)
        self._drain_in_flight()
        return envelope.value["task"]

    def call(self, workflow: str, params: Any = None) -> Any:
        """Run a task to completion; return its final result."""
        envelope = self.cluster.call(workflow, "Call", {"params": params})
        if not envelope.ok:
            raise WorkflowError(envelope.fault_qname, envelope.fault_message)
        self._drain_in_flight()
        return envelope.value

    def terminate(self, task_id: str) -> None:
        task = self.registry.tasks[task_id]
        self.cluster.call(task.workflow, "Terminate", {"task": task_id})

    def wait_for_task(self, task_id: str,
                      deadline: Optional[float] = None) -> TaskRecord:
        """Advance the simulation until the task finishes."""
        task = self.registry.tasks[task_id]
        while True:
            if not self.cluster.run_until(lambda: task.finished,
                                          deadline=deadline):
                raise TimeoutError(f"task {task_id} did not finish "
                                   f"(status {task.status})")
            self._drain_in_flight()
            # a refused commit un-finishes the task until its retry
            if task.finished:
                return task

    def replay_task(self, task_id: str, source: str = "log"):
        """Deterministically re-execute a finished task from its
        recorded history and verify every recorded event matches —
        raises :class:`~repro.history.ReplayDivergenceError` on the
        first mismatch.  Requires ``history="on"``."""
        if self.replayer is None:
            raise RuntimeError(
                'replay_task requires VinzEnvironment(history="on")')
        return self.replayer.replay_task(task_id, source=source)

    # ------------------------------------------------------------------
    # service resolution (deflink support)
    # ------------------------------------------------------------------

    def resolve_wsdl(self, namespace: str, port: Optional[str] = None):
        service = self.cluster.find_service_by_namespace(namespace)
        if service is None and namespace in self.cluster.services:
            service = self.cluster.services[namespace]
        if service is None:
            raise KeyError(f"deflink: no deployed service publishes "
                           f"{namespace!r}")
        return service.wsdl

    def resolve_soap_action(self, soap_action: str):
        namespace, _, operation = soap_action.rpartition(":")
        service = self.cluster.find_service_by_namespace(namespace)
        if service is None:
            raise KeyError(f"no service for soap action {soap_action!r}")
        return service.name, operation

    # ------------------------------------------------------------------
    # adaptive migration (Section 5 future work)
    # ------------------------------------------------------------------

    def record_service_latency(self, soap_action: str, seconds: float) -> None:
        """Feed one observed request round-trip into the learner."""
        previous = self.service_latency.get(soap_action)
        if previous is None:
            self.service_latency[soap_action] = seconds
        else:
            self.service_latency[soap_action] = \
                MIGRATION_EWMA_ALPHA * seconds \
                + (1 - MIGRATION_EWMA_ALPHA) * previous
        self.metrics.incr("migration.observations")

    def should_migrate(self, soap_action: str) -> bool:
        """Should a request to ``soap_action`` migrate the fiber?

        Under the default "programmer" policy, always yes (the
        generated stub's static/dynamic flags already had their say) —
        the paper's production behaviour, where the programmer must
        "decide, and often guess".  Under "adaptive", migrate only when
        the learned latency exceeds the migration overhead; unknown
        operations migrate once to be measured.
        """
        if self.migration_policy != "adaptive":
            return True
        expected = self.service_latency.get(soap_action)
        if expected is None:
            return True  # explore: measure it the expensive-safe way
        migrate = expected >= MIGRATION_THRESHOLD
        self.metrics.incr("migration.decisions."
                           + ("async" if migrate else "sync"))
        return migrate

    def message_priority(self, task: "TaskRecord", default: int) -> int:
        """Priority for a fiber message of ``task`` under the current
        scheduling policy.

        FCFS returns ``default`` (queue order alone decides, as in the
        paper's production system).  EDF maps the task's remaining
        slack onto the priority scale so tighter deadlines are
        delivered first.
        """
        if self.scheduling_policy != "edf" or task.deadline is None:
            return default
        slack = task.deadline - self.cluster.kernel.now
        if slack <= 0:
            return 1
        # linear map of [0, horizon] onto priorities [1, 8]
        fraction = min(1.0, slack / self.edf_horizon)
        return 1 + int(fraction * 7)

    # ------------------------------------------------------------------
    # failure injection / operations
    # ------------------------------------------------------------------

    def fail_node(self, node_id: str) -> int:
        """Kill a node and reclaim its locks.

        Each backend decides what node death means for its locks via
        the public :meth:`LockManager.expire_node` API: the coordinator
        expires the node's sessions immediately (its failure detector —
        the whole point of replacing NFS locks), while file locks are
        left in place — NFS "is completely opaque", so a dead holder's
        lock file survives until its lease lapses and the recovery
        scanner reclaims it.
        """
        requeued = self.cluster.fail_node(node_id)
        self.locks.expire_node(node_id)
        return requeued

    def restore_node(self, node_id: str) -> None:
        self.cluster.restore_node(node_id)

    # ------------------------------------------------------------------
    # monitoring hooks (called by WorkflowService)
    # ------------------------------------------------------------------

    def monitor_task_started(self, task: TaskRecord, now: float) -> None:
        self.task_concurrency.change(now, +1)
        self.fiber_concurrency.change(now, +1)  # the initial fiber
        self.metrics.incr("tasks.started")
        self.metrics.incr("fibers.started")

    def monitor_task_finished(self, task: TaskRecord, now: float) -> None:
        self.task_concurrency.change(now, -1)
        self.metrics.incr(f"tasks.{task.status}")
        if task.duration is not None:
            self.metrics.add("tasks.total_duration", task.duration)
        if task.span_id:
            self.cluster.tracer.end(task.span_id, end=now,
                                    status=task.status)

    def monitor_fiber_started(self, fiber, now: float) -> None:
        self.fiber_concurrency.change(now, +1)
        self.metrics.incr("fibers.started")

    def monitor_fiber_finished(self, fiber, now: float) -> None:
        self.fiber_concurrency.change(now, -1)
        self.metrics.incr(f"fibers.{fiber.status}")
        if fiber.span_id:
            self.cluster.tracer.end(fiber.span_id, end=now,
                                    status=fiber.status)

    def monitor_task_discarded(self, task: TaskRecord, now: float) -> None:
        """Roll back :meth:`monitor_task_started` after an aborted
        operation window discarded the freshly created task."""
        self.task_concurrency.change(now, -1)
        self.fiber_concurrency.change(now, -1)  # the initial fiber
        self.metrics.incr("tasks.discarded")

    def monitor_fiber_discarded(self, fiber, now: float) -> None:
        self.fiber_concurrency.change(now, -1)
        self.metrics.incr("fibers.discarded")

    # ------------------------------------------------------------------
    # metrics summary
    # ------------------------------------------------------------------

    def cache_hit_rates(self) -> Dict[str, float]:
        """Cluster-wide mutable/immutable fiber-cache hit rates
        (the paper's Section 4.2 measurement)."""
        out = {}
        for kind in ("mutable", "immutable"):
            hits = self.metrics.get(f"cache.{kind}.hit")
            misses = self.metrics.get(f"cache.{kind}.miss")
            total = hits + misses
            out[kind] = hits / total if total else 0.0
        return out

    def placement_stats(self) -> Dict[str, Any]:
        """Where resumes ran: messages parked for the node holding their
        fiber's elided version (``held``), and how each parking ended —
        on that node (``served``), at its cold-rebuild bound
        (``released``) or with the node's death (``node-lost``); plus
        the soft hints of ``placement="affinity"``."""
        metrics = self.metrics
        stats: Dict[str, Any] = {"policy": self.placement}
        for outcome in ("held", "served", "released", "node-lost"):
            stats[outcome] = metrics.get(f"placement.owner.{outcome}")
        for outcome in ("hit", "miss"):
            stats[f"affinity-{outcome}"] = \
                metrics.get(f"placement.affinity-{outcome}")
        return stats

    def snapshot_stats(self) -> Optional[Dict[str, Any]]:
        """Aggregate incremental-snapshot (v2) statistics across every
        deployed workflow, plus the digest-cache hit rate; ``None``
        when no workflow uses v2 snapshots."""
        pipelines = [w.snapper for w in self.workflows.values()
                     if w.snapper is not None]
        if not pipelines:
            return None
        stats: Dict[str, Any] = {"format": "v2"}
        for pipeline in pipelines:
            for key, value in pipeline.stats_snapshot().items():
                if key == "dedup_ratio":
                    continue
                stats[key] = stats.get(key, 0) + value
        written = stats.get("written_bytes", 0)
        stats["dedup_ratio"] = (round(stats.get("raw_bytes", 0) / written, 3)
                                if written else 1.0)
        hits = self.metrics.get("cache.digest.hit")
        misses = self.metrics.get("cache.digest.miss")
        total = hits + misses
        stats["digest_cache_hit_rate"] = hits / total if total else 0.0
        return stats

    def summary(self) -> Dict[str, Any]:
        return {
            "virtual_time": self.cluster.kernel.now,
            "tasks": self.registry.counts(),
            "fibers_total": len(self.registry.fibers),
            "queue": {
                "enqueued": self.cluster.queue.enqueued,
                "delivered": self.cluster.queue.delivered,
                "redelivered": self.cluster.queue.redelivered,
                "duplicated": self.cluster.queue.duplicated,
                "dead_lettered": self.cluster.queue.dead_lettered,
                "mean_wait": self.cluster.queue.mean_wait(),
            },
            "store": self.store.stats_snapshot(),
            "faults": {
                "injected": self.metrics.get("fault.injected"),
                "retries_scheduled": self.metrics.get("retry.scheduled"),
                "operation_faults": self.metrics.get("operation.faults"),
            },
            "sched": {
                "policy": self.cluster.queue.policy.name,
                "governor": self.governor.summary(),
                "admission": (self.cluster.admission.summary()
                              if self.cluster.admission is not None
                              else None),
                "aged_promotions": getattr(self.cluster.queue.policy,
                                           "aged_promotions", 0),
            },
            "cache": self.cache_hit_rates(),
            "placement": self.placement_stats(),
            "snapshots": self.snapshot_stats(),
            "history": (self.history.summary()
                        if self.history is not None else None),
            "recovery": {"mode": self.recovery_mode,
                         **self.recovery.summary(),
                         "leases": self.locks.lease_stats()},
            "utilization": self.cluster.utilization(),
            "peak_task_concurrency": self.task_concurrency.peak,
            "peak_fiber_concurrency": self.fiber_concurrency.peak,
            "trace": {"events": len(self.cluster.tracer.events)},
            "spans": self.cluster.tracer.summary(),
        }

    def observability_report(self) -> Dict[str, Any]:
        """The plain-JSON observability report: counters and metrics
        percentiles, span summary, event count, cache hit rates."""
        from ..observe.export import json_report
        return json_report(self)
