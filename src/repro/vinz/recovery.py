"""Orphan-fiber recovery: no crashed node may strand a suspended fiber.

Paper Section 4.2 motivates distributed locks with the single-runner
requirement — but locks create the dual hazard: a JVM that dies while
*holding* a fiber's lock leaves the fiber locked forever (NFS lock
files outlive their writers, and the paper calls the NFS behaviour
"completely opaque").  The lease layer in :mod:`repro.bluebox.locks`
bounds that ownership in virtual time; this module closes the loop:

* :class:`RecoveryScanner` watches the leases that can lapse — held
  by no operation window in flight on a live node — armed by the lock
  manager's ``lease_listener`` when one appears, so it costs nothing
  while every holder is alive, and expires the ones whose lease lapsed
  or whose owner node is dead — through the one public
  :meth:`LockManager.expire_lock`
  API, so the ordering invariant (zombie window aborted *before* the
  lock changes hands) holds for scanner recoveries too;
* for every reclaimed ``fiber/…`` lock it re-enqueues the fiber's last
  awaken message.  The message keeps its original id, so the
  ``processed_deliveries`` guard makes the re-awaken idempotent: if the
  fiber was in fact advanced (or another delivery of the same message
  is already looping on the queue), the duplicate is a no-op and the
  fiber is never run twice.

Together with the fencing check on fiber-state writes this yields the
two invariants the chaos campaign asserts jointly: **no fiber stays
stuck** (every orphaned lock is reclaimed within one lease TTL plus
one scan interval) and **no fiber is ever double-run**.

The other way a fiber can be stranded — its lifecycle message
exhausting the retry policy — ends here too:
:meth:`RecoveryScanner.on_message_dead_lettered` fails the fiber
through the normal error path so nothing hangs.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

from ..bluebox.cluster import REDELIVERY_DELAY
from ..bluebox.services import OperationContext
from ..bluebox.store import StoreError

#: slop added when scheduling a scan at a lease's expiry instant, so
#: the `now >= expires_at` comparison is decided by arithmetic, not by
#: floating-point luck
_EPSILON = 1e-6


class RecoveryScanner:
    """Detects lapsed/orphaned lock leases and re-awakens their fibers.

    Driven entirely off the cluster's discrete-event clock: a scan is
    armed when a lease becomes able to lapse (granted outside any
    window, or left held by a window that ended — its node died, say)
    and re-armed only while such leases remain, so a healthy run never
    scans and the kernel still drains to idle.
    """

    def __init__(self, vinz):
        self.vinz = vinz
        self.locks = vinz.locks
        #: scan cadence while a lease can lapse: half the TTL, so
        #: recovery latency is bounded by ``ttl + interval`` (0 = leases
        #: never lapse, nothing to scan for)
        self.interval = self.locks.lease_ttl / 2.0
        self.locks.lease_listener = self._on_lapsable
        self._armed = False
        # statistics (expiries and re-awakens are registry counters:
        # ``recovery.locks_expired`` / ``recovery.reawakened``)
        self.scans = 0
        self.reawakens_skipped = 0
        self.max_recovery_latency = 0.0
        self.total_recovery_latency = 0.0

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------

    def _on_lapsable(self, lease) -> None:
        """``lease`` can lapse from now: scan by the instant it would."""
        delay = self._next_delay()
        if delay is not None:
            self._arm(delay)

    def _arm(self, delay: float) -> None:
        if self._armed or self.interval <= 0:
            return
        self._armed = True
        self.vinz.cluster.kernel.schedule(delay, self._tick)

    def _next_delay(self) -> Optional[float]:
        """Seconds until the earliest lease that can lapse expires,
        capped at the scan interval; None when no lease can lapse."""
        leases = self.locks.lapsable_leases()
        if not leases or self.interval <= 0:
            return None
        earliest = min(lease.expires_at for lease in leases)
        if not math.isfinite(earliest):
            return None
        now = self.vinz.cluster.kernel.now
        return min(max(0.0, earliest - now) + _EPSILON, self.interval)

    # ------------------------------------------------------------------
    # scanning
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        self._armed = False
        self.scans += 1
        cluster = self.vinz.cluster
        now = cluster.kernel.now
        for lease in self.locks.lapsable_leases():
            node_id = self.locks.owner_node(lease.owner)
            node = cluster.nodes.get(node_id) if node_id else None
            dead = node is not None and not node.alive
            if not dead and not self.locks.lease_expired(lease.key):
                continue
            reason = "owner-node-dead" if dead else "lease-lapsed"
            # the breaker aborts any zombie window before the entry is
            # removed — scanner recoveries obey the ordering invariant
            evicted = self.locks.expire_lock(lease.key, reason=reason)
            if evicted is None:
                continue
            latency = now - lease.renewed_at
            self.max_recovery_latency = max(self.max_recovery_latency,
                                            latency)
            self.total_recovery_latency += latency
            metrics = self.vinz.metrics
            metrics.incr("recovery.locks_expired")
            if metrics.enabled:
                metrics.histogram("recovery.latency").observe(latency)
            tracer = cluster.tracer
            if tracer.enabled:
                span = tracer.begin("recovery.expire", kind="recovery",
                                    start=lease.renewed_at, key=lease.key,
                                    owner=evicted, reason=reason)
                tracer.event(now, "lease-expired", span, key=lease.key,
                             owner=evicted, reason=reason)
                tracer.end(span, end=now)
            if lease.key.startswith("fiber/"):
                self._reawaken(lease.key[len("fiber/"):], reason)
        delay = self._next_delay()
        if delay is not None:
            self._arm(delay)

    def _reawaken(self, fiber_id: str, reason: str) -> None:
        """Idempotently re-enqueue the orphaned fiber's awaken message.

        Same message id as the original delivery, so receivers treat it
        exactly like a queue-level duplicate: if the fiber already
        advanced under it, ``processed_deliveries`` makes it a no-op.
        """
        fiber = self.vinz.registry.fibers.get(fiber_id)
        if fiber is None or fiber.finished or fiber.last_message is None:
            self.reawakens_skipped += 1
            return
        cluster = self.vinz.cluster
        message = fiber.last_message
        cluster.queue.push_back(message, now=cluster.kernel.now)
        cluster.kernel.schedule(cluster.delivery_latency,
                                lambda s=message.service: cluster._kick(s))
        self.vinz.metrics.incr("recovery.reawakened")
        if cluster.tracer.enabled:
            cluster.tracer.event(cluster.kernel.now, "fiber-reawakened",
                                 message.span_id, fiber=fiber_id,
                                 msg=message.id, reason=reason)

    # ------------------------------------------------------------------
    # dead letters
    # ------------------------------------------------------------------

    def on_message_dead_lettered(self, message) -> None:
        """A fiber-lifecycle message exhausted its retry policy.

        The fiber it addressed can never advance again, so fail it
        through the normal error path: the parent sees a
        ``child-fiber-error`` condition when collecting (its handlers
        get their say, Section 3.7), a main fiber fails the whole task
        (waking synchronous callers with a fault) — nothing hangs.
        """
        workflow = self.vinz.workflows.get(message.service)
        fiber_id = (message.body or {}).get("fiber")
        if workflow is None or fiber_id is None:
            return  # Start/management traffic: the reply fault suffices
        registry = self.vinz.registry
        fiber = registry.fibers.get(fiber_id)
        if fiber is None or fiber.finished:
            return
        task = registry.tasks.get(fiber.task_id)
        if task is None or task.finished:
            return
        error = (f"{message.operation} message #{message.id} dead-lettered "
                 f"after {message.attempts} attempts")
        # no message: a window of its own, unless a handler's is open
        # around us (a steal or crash inside it dead-lettered this
        # message) — then the writes join that one
        cluster = self.vinz.cluster
        ctx = OperationContext(cluster)
        if not cluster.store.window_open:
            cluster.store.begin_window()
            ctx.owns_window = True
        # a refused commit puts fiber and task back through the
        # registry's undo log, as an aborted advancement window does
        workflow._fiber_failed(ctx, task, fiber, error,
                               terminate_task=(fiber.parent_id is None))
        try:
            ctx.commit()
        except StoreError:
            if ctx.valid:
                raise  # from a post-commit hook: the window did commit
            # nothing of it happened: no message to redeliver, so the
            # handling itself is tried again
            self.vinz.metrics.incr("recovery.dead-letter-retried")
            cluster.kernel.schedule(
                REDELIVERY_DELAY,
                lambda: self.on_message_dead_lettered(message))

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        return {
            "interval": self.interval,
            "scans": self.scans,
            "locks_expired": self.vinz.metrics.get("recovery.locks_expired"),
            "fibers_reawakened": self.vinz.metrics.get("recovery.reawakened"),
            "reawakens_skipped": self.reawakens_skipped,
            "max_recovery_latency": self.max_recovery_latency,
            "total_recovery_latency": self.total_recovery_latency,
        }
