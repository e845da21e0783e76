"""Experiment L1 — lease-based fiber-lock recovery under crashes.

Paper Section 4.2: the distributed locks that enforce the single-runner
guarantee create the dual hazard — a JVM that dies *holding* a fiber's
lock strands the fiber, and NFS file locks give no failure detector
("the NFS server is completely opaque").  The lease layer bounds lock
ownership in virtual time; the recovery scanner expires lapsed leases
and re-awakens orphaned fibers idempotently.

This bench runs a chaos campaign under the **file** lock backend (the
worst case: only leases can recover) with crashes aimed straight at
lock holders — both ``on_lock`` (death the instant the fiber lock is
taken) and ``on_persist`` (death mid-window with state half written) —
and asserts the two invariants the subsystem exists to provide,
*jointly*:

* **no fiber permanently stuck** — every task completes with the right
  answer and no unfinished fiber remains locked by a dead owner;
* **no fiber ever double-run** — the committed-window audit shows no
  message committing twice and no per-fiber window overlap;

plus the latency bound: every scanner recovery happened within one
lease TTL plus one scan interval of the holder's last heartbeat.

A fault-free control run of the same campaign, with a TTL short enough
that its ``(compute 0.2)`` windows outlive the heartbeat interval,
shows the other side: live holders renew (``renewed > 0``) without the
scanner ever running (``scans == 0``).

The recovery report JSON (``benchmarks/out/recovery_report.json``) is
the artifact CI uploads; its ``stuck_fibers`` count must be 0, and so
must its ``healthy`` block's ``scans`` and ``stuck_fibers``.
"""

import json
import os

from repro.bluebox.locks import FileLockManager
from repro.faults import CRASH, FaultPlan, NodeFault
from repro.faults.campaign import run_campaign
from repro.harness.reporting import table

SEED = 42
NODES = 4
TASKS = 4
LEASE_TTL = 1.0
#: the control's TTL: its 0.125 s heartbeat interval is shorter than
#: the campaign's ``(compute 0.2)`` windows, so they renew
HEALTHY_LEASE_TTL = 0.5

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


def run(faults, lease_ttl=LEASE_TTL):
    return run_campaign(FaultPlan(faults, name="lock-recovery-smoke"),
                        seed=SEED, tasks=TASKS, nodes=NODES, locks="file",
                        lease_ttl=lease_ttl)


def test_lock_recovery_campaign(benchmark, bench_report):
    """Crash lease holders mid-window under file locks; prove recovery."""

    campaign = benchmark.pedantic(run, args=([
        # die the instant a fiber lock is taken: nothing persisted, the
        # NFS entry survives, only the lease can free it
        NodeFault(CRASH, on_lock=2, restart_after=2.0),
        NodeFault(CRASH, on_lock=9, restart_after=2.0),
        # die mid-persist: rollback + lease recovery + retry
        NodeFault(CRASH, on_persist=5, restart_after=2.0),
    ],), rounds=1, iterations=1)
    env = campaign.env
    assert isinstance(env.locks, FileLockManager)

    # the campaign actually exercised what it claims: nodes crashed
    # while holding fiber locks, and those locks were abandoned
    crashes = sum(count for action, count in campaign.injected.items()
                  if action.startswith("crash"))
    assert crashes >= 2, campaign.injected
    lease_stats = env.locks.lease_stats()
    assert lease_stats["abandoned"] >= 1, lease_stats

    # invariant 1: no fiber permanently stuck — every task finished
    # with the right answer, nothing left locked by a dead owner
    stuck = campaign.stuck_fibers()
    assert stuck == [], f"stranded fibers: {stuck}"
    assert campaign.all_completed, campaign.statuses
    assert campaign.wrong_results() == []

    # invariant 2: no fiber ever double-run
    violations = campaign.single_runner_violations()
    assert violations == [], f"single-runner violations: {violations}"

    # the scanner did the recovering (file locks have no failure
    # detector), within the documented latency bound
    recovery = env.recovery.summary()
    assert recovery["locks_expired"] >= 1, recovery
    latency_bound = LEASE_TTL + env.recovery.interval + 1e-6
    assert recovery["max_recovery_latency"] <= latency_bound, recovery

    # the control: with every holder alive, heartbeats keep the leases
    # and no lease can lapse, so the scanner never runs
    control = run([], lease_ttl=HEALTHY_LEASE_TTL)
    healthy = {"scans": control.env.recovery.scans,
               "renewed": control.env.locks.lease_stats()["renewed"],
               "stuck_fibers": len(control.stuck_fibers())}
    assert control.all_completed, control.statuses
    assert healthy["scans"] == 0 and healthy["renewed"] > 0, healthy
    assert healthy["stuck_fibers"] == 0, healthy

    payload = {
        "campaign": campaign.name,
        "seed": campaign.seed,
        "lock_backend": type(env.locks).__name__,
        "lease_ttl": LEASE_TTL,
        "scan_interval": env.recovery.interval,
        "faults_injected": dict(campaign.injected),
        "stuck_fibers": len(stuck),
        "double_runs": len(violations),
        "tasks_completed": campaign.completed,
        "committed_windows": len(env.runner_audit),
        "leases": lease_stats,
        "recovery": recovery,
        "recovery_latency_bound": latency_bound,
        "healthy": healthy,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, "recovery_report.json")
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2, default=str)

    text = table(
        "L1  lease-based lock recovery (file backend, crash campaign)",
        ["metric", "value"],
        [("faults injected", dict(campaign.injected)),
         ("locks abandoned by dead holders", lease_stats["abandoned"]),
         ("leases expired by scanner", recovery["locks_expired"]),
         ("fibers re-awakened", recovery["fibers_reawakened"]),
         ("stuck fibers", len(stuck)),
         ("single-runner violations", len(violations)),
         ("committed windows audited", len(env.runner_audit)),
         ("max recovery latency", round(recovery["max_recovery_latency"], 4)),
         ("latency bound (ttl + scan)", round(latency_bound, 4)),
         ("fence rejections", lease_stats["fence_rejections"]),
         ("fault-free control: scans / renewals",
          f"{healthy['scans']} / {healthy['renewed']}"),
         ("report artifact", out_path)])
    bench_report("bench_lock_recovery", text)
