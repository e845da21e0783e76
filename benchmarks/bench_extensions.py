"""Ablation benches for the Section 5 future-work extensions.

The paper's closing section sketches improvements; we implemented three
and measure each against the paper's baseline behaviour:

* E1 locality-aware placement vs. queue-only placement — does the fiber
  cache stop being "only somewhat effective"?
* E2 adaptive migration vs. always-migrate — does learning recover the
  overhead the programmer would otherwise have to guess away?
* E3 sibling chaining vs. AwakeFiber-per-spawn — does the low-spawn-
  limit permission overhead disappear?
"""

import pytest

from repro.bluebox.services import simple_service
from repro.harness.reporting import paper_vs_measured, series
from repro.vinz.api import VinzEnvironment

MULTI_HOP = """
(defun main (params)
  (dotimes (i 6) (workflow-sleep 0.2))
  :done)
"""


def test_e1_affinity_placement(benchmark, bench_report):
    def run(placement):
        env = VinzEnvironment(nodes=8, seed=11, placement=placement,
                              trace=False)
        env.deploy_workflow("W", MULTI_HOP)
        for i in range(10):
            env.cluster.send("W", "Start", {"params": i})
        env.cluster.run_until_idle()
        return env

    benchmark.pedantic(lambda: run("affinity"), rounds=1, iterations=1)

    results = {p: run(p) for p in ("balanced", "affinity")}
    rows = []
    for placement, env in results.items():
        rates = env.cache_hit_rates()
        rows.append((placement,
                     round(rates["mutable"], 3),
                     round(rates["immutable"], 3),
                     env.store.reads,
                     round(env.cluster.kernel.now, 2)))
    bench_report("ext_affinity", series(
        "E1 — locality-aware placement vs queue-only "
        "(paper §4.2 cache problem, §5 Swarm idea)",
        "placement",
        ["mutable hit rate", "immutable hit rate", "store reads",
         "makespan (virt s)"],
        rows))

    balanced = results["balanced"].cache_hit_rates()["mutable"]
    affinity = results["affinity"].cache_hit_rates()["mutable"]
    assert affinity > 2 * balanced
    assert results["affinity"].store.reads < results["balanced"].store.reads


def test_e2_adaptive_migration(benchmark, bench_report):
    def run(policy, tasks=6):
        env = VinzEnvironment(nodes=4, seed=12, trace=False)
        env.migration_policy = policy

        def fast(ctx, body):
            ctx.charge(0.001)
            return 1

        def slow(ctx, body):
            ctx.charge(2.0)
            return 2

        env.deploy_service(simple_service(
            "Mixed", {"Fast": fast, "Slow": slow}, namespace="urn:mixed"))
        env.deploy_workflow("W", """
            (deflink M :wsdl "urn:mixed")
            (defun main (params)
              (dotimes (i 6) (M-Fast-Method))
              (M-Slow-Method))""")
        for _ in range(tasks):
            env.call("W", None)
        return env

    benchmark.pedantic(lambda: run("adaptive"), rounds=1, iterations=1)

    results = {p: run(p) for p in ("programmer", "adaptive")}
    rows = []
    for policy, env in results.items():
        rows.append((policy,
                     env.cluster.metrics.get("op.W.ResumeFromCall"),
                     env.counters.get("persist.writes"),
                     env.cluster.metrics.get("sync.Mixed.Fast"),
                     round(env.cluster.kernel.now, 2)))
    bench_report("ext_adaptive_migration", series(
        "E2 — adaptive migration vs always-migrate "
        "(§5: 'learn which requests do or do not benefit')",
        "policy",
        ["migrations (ResumeFromCall)", "persists", "sync fast calls",
         "total virt s"],
        rows))

    prog = results["programmer"]
    adap = results["adaptive"]
    # adaptive eliminates most fast-call migrations and their persists
    assert adap.counters.get("persist.writes") < \
        prog.counters.get("persist.writes") / 2
    # and still migrates the slow calls (fibers don't block 2s slots)
    assert adap.cluster.metrics.get("op.W.ResumeFromCall") >= 6


def test_e3_sibling_chaining(benchmark, bench_report):
    children = 12

    def run(strategy, limit):
        env = VinzEnvironment(nodes=8, seed=13, trace=False)
        opt = ":strategy :chain" if strategy == "chain" else ""
        env.deploy_workflow("W", f"""
            (defun main (params)
              (for-each (x in params {opt}) (compute 1.0) x))""",
            spawn_limit=limit)
        env.run("W", list(range(children)))
        return env

    benchmark.pedantic(lambda: run("chain", 4), rounds=1, iterations=1)

    rows = []
    stats = {}
    for strategy in ("awake", "chain"):
        for limit in (2, 4, 8):
            env = run(strategy, limit)
            stats[(strategy, limit)] = env
            rows.append((f"{strategy} / limit {limit}",
                         round(env.cluster.kernel.now, 2),
                         env.cluster.metrics.get("op.W.AwakeFiber"),
                         env.counters.get("persist.writes"),
                         env.cluster.queue.delivered))
    bench_report("ext_sibling_chain", series(
        f"E3 — sibling chaining vs AwakeFiber-per-spawn "
        f"({children} children x 1s)",
        "strategy / spawn limit",
        ["makespan (virt s)", "AwakeFiber msgs", "persists",
         "messages delivered"],
        rows))

    for limit in (2, 4, 8):
        awake_env = stats[("awake", limit)]
        chain_env = stats[("chain", limit)]
        # one parent wake-up instead of N
        assert chain_env.cluster.metrics.get("op.W.AwakeFiber") == 1
        assert awake_env.cluster.metrics.get("op.W.AwakeFiber") >= children
        # fewer messages and parent persists overall
        assert chain_env.cluster.queue.delivered < \
            awake_env.cluster.queue.delivered
        # and never slower
        assert chain_env.cluster.kernel.now <= \
            awake_env.cluster.kernel.now * 1.05


def test_e4_deadline_scheduling(benchmark, bench_report):
    """E4: FCFS (the paper's production scheduler, 'shown to be
    suboptimal in the presence of deadlines') vs the EDF policy built
    from the paper's references [7] and [8]."""
    def run(policy, n=16, seed=14):
        env = VinzEnvironment(nodes=2, slots=2, seed=seed, trace=False)
        env.scheduling_policy = policy
        env.edf_horizon = 10.0
        env.deploy_workflow("W", """
            (defun main (params) (compute 1.0) :done)""")
        deadlines = []
        for i in range(n):
            deadline = 1.6 + (n - 1 - i) * 0.3  # inverse to submit order
            deadlines.append(deadline)
            env.cluster.send("W", "Start",
                             {"params": i, "deadline": deadline})
        env.cluster.run_until_idle()
        misses = 0
        total_lateness = 0.0
        for task, deadline in zip(env.registry.tasks.values(), deadlines):
            assert task.status == "completed"
            if task.finished_at > deadline:
                misses += 1
                total_lateness += task.finished_at - deadline
        return {"misses": misses, "lateness": total_lateness,
                "makespan": env.cluster.kernel.now, "n": n}

    benchmark.pedantic(lambda: run("edf"), rounds=1, iterations=1)

    results = {p: run(p) for p in ("fcfs", "edf")}
    rows = [(policy, r["n"], r["misses"], round(r["lateness"], 2),
             round(r["makespan"], 2))
            for policy, r in results.items()]
    bench_report("ext_deadline_scheduling", series(
        "E4 — FCFS vs deadline-aware (EDF) scheduling "
        "(16 x 1s tasks, 4 slots, deadlines inverse to submission)",
        "policy", ["tasks", "deadline misses", "total lateness (s)",
                   "makespan (virt s)"],
        rows))

    assert results["edf"]["misses"] < results["fcfs"]["misses"]
    # same work, same cluster: throughput is unchanged
    assert abs(results["edf"]["makespan"] - results["fcfs"]["makespan"]) < 1.0
