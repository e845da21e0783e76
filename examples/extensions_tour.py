#!/usr/bin/env python3
"""A tour of a Section 5 future-work extension: sibling chaining.

The paper's closing section lists improvements the authors planned;
this reproduction implements them.  The tour runs the portfolio
valuation workflow (examples/gozer/portfolio.gozer), whose chained
for-each wakes its parent once for all of its children, and prints
what the run cost.

Run:  python examples/extensions_tour.py
"""

import os

from repro.vinz.api import VinzEnvironment

HERE = os.path.dirname(os.path.abspath(__file__))
PORTFOLIO_SOURCE = open(os.path.join(HERE, "gozer", "portfolio.gozer")).read()


def build_positions(n: int) -> list:
    from repro.lang.symbols import Keyword as K

    return [[K("price"), 100.0 + i, K("quantity"), 10 + i] for i in range(n)]


def run(name: str) -> dict:
    env = VinzEnvironment(nodes=6, seed=42, trace=False)
    env.deploy_workflow("Portfolio", PORTFOLIO_SOURCE, spawn_limit=3)
    positions = build_positions(12)
    result = env.call("Portfolio", positions)
    report = {result[i].name: result[i + 1] for i in range(0, len(result), 2)}
    stats = {
        "total": report["total"],
        "positions": report["positions"],
        "virtual_s": round(env.cluster.kernel.now, 2),
        "messages": env.cluster.queue.delivered,
        "awake_fibers": env.cluster.metrics.get("op.Portfolio.AwakeFiber"),
        "store_reads": env.store.reads,
        "mutable_hit": round(env.cache_hit_rates()["mutable"], 2),
    }
    print(f"\n== {name} ==")
    for key, value in stats.items():
        print(f"  {key:12} {value}")
    return stats


def main() -> None:
    print("Valuing 12 positions with the chained for-each "
          "(one AwakeFiber instead of 12).")

    stats = run("paper defaults")

    print(f"\nThe chained for-each needed {stats['awake_fibers']} "
          f"parent wake-up(s) for 12 children.")
    assert stats["awake_fibers"] == 1  # sibling chaining at work


if __name__ == "__main__":
    main()
