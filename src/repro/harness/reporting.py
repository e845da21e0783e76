"""Benchmark reporting helpers.

Each benchmark regenerates one of the paper's tables/figures/claims and
prints rows in a uniform ``metric | paper | measured`` format, so that
EXPERIMENTS.md entries can be produced straight from bench output.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Tuple


def format_value(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def table(title: str, headers: Sequence[str],
          rows: Iterable[Sequence[Any]]) -> str:
    """Render an aligned text table."""
    rendered_rows = [[format_value(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells):
        return " | ".join(cell.ljust(widths[i])
                          for i, cell in enumerate(cells))

    sep = "-+-".join("-" * w for w in widths)
    out = [f"== {title} ==", line(headers), sep]
    out.extend(line(row) for row in rendered_rows)
    return "\n".join(out)


def paper_vs_measured(title: str,
                      rows: Iterable[Tuple[str, Any, Any]]) -> str:
    """The canonical three-column report."""
    return table(title, ["metric", "paper", "measured"], rows)


def series(title: str, x_name: str, y_names: Sequence[str],
           points: Iterable[Sequence[Any]]) -> str:
    """A figure-style series table (one row per x)."""
    return table(title, [x_name, *y_names], points)


def ratio_check(name: str, measured: float, expected: float,
                tolerance: float = 0.5) -> str:
    """A one-line shape check: is measured within tolerance×expected?"""
    ok = expected * (1 - tolerance) <= measured <= expected * (1 + tolerance)
    flag = "OK" if ok else "OUT-OF-BAND"
    return (f"   {name}: measured={format_value(measured)} "
            f"expected≈{format_value(expected)} [{flag}]")


def observability_tables(env) -> str:
    """The environment's observability report (repro.observe) rendered
    in the harness table format: histogram percentiles, span counts by
    kind, event count and cache hit rates."""
    report = env.observability_report()
    blocks = []
    hists = report["metrics"]["histograms"]
    if hists:
        blocks.append(table(
            "Metrics (histograms)",
            ["name", "count", "mean", "p50", "p95", "p99", "max"],
            [(name, h["count"], h["mean"], h["p50"], h["p95"], h["p99"],
              h["max"]) for name, h in sorted(hists.items())]))
    spans = report["spans"]
    if spans["created"]:
        blocks.append(table(
            "Spans", ["kind", "count"],
            sorted(spans["by_kind"].items())))
    blocks.append(table(
        "Caches", ["cache", "hit rate"],
        sorted(report["cache_hit_rates"].items())))
    blocks.append(f"trace: {report['trace_log']['events']} events "
                  f"(virtual time {format_value(report['virtual_time'])}s)")
    return "\n\n".join(blocks)


def write_json_report(env, path: str) -> str:
    """Publish the plain-JSON observability report; returns the path."""
    import json

    with open(path, "w") as fh:
        json.dump(env.observability_report(), fh, indent=1, default=repr)
    return path
