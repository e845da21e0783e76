"""The ledger document: every workload in one JSON file, and the
comparison of two such files.

``run_all`` runs each workload of BENCHMARK.json in its own fresh child
process, one at a time (the platform is a single-threaded virtual-clock
simulation, and the machine has two cores): first the untraced run that
gives the end-to-end metrics, then the traced run that gives the
per-layer ones.  ``compare`` applies the rule of the choosing-metrics
guide: a metric whose value got worse by more than its bound is
``regressed``; otherwise it is ``unchanged``, unless the spread of the
base's own repeats is wider than the bound, which leaves it
``unresolved``.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional

from . import PERF_DIR, out_path


def _child(workload: str, seed: int, seconds: Optional[float], trace: int,
           smoke: bool) -> Dict[str, Any]:
    out = out_path(f"run_{workload}_{trace}.json")
    command = [sys.executable, str(PERF_DIR / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(trace), "--out", str(out)]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    if smoke:
        command.append("--smoke")
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def _digest(results: List[Any]) -> str:
    return hashlib.sha256(json.dumps(results).encode()).hexdigest()[:16]


def run_all(seed: int, seconds: Optional[float], out: Optional[str],
            smoke: bool, spec: Dict[str, Any]) -> int:
    document: Dict[str, Any] = {
        "schema": 1, "seed": seed, "smoke": smoke,
        "run_seconds": seconds if seconds is not None
        else spec["run_seconds"],
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        plain = _child(workload, seed, seconds, 0, smoke)
        traced = _child(workload, seed, seconds, 1, smoke)
        problems = plain["problems"] + traced["problems"]
        if plain["results"] != traced["results"]:
            problems.append("traced and untraced task results differ")
        document["workloads"][workload] = {
            "correct": plain["correct"] and traced["correct"]
            and not problems,
            "attempted": plain["attempted"], "failed": plain["failed"],
            "problems": problems, "tail": plain["tail"],
            "results_digest": _digest(plain["results"]),
            "end_to_end": plain["metrics"], "per_layer": traced["metrics"],
        }
    runs = document["workloads"]
    # the two configurations were given the same inputs: same answers
    if runs["suspend_churn_paper"]["results_digest"] \
            != runs["suspend_churn_durable"]["results_digest"]:
        for name in ("suspend_churn_paper", "suspend_churn_durable"):
            runs[name]["correct"] = False
            runs[name]["problems"].append(
                "paper and durable configurations disagree on task results")

    for workload, run in runs.items():
        tail = run["tail"]
        print(f"\n{workload}: {run['attempted']} attempted, "
              f"{run['failed']} failed, tail is {tail['percentile']} of "
              f"{tail['n']} tasks"
              + "".join(f"\n  NOT CORRECT: {p}" for p in run["problems"]))
        for group in ("end_to_end", "per_layer"):
            for name, entry in run[group].items():
                spread = _spread(entry)
                note = f"  (n={len(entry['samples'])}, spread " \
                       f"{spread:.1%}, min {min(entry['samples']):.6g}, " \
                       f"max {max(entry['samples']):.6g})" \
                    if "samples" in entry else ""
                print(f"  {name:42s} {entry['value']:>14.6g} "
                      f"{entry['unit']}{note}")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=1)
            fh.write("\n")
    return 0 if all(run["correct"] for run in runs.values()) else 1


def _spread(entry: Dict[str, Any]) -> float:
    """Interquartile range of a metric's samples over their median."""
    samples = entry.get("samples", ())
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def worse_by(base: float, value: float, better: str) -> float:
    """How much worse ``value`` is than ``base``, as a share of base."""
    change = (value - base) / base
    return change if better == "lower" else -change


def compare(path_a: str, path_b: str, spec: Dict[str, Any]) -> int:
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    print(f"A = {path_a} (seed {a['seed']}), B = {path_b} (seed {b['seed']})")
    print(f"{'workload':22s} {'metric':26s} {'A':>12s} {'B':>12s} "
          f"{'B/A':>7s} {'bound':>6s}  verdict")
    bad = 0
    for workload, run_a in a["workloads"].items():
        run_b = b["workloads"].get(workload)
        if run_b is None:
            print(f"{workload:22s} missing from B")
            bad += 1
            continue
        for declared in spec["end_to_end"]:
            name = declared["name"]
            entry_a, entry_b = run_a["end_to_end"][name], \
                run_b["end_to_end"][name]
            base, value = entry_a["value"], entry_b["value"]
            if worse_by(base, value, declared["better"]) > declared["bound"]:
                verdict = "regressed"
                bad += 1
            elif _spread(entry_a) > declared["bound"]:
                verdict = "unresolved"
            else:
                verdict = "unchanged"
            print(f"{workload:22s} {name:26s} {base:12.6g} {value:12.6g} "
                  f"{value / base:7.3f} {declared['bound']:6.0%}  {verdict}")
        share_a = run_a["failed"] / run_a["attempted"]
        share_b = run_b["failed"] / run_b["attempted"]
        if share_b > share_a:
            print(f"{workload:22s} failed share rose: {share_a:.4f} -> "
                  f"{share_b:.4f}")
            bad += 1
    print("B/A is B's value over A's, the base; " + (
        f"{bad} row(s) regressed" if bad else "no row regressed"))
    return 1 if bad else 0
