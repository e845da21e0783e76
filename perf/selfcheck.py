"""Run the whole benchmark twice on the same tree and require that the
two ledgers agree: every end-to-end metric within its bound in either
direction, every exact count equal, and no ``regressed`` row in the
comparison.  A benchmark that cannot reproduce itself cannot judge a
change.

``python3 perf/selfcheck.py`` takes about seven minutes;
``--smoke`` runs a tenth of the size with one repeat, where wall times
mean little, so only the counts, virtual times and results are held
equal.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

PERF_DIR = Path(__file__).resolve().parent
if __package__ in (None, ""):
    sys.path[0] = str(PERF_DIR.parent)

#: wall-clock and memory metrics: compared only at full size
TIMED = ("setup_s", "wall_s", "tasks_per_s", "peak_rss_mb")
#: (group, metric): counts that must repeat exactly for one seed
EXACT = (("end_to_end", "store_write_ios_per_task"),) + tuple(
    ("per_layer", name) for name in (
        "gvm.instructions_per_task", "vinz.persist_writes_per_task",
        "vinz.persist_skipped_per_task", "vinz.fibers_per_task",
        "history.events_per_task", "history.rebuilds_per_task",
        "history.rebuild_instructions_per_task", "history.divergences",
        "durastore.flushes_per_task", "bluebox.messages_per_task",
        "bluebox.store_reads_per_task", "persistsnap.chunks_new_per_task"))


def disagreements(a: Dict[str, Any], b: Dict[str, Any],
                  spec: Dict[str, Any], timed: bool) -> List[str]:
    """Every way ledger ``b`` fails to reproduce ledger ``a``."""
    found = []
    for workload, run_a in a["workloads"].items():
        run_b = b["workloads"][workload]
        for run in (run_a, run_b):
            if not run["correct"]:
                found.append(f"{workload}: not correct: {run['problems']}")
        if run_a["results_digest"] != run_b["results_digest"]:
            found.append(f"{workload}: task results differ")
        for declared in spec["end_to_end"]:
            name = declared["name"]
            if name in TIMED and not timed:
                continue
            x = run_a["end_to_end"][name]["value"]
            y = run_b["end_to_end"][name]["value"]
            if abs(y - x) > declared["bound"] * abs(x):
                found.append(f"{workload}: {name} {x:.6g} vs {y:.6g} is "
                             f"outside {declared['bound']:.0%}")
        for group, name in EXACT:
            x = run_a[group][name]["value"]
            y = run_b[group][name]["value"]
            if x != y:
                found.append(f"{workload}: {name} {x} vs {y} is not "
                             "exactly equal")
    return found


def main(argv: Optional[List[str]] = None) -> int:
    from perf import ledger, manifest, out_path
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=2010)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    spec = manifest()
    paths = [str(out_path(f"selfcheck_{side}.json")) for side in "ab"]
    for path in paths:
        command = [sys.executable, str(PERF_DIR / "run.py"),
                   "--seed", str(args.seed), "--out", path]
        if args.smoke:
            command.append("--smoke")
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
    documents = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            documents.append(json.load(fh))
    found = disagreements(*documents, spec=spec, timed=not args.smoke)
    if not args.smoke and ledger.compare(*paths, spec=spec) != 0:
        found.append("--compare reports a regressed row")
    for line in found:
        print(f"SELFCHECK: {line}")
    print("selfcheck " + ("FAILED" if found else "passed"))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
