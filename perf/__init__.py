"""The performance ledger: ``python3 perf/run.py`` (see perf/README.md).

The benchmark command may not name ``src``, so importing this package
puts the repository's ``src`` directory on ``sys.path``.
"""

import json
import sys
from pathlib import Path
from typing import Any, Dict

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent

_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def manifest() -> Dict[str, Any]:
    """BENCHMARK.json: the workloads, metric names, units and bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def out_path(name: str) -> Path:
    """A file under ``perf/out/``, where everything the benchmark
    writes goes (git ignores it)."""
    out_dir = PERF_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    return out_dir / name
