"""Tests of the benchmark itself: ``pytest perf/tests -q``.

Not collected by the repository's tier-1 run (``testpaths = tests``).
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

from perf import ROOT, ledger, manifest, run, selfcheck, trace, workloads

SPEC = manifest()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- the contract of BENCHMARK.json -------------------------------------

def test_manifest_keys_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perf"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [w["name"] for w in SPEC["workloads"]] \
        + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_manifest_names_the_workloads_that_exist():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_every_layer_has_a_share_metric():
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert {f"{layer}.self_share" for layer in trace.LAYERS} <= declared


# -- inputs and oracles -------------------------------------------------

@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    workload = workloads.WORKLOADS[name]
    size = workload.small()
    assert workload.make_ops(7, size) == workload.make_ops(7, size)
    assert workload.make_ops(7, size) != workload.make_ops(8, size)


def test_churn_configurations_get_identical_inputs():
    paper = workloads.WORKLOADS["suspend_churn_paper"]
    durable = workloads.WORKLOADS["suspend_churn_durable"]
    assert paper.size == durable.size and paper.source == durable.source
    assert paper.make_ops(3, paper.size) == durable.make_ops(3, durable.size)
    assert paper.config != durable.config


def test_churn_oracle_by_hand():
    # rows start (0 0) (1 1) (2 4) (3 9); touching 2, 2, 3:
    # acc 4, row2=4; acc 8, row2=8; acc 17, row3=17
    assert workloads.churn_expected(4, [2, 2, 3]) == [17, 4, 0 + 1 + 8 + 17]


def test_production_day_keeps_the_population_across_seeds():
    one = workloads.production_day_ops(1, 50)
    two = workloads.production_day_ops(2, 50)
    assert sorted(op.expected for op in one) == \
        sorted(op.expected for op in two)
    assert [op.arrival for op in one] != [op.arrival for op in two]
    assert all(a.arrival <= b.arrival for a, b in zip(one, one[1:]))


# -- the measurement rules ----------------------------------------------

@pytest.mark.parametrize("n, percentile", [
    (1000, "p99"), (500, "p95"), (100, "p90"), (40, "p75"), (12, "max")])
def test_tail_needs_ten_samples_beyond(n, percentile):
    picked = run.tail([float(i) for i in range(1, n + 1)])
    assert picked["percentile"] == percentile and picked["n"] == n
    beyond = sum(1 for i in range(1, n + 1) if i > picked["value"])
    assert beyond >= 10 or percentile == "max"


def test_self_time_is_duration_minus_children():
    tracer = trace.WallTracer()
    child = tracer._wrap(lambda: sum(range(20000)), "child", "gvm")
    tracer.root(trace.DRIVE, lambda: (child(), child()))
    totals, drive_ns = tracer.self_ns_by_layer()
    root, first, second = tracer.spans
    assert first[4] == second[4] == 0 and root[4] == -1
    children = (first[3] - first[2]) + (second[3] - second[2])
    assert totals["gvm"] == children
    assert totals["bluebox.cluster"] == drive_ns - children
    assert sum(totals.values()) == drive_ns


def test_wrappers_are_removed_again():
    from repro.gvm.vm import VM
    original = VM.__dict__["_run_top"]
    tracer = trace.WallTracer()
    tracer.install()
    assert VM.__dict__["_run_top"] is not original
    tracer.uninstall()
    assert VM.__dict__["_run_top"] is original


def _ledger(wall, samples=None, failed=0):
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
               for m in SPEC["end_to_end"]}
    metrics["wall_s"] = {"value": wall, "unit": "s",
                         "samples": samples or [wall]}
    return {"seed": 1, "workloads": {"w": {
        "attempted": 10, "failed": failed, "end_to_end": metrics}}}


def test_compare_verdicts(tmp_path, capsys):
    def compare(a, b):
        for name, document in (("a", a), ("b", b)):
            (tmp_path / name).write_text(json.dumps(document))
        code = ledger.compare(str(tmp_path / "a"), str(tmp_path / "b"), SPEC)
        return code, capsys.readouterr().out

    bound = next(m["bound"] for m in SPEC["end_to_end"]
                 if m["name"] == "wall_s")
    code, out = compare(_ledger(1.0), _ledger(1.0 + bound / 2))
    assert code == 0 and "regressed" not in out.replace("no row regressed", "")
    code, out = compare(_ledger(1.0), _ledger(1.0 + bound * 1.5))
    assert code == 1 and "regressed" in out
    noisy = _ledger(1.0, samples=[0.6, 0.8, 1.0, 1.2, 1.6])
    code, out = compare(noisy, _ledger(1.0 + bound / 2))
    assert code == 0 and "unresolved" in out
    code, out = compare(_ledger(1.0), _ledger(1.0, failed=1))
    assert code == 1 and "failed share rose" in out


# -- end to end -----------------------------------------------------------

def test_smoke_ledger_reproduces_itself():
    """Two smoke ledgers: every metric name is emitted for every
    workload, all oracles pass, and counts, virtual times and results
    are the same in both."""
    assert selfcheck.main(["--smoke"]) == 0
    document = json.loads(
        (ROOT / "perf" / "out" / "selfcheck_a.json").read_text())
    assert list(document["workloads"]) == list(workloads.WORKLOADS)
    for entry in document["workloads"].values():
        assert entry["correct"] and entry["failed"] == 0
        assert list(entry["end_to_end"]) == \
            [m["name"] for m in SPEC["end_to_end"]]
        assert set(entry["per_layer"]) == \
            {m["name"] for m in SPEC["per_layer"]}


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and perf/ there is
    nothing to measure: non-zero exit and no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "dist_fanout",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
