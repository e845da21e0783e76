"""End-to-end fuzz campaign smoke test (small budget).

The CI conformance job runs the real campaign (seed 7, budget 200);
this keeps a fast in-process version in tier 1 so a broken campaign
driver never reaches CI silently.
"""

import json

from repro.conformance import run_fuzz
from repro.conformance.fuzz import write_report
from repro.lang.bytecode import FUSED
from repro.observe import MetricsRegistry


class TestFuzzSmoke:
    def test_small_campaign_is_clean(self, tmp_path):
        metrics = MetricsRegistry()
        report = run_fuzz(seed=11, budget=12, vinz_every=6,
                          metrics=metrics,
                          repro_dir=str(tmp_path / "repros"))
        assert report.ok, report.summary()
        assert report.programs == 12
        assert report.oracle_runs["vm"] == 12
        assert report.oracle_runs["vm-pickle"] == 12
        # coverage accounting engaged
        cov = report.coverage
        assert 0 < cov.special_form_ratio <= 1
        assert 0 < cov.builtin_ratio <= 1
        assert 0 < cov.opcode_ratio <= 1
        # the fast loop's fused forms are ledger entries, credited from
        # the fused view
        assert all(cov.opcodes[name] for name in FUSED)
        # metrics flowed through repro.observe
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["conformance.programs"] == 12
        assert "conformance.coverage.builtins" in snapshot["gauges"]

    def test_report_serializes(self, tmp_path):
        report = run_fuzz(seed=5, budget=4, vinz_every=4)
        path = tmp_path / "report.json"
        write_report(report, str(path))
        data = json.loads(path.read_text())
        assert data["programs"] == 4
        assert data["unclassified_divergences"] == 0
        assert data["coverage"]["special_forms"]["total"] > 0
        # human summary renders
        assert "conformance fuzz" in report.summary()
