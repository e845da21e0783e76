"""CLI tests: ``python -m repro``."""

import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATS = os.path.join(REPO, "examples", "gozer", "stats.gozer")
PORTFOLIO = os.path.join(REPO, "examples", "gozer", "portfolio.gozer")


def cli(*argv, stdin="", expect_rc=0):
    proc = subprocess.run([sys.executable, "-m", "repro", *argv],
                          input=stdin, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode == expect_rc, proc.stderr
    return proc.stdout


class TestCli:
    def test_dis(self):
        out = cli("dis", "(+ 1 2)")
        assert "call" in out and "return" in out

    def test_dis_prints_every_nested_fused_view(self):
        # the defun's body is a nested code object: its listing and its
        # fused view follow the top level's, with the collect loop as
        # one region, and the dolist naming the entry that keeps it
        # from being one
        out = cli("dis", "(defun f (p) (dolist (x (getf p :xs)) (print x))"
                         " (loop for i from 0 below (getf p :n) collect"
                         " (list i (* i i))))")
        assert out.count("; code ") == 2 and out.count("; fused ") == 2
        assert "; fused f" in out
        assert out.count("  region  ") == 1
        assert "; no region: pc " in out

    def test_expand(self):
        out = cli("expand", "(unless a b)")
        assert "(if a nil (progn b))" in out

    def test_run_file(self):
        out = cli("run", STATS)
        assert "summarize" in out  # value of the last defun

    def test_run_file_with_main(self, tmp_path):
        wf = tmp_path / "wf.gozer"
        wf.write_text("(defun main (params) (* (or params 1) 6))")
        assert "42" in cli("run", str(wf), "7")

    def test_deploy(self):
        out = cli("deploy", PORTFOLIO, "((:price 2.0 :quantity 5))")
        assert "result:" in out
        assert ":total 10.0" in out
        assert "virtual time" in out

    def test_deploy_with_extensions_flags(self):
        out = cli("deploy", PORTFOLIO, "((:price 1.0 :quantity 1))",
                  "--edf",
                  "--adaptive-migration")
        assert ":total 1.0" in out

    def test_trace(self):
        out = cli("trace", PORTFOLIO, "((:price 3.0 :quantity 2))")
        assert "task-start" in out
        assert "task-complete" in out
        assert "completed" in out

    def test_production_day(self):
        out = cli("production-day", "0.001", "--nodes", "4", "--slots", "2")
        assert "tasks/day" in out
        assert "cache hit rates" in out

    def test_repl_subcommand(self):
        out = cli("repl", stdin="(* 6 7)\n:quit\n")
        assert "42" in out

    def test_fuzz(self, tmp_path):
        report = tmp_path / "report.json"
        out = cli("fuzz", "--seed", "11", "--budget", "8",
                  "--vinz-every", "8", "--report", str(report))
        assert "unclassified divergences: 0" in out
        assert "coverage:" in out
        import json

        doc = json.loads(report.read_text())
        assert doc["programs"] == 8

    def test_bad_command_exits_nonzero(self):
        proc = subprocess.run([sys.executable, "-m", "repro", "bogus"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
