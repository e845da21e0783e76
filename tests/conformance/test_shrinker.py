"""Shrinker tests: minimality, safety and the oracle-replay predicate."""

import pytest

from repro.conformance import (DifferentialExecutor, Divergence, Outcome,
                               ProgramGenerator, Shrinker, shrink_divergence)
from repro.conformance.corpus import loads
from repro.conformance.shrinker import still_diverges
from repro.lang.printer import print_form
from repro.lang.symbols import Symbol


def program(source, feeds=()):
    text = ";; name: t\n;; stratum: pure\n"
    if feeds:
        text += ";; feeds: " + " ".join(map(str, feeds)) + "\n"
    return loads(text + source)


def contains_division(form):
    if isinstance(form, Symbol):
        return form.name == "/"
    if isinstance(form, list):
        return any(contains_division(f) for f in form)
    return False


class TestShrinker:
    def test_shrinks_to_minimal_interesting_body(self):
        # synthetic interestingness: "contains a division" — the
        # shrinker should strip all the bystander structure around it
        big = program(
            "(defun noise (x) (* x 2))\n"
            "(let ((a (noise 3)) (b (list 1 2 3)))\n"
            "  (list (length b) (+ a (/ 10 2)) (reverse b)))")
        result = Shrinker(
            lambda p: contains_division(p.body)).shrink(big)
        shrunk = result.program
        assert contains_division(shrunk.body)
        assert not shrunk.prelude  # the unused defun was dropped
        # minimal: just the division call, nothing around it
        assert print_form(shrunk.body) in ("(/ 10 2)", "(/ 0)", "(/)",
                                           "(/ 0 0)", "(/ 10 0)",
                                           "(/ 0 2)")

    def test_uninteresting_program_is_returned_unchanged(self):
        p = program("(+ 1 2)")
        result = Shrinker(lambda _: False).shrink(p)
        assert result.program.forms == p.forms

    def test_check_budget_is_respected(self):
        big = program("(list " + " ".join(str(i) for i in range(30)) + ")")
        result = Shrinker(lambda p: isinstance(p.body, list),
                          max_checks=10).shrink(big)
        assert result.checks <= 10
        assert result.exhausted

    def test_shrunk_programs_stay_well_formed(self):
        # every accepted candidate must still be readable source —
        # the corpus round trip is how repros get checked in
        from repro.lang.reader import read_all

        big = program("(let ((x (list 1 2 3)))\n"
                      "  (if (> (length x) 1) (/ 6 3) :small))")
        result = Shrinker(
            lambda p: contains_division(p.body)).shrink(big)
        assert read_all(result.program.source) == result.program.forms


def divergence(oracle, p, baseline=None, observed=None):
    """An original divergence for the predicate to reproduce."""
    broken = Outcome(kind="engine-error", detail="RecursionError: deep")
    return Divergence(oracle, baseline or broken, observed or broken, p)


class TestStillDiverges:
    def test_healthy_program_does_not_diverge(self):
        p = program("(sort (list 3 1 2))")
        assert not still_diverges(p, divergence("vm", p))
        assert not still_diverges(p, divergence("vm-pickle", p))
        assert not still_diverges(p, divergence("tree", p))

    def test_harness_exception_counts_as_boring(self, monkeypatch):
        # a candidate that crashes the harness itself (not the engine
        # under test) must count as uninteresting, not abort the
        # shrink loop
        import repro.conformance.shrinker as mod

        def boom(*args, **kwargs):
            raise RuntimeError("harness died")

        monkeypatch.setattr(mod, "run_vm", boom)
        p = program("(+ 1 2)")
        assert not still_diverges(p, divergence("tree", p))

    def test_unknown_oracle_raises(self):
        p = program("(+ 1 2)")
        with pytest.raises(ValueError):
            still_diverges(p, divergence("bogus", p))

    def test_a_different_failure_is_not_the_same_divergence(
            self, monkeypatch):
        """The oracle pair still disagrees, but the observed side now
        fails for another reason: not a repro of the original."""
        import repro.conformance.shrinker as mod

        p = program("(+ 1 2)")
        value = Outcome.of_value(3)
        bug = Outcome(kind="condition", ctype="error", detail="the bug")
        other = Outcome(kind="condition", ctype="error",
                        detail="undeclared task variable")
        original = divergence("tree", p, value, bug)
        monkeypatch.setattr(mod, "run_vm", lambda *a, **k: value)
        monkeypatch.setattr(mod, "run_tree", lambda *a, **k: bug)
        assert still_diverges(p, original)
        monkeypatch.setattr(mod, "run_tree", lambda *a, **k: other)
        assert not still_diverges(p, original)
        monkeypatch.setattr(mod, "run_tree",
                            lambda *a, **k: Outcome.of_value(4))
        assert not still_diverges(p, original)

    def test_a_fuzzed_divergence_shrinks_to_itself(self, monkeypatch):
        """Seed 7's program 0226 ran under Vinz into an unsupported
        join: a ``for-each`` on a future's thread forked a fiber and
        joined it synchronously, which the simulation refuses.  That
        path is put back here (the engine now runs such a loop in
        place).  Shrunk by any disagreement, the program became a
        task-variable write whose ``deftaskvar`` the shrinker had
        dropped."""
        from repro.vinz.execution import FiberExecution

        monkeypatch.setattr(
            FiberExecution, "call_clone",
            lambda self, vm, fn: self.join_sync(self.fork(fn, [], False)))
        executor = DifferentialExecutor()
        original, = executor.run(ProgramGenerator(7).generate(226)).divergences
        assert original.oracle == "vinz"
        assert "join-process" in original.observed.detail
        shrunk = shrink_divergence(original, max_checks=40).program
        assert len(shrunk.source) < len(original.program.source)
        again, = executor.run(shrunk).divergences
        assert again.signature() == original.signature()
