"""Oracle tests: outcome algebra, the execution backends and the
stepwise oracle's place in the campaign."""

import pickle

from repro.conformance import (DifferentialExecutor, Outcome,
                               ProgramGenerator, oracles, run_tree,
                               run_vinz, run_vm, run_vm_pickle)
from repro.conformance.corpus import loads
from repro.conformance.oracles import StepwiseResult
from repro.conformance.shrinker import still_diverges
from repro.conformance.grammar import DIST, SUSPEND


def program(source, stratum="pure", feeds=()):
    text = f";; name: t\n;; stratum: {stratum}\n"
    if feeds:
        text += ";; feeds: " + " ".join(map(str, feeds)) + "\n"
    return loads(text + source)


class TestOutcomeAlgebra:
    def test_values_compare_by_equality(self):
        assert Outcome.of_value([1, 2]).agrees_with(Outcome.of_value([1, 2]))
        assert not Outcome.of_value(1).agrees_with(Outcome.of_value(2))

    def test_conditions_compare_by_ctype(self):
        a = run_vm(program("(/ 1 0)"))
        b = run_vm(program("(/ 2 0)"))
        assert a.kind == "condition"
        assert a.ctype == "division-by-zero"
        assert a.agrees_with(b)

    def test_strict_ctype_toggle(self):
        type_err = run_vm(program("(+ 1 :k)"))
        div_zero = run_vm(program("(/ 1 0)"))
        assert not type_err.agrees_with(div_zero)
        # non-strict (the vinz comparison): both are conditions
        assert type_err.agrees_with(div_zero, strict_ctype=False)

    def test_value_never_agrees_with_condition(self):
        assert not Outcome.of_value(0).agrees_with(
            run_vm(program("(/ 1 0)")), strict_ctype=False)


class TestVmOracles:
    def test_vm_runs_prelude_then_body(self):
        p = program("(defun sq (x) (* x x))\n(sq 9)")
        assert run_vm(p).value == 81

    def test_pickle_roundtrip_is_transparent(self):
        p = program("(let ((acc 0))\n"
                    "  (dotimes (i 3) (setq acc (+ acc (yield))))\n"
                    "  acc)", stratum=SUSPEND, feeds=(5, 6, 7))
        base = run_vm(p)
        pickled = run_vm_pickle(p)
        assert base.value == 18
        assert base.agrees_with(pickled, compare_yields=True)

    def test_feeds_cycle_when_exhausted(self):
        p = program("(+ (yield) (yield) (yield))",
                    stratum=SUSPEND, feeds=(1, 2))
        assert run_vm(p).value == 1 + 2 + 1


class TestTreeOracle:
    def test_agrees_on_pure_program(self):
        p = program("(reverse (append (list 1 2) (list 3)))")
        assert run_tree(p).agrees_with(run_vm(p))

    def test_continuations_are_classified_unsupported(self):
        p = program("(yield)", stratum=SUSPEND, feeds=(0,))
        assert run_tree(p).kind == "unsupported"

    def test_conditions_match_vm_ctype(self):
        p = program("(/ 1 0)")
        tree, vm = run_tree(p), run_vm(p)
        assert tree.kind == "condition"
        assert tree.ctype == vm.ctype == "division-by-zero"


class TestVinzOracle:
    def test_value_survives_distribution(self):
        p = program("(for-each (x in (list 1 2 3)) (* x 10))",
                    stratum=DIST)
        vinz = run_vinz(p, seed=3, chaos=False)
        assert vinz.kind == "value"
        assert vinz.agrees_with(run_vm(p))

    def test_value_survives_chaos(self):
        p = program("(parallel (+ 1 1) (* 2 3))", stratum=DIST)
        vinz = run_vinz(p, seed=5, chaos=True)
        assert vinz.agrees_with(run_vm(p)), vinz.describe()

    def test_workflow_conditions_map_to_condition(self):
        p = program("(/ 1 0)")
        vinz = run_vinz(p, seed=1, chaos=False)
        assert vinz.kind == "condition"
        assert run_vm(p).agrees_with(vinz, strict_ctype=False)


class TestGeneratedAgreement:
    def test_sampled_generated_programs_agree(self):
        gen = ProgramGenerator(29)
        checked = 0
        for index in range(12):
            p = gen.generate(index)
            base = run_vm(p)
            assert base.kind != "engine-error", base.describe()
            pickled = run_vm_pickle(p)
            assert base.agrees_with(pickled, compare_yields=True), p.name
            checked += 1
        assert checked == 12


class TestStepwiseOracle:
    """The campaign runs the stepwise oracle on a sample of programs."""

    def test_every_fifth_program_without_futures_is_stepped(self):
        executor = DifferentialExecutor()
        gen = ProgramGenerator(7)
        skips = {index: executor.plan_skips(gen.generate(index))
                 .get("stepwise") for index in range(40)}
        stepped = [index for index, skip in skips.items() if skip is None]
        assert stepped and all(index % 5 == 0 for index in stepped)
        assert {skips[index] for index in range(40) if index % 5} \
            <= {"stepwise:not-sampled", "stepwise:futures"}
        futures = program("(touch (future (+ 1 2)))")
        assert executor.plan_skips(futures)["stepwise"] == "stepwise:futures"
        verdict = executor.run(program("(let ((a 0)) "
                                       "(dotimes (i 9) (setq a (+ a i))) a)"))
        assert verdict.ok and verdict.outcomes["stepwise"].value == 36

    def test_a_count_that_does_not_add_up_is_a_divergence(self, monkeypatch):
        plain = oracles.run_stepwise

        def miscounted(p, stride=1):
            result = plain(p, stride)
            return StepwiseResult(result.outcome, result.segments,
                                  result.instructions + 1,
                                  result.baseline_instructions)

        monkeypatch.setattr(oracles, "run_stepwise", miscounted)
        p = program("(let ((a 0)) (dotimes (i 9) (setq a (+ a i))) a)")
        divergence, = DifferentialExecutor().run(p).divergences
        assert divergence.oracle == "stepwise"
        assert divergence.observed.kind == "engine-error"
        assert "stepwise counted" in divergence.observed.detail
        assert still_diverges(p, divergence)

    def test_a_pause_that_does_not_pickle_is_a_divergence(self, monkeypatch):
        def unpicklable(p, stride=1):
            raise pickle.PicklingError("a local closure on the stack")

        monkeypatch.setattr(oracles, "run_stepwise", unpicklable)
        divergence, = DifferentialExecutor().run(program("(+ 1 2)")) \
            .divergences
        assert divergence.oracle == "stepwise"
        assert divergence.observed.kind == "engine-error"
