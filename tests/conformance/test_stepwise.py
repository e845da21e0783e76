"""Suspend transparency at every instruction boundary (satellite 3).

``run_stepwise`` forces a continuation capture + pickle roundtrip +
restore at *each* instruction, then checks the program still computes
the same answer with the same total instruction count as an
uninterrupted run — capture/restore must be invisible to both the
value semantics and the cost model.
"""

import os

import pytest

from repro.conformance import ProgramGenerator, load_dir, run_stepwise, run_vm
from repro.conformance.corpus import loads
from repro.conformance.oracles import stepwise_safe

#: the corpus entries written for the fast loop's fused view
FUSED_ENTRIES = [p for p in load_dir(os.path.join(
    os.path.dirname(__file__), "corpus")) if p.name.startswith("fused-")]


def program(source):
    return loads(";; name: t\n;; stratum: pure\n" + source)


class TestStepwiseTransparency:
    def test_loop_every_instruction(self):
        p = program("(let ((acc 0))\n"
                    "  (dotimes (i 10) (setq acc (+ acc (* i i))))\n"
                    "  acc)")
        result = run_stepwise(p, stride=1)
        assert result.outcome.kind == "value"
        assert result.outcome.value == 285
        assert result.counts_agree, (result.instructions,
                                     result.baseline_instructions)
        # the capture machinery actually engaged — one segment per
        # instruction, not one uninterrupted run
        assert result.segments >= result.baseline_instructions - 1

    def test_conditions_survive_stepping(self):
        p = program("(handler-case (/ 1 0)\n"
                    "  (division-by-zero (c) :caught))")
        result = run_stepwise(p, stride=1)
        assert result.outcome.kind == "value"
        assert result.outcome.printed == ":caught"
        assert result.counts_agree

    def test_unwind_protect_survives_stepping(self):
        p = program("(let ((log (list)))\n"
                    "  (unwind-protect (push 1 log) (push 2 log))\n"
                    "  log)")
        result = run_stepwise(p, stride=1)
        assert result.outcome.kind == "value"
        assert result.counts_agree

    def test_dynamic_bindings_survive_stepping(self):
        p = program("(defvar *depth* 1)\n"
                    "(defun probe () *depth*)\n"
                    "(let ((*depth* 5)) (+ (probe) *depth*))")
        result = run_stepwise(p, stride=1)
        assert result.outcome.kind == "value"
        assert result.outcome.value == 10
        assert result.counts_agree

    @pytest.mark.parametrize("index", range(0, 24, 2))
    def test_generated_programs_step_transparently(self, index):
        gen = ProgramGenerator(7)
        p = gen.generate(index)
        if not stepwise_safe(p):
            pytest.skip("futures schedule work outside the stepper")
        # stride > 1 keeps the suite quick; stride=1 runs above and in
        # the fuzz campaign
        result = run_stepwise(p, stride=7)
        base = run_vm(p)
        assert result.outcome.agrees_with(base), \
            f"{p.name}: {result.outcome.describe()} vs {base.describe()}"
        assert result.counts_agree, p.name


@pytest.mark.parametrize("program", FUSED_ENTRIES, ids=lambda p: p.name)
def test_fused_view_edge_cases_step_transparently(program):
    """The stepper runs the traced loop (unfused ``instructions``), its
    baseline the fast loop (the fused view): the counts must agree.
    ``fused-future-arg`` is stepped too — its one future determines
    at once, and a paused frame pickles the future as its value."""
    assert len(FUSED_ENTRIES) >= 5
    result = run_stepwise(program, stride=1)
    base = run_vm(program)
    assert result.outcome.agrees_with(base), \
        f"{result.outcome.describe()} vs {base.describe()}"
    assert result.counts_agree, (result.instructions,
                                 result.baseline_instructions)
