"""Multi-oracle differential execution with divergence classification.

The executor runs one :class:`~repro.conformance.grammar.GenProgram`
through every oracle that legally applies, compares the outcomes
against the VM baseline, and separates *classified* skips (the tree
interpreter cannot run continuations — the paper's own argument for
compiling to bytecode) from *unclassified* divergences (real bugs).

Oracle matrix (see docs/conformance.md):

===========  =====  ==========  =======  ==============
stratum      vm     vm-pickle   tree     vinz
===========  =====  ==========  =======  ==============
pure         base   yes         yes*     sampled
suspend      base   yes         skip     skip (raw yield)
dist         base   yes (seq)   yes*     yes (distributed)
===========  =====  ==========  =======  ==============

``*`` unless the sequentialized form uses a tree-unsupported feature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .grammar import (DIST, SUSPEND, TREE_UNSUPPORTED, VINZ_UNSUPPORTED,
                      GenProgram)
from .oracles import (ENGINE_ERROR, Outcome, run_tree, run_vinz, run_vm,
                      run_vm_pickle)

BASELINE = "vm"
ORACLES = ("vm", "vm-pickle", "tree", "vinz")


@dataclass
class Divergence:
    """One oracle disagreeing with the baseline on one program."""

    oracle: str
    baseline: Outcome
    observed: Outcome
    program: GenProgram

    def describe(self) -> str:
        return (f"[{self.program.name}] {self.oracle} saw "
                f"{self.observed.describe()} but {BASELINE} saw "
                f"{self.baseline.describe()}")


@dataclass
class ProgramVerdict:
    program: GenProgram
    outcomes: Dict[str, Outcome] = field(default_factory=dict)
    skips: Dict[str, str] = field(default_factory=dict)
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


class DifferentialExecutor:
    """Runs programs through the oracle matrix and classifies results.

    ``vinz_every`` samples the (comparatively expensive) distributed
    oracle for pure-stratum programs: every Nth pure program also runs
    under Vinz.  Dist-stratum programs always do — they exist for it.
    ``chaos`` arms the seeded survivable fault plan on the Vinz runs.
    """

    def __init__(self, vinz_every: int = 10, chaos: bool = True,
                 metrics=None, max_resumes: int = 64):
        self.vinz_every = max(1, vinz_every)
        self.chaos = chaos
        self.metrics = metrics
        self.max_resumes = max_resumes

    # -- classification ------------------------------------------------

    def plan_skips(self, program: GenProgram) -> Dict[str, str]:
        """Expected inapplicabilities, decided *before* running."""
        skips: Dict[str, str] = {}
        seq_features = program.sequential_features
        tree_blockers = seq_features & TREE_UNSUPPORTED
        if tree_blockers:
            skips["tree"] = "tree:" + ",".join(sorted(tree_blockers))
        if program.features & VINZ_UNSUPPORTED:
            skips["vinz"] = "vinz:raw-yield"
        elif program.stratum != DIST and \
                (program.index or 0) % self.vinz_every != 0:
            skips["vinz"] = "vinz:not-sampled"
        return skips

    # -- execution -----------------------------------------------------

    def run(self, program: GenProgram,
            vinz_seed: Optional[int] = None) -> ProgramVerdict:
        verdict = ProgramVerdict(program=program,
                                 skips=self.plan_skips(program))
        base = run_vm(program, max_resumes=self.max_resumes)
        verdict.outcomes["vm"] = base
        self._count("conformance.oracle.vm." + base.kind)

        pickled = run_vm_pickle(program, max_resumes=self.max_resumes)
        verdict.outcomes["vm-pickle"] = pickled
        self._count("conformance.oracle.vm-pickle." + pickled.kind)
        if not base.agrees_with(pickled, compare_yields=True):
            verdict.divergences.append(
                Divergence("vm-pickle", base, pickled, program))

        if "tree" not in verdict.skips:
            tree = run_tree(program)
            verdict.outcomes["tree"] = tree
            self._count("conformance.oracle.tree." + tree.kind)
            if not base.agrees_with(tree):
                verdict.divergences.append(
                    Divergence("tree", base, tree, program))

        if "vinz" not in verdict.skips:
            seed = vinz_seed if vinz_seed is not None else \
                ((program.seed or 0) * 7919 + (program.index or 0))
            vinz = run_vinz(program, seed=seed, chaos=self.chaos)
            verdict.outcomes["vinz"] = vinz
            self._count("conformance.oracle.vinz." + vinz.kind)
            # messages and qnames legitimately differ across the
            # workflow boundary; value outcomes must agree exactly
            if not base.agrees_with(vinz, strict_ctype=False):
                verdict.divergences.append(
                    Divergence("vinz", base, vinz, program))

        if base.kind == ENGINE_ERROR:
            verdict.divergences.append(
                Divergence("vm", base, base, program))
        self._count("conformance.programs")
        if verdict.divergences:
            self._count("conformance.divergences",
                        len(verdict.divergences))
        return verdict

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.incr(name, amount)
