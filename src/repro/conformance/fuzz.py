"""The fuzz campaign driver behind ``python -m repro fuzz``.

Generates ``budget`` programs from ``seed``, runs the differential
oracle matrix on each, accounts coverage, delta-debugs every divergence
to a minimal repro and (optionally) persists the repros as replayable
corpus entries.  All ``conformance.*`` metrics flow through
:class:`repro.observe.MetricsRegistry`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..observe import MetricsRegistry
from .corpus import save
from .coverage import CoverageAccounter, CoverageReport
from .executor import DifferentialExecutor, Divergence, ProgramVerdict
from .grammar import ProgramGenerator
from .shrinker import ShrinkResult, shrink_divergence


@dataclass
class ShrunkDivergence:
    divergence: Divergence
    shrink: ShrinkResult
    corpus_path: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "program": self.divergence.program.name,
            "oracle": self.divergence.oracle,
            "baseline": self.divergence.baseline.describe(),
            "observed": self.divergence.observed.describe(),
            "shrunk_source": self.shrink.program.source,
            "shrink_checks": self.shrink.checks,
            "shrink_exhausted": self.shrink.exhausted,
            "corpus_path": self.corpus_path,
        }


@dataclass
class FuzzReport:
    seed: int
    budget: int
    programs: int = 0
    strata: Dict[str, int] = field(default_factory=dict)
    oracle_runs: Dict[str, int] = field(default_factory=dict)
    skips: Dict[str, int] = field(default_factory=dict)
    divergences: List[ShrunkDivergence] = field(default_factory=list)
    coverage: Optional[CoverageReport] = None
    metrics: Optional[MetricsRegistry] = None

    @property
    def unclassified_divergences(self) -> int:
        return len(self.divergences)

    @property
    def ok(self) -> bool:
        return self.unclassified_divergences == 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "programs": self.programs,
            "strata": dict(self.strata),
            "oracle_runs": dict(self.oracle_runs),
            "classified_skips": dict(self.skips),
            "unclassified_divergences": self.unclassified_divergences,
            "divergences": [d.to_dict() for d in self.divergences],
            "coverage": self.coverage.to_dict() if self.coverage else None,
            "metrics": self.metrics.snapshot() if self.metrics else None,
        }

    def summary(self) -> str:
        cov = self.coverage
        lines = [
            f"conformance fuzz: seed={self.seed} budget={self.budget}",
            f"  programs: {self.programs}  strata: "
            + " ".join(f"{k}={v}" for k, v in sorted(self.strata.items())),
            f"  oracle runs: "
            + " ".join(f"{k}={v}"
                       for k, v in sorted(self.oracle_runs.items())),
            f"  classified skips: "
            + (" ".join(f"{k}={v}" for k, v in sorted(self.skips.items()))
               or "none"),
            f"  unclassified divergences: {self.unclassified_divergences}",
        ]
        if cov is not None:
            lines.append(
                f"  coverage: special-forms "
                f"{cov.special_form_ratio:.1%} "
                f"({sum(cov.special_forms.values())}/"
                f"{len(cov.special_forms)}), builtins "
                f"{cov.builtin_ratio:.1%} "
                f"({sum(cov.builtins.values())}/{len(cov.builtins)}), "
                f"opcodes {cov.opcode_ratio:.1%}")
            for label, table in (("special forms", cov.special_forms),
                                 ("builtins", cov.builtins)):
                missing = cov.missing(table)
                if missing:
                    lines.append(f"  missing {label}: "
                                 + " ".join(missing[:12])
                                 + (" …" if len(missing) > 12 else ""))
        for shrunk in self.divergences:
            lines.append("  DIVERGENCE " + shrunk.divergence.describe())
            lines.append("    shrunk to: "
                         + shrunk.shrink.program.source.replace("\n", " "))
        return "\n".join(lines)


def run_fuzz(seed: int, budget: int, vinz_every: int = 10,
             chaos: bool = True, repro_dir: Optional[str] = None,
             metrics: Optional[MetricsRegistry] = None,
             shrink_checks: int = 400,
             progress=None) -> FuzzReport:
    """Run the full conformance campaign; see module docstring."""
    metrics = metrics if metrics is not None else MetricsRegistry()
    generator = ProgramGenerator(seed)
    executor = DifferentialExecutor(vinz_every=vinz_every, chaos=chaos,
                                    metrics=metrics)
    accounter = CoverageAccounter()
    report = FuzzReport(seed=seed, budget=budget, metrics=metrics)

    for index in range(budget):
        program = generator.generate(index)
        accounter.record(program)
        verdict = executor.run(program)
        report.programs += 1
        report.strata[program.stratum] = \
            report.strata.get(program.stratum, 0) + 1
        for oracle in verdict.outcomes:
            report.oracle_runs[oracle] = \
                report.oracle_runs.get(oracle, 0) + 1
        for reason in verdict.skips.values():
            report.skips[reason] = report.skips.get(reason, 0) + 1
        for divergence in verdict.divergences:
            report.divergences.append(
                _shrink_and_save(divergence, repro_dir, shrink_checks,
                                 metrics))
        if progress is not None and (index + 1) % 25 == 0:
            progress(index + 1, budget, len(report.divergences))

    report.coverage = accounter.report()
    cov = report.coverage
    gauge = metrics.gauge
    gauge("conformance.coverage.special_forms").set(
        cov.special_form_ratio)
    gauge("conformance.coverage.builtins").set(cov.builtin_ratio)
    gauge("conformance.coverage.opcodes").set(cov.opcode_ratio)
    return report


def _shrink_and_save(divergence: Divergence, repro_dir: Optional[str],
                     shrink_checks: int,
                     metrics: MetricsRegistry) -> ShrunkDivergence:
    program = divergence.program
    # vinz checks spin up a whole simulated cluster each — keep those
    # shrink budgets an order of magnitude smaller
    checks = shrink_checks if divergence.oracle != "vinz" \
        else max(20, shrink_checks // 10)
    result = shrink_divergence(divergence, max_checks=checks)
    shrunk = result.program
    shrunk.name = f"{program.name}-{divergence.oracle}"
    shrunk.note = (f"diverged on {divergence.oracle}: baseline "
                   f"{divergence.baseline.describe()} vs "
                   f"{divergence.observed.describe()}")
    metrics.incr("conformance.shrinks")
    metrics.histogram("conformance.shrink_checks").observe(result.checks)
    entry = ShrunkDivergence(divergence=divergence, shrink=result)
    if repro_dir:
        entry.corpus_path = save(shrunk, repro_dir)
    return entry


def write_report(report: FuzzReport, path: str) -> None:
    import os

    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
