"""Replay the checked-in conformance corpus (ISSUE 10 satellite 1).

Every ``tests/conformance/corpus/*.gozer`` entry runs through the full
oracle matrix.  The corpus holds the migrated ``DIFFERENTIAL_PROGRAMS``
from tests/gvm/test_interpreter.py, representative instances of the
old ``TestVMDifferential`` property block, handcrafted suspend/dist
seeds, and shrunken repros for bugs the fuzzer found (their ``note:``
headers name the fix).
"""

import os

import pytest

from repro.conformance import DifferentialExecutor, load_dir

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS = load_dir(CORPUS_DIR)
#: entries whose fiber writes a program global, which Vinz refuses
GLOBAL_WRITERS = {"fused-setq-special", "fused-setq-tail-special",
                  "future-setq-global"}


def test_corpus_is_populated():
    assert len(CORPUS) >= 20, "seed corpus went missing"
    names = {p.name for p in CORPUS}
    # the migrated tests and the fixed-bug repros must stay present
    assert "seed-diff-01" in names
    assert "seed-prop-factorial" in names
    assert "fixed-constantly-pickle" in names
    assert "fixed-intrinsic-pickle" in names


@pytest.mark.parametrize("program", CORPUS, ids=lambda p: p.name)
def test_corpus_entry_conforms(program):
    # vinz_every=1: corpus entries are few and precious — run the
    # distributed oracle on every entry it legally applies to
    executor = DifferentialExecutor(vinz_every=1, chaos=True)
    verdict = executor.run(program)
    assert verdict.ok, "\n".join(d.describe()
                                 for d in verdict.divergences)
    # the matrix actually ran: baseline + pickle always, and entries
    # without raw yields also reach the distributed oracle
    assert "vm" in verdict.outcomes
    assert "vm-pickle" in verdict.outcomes
    if "vinz" not in verdict.skips:
        assert "vinz" in verdict.outcomes
    # only the entries that write a global from their fiber lose Vinz
    assert (verdict.skips.get("vinz") == "vinz:global-write") == \
        (program.name in GLOBAL_WRITERS)
