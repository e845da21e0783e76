"""Generator tests: determinism, strata, analysis, sequentialization."""

import pytest

from repro.conformance import (DIST, PURE, SUSPEND, ProgramGenerator,
                               analyze, sequentialize)
from repro.conformance.grammar import (F_DIST, F_SUSPEND, F_TASKVAR,
                                       TREE_UNSUPPORTED)
from repro.lang.reader import read_all, read_string
from repro.lang.symbols import Symbol


class TestDeterminism:
    def test_same_seed_same_programs(self):
        a = ProgramGenerator(7)
        b = ProgramGenerator(7)
        for index in range(25):
            pa, pb = a.generate(index), b.generate(index)
            assert pa.source == pb.source, index
            assert pa.feeds == pb.feeds
            assert pa.stratum == pb.stratum

    def test_index_is_random_access(self):
        """Program i is a pure function of (seed, i) — order-free."""
        gen = ProgramGenerator(7)
        forward = [gen.generate(i).source for i in range(10)]
        backward = [ProgramGenerator(7).generate(i).source
                    for i in reversed(range(10))]
        assert forward == list(reversed(backward))

    def test_different_seeds_differ(self):
        a = [ProgramGenerator(1).generate(i).source for i in range(10)]
        b = [ProgramGenerator(2).generate(i).source for i in range(10)]
        assert a != b


class TestStrata:
    def test_all_strata_appear(self):
        strata = {ProgramGenerator(7).generate(i).stratum
                  for i in range(60)}
        assert strata == {PURE, SUSPEND, DIST}

    def test_suspend_programs_feed_their_yields(self):
        gen = ProgramGenerator(7)
        suspends = [gen.generate(i) for i in range(60)
                    if gen.generate(i).stratum == SUSPEND]
        assert suspends
        for program in suspends:
            assert F_SUSPEND in program.features
            assert program.feeds, program.name

    def test_dist_programs_use_distributed_forms(self):
        gen = ProgramGenerator(7)
        dists = [gen.generate(i) for i in range(60)
                 if gen.generate(i).stratum == DIST]
        assert dists
        for program in dists:
            assert program.features & {F_DIST, F_TASKVAR}, program.name


class TestAnalysis:
    def test_detects_suspend(self):
        analysis = analyze(read_all("(progn (yield) 1)"))
        assert F_SUSPEND in analysis.features

    def test_quote_bodies_are_inert(self):
        analysis = analyze(read_all("(quote (yield for-each))"))
        assert not analysis.features

    def test_marks_credit_surface_syntax(self):
        analysis = analyze(read_all("(if (evenp 2) (let ((x 1)) x) nil)"))
        assert "sf:if" in analysis.marks
        assert "sf:let" in analysis.marks
        assert "fn:evenp" in analysis.marks

    def test_tree_unsupported_is_feature_complete(self):
        # every generated feature the tree interpreter cannot run must
        # be in the skip set, or the executor would report false
        # divergences instead of classified skips
        assert F_SUSPEND in TREE_UNSUPPORTED


class TestSequentialize:
    def test_for_each_becomes_mapcar(self, rt):
        from repro.lang.printer import print_form

        form = read_string(
            "(for-each (x in (list 1 2 3) :chunk-size 2) (* x x))")
        seq = sequentialize(form)
        assert print_form(seq).startswith("(mapcar (lambda (x)")
        assert rt.eval_string(print_form(seq)) == [1, 4, 9]

    def test_parallel_becomes_list(self, rt):
        form = read_string("(parallel (+ 1 2) (* 2 2))")
        seq = sequentialize(form)
        from repro.lang.printer import print_form

        assert print_form(seq) == "(list (+ 1 2) (* 2 2))"
        assert rt.eval_string(print_form(seq)) == [3, 4]

    def test_taskvars_become_globals(self, rt):
        from repro.lang.printer import print_form

        source = "\n".join(
            print_form(sequentialize(f)) for f in read_all("""
                (deftaskvar acc^ "doc" 5)
                (progn (%set-task-var 'acc^ (+ (%get-task-var 'acc^) 2))
                       (%get-task-var 'acc^))"""))
        assert rt.eval_string(source) == 7

    def test_quote_is_untouched(self):
        form = read_string("(quote (parallel 1 2))")
        assert sequentialize(form) == form


class TestGeneratedProgramsRun:
    @pytest.mark.parametrize("index", range(0, 30, 3))
    def test_vm_accepts_generated_program(self, index):
        from repro.conformance import run_vm

        program = ProgramGenerator(13).generate(index)
        outcome = run_vm(program)
        assert outcome.kind in ("value", "condition"), outcome.describe()


def _symbols(form):
    if isinstance(form, Symbol):
        yield form
    elif isinstance(form, list):
        for item in form:
            yield from _symbols(item)


def _initforms_reading_their_own_variables(form, outer=frozenset()):
    """Each ``let`` initform that names a variable of the same ``let``
    (bound only after every initform ran) that no enclosing ``let`` or
    ``let*`` binds, and each ``dolist`` list that names the loop's own
    variable."""
    found = []
    if not isinstance(form, list) or not form:
        return found
    head = form[0]
    inner = outer
    if head in (Symbol("let"), Symbol("let*")) and len(form) > 1 \
            and isinstance(form[1], list):
        names = {binding[0] for binding in form[1]
                 if isinstance(binding, list) and binding}
        if head is Symbol("let"):
            for binding in form[1]:
                if isinstance(binding, list) and len(binding) == 2 \
                        and (names - outer) & set(_symbols(binding[1])):
                    found.append(binding)
        inner = outer | names
    if head is Symbol("dolist") and len(form) > 1 \
            and isinstance(form[1], list) and len(form[1]) == 2:
        var, items = form[1]
        if var not in outer and var in set(_symbols(items)):
            found.append(form[1])
    for item in form:
        found += _initforms_reading_their_own_variables(item, inner)
    return found


class TestBindingsAreInScope:
    """A generated ``let`` initform never reads a sibling variable (only
    ``let*`` may), nor a ``dolist`` list its own variable: each would
    end the program in ``unbound-variable`` before its result."""

    @pytest.mark.parametrize("seed", [7, 13])
    def test_no_initform_reads_a_variable_bound_after_it(self, seed):
        gen = ProgramGenerator(seed)
        lets = 0
        for index in range(300):
            program = gen.generate(index)
            for form in program.forms:
                assert not _initforms_reading_their_own_variables(form), \
                    program.name
                lets += str(form).count("let")
        assert lets > 100

    def test_pure_programs_end_in_their_result(self):
        from repro.conformance import run_vm

        gen = ProgramGenerator(7)
        pure = [p for p in gen.programs(120) if p.stratum == PURE]
        unbound = [p.name for p in pure
                   if run_vm(p).ctype == "unbound-variable"]
        assert len(pure) > 50 and not unbound, unbound
