"""Experiment S4c — bytecode GVM vs tree-walking interpreter (§4.1).

"Compilation to bytecode (as opposed to a tree-walking interpreter) was
introduced as an optimization for Vinz persistence."  Two measurable
consequences:

1. steady-state execution speed: compiled bytecode beats re-walking the
   source tree (macro expansion and dispatch are paid once, at compile
   time — the effect is largest for macro-heavy code, which is what
   workflow code is);
2. persistence: the tree-walker fundamentally *cannot* checkpoint (its
   state is the host stack), while the GVM's heap frames serialize in a
   few hundred bytes.

The two engines get *separate* global environments so neither's
function definitions shadow the other's.
"""

import pickle
import time

import pytest

from repro.gvm.interpreter import ContinuationsUnsupported, TreeInterpreter
from repro.gvm.runtime import make_runtime
from repro.harness.reporting import series
from repro.lang.reader import read_string

PROGRAMS = {
    "fib(17) — call-heavy": (
        "(defun bfib (n) (if (< n 2) n (+ (bfib (- n 1)) (bfib (- n 2)))))",
        "(bfib 17)",
        1597,
    ),
    "loop-sum 30000 — branch-heavy": (
        "(defun bsum (n) (let ((acc 0) (i 0)) "
        "(while (< i n) (setq acc (+ acc i)) (setq i (+ i 1))) acc))",
        "(bsum 30000)",
        sum(range(30000)),
    ),
    "dolist/when/incf x300 — macro-heavy": (
        "(defun process (items) (let ((acc 0)) "
        "(dolist (x items) (when (evenp x) (incf acc (* x x)))) acc))",
        "(dotimes (rep 300 (process (list 1 2 3 4 5 6 7 8)))"
        " (process (list 1 2 3 4 5 6 7 8)))",
        4 + 16 + 36 + 64,
    ),
}


def engines_for(defs: str):
    """Build a (compiled-code-runner, tree-runner) pair with isolated
    global environments."""
    vm_rt = make_runtime(deterministic=True)
    vm_rt.eval_string(defs)
    tree_rt = make_runtime(deterministic=True)
    interp = TreeInterpreter(tree_rt.global_env, apply_fn=tree_rt.apply)
    interp.eval(read_string(defs))
    return vm_rt, interp


def timed(fn, repeats=3):
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return value, best


def test_bytecode_vs_tree(benchmark, bench_report):
    points = []
    speedups = []
    for name, (defs, call, expected) in PROGRAMS.items():
        vm_rt, interp = engines_for(defs)
        code = vm_rt.compile(read_string(call))
        form = read_string(call)

        vm_value, vm_s = timed(lambda: vm_rt.new_vm().run_code(code).value)
        tree_value, tree_s = timed(lambda: interp.eval(form))
        assert vm_value == tree_value == expected, name
        speedup = tree_s / vm_s
        speedups.append(speedup)
        points.append((name, round(vm_s * 1e3, 2), round(tree_s * 1e3, 2),
                       round(speedup, 2)))

    lines = [series(
        "Section 4.1 — bytecode GVM vs tree-walking interpreter",
        "program", ["bytecode ms", "tree-walk ms", "speedup"], points)]

    # the persistence half of the claim
    rt = make_runtime(deterministic=True)
    t0 = time.perf_counter()
    result = rt.start("(progn (yield :cp) :done)")
    capture_s = time.perf_counter() - t0
    blob = pickle.dumps(result.continuation)
    lines.append("")
    lines.append(
        f"Persistence: a GVM checkpoint captures in {capture_s * 1e3:.2f} ms "
        f"and pickles to {len(blob)} bytes; the tree-walker cannot "
        "checkpoint at all (its state is the host stack — yield raises "
        "ContinuationsUnsupported).")
    bench_report("gvm_vs_tree", "\n".join(lines))

    # the bytecode engine wins clearly on every program (a ratio of two
    # timings taken in one process, so host speed cancels)
    assert all(s >= 1.5 for s in speedups), points
    # and decisively overall
    assert sum(speedups) / len(speedups) >= 2.2, points

    tree_rt = make_runtime(deterministic=True)
    interp = TreeInterpreter(tree_rt.global_env, apply_fn=tree_rt.apply)
    with pytest.raises(ContinuationsUnsupported):
        interp.eval(read_string("(yield)"))

    vm_rt, _ = engines_for(PROGRAMS["fib(17) — call-heavy"][0])
    fib_code = vm_rt.compile(read_string("(bfib 12)"))
    benchmark(lambda: vm_rt.new_vm().run_code(fib_code))


def test_tree_walk_benchmark(benchmark):
    _, interp = engines_for(PROGRAMS["fib(17) — call-heavy"][0])
    call = read_string("(bfib 12)")
    benchmark(lambda: interp.eval(call))


def test_instruction_throughput(benchmark, bench_report):
    """Raw GVM dispatch rate (instructions/second), for the record."""
    rt = make_runtime(deterministic=True)
    rt.eval_string(PROGRAMS["loop-sum 30000 — branch-heavy"][0])
    code = rt.compile(read_string("(bsum 5000)"))

    def run():
        vm = rt.new_vm()
        vm.run_code(code)
        return vm.instruction_count

    instructions = run()
    result = benchmark(run)
    assert result == instructions
    stats_mean = benchmark.stats.stats.mean
    bench_report("gvm_throughput",
                 f"GVM dispatch rate: {instructions} instructions in "
                 f"{stats_mean * 1e3:.2f} ms = "
                 f"{instructions / stats_mean / 1e6:.2f} M instr/s")
