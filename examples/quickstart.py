#!/usr/bin/env python3
"""Quickstart: the paper's Listing 1, all three sum-of-squares variants.

Demonstrates the core progression of the Gozer system:

1. ``loc-sum-squares`` — plain sequential Gozer on the GVM;
2. ``par-sum-squares`` — local parallelism with futures (Section 2);
3. ``dist-sum-squares`` — transparent distribution with for-each on a
   simulated BlueBox cluster (Section 3);

plus the primitive that makes (3) possible: serializable continuations.

Run:  python examples/quickstart.py
"""

import pickle

from repro import Yielded, make_runtime
from repro.vinz.api import VinzEnvironment

LISTING_1 = """
(defun loc-sum-squares (numbers)
  (apply #'+
    (loop for number in numbers
          collect (* number number))))

(defun par-sum-squares (numbers)
  (apply #'+
    (loop for number in numbers
          collect (future (* number number)))))
"""

DIST_WORKFLOW = """
(defun dist-sum-squares (numbers)
  (apply #'+
    (for-each (number in numbers)
      (* number number))))

(defun main (params)
  (dist-sum-squares params))
"""

NUMBERS = list(range(1, 11))


def local_variants() -> None:
    print("## Local execution (one process)")
    rt = make_runtime(deterministic=False, max_workers=4)
    try:
        rt.eval_string(LISTING_1)
        numbers = "(list " + " ".join(map(str, NUMBERS)) + ")"
        loc = rt.eval_string(f"(loc-sum-squares {numbers})")
        par = rt.eval_string(f"(par-sum-squares {numbers})")
        print(f"  loc-sum-squares -> {loc}")
        print(f"  par-sum-squares -> {par}   (futures on a thread pool)")
    finally:
        rt.shutdown()


def continuations() -> None:
    print("\n## Continuations: suspend, serialize, resume")
    rt = make_runtime(deterministic=True)
    result = rt.start("""
        (defun staged (x)
          (let ((doubled (* x 2)))
            (yield :checkpoint)          ; the fiber suspends here
            (+ doubled (yield :second))))
        (staged 100)""")
    assert isinstance(result, Yielded)
    print(f"  first yield carried: {result.value}")
    blob = pickle.dumps(result.continuation)
    print(f"  continuation serialized to {len(blob)} bytes "
          "(this is what Vinz writes to the shared store)")
    result = rt.resume(pickle.loads(blob), None)
    print(f"  second yield carried: {result.value}")
    done = rt.resume(result.continuation, 7)
    print(f"  resumed to completion: {done.value}")


def distributed() -> None:
    print("\n## Distributed execution (simulated BlueBox cluster)")
    env = VinzEnvironment(nodes=4, seed=1)
    env.deploy_workflow("SumSquares", DIST_WORKFLOW, spawn_limit=4)
    result = env.call("SumSquares", NUMBERS)
    print(f"  dist-sum-squares -> {result}")
    summary = env.summary()
    print(f"  fibers used: {summary['fibers_total']} "
          f"(1 parent + {summary['fibers_total'] - 1} children)")
    print(f"  virtual time: {summary['virtual_time']:.4f}s, "
          f"messages delivered: {summary['queue']['delivered']}")
    nodes_used = {e.detail['node']
                  for e in env.cluster.tracer.of_kind('fiber-run')}
    print(f"  fibers ran on nodes: {sorted(nodes_used)}")


def main() -> None:
    expected = sum(n * n for n in NUMBERS)
    print(f"Sum of squares of {NUMBERS} (expected {expected})\n")
    local_variants()
    continuations()
    distributed()
    print("\nAll three variants agree — the paper's Listing 1 point: "
          "parallel and distributed code reads like sequential code.")


if __name__ == "__main__":
    main()
