"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run FILE [PARAMS]`` — evaluate a ``.gozer`` file locally; if it
  defines ``(defun main ...)``, call it with PARAMS (read as a Gozer
  form);
* ``deploy FILE [PARAMS]`` — wrap the file as a Vinz workflow on a
  simulated cluster, run it to completion, and print the result plus
  cluster statistics;
* ``trace FILE [PARAMS]`` — like ``deploy`` but prints the Figure-1
  style lifetime trace of the task;
* ``dis EXPR`` — compile a Gozer expression and print its bytecode;
* ``expand EXPR`` — print the macroexpansion of an expression;
* ``repl`` — the interactive REPL (same as examples/repl.py);
* ``production-day [SCALE]`` — run the Section 5 synthetic production
  day and print the paper-vs-measured report;
* ``fuzz --seed S --budget N`` — the generative conformance campaign:
  differential execution of N generated programs across the tree
  interpreter, the bytecode VM, pickle-roundtripped continuations and
  distributed Vinz runs under chaos (docs/conformance.md).  Exits
  non-zero on any unclassified divergence.
"""

from __future__ import annotations

import argparse
import sys

from .lang.printer import print_form
from .lang.symbols import Symbol


def cmd_run(args) -> int:
    from . import make_runtime

    rt = make_runtime(deterministic=False, max_workers=args.workers)
    try:
        value = rt.eval_file(args.file)
        main = rt.global_env.lookup_or(Symbol("main"))
        if main is not None:
            params = rt.read(args.params) if args.params else None
            value = rt.apply(main, [params])
        print(print_form(value))
        return 0
    finally:
        rt.shutdown()


def _build_env(args):
    from .vinz.api import VinzEnvironment

    env = VinzEnvironment(nodes=args.nodes, slots=args.slots,
                          seed=args.seed,
                          placement=args.placement)
    if args.edf:
        env.scheduling_policy = "edf"
    if args.adaptive_migration:
        env.migration_policy = "adaptive"
    return env


def cmd_deploy(args) -> int:
    env = _build_env(args)
    with open(args.file, "r", encoding="utf-8") as fh:
        source = fh.read()
    env.deploy_workflow("Main", source, spawn_limit=args.spawn_limit)
    params = None
    if args.params:
        from .lang.reader import read_string

        params = read_string(args.params)
    result = env.call("Main", params)
    print("result:", print_form(result))
    summary = env.summary()
    print(f"virtual time : {summary['virtual_time']:.4f}s")
    print(f"fibers       : {summary['fibers_total']}")
    print(f"messages     : {summary['queue']['delivered']} delivered, "
          f"{summary['queue']['redelivered']} redelivered")
    print(f"store        : {summary['store']['writes']} writes, "
          f"{summary['store']['bytes_written']} bytes")
    print(f"cache        : mutable {summary['cache']['mutable']:.2f}, "
          f"immutable {summary['cache']['immutable']:.2f}")
    print(f"utilization  : {summary['utilization']:.1%}")
    return 0


def cmd_trace(args) -> int:
    env = _build_env(args)
    with open(args.file, "r", encoding="utf-8") as fh:
        source = fh.read()
    env.deploy_workflow("Main", source, spawn_limit=args.spawn_limit)
    params = None
    if args.params:
        from .lang.reader import read_string

        params = read_string(args.params)
    task_id = env.run("Main", params)
    tracer = env.cluster.tracer
    print(tracer.render(tracer.for_task(task_id)))
    task = env.registry.tasks[task_id]
    print(f"\ntask {task_id}: {task.status}, result "
          f"{print_form(task.result)}")
    return 0 if task.status == "completed" else 1


def cmd_dis(args) -> int:
    from . import make_runtime

    rt = make_runtime(deterministic=True)
    code = rt.compile(rt.read(args.expr))
    print(code.disassemble())
    return 0


def cmd_expand(args) -> int:
    from . import make_runtime
    from .lang.macros import macroexpand

    rt = make_runtime(deterministic=True)
    print(print_form(macroexpand(rt.read(args.expr), rt.global_env,
                                 rt.apply)))
    return 0


def cmd_repl(args) -> int:
    import os
    import runpy

    repl = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "examples", "repl.py")
    if os.path.exists(repl):
        runpy.run_path(repl, run_name="__main__")
        return 0
    # fall back to a minimal inline loop when examples/ is not shipped
    from . import make_runtime

    rt = make_runtime()
    try:
        for line in sys.stdin:
            line = line.strip()
            if not line or line == ":quit":
                break
            try:
                print(print_form(rt.eval_string(line)))
            except Exception as exc:  # noqa: BLE001 - REPL surface
                print(f"error: {exc}")
        return 0
    finally:
        rt.shutdown()


def cmd_production_day(args) -> int:
    from .harness.reporting import paper_vs_measured
    from .workloads.production import run_production_day

    result = run_production_day(scale=args.scale, nodes=args.nodes,
                                slots=args.slots, seed=args.seed)
    print(paper_vs_measured(
        f"Section 5 production day at {args.scale:.1%} scale",
        result.rows()))
    print(f"\ncache hit rates: {result.cache_hit_rates}")
    return 0 if result.failed_tasks == 0 else 1


def cmd_fuzz(args) -> int:
    from .conformance.fuzz import run_fuzz, write_report

    def progress(done, budget, divergences):
        print(f"  … {done}/{budget} programs, "
              f"{divergences} divergence(s)", file=sys.stderr)

    report = run_fuzz(seed=args.seed, budget=args.budget,
                      vinz_every=args.vinz_every,
                      chaos=not args.no_chaos,
                      repro_dir=args.repro_dir,
                      shrink_checks=args.shrink_checks,
                      progress=progress if args.verbose else None)
    print(report.summary())
    if args.report:
        write_report(report, args.report)
        print(f"report written to {args.report}")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Gozer workflow system (IPPS 2010 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def cluster_flags(p):
        p.add_argument("--nodes", type=int, default=4)
        p.add_argument("--slots", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--spawn-limit", type=int, default=4)
        p.add_argument("--placement", choices=["balanced", "affinity"],
                       default="balanced")
        p.add_argument("--edf", action="store_true",
                       help="deadline-aware scheduling")
        p.add_argument("--adaptive-migration", action="store_true")

    p = sub.add_parser("run", help="evaluate a .gozer file locally")
    p.add_argument("file")
    p.add_argument("params", nargs="?", help="Gozer form passed to (main ...)")
    p.add_argument("--workers", type=int, default=4)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("deploy", help="run a workflow on a simulated cluster")
    p.add_argument("file")
    p.add_argument("params", nargs="?")
    cluster_flags(p)
    p.set_defaults(fn=cmd_deploy)

    p = sub.add_parser("trace", help="run a workflow and print its lifetime")
    p.add_argument("file")
    p.add_argument("params", nargs="?")
    cluster_flags(p)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("dis", help="disassemble a Gozer expression")
    p.add_argument("expr")
    p.set_defaults(fn=cmd_dis)

    p = sub.add_parser("expand", help="macroexpand a Gozer expression")
    p.add_argument("expr")
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("repl", help="interactive Gozer REPL")
    p.set_defaults(fn=cmd_repl)

    p = sub.add_parser("production-day",
                       help="run the Section 5 synthetic production day")
    p.add_argument("scale", nargs="?", type=float, default=0.01)
    p.add_argument("--nodes", type=int, default=12)
    p.add_argument("--slots", type=int, default=4)
    p.add_argument("--seed", type=int, default=2010)
    p.set_defaults(fn=cmd_production_day)

    p = sub.add_parser("fuzz",
                       help="run the generative conformance campaign")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--budget", type=int, default=200,
                   help="number of generated programs")
    p.add_argument("--vinz-every", type=int, default=10,
                   help="run the distributed oracle on every Nth "
                        "non-dist program (dist programs always run it)")
    p.add_argument("--no-chaos", action="store_true",
                   help="disable fault injection in the Vinz oracle")
    p.add_argument("--shrink-checks", type=int, default=400,
                   help="oracle-replay budget per divergence shrink")
    p.add_argument("--report", help="write a JSON report to this path")
    p.add_argument("--repro-dir",
                   help="save shrunken diverging repros here as .gozer "
                        "corpus entries")
    p.add_argument("--verbose", action="store_true",
                   help="print progress every 25 programs")
    p.set_defaults(fn=cmd_fuzz)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
