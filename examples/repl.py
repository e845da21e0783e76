#!/usr/bin/env python3
"""An interactive Gozer REPL.

The paper calls Gozer "a scripting language due to its support for
interactive development" (Section 1).  This REPL supports:

* multi-line input (unbalanced forms prompt for continuation lines);
* ``:dis <form>``  — disassemble the bytecode the compiler emits, then
  the fused view the fast loop runs;
* ``:expand <form>`` — show the macroexpansion of a form;
* ``:time <form>`` — evaluate with wall-clock timing;
* ``:trace <form>`` — evaluate while printing the Gozer call tree;
* ``:quit`` — exit.

Run:  python examples/repl.py            (interactive)
      echo '(+ 1 2)' | python examples/repl.py   (piped)
"""

import sys
import time

from repro import make_runtime
from repro.gvm.conditions import UnhandledConditionError
from repro.lang.errors import GozerError, IncompleteFormError
from repro.lang.macros import macroexpand
from repro.lang.printer import print_form

BANNER = """Gozer REPL (reproduction of the IPPS 2010 system)
Type Gozer forms; :dis/:expand/:time <form>; :quit to exit."""


def main() -> None:
    rt = make_runtime(deterministic=False, max_workers=4)
    interactive = sys.stdin.isatty()
    if interactive:
        print(BANNER)
    buffer = ""
    try:
        while True:
            prompt = "gozer> " if not buffer else "  ...> "
            if interactive:
                sys.stdout.write(prompt)
                sys.stdout.flush()
            line = sys.stdin.readline()
            if not line:
                break
            buffer += line
            stripped = buffer.strip()
            if not stripped:
                buffer = ""
                continue
            if stripped == ":quit":
                break
            try:
                handle(rt, stripped)
                buffer = ""
            except IncompleteFormError:
                continue  # wait for more input
            except UnhandledConditionError as exc:
                print(f"error: {exc.condition!r}")
                buffer = ""
            except GozerError as exc:
                print(f"error: {exc}")
                buffer = ""
            except Exception as exc:  # noqa: BLE001 - REPL shows everything
                print(f"host error: {type(exc).__name__}: {exc}")
                buffer = ""
    finally:
        rt.shutdown()
        if interactive:
            print("\nbye")


def handle(rt, text: str) -> None:
    if text.startswith(":dis "):
        form = rt.read(text[len(":dis "):])
        code = rt.compile(form)
        print(code.disassemble())
        print(code.disassemble_fused())
        return
    if text.startswith(":expand "):
        form = rt.read(text[len(":expand "):])
        print(print_form(macroexpand(form, rt.global_env, rt.apply)))
        return
    if text.startswith(":time "):
        form = rt.read(text[len(":time "):])
        started = time.perf_counter()
        value = rt.eval_form(form)
        elapsed = time.perf_counter() - started
        print(print_form(value))
        print(f";; {elapsed * 1000:.3f} ms")
        return
    if text.startswith(":trace "):
        form = rt.read(text[len(":trace "):])
        code = rt.compile(form)
        vm = rt.new_vm()
        vm.call_hook = lambda depth, name, args: print(
            ";; " + "  " * depth + f"({name} "
            + " ".join(print_form(a) for a in args) + ")")
        result = vm.run_code(code)
        print(print_form(result.value))
        return
    # plain evaluation: may contain several forms
    value = rt.eval_string(text)
    print(print_form(value))


if __name__ == "__main__":
    main()
