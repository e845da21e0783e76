"""Cross-process fiber migration: the NFS story, for real.

The paper's Section 4.2 design lets one JVM write a fiber and another
JVM resume it.  These tests prove the same for our implementation: a
continuation serialized in a *separate Python process* is resumed here
(and vice versa), using a real shared directory.

Every node has the program deployed, so each process builds the codec
the way ``WorkflowService.on_deployed`` does: the program's code
objects and host functions registered, in load order, before any fiber
runs.  The fiber runs ``(main 100)`` as its top-level call, so no
unregistered code is on its stack.
"""

import subprocess
import sys
import textwrap

from repro.bluebox.store import DirectoryStore
from repro.gvm.frames import GozerFunction
from repro.gvm.runtime import make_runtime
from repro.lang.symbols import Symbol
from repro.vinz.persistence import (
    CodeRegistry,
    FiberCodec,
    HostFunctionRegistry,
)
from repro.vinz.service import WorkflowService

WORKFLOW = """
(defun staged (x)
  (let ((doubled (* x 2)))
    (yield :checkpoint)
    (+ doubled 5)))
(defun main (x) (staged x))
"""


def deployed():
    """A runtime with the workflow loaded, and its codec."""
    rt = make_runtime(deterministic=True)
    rt.eval_string(WORKFLOW)
    registry, hosts = CodeRegistry(), HostFunctionRegistry()
    for name, value in rt.global_env.variables.items():
        if isinstance(value, GozerFunction):
            registry.register_tree(value.code)
        elif callable(value):
            hosts.register(name.name, value)
    return rt, FiberCodec(registry=registry, hosts=hosts)


def suspend_main(rt):
    """Run ``(main 100)`` as a fiber to its first yield."""
    main = rt.global_env.lookup(Symbol("main"))
    return WorkflowService.run_top_call(rt.new_vm(allow_yield=True), main,
                                        [100])


CHILD_PRELUDE = f"""
import sys
sys.path[:0] = {sys.path!r}
from repro.bluebox.store import DirectoryStore
from tests.integration.test_cross_process_persistence import (
    deployed, suspend_main)
"""


def run_child(body: str) -> str:
    script = CHILD_PRELUDE + textwrap.dedent(body)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_fiber_written_by_child_process_resumes_here(tmp_path):
    out = run_child(f"""
        rt, codec = deployed()
        store = DirectoryStore({str(tmp_path)!r})
        store.write("fiber-state/f1", codec.dumps(suspend_main(rt).continuation))
        print("WROTE")
    """)
    assert "WROTE" in out

    # "another instance could later read it and resume execution"
    rt, codec = deployed()
    store = DirectoryStore(str(tmp_path))
    continuation = codec.loads(store.read("fiber-state/f1"))
    done = rt.resume(continuation, None)
    assert done.value == 205


def test_fiber_written_here_resumes_in_child_process(tmp_path):
    rt, codec = deployed()
    store = DirectoryStore(str(tmp_path))
    store.write("fiber-state/f2", codec.dumps(suspend_main(rt).continuation))

    out = run_child(f"""
        rt, codec = deployed()
        store = DirectoryStore({str(tmp_path)!r})
        continuation = codec.loads(store.read("fiber-state/f2"))
        print("RESULT", rt.resume(continuation, None).value)
    """)
    assert "RESULT 205" in out
