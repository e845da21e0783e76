"""Experiment S4a — Section 4.2's serialization findings.

Three claims to reproduce in shape:

1. "compressing the serialized data before writing it to NFS was a net
   win by reducing IO costs considerably" — compressed blob IO time +
   compression CPU < raw blob IO time, under the store's cost model;
2. "plain deflate can be made to perform approximately 30% better than
   the more robust and space-efficient gzip format" — raw-deflate at a
   light level encodes meaningfully faster than full gzip framing at
   its robust level, at comparable sizes;
3. the custom format (program objects by reference) stores fibers in
   far fewer bytes than generic serialization.

Deployments write only the custom format (:class:`FiberCodec`); the
generic baselines it is compared with live here: the same continuation
pickled with its code objects by value, then stored raw, gzip -9 or
raw deflate at the codec's level.
"""

import copy
import gzip
import time
import zlib

import pytest

from repro.bluebox.store import SharedStore
from repro.gvm.continuations import (
    capture,
    dump_state,
    load_state,
    materialize,
)
from repro.gvm.frames import GozerFunction
from repro.gvm.runtime import make_runtime
from repro.harness.reporting import ratio_check, table
from repro.lang.bytecode import CodeObject
from repro.vinz.persistence import (
    DEFLATE_LEVEL,
    CodeRegistry,
    FiberCodec,
    HostFunctionRegistry,
)

PROGRAM = """
(defun helper-a (x) (* x 17))
(defun helper-b (x) (+ (helper-a x) 3))
(defun busy-work (items)
  (let ((table (make-hash-table))
        (acc (list)))
    (dolist (item items)
      (setf (gethash item table) (helper-b item))
      (append! acc (list item (helper-b item) "intermediate state")))
    (yield :checkpoint)
    (list acc (hash-count table))))
"""


def realistic_continuation():
    """A captured continuation of a program with real data on board."""
    rt = make_runtime(deterministic=True)
    rt.eval_string(PROGRAM)
    result = rt.start("(busy-work (loop for i from 0 below 120 collect i))")
    registry = CodeRegistry()
    hosts = HostFunctionRegistry()
    for name, value in rt.global_env.variables.items():
        if isinstance(value, GozerFunction):
            registry.register_tree(value.code)
        elif callable(value):
            hosts.register(name.name, value)
    return rt, result.continuation, registry, hosts


def generic_codecs(hosts):
    """name -> (encode, decode) for the generic baselines: the codec's
    pickler with code objects declined, so they go by value.  Host
    functions go by name, as in the custom format — a local closure
    cannot be pickled by value at all."""
    def key_for(obj):
        return None if isinstance(obj, CodeObject) else hosts.key_for(obj)

    def dump(state):
        return dump_state(state, key_for)

    def load(raw):
        return load_state(raw, hosts.lookup)

    return {
        "none": (dump, load),
        "gzip": (lambda state: gzip.compress(dump(state), compresslevel=9),
                 lambda blob: load(gzip.decompress(blob))),
        "deflate": (lambda state: zlib.compress(dump(state), DEFLATE_LEVEL),
                    lambda blob: load(zlib.decompress(blob))),
    }


def all_codecs(registry, hosts):
    """The generic baselines plus the custom format, in table order."""
    codecs = generic_codecs(hosts)
    custom = FiberCodec(registry=registry, hosts=hosts)
    codecs["custom"] = (custom.dumps, custom.loads)
    return codecs


def measure(encode, decode, continuation, repeats=30):
    blob = encode(continuation)
    t0 = time.perf_counter()
    for _ in range(repeats):
        encode(continuation)
    encode_s = (time.perf_counter() - t0) / repeats
    t0 = time.perf_counter()
    for _ in range(repeats):
        decode(blob)
    decode_s = (time.perf_counter() - t0) / repeats
    return {"bytes": len(blob), "encode_s": encode_s, "decode_s": decode_s}


def capture_vs_deepcopy(continuation, repeats=30):
    """Seconds per capture + materialize of the continuation's live
    state, and per ``copy.deepcopy`` of that same state (best of three
    batches each, measured in one process).  The deepcopy shares the
    state's code objects, as a deepcopy-based capture would."""
    state = materialize(continuation)
    frames, handlers, restarts, dynamics = state
    program = {id(obj): obj for obj in continuation.refs}

    def round_trip():
        materialize(capture(frames, handlers, restarts, dynamics))

    def best(fn):
        batches = []
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(repeats):
                fn()
            batches.append((time.perf_counter() - t0) / repeats)
        return min(batches)

    return best(round_trip), best(lambda: copy.deepcopy(state, dict(program)))


@pytest.fixture(scope="module")
def payload():
    return realistic_continuation()


def test_codec_comparison(benchmark, payload, bench_report):
    rt, continuation, registry, hosts = payload
    codecs = all_codecs(registry, hosts)
    encode_custom = codecs["custom"][0]
    benchmark(lambda: encode_custom(continuation))

    results = {name: measure(encode, decode, continuation)
               for name, (encode, decode) in codecs.items()}

    store = SharedStore()  # the NFS cost model
    rows = []
    for name, metrics in results.items():
        io_s = store.cost(int(metrics["bytes"]))
        rows.append((name, int(metrics["bytes"]),
                     metrics["encode_s"] * 1e3,
                     metrics["decode_s"] * 1e3,
                     io_s * 1e3,
                     (metrics["encode_s"] + io_s) * 1e3))
    lines = [table(
        "Section 4.2 — fiber serialization codecs "
        "(realistic captured continuation)",
        ["codec", "bytes", "encode ms", "decode ms",
         "NFS IO ms (model)", "total write ms"],
        rows)]

    none_total = results["none"]["encode_s"] + store.cost(int(results["none"]["bytes"]))
    deflate_total = results["deflate"]["encode_s"] + store.cost(int(results["deflate"]["bytes"]))
    gzip_encode = results["gzip"]["encode_s"]
    deflate_encode = results["deflate"]["encode_s"]
    speedup = (gzip_encode - deflate_encode) / gzip_encode * 100

    lines.append("")
    lines.append("Paper claims (shape checks):")
    lines.append(ratio_check(
        "compression is a net win (deflate total / raw total < 1)",
        deflate_total / none_total, 0.5, tolerance=1.0))
    lines.append(
        f"   deflate encodes {speedup:.0f}% faster than gzip "
        "(paper: ~30% better)")
    lines.append(ratio_check(
        "custom format size vs deflate",
        results["custom"]["bytes"] / results["deflate"]["bytes"],
        0.4, tolerance=1.0))
    round_trip_s, deepcopy_s = capture_vs_deepcopy(continuation)
    lines.append(
        f"   capture + materialize {round_trip_s * 1e6:.0f} us vs "
        f"copy.deepcopy of the live state {deepcopy_s * 1e6:.0f} us "
        f"(ratio {round_trip_s / deepcopy_s:.2f}, must be <= 1.0)")
    bench_report("serialization_codecs", "\n".join(lines))

    # hard shape assertions
    assert results["deflate"]["bytes"] < results["none"]["bytes"]
    assert deflate_total < none_total, "compression must be a net win"
    assert deflate_encode < gzip_encode, "raw deflate must beat gzip CPU"
    assert results["custom"]["bytes"] < results["deflate"]["bytes"]
    # a suspension costs no more than copying the state once would
    assert round_trip_s <= deepcopy_s, (round_trip_s, deepcopy_s)

    # round-trip correctness for every codec
    for name, (encode, decode) in codecs.items():
        done = rt.resume(decode(encode(continuation)), None)
        assert done.value[1] == 120, name


def test_decode_benchmark(benchmark, payload):
    """Reconstituting a fiber 'is still relatively slow' — this is the
    cost the fiber cache (S4b) exists to avoid."""
    _rt, continuation, registry, hosts = payload
    codec = FiberCodec(registry=registry, hosts=hosts)
    blob = codec.dumps(continuation)
    benchmark(lambda: codec.loads(blob))


# ---------------------------------------------------------------------------
# Experiment S4c — incremental continuation snapshots (format v2)
# ---------------------------------------------------------------------------

LOOP_HEAVY_WORKFLOW = """
(defun main (params)
  (let ((carried (loop for i from 0 below 400 collect
                       (list i "carried-payload-block" (* i 7))))
        (acc (list)))
    (dolist (i params)
      (workflow-sleep 1)
      (append! acc (* i 2)))
    (list (length carried) (length acc))))
"""

SUSPENSIONS = 16


def run_workflow(snapshots):
    from repro.vinz.api import VinzEnvironment

    env = VinzEnvironment(nodes=3, seed=5)
    env.deploy_workflow("W", LOOP_HEAVY_WORKFLOW, snapshots=snapshots)
    result = env.call("W", list(range(SUSPENSIONS)))
    assert result == [400, SUSPENSIONS]
    writes = env.counters.get("persist.writes")
    nbytes = env.counters.get_sum("persist.bytes")
    return env, writes, nbytes


def test_incremental_snapshot_dedup(benchmark, bench_report):
    """A loop-heavy workflow persists ~the same carried state at every
    suspension; chunk-level dedup must cut bytes-per-suspension by at
    least 2x versus whole-blob v1 persistence."""
    import json
    import os

    from repro.bluebox.store import SharedStore
    from repro.persistsnap import SnapshotPipeline

    _v1_env, v1_writes, v1_bytes = run_workflow("v1")
    v2_env, v2_writes, v2_bytes = run_workflow("v2")
    assert v1_writes >= 10 and v2_writes >= 10

    v1_per = v1_bytes / v1_writes
    v2_per = v2_bytes / v2_writes
    bytes_ratio = v1_per / v2_per
    snap_stats = v2_env.summary()["snapshots"]

    # restore latency: a captured loop-heavy continuation through the
    # v1 codec vs the v2 chunk-fetch path
    rt = make_runtime(deterministic=True)
    rt.eval_string(PROGRAM)
    captured = rt.start(
        "(busy-work (loop for i from 0 below 400 collect i))")
    registry = CodeRegistry()
    hosts = HostFunctionRegistry()
    for name, value in rt.global_env.variables.items():
        if isinstance(value, GozerFunction):
            registry.register_tree(value.code)
        elif callable(value):
            hosts.register(name.name, value)
    codec = FiberCodec(registry=registry, hosts=hosts)
    v1_blob = codec.dumps(captured.continuation)
    pipeline = SnapshotPipeline(codec, SharedStore())
    write = pipeline.encode("fiber-state/bench", captured.continuation,
                            fiber_id="bench")
    pipeline.store.write("fiber-state/bench", write.blob)

    repeats = 20
    t0 = time.perf_counter()
    for _ in range(repeats):
        codec.loads(v1_blob)
    v1_restore_ms = (time.perf_counter() - t0) / repeats * 1e3
    t0 = time.perf_counter()
    for _ in range(repeats):
        pipeline.load(write.blob, fiber_id="bench")
    v2_restore_ms = (time.perf_counter() - t0) / repeats * 1e3

    benchmark(lambda: pipeline.encode("fiber-state/bench",
                                      captured.continuation,
                                      fiber_id="bench"))

    rows = [
        ("v1 whole blob", v1_writes, int(v1_bytes), int(v1_per),
         f"{v1_restore_ms:.2f}"),
        ("v2 incremental", v2_writes, int(v2_bytes), int(v2_per),
         f"{v2_restore_ms:.2f}"),
    ]
    lines = [table(
        "Incremental snapshots — bytes persisted per suspension "
        f"(loop-heavy workflow, {SUSPENSIONS} suspensions)",
        ["format", "persists", "total bytes", "bytes/suspension",
         "restore ms"],
        rows)]
    lines.append("")
    lines.append(ratio_check(
        "v1 / v2 bytes per suspension (acceptance: >= 2x)",
        bytes_ratio, 2.0, tolerance=10.0))
    lines.append(f"   pipeline dedup ratio (raw/written): "
                 f"{snap_stats['dedup_ratio']:.2f}")
    lines.append(f"   chunks new {snap_stats['chunks_new']}, "
                 f"reused {snap_stats['chunks_reused']}")
    bench_report("persistsnap_dedup", "\n".join(lines))

    payload = {
        "suspensions": SUSPENSIONS,
        "v1_persists": v1_writes,
        "v2_persists": v2_writes,
        "v1_bytes": int(v1_bytes),
        "v2_bytes": int(v2_bytes),
        "v1_bytes_per_suspension": v1_per,
        "v2_bytes_per_suspension": v2_per,
        "bytes_ratio": bytes_ratio,
        "dedup_ratio": snap_stats["dedup_ratio"],
        "chunks_new": snap_stats["chunks_new"],
        "chunks_reused": snap_stats["chunks_reused"],
        "v1_restore_ms": v1_restore_ms,
        "v2_restore_ms": v2_restore_ms,
    }
    out_dir = os.path.join(os.path.dirname(__file__), "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "persistsnap_dedup.json"), "w") as fh:
        json.dump(payload, fh, indent=2)

    # the issue's acceptance bar
    assert bytes_ratio >= 2.0, (
        f"incremental snapshots only cut per-suspension bytes by "
        f"{bytes_ratio:.2f}x (need >= 2x)")
    # restore must stay the same order of magnitude as v1
    assert v2_restore_ms < v1_restore_ms * 10
