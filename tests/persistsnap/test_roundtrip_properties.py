"""Round-trip property suite: v2 snapshots restore bit-identically.

Two layers:

* randomized *state graphs* (shared substructure, cycles, deep nesting)
  pushed through the pipeline and compared against the whole-pickle
  baseline — chunk dedup must never change what comes back;
* real captured *continuations* — deep frame stacks, condition handler
  stacks, restarts, futures, task variables — restored through v2 and
  resumed to the same answers as the uncut original.
"""

import pickle

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bluebox.store import SharedStore
from repro.gvm.continuations import Continuation
from repro.gvm.vm import Done
from repro.lang.symbols import Keyword
from repro.persistsnap import SnapshotPipeline, content_digest, is_manifest
from repro.vinz.persistence import FiberCodec

K = Keyword


def fresh_pipeline():
    codec = FiberCodec()
    return SnapshotPipeline(codec, SharedStore()), codec


def roundtrip(pipeline, codec, state, key="fiber-state/f1"):
    result = pipeline.encode(key, state, fiber_id="f1")
    pipeline.store.write(key, result.blob)
    result.release()
    return pipeline.load(result.blob, fiber_id="f1")


# -- randomized state graphs ------------------------------------------------

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=40), st.binary(max_size=80))

trees = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.dictionaries(st.text(max_size=8), inner, max_size=5),
        st.tuples(inner, inner)),
    max_leaves=60)


class TestStateGraphs:
    @given(trees)
    @settings(max_examples=60, deadline=None)
    def test_tree_restores_equal(self, state):
        pipeline, codec = fresh_pipeline()
        assert roundtrip(pipeline, codec, state) == state

    @given(trees)
    @settings(max_examples=40, deadline=None)
    def test_matches_whole_pickle_baseline(self, state):
        """Dedup must never change semantics: the v2 restore equals
        what a plain whole-blob pickle round-trip produces."""
        pipeline, codec = fresh_pipeline()
        via_v2 = roundtrip(pipeline, codec, state)
        via_pickle = pickle.loads(pickle.dumps(state))
        assert via_v2 == via_pickle

    @given(st.lists(st.binary(min_size=100, max_size=4000), min_size=1,
                    max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_reserialization(self, payloads):
        """Strongest form: re-serializing the restored state yields the
        exact bytes the manifest digested."""
        pipeline, codec = fresh_pipeline()
        state = {"blobs": payloads}
        raw = codec.serialize_state(state)
        result = pipeline.encode("k", state, fiber_id="f1", raw=raw)
        restored = pipeline.load(result.blob, fiber_id="f1")
        assert codec.serialize_state(restored) == raw
        assert content_digest(raw) == result.manifest.state_digest

    def test_shared_substructure_stays_shared(self):
        pipeline, codec = fresh_pipeline()
        shared = ["payload"] * 50
        state = {"a": shared, "b": shared, "c": [shared, shared]}
        restored = roundtrip(pipeline, codec, state)
        assert restored["a"] is restored["b"]
        assert restored["c"][0] is restored["a"]

    def test_cyclic_structure_restores(self):
        pipeline, codec = fresh_pipeline()
        node = {"name": "root", "next": None}
        node["next"] = node  # cycle
        restored = roundtrip(pipeline, codec, {"head": node})
        assert restored["head"]["next"] is restored["head"]

    @given(st.integers(min_value=0, max_value=3),
           st.lists(st.integers(), min_size=0, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_incremental_sequence_each_version_exact(self, seed, extra):
        """A mutating state stored repeatedly under one key: every
        version restores exactly, whatever the dedup diff did."""
        pipeline, codec = fresh_pipeline()
        state = {"carried": [f"block-{i:04d}" for i in range(150)],
                 "acc": [seed]}
        key = "fiber-state/f1"
        for step, item in enumerate([*extra, seed]):
            state["acc"].append(item)
            result = pipeline.encode(key, state, fiber_id="f1")
            pipeline.store.write(key, result.blob)
            result.release()
            restored = pipeline.load(pipeline.store.read(key),
                                     fiber_id="f1")
            assert restored == state


# -- real continuations -----------------------------------------------------

def snap_continuation(rt, continuation):
    """Round-trip a captured continuation through a fresh v2 pipeline
    sharing the runtime's registries (as deployed nodes do)."""
    from repro.gvm.frames import GozerFunction
    from repro.vinz.persistence import CodeRegistry, HostFunctionRegistry

    registry = CodeRegistry()
    hosts = HostFunctionRegistry()
    for name, value in rt.global_env.variables.items():
        if isinstance(value, GozerFunction):
            registry.register_tree(value.code)
        elif callable(value):
            hosts.register(name.name, value)
    codec = FiberCodec(registry=registry, hosts=hosts)
    pipeline = SnapshotPipeline(codec, SharedStore())
    result = pipeline.encode("fiber-state/f1", continuation, fiber_id="f1")
    assert is_manifest(result.blob)
    restored = pipeline.load(result.blob, fiber_id="f1")
    assert isinstance(restored, Continuation)
    return restored


class TestContinuations:
    def test_deep_frame_stack(self, rt):
        result = rt.start("""
            (defun descend (n)
              (if (= n 0) (yield :bottom) (+ 1 (descend (- n 1)))))
            (descend 30)""")
        restored = snap_continuation(rt, result.continuation)
        assert rt.resume(restored, 0) == Done(30)

    def test_handler_and_restart_stacks(self, rt):
        result = rt.start("""
            (handler-bind ((error (lambda (c) (invoke-restart 'use 9))))
              (restart-case (progn (yield) (error "x"))
                (use (v) v)))""")
        restored = snap_continuation(rt, result.continuation)
        assert rt.resume(restored, None) == Done(9)

    def test_handler_case_after_resume(self, rt):
        result = rt.start("""
            (handler-case
                (progn (yield) (error "late failure") :no)
              (error (c) :caught-after-resume))""")
        restored = snap_continuation(rt, result.continuation)
        assert rt.resume(restored, None) == Done(K("caught-after-resume"))

    def test_captured_future_value(self, rt):
        # futures are determined before capture (Section 4.1), so the
        # continuation carries the settled value
        result = rt.start("""
            (let ((f (future (* 6 7))))
              (yield)
              (touch f))""")
        restored = snap_continuation(rt, result.continuation)
        assert rt.resume(restored, None) == Done(42)

    def test_rich_state_hash_table(self, rt):
        result = rt.start("""
            (let ((table (make-hash-table))
                  (items (list 1 "two" :three (list 4))))
              (setf (gethash :k table) items)
              (yield)
              (gethash :k table))""")
        restored = snap_continuation(rt, result.continuation)
        assert rt.resume(restored, None) == Done([1, "two", K("three"), [4]])

    def test_loop_heavy_incremental_identical_results(self, rt):
        """The dedup path vs the baseline path, step by step through a
        whole loop — results must be identical at every suspension."""
        from repro.bluebox.store import SharedStore as Store

        result = rt.start("""
            (let ((carried (loop for i from 0 below 150 collect
                                 (list i "carried-block")))
                  (acc (list)))
              (loop for x in (list 1 2 3 4 5 6 7 8 9 10 11 12)
                    do (append! acc (+ x (yield x))))
              (list (length carried) acc))""")
        codec = FiberCodec()
        pipeline = SnapshotPipeline(codec, Store())
        baseline = result
        key = "fiber-state/f1"
        for reply in range(12):
            # v2 round-trip the live continuation, then advance BOTH
            write = pipeline.encode(key, result.continuation,
                                    fiber_id="f1")
            pipeline.store.write(key, write.blob)
            write.release()
            restored = pipeline.load(pipeline.store.read(key),
                                     fiber_id="f1")
            result = rt.resume(restored, reply)
            baseline = rt.resume(
                pickle.loads(pickle.dumps(baseline.continuation)), reply)
            if isinstance(result, Done):
                break
        assert isinstance(result, Done) and isinstance(baseline, Done)
        assert result.value == baseline.value
        assert result.value[0] == 150
        # and the loop actually deduped: far fewer bytes written than raw
        assert pipeline.written_bytes < pipeline.raw_bytes

    @given(st.integers(min_value=1, max_value=25))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_depth_roundtrip(self, rt, depth):
        result = rt.start(f"""
            (defun spin (n acc)
              (if (= n 0) (yield acc) (spin (- n 1) (cons n acc))))
            (spin {depth} (list))""")
        restored = snap_continuation(rt, result.continuation)
        done = rt.resume(restored, K("ok"))
        assert done == Done(K("ok"))
