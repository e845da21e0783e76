"""Fiber persistence codec tests (paper Section 4.2)."""

import pickle
import zlib

import pytest

from repro.gvm.runtime import make_runtime
from repro.observe.metrics import MetricsRegistry
from repro.vinz.persistence import (
    CODEC_CUSTOM,
    DEFLATE_LEVEL,
    MAGIC,
    CodeRegistry,
    FiberCodec,
    HostFunctionRegistry,
)


@pytest.fixture
def codec():
    return FiberCodec()


SAMPLE_STATES = [
    {"a": 1, "b": [1, 2, 3], "c": "text" * 10},
    list(range(100)),
    {"nested": {"deep": {"deeper": [None, True, 2.5]}}},
]


class TestRoundTrip:
    @pytest.mark.parametrize("state", SAMPLE_STATES)
    def test_dumps_loads(self, codec, state):
        assert codec.loads(codec.dumps(state)) == state

    def test_blob_framed_with_magic(self, codec):
        blob = codec.dumps({"x": 1})
        assert blob[:4] == b"GZR1" == MAGIC

    def test_codec_name_identifiable(self, codec):
        blob = codec.dumps([1])
        assert blob[4:5] == CODEC_CUSTOM == b"C"

    def test_bad_blob_rejected(self, codec):
        with pytest.raises(ValueError):
            codec.loads(b"NOPE" + b"x" * 10)

    def test_unknown_codec_name_rejected(self):
        with pytest.raises(ValueError):
            FiberCodec("zstd")

    @pytest.mark.parametrize("name", ["none", "gzip", "deflate"])
    def test_retired_codec_names_rejected(self, name):
        """The generic write modes live on only as the baselines in
        ``benchmarks/bench_serialization.py``."""
        with pytest.raises(ValueError):
            FiberCodec(name)

    def test_statistics(self, codec):
        """Blob sizes reach the metrics registry the owning service
        installs, as the ``codec.*_bytes`` histograms."""
        codec.metrics = MetricsRegistry()
        codec.dumps([1, 2, 3])
        blob = codec.dumps([4])
        codec.loads(blob)
        encoded = codec.metrics.histogram("codec.encode_bytes")
        decoded = codec.metrics.histogram("codec.decode_bytes")
        assert encoded.count == 2 and encoded.total > len(blob)
        assert decoded.count == 1 and decoded.total == len(blob)


def _continuation_state():
    """A realistic payload: a captured continuation of a real program."""
    rt = make_runtime(deterministic=True)
    rt.eval_string("""
        (defun helper (x) (* x 2))
        (defun work (items)
          (let ((acc (list)))
            (dolist (item items)
              (append! acc (helper item)))
            (yield :checkpoint)
            acc))""")
    result = rt.start("(work (list 1 2 3 4 5 6 7 8 9 10))")
    return rt, result.continuation


class TestContinuationPayloads:
    def test_codec_round_trips_a_continuation(self):
        rt, continuation = _continuation_state()
        registry = CodeRegistry()
        hosts = HostFunctionRegistry()
        from repro.gvm.frames import GozerFunction

        for name, value in rt.global_env.variables.items():
            if isinstance(value, GozerFunction):
                registry.register_tree(value.code)
            elif callable(value):
                hosts.register(name.name, value)
        codec = FiberCodec(registry=registry, hosts=hosts)
        restored = codec.loads(codec.dumps(continuation))
        done = rt.resume(restored, None)
        assert done.value == [2, 4, 6, 8, 10, 12, 14, 16, 18, 20]

    def test_compression_shrinks_blobs(self):
        """Section 4.2: compression is worth it — the blob is smaller
        than the raw serialization."""
        rt, continuation = _continuation_state()
        codec = FiberCodec()
        raw = codec.serialize_state(continuation)
        assert len(codec.dumps(continuation)) < len(raw)

    def test_custom_format_smallest(self):
        """The custom format (code by reference) beats plain deflate of
        a generic pickle, like the paper's custom serialization for
        common objects."""
        rt, continuation = _continuation_state()
        generic = zlib.compress(
            pickle.dumps(continuation, protocol=pickle.HIGHEST_PROTOCOL),
            DEFLATE_LEVEL)
        assert len(FiberCodec().dumps(continuation)) < len(generic)

    def test_code_travels_by_reference(self):
        """The custom format's point (Section 4.2): program code in a
        continuation pickles as registry keys, not by value, so a blob
        decodes only against a registry that holds the program."""
        rt, continuation = _continuation_state()
        writer = FiberCodec()
        blob = writer.dumps(continuation)
        assert len(writer.registry) > 0  # code went in by reference
        with pytest.raises(ValueError):
            FiberCodec().loads(blob)  # a registry without the program


class TestCodeRegistry:
    def test_register_idempotent(self):
        from repro.lang.bytecode import CodeObject

        registry = CodeRegistry()
        code = CodeObject("f")
        k1 = registry.register(code)
        k2 = registry.register(code)
        assert k1 == k2
        assert registry.lookup(k1) is code
        assert len(registry) == 1

    def test_register_tree_includes_nested(self):
        from repro.lang.compiler import Compiler
        from repro.lang.reader import read_string

        code = Compiler().compile_toplevel(
            read_string("(lambda (x) (lambda (y) (+ x y)))"))
        registry = CodeRegistry()
        registry.register_tree(code)
        assert len(registry) == 3

    def test_key_for_unknown_is_none(self):
        from repro.lang.bytecode import CodeObject

        assert CodeRegistry().key_for(CodeObject("x")) is None


class TestHostFunctionRegistry:
    def test_register_lookup(self):
        hosts = HostFunctionRegistry()
        fn = lambda: 1  # noqa: E731
        hosts.register("f", fn)
        assert hosts.key_for(fn) == "f"
        assert hosts.lookup("f") is fn
        assert len(hosts) == 1

    def test_unregistered_function_pickled_by_value_fails_for_locals(self):
        """A local closure NOT in the registry can't be pickled — the
        registry is what makes fiber blobs with intrinsic references
        work."""
        codec = FiberCodec()

        def local_fn():
            return 1

        with pytest.raises(Exception):
            codec.dumps({"fn": local_fn})
