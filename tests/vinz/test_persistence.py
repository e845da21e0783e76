"""Fiber persistence codec tests (paper Section 4.2)."""

import pytest

from repro.gvm.runtime import make_runtime
from repro.vinz.persistence import (
    CodeRegistry,
    FiberCodec,
    HostFunctionRegistry,
)


@pytest.fixture(params=["none", "gzip", "deflate", "custom"])
def codec(request):
    return FiberCodec(request.param)


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
        assert blob[:4] == b"GZR1"

    def test_codec_name_identifiable(self, codec):
        blob = codec.dumps([1])
        assert blob[4:5] == FiberCodec.NAMES[codec.codec]

    def test_any_codec_decodes_any_blob(self):
        """Blobs are self-describing: a deflate-configured node can read
        a gzip blob another node wrote."""
        registry = CodeRegistry()
        hosts = HostFunctionRegistry()
        writer = FiberCodec("gzip", registry=registry, hosts=hosts)
        reader = FiberCodec("deflate", registry=registry, hosts=hosts)
        assert reader.loads(writer.dumps([1, 2])) == [1, 2]

    def test_bad_blob_rejected(self, codec):
        with pytest.raises(ValueError):
            codec.loads(b"NOPE" + b"x" * 10)

    def test_unknown_codec_name_rejected(self):
        with pytest.raises(ValueError):
            FiberCodec("zstd")

    def test_statistics(self, codec):
        codec.dumps([1, 2, 3])
        codec.loads(codec.dumps([4]))
        assert codec.encoded == 2
        assert codec.decoded == 1
        assert codec.raw_bytes > 0
        assert codec.stored_bytes > 0


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
    def test_every_codec_round_trips_a_continuation(self):
        rt, continuation = _continuation_state()
        registry = CodeRegistry()
        hosts = HostFunctionRegistry()
        from repro.gvm.frames import GozerFunction

        for name, value in rt.global_env.variables.items():
            if isinstance(value, GozerFunction):
                registry.register_tree(value.code)
            elif callable(value):
                hosts.register(name.name, value)
        for codec_name in FiberCodec.NAMES:
            codec = FiberCodec(codec_name, registry=registry, hosts=hosts)
            restored = codec.loads(codec.dumps(continuation))
            done = rt.resume(restored, None)
            assert done.value == [2, 4, 6, 8, 10, 12, 14, 16, 18, 20], codec_name

    def test_compression_shrinks_blobs(self):
        """Section 4.2: compression is worth it — the blob is much
        smaller than the raw serialization."""
        rt, continuation = _continuation_state()
        sizes = {}
        for codec_name in ("none", "gzip", "deflate"):
            codec = FiberCodec(codec_name)
            sizes[codec_name] = len(codec.dumps(continuation))
        assert sizes["deflate"] < sizes["none"]
        assert sizes["gzip"] < sizes["none"]

    def test_custom_format_smallest(self):
        """The custom format (code by reference) beats plain deflate,
        like the paper's custom serialization for common objects."""
        rt, continuation = _continuation_state()
        registry = CodeRegistry()
        from repro.gvm.frames import GozerFunction

        for value in rt.global_env.variables.values():
            if isinstance(value, GozerFunction):
                registry.register_tree(value.code)
        deflate = FiberCodec("deflate")
        custom = FiberCodec("custom", registry=registry)
        assert len(custom.dumps(continuation)) < len(deflate.dumps(continuation))


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
        import pickle

        codec = FiberCodec("deflate")

        def local_fn():
            return 1

        with pytest.raises(Exception):
            codec.dumps({"fn": local_fn})


class TestCompareCodecs:
    def test_reports_all_codecs(self):
        state = {"x": list(range(200))}
        assert set(FiberCodec.NAMES) == {"none", "gzip", "deflate", "custom"}
        for name in FiberCodec.NAMES:
            codec = FiberCodec(name)
            assert codec.loads(codec.dumps(state)) == state

    def test_compressed_smaller_than_raw(self):
        state = {"x": ["repetitive data"] * 500}
        size = {name: len(FiberCodec(name).dumps(state))
                for name in ("none", "gzip", "deflate")}
        assert size["deflate"] < size["none"]
        assert size["gzip"] < size["none"]
