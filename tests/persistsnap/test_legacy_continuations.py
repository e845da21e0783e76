"""Read-compat: continuations persisted before they were pickled bytes.

``legacy/`` holds one suspension written by the old layout (the live
frame stack pickled as a tagged 6-tuple), once as a v1 ``custom``-codec
blob and once as a v2 manifest with its chunks; ``make_legacy_blobs.py``
is the script that wrote them.  Today's code must restore both and run
the fiber through its remaining two suspensions to the reference value.
"""

import base64
import json

import pytest

from repro.gvm.continuations import Continuation
from repro.gvm.vm import Done, Yielded
from repro.lang.symbols import Keyword

from .make_legacy_blobs import (EXPECTED, FEEDS, LEGACY_DIR, PARAMS,
                                deploy, first_suspension)

LEGACY_TAG = b"gozer-continuation"


def run_to_end(service, continuation):
    yielded = [PARAMS]
    for feed in FEEDS:
        outcome = service.runtime.new_vm(allow_yield=True).resume(
            continuation, feed)
        if isinstance(outcome, Yielded):
            yielded.append(outcome.value)
            continuation = outcome.continuation
    assert yielded == [PARAMS, Keyword("two"), Keyword("three")]
    return outcome


def restore_v1():
    _env, service = deploy("v1")
    blob = (LEGACY_DIR / "v1_custom.bin").read_bytes()
    return service, service.codec.loads(blob, fiber_id="legacy")


def restore_v2():
    env, service = deploy("v2")
    chunks = json.loads((LEGACY_DIR / "v2_chunks.json").read_text())
    for key, payload in chunks.items():
        env.store.write(key, base64.b64decode(payload))
    manifest = (LEGACY_DIR / "v2_manifest.bin").read_bytes()
    raw, _cost = service.snapper.fetch_state(
        service.snapper.read_manifest(manifest), fiber_id="legacy")
    assert LEGACY_TAG in raw  # the fixture really is the old layout
    return service, service.snapper.load(manifest, fiber_id="legacy")


@pytest.mark.parametrize("restore", [restore_v1, restore_v2],
                         ids=["v1-custom", "v2-manifest"])
def test_legacy_state_resumes_to_reference_value(restore):
    service, continuation = restore()
    assert isinstance(continuation, Continuation)
    assert run_to_end(service, continuation) == Done(EXPECTED)


def test_legacy_state_reencodes_in_current_layout():
    """A restored legacy continuation is an ordinary one: it persists
    without the tag and decodes to the same stack as a fresh capture
    at the same point."""
    service, continuation = restore_v1()
    raw = service.codec.serialize_state(continuation)
    assert LEGACY_TAG not in raw
    fresh = first_suspension(service)
    assert [(f.function_name, f.pc) for f in continuation.frames] == \
        [(f.function_name, f.pc) for f in fresh.frames]
    assert run_to_end(service, service.codec.deserialize_state(raw)) == \
        Done(EXPECTED)


def test_v1_fixture_is_the_old_layout():
    import zlib

    blob = (LEGACY_DIR / "v1_custom.bin").read_bytes()
    assert blob[:5] == b"GZR1C"
    assert LEGACY_TAG in zlib.decompress(blob[5:])
