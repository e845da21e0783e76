"""Property-based tests (hypothesis) on core invariants."""

import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bluebox.messagequeue import MessageQueue
from repro.bluebox.xmlmsg import XmlElement, element_to_value, value_to_element
from repro.faults import (
    CORRUPT_READ,
    CRASH,
    DELAY,
    DROP,
    DUPLICATE,
    FAIL_READ,
    FAIL_WRITE,
    FaultPlan,
    MessageFault,
    NodeFault,
    StoreFault,
)
from repro.faults.campaign import run_campaign
from repro.gvm.runtime import make_runtime
from repro.lang.printer import print_form
from repro.lang.reader import read_string
from repro.lang.symbols import Keyword, Symbol
from repro.vinz.cache import LruCache
from repro.vinz.persistence import FiberCodec

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

symbol_names = st.text(
    alphabet=string.ascii_lowercase + "-*?", min_size=1, max_size=12
).filter(lambda s: not s.startswith("-") and not any(c.isdigit() for c in s)
         and s not in ("nil", "t", "false", "true"))

atoms = st.one_of(
    st.integers(min_value=-10**9, max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(alphabet=string.printable, max_size=20),
    symbol_names.map(Symbol),
    symbol_names.map(Keyword),
    st.none(),
    st.booleans(),
)

forms = st.recursive(atoms, lambda children: st.lists(children, max_size=5),
                     max_leaves=25)

json_like = st.recursive(
    st.one_of(st.none(), st.booleans(),
              st.integers(min_value=-10**6, max_value=10**6),
              st.text(max_size=15)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(string.ascii_letters, min_size=1, max_size=8),
                        children, max_size=4)),
    max_leaves=20)


# ---------------------------------------------------------------------------
# reader / printer round trip
# ---------------------------------------------------------------------------

class TestReaderRoundTrip:
    @given(forms)
    @settings(max_examples=200)
    def test_print_then_read_is_identity(self, form):
        assert read_string(print_form(form)) == form

    @given(st.lists(forms, min_size=1, max_size=4))
    @settings(max_examples=100)
    def test_multiple_forms_round_trip(self, form_list):
        from repro.lang.reader import read_all

        text = " ".join(print_form(f) for f in form_list)
        assert read_all(text) == form_list


# ---------------------------------------------------------------------------
# VM vs ground truth (the differential block moved to conformance)
# ---------------------------------------------------------------------------

# The old TestVMDifferential block migrated to the conformance
# subsystem: representative instances live in
# tests/conformance/corpus/ as the ``seed-prop-*`` entries (replayed
# through the full oracle matrix by tests/conformance/test_corpus.py),
# and the randomized family those properties sampled is generated and
# differentially executed by ``python -m repro fuzz`` (see
# docs/conformance.md).  The ground-truth-vs-Python variants keep one
# hypothesis check here so a VM regression that breaks *both* engines
# equally still fails.


class TestVMGroundTruth:
    @given(st.lists(st.integers(min_value=-1000, max_value=1000),
                    min_size=0, max_size=20))
    @settings(max_examples=25)
    def test_sum_squares_matches_python(self, numbers):
        rt = make_runtime(deterministic=True)
        listed = " ".join(str(n) for n in numbers)
        value = rt.eval_string(f"""
            (apply #'+ (loop for n in (list {listed}) collect (* n n)))""")
        assert value == sum(n * n for n in numbers)

    @given(st.lists(st.integers(min_value=-100, max_value=100),
                    min_size=1, max_size=15))
    @settings(max_examples=25)
    def test_sort_is_sorted(self, xs):
        rt = make_runtime(deterministic=True)
        listed = " ".join(str(x) for x in xs)
        assert rt.eval_string(f"(sort (list {listed}))") == sorted(xs)


# ---------------------------------------------------------------------------
# continuation determinism
# ---------------------------------------------------------------------------

class TestContinuationProperties:
    @given(st.lists(st.integers(min_value=-10**6, max_value=10**6),
                    min_size=1, max_size=8))
    @settings(max_examples=30)
    def test_yield_resume_transparent(self, values):
        """Feeding values through yields == computing on them directly."""
        rt = make_runtime(deterministic=True)
        result = rt.start("""
            (let ((acc 0))
              (loop repeat %d do (setq acc (+ acc (yield))))
              acc)""" % len(values))
        for v in values[:-1]:
            result = rt.resume(result.continuation, v)
        done = rt.resume(result.continuation, values[-1])
        assert done.value == sum(values)

    @given(st.integers(min_value=-10**9, max_value=10**9))
    @settings(max_examples=30)
    def test_resume_same_continuation_twice_same_answer(self, v):
        rt = make_runtime(deterministic=True)
        result = rt.start("(* 3 (yield))")
        assert rt.resume(result.continuation, v).value == 3 * v
        assert rt.resume(result.continuation, v).value == 3 * v


# ---------------------------------------------------------------------------
# codecs
# ---------------------------------------------------------------------------

class TestCodecProperties:
    @given(json_like)
    @settings(max_examples=100)
    def test_round_trip(self, state):
        codec = FiberCodec()
        assert codec.loads(codec.dumps(state)) == state


# ---------------------------------------------------------------------------
# XML value encoding
# ---------------------------------------------------------------------------

class TestXmlProperties:
    @given(json_like)
    @settings(max_examples=100)
    def test_value_element_round_trip(self, value):
        el = value_to_element("v", value)
        assert element_to_value(XmlElement.from_xml(el.to_xml())) == value


# ---------------------------------------------------------------------------
# message queue ordering
# ---------------------------------------------------------------------------

class TestQueueProperties:
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=9),
                              st.integers()),
                    min_size=1, max_size=30))
    @settings(max_examples=100)
    def test_pop_order_is_priority_then_fifo(self, entries):
        queue = MessageQueue()
        for priority, payload in entries:
            msg = queue.make_message("S", "Op", {"p": payload},
                                     priority=priority)
            queue.enqueue(msg, now=0.0)
        popped = []
        while True:
            msg = queue.pop_next("S", now=0.0)
            if msg is None:
                break
            popped.append(msg)
        # priorities non-decreasing
        priorities = [m.priority for m in popped]
        assert priorities == sorted(priorities)
        # FIFO within each priority class (ids increase)
        for priority in set(priorities):
            ids = [m.id for m in popped if m.priority == priority]
            assert ids == sorted(ids)
        assert len(popped) == len(entries)


# ---------------------------------------------------------------------------
# LRU cache
# ---------------------------------------------------------------------------

class TestLruProperties:
    @given(st.lists(st.tuples(st.sampled_from("abcdefgh"), st.integers()),
                    max_size=50),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=100)
    def test_capacity_never_exceeded_and_last_write_wins(self, ops, capacity):
        cache = LruCache(capacity=capacity)
        latest = {}
        for key, value in ops:
            cache.put(key, value)
            latest[key] = value
        assert len(cache) <= capacity
        for key in latest:
            got = cache.get(key)
            assert got is None or got == latest[key]


# ---------------------------------------------------------------------------
# fault plans: survivability under arbitrary (bounded) fault schedules
# ---------------------------------------------------------------------------

# Bounded fault strategies.  The bounds keep every generated plan inside
# the survivable envelope: crashes always restart (eventual capacity)
# and the worst-case number of policy-counted delivery failures any one
# message can accumulate (message faults + store-abort retries) stays
# below the default RetryPolicy's 8 attempts, so no message can be
# legitimately dead-lettered.

message_faults = st.builds(
    MessageFault,
    action=st.sampled_from([DROP, DUPLICATE, DELAY]),
    nth=st.integers(min_value=1, max_value=6),
    count=st.integers(min_value=1, max_value=2),
    delay=st.floats(min_value=0.05, max_value=1.0))

store_faults = st.builds(
    StoreFault,
    action=st.sampled_from([FAIL_WRITE, FAIL_READ, CORRUPT_READ]),
    key_prefix=st.sampled_from(["", "fiber-state/", "fiber-thunk/"]),
    nth=st.integers(min_value=1, max_value=6),
    count=st.integers(min_value=1, max_value=2))

node_faults = st.builds(
    NodeFault,
    action=st.just(CRASH),
    at=st.floats(min_value=0.1, max_value=2.0),
    restart_after=st.floats(min_value=0.5, max_value=2.0))

fault_plans = st.lists(
    st.one_of(message_faults, store_faults, node_faults),
    min_size=0, max_size=3,
).map(lambda faults: FaultPlan(faults, name="generated"))


class TestFaultPlanProperties:
    @given(fault_plans)
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_survivable_plans_complete_all_tasks_correctly(self, plan):
        """Any bounded fault schedule that leaves eventual capacity:
        every task completes with the arithmetically correct result,
        and no message is both completed and dead-lettered."""
        report = run_campaign(plan, seed=1717, tasks=2, nodes=3)
        tasks = report.env.registry.tasks
        assert tasks and all(t.status == "completed"
                             for t in tasks.values()), report.statuses
        assert report.wrong_results() == []
        completed_msgs = {e.detail["msg"]
                          for e in report.env.cluster.tracer.events
                          if e.kind == "complete" and "msg" in e.detail}
        dead = set(report.env.cluster.queue.dead_letter_ids())
        assert completed_msgs.isdisjoint(dead)
        assert report.dead_lettered == 0


# ---------------------------------------------------------------------------
# randomized yield placement (continuation transparency, the hard way)
# ---------------------------------------------------------------------------


class TestRandomYieldPlacement:
    """Generate programs that interleave arithmetic with yields at
    hypothesis-chosen points, run them through suspend/pickle/resume
    cycles, and compare against computing the same thing directly."""

    @given(st.lists(st.tuples(st.booleans(),
                              st.integers(min_value=-50, max_value=50)),
                    min_size=1, max_size=10))
    @settings(max_examples=40)
    def test_interleaved_yields_transparent(self, steps):
        import pickle as _pickle

        from repro.gvm.vm import Done, Yielded

        rt = make_runtime(deterministic=True)
        # program: fold over the steps; yielding steps add the resumed
        # value, plain steps add their constant
        body = ["(setq acc 0)"]
        feeds = []
        expected = 0
        for do_yield, constant in steps:
            if do_yield:
                body.append("(setq acc (+ acc (yield :need-input)))")
                feeds.append(constant)
            else:
                body.append(f"(setq acc (+ acc {constant}))")
            expected += constant
        body.append("acc")
        source = "(progn " + " ".join(body) + ")"

        result = rt.start(source)
        for feed in feeds:
            assert isinstance(result, Yielded)
            # round-trip the continuation through pickle every time
            continuation = _pickle.loads(_pickle.dumps(result.continuation))
            result = rt.resume(continuation, feed)
        assert isinstance(result, Done)
        assert result.value == expected

    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=100))
    @settings(max_examples=25)
    def test_yield_in_recursion_depth(self, depth, payload):
        """Yields from arbitrary call depth capture the whole stack."""
        from repro.gvm.vm import Done, Yielded

        rt = make_runtime(deterministic=True)
        rt.eval_string("""
            (defun descend (n)
              (if (= n 0)
                  (yield :bottom)
                  (+ 1 (descend (- n 1)))))""")
        result = rt.start(f"(descend {depth})")
        assert isinstance(result, Yielded)
        done = rt.resume(result.continuation, payload)
        assert isinstance(done, Done)
        assert done.value == payload + depth
