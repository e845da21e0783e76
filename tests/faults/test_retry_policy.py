"""Unit tests: RetryPolicy backoff math and dead-letter accounting."""

import random
import subprocess
import sys
import textwrap

import pytest

from repro.bluebox.messagequeue import MessageQueue
from repro.faults import RetryPolicy


class TestBackoffMath:
    def test_exponential_growth_without_jitter(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=100.0,
                             jitter=0.0)
        delays = [policy.backoff_delay(n) for n in range(1, 6)]
        assert delays == [0.1, 0.2, 0.4, 0.8, 1.6]

    def test_growth_is_bounded_by_max_delay(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5,
                             jitter=0.0)
        assert policy.backoff_delay(50) == 0.5
        # and the bound also caps the jittered delay
        jittered = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5,
                               jitter=0.25)
        rng = random.Random(0)
        for attempt in range(1, 40):
            assert jittered.backoff_delay(attempt, rng) <= 0.5 * 1.25

    def test_first_attempt_uses_base_delay(self):
        policy = RetryPolicy(base_delay=0.07, multiplier=3.0, jitter=0.0)
        assert policy.backoff_delay(1) == pytest.approx(0.07)
        # attempt 0 (defensive) does not underflow the exponent
        assert policy.backoff_delay(0) == pytest.approx(0.07)

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=1.0, max_delay=1.0,
                             jitter=0.25)
        rng = random.Random(42)
        delays = [policy.backoff_delay(1, rng) for _ in range(200)]
        assert all(0.75 <= d <= 1.25 for d in delays)
        # jitter actually varies the delay
        assert len({round(d, 9) for d in delays}) > 1

    def test_jitter_is_deterministic_under_seeded_rng(self):
        policy = RetryPolicy.default()
        a = [policy.backoff_delay(n, random.Random(7)) for n in range(1, 6)]
        b = [policy.backoff_delay(n, random.Random(7)) for n in range(1, 6)]
        assert a == b

    def test_zero_jitter_ignores_rng(self):
        policy = RetryPolicy(jitter=0.0)
        rng = random.Random(1)
        before = rng.getstate()
        policy.backoff_delay(3, rng)
        assert rng.getstate() == before  # no draw — replay streams intact

    def test_platform_policy_matches_legacy_redelivery(self):
        policy = RetryPolicy.platform(redelivery_delay=0.05)
        assert policy.max_attempts is None
        for attempt in range(1, 10):
            assert policy.backoff_delay(attempt, random.Random(0)) == 0.05


class TestAttemptCapsAndTimeout:
    def test_allows_respects_own_cap(self):
        policy = RetryPolicy(max_attempts=3)
        assert 2 < policy.attempt_cap(message_cap=100)
        assert not 3 < policy.attempt_cap(message_cap=100)

    def test_allows_falls_back_to_message_cap(self):
        policy = RetryPolicy.platform()
        assert 99 < policy.attempt_cap(message_cap=100)
        assert not 100 < policy.attempt_cap(message_cap=100)

    def test_timeout_expiry(self):
        policy = RetryPolicy(timeout=2.0)
        assert not policy.expired(first_enqueued_at=1.0, now=2.5)
        assert policy.expired(first_enqueued_at=1.0, now=3.0)
        assert policy.expired(first_enqueued_at=1.0, now=10.0)

    def test_no_timeout_never_expires(self):
        policy = RetryPolicy(timeout=None)
        assert not policy.expired(first_enqueued_at=0.0, now=1e9)

    def test_with_max_attempts_is_nondestructive(self):
        policy = RetryPolicy.default()
        tighter = policy.with_max_attempts(2)
        assert tighter.max_attempts == 2
        assert policy.max_attempts == 8


class TestDeadLetterAccounting:
    def _message(self, queue, max_attempts=3):
        return queue.make_message("S", "Op", {}, max_attempts=max_attempts)

    def test_exhaustion_moves_message_to_dlq(self):
        queue = MessageQueue()
        msg = self._message(queue, max_attempts=3)
        assert queue.requeue(msg, now=0.0)       # attempt 1
        assert queue.requeue(msg, now=0.0)       # attempt 2
        assert not queue.requeue(msg, now=0.0)   # attempt 3: exhausted
        assert queue.dead_letters == [msg]
        assert queue.dead_letter_ids() == [msg.id]
        assert queue.dead_lettered == 1

    def test_redelivered_counts_only_successful_requeues(self):
        queue = MessageQueue()
        msg = self._message(queue, max_attempts=3)
        queue.requeue(msg, now=0.0)
        queue.requeue(msg, now=0.0)
        queue.requeue(msg, now=0.0)
        assert queue.redelivered == 2
        assert queue.dead_lettered == 1

    def test_cap_overrides_message_max_attempts(self):
        queue = MessageQueue()
        msg = self._message(queue, max_attempts=1000)
        assert not queue.requeue(msg, now=0.0, cap=1)
        assert queue.dead_lettered == 1

    def test_push_false_accounts_without_inserting(self):
        queue = MessageQueue()
        msg = self._message(queue, max_attempts=5)
        assert queue.requeue(msg, now=0.0, push=False)
        assert queue.peek_depth("S") == 0
        queue.push_back(msg)
        assert queue.peek_depth("S") == 1
        assert queue.pop_next("S", now=0.0) is msg

    def test_dead_lettered_message_is_not_reinserted(self):
        queue = MessageQueue()
        msg = self._message(queue, max_attempts=1)
        assert not queue.requeue(msg, now=0.0)
        assert queue.peek_depth("S") == 0


def test_deploy_loads_no_fault_injection():
    """The cluster's redelivery policy lives beside the cluster:
    deploying a workflow imports neither fault plans nor the
    injector."""
    script = textwrap.dedent(f"""
        import sys
        sys.path[:0] = {sys.path!r}
        from repro.vinz.api import VinzEnvironment
        env = VinzEnvironment(nodes=2, seed=1)
        env.deploy_workflow("W", "(defun main (params) params)")
        assert env.call("W", 7) == 7
        print(sorted(m for m in ("repro.faults.plan",
                                 "repro.faults.injector")
                     if m in sys.modules))
    """)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
