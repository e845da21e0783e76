"""Retry policies: bounded attempts, exponential backoff, timeouts.

The paper's production system retries fiber messages effectively
forever ("a running AwakeFiber ... places itself back on the message
queue for later delivery", Section 5) and silently drops poison
messages once ``max_attempts`` is exhausted.  Production message-driven
systems instead degrade gracefully: a :class:`RetryPolicy` bounds the
attempts, spaces them with exponential backoff (jittered so retry
storms decorrelate), and gives up after an overall timeout — at which
point the message lands in the dead-letter queue
(:mod:`repro.bluebox.messagequeue`) instead of vanishing.

All jitter is drawn from a *seeded* RNG supplied by the caller, so a
fault campaign replays bit-identically (see
:mod:`repro.faults.injector`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True)
class RetryPolicy:
    """How a message is retried after a failed delivery.

    * ``max_attempts`` — dead-letter after this many delivery attempts.
      ``None`` defers to the message's own ``max_attempts`` cap (the
      platform's legacy behaviour, effectively retry-forever for fiber
      messages).
    * ``base_delay``/``multiplier``/``max_delay`` — attempt ``n`` waits
      ``min(base_delay * multiplier**(n-1), max_delay)`` seconds.
    * ``jitter`` — fraction of the computed delay randomized away:
      ``0.25`` means the actual delay is uniform in ``[0.75d, 1.25d]``.
    * ``timeout`` — overall per-message budget (virtual seconds since
      the message was first enqueued); exceeded → dead-letter without
      further attempts.
    """

    max_attempts: Optional[int] = 8
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.25
    timeout: Optional[float] = None

    @classmethod
    def default(cls) -> "RetryPolicy":
        """The default production policy: 8 attempts, exponential
        backoff with ±25% jitter, no overall timeout."""
        return cls()

    @classmethod
    def platform(cls, redelivery_delay: float = 0.05) -> "RetryPolicy":
        """The legacy platform behaviour, expressed as a policy: the
        message's own ``max_attempts`` cap, a constant redelivery delay
        and no jitter — bit-identical to the pre-policy cluster."""
        return cls(max_attempts=None, base_delay=redelivery_delay,
                   multiplier=1.0, max_delay=redelivery_delay, jitter=0.0)

    def with_max_attempts(self, n: Optional[int]) -> "RetryPolicy":
        return replace(self, max_attempts=n)

    # ------------------------------------------------------------------

    def backoff_delay(self, attempt: int,
                      rng: Optional[random.Random] = None) -> float:
        """The delay before delivery attempt ``attempt + 1``.

        ``attempt`` is the number of attempts already made (1-based
        after the first failure).  Growth is exponential but bounded:
        the un-jittered delay never exceeds ``max_delay`` and the
        jittered delay never exceeds ``max_delay * (1 + jitter)``.
        """
        exponent = max(0, attempt - 1)
        raw = self.base_delay * (self.multiplier ** exponent)
        raw = min(raw, self.max_delay)
        if rng is not None and self.jitter > 0.0:
            raw *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, raw)

    def attempt_cap(self, message_cap: int) -> int:
        """How many delivery attempts a message gets: the policy's own
        ``max_attempts``, else ``message_cap`` (the message's own cap)."""
        return self.max_attempts if self.max_attempts is not None \
            else message_cap

    def expired(self, first_enqueued_at: float, now: float) -> bool:
        """Has the message's overall retry budget run out?"""
        if self.timeout is None:
            return False
        return (now - first_enqueued_at) >= self.timeout
