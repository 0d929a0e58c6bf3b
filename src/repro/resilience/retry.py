"""Bounded, seeded retry with exponential backoff and jitter.

Every supervised boundary — cache commits, shard flushes, farm tasks —
shares one policy shape: try up to ``max_attempts`` times,
sleeping ``backoff_s * factor**(attempt-1)`` between attempts with a
deterministic jitter drawn from a seeded stream.  Jitter is derived
from ``sha256(seed | token | attempt)`` rather than a live RNG, so a
given (policy, token) pair always produces the same delay sequence —
the determinism contract extends to *how long* a chaos run waits, and
no global RNG state is consumed (retries must never shift simulation
draws).

:func:`call_with_retry` is the shared loop; the task farm uses
:meth:`RetryPolicy.delay` directly because its retries are scheduled
asynchronously (a waiting parent must keep consuming other results
instead of sleeping).
"""

from __future__ import annotations

import hashlib
import struct
import time
from dataclasses import dataclass
from typing import Callable

from ..errors import ConfigurationError, InjectedFault

#: Exception classes retried by default: injected chaos plus the
#: transient-I/O shape (``OSError`` covers ENOSPC, EINTR, flaky NFS).
DEFAULT_TRANSIENT = (InjectedFault, OSError)


@dataclass(frozen=True)
class RetryPolicy:
    """How often and how patiently one boundary retries.

    ``max_attempts`` counts the first try: 3 means one call plus two
    retries.  ``jitter`` is the maximum *fractional* increase of a
    delay (0.25 = up to +25%).
    """

    max_attempts: int = 3
    backoff_s: float = 0.05
    factor: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_s < 0 or self.factor < 1 or self.jitter < 0:
            raise ConfigurationError(
                f"invalid retry policy: backoff_s={self.backoff_s} "
                f"factor={self.factor} jitter={self.jitter}")

    def delay(self, token: str, attempt: int) -> float:
        """Seconds to wait after failed attempt ``attempt`` (1-based).

        Deterministic per (seed, token, attempt): exponential base plus
        seeded jitter, so retry schedules are reproducible and two jobs
        retrying concurrently (different tokens) de-synchronise.
        """
        base = self.backoff_s * self.factor ** (attempt - 1)
        digest = hashlib.sha256(
            f"retry|{self.seed}|{token}|{attempt}".encode()).digest()
        uniform = struct.unpack(">Q", digest[:8])[0] / 2.0 ** 64
        return base * (1.0 + self.jitter * uniform)


def call_with_retry(fn: Callable[[], object], *, policy: RetryPolicy,
                    token: str,
                    transient: tuple[type[BaseException], ...]
                    = DEFAULT_TRANSIENT,
                    on_retry: Callable[[int, float, BaseException], None]
                    | None = None,
                    sleep: Callable[[float], None] = time.sleep) -> object:
    """Call ``fn`` until it succeeds or the retry budget is exhausted.

    Only ``transient`` exception types are retried; anything else
    propagates immediately (a programming error must not be papered
    over by retries).  ``on_retry(attempt, delay_s, exc)`` is invoked
    before each backoff sleep — the journal hook.  The final failure
    re-raises the last transient exception unchanged.
    """
    for attempt in range(1, policy.max_attempts + 1):
        try:
            return fn()
        except transient as exc:
            if attempt >= policy.max_attempts:
                raise
            delay = policy.delay(token, attempt)
            if on_retry is not None:
                on_retry(attempt, delay, exc)
            if delay > 0:
                sleep(delay)
    raise AssertionError("unreachable")  # pragma: no cover
