"""Supervised execution: failpoints, retries, and watchdog policy.

The paper measures platforms that fail constantly; this package makes
the *runner* survive the same weather.  It has three pieces:

* :mod:`repro.resilience.failpoints` — a deterministic fault-injection
  registry (``REPRO_FAILPOINTS`` / ``--chaos PROFILE``) wired into the
  I/O and pool boundaries, so chaos runs exercise every recovery path
  on demand and reproducibly;
* :mod:`repro.resilience.retry` — the shared bounded-retry loop with
  seeded exponential backoff and jitter;
* :mod:`repro.resilience.supervise` — the watchdog configuration
  (per-task timeout, heartbeat staleness, retry budget) consumed by the
  task farm in :mod:`repro.parallel`.

The design contract, enforced by the chaos CI gate: recovery changes
*when* work happens, never *what* it produces — a run that survives
injected cache-write failures and a worker kill canonicalises to the
bit-identical journal and outputs of a clean run (retry/restart events
are volatile, see :data:`repro.obs.VOLATILE_EVENT_TYPES`).

See ``docs/resilience.md`` for the spec grammar, the retry/quarantine
policy, and the per-subsystem failure-modes table.
"""

from .failpoints import (
    CHAOS_PROFILES,
    FAILPOINTS_ENV,
    SITES,
    FailpointRegistry,
    FailpointRule,
    active,
    chaos_spec,
    failpoint,
    fire,
    install,
    parse_failpoints,
    reset,
)
from .retry import DEFAULT_TRANSIENT, RetryPolicy, call_with_retry
from .supervise import SupervisionConfig

__all__ = [
    "CHAOS_PROFILES",
    "DEFAULT_TRANSIENT",
    "FAILPOINTS_ENV",
    "FailpointRegistry",
    "FailpointRule",
    "RetryPolicy",
    "SITES",
    "SupervisionConfig",
    "active",
    "call_with_retry",
    "chaos_spec",
    "failpoint",
    "fire",
    "install",
    "parse_failpoints",
    "reset",
]
