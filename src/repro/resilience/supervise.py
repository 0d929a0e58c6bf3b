"""Supervision limits of the :class:`~repro.parallel.TaskFarm` executor.

A :class:`SupervisionConfig` bundles the watchdog timeouts with the
task-level :class:`~repro.resilience.retry.RetryPolicy`.  The defaults
are deliberately generous — a paper-scale series job renders in
seconds — so the stock timeouts only ever catch genuinely wedged
workers; callers with longer tasks (sweep cells) pass their own config.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError
from .retry import RetryPolicy

#: Stock limits: a series job at city scale renders well under this.
DEFAULT_JOB_TIMEOUT_S = 900.0
DEFAULT_HEARTBEAT_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class SupervisionConfig:
    """Watchdog limits plus the per-job retry policy."""

    #: Wall-clock budget for one job attempt; longer means the worker
    #: is killed and the job retried.  ``None`` disables the check.
    job_timeout_s: float | None = DEFAULT_JOB_TIMEOUT_S
    #: Maximum heartbeat staleness before a worker counts as wedged.
    #: ``None`` disables the check.
    heartbeat_timeout_s: float | None = DEFAULT_HEARTBEAT_TIMEOUT_S
    #: Per-job retry budget (attempt 1 = first dispatch).
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        for name in ("job_timeout_s", "heartbeat_timeout_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigurationError(
                    f"{name} must be positive or None, got {value}")
