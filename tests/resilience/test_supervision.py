"""Tests for the watchdog configuration (repro.resilience.supervise)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.resilience import SupervisionConfig
from repro.resilience.supervise import (
    DEFAULT_HEARTBEAT_TIMEOUT_S,
    DEFAULT_JOB_TIMEOUT_S,
)


class TestDefaults:
    def test_stock_limits(self):
        config = SupervisionConfig()
        assert config.job_timeout_s == DEFAULT_JOB_TIMEOUT_S
        assert config.heartbeat_timeout_s == DEFAULT_HEARTBEAT_TIMEOUT_S
        assert config.retry.max_attempts == 3

    @pytest.mark.parametrize("kwargs", [
        {"job_timeout_s": 0.0},
        {"job_timeout_s": -5.0},
        {"heartbeat_timeout_s": -1.0},
    ])
    def test_non_positive_timeouts_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SupervisionConfig(**kwargs)

    def test_none_disables_a_check(self):
        config = SupervisionConfig(job_timeout_s=None,
                                   heartbeat_timeout_s=None)
        assert config.job_timeout_s is None
        assert config.heartbeat_timeout_s is None

