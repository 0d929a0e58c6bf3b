"""Supervised-pool behaviour under injected chaos (repro.parallel).

The contract pinned here: recovery changes *when* work happens, never
*what* it produces.  Every retried/restarted run must yield bit-identical
blocks and a canonical journal equal to a clean run's, with the recovery
story told only through volatile events.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

import repro.parallel as parallel
from repro.config import Scenario
from repro.errors import InjectedFault, ParallelError, QuarantineError
from repro.obs import RunJournal, canonical_events
from repro.parallel import TaskFarm, run_series_jobs
from repro.perf import PerfRegistry
from repro.resilience import RetryPolicy, SupervisionConfig, install, reset
from repro.workload.apps import NEP_PROFILES
from repro.workload.series import NEP_RECIPE, SeriesJob

from ..test_parallel import series_sink

SCENARIO = Scenario.smoke_scale()

#: A patient watchdog with fast, bounded retries for chaos tests.
FAST_RETRY = SupervisionConfig(
    job_timeout_s=60.0, heartbeat_timeout_s=60.0,
    retry=RetryPolicy(max_attempts=3, backoff_s=0.01))


@pytest.fixture(autouse=True)
def _clean_registry():
    reset()
    yield
    reset()


def _jobs(count: int) -> list[SeriesJob]:
    return [SeriesJob(app_id=f"app-{i:03d}",
                      profile=NEP_PROFILES[i % len(NEP_PROFILES)],
                      vm_count=2 + i % 3)
            for i in range(count)]


def _rows(blocks):
    return [(b.app_id, b.cpu_rows.tobytes(), b.bw_rows.tobytes())
            for b in blocks]


def _run(jobs, n_jobs, supervision=FAST_RETRY):
    """One journaled run; returns (rows, journal, perf)."""
    journal = RunJournal(None)
    perf = PerfRegistry(journal=journal)
    blocks = list(run_series_jobs(jobs, SCENARIO, NEP_RECIPE, series_sink(),
                                  n_jobs=n_jobs, perf=perf,
                                  supervision=supervision))
    return _rows(blocks), journal, perf


class TestInjectedRenderFaults:
    def test_serial_retry_is_bit_identical_to_clean(self):
        jobs = _jobs(4)
        clean, clean_journal, _ = _run(jobs, 1)
        install("series.render:nth=1")
        chaotic, chaos_journal, perf = _run(jobs, 1)
        assert chaotic == clean
        retries = [e for e in chaos_journal.events
                   if e["type"] == "job_retry"]
        assert len(retries) == 1
        assert retries[0]["task"] == jobs[0].app_id
        assert "InjectedFault" in retries[0]["error"]
        # Only the accepted render counts: telemetry stays deterministic.
        assert perf.spans["series_render"].calls == len(jobs)
        assert canonical_events(chaos_journal.events) \
            == canonical_events(clean_journal.events)

    def test_pooled_retry_is_bit_identical_to_clean(self):
        jobs = _jobs(6)
        clean, clean_journal, _ = _run(jobs, 2)
        # Each forked worker inherits hit=0, so each fires at most once:
        # between 1 and 2 retries total, all absorbed by the budget.
        install("series.render:nth=1")
        chaotic, chaos_journal, perf = _run(jobs, 2)
        assert chaotic == clean
        retries = [e for e in chaos_journal.events
                   if e["type"] == "job_retry"]
        assert 1 <= len(retries) <= 2
        assert perf.spans["series_render"].calls == len(jobs)
        assert canonical_events(chaos_journal.events) \
            == canonical_events(clean_journal.events)

    def test_serial_quarantine_after_budget(self):
        install("series.render:nth=1,times=99")  # every attempt fails
        with pytest.raises(QuarantineError, match="app-000.*3 attempts"):
            _run(_jobs(3), 1)

    def test_pooled_quarantine_after_budget(self):
        install("series.render:nth=1,times=99")
        with pytest.raises(QuarantineError, match="failed after 3 attempts"):
            _run(_jobs(3), 2)

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_genuine_error_has_one_shape_and_no_retry(self, monkeypatch,
                                                      n_jobs):
        def broken(setup, job):
            raise ValueError(f"bad render {job.app_id}")

        monkeypatch.setattr(parallel, "_render", broken)
        journal = RunJournal(None)
        perf = PerfRegistry(journal=journal)
        with pytest.raises(ParallelError) as info:
            list(run_series_jobs(_jobs(2), SCENARIO, NEP_RECIPE,
                                 series_sink(), n_jobs=n_jobs, perf=perf,
                                 supervision=FAST_RETRY))
        assert type(info.value) is ParallelError
        assert "ValueError: bad render app-00" in str(info.value)
        assert not any(e["type"] in ("job_retry", "job_quarantined")
                       for e in journal.events)

    def test_quarantine_event_precedes_the_raise(self):
        install("series.render:nth=1,times=99")
        journal = RunJournal(None)
        perf = PerfRegistry(journal=journal)
        with pytest.raises(QuarantineError):
            list(run_series_jobs(_jobs(2), SCENARIO, NEP_RECIPE,
                                 series_sink(), n_jobs=1, perf=perf,
                                 supervision=FAST_RETRY))
        quarantined = [e for e in journal.events
                       if e["type"] == "job_quarantined"]
        assert len(quarantined) == 1
        assert quarantined[0]["attempts"] == 3


class TestWorkerDeath:
    def test_killed_worker_restarts_and_output_is_identical(self):
        jobs = _jobs(6)
        clean, clean_journal, _ = _run(jobs, 2)
        install("pool.kill_worker:nth=2,times=1")
        chaotic, chaos_journal, _ = _run(jobs, 2)
        assert chaotic == clean
        restarts = [e for e in chaos_journal.events
                    if e["type"] == "worker_restart"]
        assert len(restarts) == 1
        assert "-9" in restarts[0]["reason"]  # SIGKILL exit code
        assert canonical_events(chaos_journal.events) \
            == canonical_events(clean_journal.events)


class TestWatchdog:
    def test_hung_job_killed_and_retried(self, tmp_path, monkeypatch):
        jobs = _jobs(4)
        clean, _, _ = _run(jobs, 2)
        flag = tmp_path / "hung-once"
        real = parallel._render

        def hang_once(setup, job):
            # Hangs the first attempt of the first job only: the flag
            # file is shared across forked workers, so the retry (and
            # every other job) renders normally.
            if job.app_id == jobs[0].app_id and not flag.exists():
                flag.write_text("hung")
                time.sleep(60)
            return real(setup, job)

        monkeypatch.setattr(parallel, "_render", hang_once)
        supervision = SupervisionConfig(
            job_timeout_s=0.75, heartbeat_timeout_s=60.0,
            retry=RetryPolicy(max_attempts=3, backoff_s=0.01))
        chaotic, journal, _ = _run(jobs, 2, supervision)
        assert chaotic == clean
        restarts = [e for e in journal.events
                    if e["type"] == "worker_restart"]
        assert [e["reason"] for e in restarts] == ["job timeout"]
        assert restarts[0]["task"] == jobs[0].app_id

    def test_wedged_worker_detected_by_stale_heartbeat(self, tmp_path,
                                                       monkeypatch):
        jobs = _jobs(4)
        clean, _, _ = _run(jobs, 2)
        flag = tmp_path / "wedged-once"
        real = parallel._render

        def freeze_once(setup, job):
            if job.app_id == jobs[0].app_id and not flag.exists():
                flag.write_text("frozen")
                # SIGSTOP freezes the whole process, heartbeat thread
                # included -- the job-timeout path cannot see it wedge,
                # only heartbeat staleness can.
                os.kill(os.getpid(), signal.SIGSTOP)
            return real(setup, job)

        monkeypatch.setattr(parallel, "_render", freeze_once)
        supervision = SupervisionConfig(
            job_timeout_s=60.0, heartbeat_timeout_s=1.0,
            retry=RetryPolicy(max_attempts=3, backoff_s=0.01))
        chaotic, journal, _ = _run(jobs, 2, supervision)
        assert chaotic == clean
        restarts = [e for e in journal.events
                    if e["type"] == "worker_restart"]
        assert restarts and restarts[0]["reason"] == "heartbeat stale"


def _flaky_once(flag_path: str) -> str:
    """Fails with an injected fault until its flag file exists.

    The flag lives on disk, so the retry (on whichever worker it lands
    in pooled mode) sees the first attempt happened and succeeds.
    """
    from pathlib import Path

    flag = Path(flag_path)
    if not flag.exists():
        flag.write_text("tried")
        raise InjectedFault("first attempt fails")
    return "recovered"


def _farm_square(value: int) -> int:
    return value * value


class TestTaskFarmRetry:
    def test_serial_injected_fault_retried(self, tmp_path):
        journal = RunJournal(None)
        with TaskFarm(1, journal=journal) as farm:
            farm.submit("flaky", _flaky_once, str(tmp_path / "flag"))
            outcome = farm.next_outcome()
        assert outcome.ok and outcome.value == "recovered"
        retries = [e for e in journal.events if e["type"] == "job_retry"]
        assert len(retries) == 1 and retries[0]["task"] == "flaky"

    def test_pooled_injected_fault_retried(self, tmp_path):
        journal = RunJournal(None)
        with TaskFarm(2, journal=journal) as farm:
            farm.submit("flaky", _flaky_once, str(tmp_path / "flag"))
            farm.submit("plain", _farm_square, 4)
            outcomes = {}
            while farm.outstanding:
                outcome = farm.next_outcome()
                outcomes[outcome.task_id] = outcome
        assert outcomes["flaky"].ok
        assert outcomes["flaky"].value == "recovered"
        assert outcomes["plain"].value == 16
        assert any(e["type"] == "job_retry" for e in journal.events)

    def test_injected_worker_kill_retried_as_restart(self):
        install("pool.kill_worker:nth=1,times=1")
        journal = RunJournal(None)
        with TaskFarm(2, journal=journal) as farm:
            farm.submit("victim", _farm_square, 3)
            outcome = farm.next_outcome()
        assert outcome.ok and outcome.value == 9
        restarts = [e for e in journal.events
                    if e["type"] == "worker_restart"]
        assert len(restarts) == 1
        assert restarts[0]["task"] == "victim"

    def test_genuine_exception_not_retried(self):
        journal = RunJournal(None)
        with TaskFarm(1, journal=journal) as farm:
            farm.submit("boom", _raise_value_error, 1)
            outcome = farm.next_outcome()
        assert not outcome.ok
        assert not any(e["type"] == "job_retry" for e in journal.events)


def _raise_value_error(value: int) -> None:
    raise ValueError(f"genuine bug {value}")
