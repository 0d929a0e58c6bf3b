"""Tests for the task-farm executor and series rendering (repro.parallel)."""

from __future__ import annotations

import multiprocessing
import tempfile
import threading

import numpy as np
import pytest

from repro.config import Scenario
from repro.errors import ConfigurationError, ParallelError, QuarantineError
from repro.obs import RunJournal, canonical_events
from repro.parallel import resolve_jobs, run_series_jobs
from repro.perf import PerfRegistry
from repro.resilience import install, reset
from repro.shards import DEFAULT_SHARD_ROWS
from repro.workload.apps import NEP_PROFILES
from repro.workload.patterns import time_axis_minutes
from repro.workload.series import NEP_RECIPE, SeriesJob
from repro.workload.streaming import WorkloadSink

SCENARIO = Scenario.smoke_scale()


def series_sink(root=None, shard_rows: int = DEFAULT_SHARD_ROWS):
    """A begun spill sink shaped for ``SCENARIO``'s NEP series.

    Without ``root`` it is a temporary spill, removed with the sink.
    """
    def points(interval):
        return time_axis_minutes(SCENARIO.trace_days, interval).size

    sink = WorkloadSink.spill(root, shard_rows=shard_rows)
    sink.begin(points(SCENARIO.cpu_interval_minutes),
               points(SCENARIO.bw_interval_minutes), NEP_RECIPE.private)
    return sink


def _jobs(count: int) -> list[SeriesJob]:
    return [SeriesJob(app_id=f"app-{i:03d}",
                      profile=NEP_PROFILES[i % len(NEP_PROFILES)],
                      vm_count=2 + i % 3)
            for i in range(count)]


class TestResolveJobs:
    def test_explicit_count_passes_through(self):
        assert resolve_jobs(3) == 3

    def test_zero_and_none_mean_all_cores(self):
        import os
        expected = os.cpu_count() or 1
        assert resolve_jobs(0) == expected
        assert resolve_jobs(None) == expected

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_jobs(-1)


def _block_rows(blocks):
    return [(b.app_id, b.cpu_rows.tobytes(), b.bw_rows.tobytes(),
             None if b.private_rows is None else b.private_rows.tobytes())
            for b in blocks]


def _series(jobs, n_jobs, sink=None, **kwargs):
    """``run_series_jobs`` on ``SCENARIO`` into ``sink`` (a fresh
    temporary spill by default)."""
    return run_series_jobs(jobs, SCENARIO, NEP_RECIPE,
                           series_sink() if sink is None else sink,
                           n_jobs=n_jobs, **kwargs)


class TestRunSeriesJobs:
    def test_blocks_arrive_in_submission_order(self):
        jobs = _jobs(6)
        blocks = list(_series(jobs, 3))
        assert [b.app_id for b in blocks] == [j.app_id for j in jobs]

    def test_parallel_rows_match_serial(self):
        jobs = _jobs(5)
        serial = list(_series(jobs, 1))
        parallel = list(_series(jobs, 4))
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.mean_bws, b.mean_bws)
            assert np.array_equal(a.cpu_rows, b.cpu_rows)
            assert np.array_equal(a.bw_rows, b.bw_rows)
            if a.private_rows is not None:
                assert np.array_equal(a.private_rows, b.private_rows)

    def test_worker_perf_merged_into_parent(self):
        jobs = _jobs(4)
        perf = PerfRegistry()
        blocks = list(_series(jobs, 2, perf=perf))
        assert all(block.perf is None for block in blocks)
        assert perf.counters["series_vms"] == sum(j.vm_count for j in jobs)
        assert perf.spans["series_render"].calls == len(jobs)

    def test_single_job_stays_inline(self):
        jobs = _jobs(1)
        perf = PerfRegistry()
        blocks = list(_series(jobs, 8, perf=perf))
        assert len(blocks) == 1
        assert perf.spans["series_render"].calls == 1

    def test_serial_fallback_warns_when_fork_unavailable(self, monkeypatch):
        monkeypatch.setattr("repro.parallel._pool_context", lambda: None)
        jobs = _jobs(3)
        journal = RunJournal(None)
        perf = PerfRegistry(journal=journal)
        blocks = list(_series(jobs, 2, perf=perf))
        serial = list(_series(jobs, 1))
        assert _block_rows(blocks) == _block_rows(serial)
        warning = next(e for e in journal.events if e["type"] == "warning")
        assert "fork" in warning["message"]
        # The fallback still renders in-process: same job_complete trail.
        assert sum(1 for e in journal.events
                   if e["type"] == "job_complete") == len(jobs)


@pytest.fixture
def temp_root(tmp_path, monkeypatch):
    """Point the temp directory at an empty ``tmp_path/tmp``."""
    root = tmp_path / "tmp"
    root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(root))
    return root


class TestSpoolHandoff:
    """Rows reach the parent through the sink's files alone: a render
    leaves no temporary files of its own, and closing it early stops
    its farm."""

    def test_canonical_journal_invariant_across_jobs(self):
        def run(n_jobs):
            journal = RunJournal(None)
            perf = PerfRegistry(journal=journal)
            list(_series(_jobs(4), n_jobs, perf=perf))
            return canonical_events(journal.events)

        assert run(1) == run(2)

    def test_spool_removed_after_run(self, temp_root, tmp_path):
        blocks = list(_series(_jobs(5), 2, series_sink(tmp_path / "sink")))
        assert len(blocks) == 5
        assert not list(temp_root.iterdir())

    def test_spool_removed_when_consumer_stops_early(self, temp_root,
                                                     tmp_path):
        before = set(multiprocessing.active_children())
        blocks = _series(_jobs(6), 2, series_sink(tmp_path / "sink"))
        next(blocks)
        assert set(multiprocessing.active_children()) - before
        blocks.close()
        assert not set(multiprocessing.active_children()) - before
        assert not list(temp_root.iterdir())

    def test_spool_removed_after_worker_kill(self, temp_root, tmp_path):
        jobs = _jobs(6)
        install("pool.kill_worker:nth=2,times=1")
        try:
            survived = list(_series(jobs, 2,
                                    series_sink(tmp_path / "sink")))
        finally:
            reset()
        serial = list(_series(jobs, 1, series_sink(tmp_path / "serial")))
        assert _block_rows(survived) == _block_rows(serial)
        assert not list(temp_root.iterdir())


class TestInPlaceWrites:
    """Tasks write their rows straight into the sink's shard files."""

    @staticmethod
    def _render(root, n_jobs, jobs):
        """Render ``jobs`` into a fresh sink; returns it and the blocks."""
        sink, blocks = series_sink(root, shard_rows=4), []
        for block in _series(jobs, n_jobs, sink):
            sink.consume([f"{block.app_id}-{i}"
                          for i in range(len(block.cpu_rows))], block)
            blocks.append(block)
        return sink, blocks

    def test_inline_and_pooled_write_identical_shards(self, tmp_path):
        jobs = _jobs(7)
        layouts = []
        for n_jobs in (1, 2):
            sink, _ = self._render(tmp_path / str(n_jobs), n_jobs, jobs)
            layouts.append([w.finalize() for w in sink._writers.values()])
        assert layouts[0] == layouts[1]
        assert layouts[0][0].rows == sum(j.vm_count for j in jobs)
        assert all(len(layout.checksums) == layout.n_shards
                   for layout in layouts[0])

    def test_blocks_are_read_only_disk_views(self, tmp_path):
        _, blocks = self._render(tmp_path, 1, _jobs(3))
        # Rows 0-1 lie in shard 0: a memory map of that file.
        assert isinstance(blocks[0].cpu_rows, np.memmap)
        assert not blocks[0].cpu_rows.flags.writeable
        # Rows 2-4 span shards 0 and 1: a copy of both pieces.
        points = blocks[0].cpu_rows.shape[1]
        assert blocks[1].cpu_rows.shape == (3, points)
        assert blocks[1].bw_rows.nbytes == 3 * points * 4


def _square(x):
    return x * x


def _explode(x):
    raise ValueError(f"bad cell {x}")


def _die_silently(_):
    import os
    import signal
    os.kill(os.getpid(), signal.SIGKILL)


def _worker_pid(_):
    import os
    return os.getpid()


def _sleep_then_echo(arg):
    import time
    delay, value = arg
    time.sleep(delay)
    return value


def _always_transient(_):
    raise OSError("disk hiccup")


def _nested_render(n_jobs):
    return _block_rows(_series(_jobs(4), n_jobs))


class TestTaskFarm:
    def test_serial_runs_inline_in_fifo_order(self):
        from repro.parallel import TaskFarm
        with TaskFarm(1) as farm:
            for i in range(3):
                farm.submit(f"t{i}", _square, i)
            seen = []
            while farm.outstanding:
                outcome = farm.next_outcome()
                assert outcome.ok
                seen.append((outcome.task_id, outcome.value))
        assert seen == [("t0", 0), ("t1", 1), ("t2", 4)]

    def test_serial_relays_errors_as_outcomes(self):
        from repro.parallel import TaskFarm
        with TaskFarm(1) as farm:
            farm.submit("boom", _explode, 7)
            outcome = farm.next_outcome()
        assert not outcome.ok
        assert outcome.error == "ValueError: bad cell 7"

    def test_pooled_collects_every_outcome(self):
        from repro.parallel import TaskFarm
        with TaskFarm(2) as farm:
            for i in range(5):
                farm.submit(f"t{i}", _square, i)
            values = {}
            while farm.outstanding:
                outcome = farm.next_outcome()
                assert outcome.ok
                values[outcome.task_id] = outcome.value
        assert values == {f"t{i}": i * i for i in range(5)}

    def test_pooled_relays_worker_exceptions(self):
        from repro.parallel import TaskFarm
        with TaskFarm(2) as farm:
            farm.submit("ok", _square, 3)
            farm.submit("boom", _explode, 9)
            results = {}
            while farm.outstanding:
                outcome = farm.next_outcome()
                results[outcome.task_id] = outcome
        assert results["ok"].ok and results["ok"].value == 9
        assert not results["boom"].ok
        assert "ValueError: bad cell 9" in results["boom"].error

    def test_silently_dead_worker_reported_failed(self):
        from repro.parallel import TaskFarm
        with TaskFarm(2) as farm:
            farm.submit("doomed", _die_silently, None)
            outcome = farm.next_outcome()
        assert not outcome.ok
        assert "worker died without reporting" in outcome.error

    def test_duplicate_outstanding_id_rejected(self):
        from repro.parallel import TaskFarm
        with TaskFarm(1) as farm:
            farm.submit("a", _square, 1)
            with pytest.raises(ConfigurationError, match="already"):
                farm.submit("a", _square, 2)

    def test_next_outcome_without_tasks_rejected(self):
        from repro.parallel import TaskFarm
        with TaskFarm(1) as farm:
            with pytest.raises(ConfigurationError, match="outstanding"):
                farm.next_outcome()

    def test_queue_beyond_worker_count_drains(self):
        from repro.parallel import TaskFarm
        with TaskFarm(2) as farm:
            for i in range(6):
                farm.submit(f"t{i}", _square, i)
            done = sum(1 for _ in iter(
                lambda: farm.next_outcome() if farm.outstanding else None,
                None))
        assert done == 6

    def test_workers_persist_across_tasks(self):
        import os

        from repro.parallel import TaskFarm
        journal = RunJournal(None)
        with TaskFarm(2, journal=journal) as farm:
            for i in range(6):
                farm.submit(f"t{i}", _worker_pid, i)
            pids = set()
            while farm.outstanding:
                pids.add(farm.next_outcome().value)
        assert not any(e["type"] == "worker_restart" for e in journal.events)
        assert 1 <= len(pids) <= 2 and os.getpid() not in pids

    def test_nested_series_farm_matches_inline(self):
        from repro.parallel import TaskFarm
        with TaskFarm(2) as farm:
            farm.submit("nested", _nested_render, 2)
            outcome = farm.next_outcome()
        assert outcome.ok, outcome.error
        assert outcome.value == _nested_render(1)

    @pytest.mark.parametrize("fn, arg", [
        (lambda x: x, 1),
        (_square, threading.Lock()),
    ], ids=["fn", "arg"])
    def test_unpicklable_task_raises_parallel_error(self, fn, arg):
        from repro.parallel import TaskFarm
        with TaskFarm(2) as farm:
            with pytest.raises(ParallelError, match="'unsendable'"):
                farm.submit("unsendable", fn, arg)
            assert farm.outstanding == 0

    def test_oversubscribed_farm_returns_each_task_once(self):
        from repro.parallel import TaskFarm
        with TaskFarm(4) as farm:  # more workers than most CI cores
            for i in range(24):
                farm.submit(f"t{i}", _square, i)
            seen = [farm.next_outcome() for _ in range(24)]
            assert farm.outstanding == 0
        assert sorted((o.task_id, o.value) for o in seen) \
            == sorted((f"t{i}", i * i) for i in range(24))


class TestOrdered:
    def test_pooled_yields_in_submission_order(self, monkeypatch):
        from repro.parallel import TaskFarm
        with TaskFarm(3) as farm:
            finished = []
            next_outcome = farm.next_outcome

            def recording():
                outcome = next_outcome()
                finished.append(outcome.task_id)
                return outcome

            monkeypatch.setattr(farm, "next_outcome", recording)
            tasks = [("slow", (1.0, "a")), ("fast1", (0.0, "b")),
                     ("fast2", (0.0, "c"))]
            values = list(farm.ordered(_sleep_then_echo, tasks))
        assert values == ["a", "b", "c"]
        assert finished[-1] == "slow"

    def test_quarantined_task_raises_quarantine_error(self):
        from repro.parallel import TaskFarm
        from repro.resilience import RetryPolicy, SupervisionConfig
        supervision = SupervisionConfig(
            retry=RetryPolicy(max_attempts=2, backoff_s=0.0))
        with TaskFarm(1, supervision=supervision) as farm:
            with pytest.raises(QuarantineError,
                               match="'flaky'.*2 attempts"):
                list(farm.ordered(_always_transient, [("flaky", None)]))

    def test_genuine_error_raises_parallel_error(self):
        from repro.parallel import TaskFarm
        with TaskFarm(2) as farm:
            values = farm.ordered(_explode, [("t0", 1), ("t1", 2)])
            with pytest.raises(ParallelError,
                               match="ValueError: bad cell") as info:
                list(values)
        assert not isinstance(info.value, QuarantineError)
