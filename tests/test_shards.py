"""Tests for the sharded on-disk series store (repro.shards).

The sharded store is the city-tier backbone: every byte the streaming
sink writes comes back through these maps, so the read path must both
round-trip bit-identically and refuse every plausible corruption —
truncated shards, missing shards, dtype/shape drift, and entries left
behind by a process killed mid-write.
"""

from __future__ import annotations

import hashlib
import io
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cache import ArtifactCache
from repro.config import Scenario
from repro.errors import TraceError
from repro.shards import (
    DEFAULT_SHARD_ROWS,
    WINDOW_BYTES,
    ShardedSeriesMap,
    ShardLayout,
    ShardWriter,
    load_sharded_series,
    read_shard_index,
    shard_path,
    write_shard_index,
)

SCENARIO = Scenario.smoke_scale()


def _write_store(root, rows=10, points=16, shard_rows=4, kind="cpu"):
    """A small deterministic store: returns (order, full_matrix)."""
    rng = np.random.default_rng(99)
    data = rng.random((rows, points)).astype(np.float32)
    writer = ShardWriter(root, kind, points, shard_rows=shard_rows)
    # Append in uneven blocks to exercise the buffer split logic.
    writer.append(data[:3])
    writer.append(data[3:3])  # empty block is a no-op
    writer.append(data[3:])
    layout = writer.finalize()
    write_shard_index(root, [layout])
    order = [f"vm{i:04d}" for i in range(rows)]
    return order, data


class TestShardWriter:
    def test_layout_and_files(self, tmp_path):
        _write_store(tmp_path, rows=10, shard_rows=4)
        layout = read_shard_index(tmp_path)["cpu"]
        assert layout == ShardLayout(kind="cpu", rows=10, points=16,
                                     shard_rows=4,
                                     checksums=layout.checksums)
        assert layout.n_shards == 3
        assert layout.shard_extent(2) == (8, 10)
        # One payload checksum per shard survives the index round-trip.
        assert len(layout.checksums) == 3
        assert all(len(c) == 64 for c in layout.checksums)
        for shard in range(3):
            assert shard_path(tmp_path, "cpu", shard).exists()

    def test_flush_hook_sees_every_shard(self, tmp_path):
        flushed = []
        writer = ShardWriter(tmp_path, "cpu", 8, shard_rows=4,
                             on_flush=lambda *a: flushed.append(a))
        writer.append(np.zeros((10, 8), dtype=np.float32))
        writer.finalize()
        assert [(s, r) for s, r, _ in flushed] == [(0, 4), (1, 4), (2, 2)]
        assert all(nbytes == r * 8 * 4 for _, r, nbytes in flushed)

    def test_append_after_finalize_rejected(self, tmp_path):
        writer = ShardWriter(tmp_path, "cpu", 8)
        writer.finalize()
        with pytest.raises(TraceError):
            writer.append(np.zeros((1, 8), dtype=np.float32))

    def test_wrong_width_rejected(self, tmp_path):
        writer = ShardWriter(tmp_path, "cpu", 8)
        with pytest.raises(TraceError):
            writer.append(np.zeros((2, 9), dtype=np.float32))

    def test_bad_geometry_rejected(self, tmp_path):
        with pytest.raises(TraceError):
            ShardWriter(tmp_path, "cpu", 0)
        with pytest.raises(TraceError):
            ShardWriter(tmp_path, "cpu", 8, shard_rows=0)


@st.composite
def _jobs_in_shards(draw):
    """Shard height, job sizes (some spanning or outgrowing a shard), and
    the orders in which the jobs are written and then reported."""
    shard_rows = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(1, 3 * shard_rows), min_size=1,
                          max_size=7))
    jobs = range(len(sizes))
    return (shard_rows, sizes, draw(st.permutations(jobs)),
            draw(st.permutations(jobs)))


class TestOffsetWrites:
    """Rows written at their offsets, in any order, seal like np.save."""

    @staticmethod
    def _store(root, shard_rows, sizes, points=3):
        rows = np.random.default_rng(sum(sizes)).random(
            (sum(sizes), points)).astype(np.float32)
        starts = np.cumsum([0] + sizes).tolist()
        sealed = []
        writer = ShardWriter(root, "cpu", points, shard_rows=shard_rows,
                             on_flush=lambda shard, *_: sealed.append(shard))
        return rows, starts, writer, sealed

    @settings(max_examples=60, deadline=None)
    @given(case=_jobs_in_shards())
    def test_sealed_shards_equal_np_save(self, case):
        shard_rows, sizes, write_order, report_order = case
        with tempfile.TemporaryDirectory() as root:
            rows, starts, writer, sealed = self._store(root, shard_rows,
                                                       sizes)
            for job in write_order:
                writer.target.write(starts[job],
                                    rows[starts[job]:starts[job + 1]])
            for job in report_order:
                writer.advance(starts[job], sizes[job])
            layout = writer.finalize()
            assert layout.rows == len(rows)
            assert sealed == list(range(layout.n_shards))
            for shard in range(layout.n_shards):
                start, stop = layout.shard_extent(shard)
                expected = io.BytesIO()
                np.save(expected, rows[start:stop])
                assert (shard_path(root, "cpu", shard).read_bytes()
                        == expected.getvalue())
                assert layout.checksums[shard] == hashlib.sha256(
                    rows[start:stop].tobytes()).hexdigest()

    @settings(max_examples=30, deadline=None)
    @given(case=_jobs_in_shards(), data=st.data())
    def test_shard_with_missing_rows_refuses_to_seal(self, case, data):
        shard_rows, sizes, write_order, _ = case
        if len(sizes) < 2:
            sizes = sizes + [1]
            write_order = [*write_order, len(sizes) - 1]
        # Any job but the last leaves a hole below rows reported later.
        missing = data.draw(st.integers(0, len(sizes) - 2))
        with tempfile.TemporaryDirectory() as root:
            rows, starts, writer, _ = self._store(root, shard_rows, sizes)
            for job in write_order:
                if job != missing:
                    writer.target.write(starts[job],
                                        rows[starts[job]:starts[job + 1]])
                    writer.advance(starts[job], sizes[job])
            with pytest.raises(TraceError, match="rows written"):
                writer.finalize()

    def test_rows_reported_twice_rejected(self, tmp_path):
        writer = ShardWriter(tmp_path, "cpu", 2, shard_rows=4)
        writer.target.write(0, np.zeros((3, 2), dtype=np.float32))
        writer.advance(0, 3)
        with pytest.raises(TraceError, match="twice"):
            writer.advance(2, 2)


class TestShardedSeriesMap:
    def test_round_trip_bit_identical(self, tmp_path):
        order, data = _write_store(tmp_path)
        series = load_sharded_series(tmp_path, {"cpu": order})["cpu"]
        assert list(series) == order
        assert len(series) == len(order)
        for i, vm_id in enumerate(order):
            assert vm_id in series
            assert np.array_equal(series[vm_id], data[i])

    def test_rows_are_fresh_reads_of_the_stored_bytes(self, tmp_path):
        """A row is read from its shard into an array of its own."""
        order, _ = _write_store(tmp_path)
        series = load_sharded_series(tmp_path, {"cpu": order})["cpu"]
        first, again = series[order[5]], series[order[5]]
        # Row 5 is row 1 of shard 1 at four rows per shard.
        stored = np.load(shard_path(tmp_path, "cpu", 1))[1]
        assert first.tobytes() == stored.tobytes()
        assert not np.shares_memory(first, again)
        assert not first.flags.writeable

    def test_iter_windows_covers_in_order(self, tmp_path):
        order, data = _write_store(tmp_path, rows=10, shard_rows=4)
        series = load_sharded_series(tmp_path, {"cpu": order})["cpu"]
        seen_ids, seen_rows = [], []
        for vm_ids, window in series.iter_windows(rows=3):
            # Windows are bounded and never cross a shard boundary.
            assert window.shape[0] <= 3
            seen_ids.extend(vm_ids)
            seen_rows.append(np.asarray(window))
        assert seen_ids == order
        assert np.array_equal(np.concatenate(seen_rows), data)

    def test_window_rows_must_be_positive(self, tmp_path):
        order, _ = _write_store(tmp_path)
        series = load_sharded_series(tmp_path, {"cpu": order})["cpu"]
        with pytest.raises(TraceError):
            list(series.iter_windows(rows=0))

    def test_order_length_must_match_rows(self, tmp_path):
        order, _ = _write_store(tmp_path)
        with pytest.raises(TraceError):
            load_sharded_series(tmp_path, {"cpu": order[:-1]})

    def test_index_kinds_must_match_orders(self, tmp_path):
        order, _ = _write_store(tmp_path)
        with pytest.raises(TraceError):
            load_sharded_series(tmp_path, {"cpu": order, "bw": order})


class TestCorruptionDetection:
    """The verification quartet: every broken store is a TraceError."""

    def test_truncated_shard(self, tmp_path):
        order, _ = _write_store(tmp_path)
        victim = shard_path(tmp_path, "cpu", 1)
        payload = victim.read_bytes()
        victim.write_bytes(payload[:len(payload) - 7])
        with pytest.raises(TraceError, match="truncated|bytes"):
            load_sharded_series(tmp_path, {"cpu": order})

    def test_missing_shard(self, tmp_path):
        order, _ = _write_store(tmp_path)
        shard_path(tmp_path, "cpu", 2).unlink()
        with pytest.raises(TraceError, match="missing shard"):
            load_sharded_series(tmp_path, {"cpu": order})

    def test_dtype_mismatch(self, tmp_path):
        order, _ = _write_store(tmp_path)
        np.save(shard_path(tmp_path, "cpu", 0),
                np.zeros((4, 16), dtype=np.float64))
        with pytest.raises(TraceError, match="dtype"):
            load_sharded_series(tmp_path, {"cpu": order})

    def test_shape_header_mismatch(self, tmp_path):
        order, _ = _write_store(tmp_path)
        np.save(shard_path(tmp_path, "cpu", 0),
                np.zeros((5, 16), dtype=np.float32))
        with pytest.raises(TraceError, match="shape"):
            load_sharded_series(tmp_path, {"cpu": order})

    def test_missing_index(self, tmp_path):
        with pytest.raises(TraceError, match="no shard index"):
            read_shard_index(tmp_path)

    def test_malformed_index(self, tmp_path):
        (tmp_path / "shards.json").write_text('{"series": {"cpu": {}}}')
        with pytest.raises(TraceError, match="malformed"):
            read_shard_index(tmp_path)

    def test_verify_can_be_deferred(self, tmp_path):
        order, _ = _write_store(tmp_path)
        layout = read_shard_index(tmp_path)["cpu"]
        shard_path(tmp_path, "cpu", 2).unlink()
        series = ShardedSeriesMap(tmp_path, layout, order, verify=False)
        with pytest.raises(TraceError):
            series.verify()


def _child(script: str, *args: object) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this ``repro``."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", script,
                           *map(str, args)],
                          env=env, capture_output=True, text=True)


#: Opens a 10-row store and reads row 4 (shard 1's first row), then
#: halves shard 1 under the open map and reads row 7 (``row``) or every
#: window (``windows``) from it.
_TRUNCATED_READ = """
import os, sys
from repro.errors import TraceError
from repro.shards import load_sharded_series, shard_path
root, read = sys.argv[1], sys.argv[2]
order = [f"vm{i}" for i in range(10)]
series = load_sharded_series(root, {"cpu": order})["cpu"]
series["vm4"]
path = shard_path(root, "cpu", 1)
os.truncate(path, os.path.getsize(path) // 2)
try:
    if read == "row":
        series["vm7"].sum()
    else:
        [window.sum() for _, window in series.iter_windows()]
except TraceError as exc:
    print(exc)
    sys.exit(3)
"""


class TestReadsAfterLoad:
    """Reads past a shard truncated after load fail as TraceError.

    Each read runs in a child, so a regression to a memory-mapped read,
    which dies with SIGBUS there, fails the test instead of pytest.
    """

    @pytest.mark.parametrize("read", ["row", "windows"])
    def test_truncated_shard_raises_trace_error(self, tmp_path, read):
        # 8 KiB rows: half of shard 1 is whole pages past the new end.
        _write_store(tmp_path, points=2048)
        child = _child(_TRUNCATED_READ, tmp_path, read)
        assert child.returncode == 3, (child.returncode, child.stderr)
        assert "shard-00001.npy" in child.stdout


#: How far (MiB) one ``cpu_row_stats`` pass over a store takes the
#: peak RSS (VmHWM) above the RSS (VmRSS) the pass starts from.
_SCAN_PEAK_GROWTH = """
import json, sys
from repro.core.chunks import cpu_row_stats
from repro.shards import load_sharded_series, read_shard_index
def status(field):
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024
root = sys.argv[1]
rows = read_shard_index(root)["cpu"].rows
series = load_sharded_series(root, {"cpu": [str(i) for i in range(rows)]})
before = status("VmRSS")
cpu_row_stats(series["cpu"])
print(json.dumps(status("VmHWM") - before))
"""


class TestScanMemory:
    #: 1536 rows of 16 384 float32 points: 96 MiB over two shards, twelve
    #: window budgets.
    ROWS, POINTS = 1536, 16_384

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads VmRSS/VmHWM from /proc")
    def test_scan_grows_peak_rss_by_less_than_half_the_store(self,
                                                            tmp_path):
        writer = ShardWriter(tmp_path, "cpu", self.POINTS)
        rng = np.random.default_rng(5)
        for _ in range(0, self.ROWS, 128):
            writer.append(rng.random((128, self.POINTS), dtype=np.float32))
        write_shard_index(tmp_path, [writer.finalize()])
        store_mb = self.ROWS * self.POINTS * 4 / (1 << 20)
        assert store_mb >= 12 * WINDOW_BYTES / (1 << 20)
        child = _child(_SCAN_PEAK_GROWTH, tmp_path)
        assert child.returncode == 0, child.stderr
        # Reading this store through 1024-row memory-mapped windows took
        # the peak 129 MiB above the start; 8 MiB windows take it 17 MiB.
        assert json.loads(child.stdout) < store_mb / 2


def _stream_bomb(root: str) -> None:
    """SIGKILL this process while a sharded cache entry is mid-write."""
    from repro.workload.streaming import WorkloadSink, write_block

    cache = ArtifactCache(root)
    sink = WorkloadSink.for_cache(cache, "workload_nep", SCENARIO,
                                  shard_rows=2)
    sink.begin(cpu_points=16, bw_points=16, private=False)
    block = type("B", (), {})()
    block.app_id = "bomb"
    block.cpu_rows = np.full((3, 16), 0.5, dtype=np.float32)
    block.bw_rows = np.ones((3, 16), dtype=np.float32)
    block.private_rows = None
    write_block(sink.targets, 0, block)
    sink.consume(["vm0", "vm1", "vm2"], block)  # seals shard 0
    os.kill(os.getpid(), signal.SIGKILL)


class TestCrashMidShardWrite:
    def test_kill_leaves_no_loadable_entry(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        proc = multiprocessing.get_context("fork").Process(
            target=_stream_bomb, args=(str(cache.root),))
        proc.start()
        proc.join(timeout=60)
        assert proc.exitcode == -signal.SIGKILL
        # The half-written sharded store never left staging: a miss,
        # zero complete entries, and `clear` sweeps the staging debris.
        assert cache.get_workload("workload_nep", SCENARIO) is None
        assert cache.entries() == []
        staging = list(cache.root.glob(".tmp-*"))
        assert staging, "expected the partial stream to leave a staging dir"
        assert any(p.name.startswith("shard-")
                   for s in staging for p in s.rglob("*.npy"))
        cache.clear()
        assert not list(cache.root.glob(".tmp-*"))


class TestShardedCacheEntries:
    def test_entries_report_shard_counts(self, tmp_path):
        from repro.workload.generator import generate_nep_workload
        from repro.workload.streaming import WorkloadSink

        cache = ArtifactCache(tmp_path / "cache")
        sink = WorkloadSink.for_cache(cache, "workload_nep", SCENARIO,
                                      shard_rows=8)
        generate_nep_workload(SCENARIO, sink=sink)
        entry = cache.entries()[0]
        assert entry.kind == "workload"
        assert entry.shards > 0
        on_disk = sum(1 for _ in entry.path.rglob("shard-*.npy"))
        assert entry.shards == on_disk
        info = cache.info()
        assert info["sharded_entries"] == 1
        assert info["shard_files"] == entry.shards
        assert info["bytes"] == entry.bytes > 0

    def test_corrupt_shard_evicts_entry(self, tmp_path):
        from repro.workload.generator import generate_nep_workload
        from repro.workload.streaming import WorkloadSink

        cache = ArtifactCache(tmp_path / "cache")
        sink = WorkloadSink.for_cache(cache, "workload_nep", SCENARIO,
                                      shard_rows=8)
        generate_nep_workload(SCENARIO, sink=sink)
        entry = cache.entries()[0]
        victim = next(iter(entry.path.rglob("shard-00000.npy")))
        payload = victim.read_bytes()
        victim.write_bytes(payload[:len(payload) // 2])
        assert cache.get_workload("workload_nep", SCENARIO) is None
        assert cache.entries() == []
