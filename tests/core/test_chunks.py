"""Tests for the chunked series reductions (repro.core.chunks).

These pin the bit-identity contract: every chunked helper must return
exactly what the row-at-a-time originals returned, on both backing
stores, or streaming would silently change every §4 figure.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import shards
from repro.core.chunks import (
    RowStats,
    StreamingHistogram,
    block_row_stats,
    cpu_row_stats,
    iter_series_chunks,
    per_vm_means,
    per_vm_totals,
    row_p95,
)
from repro.errors import TraceError
from repro.shards import ShardWriter, load_sharded_series, write_shard_index
from repro.trace.dataset import MINUTES_PER_DAY, TraceDataset


def _dict_series(rows=10, points=64, seed=4):
    rng = np.random.default_rng(seed)
    data = rng.random((rows, points)).astype(np.float32)
    return {f"vm{i:03d}": data[i] for i in range(rows)}


def _sharded_series(tmp_path, series, shard_rows=4):
    order = list(series)
    points = len(next(iter(series.values())))
    writer = ShardWriter(tmp_path, "cpu", points, shard_rows=shard_rows)
    for row in series.values():
        writer.append(row[np.newaxis, :])
    write_shard_index(tmp_path, [writer.finalize()])
    return load_sharded_series(tmp_path, {"cpu": order})["cpu"]


class TestIterSeriesChunks:
    def test_dict_backing_covers_in_order(self):
        series = _dict_series()
        seen = []
        for vm_ids, window in iter_series_chunks(series, rows=3):
            assert window.shape[0] <= 3
            for offset, vm_id in enumerate(vm_ids):
                assert np.array_equal(window[offset], series[vm_id])
                seen.append(vm_id)
        assert seen == list(series)

    def test_sharded_backing_matches_dict(self, tmp_path):
        series = _dict_series()
        sharded = _sharded_series(tmp_path, series)
        flat_dict = [(ids, np.asarray(w).copy())
                     for ids, w in iter_series_chunks(series, rows=4)]
        flat_shard = [(list(ids), np.asarray(w).copy())
                      for ids, w in iter_series_chunks(sharded, rows=4)]
        assert [ids for ids, _ in flat_dict] == [i for i, _ in flat_shard]
        assert np.array_equal(np.concatenate([w for _, w in flat_dict]),
                              np.concatenate([w for _, w in flat_shard]))

    def test_nonpositive_rows_rejected(self):
        with pytest.raises(TraceError):
            list(iter_series_chunks(_dict_series(), rows=0))


class TestReductionBitIdentity:
    """Chunked scalars == the historical row-at-a-time float dance."""

    @pytest.mark.parametrize("rows", [1, 3, 1024])
    def test_per_vm_means(self, rows):
        series = _dict_series()
        means = per_vm_means(series, rows=rows)
        assert means == {vm: float(row.mean()) for vm, row in series.items()}

    @pytest.mark.parametrize("rows", [1, 3, 1024])
    def test_per_vm_totals(self, rows):
        series = _dict_series()
        totals = per_vm_totals(series, rows=rows)
        assert totals == {vm: float(row.sum()) for vm, row in series.items()}

    def test_cpu_row_stats(self):
        series = _dict_series()
        series["vmidle"] = np.zeros(64, dtype=np.float32)  # the CV guard
        means, p95s, cvs = cpu_row_stats(series, rows=4)
        for vm, row in series.items():
            mean = float(row.mean())
            assert means[vm] == mean
            assert p95s[vm] == float(np.percentile(row, 95))
            expected_cv = 0.0 if mean == 0.0 else float(row.std() / mean)
            assert cvs[vm] == expected_cv

    def test_sharded_backing_same_scalars(self, tmp_path):
        series = _dict_series()
        sharded = _sharded_series(tmp_path, series)
        assert per_vm_means(series, rows=4) == per_vm_means(sharded, rows=4)
        assert per_vm_totals(series, rows=4) == per_vm_totals(sharded, rows=4)
        assert cpu_row_stats(series, rows=4) == cpu_row_stats(sharded, rows=4)

    @pytest.mark.parametrize("points", [1, 2])
    def test_cpu_row_stats_match_dataset_scalars(self, tmp_path, points):
        """On a sharded store of 1- and 2-point rows (a p95 rank with
        and without a rank above it), the chunked scalars equal the
        dataset's per-VM accessors."""
        series = _dict_series(rows=7, points=points, seed=points)
        series["vm003"][:] = 0.0  # the CV guard
        dataset = TraceDataset("t", trace_days=1,
                               cpu_interval_minutes=MINUTES_PER_DAY // points,
                               bw_interval_minutes=MINUTES_PER_DAY)
        dataset.attach_series(_sharded_series(tmp_path, series, shard_rows=3),
                              {})
        means, p95s, cvs = cpu_row_stats(dataset.cpu_series, rows=2)
        assert means == {vm: dataset.mean_cpu(vm) for vm in series}
        assert p95s == {vm: dataset.p95_max_cpu(vm) for vm in series}
        assert cvs == {vm: dataset.cpu_cv(vm) for vm in series}

    def test_analyses_use_chunked_path(self, nep_dataset):
        """The shared-dataset smoke trace reduces identically."""
        means = per_vm_means(nep_dataset.cpu_series)
        for vm_id in nep_dataset.vms:
            row = np.asarray(nep_dataset.cpu_series[vm_id])
            assert means[vm_id] == float(row.mean())


@st.composite
def _cpu_windows(draw):
    """A float32 window of CPU-like rows: ties from a small value pool,
    readings clipped to exactly 0 or 1, and NaNs.  No ``-0.0``: a
    signed-zero tie may flip the sign of the result (see ``row_p95``)."""
    rows = draw(st.integers(1, 40))
    points = draw(st.integers(1, 600))
    pool = draw(st.lists(st.floats(0.0, 1.0, width=32).map(abs),
                         min_size=1, max_size=8))
    pool += [0.0, 1.0]
    nan_share = draw(st.sampled_from([0.0, 0.0, 0.001, 0.05, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    window = rng.choice(np.array(pool, dtype=np.float32), size=(rows, points))
    window[rng.random((rows, points)) < nan_share] = np.nan
    return window


class TestRowP95:
    """The single-kth p95 is ``np.percentile(w, 95, axis=1)``, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(_cpu_windows())
    def test_bit_equal_to_percentile(self, window):
        expected = np.percentile(window, 95, axis=1)
        got = row_p95(window)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected, equal_nan=True)
        finite = ~np.isnan(expected)
        assert np.array_equal(got[finite].view(np.uint32),
                              expected[finite].view(np.uint32))

    def test_signed_zero_ties_are_numerically_equal(self):
        rng = np.random.default_rng(2)
        window = rng.choice(np.array([-0.0, 0.0, 0.5], dtype=np.float32),
                            size=(64, 120), p=[0.45, 0.45, 0.1])
        assert np.array_equal(row_p95(window),
                              np.percentile(window, 95, axis=1))

    def test_read_only_window(self):
        """Sharded windows are read-only arrays."""
        window = np.random.default_rng(1).random((3, 50)).astype(np.float32)
        window.flags.writeable = False
        assert np.array_equal(row_p95(window),
                              np.percentile(window, 95, axis=1))


class TestStreamingHistogram:
    def test_quantile_error_bounded_by_bin_width(self):
        rng = np.random.default_rng(7)
        values = rng.random(20_000).astype(np.float32)
        hist = StreamingHistogram(lo=0.0, hi=1.0, bins=512)
        for chunk in np.array_split(values, 7):
            hist.add(chunk)
        assert hist.count == values.size
        for q in (0.05, 0.5, 0.9, 0.99):
            exact = float(np.quantile(values.astype(np.float64), q))
            assert abs(hist.quantile(q) - exact) <= hist.bin_width

    def test_merge_equals_single_pass(self):
        rng = np.random.default_rng(8)
        values = rng.random(5_000)
        whole = StreamingHistogram(bins=256)
        whole.add(values)
        left, right = StreamingHistogram(bins=256), StreamingHistogram(
            bins=256)
        left.add(values[:2_000])
        right.add(values[2_000:])
        left.merge(right)
        assert np.array_equal(left.counts, whole.counts)
        assert left.quantile(0.5) == whole.quantile(0.5)

    def test_merge_empty_operands(self):
        """Empty-into-full and full-into-empty both leave counts right."""
        full = StreamingHistogram(bins=32)
        full.add(np.linspace(0.0, 1.0, 100))
        before = full.counts.copy()
        full.merge(StreamingHistogram(bins=32))  # empty rhs: no-op
        assert np.array_equal(full.counts, before)
        assert full.count == 100
        empty = StreamingHistogram(bins=32)
        empty.merge(full)  # empty lhs adopts the rhs wholesale
        assert np.array_equal(empty.counts, before)
        assert empty.quantile(0.5) == full.quantile(0.5)
        both = StreamingHistogram(bins=32)
        both.merge(StreamingHistogram(bins=32))
        assert both.count == 0

    def test_single_bin_histogram(self):
        """One bin degenerates gracefully: everything lands in it."""
        hist = StreamingHistogram(lo=0.0, hi=10.0, bins=1)
        hist.add(np.array([-1.0, 3.0, 42.0]))
        assert hist.count == 3
        assert hist.counts.tolist() == [3]
        assert 0.0 <= hist.quantile(0.5) <= 10.0
        other = StreamingHistogram(lo=0.0, hi=10.0, bins=1)
        other.add(np.array([5.0]))
        hist.merge(other)
        assert hist.count == 4

    def test_mismatched_ranges_raise(self):
        """Every geometry axis is checked, not just the bin count."""
        base = StreamingHistogram(lo=0.0, hi=1.0, bins=64)
        with pytest.raises(TraceError):
            base.merge(StreamingHistogram(lo=0.5, hi=1.0, bins=64))
        with pytest.raises(TraceError):
            base.merge(StreamingHistogram(lo=0.0, hi=0.5, bins=64))
        with pytest.raises(TraceError):
            base.merge(StreamingHistogram(lo=-1.0, hi=1.0, bins=64))

    def test_out_of_range_values_clamp_into_edge_bins(self):
        hist = StreamingHistogram(lo=0.0, hi=1.0, bins=10)
        hist.add(np.array([-5.0, 0.05, 2.0]))
        assert hist.counts[0] == 2  # -5.0 clamps down, 0.05 lands there
        assert hist.counts[-1] == 1
        assert hist.count == 3

    def test_geometry_mismatch_rejected(self):
        base = StreamingHistogram(bins=64)
        with pytest.raises(TraceError):
            base.merge(StreamingHistogram(bins=128))
        with pytest.raises(TraceError):
            base.merge(StreamingHistogram(lo=0.0, hi=2.0, bins=64))

    def test_error_cases(self):
        with pytest.raises(TraceError):
            StreamingHistogram(bins=0)
        with pytest.raises(TraceError):
            StreamingHistogram(lo=1.0, hi=1.0)
        hist = StreamingHistogram()
        with pytest.raises(TraceError):
            hist.quantile(0.5)  # empty
        hist.add(np.array([0.5]))
        with pytest.raises(TraceError):
            hist.quantile(1.5)

    def test_degenerate_quantiles(self):
        hist = StreamingHistogram(bins=4)
        hist.add(np.array([1.0, 1.0]))  # everything in the top bin
        assert hist.quantile(1.0) <= 1.0
        assert hist.quantile(0.0) >= 0.75


@st.composite
def _rendered_blocks(draw):
    """CPU and bandwidth rows as a render makes them: float32 readings
    from a small pool (ties), CPU clipped to exactly 0 or 1; plus a
    window size in bytes and where a sink's block boundary falls."""
    rows = draw(st.integers(1, 40))
    points = draw(st.integers(1, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = draw(st.lists(st.floats(0.0, 1.0, width=32), min_size=1,
                         max_size=8)) + [0.0, 1.0]
    cpu = rng.choice(np.array(pool, dtype=np.float32), size=(rows, points))
    bw = (cpu * np.float32(draw(st.floats(0.25, 512.0, width=32)))).astype(
        np.float32)
    window_bytes = draw(st.integers(1, rows * points * 4))
    split = draw(st.integers(0, rows))
    return cpu, bw, window_bytes, split


class TestRowStats:
    """Render-time stats equal the chunked helpers, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(_rendered_blocks())
    def test_block_stats_equal_the_chunked_helpers(self, drawn):
        cpu, bw, window_bytes, split = drawn
        vm_ids = [f"vm{i:02d}" for i in range(len(cpu))]
        with mock.patch.object(shards, "WINDOW_BYTES", window_bytes):
            blocks = [block_row_stats(cpu[:split], bw[:split]),
                      block_row_stats(cpu[split:], bw[split:])]
        stats = RowStats.of_blocks(vm_ids, blocks)
        cpu_series = dict(zip(vm_ids, cpu))
        bw_series = dict(zip(vm_ids, bw))
        means, p95s, cvs = cpu_row_stats(cpu_series)
        assert stats.cpu_means_by_vm() == means == per_vm_means(cpu_series)
        assert stats.cpu_p95s_by_vm() == p95s
        assert dict(zip(vm_ids, stats.cpu_cv())) == cvs
        assert stats.bw_means_by_vm() == per_vm_means(bw_series)
        assert stats.bw_totals_by_vm() == per_vm_totals(bw_series)
        for name in ("cpu_mean", "cpu_p95", "cpu_std", "bw_mean",
                     "bw_total"):
            assert getattr(stats, name).dtype == np.float32
        assert np.array_equal(stats.cpu_std, cpu.std(axis=1))

    def test_series_pass_equals_block_stats(self, tmp_path):
        cpu = _dict_series(rows=9, points=50, seed=1)
        bw = _dict_series(rows=9, points=25, seed=2)
        sharded = _sharded_series(tmp_path, cpu, shard_rows=4)
        vm_ids = list(cpu)
        block = block_row_stats(np.stack(list(cpu.values())),
                                np.stack(list(bw.values())))
        expected = RowStats.of_blocks(vm_ids, [block])
        for cpu_series in (cpu, sharded):
            got = RowStats.of_series(vm_ids, cpu_series, bw)
            assert got.vm_ids == tuple(vm_ids)
            for name in ("cpu_mean", "cpu_p95", "cpu_std", "bw_mean",
                         "bw_total"):
                assert np.array_equal(getattr(got, name),
                                      getattr(expected, name))

    def test_series_out_of_vm_order_rejected(self):
        cpu = _dict_series(rows=3)
        with pytest.raises(TraceError, match="VM table"):
            RowStats.of_series(list(reversed(cpu)), cpu, cpu)

    def test_blocks_of_other_row_counts_rejected(self):
        block = block_row_stats(np.zeros((2, 4), np.float32),
                                np.zeros((2, 4), np.float32))
        with pytest.raises(TraceError, match="3 VM ids"):
            RowStats.of_blocks(["a", "b", "c"], [block])

    def test_no_rows(self):
        stats = RowStats.of_blocks([], [])
        assert stats.cpu_means_by_vm() == {} and stats.cpu_cv() == []
