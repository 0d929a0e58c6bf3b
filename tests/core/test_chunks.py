"""Tests for the chunked series reductions (repro.core.chunks).

These pin the bit-identity contract: every chunked helper must return
exactly what the row-at-a-time originals returned, on both backing
stores, or streaming would silently change every §4 figure.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.chunks import (
    StreamingHistogram,
    cpu_row_stats,
    iter_series_chunks,
    per_vm_means,
    per_vm_totals,
)
from repro.errors import TraceError
from repro.shards import ShardWriter, load_sharded_series, write_shard_index


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

    def test_analyses_use_chunked_path(self, nep_dataset):
        """The shared-dataset smoke trace reduces identically."""
        means = per_vm_means(nep_dataset.cpu_series)
        for vm_id in nep_dataset.vms:
            row = np.asarray(nep_dataset.cpu_series[vm_id])
            assert means[vm_id] == float(row.mean())


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
