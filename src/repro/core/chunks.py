"""Chunked reductions over trace series: one pass, bounded memory.

The §4 analyses historically pulled one 1-D row per VM out of
``dataset.cpu_series`` / ``bw_series`` and reduced it in a Python loop.
That shape breaks down out-of-core: a city-scale sharded store serves
rows from shard files, and reading them one VM at a time pays one
system call per row.  This module is the shared bulk path:
:func:`iter_series_chunks` yields bounded ``(vm_ids, rows)`` windows in
trace order from *either* backing store, each at most
:data:`~repro.shards.WINDOW_BYTES`, and the reduction helpers
(:func:`per_vm_means`, :func:`per_vm_totals`, :func:`cpu_row_stats`)
compute per-VM scalars window by window, so a pass holds one window and
its temporaries however large the store is.

Bit-identity contract
---------------------

Streaming must never change results, so every helper reproduces the
exact float semantics of the row-at-a-time originals: reductions run
along ``axis=1`` of a C-contiguous float32 window, which applies the
same pairwise summation per row that a 1-D ``row.mean()`` uses, and
scalar post-processing (the ``float(std / mean)`` CV dance) keeps the
original operand types and order.  The per-row 95th percentile
(:func:`row_p95`) does not call ``np.percentile`` on the window, which
partitions at four ranks and so falls back to numpy's generic
introselect; it selects the one rank ``floor(0.95 * (n - 1))`` with a
single-kth ``np.partition``, takes the next rank as the minimum of the
values above it, and hands that pair to ``np.quantile``, so the same
numpy lerp combines the same two order statistics with the same weight
(up to the sign of a zero where ``-0.0`` and ``0.0`` tie).
``tests/core/test_chunks.py`` pins this equivalence; the golden-digest
suite pins it end to end.

:class:`StreamingHistogram` is the exception that proves the rule: it
is an explicitly *approximate*, mergeable fixed-bin sketch for the
session-scale QoE distributions (:mod:`repro.qoe`), where an exact
answer would require holding every session at once.  Its error is
bounded by one bin width and it is never used for paper-figure
statistics.
"""

from __future__ import annotations

from typing import Iterator, Mapping

import numpy as np

from ..errors import TraceError
from ..shards import window_rows


def iter_series_chunks(series: Mapping[str, np.ndarray],
                       rows: int | None = None,
                       ) -> Iterator[tuple[list[str], np.ndarray]]:
    """Yield ``(vm_ids, rows_2d)`` windows over a series mapping.

    Works on both backing stores: a
    :class:`~repro.shards.ShardedSeriesMap` reads shard-aligned windows
    via its own ``iter_windows``; a plain dict is stacked into windows.
    Either way a window holds as many rows as fit in
    :data:`~repro.shards.WINDOW_BYTES`, capped at ``rows`` when given,
    windows arrive in trace (insertion) order, and each row in a window
    is bit-equal to the mapping's 1-D row.

    Raises:
        TraceError: on a non-positive ``rows``.
    """
    if hasattr(series, "iter_windows"):
        yield from series.iter_windows(rows=rows)
        return
    vm_ids = list(series)
    step = window_rows(series[vm_ids[0]].nbytes if vm_ids else 1, rows)
    for start in range(0, len(vm_ids), step):
        window_ids = vm_ids[start:start + step]
        yield window_ids, np.stack([series[vm_id] for vm_id in window_ids])


def per_vm_means(series: Mapping[str, np.ndarray],
                 rows: int | None = None) -> dict[str, float]:
    """Per-VM mean of every row, as ``float(row.mean())`` would give."""
    means: dict[str, float] = {}
    for vm_ids, window in iter_series_chunks(series, rows=rows):
        row_means = window.mean(axis=1)
        for offset, vm_id in enumerate(vm_ids):
            means[vm_id] = float(row_means[offset])
    return means


def per_vm_totals(series: Mapping[str, np.ndarray],
                  rows: int | None = None) -> dict[str, float]:
    """Per-VM sum of every row, as ``float(row.sum())`` would give."""
    totals: dict[str, float] = {}
    for vm_ids, window in iter_series_chunks(series, rows=rows):
        row_totals = window.sum(axis=1)
        for offset, vm_id in enumerate(vm_ids):
            totals[vm_id] = float(row_totals[offset])
    return totals


def row_p95(window: np.ndarray) -> np.ndarray:
    """Per-row 95th percentile, bit-equal to ``np.percentile(window, 95,
    axis=1)``.

    The linear percentile interpolates between the order statistics at
    ranks ``k = floor(virtual)`` and ``k + 1``, where ``virtual = (n - 1)
    * 0.95``.  One single-kth partition puts rank ``k`` in place and
    every larger value after it, so rank ``k + 1`` is the minimum of
    that tail (or rank ``k`` itself when it is the last).  A NaN sorts
    last and propagates through the minimum and the lerp, so a row
    holding one comes out NaN as it does from ``np.percentile``.  The
    one bit that can differ is the sign of a zero result from a row
    where ``-0.0`` and ``0.0`` tie, since the two selections may pick
    either; rendered CPU series hold no negative zeros.
    """
    n = window.shape[1]
    virtual = (n - 1) * (95 / 100)
    k = int(virtual)
    part = np.partition(window, k, axis=1)
    lo = part[:, k]
    hi = part[:, k + 1:].min(axis=1) if k + 1 < n else lo
    return np.quantile(np.stack([lo, hi], axis=1), virtual - k, axis=1)


def cpu_row_stats(series: Mapping[str, np.ndarray],
                  rows: int | None = None,
                  ) -> tuple[dict[str, float], dict[str, float],
                             dict[str, float]]:
    """Per-VM ``(mean, p95, cv)`` of the CPU rows in one chunked pass.

    Replicates :meth:`TraceDataset.mean_cpu
    <repro.trace.dataset.TraceDataset.mean_cpu>`, ``p95_max_cpu`` and
    ``cpu_cv`` exactly — including the float32-std-over-python-float
    division of the CV and its ``mean == 0`` guard.
    """
    means: dict[str, float] = {}
    p95s: dict[str, float] = {}
    cvs: dict[str, float] = {}
    for vm_ids, window in iter_series_chunks(series, rows=rows):
        row_means = window.mean(axis=1)
        row_p95s = row_p95(window)
        row_stds = window.std(axis=1)
        for offset, vm_id in enumerate(vm_ids):
            mean = float(row_means[offset])
            means[vm_id] = mean
            p95s[vm_id] = float(row_p95s[offset])
            cvs[vm_id] = (0.0 if mean == 0.0
                          else float(row_stds[offset] / mean))
    return means, p95s, cvs


class StreamingHistogram:
    """A mergeable fixed-bin histogram for approximate quantiles.

    Covers ``[lo, hi]`` with ``bins`` equal-width bins (values outside
    are clamped into the edge bins).  Partial histograms built over
    disjoint chunks — or in different processes — merge by adding
    counts, so a platform-wide quantile over half a terabyte of
    readings needs ``bins`` integers of state.  :meth:`quantile`
    interpolates linearly inside the selected bin; the absolute error
    is at most one bin width, i.e. ``(hi - lo) / bins``.
    """

    def __init__(self, lo: float = 0.0, hi: float = 1.0,
                 bins: int = 4096) -> None:
        if bins <= 0:
            raise TraceError(f"bins must be positive, got {bins}")
        if not hi > lo:
            raise TraceError(f"empty histogram range [{lo}, {hi}]")
        self.lo = float(lo)
        self.hi = float(hi)
        self.bins = int(bins)
        self.counts = np.zeros(self.bins, dtype=np.int64)

    @property
    def count(self) -> int:
        """Total number of values added."""
        return int(self.counts.sum())

    @property
    def bin_width(self) -> float:
        return (self.hi - self.lo) / self.bins

    def add(self, values: np.ndarray) -> None:
        """Fold an array of readings (any shape) into the histogram."""
        data = np.asarray(values).ravel()
        if data.size == 0:
            return
        scaled = (data.astype(np.float64) - self.lo) / (self.hi - self.lo)
        indexes = np.clip((scaled * self.bins).astype(np.int64),
                          0, self.bins - 1)
        self.counts += np.bincount(indexes, minlength=self.bins)

    def merge(self, other: "StreamingHistogram") -> None:
        """Add another sketch's counts; geometries must match.

        Raises:
            TraceError: on mismatched range or bin count.
        """
        if (other.lo, other.hi, other.bins) != (self.lo, self.hi, self.bins):
            raise TraceError(
                "cannot merge histograms with different geometry: "
                f"[{self.lo}, {self.hi}]/{self.bins} vs "
                f"[{other.lo}, {other.hi}]/{other.bins}")
        self.counts += other.counts

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (``0 <= q <= 1``) of the values.

        Raises:
            TraceError: on an out-of-range ``q`` or an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise TraceError(f"quantile must be in [0, 1], got {q}")
        total = self.count
        if total == 0:
            raise TraceError("quantile of an empty histogram")
        target = q * total
        cumulative = np.cumsum(self.counts)
        bin_index = int(np.searchsorted(cumulative, target))
        if bin_index >= self.bins:
            return self.hi
        # A target landing in a run of empty bins (e.g. q=0 with all
        # mass far above lo) must report from the first occupied bin,
        # or the one-bin-width error bound would not hold.
        while bin_index < self.bins - 1 and not self.counts[bin_index]:
            bin_index += 1
        below = int(cumulative[bin_index - 1]) if bin_index else 0
        inside = int(self.counts[bin_index])
        fraction = ((target - below) / inside) if inside else 0.0
        return self.lo + (bin_index + fraction) * self.bin_width
