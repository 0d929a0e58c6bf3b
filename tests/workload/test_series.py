"""Tests for CPU and bandwidth series generators."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workload.apps import NEP_PROFILES, profiles_by_category
from repro.workload.bandwidth import (
    derive_private_series_batch,
    generate_bw_series_batch,
    peak_to_mean_ratio,
)
from repro.workload.cpu import generate_cpu_series_batch
from repro.workload.patterns import time_axis_minutes

PROFILES = profiles_by_category(NEP_PROFILES)
MINUTES = time_axis_minutes(14, 5)


class TestCpuSeries:
    def test_bounded_in_unit_interval(self, rng):
        series = generate_cpu_series_batch(PROFILES["live_streaming"], [0.3],
                                           MINUTES, rng)[0]
        assert series.min() >= 0.0 and series.max() <= 1.0

    def test_mean_tracks_target(self, rng):
        series = generate_cpu_series_batch(PROFILES["video_surveillance"],
                                           [0.2], MINUTES, rng)[0]
        assert series.mean() == pytest.approx(0.2, rel=0.3)

    def test_length_matches_axis(self, rng):
        series = generate_cpu_series_batch(PROFILES["cdn"], [0.1], MINUTES,
                                           rng)[0]
        assert series.size == MINUTES.size

    def test_bad_level_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            generate_cpu_series_batch(PROFILES["cdn"], [0.0], MINUTES, rng)
        with pytest.raises(ConfigurationError):
            generate_cpu_series_batch(PROFILES["cdn"], [1.5], MINUTES, rng)

    def test_seasonal_profile_has_diurnal_structure(self, rng):
        # A strongly seasonal app shows a clear day/night swing.
        series = generate_cpu_series_batch(PROFILES["cloud_gaming"], [0.3],
                                           MINUTES, rng)[0]
        per_interval = series.reshape(14, -1).mean(axis=0)
        assert per_interval.max() > 1.5 * per_interval.min()

    def test_flat_profile_less_variable_than_seasonal(self, rng):
        flat = generate_cpu_series_batch(PROFILES["video_surveillance"],
                                         [0.3], MINUTES,
                                         np.random.default_rng(1))[0]
        seasonal = generate_cpu_series_batch(PROFILES["cloud_gaming"], [0.3],
                                             MINUTES,
                                             np.random.default_rng(1))[0]
        def cv(x):
            return x.std() / x.mean()
        assert cv(flat) < cv(seasonal)

    def test_bursts_create_tail(self, rng):
        series = generate_cpu_series_batch(PROFILES["live_streaming"], [0.2],
                                           MINUTES, rng)[0]
        assert np.percentile(series, 99.5) > 1.5 * series.mean()


class TestBandwidthSeries:
    def test_non_negative(self, rng):
        series = generate_bw_series_batch(PROFILES["live_streaming"], [50.0],
                                          MINUTES, rng)[0]
        assert series.min() >= 0.0

    def test_mean_tracks_target(self, rng):
        series = generate_bw_series_batch(PROFILES["video_surveillance"],
                                          [30.0], MINUTES, rng)[0]
        assert series.mean() == pytest.approx(30.0, rel=0.35)

    def test_negative_mean_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            generate_bw_series_batch(PROFILES["cdn"], [-1.0], MINUTES, rng)

    def test_erratic_vm_more_variable_weekly(self):
        # Figure 12: regime-switching VMs swing week over week.
        def weekly_cv(erratic):
            rng = np.random.default_rng(42)
            minutes = time_axis_minutes(28, 5)
            series = generate_bw_series_batch(
                PROFILES["cdn"], [50.0], minutes, rng,
                erratic=np.array([erratic]))[0]
            weekly = series.reshape(4, -1).mean(axis=1)
            return weekly.std() / weekly.mean()

        assert weekly_cv(True) > weekly_cv(False)

    def test_video_peak_to_mean_in_paper_band(self, rng):
        # §4.5: most apps' peak/mean bandwidth variance is ~1.5x-4x...
        series = generate_bw_series_batch(PROFILES["live_streaming"], [60.0],
                                          MINUTES, rng)[0]
        assert 1.5 <= peak_to_mean_ratio(series) <= 15.0

    def test_education_peakier_than_surveillance(self, rng):
        edu = generate_bw_series_batch(PROFILES["online_education"], [50.0],
                                       MINUTES, np.random.default_rng(2))[0]
        flat = generate_bw_series_batch(PROFILES["video_surveillance"],
                                        [50.0], MINUTES,
                                        np.random.default_rng(2))[0]
        assert peak_to_mean_ratio(edu) > peak_to_mean_ratio(flat)


class TestPrivateSeries:
    def test_small_fraction_of_public(self, rng):
        public = generate_bw_series_batch(PROFILES["cdn"], [100.0], MINUTES,
                                          rng)
        private = derive_private_series_batch(public, rng)
        assert private.mean() < 0.15 * public.mean()
        assert private.min() >= 0.0

    def test_peak_to_mean_of_zero_series(self):
        assert peak_to_mean_ratio(np.zeros(10)) == 0.0


class TestSeasonCache:
    """Regression: the cache keys on axis *values*, never ``id()``.

    The original implementation keyed on ``(pattern, id(minutes))``;
    object ids are recycled after garbage collection, so a fresh axis
    could silently be served a curve computed for a freed, different
    one — and equal axes rebuilt per call never hit at all.
    """

    def test_equal_axes_hit_regardless_of_identity(self):
        from repro.workload.series import SeasonCache

        cache = SeasonCache()
        first = cache.get("business_hours", time_axis_minutes(14, 5))
        # A distinct-but-equal array (different id) must hit the cache.
        second = cache.get("business_hours", time_axis_minutes(14, 5))
        assert second is first

    def test_different_axes_never_collide(self):
        from repro.workload.series import SeasonCache

        cache = SeasonCache()
        curves = {}
        for days, interval in [(14, 5), (14, 15), (7, 5)]:
            axis = time_axis_minutes(days, interval)
            curve = cache.get("evening_entertainment", axis)
            curves[(days, interval)] = curve
            assert curve.shape == axis.shape
        del axis  # free the last axis: its id may now be recycled
        fresh = cache.get("evening_entertainment", time_axis_minutes(28, 5))
        assert all(fresh is not curve for curve in curves.values())
        assert fresh.size == time_axis_minutes(28, 5).size

    def test_token_is_a_pure_value(self):
        from repro.workload.series import SeasonCache

        a = time_axis_minutes(14, 5)
        b = a.copy()
        assert SeasonCache.axis_token(a) == SeasonCache.axis_token(b)
        assert (SeasonCache.axis_token(a)
                != SeasonCache.axis_token(time_axis_minutes(7, 5)))

    def test_distinct_patterns_distinct_entries(self):
        from repro.workload.series import SeasonCache

        cache = SeasonCache()
        axis = time_axis_minutes(14, 5)
        flat = cache.get("flat", axis)
        busy = cache.get("business_hours", axis)
        assert not np.array_equal(flat, busy)
