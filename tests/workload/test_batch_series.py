"""Tests for the batched (n_vms, n_ticks) series generators."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workload.apps import NEP_PROFILES, profiles_by_category
from repro.workload.bandwidth import (
    derive_private_series_batch,
    generate_bw_series_batch,
)
from repro.workload.cpu import generate_cpu_series_batch
from repro.workload.patterns import (
    ar1_noise_batch,
    regime_switching_levels,
    time_axis_minutes,
)

WEEK = time_axis_minutes(7, 5)
PROFILE = profiles_by_category(NEP_PROFILES)["live_streaming"]


class TestPatternBatches:
    def test_ar1_batch_shape(self, rng):
        noise = ar1_noise_batch(5, 200, rng)
        assert noise.shape == (5, 200)
        assert (noise >= 0.05).all()

    def test_ar1_batch_rows_independent(self, rng):
        noise = ar1_noise_batch(2, 4000, rng)
        correlation = np.corrcoef(noise[0], noise[1])[0, 1]
        assert abs(correlation) < 0.1

    def test_ar1_scalar_is_batch_row(self):
        # A one-row draw is the first row of a wider batch: the
        # innovations fill row by row from one normal draw.
        single = ar1_noise_batch(1, 300, np.random.default_rng(9))
        batch = ar1_noise_batch(3, 300, np.random.default_rng(9))
        np.testing.assert_allclose(single[0], batch[0])

    def test_regime_levels_shape_and_bounds(self, rng):
        levels = regime_switching_levels(6, 500, rng, low=0.2, high=2.5)
        assert levels.shape == (6, 500)
        assert (levels >= 0.2).all() and (levels <= 2.5).all()

    def test_regime_levels_piecewise_constant_per_row(self, rng):
        levels = regime_switching_levels(4, 2000, rng,
                                         switch_probability=0.01)
        for row in levels:
            # Few distinct values per row, each held over a long stretch.
            assert len(np.unique(row)) < 60

    def test_regime_levels_rows_differ(self, rng):
        levels = regime_switching_levels(2, 1000, rng)
        assert not np.array_equal(levels[0], levels[1])

    def test_bad_count_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            ar1_noise_batch(0, 100, rng)
        with pytest.raises(ConfigurationError):
            regime_switching_levels(0, 100, rng)


class TestCpuBatch:
    def test_shape_and_bounds(self, rng):
        levels = np.array([0.1, 0.4, 0.8])
        series = generate_cpu_series_batch(PROFILE, levels, WEEK, rng)
        assert series.shape == (3, WEEK.size)
        assert (series >= 0).all() and (series <= 1).all()

    def test_rows_track_their_levels(self, rng):
        levels = np.array([0.1, 0.5])
        series = generate_cpu_series_batch(PROFILE, levels, WEEK, rng)
        assert series[0].mean() == pytest.approx(0.1, rel=0.25)
        assert series[1].mean() == pytest.approx(0.5, rel=0.25)

    def test_matches_scalar_distribution(self):
        """A one-row series and a fleet agree in mean within tolerance."""
        scalar = generate_cpu_series_batch(PROFILE, [0.3], WEEK,
                                           np.random.default_rng(21))
        batch = generate_cpu_series_batch(PROFILE, np.full(8, 0.3), WEEK,
                                          np.random.default_rng(22))
        assert batch.mean() == pytest.approx(scalar.mean(), rel=0.15)

    def test_bad_level_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            generate_cpu_series_batch(PROFILE, np.array([0.5, 1.5]), WEEK,
                                      rng)
        with pytest.raises(ConfigurationError):
            generate_cpu_series_batch(PROFILE, np.array([]), WEEK, rng)


class TestBandwidthBatch:
    def test_shape_and_sign(self, rng):
        means = np.array([5.0, 50.0])
        series = generate_bw_series_batch(PROFILE, means, WEEK, rng)
        assert series.shape == (2, WEEK.size)
        assert (series >= 0).all()

    def test_rows_track_their_means(self, rng):
        means = np.array([5.0, 50.0])
        series = generate_bw_series_batch(PROFILE, means, WEEK, rng)
        assert series[1].mean() > series[0].mean() * 5

    def test_matches_scalar_distribution(self):
        scalar = generate_bw_series_batch(PROFILE, [20.0], WEEK,
                                          np.random.default_rng(31))
        batch = generate_bw_series_batch(PROFILE, np.full(8, 20.0), WEEK,
                                         np.random.default_rng(32))
        assert batch.mean() == pytest.approx(scalar.mean(), rel=0.2)

    def test_erratic_rows_more_variable(self, rng):
        means = np.full(16, 20.0)
        erratic = np.zeros(16, dtype=bool)
        erratic[8:] = True
        series = generate_bw_series_batch(PROFILE, means, WEEK, rng,
                                          erratic=erratic)
        calm_cv = np.mean([row.std() / row.mean() for row in series[:8]])
        wild_cv = np.mean([row.std() / row.mean() for row in series[8:]])
        assert wild_cv > calm_cv

    def test_private_batch_small_fraction(self, rng):
        public = generate_bw_series_batch(PROFILE, np.full(4, 30.0), WEEK,
                                          rng)
        private = derive_private_series_batch(public, rng)
        assert private.shape == public.shape
        assert private.mean() < public.mean()
