"""Tests for the seasonal pattern library."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.workload.patterns import (
    PATTERNS,
    ar1_noise_batch,
    pattern,
    regime_switching_levels,
    time_axis_minutes,
)

WEEK = time_axis_minutes(7, 5)


class TestTimeAxis:
    def test_length(self):
        axis = time_axis_minutes(2, 5)
        assert axis.size == 2 * 24 * 60 // 5

    def test_spacing(self):
        axis = time_axis_minutes(1, 15)
        assert np.all(np.diff(axis) == 15)

    def test_bad_args_rejected(self):
        with pytest.raises(ConfigurationError):
            time_axis_minutes(0, 5)
        with pytest.raises(ConfigurationError):
            time_axis_minutes(1, 0)


class TestPatterns:
    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_normalised_to_unit_mean(self, name):
        curve = pattern(name)(WEEK)
        assert curve.mean() == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_non_negative(self, name):
        assert (pattern(name)(WEEK) >= 0).all()

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ConfigurationError):
            pattern("full_moon")

    def test_evening_peak_location(self):
        # Entertainment traffic peaks around 21:00.
        day = time_axis_minutes(1, 5)
        curve = pattern("evening_entertainment")(day)
        peak_hour = (day[np.argmax(curve)] % (24 * 60)) / 60
        assert 19 <= peak_hour <= 23

    def test_school_peak_in_morning_classes(self):
        # §4.5: the education app peaks 9:00-12:00.
        day = time_axis_minutes(1, 5)
        curve = pattern("school_hours")(day)
        peak_hour = (day[np.argmax(curve)] % (24 * 60)) / 60
        assert 9 <= peak_hour <= 12

    def test_school_weekends_quieter(self):
        curve = pattern("school_hours")(WEEK)
        per_day = curve.reshape(7, -1).mean(axis=1)
        assert per_day[5:].mean() < per_day[:5].mean()

    def test_flat_is_constant(self):
        assert np.ptp(pattern("flat")(WEEK)) == 0.0

    def test_cloud_batch_weak_seasonality(self):
        # Cloud workloads swing far less than edge video traffic.
        batch = pattern("cloud_batch")(WEEK)
        video = pattern("evening_entertainment")(WEEK)
        assert batch.std() < video.std()


class TestRegimeSwitching:
    def test_levels_within_bounds(self, rng):
        levels = regime_switching_levels(1, 5000, rng, low=0.2, high=2.5)
        assert levels.min() >= 0.2 and levels.max() <= 2.5

    def test_piecewise_constant(self, rng):
        levels = regime_switching_levels(1, 5000, rng,
                                         switch_probability=0.002)[0]
        changes = np.count_nonzero(np.diff(levels))
        assert changes < 50  # few switches, long holds

    def test_switches_do_happen(self, rng):
        levels = regime_switching_levels(1, 20_000, rng,
                                         switch_probability=0.01)
        assert np.unique(levels).size > 3

    def test_bad_probability_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            regime_switching_levels(1, 100, rng, switch_probability=0.0)

    @given(st.integers(min_value=10, max_value=2000))
    @settings(max_examples=30, deadline=None)
    def test_output_length(self, points):
        levels = regime_switching_levels(1, points, np.random.default_rng(1))
        assert levels.shape == (1, points)


class TestAr1Noise:
    def test_centred_on_one(self, rng):
        noise = ar1_noise_batch(1, 50_000, rng, rho=0.9, sigma=0.2)
        assert noise.mean() == pytest.approx(1.0, abs=0.05)

    def test_floored(self, rng):
        noise = ar1_noise_batch(1, 50_000, rng, rho=0.5, sigma=1.0)
        assert noise.min() >= 0.05

    def test_autocorrelated(self, rng):
        noise = ar1_noise_batch(1, 20_000, rng, rho=0.95, sigma=0.2)[0]
        lag1 = np.corrcoef(noise[:-1], noise[1:])[0, 1]
        assert lag1 > 0.7

    def test_sigma_controls_spread(self, rng):
        calm = ar1_noise_batch(1, 20_000, np.random.default_rng(1),
                               sigma=0.05)
        wild = ar1_noise_batch(1, 20_000, np.random.default_rng(1),
                               sigma=0.4)
        assert calm.std() < wild.std()

    def test_bad_rho_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            ar1_noise_batch(1, 100, rng, rho=1.0)
