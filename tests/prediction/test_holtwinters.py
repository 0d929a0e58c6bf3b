"""Tests for the Holt-Winters forecaster."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PredictionError
from repro.prediction.holtwinters import HoltWinters


def _seasonal_series(days=14, period=48, noise=0.01, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(days * period)
    series = 0.4 + 0.25 * np.sin(2 * np.pi * t / period)
    return np.clip(series + rng.normal(0, noise, t.size), 0, 1)


class TestFitting:
    def test_too_short_rejected(self):
        with pytest.raises(PredictionError):
            HoltWinters(season_length=48).fit(np.zeros(50))

    def test_bad_season_length_rejected(self):
        with pytest.raises(PredictionError):
            HoltWinters(season_length=1)

    def test_grid_search_fills_params(self):
        model = HoltWinters(season_length=48).fit(_seasonal_series())
        assert model.alpha is not None
        assert model.beta is not None
        assert model.gamma is not None

    def test_explicit_params_kept(self):
        model = HoltWinters(season_length=48, alpha=0.3, beta=0.05,
                            gamma=0.2)
        model.fit(_seasonal_series())
        assert (model.alpha, model.beta, model.gamma) == (0.3, 0.05, 0.2)


class TestForecasting:
    def test_forecast_before_fit_rejected(self):
        with pytest.raises(PredictionError):
            HoltWinters(season_length=48).forecast_next()

    def test_update_before_fit_rejected(self):
        with pytest.raises(PredictionError):
            HoltWinters(season_length=48).update(0.5)

    def test_tracks_clean_seasonal_signal(self):
        series = _seasonal_series(noise=0.001)
        train, test = series[:-96], series[-96:]
        model = HoltWinters(season_length=48).fit(train)
        forecasts = model.walk_forward(test)
        rmse = np.sqrt(np.mean((forecasts - test) ** 2))
        assert rmse < 0.02

    def test_seasonal_signal_beats_noise_only_baseline(self):
        series = _seasonal_series(noise=0.02)
        train, test = series[:-96], series[-96:]
        model = HoltWinters(season_length=48).fit(train)
        forecasts = model.walk_forward(test)
        model_rmse = np.sqrt(np.mean((forecasts - test) ** 2))
        naive_rmse = np.sqrt(np.mean((train.mean() - test) ** 2))
        assert model_rmse < naive_rmse

    def test_walk_forward_length(self):
        series = _seasonal_series()
        model = HoltWinters(season_length=48).fit(series[:-20])
        assert model.walk_forward(series[-20:]).shape == (20,)

    def test_constant_series_forecast_constant(self):
        series = np.full(480, 0.3)
        model = HoltWinters(season_length=48).fit(series)
        assert model.forecast_next() == pytest.approx(0.3, abs=0.02)

    def test_update_advances_phase(self):
        model = HoltWinters(season_length=48).fit(_seasonal_series())
        before = model._state.index
        model.update(0.5)
        assert model._state.index == before + 1


def _scalar_grid_search(model, series):
    """The grid search as 36 scalar smoothing passes, in grid order."""
    best = (float("inf"), 0.3, 0.05, 0.2)
    for a in (0.1, 0.3, 0.5, 0.8):
        for b in (0.0, 0.05, 0.1):
            for g in (0.05, 0.2, 0.4):
                sse, _ = model._run(series, a, b, g)
                if sse < best[0]:
                    best = (sse, a, b, g)
    return best[1], best[2], best[3]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestVectorisedGridSearch:
    """One vectorised pass picks what 36 scalar passes pick."""

    @settings(max_examples=60, deadline=None)
    @given(season=st.integers(2, 30), cycles=st.integers(2, 5),
           tail=st.integers(0, 29), seed=st.integers(0, 2**16),
           level=st.sampled_from([1e-6, 1.0, 1e3]))
    def test_matches_scalar_passes(self, season, cycles, tail, seed, level):
        rng = np.random.default_rng(seed)
        series = level * rng.random(season * cycles + tail % season)
        model = HoltWinters(season_length=season)
        assert model._grid_search(series) == _scalar_grid_search(model,
                                                                 series)

    @settings(max_examples=30, deadline=None)
    @given(season=st.integers(2, 12), cycles=st.integers(2, 4),
           value=st.sampled_from([0.0, 0.25, 0.4, 1.0]))
    def test_constant_series_ties(self, season, cycles, value):
        # Many combinations share an SSE here: the first in grid order wins.
        series = np.full(season * cycles, value)
        model = HoltWinters(season_length=season)
        assert model._grid_search(series) == _scalar_grid_search(model,
                                                                 series)

    @settings(max_examples=20, deadline=None)
    @given(season=st.integers(2, 12), seed=st.integers(0, 2**16))
    def test_quantised_series_ties(self, season, seed):
        rng = np.random.default_rng(seed)
        series = np.round(rng.random(3 * season) * 2) / 2
        model = HoltWinters(season_length=season)
        assert model._grid_search(series) == _scalar_grid_search(model,
                                                                 series)

    @settings(max_examples=40, deadline=None)
    @given(season=st.integers(2, 12), seed=st.integers(0, 2**16),
           bad=st.sampled_from([np.nan, np.inf, -np.inf, 1e300]),
           spots=st.integers(1, 3))
    def test_non_finite_inputs(self, season, seed, bad, spots):
        rng = np.random.default_rng(seed)
        series = rng.random(3 * season)
        series[rng.integers(0, series.size, spots)] = bad
        model = HoltWinters(season_length=season)
        assert model._grid_search(series) == _scalar_grid_search(model,
                                                                 series)

    def test_no_finite_sse_keeps_default(self):
        series = np.full(8, np.nan)
        assert HoltWinters(season_length=4)._grid_search(series) == (
            0.3, 0.05, 0.2)
