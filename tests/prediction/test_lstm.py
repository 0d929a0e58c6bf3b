"""Tests for the numpy LSTM forecaster."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PredictionError
from repro.prediction.lstm import LSTMForecaster


def _sine(points=600, period=48, noise=0.005, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(points)
    return 0.5 + 0.3 * np.sin(2 * np.pi * t / period) \
        + rng.normal(0, noise, points)


class TestArchitecture:
    def test_paper_weight_count(self):
        # §4.4: "1 layer and 24 units (2496 weights)".
        assert LSTMForecaster(hidden=24).lstm_weight_count == 2496

    def test_bad_window_rejected(self):
        with pytest.raises(PredictionError):
            LSTMForecaster(window=1)

    def test_bad_hidden_rejected(self):
        with pytest.raises(PredictionError):
            LSTMForecaster(hidden=0)


class TestTraining:
    def test_too_short_series_rejected(self):
        with pytest.raises(PredictionError):
            LSTMForecaster(window=24).fit(np.zeros(10))

    def test_learns_sine_better_than_mean(self):
        series = _sine()
        train, test = series[:500], series[500:]
        model = LSTMForecaster(window=24, epochs=40, seed=1).fit(train)
        preds = model.walk_forward(train, test)
        model_rmse = np.sqrt(np.mean((preds - test) ** 2))
        naive_rmse = np.sqrt(np.mean((train.mean() - test) ** 2))
        assert model_rmse < 0.5 * naive_rmse

    def test_training_reduces_loss(self):
        series = _sine(points=400)
        few = LSTMForecaster(window=24, epochs=2, seed=2).fit(series[:350])
        many = LSTMForecaster(window=24, epochs=40, seed=2).fit(series[:350])
        test = series[350:]
        rmse_few = np.sqrt(np.mean(
            (few.walk_forward(series[:350], test) - test) ** 2))
        rmse_many = np.sqrt(np.mean(
            (many.walk_forward(series[:350], test) - test) ** 2))
        assert rmse_many < rmse_few

    def test_deterministic_given_seed(self):
        series = _sine(points=300)
        a = LSTMForecaster(window=12, epochs=5, seed=3).fit(series)
        b = LSTMForecaster(window=12, epochs=5, seed=3).fit(series)
        assert a.predict_next(series) == b.predict_next(series)

    def test_constant_series_handled(self):
        # std = 0 must not divide by zero.
        series = np.full(200, 0.4)
        model = LSTMForecaster(window=12, epochs=3).fit(series)
        assert np.isfinite(model.predict_next(series))


class TestPrediction:
    def test_short_history_rejected(self):
        model = LSTMForecaster(window=24, epochs=2).fit(_sine(points=200))
        with pytest.raises(PredictionError):
            model.predict_next(np.zeros(10))

    def test_walk_forward_length(self):
        series = _sine(points=300)
        model = LSTMForecaster(window=12, epochs=3).fit(series[:250])
        preds = model.walk_forward(series[:250], series[250:])
        assert preds.shape == (50,)


def _reference_predict(model, history):
    """A single-window forecast through the training-time forward pass."""
    window = (history[-model.window:] - model._mean) / model._scale
    y_pred, _, _ = model._forward(window[None, :])
    return float(y_pred[0] * model._scale + model._mean)


class TestBatchedWalkForward:
    """The batched walk-forward equals one-window forecasts bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(window=st.integers(2, 30), hidden=st.integers(1, 30),
           epochs=st.integers(1, 3), seed=st.integers(0, 2**16),
           extra_train=st.integers(0, 60), test_len=st.integers(0, 40),
           level=st.sampled_from([1e-3, 1.0, 250.0]))
    def test_matches_predict_next_loop(self, window, hidden, epochs, seed,
                                       extra_train, test_len, level):
        rng = np.random.default_rng(seed)
        series = level * rng.random(window + 1 + extra_train + test_len)
        train = series[:window + 1 + extra_train]
        test = series[train.size:]
        model = LSTMForecaster(window=window, hidden=hidden, epochs=epochs,
                               seed=seed).fit(train)
        preds = model.walk_forward(train, test)
        assert preds.shape == (test_len,)
        loop = [model.predict_next(series[:train.size + i])
                for i in range(test_len)]
        reference = [_reference_predict(model, series[:train.size + i])
                     for i in range(test_len)]
        assert preds.tolist() == loop == reference

    @settings(max_examples=20, deadline=None)
    @given(window=st.integers(2, 30), short=st.integers(0, 29),
           test_len=st.integers(0, 5))
    def test_train_shorter_than_window(self, window, short, test_len):
        model = LSTMForecaster(window=window, epochs=1).fit(
            _sine(points=window + 20))
        train = _sine(points=min(short, window - 1))
        test = _sine(points=test_len)
        if test_len == 0:
            # Nothing to forecast, as with an empty predict_next loop.
            assert model.walk_forward(train, test).shape == (0,)
        else:
            with pytest.raises(PredictionError):
                model.walk_forward(train, test)
