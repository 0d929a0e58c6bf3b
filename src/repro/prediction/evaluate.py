"""The §4.4 prediction experiment harness.

Protocol, exactly as the paper describes: take one month of a VM's CPU
readings, aggregate them into half-hour windows (max and mean), split
into 3 weeks of training and 1 week of testing, train Holt-Winters and
the LSTM per VM per target, and score one-step-ahead forecasts by RMSE
in CPU-utilisation percent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import PREDICTION_WINDOW_MINUTES
from ..errors import PredictionError
from .autoregressive import SeasonalARForecaster
from .holtwinters import HoltWinters
from .lstm import LSTMForecaster

MINUTES_PER_DAY = 24 * 60


def window_aggregate(series: np.ndarray, readings_per_window: int,
                     reducer: str) -> np.ndarray:
    """Aggregate raw readings into prediction windows (max or mean).

    Raises:
        PredictionError: on a partial trailing window or unknown reducer.
    """
    series = np.asarray(series, dtype=float)
    if readings_per_window < 1:
        raise PredictionError(
            f"readings_per_window must be >= 1, got {readings_per_window}"
        )
    if series.size % readings_per_window:
        raise PredictionError(
            f"{series.size} readings is not a whole number of "
            f"{readings_per_window}-reading windows"
        )
    blocks = series.reshape(-1, readings_per_window)
    if reducer == "max":
        return blocks.max(axis=1)
    if reducer == "mean":
        return blocks.mean(axis=1)
    raise PredictionError(f"unknown reducer {reducer!r}")


@dataclass(frozen=True)
class PredictionOutcome:
    """Per-VM result of one (model, target) prediction run."""

    vm_id: str
    model: str        # "holt-winters", "lstm", or "seasonal-ar"
    target: str       # "max" or "mean"
    rmse_percent: float


@dataclass(frozen=True)
class ExperimentSpec:
    """Windowing and split settings for a prediction experiment."""

    cpu_interval_minutes: int
    window_minutes: int = PREDICTION_WINDOW_MINUTES
    train_days: int = 21
    test_days: int = 7

    @property
    def readings_per_window(self) -> int:
        if self.window_minutes % self.cpu_interval_minutes:
            raise PredictionError(
                "prediction window must be a multiple of the CPU interval"
            )
        return self.window_minutes // self.cpu_interval_minutes

    @property
    def windows_per_day(self) -> int:
        return MINUTES_PER_DAY // self.window_minutes


def split_train_test(windows: np.ndarray,
                     spec: ExperimentSpec) -> tuple[np.ndarray, np.ndarray]:
    """Split windowed series into (train, test) by day counts.

    Raises:
        PredictionError: if the series is shorter than train + test days.
    """
    per_day = spec.windows_per_day
    need = (spec.train_days + spec.test_days) * per_day
    if windows.size < need:
        raise PredictionError(
            f"need {need} windows ({spec.train_days}+{spec.test_days} days), "
            f"got {windows.size}"
        )
    train = windows[: spec.train_days * per_day]
    test = windows[spec.train_days * per_day: need]
    return train, test


def evaluate_holt_winters(vm_id: str, raw_series: np.ndarray, target: str,
                          spec: ExperimentSpec) -> PredictionOutcome:
    """Run the Holt-Winters leg of the experiment for one VM."""
    windows = window_aggregate(raw_series, spec.readings_per_window, target)
    train, test = split_train_test(windows, spec)
    model = HoltWinters(season_length=spec.windows_per_day)
    model.fit(train)
    forecasts = model.walk_forward(test)
    forecasts = np.clip(forecasts, 0.0, 1.0)
    rmse = float(np.sqrt(np.mean((forecasts - test) ** 2))) * 100.0
    return PredictionOutcome(vm_id=vm_id, model="holt-winters",
                             target=target, rmse_percent=rmse)


def evaluate_lstm(vm_id: str, raw_series: np.ndarray, target: str,
                  spec: ExperimentSpec, epochs: int = 30,
                  seed: int = 0) -> PredictionOutcome:
    """Run the LSTM leg of the experiment for one VM."""
    windows = window_aggregate(raw_series, spec.readings_per_window, target)
    train, test = split_train_test(windows, spec)
    model = LSTMForecaster(window=spec.windows_per_day // 2,
                           epochs=epochs, seed=seed)
    model.fit(train)
    forecasts = np.clip(model.walk_forward(train, test), 0.0, 1.0)
    rmse = float(np.sqrt(np.mean((forecasts - test) ** 2))) * 100.0
    return PredictionOutcome(vm_id=vm_id, model="lstm",
                             target=target, rmse_percent=rmse)


def evaluate_seasonal_ar(vm_id: str, raw_series: np.ndarray, target: str,
                         spec: ExperimentSpec,
                         order: int = 4) -> PredictionOutcome:
    """Run the seasonal-AR (ARIMA-family) leg for one VM."""
    windows = window_aggregate(raw_series, spec.readings_per_window, target)
    train, test = split_train_test(windows, spec)
    model = SeasonalARForecaster(season_length=spec.windows_per_day,
                                 order=order)
    model.fit(train)
    forecasts = np.clip(model.walk_forward(test), 0.0, 1.0)
    rmse = float(np.sqrt(np.mean((forecasts - test) ** 2))) * 100.0
    return PredictionOutcome(vm_id=vm_id, model="seasonal-ar",
                             target=target, rmse_percent=rmse)
