"""Additive Holt-Winters triple exponential smoothing (§4.4).

The paper uses Holt-Winters [31] to predict each VM's max/mean CPU usage
for the next half-hour window.  This implementation keeps (level, trend,
seasonal) state, supports one-step-ahead walk-forward forecasting, and
picks its smoothing constants by a coarse grid search on training error —
matching how the method is applied in capacity-planning practice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PredictionError


@dataclass
class _HWState:
    level: float
    trend: float
    season: np.ndarray  # length = season_length
    index: int          # phase of the next observation


class HoltWinters:
    """Additive-seasonal Holt-Winters one-step forecaster.

    Args:
        season_length: observations per seasonal cycle (e.g. 48 half-hour
            windows per day).
        alpha, beta, gamma: smoothing constants; any left as None are
            chosen by grid search in :meth:`fit`.
    """

    def __init__(self, season_length: int, alpha: float | None = None,
                 beta: float | None = None, gamma: float | None = None) -> None:
        if season_length < 2:
            raise PredictionError(
                f"season_length must be >= 2, got {season_length}"
            )
        self.season_length = season_length
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self._state: _HWState | None = None

    # ---- fitting ----------------------------------------------------------

    def fit(self, series: np.ndarray) -> "HoltWinters":
        """Initialise state from ``series`` and tune smoothing constants.

        Raises:
            PredictionError: if the series is shorter than two seasons.
        """
        series = np.asarray(series, dtype=float)
        if series.size < 2 * self.season_length:
            raise PredictionError(
                f"need at least two seasons ({2 * self.season_length} points), "
                f"got {series.size}"
            )
        if self.alpha is None or self.beta is None or self.gamma is None:
            self.alpha, self.beta, self.gamma = self._grid_search(series)
        self._state = self._run(series, self.alpha, self.beta, self.gamma)[1]
        return self

    def _grid_search(self, series: np.ndarray) -> tuple[float, float, float]:
        """The grid's (alpha, beta, gamma) with the least training SSE.

        All 36 combinations are smoothed in one pass over the series, the
        state held as length-36 arrays; each lane performs the same
        operations in the same order as :meth:`_run`, so its SSE is
        bit-equal to a scalar pass.  The first strict minimum in
        (alpha, beta, gamma) order wins; NaN never does, and when no SSE
        is finite the default (0.3, 0.05, 0.2) stands.
        """
        grid = np.array([(a, b, g) for a in (0.1, 0.3, 0.5, 0.8)
                         for b in (0.0, 0.05, 0.1)
                         for g in (0.05, 0.2, 0.4)])
        alpha, beta, gamma = grid.T
        keep_alpha, keep_beta, keep_gamma = 1 - alpha, 1 - beta, 1 - gamma
        init = self._initial_state(series)
        m = self.season_length
        level = np.full(len(grid), init.level)
        trend = np.full(len(grid), init.trend)
        # (phase, combination): one phase's lanes are a contiguous row.
        season = np.repeat(init.season[:, None], len(grid), axis=1)
        sse = np.zeros(len(grid))
        for index, value in enumerate(series.tolist()):
            seasonal = season[index % m]
            smoothed = level + trend
            error = value - (smoothed + seasonal)
            sse += error * error
            new_level = alpha * (value - seasonal) + keep_alpha * smoothed
            trend = beta * (new_level - level) + keep_beta * trend
            seasonal[:] = gamma * (value - new_level) + keep_gamma * seasonal
            level = new_level
        best = (float("inf"), 0.3, 0.05, 0.2)
        for error_sum, (a, b, g) in zip(sse.tolist(), grid.tolist()):
            if error_sum < best[0]:
                best = (error_sum, a, b, g)
        return best[1], best[2], best[3]

    def _initial_state(self, series: np.ndarray) -> _HWState:
        m = self.season_length
        first_cycle = series[:m]
        second_cycle = series[m:2 * m]
        level = float(first_cycle.mean())
        trend = float((second_cycle.mean() - first_cycle.mean()) / m)
        cycles = series[: (series.size // m) * m].reshape(-1, m)
        season = cycles.mean(axis=0) - cycles.mean()
        return _HWState(level=level, trend=trend, season=season.copy(), index=0)

    def _run(self, series: np.ndarray, alpha: float, beta: float,
             gamma: float) -> tuple[float, _HWState]:
        """One smoothing pass; returns (sum of squared 1-step errors, state)."""
        state = self._initial_state(series)
        m = self.season_length
        sse = 0.0
        for value in series:
            phase = state.index % m
            forecast = state.level + state.trend + state.season[phase]
            error = value - forecast
            sse += error * error
            seasonal = state.season[phase]
            new_level = alpha * (value - seasonal) + (1 - alpha) * (
                state.level + state.trend)
            state.trend = beta * (new_level - state.level) + (1 - beta) * state.trend
            state.season[phase] = gamma * (value - new_level) + (1 - gamma) * seasonal
            state.level = new_level
            state.index += 1
        return sse, state

    # ---- forecasting --------------------------------------------------------

    def forecast_next(self) -> float:
        """One-step-ahead forecast from the current state.

        Raises:
            PredictionError: if :meth:`fit` has not run.
        """
        if self._state is None:
            raise PredictionError("forecast_next() before fit()")
        state = self._state
        phase = state.index % self.season_length
        return state.level + state.trend + state.season[phase]

    def update(self, value: float) -> None:
        """Fold one observed value into the state (walk-forward step).

        Raises:
            PredictionError: if :meth:`fit` has not run.
        """
        if self._state is None:
            raise PredictionError("update() before fit()")
        assert self.alpha is not None and self.beta is not None \
            and self.gamma is not None
        state = self._state
        phase = state.index % self.season_length
        seasonal = state.season[phase]
        new_level = (self.alpha * (value - seasonal)
                     + (1 - self.alpha) * (state.level + state.trend))
        state.trend = (self.beta * (new_level - state.level)
                       + (1 - self.beta) * state.trend)
        state.season[phase] = (self.gamma * (value - new_level)
                               + (1 - self.gamma) * seasonal)
        state.level = new_level
        state.index += 1

    def walk_forward(self, test_series: np.ndarray) -> np.ndarray:
        """One-step-ahead forecasts over ``test_series``.

        Each forecast uses only data observed before that step; the true
        value is then folded into the state, as a deployed predictor would.
        """
        test_series = np.asarray(test_series, dtype=float)
        forecasts = np.empty_like(test_series)
        for i, value in enumerate(test_series):
            forecasts[i] = self.forecast_next()
            self.update(float(value))
        return forecasts
