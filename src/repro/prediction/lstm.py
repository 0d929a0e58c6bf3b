"""A from-scratch numpy LSTM matching the paper's §4.4 model.

"The LSTM model has 1 layer and 24 units (2496 weights)": with scalar
input, the gate weights count 4 x (24 x (1 + 24) + 24) = 2496.  A linear
read-out maps the final hidden state to the scalar forecast.  Training is
full-batch BPTT with Adam on mean squared error; everything is vectorised
over the batch so per-VM training stays in the hundreds of milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PredictionError

HIDDEN_UNITS = 24


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


@dataclass
class _AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0


class LSTMForecaster:
    """One-step-ahead scalar forecaster: window of past values -> next value.

    Args:
        window: input sequence length fed to the LSTM.
        hidden: LSTM units (paper: 24).
        epochs: full-batch Adam epochs.
        learning_rate: Adam step size.
        seed: weight-initialisation seed.
    """

    def __init__(self, window: int = 24, hidden: int = HIDDEN_UNITS,
                 epochs: int = 30, learning_rate: float = 0.01,
                 seed: int = 0) -> None:
        if window < 2:
            raise PredictionError(f"window must be >= 2, got {window}")
        if hidden < 1 or epochs < 1:
            raise PredictionError("hidden and epochs must be positive")
        self.window = window
        self.hidden = hidden
        self.epochs = epochs
        self.learning_rate = learning_rate
        rng = np.random.default_rng(seed)
        h, d = hidden, 1
        scale = 1.0 / np.sqrt(h + d)
        # Gate order along axis 1: [input, forget, cell, output].
        self.params: dict[str, np.ndarray] = {
            "W": rng.normal(0.0, scale, size=(d + h, 4 * h)),
            "b": np.zeros(4 * h),
            "Wy": rng.normal(0.0, scale, size=(h, 1)),
            "by": np.zeros(1),
        }
        # Forget-gate bias starts positive: standard trick for learnable
        # long-range memory.
        self.params["b"][h:2 * h] = 1.0
        self._adam = _AdamState(
            m={k: np.zeros_like(v) for k, v in self.params.items()},
            v={k: np.zeros_like(v) for k, v in self.params.items()},
        )
        self._mean = 0.0
        self._scale = 1.0

    @property
    def lstm_weight_count(self) -> int:
        """Number of recurrent-layer weights (paper quotes 2496 for h=24)."""
        return int(self.params["W"].size + self.params["b"].size)

    # ---- data plumbing ------------------------------------------------------

    def _make_windows(self, series: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = series.size - self.window
        if n < 1:
            raise PredictionError(
                f"series of {series.size} points too short for window "
                f"{self.window}"
            )
        idx = np.arange(self.window)[None, :] + np.arange(n)[:, None]
        return series[idx], series[self.window:]

    # ---- forward / backward -------------------------------------------------

    def _forward(self, batch: np.ndarray):
        """Run the LSTM over a (B, T) batch; returns output and caches."""
        B, T = batch.shape
        h_units = self.hidden
        W, b = self.params["W"], self.params["b"]
        h = np.zeros((B, h_units))
        c = np.zeros((B, h_units))
        caches = []
        for t in range(T):
            x = batch[:, t:t + 1]
            z = np.concatenate([x, h], axis=1)
            gates = z @ W + b
            i = _sigmoid(gates[:, :h_units])
            f = _sigmoid(gates[:, h_units:2 * h_units])
            g = np.tanh(gates[:, 2 * h_units:3 * h_units])
            o = _sigmoid(gates[:, 3 * h_units:])
            c = f * c + i * g
            tanh_c = np.tanh(c)
            new_h = o * tanh_c
            caches.append((z, i, f, g, o, c.copy(), tanh_c, h))
            h = new_h
        y = h @ self.params["Wy"] + self.params["by"]
        return y[:, 0], h, caches

    def _backward(self, batch: np.ndarray, y_pred: np.ndarray,
                  y_true: np.ndarray, final_h: np.ndarray,
                  caches) -> dict[str, np.ndarray]:
        B, T = batch.shape
        h_units = self.hidden
        W = self.params["W"]
        d_y = (2.0 / B) * (y_pred - y_true)[:, None]
        grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        grads["Wy"] = final_h.T @ d_y
        grads["by"] = d_y.sum(axis=0)
        d_h = d_y @ self.params["Wy"].T
        d_c = np.zeros((B, h_units))
        for t in range(T - 1, -1, -1):
            z, i, f, g, o, c, tanh_c, _h_prev = caches[t]
            d_o = d_h * tanh_c
            d_c = d_c + d_h * o * (1.0 - tanh_c ** 2)
            d_i = d_c * g
            d_g = d_c * i
            c_prev = caches[t - 1][5] if t > 0 else np.zeros((B, h_units))
            d_f = d_c * c_prev
            d_gates = np.concatenate([
                d_i * i * (1 - i),
                d_f * f * (1 - f),
                d_g * (1 - g ** 2),
                d_o * o * (1 - o),
            ], axis=1)
            grads["W"] += z.T @ d_gates
            grads["b"] += d_gates.sum(axis=0)
            d_z = d_gates @ W.T
            d_h = d_z[:, 1:]
            d_c = d_c * f
        return grads

    def _adam_step(self, grads: dict[str, np.ndarray]) -> None:
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        self._adam.t += 1
        t = self._adam.t
        for key, grad in grads.items():
            np.clip(grad, -5.0, 5.0, out=grad)
            self._adam.m[key] = beta1 * self._adam.m[key] + (1 - beta1) * grad
            self._adam.v[key] = beta2 * self._adam.v[key] + (1 - beta2) * grad ** 2
            m_hat = self._adam.m[key] / (1 - beta1 ** t)
            v_hat = self._adam.v[key] / (1 - beta2 ** t)
            self.params[key] -= (self.learning_rate * m_hat
                                 / (np.sqrt(v_hat) + eps))

    # ---- public API ----------------------------------------------------------

    def fit(self, series: np.ndarray) -> "LSTMForecaster":
        """Train on a 1-D series (values in any scale; normalised inside).

        Raises:
            PredictionError: if the series is too short for the window.
        """
        series = np.asarray(series, dtype=float)
        self._mean = float(series.mean())
        self._scale = float(series.std()) or 1.0
        normalised = (series - self._mean) / self._scale
        windows, targets = self._make_windows(normalised)
        for _ in range(self.epochs):
            y_pred, final_h, caches = self._forward(windows)
            grads = self._backward(windows, y_pred, targets, final_h, caches)
            self._adam_step(grads)
        return self

    def _predict(self, windows: np.ndarray) -> np.ndarray:
        """Forecasts for a (B, T) batch of raw-scale input windows.

        Every row goes through its own ``(1, 1+H) @ W`` product (the
        stacked ``(B, 1, 1+H) @ W`` form), so a row's forecast does not
        depend on the other rows in the batch: one ``(B, 1+H) @ W`` GEMM
        would round differently in the last bit.
        """
        batch = (windows - self._mean) / self._scale
        B, T = batch.shape
        h_units = self.hidden
        W, b = self.params["W"], self.params["b"]
        z = np.zeros((B, 1, 1 + h_units))
        c = np.zeros((B, 1, h_units))
        for t in range(T):
            z[:, 0, 0] = batch[:, t]
            gates = z @ W + b
            i = _sigmoid(gates[..., :h_units])
            f = _sigmoid(gates[..., h_units:2 * h_units])
            g = np.tanh(gates[..., 2 * h_units:3 * h_units])
            o = _sigmoid(gates[..., 3 * h_units:])
            c = f * c + i * g
            z[..., 1:] = o * np.tanh(c)
        y = z[..., 1:] @ self.params["Wy"] + self.params["by"]
        return y[:, 0, 0] * self._scale + self._mean

    def predict_next(self, history: np.ndarray) -> float:
        """Forecast the value following ``history`` (>= window points)."""
        history = np.asarray(history, dtype=float)
        if history.size < self.window:
            raise PredictionError(
                f"history of {history.size} points shorter than window "
                f"{self.window}"
            )
        return float(self._predict(history[None, -self.window:])[0])

    def walk_forward(self, train: np.ndarray, test: np.ndarray) -> np.ndarray:
        """One-step-ahead forecasts across ``test`` given ``train`` history.

        Forecast ``i`` sees ``train`` plus the first ``i`` test values,
        exactly as ``predict_next`` on that history would; all windows
        run through the LSTM as one batch.

        Raises:
            PredictionError: if ``test`` is not empty and ``train`` is
                shorter than the window.
        """
        train = np.asarray(train, dtype=float)
        test = np.asarray(test, dtype=float)
        if test.size == 0:
            return np.empty(0)
        if train.size < self.window:
            raise PredictionError(
                f"history of {train.size} points shorter than window "
                f"{self.window}"
            )
        history = np.concatenate([train, test])
        first = train.size - self.window
        idx = (np.arange(self.window)[None, :]
               + np.arange(first, first + test.size)[:, None])
        return self._predict(history[idx])
