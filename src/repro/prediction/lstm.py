"""A from-scratch numpy LSTM matching the paper's §4.4 model.

"The LSTM model has 1 layer and 24 units (2496 weights)": with scalar
input, the gate weights count 4 x (24 x (1 + 24) + 24) = 2496.  A linear
read-out maps the final hidden state to the scalar forecast.  Training is
full-batch BPTT with Adam on mean squared error; everything is vectorised
over the batch so per-VM training stays in the hundreds of milliseconds,
and every step writes into buffers allocated once per batch shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PredictionError

HIDDEN_UNITS = 24


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


def _sigmoid_into(x: np.ndarray, out: np.ndarray) -> None:
    """:func:`_sigmoid` of ``x`` computed in ``out``, op for op."""
    np.clip(x, -30.0, 30.0, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.add(1.0, out, out=out)
    np.divide(1.0, out, out=out)


class _TrainingBuffers:
    """Every array one BPTT pass over a ``(B, T)`` batch writes.

    ``z[t]`` is step ``t``'s input ``[x_t, h_{t-1}]`` (step ``t`` writes
    ``h_t`` into ``z[t + 1]``, the last step into ``final_h``); ``i``,
    ``f``, ``g``, ``o`` and ``tanh_c`` are the step activations and
    ``c[t + 1]`` the cell state after step ``t`` (``c[0]`` is zero).
    The rest is per-step scratch for the forward and backward passes.
    """

    def __init__(self, T: int, B: int, H: int) -> None:
        self.shape = (T, B)
        self.z = np.empty((T, B, 1 + H))
        self.i, self.f, self.g, self.o, self.tanh_c = (
            np.empty((T, B, H)) for _ in range(5))
        self.c = np.zeros((T + 1, B, H))
        self.final_h = np.empty((B, H))
        self.gates = np.empty((B, 4 * H))
        self.d_gates = np.empty((B, 4 * H))
        self.d_z = np.empty((B, 1 + H))
        self.d_c, self.scratch, self.scratch2 = (
            np.empty((B, H)) for _ in range(3))
        self.d_w = np.empty((1 + H, 4 * H))
        self.d_b = np.empty(4 * H)


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
        self._buffers: _TrainingBuffers | None = None

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

    def _training_buffers(self, T: int, B: int) -> _TrainingBuffers:
        """This instance's BPTT buffers for a ``(B, T)`` batch, allocated
        on the first batch of that shape and reused after it."""
        buffers = self._buffers
        if buffers is None or buffers.shape != (T, B):
            buffers = self._buffers = _TrainingBuffers(T, B, self.hidden)
        return buffers

    def _forward(self, batch: np.ndarray) -> np.ndarray:
        """Run the LSTM over a (B, T) batch; returns the (B,) output.

        The activations of every step stay in this instance's
        :class:`_TrainingBuffers` for :meth:`_backward`, so the next
        call overwrites them.
        """
        B, T = batch.shape
        H = self.hidden
        W, b = self.params["W"], self.params["b"]
        buf = self._training_buffers(T, B)
        z, gates = buf.z, buf.gates
        z[:, :, 0] = batch.T
        z[0, :, 1:] = 0.0
        for t in range(T):
            np.matmul(z[t], W, out=gates)
            np.add(gates, b, out=gates)
            _sigmoid_into(gates[:, :H], buf.i[t])
            _sigmoid_into(gates[:, H:2 * H], buf.f[t])
            np.tanh(gates[:, 2 * H:3 * H], out=buf.g[t])
            _sigmoid_into(gates[:, 3 * H:], buf.o[t])
            # c = f * c_prev + i * g
            c = buf.c[t + 1]
            np.multiply(buf.f[t], buf.c[t], out=c)
            np.add(c, np.multiply(buf.i[t], buf.g[t], out=buf.scratch), out=c)
            np.tanh(c, out=buf.tanh_c[t])
            h = z[t + 1, :, 1:] if t + 1 < T else buf.final_h
            np.multiply(buf.o[t], buf.tanh_c[t], out=h)
        y = buf.final_h @ self.params["Wy"] + self.params["by"]
        return y[:, 0]

    def _backward(self, y_pred: np.ndarray,
                  y_true: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of the mean squared error over the batch of the last
        :meth:`_forward`."""
        buf = self._buffers
        T, B = buf.shape
        H = self.hidden
        W = self.params["W"]
        d_y = (2.0 / B) * (y_pred - y_true)[:, None]
        grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        grads["Wy"] = buf.final_h.T @ d_y
        grads["by"] = d_y.sum(axis=0)
        d_h = d_y @ self.params["Wy"].T
        d_c = buf.d_c
        d_c.fill(0.0)
        d_gates, t1, t2 = buf.d_gates, buf.scratch, buf.scratch2
        d_i, d_f = d_gates[:, :H], d_gates[:, H:2 * H]
        d_g, d_o = d_gates[:, 2 * H:3 * H], d_gates[:, 3 * H:]
        for t in range(T - 1, -1, -1):
            i, f, g, o = buf.i[t], buf.f[t], buf.g[t], buf.o[t]
            tanh_c = buf.tanh_c[t]
            # d_c = d_c + d_h * o * (1.0 - tanh_c ** 2)
            np.multiply(d_h, o, out=t1)
            np.subtract(1.0, np.square(tanh_c, out=t2), out=t2)
            np.add(d_c, np.multiply(t1, t2, out=t1), out=d_c)
            # d_gates = [d_i * i * (1 - i), d_f * f * (1 - f),
            #            d_g * (1 - g ** 2), d_o * o * (1 - o)],
            # with d_i = d_c * g, d_f = d_c * c_prev, d_g = d_c * i and
            # d_o = d_h * tanh_c.
            np.multiply(np.multiply(d_c, g, out=d_i), i, out=d_i)
            np.multiply(d_i, np.subtract(1, i, out=t1), out=d_i)
            np.multiply(np.multiply(d_c, buf.c[t], out=d_f), f, out=d_f)
            np.multiply(d_f, np.subtract(1, f, out=t1), out=d_f)
            np.multiply(d_c, i, out=d_g)
            np.subtract(1, np.square(g, out=t1), out=t1)
            np.multiply(d_g, t1, out=d_g)
            np.multiply(np.multiply(d_h, tanh_c, out=d_o), o, out=d_o)
            np.multiply(d_o, np.subtract(1, o, out=t1), out=d_o)
            np.add(grads["W"], np.matmul(buf.z[t].T, d_gates, out=buf.d_w),
                   out=grads["W"])
            np.add(grads["b"], d_gates.sum(axis=0, out=buf.d_b),
                   out=grads["b"])
            d_h = np.matmul(d_gates, W.T, out=buf.d_z)[:, 1:]
            np.multiply(d_c, f, out=d_c)
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
            grads = self._backward(self._forward(windows), targets)
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
