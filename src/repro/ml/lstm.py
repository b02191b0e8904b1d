"""LSTM latency model — the second Table 2 comparison point.

The paper rearranges the system history ``X_RH`` into a 2D tensor of
shape ``T x (F * N)`` for the LSTM; here the latency history ``X_LH``
(also per-timestep) is concatenated onto each timestep's feature vector,
and the candidate allocation joins after the recurrence.  LSTMs capture
the timeseries dimension well (the paper finds them close to the CNN,
and the fastest to run) but, like the MLP, they flatten away the
tier-adjacency structure.
"""

from __future__ import annotations

import numpy as np

from repro.ml.layers import Dense, LSTMCell, ReLU
from repro.ml.network import NeuralRegressor, Sequential


class LatencyLSTM(NeuralRegressor):
    """Recurrent latency predictor over per-timestep feature vectors."""

    def __init__(
        self,
        n_tiers: int,
        n_timesteps: int = 5,
        n_channels: int = 6,
        n_percentiles: int = 5,
        hidden: int = 48,
        rc_embed: int = 16,
        seed: int = 0,
    ) -> None:
        rng = np.random.default_rng(seed)
        self.n_timesteps = n_timesteps
        step_dim = n_channels * n_tiers + n_percentiles
        self.lstm = LSTMCell(step_dim, hidden, rng)
        self.rc_branch = Sequential(Dense(n_tiers, rc_embed, rng), ReLU())
        self.head = Sequential(
            Dense(hidden + rc_embed, 32, rng), ReLU(), Dense(32, n_percentiles, rng)
        )

    def params(self) -> list[np.ndarray]:
        return self.lstm.params() + self.rc_branch.params() + self.head.params()

    def grads(self) -> list[np.ndarray]:
        return self.lstm.grads() + self.rc_branch.grads() + self.head.grads()

    def _sequence(self, inputs: tuple[np.ndarray, ...]) -> np.ndarray:
        """Build the (B, T, F*N + M) sequence from (X_RH, X_LH, X_RC)."""
        x_rh, x_lh, _ = inputs
        b, f, n, t = x_rh.shape
        # (B, F, N, T) -> (B, T, F*N): one feature vector per timestep.
        rh_seq = x_rh.transpose(0, 3, 1, 2).reshape(b, t, f * n)
        return np.concatenate([rh_seq, x_lh], axis=2)

    def forward_batch(self, inputs: tuple[np.ndarray, ...], training: bool = False) -> np.ndarray:
        seq = self._sequence(inputs)
        h = self.lstm.forward(seq, training)
        h_rc = self.rc_branch.forward(inputs[2], training)
        self._split = (h.shape[1], h_rc.shape[1])
        return self.head.forward(np.concatenate([h, h_rc], axis=1), training)

    def backward_batch(self, dout: np.ndarray) -> None:
        dconcat = self.head.backward(dout)
        a, _ = self._split
        # Nothing reads the gradient of the input data itself.
        self.lstm.backward(dconcat[:, :a], input_grad=False)
        self.rc_branch.backward(dconcat[:, a:], input_grad=False)


__all__ = ["LatencyLSTM"]
