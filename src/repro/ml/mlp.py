"""MLP latency model — the first Table 2 comparison point.

The paper flattens the system history ``X_RH`` into a 1D vector of shape
``T * F * N`` for the MLP; the latency history and candidate allocation
are concatenated onto the same flat vector.  Width/depth were grown
until accuracy levelled off, which leaves the MLP with by far the
largest parameter count of the three models (1.4 MB in the paper)
and the worst RMSE — the flat encoding discards the tier-adjacency
structure the CNN exploits.
"""

from __future__ import annotations

import numpy as np

from repro.ml.layers import Dense, ReLU
from repro.ml.network import NeuralRegressor, Sequential


class LatencyMLP(NeuralRegressor):
    """Fully-connected latency predictor over flattened inputs."""

    def __init__(
        self,
        n_tiers: int,
        n_timesteps: int = 5,
        n_channels: int = 6,
        n_percentiles: int = 5,
        hidden: tuple[int, ...] = (256, 128, 64),
        seed: int = 0,
    ) -> None:
        rng = np.random.default_rng(seed)
        self.n_percentiles = n_percentiles
        in_dim = n_timesteps * n_channels * n_tiers + n_timesteps * n_percentiles + n_tiers
        layers: list = []
        prev = in_dim
        for width in hidden:
            layers += [Dense(prev, width, rng), ReLU()]
            prev = width
        layers.append(Dense(prev, n_percentiles, rng))
        self.net = Sequential(*layers)

    def params(self) -> list[np.ndarray]:
        return self.net.params()

    def grads(self) -> list[np.ndarray]:
        return self.net.grads()

    @staticmethod
    def flatten_inputs(inputs: tuple[np.ndarray, ...]) -> np.ndarray:
        """Concatenate (X_RH, X_LH, X_RC) into the MLP's flat vector."""
        x_rh, x_lh, x_rc = inputs
        b = x_rh.shape[0]
        return np.concatenate(
            [x_rh.reshape(b, -1), x_lh.reshape(b, -1), x_rc.reshape(b, -1)], axis=1
        )

    def forward_batch(self, inputs: tuple[np.ndarray, ...], training: bool = False) -> np.ndarray:
        return self.net.forward(self.flatten_inputs(inputs), training)

    def backward_batch(self, dout: np.ndarray) -> None:
        self.net.backward(dout, input_grad=False)


__all__ = ["LatencyMLP"]
