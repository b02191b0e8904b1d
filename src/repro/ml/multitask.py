"""The rejected joint model of paper Figure 4.

Before settling on the two-stage CNN + Boosted-Trees design, the paper
tried a multi-task network predicting both the next-interval latency and
the probability of a QoS violation over the next few intervals.  The
joint model *considerably overpredicts* tail latency: the QoS-violation
probability lives in [0, 1] while latency is unbounded, and the shared
representation lets the classification objective interfere with the
regression one (the "semantic gap").

This module implements that model faithfully — shared branches, one
latency head (plain squared loss, as in the original attempt) and one
violation head (binary cross-entropy) — so the Figure 4 experiment can
be regenerated and the two-stage design justified quantitatively.
"""

from __future__ import annotations

import numpy as np

from repro.ml.cnn import CNNConfig, LatencyCNN
from repro.ml.layers import Dense
from repro.ml.losses import BCEWithLogitsLoss, MSELoss


class MultiTaskLoss:
    """Joint loss over concatenated (latency, violation-logit) outputs.

    ``pred`` and ``target`` have shape (B, M + 1): the first M columns
    are latencies, the last column is the violation label/logit.
    """

    def __init__(self, n_percentiles: int, violation_weight: float = 1.0) -> None:
        self.n_percentiles = n_percentiles
        self.violation_weight = violation_weight
        self._mse = MSELoss()
        self._bce = BCEWithLogitsLoss()

    def __call__(self, pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
        m = self.n_percentiles
        lat_loss, lat_grad = self._mse(pred[:, :m], target[:, :m])
        # Normalize latency gradient scale to the QoS range so the BCE
        # term is not vanishingly small next to squared milliseconds.
        viol_loss, viol_grad = self._bce(pred[:, m:], target[:, m:])
        loss = lat_loss + self.violation_weight * viol_loss
        grad = np.concatenate([lat_grad, self.violation_weight * viol_grad], axis=1)
        return loss, grad


class MultiTaskNN(LatencyCNN):
    """Shared trunk with latency and violation heads (paper Figure 4)."""

    def __init__(
        self,
        n_tiers: int,
        n_timesteps: int = 5,
        n_channels: int = 6,
        n_percentiles: int = 5,
        config: CNNConfig | None = None,
        violation_weight: float = 1.0,
        seed: int = 0,
    ) -> None:
        super().__init__(
            n_tiers, n_timesteps, n_channels, n_percentiles, config, seed
        )
        rng = np.random.default_rng(seed + 1)
        self.violation_head = Dense(self.config.latent_dim, 1, rng)
        self.violation_weight = violation_weight

    def params(self) -> list[np.ndarray]:
        return super().params() + self.violation_head.params()

    def grads(self) -> list[np.ndarray]:
        return super().grads() + self.violation_head.grads()

    def forward_batch(self, inputs: tuple[np.ndarray, ...], training: bool = False) -> np.ndarray:
        latency, latent = self._forward(inputs, training)
        logit = self.violation_head.forward(latent, training)
        return np.concatenate([latency, logit], axis=1)

    def backward_batch(self, dout: np.ndarray) -> None:
        m = self.n_percentiles
        dlatent_extra = self.violation_head.backward(dout[:, m:])
        dlatency = dout[:, :m]
        # Both heads feed the shared latent: accumulate their gradients.
        dlatent = self.output_head.backward(dlatency) + dlatent_extra
        dconcat = self.latent_head.backward(dlatent)
        a, b, _ = self._split
        self.rh_branch.backward(dconcat[:, :a])
        self.lh_branch.backward(dconcat[:, a : a + b])
        self.rc_branch.backward(dconcat[:, a + b :])

    def loss(self) -> MultiTaskLoss:
        """The joint training loss matching this model's output layout."""
        return MultiTaskLoss(self.n_percentiles, self.violation_weight)

    @staticmethod
    def pack_targets(y_lat: np.ndarray, y_viol: np.ndarray) -> np.ndarray:
        """Concatenate targets into the (B, M + 1) layout ``fit`` expects."""
        return np.concatenate([y_lat, y_viol.reshape(-1, 1)], axis=1)

    def predict_latency(self, inputs: tuple[np.ndarray, ...]) -> np.ndarray:
        return self.predict(inputs)[:, : self.n_percentiles]

    def predict_violation_prob(self, inputs: tuple[np.ndarray, ...]) -> np.ndarray:
        logits = self.predict(inputs)[:, self.n_percentiles]
        return 1.0 / (1.0 + np.exp(-np.clip(logits, -60, 60)))


__all__ = ["MultiTaskNN", "MultiTaskLoss"]
