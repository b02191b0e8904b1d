"""The short-term latency predictor: Sinan's CNN (paper Figure 5).

Three input branches are processed independently and concatenated:

* ``X_RH`` — the resource-usage "image" (channels = resource metrics,
  rows = tiers with consecutive tiers adjacent, columns = timestamps)
  goes through stacked 3x3 convolutions, so early layers fuse adjacent
  tiers over short windows and later layers see the whole graph;
* ``X_LH`` — the latency-percentile history through a dense layer;
* ``X_RC`` — the candidate allocation through a dense layer.

The concatenation is distilled by a fully-connected layer into the
compact latent variable ``L_f``, from which a final dense layer predicts
the next interval's tail latencies (p95-p99).  ``L_f`` is reused as the
input of the Boosted-Trees violation predictor, which keeps that model
small and overfit-resistant (paper Section 3.2).

Online, the scheduler scores B candidate allocations that all share one
telemetry history, so the RH/LH inputs of the batch are B identical
copies.  :meth:`LatencyCNN.predict_candidates` exploits this: the conv
trunk runs once on the single shared history and its activations are
repeated across the candidate batch before the dense stack.  The split
point is deliberate — convolution via ``einsum`` is batch-invariant
down to the bit, while BLAS GEMM results depend on the batch dimension,
so the dense layers run at the full batch size in both paths and the
fast path reproduces :meth:`predict_with_latent` on the equivalent
broadcast batch *exactly*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.layers import Conv2D, Dense, Flatten, ReLU
from repro.ml.network import NeuralRegressor, Sequential


@dataclass(frozen=True)
class CNNConfig:
    """Architecture hyper-parameters (selected on validation accuracy)."""

    conv_channels: tuple[int, ...] = (12, 12)
    kernel: int = 3
    rh_embed: int = 48
    lh_embed: int = 16
    rc_embed: int = 24
    latent_dim: int = 48


class LatencyCNN(NeuralRegressor):
    """CNN latency predictor with an exposed latent variable.

    Parameters
    ----------
    n_tiers, n_timesteps, n_channels, n_percentiles:
        Input tensor dimensions N, T, F, M (paper Figure 6).
    config:
        Layer sizing; defaults match a ~70 KB model, the paper's scale.
    seed:
        Weight initialization seed.
    """

    def __init__(
        self,
        n_tiers: int,
        n_timesteps: int = 5,
        n_channels: int = 6,
        n_percentiles: int = 5,
        config: CNNConfig | None = None,
        seed: int = 0,
        n_rc_features: int | None = None,
    ) -> None:
        cfg = config or CNNConfig()
        rng = np.random.default_rng(seed)
        self.config = cfg
        self.n_tiers = n_tiers
        self.n_timesteps = n_timesteps
        self.n_channels = n_channels
        self.n_percentiles = n_percentiles
        self.n_rc_features = n_rc_features or n_tiers

        conv_layers: list = []
        in_ch = n_channels
        for out_ch in cfg.conv_channels:
            conv_layers += [Conv2D(in_ch, out_ch, cfg.kernel, rng), ReLU()]
            in_ch = out_ch
        # Layers before this index form the conv trunk shared across
        # candidates by predict_candidates; from Flatten on, computation
        # is per-candidate (see module docstring).
        self._rh_trunk_len = len(conv_layers)
        conv_layers += [
            Flatten(),
            Dense(in_ch * n_tiers * n_timesteps, cfg.rh_embed, rng),
            ReLU(),
        ]
        self.rh_branch = Sequential(*conv_layers)
        self.lh_branch = Sequential(
            Flatten(), Dense(n_timesteps * n_percentiles, cfg.lh_embed, rng), ReLU()
        )
        self.rc_branch = Sequential(
            Dense(self.n_rc_features, cfg.rc_embed, rng), ReLU()
        )
        concat_dim = cfg.rh_embed + cfg.lh_embed + cfg.rc_embed
        self.latent_head = Sequential(Dense(concat_dim, cfg.latent_dim, rng), ReLU())
        self.output_head = Dense(cfg.latent_dim, n_percentiles, rng)

    # ------------------------------------------------------------------

    def params(self) -> list[np.ndarray]:
        return (
            self.rh_branch.params()
            + self.lh_branch.params()
            + self.rc_branch.params()
            + self.latent_head.params()
            + self.output_head.params()
        )

    def grads(self) -> list[np.ndarray]:
        return (
            self.rh_branch.grads()
            + self.lh_branch.grads()
            + self.rc_branch.grads()
            + self.latent_head.grads()
            + self.output_head.grads()
        )

    def forward_batch(self, inputs: tuple[np.ndarray, ...], training: bool = False) -> np.ndarray:
        return self._forward(inputs, training)[0]

    def _forward(
        self, inputs: tuple[np.ndarray, ...], training: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """One batch through every branch: (latency, latent ``L_f``)."""
        x_rh, x_lh, x_rc = inputs
        h_rh = self.rh_branch.forward(x_rh, training)
        h_lh = self.lh_branch.forward(x_lh, training)
        h_rc = self.rc_branch.forward(x_rc, training)
        return self._heads(h_rh, h_lh, h_rc, training)

    def _heads(
        self, h_rh: np.ndarray, h_lh: np.ndarray, h_rc: np.ndarray, training: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        if training:
            self._split = (h_rh.shape[1], h_lh.shape[1], h_rc.shape[1])
        concat = np.concatenate([h_rh, h_lh, h_rc], axis=1)
        latent = self.latent_head.forward(concat, training)
        return self.output_head.forward(latent, training), latent

    def backward_batch(self, dout: np.ndarray) -> None:
        dlatent = self.output_head.backward(dout)
        self._backward_branches(self.latent_head.backward(dlatent))

    def _backward_branches(self, dconcat: np.ndarray) -> None:
        """Split the concatenation's gradient into the three input
        branches; the gradient of the input data itself is never read."""
        a, b, _ = self._split
        self.rh_branch.backward(dconcat[:, :a], input_grad=False)
        self.lh_branch.backward(dconcat[:, a : a + b], input_grad=False)
        self.rc_branch.backward(dconcat[:, a + b :], input_grad=False)

    # ------------------------------------------------------------------

    def latent(self, inputs: tuple[np.ndarray, ...], batch_size: int = 4096) -> np.ndarray:
        """The latent variable ``L_f`` for each sample, shape (B, latent_dim).

        This is the Boosted-Trees input (paper Section 3.2): compact, so
        the tree model stays small and resistant to overfitting.
        """
        n = len(inputs[0])
        chunks = []
        for start in range(0, n, batch_size):
            batch = tuple(x[start : start + batch_size] for x in inputs)
            chunks.append(self._forward(batch, training=False)[1])
        return np.concatenate(chunks)

    def predict_with_latent(
        self, inputs: tuple[np.ndarray, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """One forward pass returning (latency prediction, latent L_f)."""
        return self._forward(inputs, training=False)

    def predict_candidates(
        self, inputs: tuple[np.ndarray, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Shared-trunk inference for one history x B candidates.

        ``inputs`` is ``(x_rh, x_lh, x_rc)`` where the history tensors
        have a leading batch dimension of 1 (the shared telemetry
        window) and ``x_rc`` holds the B candidate-branch feature rows.
        The conv trunk runs once; its activations are repeated across
        the batch before the dense layers, which run at the full batch
        size so the result is bit-identical to
        :meth:`predict_with_latent` on B broadcast copies of the
        history.  Returns ``(latency (B, M), latent L_f (B, latent))``.
        """
        x_rh, x_lh, x_rc = inputs
        if len(x_rh) != 1 or len(x_lh) != 1:
            raise ValueError("shared history tensors must have batch size 1")
        b = len(x_rc)
        trunk_len = self._rh_trunk_len
        h_rh = x_rh
        for layer in self.rh_branch.layers[:trunk_len]:
            h_rh = layer.forward(h_rh, training=False)
        # A contiguous copy, not a stride-0 view: numpy's matmul cannot
        # hand a stride-0 operand to BLAS, and the copy plus the GEMM
        # (the one the oracle's materialized batch runs) costs less than
        # its fallback loop.
        h_rh = np.repeat(h_rh, b, axis=0)
        for layer in self.rh_branch.layers[trunk_len:]:
            h_rh = layer.forward(h_rh, training=False)
        h_lh = self.lh_branch.forward(
            np.broadcast_to(x_lh, (b, *x_lh.shape[1:])), training=False
        )
        h_rc = self.rc_branch.forward(x_rc, training=False)
        return self._heads(h_rh, h_lh, h_rc, training=False)


__all__ = ["LatencyCNN", "CNNConfig"]
