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
copies, and so is every row of a layer that reads only them.
:meth:`LatencyCNN.predict_candidates` exploits this.  The conv trunk
runs once on the single shared history.  The trunk's ``Flatten -> Dense
-> ReLU`` and the ``lh`` branch run on a block of a few copies, and the
first row of each is broadcast into the concatenation.  Only the ``rc``
branch and the two heads run at the full batch.  The result equals
:meth:`predict_with_latent` on B materialized copies of the history
byte for byte, which rests on two facts about the installed BLAS
(OpenBLAS 0.3.31, SkylakeX kernels), not on anything numpy or BLAS
promises:

* An inference conv is one GEMM, ``W.T @ cols``, with a column per
  output position (``B*H*W`` of them), and that GEMM gives each column
  the same bits whatever the column count.  This holds at the served
  shapes on two BLAS threads, not on one (see
  :class:`~repro.ml.layers.Conv2D`).
* The rows of an ``(M, K) @ (K, N)`` product fall into three bit
  classes: ``M = 1`` (numpy calls gemv), ``M*N*K <= 10**6`` (OpenBLAS's
  small-matrix kernel) and anything larger (its blocked GEMM).  The last
  two differ only when K exceeds the GEMM's K block of 384.  Every row
  of one product has the same bits, at one thread or two.  So the block
  holds ``m = min(B, max(2, ceil((10**6 + 1) / (K*N))))`` copies.  It is
  never a single row.  When it is smaller than the batch it does more
  than the small-matrix kernel's ``10**6`` multiply-adds, the fewest
  that do, so it and the B-row product are both blocked GEMMs;
  otherwise it is the batch.  That is 13 rows at the served 1680 x 48
  trunk Dense.  A fixed block does not do: 32 rows at 8 tiers (K = 480)
  is a small-matrix product, and every batch of 44 or more is not.

``tests/ml/test_layers.py`` pins both facts at the served shapes, and
``tests/ml/test_models.py`` the whole model at 4 to 28 tiers.

A decision's candidate-batch temporaries go into a grow-only
:class:`~repro.ml.layers.Workspace` the model owns, not into fresh
arrays: the trunk block (``block[...] = h`` gives the values and the
C-contiguous layout ``np.repeat`` gave), the ``rc`` Dense output and the
heads' ``(B, 88)`` concatenation.  The ``rc`` branch writes
:meth:`Dense.forward` into its buffer, and it and the latent head
rectify in place (:meth:`ReLU.forward`): ``np.matmul(x, W, out=t); t +=
b`` is the GEMM and the add of ``x @ W + b``, and the in-place ReLU
zeroes every entry where ``x > 0`` fails, as ``np.where`` does (NaN and
-0.0 included).  Every GEMM keeps its operands, shapes and layouts, so
every bit stays.  Warm, the buffers
spare a decision its largest allocations, which the C allocator would
hand back to the kernel and fault in again on the next decision.  The
workspace holds nothing derived from weights, so training needs no
invalidation; it is never pickled or copied (``__getstate__``), and the
returned arrays are the caller's.  ``tests/ml/test_decision_workspace.py``
pins the reuse, ownership, pickling and memory rules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.layers import Conv2D, Dense, Flatten, ReLU, Workspace
from repro.ml.network import NeuralRegressor, Sequential

#: Multiply-adds in the block of identical rows that
#: :meth:`LatencyCNN.predict_candidates` runs through a candidate-invariant
#: dense layer: the smallest product past OpenBLAS's small-matrix bound
#: of ``10**6``, which takes the BLAS path that the full candidate
#: batch's product takes (see the module docstring).
_SHARED_BLOCK_MACS = 10**6 + 1


def _shared_block_rows(batch: int, dense: Dense) -> int:
    """Rows of the block that stands in for ``batch`` identical rows
    through ``dense``: at least two (one row is a matrix-vector
    product, with other bits) and enough for ``_SHARED_BLOCK_MACS``,
    but never more than the batch.  At the trunk Dense (``60 * tiers``
    in, 48 out) that is 13 rows at 27 and 28 tiers, 21 at 17 and 44 at
    8."""
    k, n = dense.W.shape
    return min(batch, max(2, -(-_SHARED_BLOCK_MACS // (k * n))))


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
        """Shared-history inference for one history x B candidates.

        ``inputs`` is ``(x_rh, x_lh, x_rc)`` where the history tensors
        have a leading batch dimension of 1 (the shared telemetry
        window) and ``x_rc`` holds the B candidate-branch feature rows.
        The conv trunk runs once; the trunk's dense layer and the ``lh``
        branch run on a block of ``_shared_block_rows`` copies, and the
        first row of each stands in for all B.  The ``rc`` branch and
        the heads run at the full batch.  The block, the ``rc`` branch's
        output and the heads' concatenation live in this model's
        workspace (see the module docstring), so a model scores one
        batch at a time; the two returned arrays are new.  The result is
        bit-identical to :meth:`predict_with_latent` on B copies of the
        history (see the module docstring for why).  Returns ``(latency
        (B, M), latent L_f (B, latent))``; an empty batch is refused.
        """
        x_rh, x_lh, x_rc = inputs
        if len(x_rh) != 1 or len(x_lh) != 1:
            raise ValueError("shared history tensors must have batch size 1")
        b = len(x_rc)
        if b == 0:
            raise ValueError("no candidate rows to score")
        workspace = Workspace.of(self)
        trunk_len = self._rh_trunk_len
        h_rh = x_rh
        for layer in self.rh_branch.layers[:trunk_len]:
            h_rh = layer.forward(h_rh, training=False)
        m = _shared_block_rows(b, self.rh_branch.layers[trunk_len + 1])
        # A contiguous block: matmul gives a stride-0 view the same bits
        # but runs it more slowly at 1680 columns.
        block = workspace.get("trunk", (m, *h_rh.shape[1:]))
        block[...] = h_rh
        h_rh = block
        for layer in self.rh_branch.layers[trunk_len:]:
            h_rh = layer.forward(h_rh, training=False)
        # A stride-0 block: matmul gives it the bits of a materialized
        # copy (pinned in tests/ml/test_layers.py).
        h_lh = self.lh_branch.forward(
            np.broadcast_to(x_lh, (m, *x_lh.shape[1:])), training=False
        )
        h_rc = _dense_relu(
            self.rc_branch, x_rc, workspace.get("rc", (b, self.config.rc_embed))
        )
        concat = workspace.concatenate(
            "concat",
            [
                np.broadcast_to(h_rh[:1], (b, h_rh.shape[1])),
                np.broadcast_to(h_lh[:1], (b, h_lh.shape[1])),
                h_rc,
            ],
        )
        latent = _dense_relu(self.latent_head, concat)
        return self.output_head.forward(latent, training=False), latent

    def __getstate__(self) -> dict:
        # The decision workspace is scratch: never pickled or copied.
        state = dict(self.__dict__)
        state.pop("_workspace", None)
        return state


def _dense_relu(
    branch: Sequential, x: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Inference through a ``Dense, ReLU`` branch, written into ``out``
    (a new array without one) and rectified in place: the bits of
    ``branch.forward(x)`` (see :meth:`Dense.forward` and
    :meth:`ReLU.forward`)."""
    dense, relu = branch.layers
    return relu.forward(dense.forward(x, out=out), inplace=True)


__all__ = ["LatencyCNN", "CNNConfig"]
