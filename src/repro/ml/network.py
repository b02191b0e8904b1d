"""Network composition and the shared mini-batch training loop.

``Sequential`` chains layers; ``NeuralRegressor`` is the base class for
all neural latency models (CNN / MLP / LSTM / multi-task), providing the
SGD mini-batch loop with validation tracking that the paper uses for all
its networks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.ml.layers import Layer
from repro.ml.losses import MSELoss
from repro.ml.metrics import model_size_kb, rmse
from repro.ml.optim import SGD


class Sequential(Layer):
    """Chain of layers applied in order."""

    def __init__(self, *layers: Layer) -> None:
        self.layers = list(layers)

    def params(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params()]

    def grads(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads()]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def backward(
        self, dout: np.ndarray, *, input_grad: bool = True
    ) -> np.ndarray | None:
        """Backpropagate through the chain, last layer first.

        With ``input_grad=False`` nothing reads the gradient with respect
        to the chain's input: the pass stops at the first layer with
        parameters, which fills its gradients only, and returns None.
        """
        if input_grad:
            for layer in reversed(self.layers):
                dout = layer.backward(dout)
            return dout
        weighted = [i for i, layer in enumerate(self.layers) if layer.params()]
        if not weighted:
            return None
        first = weighted[0]
        for layer in reversed(self.layers[first + 1 :]):
            dout = layer.backward(dout)
        return self.layers[first].backward(dout, input_grad=False)


@dataclass
class FitResult:
    """Training summary for one ``fit`` call."""

    train_loss: list[float] = field(default_factory=list)
    val_rmse: list[float] = field(default_factory=list)
    epoch_time_s: list[float] = field(default_factory=list)
    train_rmse_final: float = float("nan")
    val_rmse_final: float = float("nan")
    epochs_run: int = 0


class NeuralRegressor:
    """Base class: multi-input regression network trained with SGD.

    Subclasses implement ``forward_batch`` / ``backward_batch`` over a
    tuple of input arrays and expose ``params()``/``grads()``.
    """

    def params(self) -> list[np.ndarray]:
        raise NotImplementedError

    def grads(self) -> list[np.ndarray]:
        raise NotImplementedError

    def forward_batch(self, inputs: tuple[np.ndarray, ...], training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward_batch(self, dout: np.ndarray) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------

    @property
    def n_params(self) -> int:
        return int(sum(p.size for p in self.params()))

    @property
    def size_kb(self) -> float:
        """Serialized model size (float32 KB), the Table 2 column."""
        return model_size_kb(self.params())

    def predict(self, inputs: tuple[np.ndarray, ...], batch_size: int = 4096) -> np.ndarray:
        """Forward pass in inference mode, batched to bound memory."""
        n = len(inputs[0])
        chunks = []
        for start in range(0, n, batch_size):
            batch = tuple(x[start : start + batch_size] for x in inputs)
            chunks.append(self.forward_batch(batch, training=False))
        return np.concatenate(chunks)

    def fit(
        self,
        inputs: tuple[np.ndarray, ...],
        targets: np.ndarray,
        val_inputs: tuple[np.ndarray, ...] | None = None,
        val_targets: np.ndarray | None = None,
        loss=None,
        epochs: int = 30,
        batch_size: int = 512,
        lr: float = 0.001,
        momentum: float = 0.9,
        weight_decay: float = 1e-5,
        seed: int = 0,
        patience: int = 8,
        verbose: bool = False,
    ) -> FitResult:
        """Mini-batch SGD with optional early stopping on validation RMSE.

        ``lr`` can be lowered by two orders of magnitude for fine-tuning,
        which is exactly how the paper performs incremental retraining
        (Section 5.4: initial learning rate 1e-5 = lambda/100).
        """
        loss = loss or MSELoss()
        rng = np.random.default_rng(seed)
        optimizer = SGD(
            self.params(), self.grads(), lr=lr, momentum=momentum, weight_decay=weight_decay
        )
        n = len(targets)
        result = FitResult()
        best_val = float("inf")
        best_params: list[np.ndarray] | None = None
        have_best = False
        stale = 0

        # Preallocate the shuffle permutation and the batch gather
        # buffers once; epochs refill them in place.  Resetting
        # ``order`` to arange before each shuffle keeps the RNG stream
        # (and therefore batch composition) identical to the previous
        # per-epoch ``rng.permutation(n)``.
        base_order = np.arange(n)
        order = np.empty_like(base_order)
        max_b = min(batch_size, n) if n else 0
        in_bufs = tuple(
            np.empty((max_b,) + x.shape[1:], dtype=x.dtype) for x in inputs
        )
        target_buf = np.empty((max_b,) + targets.shape[1:], dtype=targets.dtype)

        for epoch in range(epochs):
            tick = time.perf_counter()
            order[...] = base_order
            rng.shuffle(order)
            epoch_loss = 0.0
            batches = 0
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                m = len(idx)
                # Gather into the reusable buffers: backward runs
                # before the next batch overwrites them.
                batch_in = tuple(
                    np.take(x, idx, axis=0, out=buf[:m])
                    for x, buf in zip(inputs, in_bufs)
                )
                pred = self.forward_batch(batch_in, training=True)
                batch_loss, grad = loss(
                    pred, np.take(targets, idx, axis=0, out=target_buf[:m])
                )
                self.backward_batch(grad)
                optimizer.step()
                epoch_loss += batch_loss
                batches += 1
            result.train_loss.append(epoch_loss / max(batches, 1))
            result.epoch_time_s.append(time.perf_counter() - tick)
            result.epochs_run = epoch + 1

            if val_inputs is not None and val_targets is not None:
                val_pred = self.predict(val_inputs)
                val_score = rmse(val_pred, val_targets)
                result.val_rmse.append(val_score)
                if verbose:
                    print(
                        f"epoch {epoch + 1}: loss={result.train_loss[-1]:.4f} "
                        f"val_rmse={val_score:.2f}"
                    )
                if val_score < best_val - 1e-6:
                    best_val = val_score
                    if best_params is None:
                        best_params = [np.empty_like(p) for p in self.params()]
                    for dst, p in zip(best_params, self.params()):
                        np.copyto(dst, p)
                    have_best = True
                    stale = 0
                else:
                    stale += 1
                    if patience and stale >= patience:
                        break

        if have_best and best_params is not None:
            for p, best in zip(self.params(), best_params):
                p[...] = best
        result.train_rmse_final = rmse(self.predict(inputs), targets)
        if val_inputs is not None and val_targets is not None:
            result.val_rmse_final = rmse(self.predict(val_inputs), val_targets)
        return result


__all__ = ["Sequential", "NeuralRegressor", "FitResult"]
