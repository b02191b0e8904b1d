"""Oracles for the training path.

* :class:`ReferenceBoostedTrees` grows every tree on the ``_Node``
  route, :meth:`BoostedTrees._build_tree`'s recursive grower (the path
  without a kernel), on either backend; the compiled grower must match
  it split for split (:func:`assert_same_structure`, on the compiled
  arrays), and byte for byte (``TestGrowerBackends``).
* :class:`PaddedConv2D` trains on the padded folds,
  :meth:`Conv2D._im2col_padded` and :meth:`Conv2D._col2im_padded` (the
  path without a kernel), on fresh arrays and with its own GEMMs.  It
  is the bit-exact oracle: production's im2col/col2im must match its
  output, column matrix, ``dW``, ``db`` and input gradient byte for
  byte, on any input (``-0.0``, NaN and ±inf included).
* :class:`ReferenceConv2D` trains with the einsum forward and the
  tap-loop einsum backward; the production im2col path must match its
  outputs and gradients to 1e-10.
* :class:`ReferenceLSTMCell` runs the per-step concatenated forward and
  backward; the production fused path must match it to 1e-10.
* :func:`use_padded_training` puts a whole model on the bit-exact
  training path: :class:`PaddedConv2D`, and every layer computing the
  gradient with respect to its input (production skips it for a
  network's input layers).  Fits must then match production bitwise.

``tests/ml/test_boosted_trees.py``, ``tests/ml/test_layers.py``,
``tests/ml/test_models.py`` and ``tests/core/test_fast_path.py`` hold
the comparisons.
"""

from __future__ import annotations

import numpy as np

from repro.core.predictor import HybridPredictor
from repro.ml.boosted_trees import BoostedTrees, _NodeGrower
from repro.ml.layers import Conv2D, Dense, Layer, LSTMCell, _sigmoid
from repro.ml.network import Sequential


class ReferenceBoostedTrees(BoostedTrees):
    """Boosted trees fitted through the ``_Node`` route, the recursive
    grower that runs without a kernel, on either backend."""

    def _grower(self, bins, X, margin, X_val, val_margin) -> _NodeGrower:
        return _NodeGrower(self, bins, X, margin, X_val, val_margin)


def assert_same_structure(fast: BoostedTrees, ref: BoostedTrees) -> None:
    """Split-for-split equality of two fitted ensembles' compiled
    arrays: layout, features and thresholds exact, leaf weights to
    1e-10."""
    a, b = fast._compiled, ref._compiled
    assert (a is None) == (b is None)
    if a is None:
        return
    assert a.max_depth == b.max_depth
    for name in ("feature", "children", "roots"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    leaf = a.children[:, 0] == np.arange(len(a.children))
    assert np.array_equal(a.threshold[~leaf], b.threshold[~leaf])
    np.testing.assert_allclose(a.value[leaf], b.value[leaf], rtol=0, atol=1e-10)


class PaddedConv2D(Conv2D):
    """Conv2D trained on the padded folds (bit-exact oracle).

    A training forward builds the column matrix with
    :meth:`Conv2D._im2col_padded` and backward folds the column gradient
    with :meth:`Conv2D._col2im_padded`, whichever backend loads; every
    array is a fresh one, never the fit's workspace, and backward always
    computes the input gradient, whatever ``input_grad`` asks.
    Inference is production's.
    """

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training:
            return super().forward(x)
        B, C, H, W = x.shape
        if C != self.in_ch:
            raise ValueError(f"expected {self.in_ch} channels, got {C}")
        k = self.kernel
        self._x_shape = x.shape
        cols = np.empty((C, k * k, B * H * W))
        self._im2col_padded(x, cols)
        self._cols = cols.reshape(C * k * k, B * H * W)
        out = self._cols.T @ self.W.reshape(C * k * k, self.out_ch)
        out += self.b
        return out.reshape(B, H, W, self.out_ch).transpose(0, 3, 1, 2)

    def backward(self, dout: np.ndarray, *, input_grad: bool = True) -> np.ndarray:
        if self._cols is None:
            raise self._needs_training_forward()
        B, C, H, W = self._x_shape
        k = self.kernel
        O = self.out_ch
        dout_mat = dout.transpose(0, 2, 3, 1).reshape(B * H * W, O)
        self.dW[...] = (self._cols @ dout_mat).reshape(C, k, k, O)
        self.db[...] = dout_mat.sum(axis=0)
        # dx: one GEMM back to column space, then the fold.
        dcols = self.W.reshape(C * k * k, O) @ dout_mat.T
        dx = np.empty((C, B * H * W))
        self._col2im_padded(dcols, dx)
        return dx.reshape(C, B, H, W).transpose(1, 0, 2, 3)


class ReferenceConv2D(Conv2D):
    """Conv2D trained with the einsum forward and einsum backward."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        B, C, H, W = x.shape
        if C != self.in_ch:
            raise ValueError(f"expected {self.in_ch} channels, got {C}")
        return self._forward_einsum(x)

    def backward(self, dout: np.ndarray, *, input_grad: bool = True) -> np.ndarray:
        return self._backward_einsum(dout)

    def _forward_einsum(self, x: np.ndarray) -> np.ndarray:
        pad = self.kernel // 2
        self._x_shape = x.shape
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        # (B, C, H, W, k, k) zero-copy view of all kernel positions.
        self._windows = np.lib.stride_tricks.sliding_window_view(
            xp, (self.kernel, self.kernel), axis=(2, 3)
        )
        # The greedy contraction-path search is a per-call cost worth
        # skipping on the decision hot path: memoize it per input shape.
        cached = self.__dict__.get("_fwd_path")
        if cached is None or cached[0] != self._windows.shape:
            path = np.einsum_path(
                "bchwij,cijo->bhwo", self._windows, self.W, optimize=True
            )[0]
            self._fwd_path = cached = (self._windows.shape, path)
        out = np.einsum(
            "bchwij,cijo->bhwo", self._windows, self.W, optimize=cached[1]
        )
        out += self.b
        return out.transpose(0, 3, 1, 2)

    def _backward_einsum(self, dout: np.ndarray) -> np.ndarray:
        B, C, H, W = self._x_shape
        k = self.kernel
        pad = k // 2
        dout_hw = dout.transpose(0, 2, 3, 1)
        self.dW[...] = np.einsum(
            "bchwij,bhwo->cijo", self._windows, dout_hw, optimize=True
        )
        self.db[...] = dout_hw.sum(axis=(0, 1, 2))
        # dx: scatter each kernel tap's contribution back onto the input.
        dwin = np.einsum("bhwo,cijo->bchwij", dout_hw, self.W, optimize=True)
        dxp = np.zeros((B, C, H + 2 * pad, W + 2 * pad), dtype=dout.dtype)
        for i in range(k):
            for j in range(k):
                dxp[:, :, i : i + H, j : j + W] += dwin[..., i, j]
        if pad:
            return dxp[:, :, pad:-pad, pad:-pad]
        return dxp


class ReferenceLSTMCell(LSTMCell):
    """LSTMCell with the per-step concatenated forward and backward."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self._forward_reference(x)

    def backward(self, dout: np.ndarray, *, input_grad: bool = True) -> np.ndarray:
        return self._backward_reference(dout)

    def _forward_reference(self, x: np.ndarray) -> np.ndarray:
        B, T, D = x.shape
        H = self.hidden
        h = np.zeros((B, H))
        c = np.zeros((B, H))
        self._cache = []
        self._x = x
        self._mode = "reference"
        for t in range(T):
            z = np.concatenate([x[:, t], h], axis=1)
            gates = z @ self.W + self.b
            i = _sigmoid(gates[:, :H])
            f = _sigmoid(gates[:, H : 2 * H])
            o = _sigmoid(gates[:, 2 * H : 3 * H])
            g = np.tanh(gates[:, 3 * H :])
            c_new = f * c + i * g
            tanh_c = np.tanh(c_new)
            h_new = o * tanh_c
            self._cache.append((z, i, f, o, g, c, tanh_c))
            h, c = h_new, c_new
        return h

    def _backward_reference(self, dout: np.ndarray) -> np.ndarray:
        B, T, D = self._x.shape
        H = self.hidden
        self.dW[...] = 0.0
        self.db[...] = 0.0
        dx = np.zeros_like(self._x)
        dh = dout
        dc = np.zeros((B, H))
        for t in reversed(range(T)):
            z, i, f, o, g, c_prev, tanh_c = self._cache[t]
            do = dh * tanh_c
            dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dgates = np.concatenate(
                [
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    do * o * (1.0 - o),
                    dg * (1.0 - g * g),
                ],
                axis=1,
            )
            self.dW += z.T @ dgates
            self.db += dgates.sum(axis=0)
            dz = dgates @ self.W.T
            dx[:, t] = dz[:, :D]
            dh = dz[:, D:]
            dc = dc * f
        return dx


class _AlwaysInputGrad:
    """Mixin: ``backward`` computes the input gradient even when the
    caller says nobody reads it."""

    def backward(self, dout: np.ndarray, *, input_grad: bool = True) -> np.ndarray:
        return super().backward(dout)


class FullGradDense(_AlwaysInputGrad, Dense):
    """Dense whose backward always returns ``dx``."""


class FullGradLSTMCell(_AlwaysInputGrad, LSTMCell):
    """LSTMCell whose backward always returns ``dx``."""


class FullGradSequential(_AlwaysInputGrad, Sequential):
    """Sequential that backpropagates through every layer, first included."""


_LAYER_ORACLES = {Conv2D: ReferenceConv2D, LSTMCell: ReferenceLSTMCell}
_PADDED_ORACLES = {
    Conv2D: PaddedConv2D,
    Dense: FullGradDense,
    LSTMCell: FullGradLSTMCell,
    Sequential: FullGradSequential,
}


def _switch_layers(model, oracles: dict) -> None:
    """Switch every layer ``model`` holds — as an attribute, or inside a
    (nested) :class:`Sequential` — whose exact type has an oracle."""
    items = model.layers if isinstance(model, Sequential) else vars(model).values()
    for item in items:
        if isinstance(item, Layer):
            if isinstance(item, Sequential):
                _switch_layers(item, oracles)
            if type(item) in oracles:
                item.__class__ = oracles[type(item)]


def use_reference_training(model):
    """Switch a model's training path to the oracles, in place.

    ``model`` is a :class:`Conv2D` or :class:`LSTMCell` layer, a
    :class:`BoostedTrees`, a network (every Conv2D and LSTMCell layer it
    holds, directly or in a :class:`Sequential`), or a
    :class:`HybridPredictor` (its CNN and its trees).
    """
    if type(model) in _LAYER_ORACLES:
        model.__class__ = _LAYER_ORACLES[type(model)]
    elif isinstance(model, HybridPredictor):
        use_reference_training(model.cnn)
        use_reference_training(model.trees)
    elif isinstance(model, BoostedTrees):
        model.__class__ = ReferenceBoostedTrees
    else:
        _switch_layers(model, _LAYER_ORACLES)
    return model


def use_padded_training(model):
    """Switch a model to the bit-exact training oracles, in place.

    ``model`` is a layer, a network or a :class:`HybridPredictor` (its
    CNN; :func:`use_reference_training` switches the trees).  Every
    :class:`Conv2D` trains on :class:`PaddedConv2D`, and every
    :class:`Dense`, :class:`LSTMCell` and :class:`Sequential` computes
    its input gradient even where production skips it.
    """
    if type(model) in _PADDED_ORACLES:
        if isinstance(model, Sequential):
            _switch_layers(model, _PADDED_ORACLES)
        model.__class__ = _PADDED_ORACLES[type(model)]
    elif isinstance(model, HybridPredictor):
        use_padded_training(model.cnn)
    else:
        _switch_layers(model, _PADDED_ORACLES)
    return model
