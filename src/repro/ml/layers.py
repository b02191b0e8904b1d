"""Neural-network layers with manual backpropagation.

Minimal but complete: every layer implements ``forward``/``backward``
and exposes parameter/gradient pairs for the optimizers in
:mod:`repro.ml.optim`.  Convolution uses im2col so the heavy lifting is
a single matrix multiply; the column matrix is built from, and folded
back into, shifted contiguous runs of a channel-major copy of the input.

``backward(dout, input_grad=False)`` on a layer with parameters fills
its parameter gradients and skips the gradient with respect to its
input, returning None: a network's input layers have nobody to pass
that gradient to.

A layer is its parameters.  What ``backward`` needs is kept by a
training forward only (``training=True``); pickling or deep-copying a
layer drops that per-batch state and the gradient buffers, which come
back as zeros the next time training asks for them.  A served model
therefore carries its weights and nothing else.
"""

from __future__ import annotations

import numpy as np


class Layer:
    """Base class: stateless by default (no parameters)."""

    #: Attributes holding per-batch state for ``backward``; never pickled.
    _backward_state: tuple[str, ...] = ()

    def params(self) -> list[np.ndarray]:
        """Trainable parameter arrays (mutated in place by optimizers)."""
        return []

    def grads(self) -> list[np.ndarray]:
        """Gradient arrays, aligned with :meth:`params`."""
        return []

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(
        self, dout: np.ndarray, *, input_grad: bool = True
    ) -> np.ndarray | None:
        """Gradients of the most recent training forward: fills
        :meth:`grads` and returns the gradient with respect to the input,
        or None when ``input_grad`` is False (which only layers with
        parameters are asked)."""
        raise NotImplementedError

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for name in self._backward_state + ("dW", "db"):
            state.pop(name, None)
        return state

    def _needs_training_forward(self) -> RuntimeError:
        return RuntimeError(
            f"{type(self).__name__}.backward needs a training-mode forward first"
        )

    @property
    def n_params(self) -> int:
        return int(sum(p.size for p in self.params()))


class _Weighted(Layer):
    """A layer with weights ``W`` and bias ``b``.

    The gradient buffers ``dW``/``db`` are allocated as zeros on first
    access, so a freshly built, unpickled or copied layer trains the
    same way.
    """

    def params(self) -> list[np.ndarray]:
        return [self.W, self.b]

    def grads(self) -> list[np.ndarray]:
        return [self.dW, self.db]

    def __getattr__(self, name: str):
        # Reached only when normal lookup fails: a missing gradient buffer.
        if name in ("dW", "db"):
            grad = np.zeros_like(self.W if name == "dW" else self.b)
            setattr(self, name, grad)
            return grad
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )


class Dense(_Weighted):
    """Fully-connected layer ``y = x @ W + b``."""

    _backward_state = ("_x",)
    _x: np.ndarray | None = None

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator) -> None:
        scale = np.sqrt(2.0 / in_dim)
        self.W = rng.normal(0.0, scale, size=(in_dim, out_dim))
        self.b = np.zeros(out_dim)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x = x if training else None
        return x @ self.W + self.b

    def backward(
        self, dout: np.ndarray, *, input_grad: bool = True
    ) -> np.ndarray | None:
        if self._x is None:
            raise self._needs_training_forward()
        self.dW[...] = self._x.T @ dout
        self.db[...] = dout.sum(axis=0)
        return dout @ self.W.T if input_grad else None


class ReLU(Layer):
    _backward_state = ("_mask",)
    _mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        mask = x > 0
        self._mask = mask if training else None
        return np.where(mask, x, 0.0)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise self._needs_training_forward()
        return dout * self._mask


class Sigmoid(Layer):
    _backward_state = ("_y",)
    _y: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        y = _sigmoid(x)
        self._y = y if training else None
        return y

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise self._needs_training_forward()
        return dout * self._y * (1.0 - self._y)


class Tanh(Layer):
    _backward_state = ("_y",)
    _y: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        y = np.tanh(x)
        self._y = y if training else None
        return y

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise self._needs_training_forward()
        return dout * (1.0 - self._y * self._y)


class Flatten(Layer):
    _backward_state = ("_shape",)
    _shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._shape = x.shape if training else None
        return x.reshape(x.shape[0], -1)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise self._needs_training_forward()
        return dout.reshape(self._shape)


class Conv2D(_Weighted):
    """Stride-1 "same" 2D convolution over (B, C, H, W) tensors.

    In the latency predictor, H indexes tiers and W indexes timestamps,
    so a k x k kernel fuses k adjacent tiers over k adjacent intervals —
    how the paper's CNN learns inter-tier dependencies (Section 3.1).

    The forward pass depends on the mode:

    * **Inference** (``training=False``) uses sliding-window views and
      ``einsum``.  The einsum contraction is batch-invariant down to the
      bit, which the shared-trunk decision path depends on (see
      :meth:`repro.ml.cnn.LatencyCNN.predict_candidates`) — it must not
      be swapped for a GEMM, whose rounding depends on the batch size.
    * **Training** (``training=True``) materializes the im2col matrix
      once and runs a single GEMM forward; backward is one GEMM for
      ``dW`` (against the saved im2col matrix) and one GEMM back to
      column space followed by a col2im fold for ``dx``.

    Both folds work on shifted runs.  With the input copied channel-major
    to ``(C, B*H*W)``, the kernel tap ``(di, dj)`` (offsets from the
    centre) reads row ``c`` shifted by ``s = di*W + dj``: one contiguous
    copy per channel fills the tap's rows of the column matrix.  The
    entries whose source ``(h+di, w+dj)`` falls off the grid — exactly
    those the shift pulled from a neighbouring row or image — are then
    set to 0.0, the value "same" padding supplies.  col2im zeroes the
    same entries of each ``dcols`` tap (their gradient belongs to the
    padding) and adds the tap's run, shifted back, into a zeroed
    ``(C, B*H*W)`` gradient, taps in ``(i, j)`` order.  Every input
    gradient is the padded scatter-add's sequence of sums plus extra
    ``+0.0`` terms, which are exact no-ops (a sum started at +0.0 never
    becomes -0.0), and the three GEMMs see the same operands, in the
    same layouts, as the padded version, so outputs and gradients match
    the padded oracle in ``tests/oracles/training.py`` byte for byte
    (and the einsum oracle there to ~1e-10).

    :meth:`backward` needs a training-mode forward first: an inference
    forward keeps no state to differentiate.  ``input_grad=False`` skips
    the ``dcols`` GEMM and the fold.
    """

    _backward_state = ("_cols", "_x_shape")
    _cols: np.ndarray | None = None

    def __init__(
        self, in_ch: int, out_ch: int, kernel: int, rng: np.random.Generator
    ) -> None:
        if kernel % 2 == 0:
            raise ValueError("kernel must be odd for 'same' padding")
        scale = np.sqrt(2.0 / (in_ch * kernel * kernel))
        self.W = rng.normal(0.0, scale, size=(in_ch, kernel, kernel, out_ch))
        self.b = np.zeros(out_ch)
        self.kernel = kernel
        self.in_ch = in_ch
        self.out_ch = out_ch
        self._fwd_path: tuple[tuple, list] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        B, C, H, W = x.shape
        if C != self.in_ch:
            raise ValueError(f"expected {self.in_ch} channels, got {C}")
        if training:
            return self._forward_im2col(x)
        return self._forward_einsum(x)

    def backward(
        self, dout: np.ndarray, *, input_grad: bool = True
    ) -> np.ndarray | None:
        if self._cols is None:
            raise self._needs_training_forward()
        return self._backward_im2col(dout, input_grad)

    # -- im2col training path ------------------------------------------

    def _forward_im2col(self, x: np.ndarray) -> np.ndarray:
        B, C, H, W = x.shape
        k = self.kernel
        n = B * H * W
        self._x_shape = x.shape
        # The input once, channel-major.  32 images at a time: a ReLU
        # hands x over (B, H, W, C)-ordered, and transposing the whole
        # batch at once runs out of cache.
        src = np.empty((C, B, H, W))
        for b in range(0, B, 32):
            src[:, b : b + 32] = x[b : b + 32].transpose(1, 0, 2, 3)
        src = src.reshape(C, n)
        # im2col matrix (C*k*k, B*H*W): rows follow the (c, i, j) order
        # of W.reshape(C*k*k, O); BLAS handles the transposed GEMM
        # operand without a copy.  One channel at a time, so each run is
        # still in cache when its off-grid entries are zeroed.
        cols = np.empty((C, k * k, n))
        taps = _tap_shifts(k, B, H, W)
        for c in range(C):
            for run, (di, dj, s, lo, hi) in zip(cols[c], taps):
                run[lo:hi] = src[c, lo + s : hi + s]
                # Entries outside [lo, hi) are off the grid too.
                _zero_off_grid(run, H, W, di, dj)
        self._cols = cols.reshape(C * k * k, n)
        out = self._cols.T @ self.W.reshape(C * k * k, self.out_ch)
        out += self.b
        return out.reshape(B, H, W, self.out_ch).transpose(0, 3, 1, 2)

    def _backward_im2col(
        self, dout: np.ndarray, input_grad: bool
    ) -> np.ndarray | None:
        B, C, H, W = self._x_shape
        k = self.kernel
        O = self.out_ch
        n = B * H * W
        dout_mat = dout.transpose(0, 2, 3, 1).reshape(n, O)
        self.dW[...] = (self._cols @ dout_mat).reshape(C, k, k, O)
        self.db[...] = dout_mat.sum(axis=0)
        if not input_grad:
            return None
        # dx: one GEMM back to column space, then fold the k*k taps
        # back onto the input (col2im), each element's taps in (i, j)
        # order.
        dcols = (self.W.reshape(C * k * k, O) @ dout_mat.T).reshape(C, k * k, n)
        dx = np.zeros((C, n), dtype=dout.dtype)
        taps = _tap_shifts(k, B, H, W)
        for c in range(C):
            for run, (di, dj, s, lo, hi) in zip(dcols[c], taps):
                _zero_off_grid(run, H, W, di, dj)
                dx[c, lo + s : hi + s] += run[lo:hi]
        # A (B, C, H, W) view, like the padded fold's: the ReLU below
        # still multiplies it into a C-contiguous gradient, so the next
        # conv's dout_mat keeps its layout (and its GEMMs their bits).
        return dx.reshape(C, B, H, W).transpose(1, 0, 2, 3)

    # -- einsum inference path ----------------------------------------

    def _forward_einsum(self, x: np.ndarray) -> np.ndarray:
        pad = self.kernel // 2
        self._cols = None
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        # (B, C, H, W, k, k) zero-copy view of all kernel positions.
        windows = np.lib.stride_tricks.sliding_window_view(
            xp, (self.kernel, self.kernel), axis=(2, 3)
        )
        # The greedy contraction-path search is a per-call cost worth
        # skipping on the decision hot path: memoize it per input shape.
        cached = self.__dict__.get("_fwd_path")
        if cached is None or cached[0] != windows.shape:
            path = np.einsum_path(
                "bchwij,cijo->bhwo", windows, self.W, optimize=True
            )[0]
            self._fwd_path = cached = (windows.shape, path)
        out = np.einsum(
            "bchwij,cijo->bhwo", windows, self.W, optimize=cached[1]
        )
        out += self.b
        return out.transpose(0, 3, 1, 2)


class LSTMCell(_Weighted):
    """Single-layer LSTM over (B, T, D) sequences, returning (B, H).

    Standard gates with fused weight matrix; full backpropagation
    through time.  Used by the Table 2 LSTM comparison model.

    The input half of the gate projection is hoisted out of the
    timestep loop — one ``(B*T, D) @ (D, 4H)`` GEMM for the whole
    sequence — leaving only the ``h @ W_h`` recurrence per step; backward
    writes the four gate gradients into one preallocated ``(B, T, 4H)``
    buffer (no per-step ``concatenate``), accumulates ``dW_h`` per step,
    and recovers ``dW_x`` / ``dx`` / ``db`` with single whole-sequence
    GEMMs.  It agrees with the per-step concatenated oracle in
    ``tests/oracles/training.py`` to float rounding (~1e-10), since a
    split GEMM sums products in a different order than the fused one.

    Only a training forward keeps the sequence and fills the buffers; an
    inference forward (validation, prediction) leaves them alone, so
    :meth:`backward` after it raises.
    """

    _backward_state = (
        "_x", "_buf_shape", "_gate_acts", "_c_prev", "_tanh_c", "_h_prev", "_dgates",
    )
    _x: np.ndarray | None = None

    def __init__(self, in_dim: int, hidden: int, rng: np.random.Generator) -> None:
        scale = np.sqrt(1.0 / (in_dim + hidden))
        self.W = rng.normal(0.0, scale, size=(in_dim + hidden, 4 * hidden))
        self.b = np.zeros(4 * hidden)
        # Forget-gate bias starts positive: remember by default.
        self.b[hidden : 2 * hidden] = 1.0
        self.hidden = hidden
        self.in_dim = in_dim

    def _buffers(self, B: int, T: int) -> None:
        """(Re)allocate the per-sequence caches only on a shape change."""
        H = self.hidden
        cached = self.__dict__.get("_buf_shape")
        if cached == (B, T):
            return
        self._buf_shape = (B, T)
        self._gate_acts = np.empty((4, B, T, H))  # i, f, o, g
        self._c_prev = np.empty((B, T, H))
        self._tanh_c = np.empty((B, T, H))
        self._h_prev = np.empty((B, T, H))
        self._dgates = np.empty((B, T, 4 * H))

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        B, T, D = x.shape
        H = self.hidden
        self._x = x if training else None
        if training:
            self._buffers(B, T)
            ig, fg, og, gg = self._gate_acts
        # All timestep input projections in one GEMM; the recurrence
        # keeps only the (B, H) @ (H, 4H) product per step.
        x_proj = (x.reshape(B * T, D) @ self.W[:D]).reshape(B, T, 4 * H)
        W_h = self.W[D:]
        h = np.zeros((B, H))
        c = np.zeros((B, H))
        for t in range(T):
            gates = h @ W_h
            gates += x_proj[:, t]
            gates += self.b
            i = _sigmoid(gates[:, :H])
            f = _sigmoid(gates[:, H : 2 * H])
            o = _sigmoid(gates[:, 2 * H : 3 * H])
            g = np.tanh(gates[:, 3 * H :])
            if training:
                self._h_prev[:, t] = h
                self._c_prev[:, t] = c
                ig[:, t], fg[:, t], og[:, t], gg[:, t] = i, f, o, g
            c = f * c + i * g
            tanh_c = np.tanh(c)
            if training:
                self._tanh_c[:, t] = tanh_c
            h = o * tanh_c
        return h

    def backward(
        self, dout: np.ndarray, *, input_grad: bool = True
    ) -> np.ndarray | None:
        x = self._x
        if x is None:
            raise self._needs_training_forward()
        B, T, D = x.shape
        H = self.hidden
        W_h = self.W[D:]
        ig, fg, og, gg = self._gate_acts
        dgates = self._dgates
        dWh = np.zeros((H, 4 * H))
        dh = dout
        dc = np.zeros((B, H))
        for t in reversed(range(T)):
            i, f, o, g = ig[:, t], fg[:, t], og[:, t], gg[:, t]
            tanh_c = self._tanh_c[:, t]
            do = dh * tanh_c
            dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
            dg_t = dgates[:, t]
            np.multiply((dc * g) * i, 1.0 - i, out=dg_t[:, :H])
            np.multiply((dc * self._c_prev[:, t]) * f, 1.0 - f, out=dg_t[:, H : 2 * H])
            np.multiply(do * o, 1.0 - o, out=dg_t[:, 2 * H : 3 * H])
            np.multiply(dc * i, 1.0 - g * g, out=dg_t[:, 3 * H :])
            dWh += self._h_prev[:, t].T @ dg_t
            dh = dg_t @ W_h.T
            dc = dc * f
        flat = dgates.reshape(B * T, 4 * H)
        self.dW[:D] = x.reshape(B * T, D).T @ flat
        self.dW[D:] = dWh
        self.db[...] = flat.sum(axis=0)
        if not input_grad:
            return None
        return (flat @ self.W[:D].T).reshape(B, T, D)


def _tap_shifts(
    k: int, B: int, H: int, W: int
) -> list[tuple[int, int, int, int, int]]:
    """Per tap of a k x k kernel, in ``(i, j)`` order: its offsets
    ``(di, dj)`` from the centre, its flat shift ``s = di*W + dj`` and
    the range ``[lo, hi)`` of flat positions whose source ``n + s`` lies
    inside the ``B*H*W`` batch (empty when none does)."""
    n = B * H * W
    span = range(-(k // 2), k // 2 + 1)
    taps = []
    for di in span:
        for dj in span:
            s = di * W + dj
            lo = max(0, -s)
            taps.append((di, dj, s, lo, max(lo, min(n, n - s))))
    return taps


def _zero_off_grid(run: np.ndarray, H: int, W: int, di: int, dj: int) -> None:
    """Set to 0.0 the entries of one tap's ``(B*H*W,)`` run whose source
    ``(h+di, w+dj)`` lies off the ``H x W`` grid."""
    grid = run.reshape(-1, H, W)  # a view: the run is contiguous
    if di < 0:
        grid[:, :-di] = 0.0
    elif di > 0:
        grid[:, max(H - di, 0) :] = 0.0
    if dj < 0:
        grid[:, :, :-dj] = 0.0
    elif dj > 0:
        grid[:, :, max(W - dj, 0) :] = 0.0


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


__all__ = [
    "Layer",
    "Dense",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "Flatten",
    "Conv2D",
    "LSTMCell",
]
