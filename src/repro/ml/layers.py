"""Neural-network layers with manual backpropagation.

Minimal but complete: every layer implements ``forward``/``backward``
and exposes parameter/gradient pairs for the optimizers in
:mod:`repro.ml.optim`.  Convolution uses im2col so the heavy lifting is
a single matrix multiply; the column matrix is built, and folded back,
in one compiled-kernel call each (by padding and one copy or add per
kernel tap without a kernel).

``backward(dout, input_grad=False)`` on a layer with parameters fills
its parameter gradients and skips the gradient with respect to its
input, returning None: a network's input layers have nobody to pass
that gradient to.

A layer is its parameters.  What ``backward`` needs is kept by a
training forward only (``training=True``); pickling or deep-copying a
layer drops that per-batch state and the gradient buffers, which come
back as zeros the next time training asks for them.  A served model
therefore carries its weights and nothing else.

Two users keep arrays in a grow-only :class:`Workspace` instead of
fresh ones.  The decision path hands ``Dense`` a caller's array
(``out``) and has ``ReLU`` rectify in place.  Inside
:meth:`repro.ml.network.NeuralRegressor.fit` a training forward and
backward take their temporaries, the ReLU's output and mask aside, from
the fit's workspace (:meth:`Layer._scratch`).  Either way every GEMM and
every reduction sees the operands, in the memory layouts, it sees on
fresh arrays, so the bits are the same.
"""

from __future__ import annotations

import math
from collections.abc import Hashable

import numpy as np

from repro.sim import _ckernel


class Layer:
    """Base class: stateless by default (no parameters)."""

    #: Attributes holding per-batch state for ``backward``; never pickled.
    _backward_state: tuple[str, ...] = ()
    #: The workspace of the fit this layer is training in, if any: set
    #: and taken back by :meth:`repro.ml.network.NeuralRegressor.fit`.
    _workspace: Workspace | None = None

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
        for name in self._backward_state + ("_workspace", "dW", "db"):
            state.pop(name, None)
        return state

    def _release(self) -> None:
        """Forget the last training forward and the fit's workspace, as
        a pickle of this layer does."""
        for name in self._backward_state + ("_workspace",):
            self.__dict__.pop(name, None)

    def _scratch(
        self, name: str, shape: tuple[int, ...], *, transient: bool = False
    ) -> np.ndarray:
        """An uninitialized C-contiguous float64 array for a training
        forward or backward: buffer ``name`` of the fit's workspace while
        a fit runs, a new array otherwise.  A ``transient`` array is dead
        before the call that took it returns, so every layer shares the
        buffer; any other is this layer's own and keeps its values until
        the layer's next training step."""
        workspace = self._workspace
        if workspace is None:
            return np.empty(shape)
        return workspace.get(name if transient else (id(self), name), shape)

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
    same way.  They are C-contiguous, as the weights are, and backward
    writes its ``dW`` GEMM straight into ``dW``.
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

    def forward(
        self, x: np.ndarray, training: bool = False, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``x @ W + b``, into ``out`` when one is given (a C-contiguous
        ``(len(x), out_dim)`` array; a training forward takes its own
        from :meth:`_scratch`).  ``out`` or not, it is one GEMM on the
        same operands and then an add of ``b``, so the same bits."""
        self._x = x if training else None
        if training and out is None:
            out = self._scratch("out", (len(x), self.W.shape[1]))
        y = np.matmul(x, self.W, out=out)
        y += self.b
        return y

    def backward(
        self, dout: np.ndarray, *, input_grad: bool = True
    ) -> np.ndarray | None:
        if self._x is None:
            raise self._needs_training_forward()
        np.matmul(self._x.T, dout, out=self.dW)
        self.db[...] = dout.sum(axis=0)
        if not input_grad:
            return None
        dx = self._scratch("dx", (len(dout), self.W.shape[0]))
        return np.matmul(dout, self.W.T, out=dx)


class ReLU(Layer):
    _backward_state = ("_mask",)
    _mask: np.ndarray | None = None

    def forward(
        self, x: np.ndarray, training: bool = False, inplace: bool = False
    ) -> np.ndarray:
        """``np.where(x > 0, x, 0.0)`` in ``x``'s memory layout, written
        over ``x`` itself when ``inplace``.  Every entry where ``x > 0``
        fails becomes +0.0, NaN and -0.0 included; ``np.maximum(x, 0.0)``
        would keep both.

        It is each entry's bit pattern times the mask's 1 or 0, an
        integer product: the entry itself or all zero bits, which are
        +0.0.  So ``np.where``'s bits, in a fifth of its time on a conv's
        training batch."""
        mask = x > 0
        # Kept C-contiguous for backward: the gradient comes back
        # C-contiguous or channel-major, and numpy multiplies by a mask
        # laid out as a conv's output is on a path five times slower.
        self._mask = np.ascontiguousarray(mask) if training else None
        out = x if inplace else np.empty_like(x)
        bits = np.dtype(f"u{x.itemsize}")
        np.multiply(x.view(bits), mask, out=out.view(bits))
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """``dout * mask`` into a C-contiguous :meth:`_scratch` array,
        the layout numpy gives that product: the mask is C-contiguous,
        and where ``dout`` is laid out otherwise (a column slice, a
        conv's channel-major gradient) numpy resolves the conflict in C
        order."""
        if self._mask is None:
            raise self._needs_training_forward()
        grad = self._scratch("grad", dout.shape)
        return np.multiply(dout, self._mask, out=grad)


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
        """``x.reshape(len(x), -1)``.  Where that copies, a training
        forward copies into :meth:`_scratch` instead: the same C-order
        values, and the next layer keeps them for its backward."""
        self._shape = x.shape if training else None
        if not training or _merges_to_view(x.shape[1:], x.strides[1:]):
            return x.reshape(x.shape[0], -1)
        out = self._scratch("out", (x.shape[0], math.prod(x.shape[1:])))
        out.reshape(x.shape)[...] = x
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise self._needs_training_forward()
        return dout.reshape(self._shape)


class Conv2D(_Weighted):
    """Stride-1 "same" 2D convolution over (B, C, H, W) tensors.

    In the latency predictor, H indexes tiers and W indexes timestamps,
    so a k x k kernel fuses k adjacent tiers over k adjacent intervals —
    how the paper's CNN learns inter-tier dependencies (Section 3.1).

    Both modes build the same ``(C*k*k, B*H*W)`` im2col matrix ``cols``
    and run one GEMM against ``K = W.reshape(C*k*k, O)``; they differ
    in its orientation:

    * **Training** (``training=True``) runs ``cols.T @ K`` and keeps
      ``cols``; backward is one GEMM for ``dW`` (against ``cols``) and
      one GEMM back to column space, written over ``cols``, followed
      by a col2im fold for ``dx``.  Its arrays (``cols``, the forward's
      GEMM output, the ``dout`` copy where numpy's reshape makes one,
      the folded gradient) come from :meth:`Layer._scratch`: a fit's
      workspace, or new arrays.
    * **Inference** (``training=False``) runs ``K.T @ cols`` and keeps
      nothing.  These are the operands, in the same layouts, that
      numpy's ``einsum`` hands to ``matmul`` for the padded
      sliding-window contraction (an ``(O, C*k*k)`` view of ``W`` with
      strides ``(8, 8*O)`` and C-contiguous windows), and the
      ``(O, B*H*W)`` product is viewed as ``(B, H, W, O)`` as einsum
      views it: outputs equal the einsum oracle in
      ``tests/oracles/training.py`` byte for byte, memory layout
      included, at every batch size.  The shared-trunk decision path
      (:meth:`repro.ml.cnn.LatencyCNN.predict_candidates`) needs one
      window's output to equal every image of the output on B copies
      of it.  That holds because the BLAS gives each column of this
      product the same bits whatever the column count: a property of
      its kernels, not a guarantee, pinned at the served shapes in
      ``tests/ml/test_layers.py``.  It holds on two OpenBLAS threads
      and not on one: under ``OPENBLAS_NUM_THREADS=1`` some windows of
      a B-window product get other bits than its first window (the
      12-channel conv at B = 7, 13, 27 and 93 of the sizes tried), so
      the pin fails there, and the served 236-candidate scores differ
      between one thread and two.  Decisions are bitwise for one
      thread count, not across thread counts.

    Both folds are one call each into the compiled kernel
    (:mod:`repro.sim._ckernel`).  Without a kernel they run on the
    padded input: :meth:`_im2col_padded` pads ``x`` with +0.0 and
    copies each kernel tap's window into its rows of ``cols``, and
    :meth:`_col2im_padded` adds each tap's rows, taps in ``(i, j)``
    order, onto a zeroed padded gradient whose interior is ``dx``.  They
    are the kernel's pin: ``sinan_im2col`` fills ``cols`` with the same
    values by copies and +0.0 alone, reading ``x`` in place
    (C-contiguous, or a ReLU's ``(B, H, W, C)``-ordered output), and
    ``sinan_col2im`` starts each input gradient at +0.0 and adds its
    on-grid taps in ``(i, j)`` order, the padded sums' terms in their
    order.  So both backends give the same bits, and training outputs
    and gradients match the padded oracle in ``tests/oracles/training.py``
    byte for byte (and the einsum oracle there to ~1e-10).

    :meth:`backward` needs a training-mode forward first: an inference
    forward keeps no state to differentiate, and a backward that
    computes ``dx`` has used the column matrix up.  ``input_grad=False``
    skips the ``dcols`` GEMM and the fold.
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

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        B, C, H, W = x.shape
        if C != self.in_ch:
            raise ValueError(f"expected {self.in_ch} channels, got {C}")
        O = self.out_ch
        cols = self._im2col(x, training)
        kernel = self.W.reshape(len(cols), O)
        if training:
            self._x_shape = x.shape
            self._cols = cols
            out = np.matmul(cols.T, kernel, out=self._scratch("out", (B * H * W, O)))
            out = out.reshape(B, H, W, O)
        else:
            self._cols = None
            out = (kernel.T @ cols).reshape(O, B, H, W).transpose(1, 2, 3, 0)
        out += self.b
        return out.transpose(0, 3, 1, 2)

    def backward(
        self, dout: np.ndarray, *, input_grad: bool = True
    ) -> np.ndarray | None:
        if self._cols is None:
            raise self._needs_training_forward()
        return self._backward_im2col(dout, input_grad)

    # -- im2col / col2im ---------------------------------------------------

    def _im2col(self, x: np.ndarray, training: bool) -> np.ndarray:
        """The ``(C*k*k, B*H*W)`` column matrix of ``x``, C-contiguous,
        rows in the ``(c, i, j)`` order of ``W.reshape(C*k*k, O)``: in
        :meth:`Layer._scratch` for a training forward, new otherwise."""
        B, C, H, W = x.shape
        k = self.kernel
        n = B * H * W
        if training:
            cols = self._scratch("cols", (C, k * k, n))
        else:
            cols = np.empty((C, k * k, n))
        compiled = _ckernel.load_kernel()
        if compiled is None:
            self._im2col_padded(x, cols)
        else:
            ffi, lib = compiled
            x, base = _kernel_input(x)
            lib.sinan_im2col(
                B, C, H, W, k, ffi.from_buffer("double[]", base),
                *(s // 8 for s in x.strides), ffi.from_buffer("double[]", cols),
            )
        return cols.reshape(C * k * k, n)

    def _im2col_padded(self, x: np.ndarray, cols: np.ndarray) -> None:
        """:meth:`_im2col` without the kernel: ``x`` padded with +0.0,
        then one strided copy per kernel tap fills its rows of the
        C-contiguous ``cols`` (``C*k*k*B*H*W`` elements)."""
        B, C, H, W = x.shape
        k = self.kernel
        pad = k // 2
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        taps = cols.reshape(C, k, k, B, H, W)
        for i in range(k):
            for j in range(k):
                np.copyto(
                    taps[:, i, j],
                    xp[:, :, i : i + H, j : j + W].transpose(1, 0, 2, 3),
                )

    def _backward_im2col(
        self, dout: np.ndarray, input_grad: bool
    ) -> np.ndarray | None:
        B, C, H, W = self._x_shape
        k = self.kernel
        O = self.out_ch
        n = B * H * W
        cols = self._cols
        # A copy only where numpy's reshape copies: at B = 1 the
        # F-ordered view stays, and with it the GEMMs' operand layouts.
        hwo = dout.transpose(0, 2, 3, 1)
        if _merges_to_view(hwo.shape[:3], hwo.strides[:3]):
            dout_mat = hwo.reshape(n, O)
        else:
            dout_mat = self._scratch("dout", (n, O), transient=True)
            dout_mat.reshape(B, H, W, O)[...] = hwo
        kernel = self.W.reshape(C * k * k, O)
        np.matmul(cols, dout_mat, out=self.dW.reshape(C * k * k, O))
        self.db[...] = dout_mat.sum(axis=0)
        if not input_grad:
            return None
        # dx: one GEMM back to column space, written over the column
        # matrix (dW has read it), then fold the k*k taps back onto the
        # input (col2im), each element's taps in (i, j) order.
        self._cols = None
        dcols = np.matmul(kernel, dout_mat.T, out=cols)
        dx = self._scratch("dx", (C, n))
        self._col2im(dcols, dx)
        # A (B, C, H, W) view, like the padded fold's: the ReLU below
        # still multiplies it into a C-contiguous gradient, so the next
        # conv's dout_mat keeps its layout (and its GEMMs their bits).
        return dx.reshape(C, B, H, W).transpose(1, 0, 2, 3)

    def _col2im(self, dcols: np.ndarray, dx: np.ndarray) -> None:
        """Fold the C-contiguous ``(C*k*k, B*H*W)`` column gradient
        ``dcols`` of the last training forward into ``dx``, ``(C,
        B*H*W)``: each input element's on-grid taps summed from +0.0 in
        ``(i, j)`` order."""
        compiled = _ckernel.load_kernel()
        if compiled is None:
            self._col2im_padded(dcols, dx)
            return
        B, C, H, W = self._x_shape
        ffi, lib = compiled
        lib.sinan_col2im(
            B, C, H, W, self.kernel, ffi.from_buffer("double[]", dcols),
            ffi.from_buffer("double[]", dx),
        )

    def _col2im_padded(self, dcols: np.ndarray, dx: np.ndarray) -> None:
        """:meth:`_col2im` without the kernel: each tap's rows of
        ``dcols`` added, taps in ``(i, j)`` order, onto a zeroed padded
        gradient, whose interior is copied into ``dx``."""
        B, C, H, W = self._x_shape
        k = self.kernel
        pad = k // 2
        dxp = np.zeros((C, B, H + 2 * pad, W + 2 * pad))
        taps = dcols.reshape(C, k, k, B, H, W)
        for i in range(k):
            for j in range(k):
                dxp[:, :, i : i + H, j : j + W] += taps[:, i, j]
        dx.reshape(C, B, H, W)[...] = dxp[:, :, pad : pad + H, pad : pad + W]


class LSTMCell(_Weighted):
    """Single-layer LSTM over (B, T, D) sequences, returning (B, H).

    Standard gates with fused weight matrix; full backpropagation
    through time.  Used by the Table 2 LSTM comparison model.

    The input half of the gate projection is hoisted out of the
    timestep loop — one ``(B*T, D) @ (D, 4H)`` GEMM for the whole
    sequence — leaving only the ``h @ W_h`` recurrence per step; backward
    writes the four gate gradients into one ``(B, T, 4H)`` buffer (no
    per-step ``concatenate``), accumulates ``dW_h`` per step, and
    recovers ``dW_x`` / ``dx`` / ``db`` with single whole-sequence GEMMs.  It agrees with the per-step concatenated oracle in
    ``tests/oracles/training.py`` to float rounding (~1e-10), since a
    split GEMM sums products in a different order than the fused one.

    Only a training forward keeps the sequence and fills the caches, which
    come from :meth:`Layer._scratch`; an inference forward (validation,
    prediction) leaves them alone, so :meth:`backward` after it raises.
    """

    _backward_state = ("_x", "_gate_acts", "_c_prev", "_tanh_c", "_h_prev")
    _x: np.ndarray | None = None

    def __init__(self, in_dim: int, hidden: int, rng: np.random.Generator) -> None:
        scale = np.sqrt(1.0 / (in_dim + hidden))
        self.W = rng.normal(0.0, scale, size=(in_dim + hidden, 4 * hidden))
        self.b = np.zeros(4 * hidden)
        # Forget-gate bias starts positive: remember by default.
        self.b[hidden : 2 * hidden] = 1.0
        self.hidden = hidden
        self.in_dim = in_dim

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        B, T, D = x.shape
        H = self.hidden
        self._x = x if training else None
        if training:
            # Every element is written below before backward reads it.
            # The gate activations in i, f, o, g order.
            self._gate_acts = self._scratch("gate_acts", (4, B, T, H))
            self._c_prev = self._scratch("c_prev", (B, T, H))
            self._tanh_c = self._scratch("tanh_c", (B, T, H))
            self._h_prev = self._scratch("h_prev", (B, T, H))
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
        dgates = self._scratch("dgates", (B, T, 4 * H))
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


class Workspace:
    """Grow-only scratch buffers, one per name, for a path that runs the
    same shapes call after call.  Two paths use one:

    * the decision path (:meth:`repro.ml.cnn.LatencyCNN.predict_candidates`
      and :meth:`repro.core.predictor.HybridPredictor.predict_candidates`),
      whose owner keeps it out of pickles and copies (``__getstate__``)
      and makes it again on first use (:meth:`of`);
    * a fit's training steps: :meth:`repro.ml.network.NeuralRegressor.fit`
      makes one when it starts, lends it to every layer, and takes it
      back when it returns or raises.  A layer's own buffers go by
      ``(id(layer), name)``, those all layers share by ``name``
      (:meth:`Layer._scratch`).

    :meth:`get` returns a C-contiguous float64 view of the first
    ``prod(shape)`` elements of the named buffer, which grows when a call
    needs more and never shrinks.  A view still holds an earlier call's
    values, so a caller writes every element before reading it and hands
    nothing that shares its memory back to its own caller.  A workspace
    serves one call at a time.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    @staticmethod
    def of(owner) -> "Workspace":
        """``owner``'s workspace, its ``_workspace`` attribute, made on
        first use."""
        workspace = owner.__dict__.get("_workspace")
        if workspace is None:
            workspace = owner._workspace = Workspace()
        return workspace

    def get(self, name: Hashable, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)

    def concatenate(self, name: str, parts: list[np.ndarray]) -> np.ndarray:
        """``np.concatenate(parts, axis=1)`` of 2-D ``parts`` with equal
        row counts, written into the named buffer: the width is the
        parts' own, so the caller's column layout lives in ``parts``."""
        width = sum(part.shape[1] for part in parts)
        out = self.get(name, (len(parts[0]), width))
        return np.concatenate(parts, axis=1, out=out)


def _kernel_input(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x``, a ``(B, C, H, W)`` array, as the kernel's im2col reads it:
    float64 and aligned, with a C-contiguous view (of ``x`` itself or,
    for a ReLU's ``(B, H, W, C)``-ordered output, of its channels-last
    transpose) that starts at its first element.  Returns ``(x, view)``;
    ``x`` is a float64 copy where it had neither, which keeps every value
    (a float32 widens exactly)."""
    if x.dtype == np.float64 and x.flags.aligned:
        if x.flags.c_contiguous:
            return x, x
        view = x.transpose(0, 2, 3, 1)
        if view.flags.c_contiguous:
            return x, view
    x = np.array(x, dtype=np.float64, order="C")
    return x, x


def _merges_to_view(shape: tuple[int, ...], strides: tuple[int, ...]) -> bool:
    """Whether numpy's reshape merges axes of these lengths and strides
    into one axis without a copy.  Its rule: leaving out length-1 axes,
    each axis's stride must be the next one's times its length."""
    axes = [(n, s) for n, s in zip(shape, strides) if n != 1]
    return all(s == n * t for (_, s), (n, t) in zip(axes, axes[1:]))


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
    "Workspace",
]
