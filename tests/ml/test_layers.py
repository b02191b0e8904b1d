"""Layer-level tests with numerical gradient checks."""

import copy

import numpy as np
import pytest

from repro.ml import layers
from repro.ml.cnn import _shared_block_rows
from repro.ml.layers import (
    Conv2D,
    Dense,
    Flatten,
    LSTMCell,
    ReLU,
    Sigmoid,
    Tanh,
)
from repro.ml.network import Sequential
from tests.oracles.training import use_padded_training, use_reference_training

EPS = 1e-6
TOL = 1e-4


def numeric_input_grad(layer, x, dout, index):
    xp = x.copy()
    xp[index] += EPS
    plus = (layer.forward(xp) * dout).sum()
    minus = (layer.forward(x) * dout).sum()
    return (plus - minus) / EPS


def check_input_grad(layer, x, indices):
    out = layer.forward(x)
    dout = np.random.default_rng(0).normal(size=out.shape)
    layer.forward(x, training=True)
    dx = layer.backward(dout)
    for index in indices:
        num = numeric_input_grad(layer, x, dout, index)
        assert abs(num - dx[index]) < TOL, (index, num, dx[index])


def check_param_grad(layer, x, param_idx, flat_positions):
    out = layer.forward(x)
    dout = np.random.default_rng(1).normal(size=out.shape)
    layer.forward(x, training=True)
    layer.backward(dout)
    grads = [g.copy() for g in layer.grads()]
    param = layer.params()[param_idx]
    for pos in flat_positions:
        original = param.flat[pos]
        param.flat[pos] = original + EPS
        plus = (layer.forward(x) * dout).sum()
        param.flat[pos] = original
        minus = (layer.forward(x) * dout).sum()
        num = (plus - minus) / EPS
        assert abs(num - grads[param_idx].flat[pos]) < TOL, (pos, num)


class TestDense:
    def test_forward_shape_and_value(self, rng):
        layer = Dense(3, 2, rng)
        x = rng.normal(size=(5, 3))
        out = layer.forward(x)
        assert out.shape == (5, 2)
        np.testing.assert_allclose(out, x @ layer.W + layer.b)

    def test_input_gradient(self, rng):
        layer = Dense(4, 3, rng)
        x = rng.normal(size=(6, 4))
        check_input_grad(layer, x, [(0, 0), (5, 3), (2, 1)])

    def test_weight_and_bias_gradients(self, rng):
        layer = Dense(4, 3, rng)
        x = rng.normal(size=(6, 4))
        check_param_grad(layer, x, 0, [0, 5, 11])
        check_param_grad(layer, x, 1, [0, 2])

    def test_param_count(self, rng):
        layer = Dense(4, 3, rng)
        assert layer.n_params == 4 * 3 + 3


class TestActivations:
    def test_relu(self, rng):
        layer = ReLU()
        x = np.array([[-1.0, 0.5], [2.0, -3.0]])
        out = layer.forward(x, training=True)
        np.testing.assert_allclose(out, [[0.0, 0.5], [2.0, 0.0]])
        dx = layer.backward(np.ones_like(x))
        np.testing.assert_allclose(dx, [[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "training, inplace", [(False, False), (True, False), (False, True)]
    )
    def test_relu_matches_where_bit_for_bit(self, dtype, training, inplace):
        """``np.where``'s bits and memory layout in every mode: NaN and
        -0.0 become +0.0; subnormals and infinities keep the sign rule."""
        values = [
            np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
            1e-40, -1e-40, 2.2250738585072014e-308, -2.2250738585072014e-308,
            1.5, -1.5,
        ]
        with np.errstate(all="ignore"):
            x = np.array(values * 3, dtype=dtype).reshape(2, 3, 7).transpose(0, 2, 1)
        want = np.where(x > 0, x, 0.0).astype(dtype)
        strides = x.strides
        got = ReLU().forward(x, training=training, inplace=inplace)
        assert (got is x) == inplace
        assert got.dtype == dtype and got.strides == strides
        assert got.tobytes() == want.tobytes()

    def test_sigmoid_range_and_grad(self, rng):
        layer = Sigmoid()
        x = rng.normal(size=(4, 3)) * 5
        out = layer.forward(x)
        assert np.all((out > 0) & (out < 1))
        check_input_grad(layer, x, [(0, 0), (3, 2)])

    def test_sigmoid_extreme_inputs_stable(self):
        layer = Sigmoid()
        out = layer.forward(np.array([[1000.0, -1000.0]]))
        assert np.isfinite(out).all()

    def test_tanh_grad(self, rng):
        layer = Tanh()
        x = rng.normal(size=(4, 3))
        check_input_grad(layer, x, [(1, 1), (2, 0)])

    def test_flatten_roundtrip(self, rng):
        layer = Flatten()
        x = rng.normal(size=(3, 2, 4, 5))
        out = layer.forward(x, training=True)
        assert out.shape == (3, 40)
        dx = layer.backward(out)
        assert dx.shape == x.shape


class TestConv2D:
    def test_same_padding_shape(self, rng):
        layer = Conv2D(3, 6, 3, rng)
        x = rng.normal(size=(2, 3, 7, 5))
        out = layer.forward(x)
        assert out.shape == (2, 6, 7, 5)

    def test_rejects_even_kernel(self, rng):
        with pytest.raises(ValueError, match="odd"):
            Conv2D(2, 2, 4, rng)

    def test_rejects_wrong_channels(self, rng):
        layer = Conv2D(3, 2, 3, rng)
        with pytest.raises(ValueError, match="channels"):
            layer.forward(rng.normal(size=(1, 2, 5, 5)))

    def test_identity_kernel(self, rng):
        """A kernel with a single center tap reproduces the input."""
        layer = Conv2D(1, 1, 3, rng)
        layer.W[...] = 0.0
        layer.W[0, 1, 1, 0] = 1.0
        layer.b[...] = 0.0
        x = rng.normal(size=(2, 1, 4, 4))
        np.testing.assert_allclose(layer.forward(x)[:, 0], x[:, 0], atol=1e-12)

    def test_input_gradient(self, rng):
        layer = Conv2D(2, 3, 3, rng)
        x = rng.normal(size=(3, 2, 5, 4))
        check_input_grad(layer, x, [(0, 0, 0, 0), (2, 1, 4, 3), (1, 0, 2, 2)])

    def test_weight_gradient(self, rng):
        layer = Conv2D(2, 3, 3, rng)
        x = rng.normal(size=(3, 2, 5, 4))
        check_param_grad(layer, x, 0, [0, 17, 35])
        check_param_grad(layer, x, 1, [0, 2])


class TestLSTM:
    def test_output_shape(self, rng):
        cell = LSTMCell(5, 8, rng)
        x = rng.normal(size=(3, 4, 5))
        out = cell.forward(x)
        assert out.shape == (3, 8)

    def test_input_gradient_bptt(self, rng):
        cell = LSTMCell(3, 4, rng)
        x = rng.normal(size=(2, 3, 3))
        check_input_grad(cell, x, [(0, 0, 0), (1, 2, 2), (0, 1, 1)])

    def test_weight_gradient(self, rng):
        cell = LSTMCell(3, 4, rng)
        x = rng.normal(size=(2, 3, 3))
        check_param_grad(cell, x, 0, [0, 25, 60])

    def test_forget_bias_initialized_positive(self, rng):
        cell = LSTMCell(3, 4, rng)
        assert np.all(cell.b[4:8] == 1.0)


def reference_copy(layer):
    """The same layer (same weights) on its training oracle."""
    return use_reference_training(copy.deepcopy(layer))


class TestConv2DFastPath:
    """im2col training path vs the einsum/tap-loop reference."""

    def _run(self, layer, x, dout):
        out = layer.forward(x, training=True)
        dx = layer.backward(dout)
        return out, dx, layer.dW.copy(), layer.db.copy()

    def test_matches_einsum_forward_and_gradients(self, rng):
        layer = Conv2D(3, 4, 3, rng)
        x = rng.normal(size=(4, 3, 6, 5))
        dout = rng.normal(size=(4, 4, 6, 5))
        out_r, dx_r, dW_r, db_r = self._run(reference_copy(layer), x, dout)
        out_f, dx_f, dW_f, db_f = self._run(layer, x, dout)
        np.testing.assert_allclose(out_f, out_r, atol=1e-10)
        np.testing.assert_allclose(dx_f, dx_r, atol=1e-10)
        np.testing.assert_allclose(dW_f, dW_r, atol=1e-10)
        np.testing.assert_allclose(db_f, db_r, atol=1e-10)

    def test_matches_einsum_with_5x5_kernel(self, rng):
        layer = Conv2D(2, 3, 5, rng)
        x = rng.normal(size=(3, 2, 9, 7))
        dout = rng.normal(size=(3, 3, 9, 7))
        out_r, dx_r, dW_r, db_r = self._run(reference_copy(layer), x, dout)
        out_f, dx_f, dW_f, db_f = self._run(layer, x, dout)
        np.testing.assert_allclose(out_f, out_r, atol=1e-10)
        np.testing.assert_allclose(dx_f, dx_r, atol=1e-10)
        np.testing.assert_allclose(dW_f, dW_r, atol=1e-10)
        np.testing.assert_allclose(db_f, db_r, atol=1e-10)

    def test_numeric_input_gradient_on_fast_path(self, rng):
        layer = Conv2D(2, 3, 3, rng)
        x = rng.normal(size=(2, 2, 5, 4))
        out = layer.forward(x, training=True)
        dout = np.random.default_rng(0).normal(size=out.shape)
        layer.forward(x, training=True)
        dx = layer.backward(dout)
        for index in [(0, 0, 0, 0), (1, 1, 4, 3), (0, 1, 2, 2)]:
            xp = x.copy()
            xp[index] += EPS
            plus = (layer.forward(xp, training=True) * dout).sum()
            minus = (layer.forward(x, training=True) * dout).sum()
            num = (plus - minus) / EPS
            assert abs(num - dx[index]) < TOL, (index, num, dx[index])

    def test_inference_matches_einsum_oracle(self, rng):
        """The decision path (training=False) is bitwise the einsum
        oracle's forward, and unchanged by a training forward."""
        layer = Conv2D(3, 4, 3, rng)
        x = rng.normal(size=(2, 3, 6, 5))
        before = layer.forward(x, training=False)
        layer.forward(x, training=True)
        after = layer.forward(x, training=False)
        oracle = reference_copy(layer).forward(x, training=False)
        assert np.array_equal(before, oracle)
        assert np.array_equal(after, oracle)

    @pytest.mark.parametrize("batch", [2, 7, 40, 236])
    @pytest.mark.parametrize("in_ch", [6, 12])
    def test_inference_is_batch_invariant_at_served_shapes(
        self, rng, in_ch, batch
    ):
        """The shared trunk runs the conv on one window and repeats it;
        the oracle runs it on B copies.  Inference is one GEMM, ``W.T @
        cols``, with a column per output position, so the two agree
        only if that GEMM computes every column the same way whatever
        the column count: pinned here at the served predictor's conv
        shapes (6 and 12 channels in, 12 out, 28 tiers x 5 intervals)."""
        layer = Conv2D(in_ch, 12, 3, rng)
        x = rng.normal(size=(1, in_ch, 28, 5))
        one = layer.forward(x, training=False)
        many = layer.forward(np.repeat(x, batch, axis=0), training=False)
        for row in many:
            assert np.array_equal(row, one[0])

    @pytest.mark.parametrize(
        "make, x_shape, dout_shape",
        [
            (lambda rng: Conv2D(2, 2, 3, rng), (2, 2, 4, 4), (2, 2, 4, 4)),
            (lambda rng: Dense(3, 2, rng), (2, 3), (2, 2)),
            (lambda rng: ReLU(), (2, 3), (2, 3)),
            (lambda rng: Flatten(), (2, 2, 4, 4), (2, 32)),
            (lambda rng: LSTMCell(3, 4, rng), (2, 5, 3), (2, 4)),
            (lambda rng: Sigmoid(), (2, 3), (2, 3)),
            (lambda rng: Tanh(), (2, 3), (2, 3)),
        ],
        ids=["Conv2D", "Dense", "ReLU", "Flatten", "LSTMCell", "Sigmoid", "Tanh"],
    )
    def test_backward_follows_forward_mode(self, rng, make, x_shape, dout_shape):
        """Backward differentiates the most recent forward: after an
        inference forward there is nothing to differentiate."""
        layer = make(rng)
        x = rng.normal(size=x_shape)
        dout = rng.normal(size=dout_shape)
        layer.forward(x, training=True)
        layer.backward(dout)
        layer.forward(x, training=False)
        with pytest.raises(RuntimeError, match="training-mode forward"):
            layer.backward(dout)
        with pytest.raises(RuntimeError, match="training-mode forward"):
            make(rng).backward(dout)


class TestDenseSharedBlock:
    """The Dense twin of the conv's served-shape batch-invariance pin.

    The shared-history decision path runs each candidate-invariant Dense
    (the trunk's, 12 channels x tiers x 5 intervals in and 48 out, and
    the ``lh`` branch's, 5 x 5 in and 16 out) on a block of
    ``_shared_block_rows`` copies and broadcasts its first row; the
    oracle runs it on B copies.  A 1-row product is a matrix-vector
    product with other bits, and at more than 384 columns the BLAS's
    small-matrix kernel and its blocked GEMM differ, so the two agree
    only if the block falls in the B-row product's class: pinned here
    at 4, 8, 17, 27 and 28 tiers for every B up to 320.  The trunk block
    is a contiguous copy and the ``lh`` block a stride-0 view, as in
    :meth:`repro.ml.cnn.LatencyCNN.predict_candidates`."""

    @pytest.mark.parametrize("n_tiers", [4, 8, 17, 27, 28])
    def test_block_row_matches_every_row_of_the_batch(self, rng, n_tiers):
        trunk = Dense(12 * n_tiers * 5, 48, rng)
        lh = Dense(25, 16, rng)
        x_trunk = rng.normal(size=(1, trunk.W.shape[0]))
        x_lh = rng.normal(size=(1, 25))
        for layer in (trunk, lh):
            layer.b[...] = rng.normal(0.0, 0.1, layer.b.shape)
        for batch in range(1, 321):
            m = _shared_block_rows(batch, trunk)
            for layer, x, block in (
                (trunk, x_trunk, np.repeat(x_trunk, m, axis=0)),
                (lh, x_lh, np.broadcast_to(x_lh, (m, 25))),
            ):
                row = layer.forward(block)[0]
                out = layer.forward(np.repeat(x, batch, axis=0))
                assert out.tobytes() == np.tile(row, (batch, 1)).tobytes(), (
                    layer.W.shape, batch, m,
                )


class TestLSTMFastPath:
    """Fused single-GEMM gate projections vs the per-gate reference."""

    def _run(self, cell, x):
        out = cell.forward(x, training=True)
        dout = np.random.default_rng(2).normal(size=out.shape)
        dx = cell.backward(dout)
        return out, dx, cell.dW.copy(), cell.db.copy()

    def test_matches_reference(self, rng):
        cell = LSTMCell(5, 8, rng)
        x = rng.normal(size=(4, 6, 5))
        out_r, dx_r, dW_r, db_r = self._run(reference_copy(cell), x)
        out_f, dx_f, dW_f, db_f = self._run(cell, x)
        np.testing.assert_allclose(out_f, out_r, atol=1e-10)
        np.testing.assert_allclose(dx_f, dx_r, atol=1e-10)
        np.testing.assert_allclose(dW_f, dW_r, atol=1e-10)
        np.testing.assert_allclose(db_f, db_r, atol=1e-10)

    def test_matches_reference_single_timestep(self, rng):
        cell = LSTMCell(3, 4, rng)
        x = rng.normal(size=(2, 1, 3))
        out_r, dx_r, dW_r, db_r = self._run(reference_copy(cell), x)
        out_f, dx_f, dW_f, db_f = self._run(cell, x)
        np.testing.assert_allclose(out_f, out_r, atol=1e-10)
        np.testing.assert_allclose(dx_f, dx_r, atol=1e-10)
        np.testing.assert_allclose(dW_f, dW_r, atol=1e-10)
        np.testing.assert_allclose(db_f, db_r, atol=1e-10)

    def test_buffers_survive_batch_size_change(self, rng):
        """The gate caches follow (B, T) changes between training steps."""
        cell = LSTMCell(3, 4, rng)
        ref = reference_copy(cell)
        for shape in ((4, 5, 3), (2, 5, 3), (4, 3, 3), (4, 5, 3)):
            x = rng.normal(size=shape)
            out = cell.forward(x, training=True)
            cell.backward(np.ones_like(out))
            np.testing.assert_allclose(out, ref.forward(x), atol=1e-10)

    def test_inference_forward_leaves_training_buffers(self, rng):
        """A validation forward of another batch size neither reallocates
        the training buffers nor computes anything differently."""
        cell = LSTMCell(3, 4, rng)
        x = rng.normal(size=(4, 5, 3))
        out = cell.forward(x, training=True)
        buffers = cell._gate_acts
        cell.forward(x[:2])
        assert cell._gate_acts is buffers
        assert np.array_equal(cell.forward(x), out)


def assert_same_bytes(actual, expected, name=""):
    """Equal shape, dtype and bytes: -0.0 and NaN payloads included."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape, name
    assert actual.dtype == expected.dtype, name
    assert np.ascontiguousarray(actual).tobytes() == (
        np.ascontiguousarray(expected).tobytes()
    ), name


def conv_case(rng, kernel, hw, batch, special):
    """A 3 -> 4 channel layer, an input and an upstream gradient for the
    bitwise suite.  ``special`` plants -0.0, NaN and ±inf in both, and
    gives one image an all -0.0 gradient.
    """
    layer = Conv2D(3, 4, kernel, rng)
    x = rng.normal(size=(batch, 3, *hw))
    dout = rng.normal(size=(batch, 4, *hw))
    if special:
        for arr, values in (
            (x, [-0.0, -0.0, np.nan, np.inf, -np.inf]),
            (dout, [-0.0, -0.0, np.nan, np.inf, -np.inf]),
        ):
            arr.flat[rng.choice(arr.size, len(values))] = values
        dout[-1] = -0.0
    return layer, x, dout


def run_conv(layer, x, dout):
    """Training forward + backward: (out, cols, dx, dW, db) copies.  The
    column matrix is read before ``backward``, which writes ``dcols``
    over it."""
    out = layer.forward(x, training=True)
    cols = layer._cols.copy()
    dx = layer.backward(dout)
    return out, cols, dx, layer.dW.copy(), layer.db.copy()


def hw_id(hw):
    return "x".join(map(str, hw))


class TestConv2DBitwise:
    """Production training (the compiled folds when the kernel loads)
    vs the padded oracle, byte for byte: the faster path may not move a
    single trained bit."""

    @pytest.mark.parametrize("special", [False, True], ids=["finite", "special"])
    @pytest.mark.parametrize("batch", [1, 7, 256])
    @pytest.mark.parametrize("hw", [(28, 5), (1, 1), (2, 6), (4, 3)], ids=hw_id)
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    def test_matches_padded_oracle(self, rng, kernel, hw, batch, special):
        layer, x, dout = conv_case(rng, kernel, hw, batch, special)
        oracle = use_padded_training(copy.deepcopy(layer))
        with np.errstate(all="ignore"):  # inf - inf in the GEMMs
            got = run_conv(layer, x, dout)
            want = run_conv(oracle, x, dout)
        for name, a, b in zip(("out", "cols", "dx", "dW", "db"), got, want):
            assert_same_bytes(a, b, name)

    @pytest.mark.parametrize("batch", [7, 44, 127, 256, 383])
    @pytest.mark.parametrize("in_ch", [6, 12])
    def test_matches_padded_oracle_at_served_shapes(self, rng, in_ch, batch):
        """The served trunk's layers (6 and 12 channels in, 12 out, 28
        tiers x 5 intervals) at the batches a ``train`` fit runs: 383
        rows at batch 256 end every epoch on 127 images.  A training
        forward run as ``W.T @ cols`` keeps every bit on two BLAS
        threads but not on one, and only these shapes show it."""
        layer = Conv2D(in_ch, 12, 3, rng)
        layer.b[...] = rng.normal(0.0, 0.1, 12)
        x = rng.normal(size=(batch, in_ch, 28, 5))
        dout = rng.normal(size=(batch, 12, 28, 5))
        oracle = use_padded_training(copy.deepcopy(layer))
        got = run_conv(layer, x, dout)
        want = run_conv(oracle, x, dout)
        for name, a, b in zip(("out", "cols", "dx", "dW", "db"), got, want):
            assert_same_bytes(a, b, name)

    @pytest.mark.parametrize("kernel", [3, 5])
    @pytest.mark.parametrize("hw", [(28, 5), (2, 6), (1, 1)], ids=hw_id)
    def test_every_cols_element_is_written(self, rng, monkeypatch, kernel, hw):
        """With np.empty poisoned to NaN inside the layer module, the
        column matrix and the fold still match the oracle: no entry is
        left to whatever the allocator hands back."""
        layer, x, dout = conv_case(rng, kernel, hw, 7, special=False)
        want = run_conv(use_padded_training(copy.deepcopy(layer)), x, dout)
        monkeypatch.setattr(layers, "np", PoisonedNumpy())
        got = run_conv(layer, x, dout)
        for a, b in zip(got, want):
            assert_same_bytes(a, b)


def assert_same_layout(actual, expected, name=""):
    """Equal strides on every axis longer than 1 (a size-1 axis has no
    layout to keep)."""
    for axis, size in enumerate(expected.shape):
        if size > 1:
            assert actual.strides[axis] == expected.strides[axis], (name, axis)


class PoisonedNumpy:
    """``numpy`` with ``np.empty`` handing back NaN-filled arrays."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=float, **kwargs):
        return np.full(shape, np.nan, dtype=dtype, **kwargs)


class TestConv2DInferenceBitwise:
    """Inference (``training=False``) builds the training column matrix
    and runs the einsum's GEMM on it: output bytes and memory layout
    must be the einsum oracle's, at every batch size (the next layer,
    and the shared-trunk decision path, see that layout)."""

    def _check(self, layer, x):
        want = reference_copy(layer).forward(x, training=False)
        got = layer.forward(x, training=False)
        assert_same_bytes(got, want)
        assert_same_layout(got, want)

    @pytest.mark.parametrize("special", [False, True], ids=["finite", "special"])
    @pytest.mark.parametrize("batch", [1, 2, 7, 40, 400])
    @pytest.mark.parametrize("hw", [(28, 5), (1, 1), (2, 6), (4, 3)], ids=hw_id)
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    def test_matches_einsum_oracle(self, rng, kernel, hw, batch, special):
        layer, x, _ = conv_case(rng, kernel, hw, batch, special)
        with np.errstate(all="ignore"):  # inf - inf in the GEMM
            self._check(layer, x)

    @pytest.mark.parametrize("batch", [1, 4, 40])
    @pytest.mark.parametrize("in_ch", [6, 12])
    def test_matches_einsum_oracle_at_served_shapes(self, rng, in_ch, batch):
        """The served trunk's layers, whose channels split into several
        multi-channel blocks at middling batch sizes; the 12-channel
        layer reads a previous inference forward's output."""
        first = Conv2D(6, in_ch, 3, rng)
        x = rng.normal(size=(batch, 6, 28, 5))
        self._check(first, x)
        layer = Conv2D(in_ch, 12, 3, rng)
        self._check(layer, np.maximum(first.forward(x), 0.0))

    def test_every_cols_element_is_written(self, rng, monkeypatch):
        layer, x, _ = conv_case(rng, 3, (28, 5), 7, special=False)
        want = reference_copy(layer).forward(x)
        monkeypatch.setattr(layers, "np", PoisonedNumpy())
        for batch in (1, 7):
            got = layer.forward(x[:batch])
            assert_same_bytes(got, want[:batch])

    def test_keeps_no_column_matrix(self, rng):
        layer, x, _ = conv_case(rng, 3, (4, 3), 2, special=False)
        layer.forward(x, training=True)
        assert layer._cols is not None
        layer.forward(x)
        assert layer._cols is None


class TestSkippedInputGradient:
    """``backward(..., input_grad=False)``: parameter gradients byte for
    byte those of a full backward, and no input gradient."""

    @pytest.mark.parametrize(
        "make, x_shape, dout_shape",
        [
            (lambda rng: Dense(3, 2, rng), (5, 3), (5, 2)),
            (lambda rng: LSTMCell(3, 4, rng), (2, 5, 3), (2, 4)),
            (lambda rng: Conv2D(3, 4, 3, rng), (7, 3, 6, 5), (7, 4, 6, 5)),
            (lambda rng: Conv2D(3, 4, 5, rng), (7, 3, 6, 5), (7, 4, 6, 5)),
        ],
        ids=["Dense", "LSTMCell", "Conv2D-3", "Conv2D-5"],
    )
    def test_layer(self, rng, make, x_shape, dout_shape):
        layer = make(rng)
        x = rng.normal(size=x_shape)
        dout = rng.normal(size=dout_shape)
        layer.forward(x, training=True)
        assert layer.backward(dout) is not None
        full = [g.copy() for g in layer.grads()]
        layer.forward(x, training=True)
        assert layer.backward(dout, input_grad=False) is None
        for a, b in zip(layer.grads(), full):
            assert_same_bytes(a, b)

    def test_sequential_stops_at_first_weighted_layer(self, rng):
        called = []

        class Spy(Flatten):
            def backward(self, dout):
                called.append(self)
                return super().backward(dout)

        net = Sequential(Spy(), Dense(6, 4, rng), ReLU(), Dense(4, 2, rng))
        twin = copy.deepcopy(net)
        x = rng.normal(size=(3, 2, 3))
        dout = rng.normal(size=(3, 2))
        net.forward(x, training=True)
        twin.forward(x, training=True)
        assert twin.backward(dout).shape == x.shape
        assert called == [twin.layers[0]]
        assert net.backward(dout, input_grad=False) is None
        assert called == [twin.layers[0]]
        for a, b in zip(net.grads(), twin.grads()):
            assert_same_bytes(a, b)

    def test_sequential_without_parameters_does_nothing(self, rng):
        net = Sequential(Flatten(), ReLU())
        net.forward(rng.normal(size=(2, 3, 2)), training=True)
        assert net.backward(rng.normal(size=(2, 6)), input_grad=False) is None
