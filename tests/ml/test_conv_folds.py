"""Conv2D's folds on both backends: the compiled kernel's ``sinan_im2col``
and ``sinan_col2im`` against the padded folds, byte for byte.

The padded folds (``Conv2D._im2col_padded`` and ``_col2im_padded``) run
when :func:`repro.sim._ckernel.load_kernel` returns None, and the tests
reach them that way, as the other layers' suites reach their no-kernel
paths.  The padded oracle suites in ``tests/ml/test_layers.py`` run
whichever backend loads; this file holds the two to each other on
inputs those suites do not build: NaN of either sign, infinities, -0.0
and subnormals in the input and in the column gradient, float32 and
strided inputs, a ReLU's channels-last output, and grids no wider or
taller than one cell.
"""

import numpy as np
import pytest

from repro.ml.cnn import LatencyCNN
from repro.ml.layers import Conv2D, ReLU
from repro.sim import _ckernel

#: Planted into inputs and column gradients.
SPECIALS = [
    np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324,
    1e-310, -2.2250738585072014e-308,
]


@pytest.fixture
def kernel():
    """The compiled kernel's ``(ffi, lib)``; the test skips without one."""
    compiled = _ckernel.load_kernel()
    if compiled is None:
        pytest.skip("no compiled kernel")
    return compiled


def on_both_backends(monkeypatch, run):
    """``run()`` on the kernel, then on the padded folds."""
    got = run()
    with monkeypatch.context() as mp:
        mp.setattr(_ckernel, "load_kernel", lambda: None)
        want = run()
    return got, want


def assert_same_bytes(got, want):
    """Equal dicts of arrays: shapes, dtypes and bytes."""
    assert got.keys() == want.keys()
    for name, a in got.items():
        b = want[name]
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert np.ascontiguousarray(a).tobytes() == (
            np.ascontiguousarray(b).tobytes()
        ), name


def planted(rng, shape, count=1):
    """Normal values with ``count`` rounds of :data:`SPECIALS` at
    distinct random positions, as many as the array holds."""
    a = rng.normal(size=shape)
    values = SPECIALS * count
    n = min(a.size, len(values))
    a.flat[rng.choice(a.size, n, replace=False)] = values[:n]
    return a


def folds(layer, x, dcols):
    """Both modes' column matrices of ``x`` and the fold of ``dcols``
    (a copy, so no fold can change the next one's input)."""
    B, C, H, W = x.shape
    layer._x_shape = x.shape
    dx = np.full((C, B * H * W), np.nan)
    layer._col2im(dcols.copy(), dx)
    return {
        "inference": layer._im2col(x, training=False),
        "training": layer._im2col(x, training=True),
        "dx": dx,
    }


class TestFoldsMatchNumpy:
    @pytest.mark.parametrize(
        "hw", [(1, 1), (1, 6), (5, 1), (4, 3)], ids=lambda hw: "x".join(map(str, hw))
    )
    @pytest.mark.parametrize("kernel_size", [1, 3, 5])
    @pytest.mark.parametrize("channels", [1, 6, 12])
    @pytest.mark.parametrize("batch", [1, 2, 7, 33, 256])
    def test_special_values(
        self, kernel, monkeypatch, batch, channels, kernel_size, hw
    ):
        rng = np.random.default_rng(batch * 1000 + channels * 10 + kernel_size)
        layer = Conv2D(channels, 4, kernel_size, rng)
        n = batch * hw[0] * hw[1]
        x = planted(rng, (batch, channels, *hw), count=4)
        dcols = planted(rng, (channels * kernel_size**2, n), count=8)
        with np.errstate(all="ignore"):  # inf - inf and NaN in the sums
            got, want = on_both_backends(
                monkeypatch, lambda: folds(layer, x, dcols)
            )
        assert_same_bytes(got, want)

    @pytest.mark.parametrize(
        "layout", ["c-order", "channels-last", "float32", "reversed"]
    )
    @pytest.mark.parametrize("batch", [1, 7])
    def test_input_layouts(self, kernel, monkeypatch, batch, layout):
        """The kernel reads a C-contiguous input and a ReLU's
        ``(B, H, W, C)``-ordered output in place, and a float64 copy of
        anything else; the padded fold reads each as it comes."""
        rng = np.random.default_rng(7)
        layer = Conv2D(12, 12, 3, rng)
        x = planted(rng, (batch, 12, 28, 5), count=3)
        if layout == "channels-last":
            x = ReLU().forward(
                np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
            )
            assert not x.flags.c_contiguous
        elif layout == "float32":
            x = x.astype(np.float32)
        elif layout == "reversed":
            x = x[:, :, ::-1]
        dcols = planted(rng, (12 * 9, batch * 28 * 5))
        with np.errstate(all="ignore"):
            got, want = on_both_backends(
                monkeypatch,
                lambda: {**folds(layer, x, dcols), "out": layer.forward(x)},
            )
        assert_same_bytes(got, want)

    @pytest.mark.parametrize("batch", [1, 7, 256])
    @pytest.mark.parametrize("in_ch", [6, 12])
    def test_training_step_at_served_shapes(
        self, kernel, monkeypatch, in_ch, batch
    ):
        """A whole training step of the served trunk's layers, GEMMs
        included, and an inference forward."""
        rng = np.random.default_rng(in_ch + batch)
        layer = Conv2D(in_ch, 12, 3, rng)
        layer.b[...] = rng.normal(0.0, 0.1, 12)
        x = rng.normal(size=(batch, in_ch, 28, 5))
        dout = rng.normal(size=(batch, 12, 28, 5))

        def step():
            out = layer.forward(x, training=True).copy()
            cols = layer._cols.copy()
            dx = layer.backward(dout)
            return {
                "out": out, "cols": cols, "dx": dx, "dW": layer.dW.copy(),
                "db": layer.db.copy(), "inference": layer.forward(x),
            }

        got, want = on_both_backends(monkeypatch, step)
        assert_same_bytes(got, want)

    def test_served_trunk_at_one_window(self, kernel, monkeypatch):
        """``predict_candidates`` at 28 tiers: the trunk's two convs run
        on the single shared window."""
        rng = np.random.default_rng(3)
        model = LatencyCNN(n_tiers=28, seed=5)
        inputs = (
            rng.normal(size=(1, 6, 28, 5)),
            rng.normal(size=(1, 5, 5)),
            rng.normal(size=(236, 28)),
        )

        def score():
            latency, latent = model.predict_candidates(inputs)
            trunk = inputs[0]
            for layer in model.rh_branch.layers[: model._rh_trunk_len]:
                trunk = layer.forward(trunk)
            return {"latency": latency, "latent": latent, "trunk": trunk}

        got, want = on_both_backends(monkeypatch, score)
        assert_same_bytes(got, want)


class TestKernelWritesItsMatrixOnly:
    """The entry points called directly, their outputs framed by guard
    cells: every cell of the matrix is written and none outside it, on
    grids narrower or shorter than the kernel's reach."""

    GUARD = 64

    def framed(self, size):
        buf = np.full(size + 2 * self.GUARD, -7.25)
        return buf, buf[self.GUARD : self.GUARD + size]

    def assert_guards(self, buf, size):
        assert (buf[: self.GUARD] == -7.25).all()
        assert (buf[self.GUARD + size :] == -7.25).all()

    @pytest.mark.parametrize("hw", [(1, 1), (1, 2), (2, 1), (3, 4)])
    @pytest.mark.parametrize("kernel_size", [1, 3, 5, 7])
    @pytest.mark.parametrize("batch", [1, 2])
    def test_guards_hold(self, kernel, monkeypatch, batch, kernel_size, hw):
        ffi, lib = kernel
        rng = np.random.default_rng(11)
        H, W = hw
        C, k = 2, kernel_size
        n = batch * H * W
        x = rng.normal(size=(batch, C, H, W))
        layer = Conv2D(C, 3, k, rng)
        layer._x_shape = x.shape

        buf, cols = self.framed(C * k * k * n)
        cols[...] = np.nan
        lib.sinan_im2col(
            batch, C, H, W, k, ffi.from_buffer("double[]", x),
            *(s // 8 for s in x.strides), ffi.from_buffer("double[]", cols),
        )
        self.assert_guards(buf, cols.size)

        dcols = rng.normal(size=(C * k * k, n))
        dbuf, dx = self.framed(C * n)
        dx[...] = np.nan
        lib.sinan_col2im(
            batch, C, H, W, k, ffi.from_buffer("double[]", dcols),
            ffi.from_buffer("double[]", dx),
        )
        self.assert_guards(dbuf, dx.size)

        with monkeypatch.context() as mp:
            mp.setattr(_ckernel, "load_kernel", lambda: None)
            want = folds(layer, x, dcols)
        assert cols.tobytes() == want["training"].tobytes()
        assert dx.tobytes() == want["dx"].tobytes()
