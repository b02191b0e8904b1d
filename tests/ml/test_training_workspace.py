"""A fit's training workspace: scratch buffers reused across its steps.

:meth:`NeuralRegressor.fit` makes one :class:`repro.ml.layers.Workspace`,
lends it to every layer, and takes it back when it returns or raises.  A
training forward and backward write their temporaries into it (the
conv's column matrix and, over it, ``dcols``; every GEMM's output; the
channel-major and ``dout`` copies; the folded and ReLU gradients;
Flatten's copy; an LSTM's per-sequence caches) instead of fresh arrays.
Pinned here: a fit in the workspace gives the bits of a fit whose every
buffer is a fresh NaN-filled array, at batch sizes that shrink and
grow; no fitted, pickled or copied model carries the workspace or the
last step's state, after a fit that raised too; numpy's reshape rule
for the ``dout`` and Flatten copies; and a warm training step at the
served shapes stays within a transient-memory budget (the stand-in for
the page faults the workspace removes, which depend on the host's
allocator).  ``tests/ml/test_models.py::TestBitwiseTraining`` and
``tests/ml/test_layers.py::TestConv2DBitwise`` hold the same fits and
layers against the padded oracle.
"""

import copy
import itertools
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.ml.cnn import CNNConfig, LatencyCNN
from repro.ml.layers import Workspace, _merges_to_view
from repro.ml.losses import MSELoss
from repro.ml.lstm import LatencyLSTM
from repro.ml.mlp import LatencyMLP
from repro.ml.multitask import MultiTaskNN
from repro.ml.network import _leaf_layers

N, T, F, M = 6, 4, 6, 5
TWO_CONV = CNNConfig(
    conv_channels=(4, 3), rh_embed=16, lh_embed=8, rc_embed=8, latent_dim=16
)

MODELS = {
    "cnn": lambda: LatencyCNN(N, T, F, M, config=TWO_CONV, seed=0),
    "mlp": lambda: LatencyMLP(N, T, F, M, hidden=(32, 16), seed=0),
    "lstm": lambda: LatencyLSTM(N, T, F, M, hidden=16, seed=0),
    "multitask": lambda: MultiTaskNN(N, T, F, M, config=TWO_CONV, seed=0),
}


def synthetic(n, seed, n_tiers=N, n_timesteps=T, n_rc=N):
    rng = np.random.default_rng(seed)
    x_rh = rng.normal(size=(n, F, n_tiers, n_timesteps))
    x_lh = rng.normal(size=(n, n_timesteps, M))
    x_rc = rng.normal(size=(n, n_rc))
    y = 100.0 + 10.0 * rng.normal(size=(n, M))
    return (x_rh, x_lh, x_rc), y


def fit(model, n=65, batch_size=32, epochs=3, loss=None):
    """A short fit with validation; 65 samples at batch 32 end every
    epoch on a batch of one, so the buffers shrink and grow again."""
    inputs, y = synthetic(n, seed=3)
    val_inputs, val_y = synthetic(20, seed=4)
    if isinstance(model, MultiTaskNN):
        y = model.pack_targets(y, (y[:, 0] > 100.0).astype(float))
        val_y = model.pack_targets(val_y, (val_y[:, 0] > 100.0).astype(float))
        loss = loss or model.loss()
    return model.fit(
        inputs, y, val_inputs, val_y, loss=loss, epochs=epochs, lr=0.003,
        batch_size=batch_size, seed=5,
    )


def poisoned_get(self, name, shape):
    """``Workspace.get`` handing out a new NaN-filled array every call."""
    return np.full(shape, np.nan)


def assert_no_training_state(model):
    """No layer holds the workspace or what a training forward kept (an
    inference forward leaves some of those attributes set to None)."""
    for layer in _leaf_layers(vars(model).values()):
        names = ("_workspace", *layer._backward_state)
        held = [name for name in names if vars(layer).get(name) is not None]
        assert not held, (type(layer).__name__, held)


class TestReuse:
    @pytest.mark.parametrize("make", MODELS.values(), ids=MODELS)
    def test_fit_matches_fresh_buffers(self, make, monkeypatch):
        """Stale values or a wrongly sized view of a grown buffer would
        show against a fit whose buffers are all new and NaN-filled."""
        model = make()
        reused = fit(model)
        twin = make()
        monkeypatch.setattr(Workspace, "get", poisoned_get)
        fresh = fit(twin)
        assert reused.train_loss == fresh.train_loss
        assert reused.val_rmse == fresh.val_rmse
        for a, b in zip(model.params(), twin.params()):
            assert a.tobytes() == b.tobytes()

    def test_served_shapes_match_fresh_buffers(self, monkeypatch):
        """The default architecture at 28 tiers with the ``train``
        workload's batching: 383 rows at batch 256, so every epoch runs
        a 256-image step and then a 127-image one in the same buffers."""

        def run():
            model = LatencyCNN(28, seed=1, n_rc_features=56)
            inputs, y = synthetic(383, seed=6, n_tiers=28, n_timesteps=5, n_rc=56)
            model.fit(inputs, y, epochs=2, batch_size=256, lr=0.001, seed=2)
            return model

        reused = run()
        monkeypatch.setattr(Workspace, "get", poisoned_get)
        fresh = run()
        for a, b in zip(reused.params(), fresh.params()):
            assert a.tobytes() == b.tobytes()


class TestLifetime:
    @pytest.mark.parametrize("make", MODELS.values(), ids=MODELS)
    def test_fitted_model_carries_no_workspace(self, make):
        model = make()
        fit(model)
        assert_no_training_state(model)

    def test_fit_that_raises_gives_the_workspace_back(self):
        class Failing(MSELoss):
            calls = 0

            def __call__(self, pred, target):
                self.calls += 1
                if self.calls == 3:
                    raise FloatingPointError("diverged")
                return super().__call__(pred, target)

        model = MODELS["cnn"]()
        with pytest.raises(FloatingPointError, match="diverged"):
            fit(model, loss=Failing())
        assert_no_training_state(model)
        # The layers train again, with a workspace of their own.
        fit(model)
        assert_no_training_state(model)

    def test_copies_and_pickles_taken_mid_fit_carry_no_workspace(self):
        """A deep copy or pickle of a model taken between a step's
        forward and backward keeps neither the fit's workspace nor the
        step's state."""
        taken = []

        class Snapshot(MSELoss):
            def __call__(self, pred, target):
                if not taken:
                    taken.append(copy.deepcopy(model))
                    taken.append(pickle.loads(pickle.dumps(model)))
                return super().__call__(pred, target)

        model = MODELS["cnn"]()
        fit(model, loss=Snapshot())
        for clone in taken:
            assert_no_training_state(clone)

    def test_each_fit_makes_its_own_workspace(self, monkeypatch):
        made = []
        original = Workspace.__init__

        def init(self):
            original(self)
            made.append(self)

        monkeypatch.setattr(Workspace, "__init__", init)
        model = MODELS["cnn"]()
        fit(model)
        fit(model)
        assert len(made) == 2 and made[0] is not made[1]
        assert made[0]._buffers and made[1]._buffers


def layouts():
    """Arrays of one to five axes in every axis order, and with a
    stepped or a reversed axis; some have length-1 axes."""
    rng = np.random.default_rng(0)
    for shape in [(1, 3, 4, 5), (2, 3, 1, 5), (3, 4, 5), (2, 1, 1, 3), (1, 1, 4),
                  (2, 3, 4, 1, 2), (6,), (2, 6)]:
        base = rng.normal(size=shape)
        for order in itertools.permutations(range(len(shape))):
            yield base.transpose(order)
        yield base[..., ::2]
        yield base[::-1]


def test_reshape_rule_matches_numpy():
    """``_merges_to_view`` says a merge of a run of axes is a view
    exactly when numpy's reshape makes one: the rule that keeps the
    conv's ``dout`` and Flatten's input views where numpy views them."""
    for x in layouts():
        for start in range(x.ndim):
            for stop in range(start + 1, x.ndim + 1):
                shape = (*x.shape[:start], -1, *x.shape[stop:])
                view = np.shares_memory(x.reshape(shape), x)
                merges = _merges_to_view(x.shape[start:stop], x.strides[start:stop])
                assert merges == view, (x.shape, x.strides, start, stop)


#: Traced bytes one warm training step of the default architecture at
#: 28 tiers and batch 256 may allocate above what it started with.  In
#: its fit's workspace the step peaks at about 4.6 MiB (the two conv
#: ReLUs' outputs and masks); on fresh arrays at about 59 MiB.
STEP_BUDGET = 8 * 2**20


def test_warm_training_step_stays_within_transient_budget():
    rng = np.random.default_rng(9)
    model = LatencyCNN(28, seed=0, n_rc_features=56)
    inputs = (
        rng.normal(size=(256, 6, 28, 5)),
        rng.normal(size=(256, 5, 5)),
        rng.normal(size=(256, 56)),
    )
    y = rng.normal(size=(256, 5))

    def step():
        _, grad = MSELoss()(model.forward_batch(inputs, training=True), y)
        model.backward_batch(grad)

    with model._training_workspace():
        for _ in range(2):
            step()
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak - start < STEP_BUDGET, (peak - start) / 2**20
    assert_no_training_state(model)
