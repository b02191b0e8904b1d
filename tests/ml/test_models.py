"""Model-level tests: CNN / MLP / LSTM / multi-task on synthetic data."""

import numpy as np
import pytest

from repro.ml.cnn import CNNConfig, LatencyCNN
from repro.ml.lstm import LatencyLSTM
from repro.ml.mlp import LatencyMLP
from repro.ml.multitask import MultiTaskLoss, MultiTaskNN
from repro.ml.network import Sequential
from repro.ml.layers import Dense, ReLU
from tests.oracles.training import use_padded_training, use_reference_training

N, T, F, M = 6, 4, 6, 5
SMALL = CNNConfig(conv_channels=(4,), rh_embed=16, lh_embed=8, rc_embed=8, latent_dim=16)


def synthetic(n=256, seed=0):
    rng = np.random.default_rng(seed)
    x_rh = rng.normal(size=(n, F, N, T))
    x_lh = rng.normal(size=(n, T, M))
    x_rc = rng.normal(size=(n, N))
    w = rng.normal(size=N)
    signal = x_rh[:, 0].mean(axis=2) @ w + 0.5 * x_rc @ w
    y = np.repeat(signal[:, None], M, axis=1) * 10.0 + 100.0
    return (x_rh, x_lh, x_rc), y


class TestSequential:
    def test_composition(self, rng):
        net = Sequential(Dense(4, 8, rng), ReLU(), Dense(8, 2, rng))
        x = rng.normal(size=(3, 4))
        assert net.forward(x).shape == (3, 2)
        assert len(net.params()) == 4
        assert len(net.grads()) == 4

    def test_backward_flows(self, rng):
        net = Sequential(Dense(4, 8, rng), ReLU(), Dense(8, 2, rng))
        x = rng.normal(size=(3, 4))
        out = net.forward(x, training=True)
        dx = net.backward(np.ones_like(out))
        assert dx.shape == x.shape


@pytest.mark.parametrize(
    "factory",
    [
        lambda: LatencyCNN(N, T, F, M, config=SMALL, seed=0),
        lambda: LatencyMLP(N, T, F, M, hidden=(32, 16), seed=0),
        lambda: LatencyLSTM(N, T, F, M, hidden=16, seed=0),
    ],
    ids=["cnn", "mlp", "lstm"],
)
class TestLatencyModels:
    def test_predict_shape(self, factory):
        model = factory()
        inputs, _ = synthetic(16)
        assert model.predict(inputs).shape == (16, M)

    def test_learns_synthetic_signal(self, factory):
        model = factory()
        inputs, y = synthetic(256)
        before = np.sqrt(np.mean((model.predict(inputs) - y) ** 2))
        result = model.fit(inputs, y, epochs=15, lr=0.005, batch_size=64, seed=1)
        after = result.train_rmse_final
        assert after < before * 0.6

    def test_size_kb_positive(self, factory):
        model = factory()
        assert model.size_kb > 0
        assert model.n_params == sum(p.size for p in model.params())


class TestEarlyStopping:
    def test_restores_best_params(self):
        model = LatencyMLP(N, T, F, M, hidden=(16,), seed=0)
        inputs, y = synthetic(128)
        val_inputs, val_y = synthetic(64, seed=9)
        result = model.fit(
            inputs, y, val_inputs, val_y, epochs=30, lr=0.01, patience=3, seed=2
        )
        final = np.sqrt(np.mean((model.predict(val_inputs) - val_y) ** 2))
        assert final == pytest.approx(min(result.val_rmse), rel=1e-6)

    def test_val_history_recorded(self):
        model = LatencyMLP(N, T, F, M, hidden=(16,), seed=0)
        inputs, y = synthetic(64)
        result = model.fit(inputs, y, inputs, y, epochs=3, patience=0, seed=0)
        assert len(result.val_rmse) == result.epochs_run == 3


class TestCNNSpecifics:
    def test_latent_shape(self):
        model = LatencyCNN(N, T, F, M, config=SMALL, seed=0)
        inputs, _ = synthetic(10)
        latent = model.latent(inputs)
        assert latent.shape == (10, SMALL.latent_dim)

    def test_predict_with_latent_consistent(self):
        model = LatencyCNN(N, T, F, M, config=SMALL, seed=0)
        inputs, _ = synthetic(8)
        pred, latent = model.predict_with_latent(inputs)
        np.testing.assert_allclose(pred, model.predict(inputs))
        np.testing.assert_allclose(latent, model.latent(inputs))

    def test_custom_rc_features(self):
        model = LatencyCNN(N, T, F, M, config=SMALL, seed=0, n_rc_features=2 * N)
        rng = np.random.default_rng(0)
        inputs = (
            rng.normal(size=(4, F, N, T)),
            rng.normal(size=(4, T, M)),
            rng.normal(size=(4, 2 * N)),
        )
        assert model.predict(inputs).shape == (4, M)


#: Candidate batch sizes around the block sizes of the served shapes
#: (27 rows at 27 and 28 tiers, 43 at 17, 92 at 8, 183 at 4) and the
#: BLAS's row classes at 1680 columns (2-12 and 13 up).
SHARED_BLOCK_BATCHES = [1, 2, 12, 13, 26, 27, 28, 44, 64, 93, 236, 294, 320]


class TestSharedCandidateBlock:
    """``predict_candidates`` runs the candidate-invariant dense rows
    (the trunk's Dense and the ``lh`` branch) on a block of a few copies
    and broadcasts one row of each into the heads.  Pinned here, at the
    default architecture's layer sizes, against ``predict_with_latent``
    on B materialized copies of the history: the closed-loop suites' tiny
    model has an 80-column trunk Dense, where every block of two or more
    rows gives the same bits, so a wrong block size shows only here."""

    @pytest.mark.parametrize("batch", SHARED_BLOCK_BATCHES)
    @pytest.mark.parametrize("n_tiers", [4, 8, 17, 27, 28])
    def test_matches_materialized_batch(self, n_tiers, batch):
        rng = np.random.default_rng(1000 * n_tiers + batch)
        model = LatencyCNN(n_tiers, seed=n_tiers, n_rc_features=2 * n_tiers)
        for param in model.params():
            if param.ndim == 1:  # biases start at zero
                param[...] = rng.normal(0.0, 0.1, param.shape)
        x_rh = rng.normal(size=(1, 6, n_tiers, 5))
        x_lh = rng.normal(size=(1, 5, 5))
        x_rc = rng.normal(size=(batch, 2 * n_tiers))
        want = model.predict_with_latent(
            (np.repeat(x_rh, batch, axis=0), np.repeat(x_lh, batch, axis=0), x_rc)
        )
        got = model.predict_candidates((x_rh, x_lh, x_rc))
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert g.tobytes() == w.tobytes()


class TestMultiTask:
    def test_output_layout(self):
        model = MultiTaskNN(N, T, F, M, config=SMALL, seed=0)
        inputs, _ = synthetic(8)
        out = model.predict(inputs)
        assert out.shape == (8, M + 1)
        assert model.predict_latency(inputs).shape == (8, M)
        probs = model.predict_violation_prob(inputs)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_pack_targets(self):
        y_lat = np.ones((4, M))
        y_viol = np.array([0, 1, 0, 1.0])
        packed = MultiTaskNN.pack_targets(y_lat, y_viol)
        assert packed.shape == (4, M + 1)
        np.testing.assert_allclose(packed[:, -1], y_viol)

    def test_joint_training_runs(self):
        model = MultiTaskNN(N, T, F, M, config=SMALL, seed=0)
        inputs, y = synthetic(128)
        y_viol = (y[:, 0] > np.percentile(y[:, 0], 70)).astype(float)
        targets = model.pack_targets(y, y_viol)
        result = model.fit(
            inputs, targets, loss=model.loss(), epochs=5, lr=0.003, seed=0
        )
        assert len(result.train_loss) == 5
        assert result.train_loss[-1] < result.train_loss[0]

    def test_loss_combines_mse_and_bce(self):
        loss = MultiTaskLoss(n_percentiles=M, violation_weight=2.0)
        pred = np.zeros((3, M + 1))
        target = np.concatenate([np.ones((3, M)), np.ones((3, 1))], axis=1)
        value, grad = loss(pred, target)
        assert value > 0
        assert grad.shape == pred.shape


class TestFitInstrumentation:
    def test_epoch_wall_time_recorded(self):
        model = LatencyMLP(N, T, F, M, hidden=(16,), seed=0)
        inputs, y = synthetic(64)
        result = model.fit(inputs, y, epochs=4, batch_size=32, seed=0)
        assert len(result.epoch_time_s) == result.epochs_run == 4
        assert all(t >= 0.0 for t in result.epoch_time_s)

    def test_epoch_times_track_early_stop(self):
        model = LatencyMLP(N, T, F, M, hidden=(16,), seed=0)
        inputs, y = synthetic(64)
        result = model.fit(inputs, y, inputs, y, epochs=30, patience=1, seed=0)
        assert len(result.epoch_time_s) == result.epochs_run

    def test_fast_and_reference_training_losses_match(self):
        """One whole CNN fit per path: im2col/fused vs einsum/loop, same
        data and seed — per-epoch losses agree to float rounding."""
        inputs, y = synthetic(96)

        def fit(fast):
            model = LatencyCNN(N, T, F, M, config=SMALL, seed=0)
            if not fast:
                use_reference_training(model)
            return model.fit(inputs, y, epochs=3, batch_size=32, seed=1)

        fast, ref = fit(True), fit(False)
        np.testing.assert_allclose(
            fast.train_loss, ref.train_loss, rtol=0, atol=1e-8
        )


TWO_CONV = CNNConfig(
    conv_channels=(4, 3), rh_embed=16, lh_embed=8, rc_embed=8, latent_dim=16
)


def cnn_input_layers(model):
    return [
        model.rh_branch.layers[0], model.lh_branch.layers[1], model.rc_branch.layers[0]
    ]


# factory, and the layers that read the model's input data
LOCKSTEP_MODELS = {
    "cnn": (lambda: LatencyCNN(N, T, F, M, config=TWO_CONV, seed=0), cnn_input_layers),
    "mlp": (
        lambda: LatencyMLP(N, T, F, M, hidden=(32, 16), seed=0),
        lambda model: [model.net.layers[0]],
    ),
    "lstm": (
        lambda: LatencyLSTM(N, T, F, M, hidden=16, seed=0),
        lambda model: [model.lstm, model.rc_branch.layers[0]],
    ),
    "multitask": (
        lambda: MultiTaskNN(N, T, F, M, config=TWO_CONV, seed=0),
        cnn_input_layers,
    ),
}


def lockstep_fit(model):
    """A short fit with validation; 65 samples at batch 32 end every
    epoch on a batch of one."""
    inputs, y = synthetic(65, seed=3)
    val_inputs, val_y = synthetic(20, seed=4)
    kwargs = {}
    if isinstance(model, MultiTaskNN):
        y = model.pack_targets(y, (y[:, 0] > 100.0).astype(float))
        val_y = model.pack_targets(val_y, (val_y[:, 0] > 100.0).astype(float))
        kwargs["loss"] = model.loss()
    return model.fit(
        inputs, y, val_inputs, val_y, epochs=4, lr=0.003, batch_size=32,
        seed=5, **kwargs
    )


@pytest.mark.parametrize(
    "make, input_layers", LOCKSTEP_MODELS.values(), ids=LOCKSTEP_MODELS
)
class TestBitwiseTraining:
    """Whole fits on the production path vs the bit-exact oracles (padded
    im2col, every layer computing its input gradient): the same bits."""

    def test_fit_matches_padded_oracle(self, make, input_layers):
        fast, ref = make(), use_padded_training(make())
        fast_fit, ref_fit = lockstep_fit(fast), lockstep_fit(ref)
        assert fast_fit.train_loss == ref_fit.train_loss
        assert fast_fit.val_rmse == ref_fit.val_rmse
        assert fast_fit.val_rmse_final == ref_fit.val_rmse_final
        for a, b in zip(fast.params(), ref.params()):
            assert a.tobytes() == b.tobytes()

    def test_input_layers_skip_input_gradient(self, make, input_layers, monkeypatch):
        """The layers reading the input data are asked for their
        parameter gradients only: nothing reads the data's gradient."""
        model = make()
        asked = []
        for layer in input_layers(model):
            def spy(dout, *, input_grad=True, _backward=layer.backward):
                asked.append(input_grad)
                return _backward(dout, input_grad=input_grad)

            monkeypatch.setattr(layer, "backward", spy, raising=False)
        inputs, _ = synthetic(8)
        out = model.forward_batch(inputs, training=True)
        model.backward_batch(np.ones_like(out))
        assert asked == [False] * len(input_layers(model))
