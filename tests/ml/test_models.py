"""Model-level tests: CNN / MLP / LSTM / multi-task on synthetic data."""

import numpy as np
import pytest

from repro.ml.cnn import CNNConfig, LatencyCNN
from repro.ml.lstm import LatencyLSTM
from repro.ml.mlp import LatencyMLP
from repro.ml.multitask import MultiTaskLoss, MultiTaskNN
from repro.ml.network import Sequential
from repro.ml.layers import Dense, ReLU
from tests.oracles.training import use_reference_training

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
