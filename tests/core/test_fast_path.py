"""Production decision path vs the oracles: bitwise-equivalence suite.

The shared-trunk CNN inference, compiled boosted trees, and zero-copy
candidate encoding are only shippable because they change nothing but
wall-clock time.  These tests pin that down at every level against
``tests/oracles/``: encoder tensors, predictor outputs, training, and
full closed-loop decision traces with any mix of layers on their
oracles — on clean telemetry and under fault profiles.
"""

import copy

import numpy as np
import pytest

from repro.core.data_collection import (
    BanditExplorer,
    CollectionConfig,
    DataCollector,
)
from repro.core.actions import ActionSpace
from repro.core.features import WindowEncoder, _ffill_time, sanitize_window
from repro.core.predictor import HybridPredictor, PredictorConfig
from repro.core.qos import QoSTarget
from repro.core.scheduler import OnlineScheduler
from repro.ml.cnn import CNNConfig
from repro.sim.cluster import ClusterSimulator
from repro.sim.faults import FaultInjector, resolve_profile
from repro.workload.generator import RequestMix, Workload
from repro.workload.patterns import ConstantLoad
from tests.conftest import make_tiny_cluster, make_tiny_graph
from tests.oracles.control import use_reference_control
from tests.oracles.decision import (
    encode_candidates,
    predict_candidates_reference,
    use_reference_predictor,
)
from tests.oracles.engine import use_reference_engine
from tests.oracles.training import (
    ReferenceBoostedTrees,
    assert_same_structure,
    use_padded_training,
    use_reference_training,
)
from tests.sim.test_fast_sim import assert_stats_equal
from tests.sim.test_telemetry import make_stats

QOS = QoSTarget(200.0)
FAST = PredictorConfig(
    epochs=20,
    batch_size=64,
    cnn=CNNConfig(conv_channels=(4,), rh_embed=16, lh_embed=8, rc_embed=8, latent_dim=16),
)


def make_faulty_cluster(users: float, seed: int, profile: str) -> ClusterSimulator:
    graph = make_tiny_graph()
    mix = RequestMix.from_ratios({"Read": 9, "Write": 1})
    workload = Workload(graph, ConstantLoad(users), mix)
    faults = FaultInjector(resolve_profile(profile), graph.n_tiers, seed=seed)
    return ClusterSimulator(graph, workload, seed=seed, faults=faults)


@pytest.fixture(scope="module")
def collected():
    config = CollectionConfig(qos=QOS)
    collector = DataCollector(
        lambda users, seed: make_tiny_cluster(users, seed), config
    )
    result = collector.collect(
        BanditExplorer(config, seed=0), loads=[60, 160, 280], seconds_per_load=80
    )
    return result.dataset


@pytest.fixture(scope="module")
def trained(collected):
    predictor = HybridPredictor(make_tiny_graph(), QOS, FAST, seed=0)
    predictor.train(collected)
    return predictor


@pytest.fixture()
def recorded_log(rng):
    cluster = make_tiny_cluster(users=150, seed=9)
    for _ in range(12):
        jitter = rng.uniform(-0.2, 0.2, cluster.n_tiers)
        cluster.step(cluster.clip_alloc(cluster.current_alloc + jitter))
    return cluster.telemetry


def candidate_batch(log, n_tiers, b, rng):
    base = np.asarray(log.latest.cpu_alloc, dtype=float)
    return np.clip(base + rng.uniform(-1.0, 1.0, (b, n_tiers)), 0.2, 8.0)


class TestEncoderEquivalence:
    def test_shared_matches_reference(self, recorded_log, rng):
        graph = make_tiny_graph()
        cands = candidate_batch(recorded_log, graph.n_tiers, 8, rng)
        ref_rh, ref_lh, ref_rc = encode_candidates(
            WindowEncoder(graph, 5), recorded_log, cands
        )
        x_rh, x_lh, x_rc = WindowEncoder(graph, 5).encode_candidates_shared(
            recorded_log, cands
        )
        assert x_rh.shape[0] == 1 and x_lh.shape[0] == 1
        assert np.array_equal(np.broadcast_to(x_rh, ref_rh.shape), ref_rh)
        assert np.array_equal(np.broadcast_to(x_lh, ref_lh.shape), ref_lh)
        assert np.array_equal(x_rc, ref_rc)

    def test_shared_matches_reference_with_nans(self, recorded_log, rng):
        graph = make_tiny_graph()
        # Corrupt telemetry in place: sanitize_window must repair both
        # paths identically.
        recorded_log.latest.cpu_util[:] = np.nan
        recorded_log[len(recorded_log) - 3].latency_ms[1] = np.inf
        cands = candidate_batch(recorded_log, graph.n_tiers, 8, rng)
        ref = encode_candidates(WindowEncoder(graph, 5), recorded_log, cands)
        fast = WindowEncoder(graph, 5).encode_candidates_shared(recorded_log, cands)
        assert np.array_equal(np.broadcast_to(fast[0], ref[0].shape), ref[0])
        assert np.array_equal(np.broadcast_to(fast[1], ref[1].shape), ref[1])
        assert np.isfinite(fast[0]).all() and np.isfinite(fast[1]).all()

    def test_incremental_cache_matches_fresh(self, rng):
        """The shift-by-one cache path equals a cold full rebuild."""
        graph = make_tiny_graph()
        cluster = make_tiny_cluster(users=120, seed=4)
        encoder = WindowEncoder(graph, 5)
        for _ in range(10):
            jitter = rng.uniform(-0.2, 0.2, cluster.n_tiers)
            cluster.step(cluster.clip_alloc(cluster.current_alloc + jitter))
            cached = encoder.encode_history(cluster.telemetry)
            fresh = WindowEncoder(graph, 5).encode_history(cluster.telemetry)
            assert np.array_equal(cached[0], fresh[0])
            assert np.array_equal(cached[1], fresh[1])

    def test_cache_invalidated_on_different_log(self, rng):
        """Switching episodes mid-life never leaks stale windows."""
        graph = make_tiny_graph()
        encoder = WindowEncoder(graph, 5)
        for seed in (1, 2):
            cluster = make_tiny_cluster(users=100, seed=seed)
            cluster.run(8)
            got = encoder.encode_history(cluster.telemetry)
            want = WindowEncoder(graph, 5).encode_history(cluster.telemetry)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    def test_ffill_matches_sanitize_window(self):
        """Tensor-level forward-fill == the window-local stats repair."""
        window = [make_stats(time=float(i)) for i in range(5)]
        window[0].tx_pps[:] = np.nan
        window[2].cpu_util[:] = np.nan
        window[3].cpu_util[0] = np.inf
        window[4].latency_ms[:] = np.nan
        clean = sanitize_window(window)
        ref_rh = np.stack([s.resource_matrix() for s in clean], axis=2)
        ref_lh = np.stack([s.latency_ms for s in clean], axis=0)
        raw_rh = np.stack([s.resource_matrix() for s in window], axis=2)
        raw_lh = np.stack([s.latency_ms for s in window], axis=0)
        assert np.array_equal(_ffill_time(raw_rh, axis=2), ref_rh)
        assert np.array_equal(_ffill_time(raw_lh, axis=0), ref_lh)


class TestPredictorEquivalence:
    @pytest.mark.parametrize("b", [1, 4, 64])
    def test_fast_matches_reference_bitwise(self, trained, recorded_log, rng, b):
        cands = candidate_batch(recorded_log, trained.graph.n_tiers, b, rng)
        lat_fast, prob_fast = trained.predict_candidates(recorded_log, cands)
        lat_ref, prob_ref = predict_candidates_reference(trained, recorded_log, cands)
        assert np.array_equal(lat_fast, lat_ref)
        assert np.array_equal(prob_fast, prob_ref)

    def test_fast_matches_reference_on_corrupted_window(self, trained, recorded_log, rng):
        recorded_log.latest.latency_ms[:] = np.nan
        recorded_log[len(recorded_log) - 2].cpu_util[:] = np.inf
        cands = candidate_batch(recorded_log, trained.graph.n_tiers, 16, rng)
        lat_fast, prob_fast = trained.predict_candidates(recorded_log, cands)
        lat_ref, prob_ref = predict_candidates_reference(trained, recorded_log, cands)
        assert np.array_equal(lat_fast, lat_ref)
        assert np.array_equal(prob_fast, prob_ref)


class TestClosedLoopTrace:
    """Whole closed loops — cluster, telemetry, scheduler, predictor —
    run once on the production path and once with some layers on their
    oracles: the predictor's scoring, the control loop's candidate
    generation and selection, or every layer including the fluid
    engine.  Decisions feed back into the simulator, so a single
    divergence would compound; allocations, the scheduler's prediction
    trace, and every interval's telemetry must be bitwise equal.  The
    loops run with the compiled kernel (simulator and tree descent) and
    again on the numpy code that runs without it."""

    ORACLES = {
        "predictor": (use_reference_predictor,),
        "control": (use_reference_control,),
        "all": (use_reference_predictor, use_reference_control,
                use_reference_engine),
    }

    def _run(self, trained, oracles, profile):
        if profile == "clean":
            cluster = make_tiny_cluster(users=180, seed=41)
        else:
            cluster = make_faulty_cluster(180, 43, profile)
        graph = make_tiny_graph()
        predictor = copy.deepcopy(trained)
        predictor.encoder.invalidate_cache()
        space = ActionSpace(graph.min_alloc(), graph.max_alloc())
        scheduler = OnlineScheduler(predictor, space, QOS)
        targets = {
            use_reference_predictor: predictor,
            use_reference_control: scheduler,
            use_reference_engine: cluster.engine,
        }
        for use in oracles:
            use(targets[use])
        allocs = []
        for _ in range(20):
            cluster.step(cluster.current_alloc)
            alloc = scheduler.decide(cluster.observed)
            if alloc is not None:
                cluster.step(alloc)
                allocs.append(np.asarray(alloc, dtype=float).copy())
        return allocs, scheduler.prediction_trace, list(cluster.telemetry)

    PROFILES = ["clean", "chaos", "telemetry-dropout", "crash-storm"]

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("oracles", ["predictor", "control", "all"])
    def test_matches_oracles(self, trained, oracles, profile):
        self._check(trained, oracles, profile)

    @pytest.mark.parametrize("backend", ["numpy"], indirect=True)
    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("oracles", ["predictor", "control", "all"])
    def test_matches_oracles_without_kernel(
        self, backend, trained, oracles, profile
    ):
        self._check(trained, oracles, profile)

    def _check(self, trained, oracles, profile):
        allocs, records, telemetry = self._run(trained, (), profile)
        ref_allocs, ref_records, ref_telemetry = self._run(
            trained, self.ORACLES[oracles], profile
        )
        assert len(allocs) == len(ref_allocs) > 0
        for a, b in zip(allocs, ref_allocs):
            assert np.array_equal(a, b)
        assert len(records) == len(ref_records)
        for rec_a, rec_b in zip(records, ref_records):
            assert rec_a.keys() == rec_b.keys()
            for key in rec_a:
                va, vb = rec_a[key], rec_b[key]
                assert va == vb or (np.isnan(va) and np.isnan(vb))
        assert len(telemetry) == len(ref_telemetry)
        for i, (a, b) in enumerate(zip(telemetry, ref_telemetry)):
            assert_stats_equal(a, b, f"interval {i}")


class TestTrainingEquivalenceUnderFaults:
    """Production *training* on sanitized fault-corrupted data is a
    drop-in for the reference paths: the histogram grower reproduces the
    reference tree structure, and the im2col CNN reproduces the
    reference loss trajectory — NaN-repaired windows (forward-filled
    plateaus, zero backfill, duplicated values) are exactly the
    tie-heavy inputs most likely to expose divergence."""

    @pytest.fixture(scope="class")
    def repaired(self):
        rng = np.random.default_rng(7)
        n, f, tiers, t, m = 240, 5, 4, 6, 5
        x_rh = rng.normal(2.0, 1.0, (n, f, tiers, t))
        x_lh = np.abs(rng.normal(100.0, 20.0, (n, t, m)))
        # Telemetry faults: whole dropped intervals, sporadic NaN/inf
        # channels — then the PR 2 repair (forward-fill over time).
        x_rh[np.broadcast_to(rng.random((n, 1, 1, t)) < 0.1, x_rh.shape)] = np.nan
        x_rh[rng.random(x_rh.shape) < 0.02] = np.inf
        x_lh[rng.random(x_lh.shape) < 0.05] = np.nan
        x_rh = _ffill_time(x_rh, axis=3)
        x_lh = _ffill_time(x_lh, axis=1)
        assert np.isfinite(x_rh).all() and np.isfinite(x_lh).all()
        x_rc = np.abs(rng.normal(2.0, 0.5, (n, tiers)))
        signal = x_rh[:, 0].mean(axis=(1, 2)) + 0.5 * x_rc.mean(axis=1)
        y_lat = 100.0 + 10.0 * np.repeat(signal[:, None], m, axis=1)
        y_viol = (
            signal + rng.normal(0.0, 0.3, n) > np.median(signal)
        ).astype(float)
        return (x_rh, x_lh, x_rc), y_lat, y_viol

    def test_tree_structures_match_reference(self, repaired):
        from repro.ml.boosted_trees import BoostedTrees, BoostedTreesConfig

        (x_rh, _, x_rc), _, y_viol = repaired
        X = np.concatenate([x_rh.reshape(len(x_rh), -1), x_rc], axis=1)
        config = BoostedTreesConfig(n_trees=30)

        def fit(fast):
            cls = BoostedTrees if fast else ReferenceBoostedTrees
            return cls(config, seed=0).fit(X, y_viol)

        fast, ref = fit(True), fit(False)
        assert_same_structure(fast, ref)
        assert np.array_equal(fast.predict_margin(X), ref.predict_margin(X))

    def test_cnn_loss_trajectory_matches_reference(self, repaired):
        from repro.ml.cnn import LatencyCNN

        inputs, y_lat, _ = repaired
        small = CNNConfig(
            conv_channels=(4,), rh_embed=16, lh_embed=8, rc_embed=8, latent_dim=16
        )

        def fit(fast):
            model = LatencyCNN(4, 6, 5, 5, config=small, seed=0)
            if not fast:
                use_reference_training(model)
            return model.fit(inputs, y_lat, epochs=4, batch_size=64, seed=3)

        fast, ref = fit(True), fit(False)
        assert fast.epochs_run == ref.epochs_run
        np.testing.assert_allclose(
            fast.train_loss, ref.train_loss, rtol=0, atol=1e-8
        )

    def test_predictor_training_bitwise_matches_padded_oracle(self, collected):
        """A whole ``HybridPredictor.train``, production vs the bit-exact
        CNN oracles: equal CNN bits, equal compiled trees, and an equal
        report but for the wall-clock epoch times."""
        fast = HybridPredictor(make_tiny_graph(), QOS, FAST, seed=0)
        ref = use_padded_training(
            HybridPredictor(make_tiny_graph(), QOS, FAST, seed=0)
        )
        report_fast, report_ref = fast.train(collected), ref.train(collected)
        for a, b in zip(fast.cnn.params(), ref.cnn.params()):
            assert a.tobytes() == b.tobytes()
        trees_fast, trees_ref = fast.trees._compiled, ref.trees._compiled
        assert trees_fast.max_depth == trees_ref.max_depth
        for name in ("feature", "threshold", "children", "value", "roots"):
            assert (
                getattr(trees_fast, name).tobytes()
                == getattr(trees_ref, name).tobytes()
            ), name
        report_fast.cnn_fit.epoch_time_s = report_ref.cnn_fit.epoch_time_s = []
        assert repr(report_fast) == repr(report_ref)

    def test_predictor_training_quality_matches_reference(self, collected):
        """A whole ``HybridPredictor.train`` on collected data, production
        vs every training oracle: the paths differ by float rounding, so
        the models agree in reported quality, not bitwise."""
        fast = HybridPredictor(make_tiny_graph(), QOS, FAST, seed=0)
        ref = use_reference_training(
            HybridPredictor(make_tiny_graph(), QOS, FAST, seed=0)
        )
        report_fast = fast.train(collected)
        report_ref = ref.train(collected)
        assert report_fast.rmse_val == pytest.approx(
            report_ref.rmse_val, rel=0.05, abs=1.0
        )
        assert report_fast.bt_accuracy_val == pytest.approx(
            report_ref.bt_accuracy_val, abs=0.05
        )
