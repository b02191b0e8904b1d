"""Feature encoding and dataset-building tests."""

import numpy as np
import pytest

from repro.core.features import WindowEncoder, build_dataset, sanitize_window
from repro.core.qos import QoSTarget
from repro.sim.cluster import ClusterSimulator
from repro.sim.faults import FaultInjector, resolve_profile
from repro.workload.generator import RequestMix, Workload
from repro.workload.patterns import ConstantLoad
from tests.conftest import make_tiny_cluster, make_tiny_graph
from tests.sim.test_telemetry import make_stats


@pytest.fixture
def recorded_cluster():
    cluster = make_tiny_cluster(users=80, seed=3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        alloc = cluster.current_alloc + rng.uniform(-0.3, 0.3, cluster.n_tiers)
        cluster.step(cluster.clip_alloc(alloc))
    return cluster


class TestSanitizeWindow:
    def test_clean_window_returned_as_is(self):
        window = [make_stats(time=float(i)) for i in range(3)]
        assert sanitize_window(window) is window

    def test_nan_carried_forward_from_last_finite(self):
        window = [make_stats(time=float(i)) for i in range(3)]
        window[1].cpu_util[:] = np.nan
        cleaned = sanitize_window(window)
        np.testing.assert_allclose(cleaned[1].cpu_util, window[0].cpu_util)
        # Originals are never mutated.
        assert np.isnan(window[1].cpu_util).all()

    def test_elementwise_repair(self):
        """Only the non-finite elements are replaced."""
        window = [make_stats(time=float(i)) for i in range(2)]
        window[1].rss_mb[0] = np.inf
        window[1].rss_mb[2] = 777.0
        cleaned = sanitize_window(window)
        assert cleaned[1].rss_mb[0] == window[0].rss_mb[0]
        assert cleaned[1].rss_mb[2] == 777.0

    def test_zero_fill_when_never_finite(self):
        window = [make_stats(time=float(i)) for i in range(2)]
        for stats in window:
            stats.latency_ms[:] = np.nan
        cleaned = sanitize_window(window)
        for stats in cleaned:
            np.testing.assert_allclose(stats.latency_ms, 0.0)

    def test_repaired_values_propagate(self):
        """A repaired interval becomes the carry-forward source for the
        next corrupted one."""
        window = [make_stats(time=float(i)) for i in range(3)]
        window[0].tx_pps[:] = 42.0
        window[1].tx_pps[:] = np.nan
        window[2].tx_pps[:] = np.nan
        cleaned = sanitize_window(window)
        np.testing.assert_allclose(cleaned[2].tx_pps, 42.0)

    def test_encoder_output_finite_under_corruption(self):
        window = [make_stats(time=float(i)) for i in range(5)]
        window[2].cpu_util[:] = np.nan
        window[4].latency_ms[:] = np.nan
        enc = WindowEncoder.__new__(WindowEncoder)
        # Build a minimal encoder for the 3-tier make_stats shape.
        from repro.sim.graph import AppGraph, RequestType
        from repro.sim.tier import TierKind, TierSpec
        tiers = [TierSpec(f"t{i}", kind=TierKind.LOGIC) for i in range(3)]
        graph = AppGraph(
            "x", tiers, [("t0", "t1"), ("t1", "t2")],
            [RequestType("r", stages=(("t0",), ("t1",), ("t2",)))],
        )
        enc = WindowEncoder(graph, n_timesteps=5)
        x_rh, x_lh, _ = enc.encode_window(window, np.ones(3))
        assert np.isfinite(x_rh).all()
        assert np.isfinite(x_lh).all()


class TestWindowEncoder:
    def test_encode_shapes(self, recorded_cluster):
        graph = recorded_cluster.graph
        enc = WindowEncoder(graph, n_timesteps=5)
        cand = np.ones(graph.n_tiers)
        x_rh, x_lh, x_rc = enc.encode_log(recorded_cluster.telemetry, cand)
        assert x_rh.shape == (6, graph.n_tiers, 5)
        assert x_lh.shape == (5, 5)
        assert x_rc.shape == (graph.n_tiers,)

    def test_window_length_enforced(self, recorded_cluster):
        enc = WindowEncoder(recorded_cluster.graph, n_timesteps=5)
        window = [recorded_cluster.telemetry[i] for i in range(3)]
        with pytest.raises(ValueError, match="window"):
            enc.encode_window(window, np.ones(recorded_cluster.n_tiers))

    def test_candidate_shape_enforced(self, recorded_cluster):
        enc = WindowEncoder(recorded_cluster.graph, n_timesteps=5)
        with pytest.raises(ValueError, match="candidate_alloc"):
            enc.encode_log(recorded_cluster.telemetry, np.ones(2))

    def test_encode_candidates_broadcasts_history(self, recorded_cluster):
        graph = recorded_cluster.graph
        enc = WindowEncoder(graph, n_timesteps=4)
        cands = np.ones((7, graph.n_tiers))
        cands[3] = 2.0
        log = recorded_cluster.telemetry
        x_rh, x_lh, x_rc = enc.encode_candidates_shared(log, cands)
        # One history row serves all seven candidates.
        assert x_rh.shape == (1, 6, graph.n_tiers, 4)
        assert x_lh.shape == (1, 4, 5)
        np.testing.assert_allclose(x_rc, cands)
        for cand in (cands[0], cands[3]):
            s_rh, s_lh, s_rc = enc.encode_log(log, cand)
            np.testing.assert_array_equal(x_rh[0], s_rh)
            np.testing.assert_array_equal(x_lh[0], s_lh)

    def test_timestamp_ordering_latest_last(self, recorded_cluster):
        graph = recorded_cluster.graph
        enc = WindowEncoder(graph, n_timesteps=3)
        log = recorded_cluster.telemetry
        x_rh, x_lh, _ = enc.encode_log(log, np.ones(graph.n_tiers))
        np.testing.assert_allclose(x_lh[-1], log.latest.latency_ms)
        np.testing.assert_allclose(x_rh[1, :, -1], log.latest.cpu_alloc)

    def test_rejects_zero_timesteps(self, recorded_cluster):
        with pytest.raises(ValueError):
            WindowEncoder(recorded_cluster.graph, n_timesteps=0)


class TestBuildDataset:
    def test_alignment_with_next_interval(self, recorded_cluster):
        graph = recorded_cluster.graph
        qos = QoSTarget(200.0)
        ds = build_dataset(recorded_cluster.telemetry, graph, qos, n_timesteps=5, horizon=3)
        log = recorded_cluster.telemetry
        # sample i corresponds to window ending at interval i+4;
        # its candidate allocation is what interval i+5 applied.
        np.testing.assert_allclose(ds.X_RC[0], log[5].cpu_alloc)
        np.testing.assert_allclose(ds.y_lat[0], log[5].latency_ms)
        np.testing.assert_allclose(ds.X_RH[0][1, :, -1], log[4].cpu_alloc)

    def test_sample_count(self, recorded_cluster):
        ds = build_dataset(
            recorded_cluster.telemetry,
            recorded_cluster.graph,
            QoSTarget(200.0),
            n_timesteps=5,
        )
        assert len(ds) == len(recorded_cluster.telemetry) - 5

    def test_violation_labels_respect_horizon(self, recorded_cluster):
        graph = recorded_cluster.graph
        qos = QoSTarget(1.0)  # everything violates
        ds = build_dataset(recorded_cluster.telemetry, graph, qos, horizon=3)
        assert ds.violation_fraction() == 1.0
        qos_loose = QoSTarget(1e9)
        ds2 = build_dataset(recorded_cluster.telemetry, graph, qos_loose, horizon=3)
        assert ds2.violation_fraction() == 0.0

    def test_too_short_episode_rejected(self):
        cluster = make_tiny_cluster(users=10, seed=0)
        cluster.run(3)
        with pytest.raises(ValueError, match="too short"):
            build_dataset(cluster.telemetry, cluster.graph, QoSTarget(200.0), n_timesteps=5)

    def test_vectorized_matches_per_window_encoding(self, recorded_cluster):
        """The sliding-window fast path == sample-by-sample encoding."""
        log = recorded_cluster.telemetry
        graph = recorded_cluster.graph
        ds = build_dataset(log, graph, QoSTarget(200.0), n_timesteps=5, horizon=3)
        encoder = WindowEncoder(graph, 5)
        for i in (4, 9, len(log) - 2):
            window = [log[j] for j in range(i - 4, i + 1)]
            x_rh, x_lh, x_rc = encoder.encode_window(window, log[i + 1].cpu_alloc)
            j = i - 4
            assert np.array_equal(ds.X_RH[j], x_rh)
            assert np.array_equal(ds.X_LH[j], x_lh)
            assert np.array_equal(ds.X_RC[j], x_rc)

    def test_corrupted_log_falls_back_to_window_repair(self, recorded_cluster):
        """Non-finite telemetry routes through the per-window loop and
        still yields finite, correctly shaped features."""
        log = recorded_cluster.telemetry
        log[6].cpu_util[:] = np.nan
        log[7].latency_ms[0] = np.inf
        ds = build_dataset(
            log, recorded_cluster.graph, QoSTarget(200.0), n_timesteps=5
        )
        assert len(ds) == len(log) - 5
        assert np.isfinite(ds.X_RH).all()
        assert np.isfinite(ds.X_LH).all()

    @pytest.mark.parametrize("profile", ["telemetry-dropout", "chaos"])
    def test_observed_log_gives_finite_features(self, profile):
        """A fault-injected ``observed`` log: the windows are repaired,
        so no NaN reaches the model's features (nor the boosted trees'
        bins, which a NaN column would collapse).  Lost latency readings
        stay NaN in ``y_lat``; the CNN's latency cap drops those rows,
        and their violation labels count them as violations."""
        graph = make_tiny_graph()
        workload = Workload(
            graph, ConstantLoad(150), RequestMix.from_ratios({"Read": 9, "Write": 1})
        )
        faults = FaultInjector(resolve_profile(profile), graph.n_tiers, seed=3)
        cluster = ClusterSimulator(graph, workload, seed=3, faults=faults)
        cluster.run(120)
        qos = QoSTarget(200.0)
        ds = build_dataset(cluster.observed, graph, qos, n_timesteps=5, horizon=3)
        assert np.isfinite(ds.X_RH).all()
        assert np.isfinite(ds.X_LH).all()
        assert np.isfinite(ds.X_RC).all()
        lost = np.isnan(ds.y_lat[:, qos.percentile_index])
        assert lost.any()
        assert (ds.y_viol[lost] == 1).all()
        # A lost reading loses the whole row, so the cap on p99 alone
        # leaves the CNN's fit finite targets (it refuses any other).
        assert np.array_equal(np.isnan(ds.y_lat).any(axis=1), lost)
        capped = ds.filter_latency_below(2.4 * qos.latency_ms)
        assert not np.isnan(capped.y_lat).any()

    def test_meta_propagated(self, recorded_cluster):
        ds = build_dataset(
            recorded_cluster.telemetry,
            recorded_cluster.graph,
            QoSTarget(200.0),
            meta={"policy": "test"},
        )
        assert ds.meta["policy"] == "test"
        assert ds.meta["app"] == "tiny"
        assert ds.meta["qos_ms"] == 200.0
