"""Resilience harness tests: recovery metric, episodes, sweep determinism."""

from dataclasses import asdict

import numpy as np
import pytest

from repro.core.manager import StaticManager
from repro.core.qos import QoSTarget
from repro.harness.bench import BenchConfig, make_synthetic_predictor
from repro.harness.resilience import (
    ResilienceResult,
    format_resilience_report,
    recovery_time,
    run_resilience_episode,
    sweep_resilience,
)
from repro.sim.cluster import ClusterSimulator
from repro.sim.faults import FaultInjector
from repro.workload.generator import RequestMix, Workload
from repro.workload.patterns import ConstantLoad
from tests.conftest import make_tiny_graph

QOS_MS = 100.0


class TestRecoveryTime:
    def test_no_violation_is_zero(self):
        p99 = np.full(20, 50.0)
        assert recovery_time(p99, QOS_MS, start_idx=5, fault_intervals=4) == 0.0

    def test_counts_onset_to_recovery(self):
        p99 = np.full(20, 50.0)
        p99[7:11] = 300.0  # violation starts 2 intervals after onset at 5
        assert recovery_time(p99, QOS_MS, start_idx=5, fault_intervals=4) == 6.0

    def test_never_recovered_runs_to_episode_end(self):
        p99 = np.full(10, 50.0)
        p99[6:] = 300.0
        assert recovery_time(p99, QOS_MS, start_idx=5, fault_intervals=3) == 5.0

    def test_violation_outside_window_not_attributed(self):
        p99 = np.full(30, 50.0)
        p99[25] = 300.0  # far past fault window + grace
        assert recovery_time(p99, QOS_MS, start_idx=2, fault_intervals=3) == 0.0

    def test_onset_past_series_end(self):
        assert recovery_time(np.full(5, 300.0), QOS_MS, 10, 3) == 0.0


def make_fault_cluster(profile, users=150, seed=0):
    graph = make_tiny_graph()
    workload = Workload(
        graph, ConstantLoad(users), RequestMix.from_ratios({"Read": 9, "Write": 1})
    )
    injector = FaultInjector(profile, graph.n_tiers, seed=seed)
    return ClusterSimulator(graph, workload, seed=seed, faults=injector)


class TestRunResilienceEpisode:
    def test_fault_free_cluster_supported(self):
        graph = make_tiny_graph()
        workload = Workload(
            graph, ConstantLoad(100),
            RequestMix.from_ratios({"Read": 9, "Write": 1}),
        )
        cluster = ClusterSimulator(graph, workload, seed=0)
        result = run_resilience_episode(
            StaticManager(cluster.max_alloc * 0.5), cluster, 20,
            QoSTarget(500.0), warmup=5,
        )
        assert result.profile == "none"
        assert result.n_faults == 0
        assert result.dropped_intervals == 0

    def test_counters_and_metadata(self):
        cluster = make_fault_cluster("chaos", seed=1)
        manager = StaticManager(cluster.max_alloc * 0.5)
        result = run_resilience_episode(
            manager, cluster, 40, QoSTarget(500.0), warmup=5
        )
        assert result.manager_name == manager.name
        assert result.profile == "chaos"
        assert 0.0 <= result.qos_fraction <= 1.0
        assert result.n_faults == len(
            cluster.faults.physics_events(until=cluster.telemetry.latest.time)
        )
        assert len(result.recovery_times) == result.n_faults
        assert result.dropped_intervals == cluster.faults.dropped_intervals
        # A manager without safety counters reports them as unknown.
        assert result.mispredictions is None
        assert result.fallbacks is None
        assert "-" in result.row()

    def test_duration_must_exceed_warmup(self):
        cluster = make_fault_cluster("crash-storm")
        with pytest.raises(ValueError, match="warmup"):
            run_resilience_episode(
                StaticManager(cluster.max_alloc), cluster, 5,
                QoSTarget(500.0), warmup=5,
            )

    def test_mean_recovery(self):
        result = ResilienceResult(
            manager_name="m", profile="p", users=1.0, qos_ms=1.0,
            duration=1, qos_fraction=1.0, mean_total_cpu=1.0,
            max_total_cpu=1.0, n_faults=2, recovery_times=[2.0, 4.0],
        )
        assert result.mean_recovery == pytest.approx(3.0)
        empty = ResilienceResult(
            manager_name="m", profile="p", users=1.0, qos_ms=1.0,
            duration=1, qos_fraction=1.0, mean_total_cpu=1.0,
            max_total_cpu=1.0, n_faults=0,
        )
        assert empty.mean_recovery == 0.0


class TestSweepResilience:
    @pytest.fixture(scope="class")
    def serial_results(self):
        return sweep_resilience(
            "social_network",
            profiles=["crash-storm", "telemetry-dropout"],
            manager_names=["autoscale-cons", "static"],
            users=250.0, duration=30, seed=3, warmup=5,
        )

    def test_grid_order_and_pairing(self, serial_results):
        cells = [(r.profile, r.manager_name) for r in serial_results]
        assert cells == [
            ("crash-storm", "AutoScaleCons"),
            ("crash-storm", "static"),
            ("telemetry-dropout", "AutoScaleCons"),
            ("telemetry-dropout", "static"),
        ]
        # Same profile -> same fault schedule for every manager (paired).
        assert (serial_results[0].n_faults == serial_results[1].n_faults)

    def test_parallel_matches_serial(self, serial_results):
        parallel = sweep_resilience(
            "social_network",
            profiles=["crash-storm", "telemetry-dropout"],
            manager_names=["autoscale-cons", "static"],
            users=250.0, duration=30, seed=3, warmup=5, jobs=2,
        )
        for a, b in zip(serial_results, parallel):
            assert a.qos_fraction == b.qos_fraction
            assert a.mean_total_cpu == b.mean_total_cpu
            assert a.recovery_times == b.recovery_times
            assert a.dropped_intervals == b.dropped_intervals

    def test_broadcast_model_under_chaos_matches_serial(self):
        """Sinan cells carry their predictor in each pooled task; under
        the chaos profile the pooled cells must equal the serial ones
        field for field."""
        predictor = make_synthetic_predictor(
            BenchConfig(n_trees=20, tree_depth=3)
        )
        runs = [
            sweep_resilience(
                "social_network", profiles=["chaos"],
                manager_names=["sinan", "static"], users=250.0,
                duration=8, seed=29, warmup=2, predictor=predictor, jobs=jobs,
            )
            for jobs in (1, 2)
        ]
        serial, pooled = runs
        assert len(serial) == len(pooled) == 2
        for a, b in zip(serial, pooled):
            assert asdict(a) == asdict(b)

    def test_report_formatting(self, serial_results):
        report = format_resilience_report(serial_results)
        assert "crash-storm" in report
        assert "P(QoS)" in report
        assert "drop/corrupt" in report
