"""Cluster simulator wrapper tests."""

import numpy as np
import pytest

from repro.sim.cluster import (
    GCE_PLATFORM,
    LOCAL_PLATFORM,
    ClusterSimulator,
    PlatformSpec,
)
from repro.workload.generator import RequestMix, Workload
from repro.workload.patterns import ConstantLoad

from tests.conftest import make_tiny_cluster, make_tiny_graph


class TestStep:
    def test_step_appends_telemetry(self, tiny_cluster):
        stats = tiny_cluster.step()
        assert len(tiny_cluster.telemetry) == 1
        assert tiny_cluster.telemetry.latest is stats
        assert tiny_cluster.time == pytest.approx(1.0)

    def test_step_with_vector(self, tiny_cluster):
        alloc = np.full(tiny_cluster.n_tiers, 2.0)
        stats = tiny_cluster.step(alloc)
        np.testing.assert_allclose(stats.cpu_alloc, alloc)

    def test_step_with_partial_dict(self, tiny_cluster):
        before = tiny_cluster.current_alloc.copy()
        stats = tiny_cluster.step({"db": 3.0})
        db = tiny_cluster.graph.index["db"]
        assert stats.cpu_alloc[db] == pytest.approx(3.0)
        unchanged = [i for i in range(tiny_cluster.n_tiers) if i != db]
        np.testing.assert_allclose(stats.cpu_alloc[unchanged], before[unchanged])

    def test_step_none_keeps_current(self, tiny_cluster):
        first = tiny_cluster.step()
        second = tiny_cluster.step(None)
        np.testing.assert_allclose(second.cpu_alloc, first.cpu_alloc)

    def test_run_fixed_duration(self, tiny_cluster):
        log = tiny_cluster.run(5)
        assert len(log) == 5

    def test_reset(self, tiny_cluster):
        tiny_cluster.run(3)
        tiny_cluster.reset(seed=9)
        assert len(tiny_cluster.telemetry) == 0
        assert tiny_cluster.time == 0.0

    def test_reset_restores_initial_alloc(self, tiny_cluster):
        """Regression: back-to-back episodes used to start from whatever
        the previous manager last set, not the deploy-time allocation."""
        initial = tiny_cluster.current_alloc.copy()
        tiny_cluster.step(np.full(tiny_cluster.n_tiers, 1.0))
        assert not np.allclose(tiny_cluster.current_alloc, initial)
        tiny_cluster.reset()
        np.testing.assert_allclose(tiny_cluster.current_alloc, initial)

    def test_reset_restores_explicit_initial_alloc(self):
        graph = make_tiny_graph()
        mix = RequestMix.from_ratios({"Read": 1})
        cluster = ClusterSimulator(
            graph,
            Workload(graph, ConstantLoad(10), mix),
            initial_alloc=np.full(graph.n_tiers, 1.5),
        )
        cluster.step(np.full(graph.n_tiers, 3.0))
        cluster.reset(seed=4)
        np.testing.assert_allclose(cluster.current_alloc, 1.5)


class TestClipAlloc:
    def test_clips_to_tier_bounds(self, tiny_cluster):
        clipped = tiny_cluster.clip_alloc(np.full(tiny_cluster.n_tiers, 100.0))
        np.testing.assert_allclose(clipped, tiny_cluster.max_alloc)
        clipped = tiny_cluster.clip_alloc(np.full(tiny_cluster.n_tiers, 0.001))
        np.testing.assert_allclose(clipped, tiny_cluster.min_alloc)

    def test_scales_back_above_cluster_capacity(self):
        graph = make_tiny_graph()
        mix = RequestMix.from_ratios({"Read": 1})
        platform = PlatformSpec(name="small", total_cpu=10.0)
        cluster = ClusterSimulator(
            graph, Workload(graph, ConstantLoad(10), mix), platform=platform
        )
        clipped = cluster.clip_alloc(graph.max_alloc())
        assert clipped.sum() == pytest.approx(10.0)
        assert np.all(clipped >= cluster.min_alloc - 1e-9)

    def test_within_capacity_untouched(self, tiny_cluster):
        alloc = np.full(tiny_cluster.n_tiers, 1.0)
        np.testing.assert_allclose(tiny_cluster.clip_alloc(alloc), alloc)


class TestPlatforms:
    def test_gce_adds_replicas(self):
        graph = make_tiny_graph()
        mix = RequestMix.from_ratios({"Read": 1})
        cluster = ClusterSimulator(
            graph, Workload(graph, ConstantLoad(10), mix), platform=GCE_PLATFORM
        )
        assert all(
            t.replicas == GCE_PLATFORM.replica_factor for t in cluster.graph.tiers
        )

    def test_local_platform_default(self, tiny_cluster):
        assert tiny_cluster.platform is LOCAL_PLATFORM
        assert all(t.replicas == 1 for t in tiny_cluster.graph.tiers)

    def test_workload_rebound_to_replicated_graph(self):
        graph = make_tiny_graph()
        mix = RequestMix.from_ratios({"Read": 1})
        cluster = ClusterSimulator(
            graph, Workload(graph, ConstantLoad(10), mix), platform=GCE_PLATFORM
        )
        # Should step fine with the rebuilt graph.
        stats = cluster.step()
        assert stats.rps >= 0

    def test_initial_alloc_respects_bounds(self, tiny_cluster):
        assert np.all(tiny_cluster.current_alloc >= tiny_cluster.min_alloc)
        assert np.all(tiny_cluster.current_alloc <= tiny_cluster.max_alloc)

    def test_explicit_initial_alloc(self):
        graph = make_tiny_graph()
        mix = RequestMix.from_ratios({"Read": 1})
        cluster = ClusterSimulator(
            graph,
            Workload(graph, ConstantLoad(10), mix),
            initial_alloc=np.full(graph.n_tiers, 1.5),
        )
        np.testing.assert_allclose(cluster.current_alloc, 1.5)


class TestCopy:
    """A simulator that has stepped copies, by ``copy.deepcopy`` or by
    pickle, and every copy steps bit for bit like the original.  The
    engine's interval plan (the compiled kernel's handles among it) is
    scratch: copies drop it and rebuild it on their next step."""

    @staticmethod
    def _cluster(faults):
        from repro.harness.pipeline import app_spec
        from repro.sim.faults import FaultInjector

        graph = app_spec("social_network").graph_factory()
        mix = RequestMix.from_ratios({name: 1.0 for name in graph.type_names})
        injector = (
            FaultInjector("chaos", graph.n_tiers, seed=3) if faults else None
        )
        return ClusterSimulator(
            graph, Workload(graph, ConstantLoad(260), mix), seed=4,
            faults=injector,
        )

    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    @pytest.mark.parametrize("faults", [False, True])
    def test_copy_steps_like_the_original(self, backend, how, faults):
        import copy
        import pickle

        from tests.sim.test_fast_sim import assert_stats_equal

        cluster = self._cluster(faults)
        base = cluster.current_alloc.copy()
        phase = np.arange(cluster.n_tiers)

        def allocs(i):
            return base * (1.0 + 0.2 * np.sin(i + phase))

        for i in range(5):
            cluster.step(allocs(i))
        if how == "deepcopy":
            twin = copy.deepcopy(cluster)
        else:
            twin = pickle.loads(pickle.dumps(cluster))
        assert twin.engine._fast_plan is None
        for i in range(5, 25):
            assert_stats_equal(
                cluster.step(allocs(i)), twin.step(allocs(i)), f"interval {i}"
            )
        assert (
            twin.engine._rng.bit_generator.state
            == cluster.engine._rng.bit_generator.state
        )
        assert (twin.engine._fast_plan is None) == (backend == "numpy")
