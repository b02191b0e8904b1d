"""Data-collection policy tests (paper Section 4.2)."""

import numpy as np
import pytest

from repro.baselines.autoscale import AutoScale
from repro.core.data_collection import (
    _ABS_DELTAS,
    _REL_DELTAS,
    AutoscaleCollectPolicy,
    BanditExplorer,
    BanditPolicyFactory,
    CollectionConfig,
    DataCollector,
    RandomCollectPolicy,
    _ci_shrink,
)
from repro.core.qos import QoSTarget
from repro.harness import pipeline
from repro.harness.pipeline import (
    BUDGETS,
    app_spec,
    collect_training_data,
    collection_loads,
    make_cluster,
)
from tests.conftest import make_tiny_cluster, make_tiny_graph
from tests.oracles.collection import (
    ReferenceBanditExplorer,
    ReferenceBanditPolicyFactory,
)


@pytest.fixture
def config():
    return CollectionConfig(qos=QoSTarget(200.0))


class TestBanditExplorer:
    def test_decisions_within_bounds(self, config):
        cluster = make_tiny_cluster(users=100, seed=0)
        explorer = BanditExplorer(config, seed=0)
        for _ in range(15):
            alloc = explorer.decide(cluster)
            assert np.all(alloc >= cluster.min_alloc - 1e-9)
            assert np.all(alloc <= cluster.max_alloc + 1e-9)
            stats = cluster.step(alloc)
            explorer.observe(config.qos.latency_of(stats) <= 200.0)

    def test_visits_multiple_arms(self, config):
        cluster = make_tiny_cluster(users=100, seed=1)
        explorer = BanditExplorer(config, seed=1)
        for _ in range(25):
            alloc = explorer.decide(cluster)
            stats = cluster.step(alloc)
            explorer.observe(config.qos.latency_of(stats) <= 200.0)
        assert explorer.n_arms_visited > 10

    def test_info_gain_decreases_with_samples(self, config):
        explorer = BanditExplorer(config, seed=0)
        state, tier, bucket = (0, 0, 0), 0, 5
        table = explorer._table(state, 1, 8)
        fresh_gain = _ci_shrink(*table[tier, bucket])
        table[tier, bucket] = (10, 20)  # (meets, total)
        seen_gain = _ci_shrink(*explorer._table(state, 1, 8)[tier, bucket])
        assert fresh_gain > seen_gain > 0

    def test_deep_overload_jumps_to_max(self, config):
        cluster = make_tiny_cluster(users=400, seed=2)
        cluster.current_alloc = cluster.clip_alloc(
            np.full(cluster.n_tiers, 0.2)
        )
        for _ in range(6):
            cluster.step()
        explorer = BanditExplorer(config, seed=0)
        alloc = explorer.decide(cluster)
        np.testing.assert_allclose(alloc, cluster.max_alloc)

    def test_no_reclamation_while_violating(self, config):
        """In the violating band, no tier goes below its current alloc."""
        cluster = make_tiny_cluster(users=200, seed=3)
        cluster.current_alloc = cluster.clip_alloc(np.full(cluster.n_tiers, 0.6))
        # run until mild violation (within [QoS, QoS*(1+alpha)])
        explorer = BanditExplorer(config, seed=0)
        for _ in range(20):
            stats = cluster.step()
            ratio = config.qos.latency_of(stats) / 200.0
            if 1.0 < ratio <= 1.2:
                before = cluster.current_alloc.copy()
                alloc = explorer.decide(cluster)
                assert np.all(alloc >= before - 1e-9)
                break


class TestBanditNaNLatency:
    def test_nan_latency_blocks_reclamation(self, config):
        """A non-finite measured latency (idle interval, corrupted
        telemetry) must not read as "comfortably meeting QoS": no tier
        may be reclaimed below its current allocation."""
        cluster = make_tiny_cluster(users=100, seed=4)
        for _ in range(3):
            cluster.step()
        cluster.telemetry.latest.latency_ms[:] = np.nan
        explorer = BanditExplorer(config, seed=0)
        before = cluster.current_alloc.copy()
        alloc = explorer.decide(cluster)
        assert np.all(alloc >= before - 1e-9)

    def test_nan_latency_skips_arm_updates(self, config):
        """The QoS-met outcome of a blind step is meaningless (NaN <= x
        is False); the Bernoulli arm statistics must not absorb it."""
        cluster = make_tiny_cluster(users=100, seed=4)
        for _ in range(3):
            cluster.step()
        cluster.telemetry.latest.latency_ms[:] = np.nan
        explorer = BanditExplorer(config, seed=0)
        explorer.decide(cluster)
        assert explorer._pending is None
        explorer.observe(False)  # the inconsistent "not met" outcome
        assert explorer.n_arms_visited == 0

    def test_finite_latency_still_updates_arms(self, config):
        cluster = make_tiny_cluster(users=100, seed=4)
        for _ in range(3):
            cluster.step()
        explorer = BanditExplorer(config, seed=0)
        explorer.decide(cluster)
        _, buckets = explorer._pending
        assert len(buckets) == cluster.n_tiers
        explorer.observe(True)
        assert explorer.n_arms_visited > 0


class TestOtherPolicies:
    def test_random_policy_moves_within_bounds(self):
        cluster = make_tiny_cluster(users=50, seed=0)
        cluster.step()
        policy = RandomCollectPolicy(seed=0)
        seen = set()
        for _ in range(10):
            alloc = policy.decide(cluster)
            assert np.all(alloc >= cluster.min_alloc - 1e-9)
            assert np.all(alloc <= cluster.max_alloc + 1e-9)
            seen.add(round(float(alloc.sum()), 3))
            cluster.step(alloc)
        assert len(seen) > 3  # it actually wanders

    def test_autoscale_policy_delegates(self):
        cluster = make_tiny_cluster(users=50, seed=0)
        cluster.step()
        manager = AutoScale.opt(cluster.min_alloc, cluster.max_alloc, cooldown=1)
        policy = AutoscaleCollectPolicy(manager)
        alloc = policy.decide(cluster)
        expected = manager.decide(cluster.telemetry)
        # Same rules re-applied a second time may differ because of the
        # manager's cooldown state, so compare against a fresh manager.
        fresh = AutoScale.opt(cluster.min_alloc, cluster.max_alloc, cooldown=1)
        np.testing.assert_allclose(alloc, fresh.decide(cluster.telemetry))

    def test_policies_observe_is_safe(self):
        RandomCollectPolicy().observe(True)
        AutoscaleCollectPolicy(None).observe(False)


class TestDataCollector:
    def test_collect_produces_aligned_dataset(self, config):
        collector = DataCollector(
            lambda users, seed: make_tiny_cluster(users, seed), config
        )
        result = collector.collect(
            BanditExplorer(config, seed=0), loads=[50, 150], seconds_per_load=20
        )
        ds = result.dataset
        # 20 intervals per load, minus window (5) and lookahead (1).
        assert len(ds) == 2 * (20 - config.n_timesteps - 1 + 1)
        assert ds.X_RH.shape[1:] == (6, 4, config.n_timesteps)
        assert len(result.logs) == 2

    def test_each_load_fresh_episode(self, config):
        collector = DataCollector(
            lambda users, seed: make_tiny_cluster(users, seed), config
        )
        result = collector.collect(
            RandomCollectPolicy(seed=1), loads=[30, 60], seconds_per_load=10
        )
        for log in result.logs:
            assert len(log) == 10
            assert log[0].time == pytest.approx(1.0)

    def test_exactly_one_policy_source(self, config):
        collector = DataCollector(make_tiny_cluster, config)
        factory = BanditPolicyFactory(config)
        with pytest.raises(ValueError, match="exactly one"):
            collector.collect(loads=[30], seconds_per_load=10)
        with pytest.raises(ValueError, match="exactly one"):
            collector.collect(
                BanditExplorer(config), loads=[30], seconds_per_load=10,
                policy_factory=factory,
            )

    def test_shared_policy_rejects_parallel_jobs(self, config):
        collector = DataCollector(make_tiny_cluster, config)
        with pytest.raises(ValueError, match="policy_factory"):
            collector.collect(
                BanditExplorer(config), loads=[30, 60], seconds_per_load=10,
                jobs=2,
            )

    def test_shared_policy_raises_on_first_failing_episode(self, config):
        """Only policy_factory= runs retry or drop a failed episode; a
        shared policy's failure ends the run at once."""
        built = []

        def cluster_factory(users, seed):
            built.append(users)
            return make_tiny_cluster(users, seed)

        class FailingPolicy(RandomCollectPolicy):
            def decide(self, cluster):
                raise RuntimeError("policy failed")

        collector = DataCollector(cluster_factory, config)
        with pytest.raises(RuntimeError, match="policy failed"):
            collector.collect(FailingPolicy(), loads=[30, 60], seconds_per_load=5)
        assert built == [30]


class TestParallelCollect:
    """Per-episode policy factories: serial and fanned-out runs agree."""

    def _collect(self, config, jobs):
        # ``make_tiny_cluster`` and ``BanditPolicyFactory`` are both
        # picklable, which is what worker processes require.
        collector = DataCollector(make_tiny_cluster, config)
        return collector.collect(
            loads=[40, 80, 120], seconds_per_load=15, seed=7,
            policy_factory=BanditPolicyFactory(config), jobs=jobs,
        )

    def test_parallel_bit_identical_to_serial(self, config):
        serial = self._collect(config, jobs=None)
        fanned = self._collect(config, jobs=2)
        for name in ("X_RH", "X_LH", "X_RC", "y_lat", "y_viol"):
            np.testing.assert_array_equal(
                getattr(serial.dataset, name), getattr(fanned.dataset, name)
            )
        assert len(fanned.logs) == 3

    def test_logs_in_load_order(self, config):
        result = self._collect(config, jobs=2)
        rps = [log.latest.rps for log in result.logs]
        # Higher offered load -> higher steady-state RPS, so load order
        # is observable in the returned logs.
        assert rps == sorted(rps)


def _assert_same_arms(prod, ref):
    """Every oracle arm's (meets, total) is its production table entry,
    and production counts no other arm."""
    arms = {}
    for (state, tier, bucket), arm in ref._stats.items():
        arms.setdefault(state, []).append((tier, bucket, arm.meets, arm.total))
    for state, rows in arms.items():
        rows = np.array(rows)
        assert np.array_equal(prod._tables[state][rows[:, 0], rows[:, 1]], rows[:, 2:])
    nonzero = sum(np.count_nonzero(t[..., 1]) for t in prod._tables.values())
    assert nonzero == len(ref._stats) == prod.n_arms_visited


def _explorers(config, seed):
    """A production explorer and its oracle, seeded alike."""
    return BanditExplorer(config, seed), ReferenceBanditExplorer(config, seed)


def _lockstep(cluster, explorers, intervals, perturb=None):
    """Step the production explorer and the oracle on one cluster,
    comparing them at every interval.  ``perturb(cluster, qos)`` runs
    before every third decision and edits what both are about to read."""
    prod, ref = explorers
    config = prod.config
    for i in range(intervals):
        if perturb is not None and i % 3 == 2:
            perturb(cluster, config.qos)
        alloc = prod.decide(cluster)
        assert alloc.tobytes() == ref.decide(cluster).tobytes(), i
        assert prod._rng.bit_generator.state == ref._rng.bit_generator.state, i
        stats = cluster.step(alloc)
        met = config.qos.latency_of(stats) <= config.qos.latency_ms
        prod.observe(met)
        ref.observe(met)
        _assert_same_arms(prod, ref)
    return prod, ref


def _lockstep_app(app):
    """``(cluster factory, QoS, collection load range)`` of an app."""
    if app == "tiny":
        return make_tiny_cluster, QoSTarget(200.0), (40.0, 400.0)
    spec = app_spec(app)
    graph = spec.graph_factory()
    return (
        lambda users, seed: make_cluster(graph, users, seed),
        spec.qos,
        spec.collection_load_range,
    )


def _set_latency(ratio):
    def perturb(cluster, qos):
        cluster.telemetry.latest.latency_ms[:] = ratio * qos.latency_ms
    return perturb


def _set_drops(cluster, qos):
    cluster.telemetry.latest.drops = 3.0


def _two_cores(cluster, qos):
    """Put every tier that allows it at 2.0 cores, where each relative
    step lands on an absolute one (2.0 * 0.1 == 0.2) and the set keeps
    only the absolute steps."""
    alloc = cluster.current_alloc.copy()
    fits = (cluster.min_alloc <= 2.0) & (2.0 <= cluster.max_alloc)
    alloc[fits] = 2.0
    cluster.current_alloc = alloc


_FORCED_BRANCHES = {
    "nan_latency": _set_latency(np.nan),
    "drops": _set_drops,
    "violating_band": _set_latency(1.1),  # 1 < ratio <= 1 + alpha
    "boundary_band": _set_latency(0.9),  # 0.8 < ratio <= 1
    "two_cores": _two_cores,
}


class TestBanditOracleLockstep:
    """The array-pass explorer against the per-arm loop it replaced
    (``tests/oracles/collection.py``): same allocations, RNG state and
    arm counts at every interval, hence the same datasets."""

    @pytest.mark.parametrize("position", [0, 1, 2], ids=["low", "mid", "high"])
    @pytest.mark.parametrize(
        "app", ["social_network", "hotel_reservation", "media_service", "tiny"]
    )
    def test_lockstep_across_load_range(self, app, position):
        factory, qos, (low, high) = _lockstep_app(app)
        users = float(np.linspace(low, high, 3)[position])
        cluster = factory(users, 11 + position)
        prod, _ = _lockstep(cluster, _explorers(CollectionConfig(qos=qos), 5 + position), 120)
        assert prod.n_arms_visited > 0

    @pytest.mark.parametrize("branch", sorted(_FORCED_BRANCHES))
    @pytest.mark.parametrize("app", ["social_network", "tiny"])
    def test_lockstep_forced_branch(self, app, branch):
        factory, qos, (low, high) = _lockstep_app(app)
        cluster = factory((low + high) / 2, 3)
        explorers = _explorers(CollectionConfig(qos=qos), 3)
        _lockstep(cluster, explorers, 45, _FORCED_BRANCHES[branch])

    def test_lockstep_across_applications(self):
        """One explorer stepped through the tiny graph, then through the
        larger social_network, widens its tables and still matches."""
        spec = app_spec("social_network")
        explorers = _explorers(CollectionConfig(qos=spec.qos), 9)
        _lockstep(make_tiny_cluster(100, 9), explorers, 30)
        _lockstep(make_cluster(spec.graph_factory(), 200, 9), explorers, 30)

    def test_relative_steps_collapse_at_two_cores(self):
        assert set(_ABS_DELTAS) | {2.0 * r for r in _REL_DELTAS} == set(_ABS_DELTAS)

    def test_early_return_keeps_pending_credit(self, config):
        """A recovery decision between a scored decision and its outcome
        leaves the scored arms awaiting that outcome."""
        cluster = make_tiny_cluster(users=100, seed=4)
        for _ in range(3):
            cluster.step()
        prod, ref = _explorers(config, 0)
        for explorer in (prod, ref):
            explorer.decide(cluster)
        cluster.telemetry.latest.drops = 3.0
        for explorer in (prod, ref):
            np.testing.assert_array_equal(explorer.decide(cluster), cluster.max_alloc)
            explorer.observe(True)
        assert prod.n_arms_visited == cluster.n_tiers
        _assert_same_arms(prod, ref)

    def test_collect_training_data_matches_oracle(self, monkeypatch):
        seeds = []

        class RecordingFactory(ReferenceBanditPolicyFactory):
            def __call__(self, seed):
                seeds.append(seed)
                return super().__call__(seed)

        graph = app_spec("social_network").graph_factory()
        prod = collect_training_data(graph, "small", seed=5, jobs=1)
        monkeypatch.setattr(pipeline, "BanditPolicyFactory", RecordingFactory)
        ref = collect_training_data(graph, "small", seed=5, jobs=1)
        assert seeds == [5, 6]  # one oracle explorer per load level
        _assert_datasets_identical(prod, ref)

    def test_shared_policy_collect_matches_oracle(self):
        """The Figure 10 protocol: one explorer stepped through every load."""
        spec = app_spec("hotel_reservation")
        graph = spec.graph_factory()
        config = CollectionConfig(qos=spec.qos)
        collector = DataCollector(
            lambda users, seed: make_cluster(graph, users, seed), config
        )
        loads = collection_loads(spec, BUDGETS["small"])
        prod = collector.collect(BanditExplorer(config, seed=3), loads, 60, seed=31)
        ref = collector.collect(
            ReferenceBanditExplorer(config, seed=3), loads, 60, seed=31
        )
        _assert_datasets_identical(prod.dataset, ref.dataset)


def _assert_datasets_identical(a, b):
    for name in ("X_RH", "X_LH", "X_RC", "y_lat", "y_viol"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name
    assert a.meta == b.meta
