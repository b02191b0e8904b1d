"""Bitwise equivalence of the compiled interval and the per-tick loop.

:meth:`QueueingEngine.run_interval` on the compiled kernel must be
indistinguishable from the engine's per-tick loop, the path it takes
when no kernel loads (reached here through
``tests.conftest.PerTickEngine``): every :class:`IntervalStats` field,
the engine's internal state vectors, and the RNG stream itself are
compared bitwise across normal, bursty, overload, and chaos-fault
episodes — serial and under the process-pool harness, on the tiny app
and on the production social network.
"""

import numpy as np
import pytest

from repro.harness.pipeline import app_spec
from repro.sim import _ckernel
from repro.sim.cluster import ClusterSimulator
from repro.sim.engine import EngineConfig, QueueingEngine
from repro.sim.faults import FaultInjector
from repro.workload.generator import RequestMix, Workload
from repro.workload.patterns import ConstantLoad
from tests.conftest import PerTickEngine, make_tiny_graph, per_tick

_STAT_FIELDS = (
    "time", "rps", "cpu_alloc", "cpu_util", "rss_mb", "cache_mb",
    "rx_pps", "tx_pps", "queue", "latency_ms", "drops",
    "latency_samples_ms",
)
_STATE_ATTRS = ("queue", "_busy_ewma", "_busy_frac", "_demand", "_sojourn")


def assert_stats_equal(a, b, context=""):
    for name in _STAT_FIELDS:
        va, vb = np.asarray(getattr(a, name)), np.asarray(getattr(b, name))
        assert np.array_equal(va, vb), f"{context} field {name}: {va} != {vb}"
    assert a.rps_by_type == b.rps_by_type, context


def assert_engines_equal(fast, ref, context=""):
    for attr in _STATE_ATTRS:
        assert np.array_equal(getattr(fast, attr), getattr(ref, attr)), (
            f"{context} state {attr}"
        )
    assert fast.time == ref.time, context
    assert (
        fast._rng.bit_generator.state == ref._rng.bit_generator.state
    ), f"{context} RNG state diverged"


def _engine_pair(overrides, seed=7, graph=None):
    graph = graph or make_tiny_graph()
    cfg = EngineConfig(**overrides)
    fast = QueueingEngine(graph, cfg, seed=seed)
    ref = PerTickEngine(graph, cfg, seed=seed)
    return graph, fast, ref


def _drive(
    graph, fast, ref, intervals=25, rps=140.0, base_alloc=2.0,
    type_weights=None,
):
    n = graph.n_tiers
    base = np.full(n, base_alloc)
    if type_weights is None:
        rates = np.full(graph.n_types, rps / graph.n_types)
    else:
        rates = rps * np.asarray(type_weights, dtype=float)
    phase = np.arange(n)
    total_drops = 0.0
    for i in range(intervals):
        allocs = base * (1.0 + 0.1 * np.sin(i + phase))
        tr = rates * (1.0 + 0.2 * np.sin(i / 3.0))
        sf = fast.run_interval(allocs, tr)
        sr = ref.run_interval(allocs, tr)
        assert_stats_equal(sf, sr, f"interval {i}")
        total_drops += sr.drops
    assert_engines_equal(fast, ref)
    return total_drops


SCENARIOS = {
    "normal": {},
    "bursty": {"spike_prob": 0.5, "spike_mult_range": (2.0, 3.0)},
    "no-jitter": {"capacity_jitter": 0.0},
    "no-backpressure": {"backpressure": False},
    "fine-tick": {"tick": 0.05},
}


class TestEngineEquivalence:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_bitwise_identical_episode(self, scenario):
        graph, fast, ref = _engine_pair(SCENARIOS[scenario])
        _drive(graph, fast, ref)

    def test_overload_with_drops(self):
        # The drop branch flips extra RNG draws (per-type coin flips), so
        # a drops-free run would silently skip it; assert it triggered.
        graph, fast, ref = _engine_pair({"max_queue": 40.0})
        drops = _drive(graph, fast, ref, rps=900.0)
        assert drops > 0

    def test_reference_api_is_the_oracle(self):
        # The per-tick engine never builds the compiled plan, so the
        # comparison above is not the kernel checked against itself.
        graph, fast, ref = _engine_pair({})
        for i in range(10):
            allocs = np.full(graph.n_tiers, 2.0 + 0.1 * i)
            rates = np.full(graph.n_types, 70.0)
            assert_stats_equal(
                fast.run_interval(allocs, rates),
                ref.run_interval(allocs, rates),
                f"interval {i}",
            )
        assert_engines_equal(fast, ref)
        assert (fast._fast_plan is None) == (_ckernel.load_kernel() is None)
        assert ref._fast_plan is None

    def test_pure_numpy_fallback(self, monkeypatch):
        # Without a kernel, run_interval runs the per-tick loop and
        # builds no plan.
        monkeypatch.setattr(_ckernel, "load_kernel", lambda: None)
        graph, fast, ref = _engine_pair({"max_queue": 60.0})
        _drive(graph, fast, ref, rps=500.0)
        assert fast._fast_plan is None

    def test_kernel_used_when_available(self):
        pytest.importorskip("cffi")
        import shutil

        if not any(shutil.which(cc) for cc in ("cc", "gcc", "clang")):
            pytest.skip("no C compiler")
        graph, fast, ref = _engine_pair({})
        _drive(graph, fast, ref, intervals=5)
        assert fast._fast_plan is not None

    @pytest.mark.parametrize(
        "scenario",
        {
            "normal": {},
            "overload": {"max_queue": 30.0},
            "bursty": {"spike_prob": 0.5, "spike_mult_range": (2.0, 3.0)},
        }.items(),
        ids=lambda item: item[0],
    )
    def test_production_graph(self, scenario):
        """The 28-tier social network at a 50 ms tick: deep multi-member
        dependency levels and multi-tier stages the tiny app lacks."""
        graph = app_spec("social_network").graph_factory()
        graph, fast, ref = _engine_pair(
            {"tick": 0.05, **scenario[1]}, seed=13, graph=graph
        )
        _drive(graph, fast, ref, intervals=30, rps=900.0, base_alloc=1.5)


class TestDrawOrderEdgeCases:
    """Intervals in which a draw call draws nothing, against the per-tick
    loop with and without the compiled kernel."""

    def test_one_tick_interval(self, backend):
        # One tick per interval: integers(0, 1) returns zeros without
        # touching the generator.
        graph, fast, ref = _engine_pair({"tick": 1.0})
        _drive(graph, fast, ref)
        assert (fast._fast_plan is None) == (backend == "numpy")
        if fast._fast_plan is not None:
            assert fast._fast_plan.n_ticks == 1

    def test_zero_rate_request_type(self, backend):
        # poisson(0) draws nothing, and the sampler skips the type (no
        # ticks, lognormals or drop flips), while drops make the other
        # type flip coins.
        graph, fast, ref = _engine_pair({"max_queue": 40.0})
        drops = _drive(graph, fast, ref, rps=900.0, type_weights=[1.0, 0.0])
        assert drops > 0
        assert (fast._fast_plan is None) == (backend == "numpy")
        if fast._fast_plan is not None:
            assert fast._fast_plan.k_per_type[1] == 0


class TestInvalidIntervalArgs:
    """Bad allocations and rates are refused before any draw, so both
    backends leave the generator where it was."""

    def _refuse(self, allocs_of, rates_of, message):
        graph, fast, ref = _engine_pair({})
        allocs = allocs_of(np.full(graph.n_tiers, 2.0))
        rates = rates_of(np.full(graph.n_types, 70.0))
        for engine in (fast, ref):
            state = engine._rng.bit_generator.state
            with pytest.raises(ValueError, match=message):
                engine.run_interval(allocs, rates)
            assert engine._rng.bit_generator.state == state
            assert engine.time == 0.0
        assert fast._fast_plan is None  # refused before the plan is built

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_allocation(self, backend, bad):
        def allocs_of(a):
            a[1] = bad
            return a

        self._refuse(allocs_of, lambda r: r, "must be finite")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0, -np.inf])
    def test_non_finite_or_negative_rate(self, backend, bad):
        def rates_of(r):
            r[0] = bad
            return r

        self._refuse(lambda a: a, rates_of, "finite and non-negative")

    def test_cluster_step_with_a_nan_tier(self, backend):
        """A manager's NaN for one tier passes ``clip_alloc``; the step
        must refuse it rather than simulate it."""
        graph = app_spec("social_network").graph_factory()
        mix = RequestMix.from_ratios(
            {name: 1.0 for name in graph.type_names}
        )
        cluster = ClusterSimulator(
            graph, Workload(graph, ConstantLoad(200), mix), seed=1
        )
        cluster.step()
        allocs = cluster.current_alloc.copy()
        allocs[3] = np.nan
        state = cluster.engine._rng.bit_generator.state
        with pytest.raises(ValueError, match="must be finite"):
            cluster.step(allocs)
        assert cluster.engine._rng.bit_generator.state == state
        assert (cluster.engine._fast_plan is None) == (backend == "numpy")


class TestReset:
    def test_engine_reset_reproduces_fresh_engine(self):
        graph = make_tiny_graph()
        cfg = EngineConfig()
        allocs = np.full(graph.n_tiers, 2.0)
        rates = np.full(graph.n_types, 70.0)
        engine = QueueingEngine(graph, cfg, seed=1)
        for _ in range(10):
            engine.run_interval(allocs, rates)
        engine.reset(seed=5)
        fresh = QueueingEngine(graph, cfg, seed=5)
        for i in range(10):
            assert_stats_equal(
                engine.run_interval(allocs, rates),
                fresh.run_interval(allocs, rates),
                f"post-reset interval {i}",
            )
        assert_engines_equal(engine, fresh)

    def _make_cluster(self, seed, faults):
        graph = make_tiny_graph()
        mix = RequestMix.from_ratios({"Read": 9, "Write": 1})
        workload = Workload(graph, ConstantLoad(120), mix)
        injector = (
            FaultInjector("chaos", graph.n_tiers, seed=3) if faults else None
        )
        return ClusterSimulator(graph, workload, seed=seed, faults=injector)

    @pytest.mark.parametrize("faults", [False, True])
    def test_cluster_reset_mid_episode(self, faults):
        cluster = self._make_cluster(seed=1, faults=faults)
        for _ in range(8):
            cluster.step()
        cluster.reset(seed=5)
        fresh = self._make_cluster(seed=5, faults=faults)
        for i in range(8):
            assert_stats_equal(
                cluster.step(), fresh.step(), f"post-reset interval {i}"
            )
        assert_engines_equal(cluster.engine, fresh.engine)


class TestClusterEquivalence:
    def _cluster(self, faults=False):
        graph = make_tiny_graph()
        mix = RequestMix.from_ratios({"Read": 9, "Write": 1})
        workload = Workload(graph, ConstantLoad(150), mix)
        injector = (
            FaultInjector("chaos", graph.n_tiers, seed=11) if faults else None
        )
        return ClusterSimulator(graph, workload, seed=4, faults=injector)

    @pytest.mark.parametrize("faults", [False, True])
    def test_cluster_fast_vs_reference(self, faults):
        fast = self._cluster(faults)
        ref = self._cluster(faults)
        per_tick(ref.engine)
        assert type(fast.engine) is QueueingEngine
        for i in range(20):
            assert_stats_equal(fast.step(), ref.step(), f"interval {i}")
        assert_engines_equal(fast.engine, ref.engine)
        if faults:
            # The chaos profile installs physics behaviors; make sure the
            # behaviour multipliers actually ran.
            assert fast.engine.behaviors


def _episode_digest(seed: int, reference: bool) -> np.ndarray:
    """Picklable episode for the process-pool determinism check."""
    graph = make_tiny_graph()
    engine_cls = PerTickEngine if reference else QueueingEngine
    engine = engine_cls(graph, EngineConfig(max_queue=200.0), seed=seed)
    allocs = np.full(graph.n_tiers, 1.5)
    rates = np.full(graph.n_types, 120.0)
    samples = [
        engine.run_interval(allocs, rates).latency_samples_ms
        for _ in range(12)
    ]
    return np.concatenate(samples)


class TestParallelHarness:
    def test_serial_vs_jobs(self):
        from repro.harness.parallel import EpisodeTask, run_episodes

        def tasks(reference):
            return [
                EpisodeTask(
                    index=i,
                    label=f"ep{i}",
                    fn=_episode_digest,
                    kwargs={"seed": 100 + i, "reference": reference},
                )
                for i in range(4)
            ]

        serial = run_episodes(tasks(False), jobs=1)
        pooled = run_episodes(tasks(False), jobs=2)
        reference = run_episodes(tasks(True), jobs=1)
        assert not serial.failures and not pooled.failures
        assert not reference.failures
        for a, b, c in zip(serial.results, pooled.results, reference.results):
            assert np.array_equal(a, b)  # fork-safe and deterministic
            assert np.array_equal(a, c)  # and identical to the reference


class TestTelemetryWindow:
    def test_window_left_padding_under_fast_sim(self):
        """Early intervals (< window length) left-pad with the oldest
        stats; the encoder's incremental cache must agree bitwise with a
        fresh encode at every step."""
        from repro.core.features import WindowEncoder

        graph = make_tiny_graph()
        mix = RequestMix.from_ratios({"Read": 9, "Write": 1})
        workload = Workload(graph, ConstantLoad(120), mix)
        cluster = ClusterSimulator(graph, workload, seed=2)
        window = 5
        encoder = WindowEncoder(graph, window)
        rng = np.random.default_rng(0)
        for step in range(window + 4):
            cluster.step(cluster.clip_alloc(
                cluster.current_alloc
                + rng.uniform(-0.2, 0.2, cluster.n_tiers)
            ))
            recent = cluster.telemetry.window(window)
            assert len(recent) == window  # left-padded before `window` steps
            if step < window - 1:
                assert recent[0] is recent[1]  # padding repeats the oldest
            cached = encoder.encode_history(cluster.telemetry)
            fresh = WindowEncoder(graph, window).encode_history(
                cluster.telemetry
            )
            assert np.array_equal(cached[0], fresh[0])
            assert np.array_equal(cached[1], fresh[1])
