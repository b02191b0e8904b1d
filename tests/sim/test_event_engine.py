"""Discrete-event engine tests, including cross-validation against the
fluid engine."""

import numpy as np
import pytest

from repro.sim.engine import EngineConfig, QueueingEngine
from repro.sim.event_engine import EventDrivenEngine, EventEngineConfig
from repro.sim.graph import AppGraph, RequestType
from repro.sim.tier import TierSpec
from tests.conftest import make_tiny_graph

GRAPH = make_tiny_graph()
RATES = np.array([120.0, 12.0])


def run_event(alloc, rates=RATES, duration=20.0, seed=0, **cfg):
    engine = EventDrivenEngine(GRAPH, EventEngineConfig(**cfg), seed=seed)
    return engine.run(np.asarray(alloc, dtype=float), rates, duration)


class TestBasics:
    def test_summary_shapes(self):
        result = run_event(np.full(4, 4.0))
        assert result["latency_ms"].shape == (5,)
        assert len(result["p99_series_ms"]) == 20
        assert result["n_requests"] > 0
        assert result["cpu_util"].shape == (4,)

    def test_percentiles_sorted(self):
        result = run_event(np.full(4, 4.0))
        assert np.all(np.diff(result["latency_ms"]) >= -1e-9)

    def test_zero_load(self):
        result = run_event(np.full(4, 2.0), rates=np.zeros(2), duration=5.0)
        assert result["n_requests"] == 0
        assert result["dropped"] == 0

    def test_input_validation(self):
        engine = EventDrivenEngine(GRAPH)
        with pytest.raises(ValueError):
            engine.run(np.ones(2), RATES, 5.0)
        with pytest.raises(ValueError):
            engine.run(np.ones(4), np.ones(3), 5.0)

    def test_rejects_graphs_over_255_tiers(self):
        """Heap entries carry the tier in 8 bits."""
        names = [f"t{i}" for i in range(256)]
        wide = AppGraph(
            "wide",
            [TierSpec(name) for name in names],
            [("t0", name) for name in names[1:]],
            [RequestType(name="Fan", stages=(("t0",), tuple(names[1:])))],
        )
        with pytest.raises(ValueError, match="at most 255 tiers"):
            EventDrivenEngine(wide)
        narrow = AppGraph(
            "narrow",
            [TierSpec(name) for name in names[:255]],
            [("t0", name) for name in names[1:255]],
            [RequestType(name="Fan", stages=(("t0",), tuple(names[1:255])))],
        )
        assert len(EventDrivenEngine(narrow).tiers) == 255

    def test_deterministic_by_seed(self):
        a = run_event(np.full(4, 3.0), seed=42)
        b = run_event(np.full(4, 3.0), seed=42)
        np.testing.assert_allclose(a["latency_ms"], b["latency_ms"])
        assert a["n_requests"] == b["n_requests"]


class TestAccounting:
    """Regression tests for busy-time and summary windowing."""

    def test_busy_tail_counted_up_to_horizon(self):
        # A server busy across the whole horizon with no events in between
        # must accrue its full busy time: with zero offered load the event
        # loop never runs, so only the final (horizon - last_t) segment
        # can account for it.  Before the fix this reported 0 utilization.
        engine = EventDrivenEngine(GRAPH, EventEngineConfig(), seed=0)
        engine.tiers[0].busy = 1  # in-flight request carried into the run
        result = engine.run(np.full(4, 1.0), np.zeros(2), 5.0)
        assert result["cpu_util"][0] == pytest.approx(1.0)
        assert np.all(result["cpu_util"][1:] == 0.0)

    def test_successive_runs_report_per_run_requests(self):
        engine = EventDrivenEngine(GRAPH, EventEngineConfig(), seed=5)
        alloc = np.full(4, 3.0)
        r1 = engine.run(alloc, RATES, 10.0)
        r2 = engine.run(alloc, RATES, 10.0)
        assert r1["n_requests"] > 0 and r2["n_requests"] > 0
        # The engine keeps pooled cross-run state, but each summary is
        # windowed to its own run's completions.
        assert len(engine.latencies) == r1["n_requests"] + r2["n_requests"]
        assert len(r2["p99_series_ms"]) == 10

    def test_successive_runs_report_per_run_drops(self):
        engine = EventDrivenEngine(
            GRAPH, EventEngineConfig(max_queue=50), seed=6
        )
        overload = engine.run(
            np.full(4, 0.2), np.array([800.0, 80.0]), 10.0
        )
        assert overload["dropped"] > 0
        calm = engine.run(np.full(4, 6.0), np.array([5.0, 1.0]), 10.0)
        # The calm run's drop count must not inherit the overload run's.
        assert calm["dropped"] < overload["dropped"]
        assert engine.dropped >= overload["dropped"] + calm["dropped"]

    def test_second_run_percentiles_not_contaminated(self):
        # Run 1 books thousands of timeout latencies; a healthy run 2 must
        # not report them in its own percentiles.
        engine = EventDrivenEngine(
            GRAPH, EventEngineConfig(max_queue=50, drop_latency=5.0), seed=7
        )
        engine.run(np.full(4, 0.2), np.array([800.0, 80.0]), 10.0)
        # Drain: generous allocation, light load, long enough to clear the
        # carried-over queues before the windowed summary matters.
        engine.run(np.full(4, 8.0), np.array([1.0, 0.0]), 30.0)
        healthy = engine.run(np.full(4, 8.0), np.array([20.0, 2.0]), 20.0)
        assert healthy["p99_ms"] < 5000.0

    def test_idle_seconds_are_nan(self):
        result = run_event(np.full(4, 2.0), rates=np.zeros(2), duration=5.0)
        series = result["p99_series_ms"]
        assert len(series) == 5
        assert np.isnan(series).all()
        # The pooled percentile vector stays finite (zero placeholder).
        assert np.all(np.isfinite(result["latency_ms"]))


class TestPhysics:
    def test_more_cpu_lower_latency(self):
        lean = run_event(np.full(4, 0.5), seed=1)
        rich = run_event(np.full(4, 6.0), seed=1)
        assert rich["p99_ms"] < lean["p99_ms"]

    def test_overload_queues_and_drops(self):
        result = run_event(
            np.full(4, 0.3), rates=np.array([600.0, 60.0]), duration=15.0,
            max_queue=200,
        )
        assert result["dropped"] > 0
        assert result["p99_ms"] >= 1000.0

    def test_utilization_tracks_load(self):
        low = run_event(np.full(4, 4.0), rates=np.array([20.0, 2.0]), seed=2)
        high = run_event(np.full(4, 4.0), rates=np.array([300.0, 30.0]), seed=2)
        assert high["cpu_util"].sum() > low["cpu_util"].sum()

    def test_latency_capped_at_timeout(self):
        result = run_event(
            np.full(4, 0.2), rates=np.array([800.0, 80.0]), duration=10.0,
            max_queue=100, drop_latency=5.0,
        )
        assert result["latency_ms"].max() <= 5000.0 + 1e-6


class TestCrossValidation:
    """The fluid engine and the event engine must agree qualitatively."""

    # Operating points below and above the knee.  Deep heavy traffic
    # (rho ~ 0.9) is excluded: there the fluid model's capped stochastic
    # wait is deliberately optimistic versus true G/G/1 queue growth —
    # the fluid engine relies on its explicit-backlog term instead,
    # which the overload-verdict test below exercises.
    @pytest.mark.parametrize("alloc_level", [1.2, 2.0, 6.0])
    def test_latency_within_band(self, alloc_level):
        alloc = np.full(4, alloc_level)
        event = run_event(alloc, duration=30.0, seed=3)

        fluid_engine = QueueingEngine(
            GRAPH,
            EngineConfig(rate_cv=0.0, spike_prob=0.0, capacity_jitter=0.0),
            seed=3,
        )
        fluid_p99 = np.median(
            [fluid_engine.run_interval(alloc, RATES).p99_ms for _ in range(30)]
        )
        event_p99 = np.median(event["p99_series_ms"][event["p99_series_ms"] > 0])
        # Same order of magnitude across a 10x allocation range.
        ratio = fluid_p99 / max(event_p99, 1e-9)
        assert 0.2 < ratio < 5.0, (alloc_level, fluid_p99, event_p99)

    def test_same_overload_verdict(self):
        """Both engines agree on which allocation violates a 200 ms QoS."""
        verdicts = {}
        for name, alloc_level in (("starved", 0.25), ("healthy", 5.0)):
            alloc = np.full(4, alloc_level)
            event = run_event(
                alloc, rates=np.array([250.0, 25.0]), duration=25.0, seed=4
            )
            fluid_engine = QueueingEngine(
                GRAPH,
                EngineConfig(rate_cv=0.0, spike_prob=0.0, capacity_jitter=0.0),
                seed=4,
            )
            fluid = [
                fluid_engine.run_interval(alloc, np.array([250.0, 25.0])).p99_ms
                for _ in range(25)
            ]
            verdicts[name] = (
                bool(np.nanmedian(event["p99_series_ms"][-10:]) > 200.0),
                np.median(fluid[-10:]) > 200.0,
            )
        assert verdicts["starved"] == (True, True)
        assert verdicts["healthy"] == (False, False)
