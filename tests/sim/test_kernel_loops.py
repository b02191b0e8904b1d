"""The compiled interval's numpy arithmetic is numpy's own.

``sinan_interval`` runs the rate modulation's ``np.exp`` and ``np.sin``,
the saturation knee's ``np.power(sat, 4)`` and the arrivals'
``np.matmul`` through numpy's float64 loops (``ufunc._get_strided_loop``),
and squares the burst envelope with libm's ``pow`` as numpy's scalar
power does.  These pins check each against numpy on the domains the
engine feeds them and again where the interval calls them (a tick's
modulation, the arrival rows, the knee), the latency percentiles
against ``np.percentile``,
and two things the kernel leaves to the numpy code's own behaviour:
``uniform``'s refusals of a bad burst range (same interval, same
exception, same state) and floating-point flags, which the kernel does
not check because the numpy code raises none.
"""

import numpy as np
import pytest

from repro.harness.pipeline import app_spec
from repro.sim import _ckernel
from repro.sim.engine import EngineConfig, QueueingEngine
from repro.sim.telemetry import LATENCY_PERCENTILES
from tests.conftest import PerTickEngine, make_tiny_graph
from tests.sim.test_fast_sim import SCENARIOS, _drive, _engine_pair

KERNEL = _ckernel.load_kernel()
needs_kernel = pytest.mark.skipif(KERNEL is None, reason="no compiled kernel")
APPS = ("social_network", "hotel_reservation", "media_service")


def kernel_math(op, x):
    """``sinan_math``: op 0 exp, 1 sin (one element per loop call), 2 the
    knee's power(x, 4) over the block, 3 the envelope's square."""
    ffi, lib = KERNEL
    x = np.ascontiguousarray(x, dtype=float)
    y = np.full_like(x, np.nan)
    lib.sinan_math(
        op, x.size, ffi.from_buffer("double[]", x),
        ffi.from_buffer("double[]", y),
    )
    return y


@needs_kernel
class TestLoopRoute:
    def test_every_loop_is_bound(self):
        assert _ckernel.bound_loops() == _ckernel.NUMPY_LOOPS

    def test_exp_is_numpys(self):
        """``np.exp`` of the Python float ``_log_mod - _mod_bias``: the
        AR(1) level's stationary spread is about ``rate_cv``."""
        rng = np.random.default_rng(0)
        x = np.concatenate([
            rng.normal(-0.0162, 0.18, 100_000),
            rng.uniform(-5.0, 5.0, 20_000),
            [0.0, -0.0, 1.0, -1.0],
        ])
        want = np.array([np.exp(v) for v in x.tolist()])
        assert np.array_equal(kernel_math(0, x), want)

    def test_sin_is_numpys(self):
        """``np.sin(np.pi * phase)`` for burst phases in [0, 1)."""
        rng = np.random.default_rng(1)
        x = np.pi * np.concatenate([rng.uniform(0.0, 1.0, 120_000), [0.0, 0.5]])
        want = np.array([np.sin(v) for v in x.tolist()])
        assert np.array_equal(kernel_math(1, x), want)

    def test_power_is_numpys(self):
        """``np.power(sat, 4)`` over a saturation block in [0, 1]."""
        rng = np.random.default_rng(2)
        x = np.concatenate([
            rng.uniform(0.0, 1.0, 120_000), rng.uniform(0.55, 1.0, 20_000),
            [0.0, 1.0],
        ])
        assert np.array_equal(kernel_math(2, x), np.power(x, 4))

    def test_envelope_square_is_numpys(self):
        """``np.sin(...) ** 2`` squares a numpy scalar, not an array."""
        rng = np.random.default_rng(3)
        s = np.sin(np.pi * rng.uniform(0.0, 1.0, 100_000))
        want = np.array([np.float64(v) ** 2 for v in s])
        assert np.array_equal(kernel_math(3, s), want)

    @pytest.mark.parametrize("tick", [0.1, 0.05])
    def test_modulation_is_rate_modulations(self, tick):
        """Each tick's modulation, bursts included, against
        ``_rate_modulation`` on a twin engine that starts every interval
        from the kernel engine's generator and clock: a last-bit change
        of the modulation almost never changes a Poisson count, so the
        episode pins do not see it."""
        graph = make_tiny_graph()
        cfg = EngineConfig(
            tick=tick, spike_prob=0.5, spike_mult_range=(2.0, 3.0)
        )
        engine = QueueingEngine(graph, cfg, seed=23)
        twin = QueueingEngine(graph, cfg, seed=23)
        clock = ("time", "_log_mod", "_burst_start", "_burst_until",
                 "_burst_mult")
        allocs = np.full(graph.n_tiers, 2.0)
        rates = np.full(graph.n_types, 70.0)
        bursty = 0
        for _ in range(300):
            twin._rng.bit_generator.state = engine._rng.bit_generator.state
            for attr in clock:
                setattr(twin, attr, getattr(engine, attr))
            engine.run_interval(allocs, rates)
            plan = engine._fast_plan
            for t in range(plan.n_ticks):
                in_burst = twin.time < twin._burst_until
                mod = twin._rate_modulation()
                assert plan.mod_rows[t] == mod, f"tick {t}"
                bursty += in_burst
                twin._rng.poisson((rates * mod) * tick)
                twin._rng.normal(0.0, 1.0, size=graph.n_tiers)
                twin.time += tick
            for attr in clock:
                assert getattr(twin, attr) == getattr(engine, attr), attr
        assert bursty > 0

    @pytest.mark.parametrize("app", APPS)
    def test_arrivals_and_knee_are_numpys(self, app):
        """Each tick's arrival row against ``np.matmul(visit_T, counts)``
        on its own, and the inflation rows against numpy's knee over the
        kernel's demand rows, across loads from idle to overload."""
        graph = app_spec(app).graph_factory()
        engine = QueueingEngine(graph, EngineConfig(), seed=17)
        rng = np.random.default_rng(17)
        allocs = np.full(graph.n_tiers, 2.0)
        knee = 0
        for _ in range(300):
            rates = rng.uniform(0.0, 1500.0, graph.n_types)
            engine.run_interval(allocs, rates)
            plan = engine._fast_plan
            for t in range(plan.n_ticks):
                want = np.matmul(engine._visit_T, plan.counts_rows[t])
                assert np.array_equal(plan.arrival_rows[t], want)
            sat = np.clip(plan.demand_rows / engine._soft_thr, 0.0, 1.0)
            infl = 1.0 / np.clip(1.0 - np.power(sat, 4), 1.0 / 12.0, 1.0)
            assert np.array_equal(plan.infl_rows, infl)
            knee += np.count_nonzero((sat > 0.5) & (sat < 1.0))
        assert knee > 1000

    @pytest.mark.parametrize(
        "overrides, rps",
        [
            ({}, 0.0),                                 # one sample
            ({"max_latency_samples": 3}, 40.0),        # a few samples
            ({"noise_sigma": 0.0, "tick": 1.0}, 90.0),  # heavy ties
            ({}, 300.0),
            ({"max_queue": 30.0}, 900.0),              # timeouts tie at 5 s
        ],
    )
    def test_percentiles_are_np_percentile(self, overrides, rps):
        graph = make_tiny_graph()
        engine = QueueingEngine(graph, EngineConfig(**overrides), seed=6)
        allocs = np.full(graph.n_tiers, 1.0)
        for _ in range(30):
            stats = engine.run_interval(
                allocs, np.full(graph.n_types, rps / graph.n_types)
            )
            plan = engine._fast_plan
            samples = plan.samples[:stats.latency_samples_ms.size]
            want = np.percentile(samples, LATENCY_PERCENTILES) * 1000.0
            assert np.array_equal(stats.latency_ms, want)


class TestNumpyLeavesNoFlags:
    """numpy checks the floating-point flags after each ufunc call; the
    kernel does not.  On these episodes the per-tick loop raises none,
    so the kernel hides no error numpy would report."""

    @pytest.mark.parametrize("scenario", ["bursty", "overload", "no-jitter"])
    def test_numpy_path_raises_nothing(self, monkeypatch, scenario):
        monkeypatch.setattr(_ckernel, "load_kernel", lambda: None)
        overrides = {"max_queue": 40.0} if scenario == "overload" else (
            SCENARIOS[scenario])
        graph, fast, ref = _engine_pair(overrides)
        with np.errstate(all="raise", under="ignore"):
            _drive(graph, fast, ref, rps=900.0 if scenario == "overload"
                   else 140.0)
        assert fast._fast_plan is None


class TestRefusedBurstRange:
    """``rng.uniform`` refuses a burst range whose high bound is below
    its low bound, or whose range is not finite, when a burst begins:
    both backends refuse at the per-tick loop's interval, with numpy's
    exception, and leave the clock and modulation state as it does."""

    @pytest.mark.parametrize(
        "field, bounds, kind, message",
        [
            ("spike_mult_range", (1.6, 1.25), ValueError, "high - low < 0"),
            ("spike_mult_range", (1.25, np.inf), OverflowError,
             "high - low range exceeds valid bounds"),
            ("spike_mult_range", (np.nan, 1.6), OverflowError,
             "high - low range exceeds valid bounds"),
            ("spike_duration_range", (16.0, 8.0), ValueError,
             "high - low < 0"),
            ("spike_duration_range", (-np.inf, 16.0), OverflowError,
             "high - low range exceeds valid bounds"),
            ("spike_duration_range", (0.0, -0.0), ValueError,
             "high - low < 0"),
        ],
    )
    def test_refused_like_numpy(self, backend, field, bounds, kind, message):
        graph = make_tiny_graph()
        cfg = EngineConfig(spike_prob=0.3, **{field: bounds})
        fast = QueueingEngine(graph, cfg, seed=9)
        ref = PerTickEngine(graph, cfg, seed=9)
        allocs = np.full(graph.n_tiers, 2.0)
        rates = np.full(graph.n_types, 70.0)
        refusals = []
        for engine in (fast, ref):
            for i in range(100):
                try:
                    engine.run_interval(allocs, rates)
                except Exception as exc:  # noqa: BLE001 - compared below
                    refusals.append((i, type(exc), str(exc)))
                    break
            else:
                pytest.fail("no burst began")
        assert refusals[0] == refusals[1]
        assert refusals[0][1:] == (kind, message)
        assert fast._rng.bit_generator.state == ref._rng.bit_generator.state
        for attr in ("time", "_log_mod", "_burst_start", "_burst_until",
                     "_burst_mult"):
            assert getattr(fast, attr) == getattr(ref, attr), attr
        assert (fast._fast_plan is None) == (backend == "numpy")
