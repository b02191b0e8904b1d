"""The compiled kernel's draws are numpy's own.

``repro.sim._ckernel`` draws the interval's random numbers by calling
the C functions behind ``Generator.poisson``, ``normal``, ``integers``,
``lognormal`` and ``random`` on the engine generator's ``bitgen_t``.
Each ``sinan_interval`` call must therefore give the values the
Generator methods give on the same state, and leave the same
``bit_generator.state`` behind — PCG64's buffered 32-bit half included —
and it must refuse the arguments those methods refuse, drawing nothing.
The direct calls below skip the engine's argument checks and replay the
call's draws on a twin generator, checked against the tick rows,
sojourns and samples the call leaves in the plan's buffers.  The
engine-level checks at the bottom run both backends and the per-tick
oracle into the same invalid arguments.
"""

import numpy as np
import pytest

from repro.sim import _ckernel
from repro.sim.engine import EngineConfig, QueueingEngine, _FastPlan
from repro.sim.graph import AppGraph, RequestType
from repro.sim.tier import TierKind, TierSpec
from tests.conftest import make_tiny_graph
from tests.oracles.engine import ReferenceQueueingEngine

KERNEL = _ckernel.load_kernel()
needs_kernel = pytest.mark.skipif(KERNEL is None, reason="no compiled kernel")


def make_engine(stages_per_type, seed, **overrides):
    """An engine whose request type r visits ``stages_per_type[r]``
    (stages of tier indices; tier 0 calls every other tier), without
    rate modulation: every tick's modulation is exactly 1.0 and draws
    nothing."""
    n = 1 + max(i for stages in stages_per_type for s in stages for i in s)
    tiers = [TierSpec(f"t{i}", kind=TierKind.LOGIC, max_cpu=8.0)
             for i in range(n)]
    edges = [("t0", f"t{i}") for i in range(1, n)]
    rtypes = [
        RequestType(
            name=f"r{r}",
            stages=tuple(tuple(f"t{i}" for i in s) for s in stages),
        )
        for r, stages in enumerate(stages_per_type)
    ]
    graph = AppGraph("draws", tiers, edges, rtypes)
    config = EngineConfig(rate_cv=0.0, spike_prob=0.0, **overrides)
    engine = QueueingEngine(graph, config, seed=seed)
    n_ticks = max(int(round(1.0 / config.tick)), 1)
    engine._fast_plan = _FastPlan(engine, n_ticks)
    return engine


def kernel_interval(engine, rates, allocs=None):
    """One direct ``sinan_interval`` call on the engine's plan, with none
    of the engine's argument checks.  The engine keeps its state; the
    plan's buffers hold what the call wrote."""
    plan = engine._fast_plan
    n = engine.graph.n_tiers
    allocs = np.full(n, 2.0) if allocs is None else allocs
    plan.clock[:] = (
        engine.time, engine._log_mod, engine._burst_start,
        engine._burst_until, engine._burst_mult,
    )
    buf = plan.buffer
    rng = engine._rng
    with rng.bit_generator.lock:
        return plan.clib.sinan_interval(
            plan.c, rng.bit_generator.cffi.bit_generator,
            buf(np.ascontiguousarray(allocs, dtype=float)),
            buf(np.ascontiguousarray(rates, dtype=float)), False,
            buf(engine.queue), buf(engine._busy_ewma), buf(engine._demand),
            buf(np.empty((5, n))), buf(np.empty(5)),
        )


def replay_ticks(twin, engine, rates):
    """The call's tick draws on the Generator methods, row by row
    against the kernel's counts and jitter rows."""
    cfg = engine.config
    plan = engine._fast_plan
    for t in range(plan.n_ticks):
        want = twin.poisson((np.asarray(rates, dtype=float) * 1.0) * cfg.tick)
        assert np.array_equal(plan.counts_rows[t], want), f"tick {t}"
        if cfg.capacity_jitter > 0:
            want_z = twin.normal(0.0, 1.0, size=engine.graph.n_tiers)
            assert np.array_equal(plan.z_rows[t], want_z), f"tick {t}"


def replay_samples(twin, engine, got):
    """The call's sampler draws on the Generator methods, with the
    reference sampler's arithmetic over the kernel's sojourn rows."""
    cfg = engine.config
    plan = engine._fast_plan
    if not plan.type_counts.sum() > 0:
        assert got == 1  # the base-latency sample, drawn from nothing
        return
    sojourn = plan.sojourn_rows[:, plan.inv]
    sigma = cfg.noise_sigma
    mu_ln = -0.5 * sigma * sigma
    drops = plan.drops_out.max() > 0
    pos = 0
    for r, k in enumerate(plan.k_per_type):
        if k <= 0:
            continue
        ticks = twin.integers(0, plan.n_ticks, size=k)
        latency = np.zeros(k)
        for stage in engine.graph.stage_indices[r]:
            base = engine._base_lat[stage]
            noise = twin.lognormal(mu_ln, sigma, size=(k, stage.size))
            soj = sojourn[ticks[:, None], stage[None, :]]
            latency += (base + (soj - base) * noise).max(axis=1)
        if drops and plan.p_drop[r] > 0:
            latency[twin.random(k) < plan.p_drop[r]] = cfg.drop_latency
        want = np.minimum(latency, cfg.drop_latency)
        assert np.array_equal(plan.samples[pos:pos + k], want), f"type {r}"
        pos += k
    assert pos == got


def assert_same_state(a, b):
    assert a.bit_generator.state == b.bit_generator.state


@needs_kernel
class TestTickDraws:
    @pytest.mark.parametrize(
        "lams",
        [
            [0.0, 0.0],              # poisson(0) draws nothing
            [0.4, 3.7, 9.999],       # below 10: numpy's multiplication method
            [10.0, 57.3, 4000.5],    # at or above 10: the PTRS method
            [0.0, 12.5, 0.0, 2.25],  # mixed
        ],
    )
    @pytest.mark.parametrize("n_z", [0, 1, 5])
    def test_poisson_then_normals_match_generator(self, lams, n_z):
        """Per tick, the Poisson counts of every type and then the
        jitter normals of every tier (none without jitter)."""
        stages = [(0,), tuple(range(1, n_z))] if n_z > 1 else [(0,)]
        engine = make_engine(
            [stages] * len(lams), 11, capacity_jitter=0.05 if n_z else 0.0
        )
        twin = np.random.default_rng(11)
        for step in range(20):
            rates = np.asarray(lams) / 0.1 * (1.0 + 0.01 * step)
            got = kernel_interval(engine, rates)
            assert got > 0
            replay_ticks(twin, engine, rates)
            replay_samples(twin, engine, got)
            assert_same_state(engine._rng, twin)

    @pytest.mark.parametrize(
        "lams, message",
        [
            ([1.0, _ckernel.POISSON_LAM_MAX * 1.5], "lam value too large"),
            ([1.0, np.inf], "lam value too large"),
            ([np.nan, -1.0], "lam value too large"),  # NaN fails <= first
            ([1.0, -1.0], "lam < 0 or lam contains NaNs"),
            ([-np.inf, 2.0], "lam < 0 or lam contains NaNs"),
        ],
    )
    def test_invalid_means_draw_nothing(self, lams, message):
        # One-second ticks: the rates are the means themselves.
        engine = make_engine([[(0,), (1, 2)]] * 2, 5, tick=1.0)
        twin = np.random.default_rng(5)
        before = engine._rng.bit_generator.state
        engine._fast_plan.counts_rows.fill(-1.0)
        got = kernel_interval(engine, lams)
        assert _ckernel.DRAW_ERRORS[-got] == (ValueError, message)
        assert np.all(engine._fast_plan.counts_rows == -1.0)  # no row written
        with pytest.raises(ValueError, match=message):
            twin.poisson(np.asarray(lams))
        assert engine._rng.bit_generator.state == before
        assert_same_state(engine._rng, twin)

    def test_lam_max_is_numpys(self):
        engine = make_engine([[(0,)]], 2, tick=1.0, capacity_jitter=0.0)
        twin = np.random.default_rng(2)
        at = _ckernel.POISSON_LAM_MAX
        above = np.nextafter(at, np.inf)
        assert kernel_interval(engine, [above]) == -1
        with pytest.raises(ValueError):
            twin.poisson(np.asarray([above]))
        got = kernel_interval(engine, [at])
        assert got > 0
        replay_ticks(twin, engine, [at])
        replay_samples(twin, engine, got)
        assert_same_state(engine._rng, twin)


@needs_kernel
class TestSamplerDraws:
    @pytest.mark.parametrize("n_ticks", [1, 10, 20])
    @pytest.mark.parametrize("ks", [[3], [7, 11], [1, 0, 5]])
    def test_tick_indices_match_integers(self, n_ticks, ks):
        """Rates in proportion to ``ks`` over a budget of ``sum(ks)``
        samples give each type about its ``ks`` entry (at least 3 when
        it arrived).  With sigma 0 every noise factor is exactly 1.0
        (still drawn), so each sample reads the sojourns at its drawn
        tick.  One tick per interval draws no index at all; odd counts
        leave PCG64 holding a buffered 32-bit half, which the state
        compares; a type that did not arrive draws nothing."""
        engine = make_engine(
            [[(r % 2,)] for r in range(len(ks))], n_ticks,
            tick=1.0 / n_ticks, noise_sigma=0.0, max_latency_samples=sum(ks),
        )
        twin = np.random.default_rng(n_ticks)
        rates = 60.0 * np.asarray(ks, dtype=float)
        drawn = set()
        for _ in range(5):
            got = kernel_interval(engine, rates)
            replay_ticks(twin, engine, rates)
            replay_samples(twin, engine, got)
            assert_same_state(engine._rng, twin)
            drawn.update(int(k) for k in engine._fast_plan.k_per_type)
        assert any(k % 2 for k in drawn)
        assert (0 in drawn) == (0 in ks)

    @pytest.mark.parametrize("sigma", [0.22, 1.3])
    def test_lognormals_match_generator(self, sigma):
        """One type, two stages of one and three tiers: the lognormal
        blocks stage by stage, each (k, size) row-major."""
        engine = make_engine([[(0,), (1, 2, 3)]], 21, noise_sigma=sigma)
        twin = np.random.default_rng(21)
        for _ in range(3):
            got = kernel_interval(engine, [90.0])
            replay_ticks(twin, engine, [90.0])
            replay_samples(twin, engine, got)
            assert_same_state(engine._rng, twin)

    def test_drop_uniforms_match_random(self):
        """Tier 1 overflows, tiers 0 and 2 do not (no backpressure holds
        tier 0's slots): the type through tier 1 flips its drop coins,
        the type through tier 2 flips none."""
        engine = make_engine(
            [[(0,), (1,)], [(0,), (2,)]], 8, max_queue=20.0,
            backpressure=False,
        )
        twin = np.random.default_rng(8)
        allocs = np.array([8.0, 0.05, 8.0])
        for _ in range(3):
            got = kernel_interval(engine, [400.0, 100.0], allocs)
            replay_ticks(twin, engine, [400.0, 100.0])
            plan = engine._fast_plan
            assert plan.p_drop[0] > 0 and plan.p_drop[1] == 0
            replay_samples(twin, engine, got)
            assert_same_state(engine._rng, twin)
        k0 = int(plan.k_per_type[0])
        dropped = np.count_nonzero(plan.samples[:k0] == 5.0)
        assert 0 < dropped < k0

    @pytest.mark.parametrize("sigma", [-0.1, -0.0])
    def test_negative_sigma_refused_after_first_ticks(self, sigma):
        """Generator.lognormal checks sigma when called, i.e. after the
        first sampled type's tick draw."""
        engine = make_engine([[(0,)], [(0,)]], 4, noise_sigma=sigma)
        twin = np.random.default_rng(4)
        got = kernel_interval(engine, [0.0, 50.0])
        assert _ckernel.DRAW_ERRORS[-got] == (ValueError, "sigma < 0")
        assert -got == _ckernel.SAMPLER_REFUSAL
        replay_ticks(twin, engine, [0.0, 50.0])
        k = engine._fast_plan.k_per_type
        assert k[0] == 0 and k[1] > 0
        twin.integers(0, engine._fast_plan.n_ticks, size=k[1])
        with pytest.raises(ValueError, match="sigma < 0"):
            twin.lognormal(0.0, sigma, size=k[1])
        assert_same_state(engine._rng, twin)


class TestEngineRefusesLikeNumpy:
    """Both backends and the oracle raise the same ValueError on the
    same invalid draw arguments, leaving the same generator state."""

    def _raise_all(self, cfg, rps, message):
        graph = make_tiny_graph()
        allocs = np.full(graph.n_tiers, 2.0)
        rates = np.full(graph.n_types, rps)
        fast = QueueingEngine(graph, cfg, seed=3)
        ref = ReferenceQueueingEngine(graph, cfg, seed=3)
        for engine in (fast, ref):
            with pytest.raises(ValueError, match=message):
                engine.run_interval(allocs, rates)
        assert fast._rng.bit_generator.state == ref._rng.bit_generator.state
        assert fast.time == ref.time
        return fast

    def test_poisson_mean_too_large(self, backend):
        # Finite rates pass validation; the modulated mean overflows
        # numpy's POISSON_LAM_MAX, so the first tick's check refuses it
        # after the tick's modulation draws.
        fast = self._raise_all(EngineConfig(), 1e21, "lam value too large")
        assert fast.time == 0.0
        assert (fast._fast_plan.clib is None) == (backend == "numpy")

    def test_negative_noise_sigma(self, backend):
        # Refused at the first lognormal draw, after every tick's draws
        # and the first sampled type's tick indices.
        fast = self._raise_all(
            EngineConfig(noise_sigma=-0.05), 60.0, "sigma < 0"
        )
        assert fast.time > 0.0
        assert (fast._fast_plan.clib is None) == (backend == "numpy")
