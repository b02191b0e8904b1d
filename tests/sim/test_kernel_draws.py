"""The compiled kernel's draws are numpy's own.

``repro.sim._ckernel`` draws the interval's random numbers by calling
the C functions behind ``Generator.poisson``, ``normal``, ``integers``,
``lognormal`` and ``random`` on the engine generator's ``bitgen_t``.
Each kernel entry point must therefore give the values the Generator
methods give on the same state, and leave the same
``bit_generator.state`` behind — PCG64's buffered 32-bit half included —
and it must refuse the arguments those methods refuse, drawing nothing.
The engine-level checks at the bottom run both backends and the per-tick
oracle into the same invalid arguments.
"""

import numpy as np
import pytest

from repro.sim import _ckernel
from repro.sim.engine import EngineConfig, QueueingEngine
from tests.conftest import make_tiny_graph
from tests.oracles.engine import ReferenceQueueingEngine

KERNEL = _ckernel.load_kernel()
needs_kernel = pytest.mark.skipif(KERNEL is None, reason="no compiled kernel")


def _pair(seed):
    """Two generators on one state: the kernel draws from the first,
    the Generator methods from the second."""
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _buf(ctype, a):
    return KERNEL[0].from_buffer(ctype + "[]", a)


def kernel_tick(rng, rates, mod, tick, n_z):
    """``sinan_draw_tick`` into row 1 of two-row buffers."""
    lib = KERNEL[1]
    rates = np.ascontiguousarray(rates, dtype=float)
    counts = np.full((2, rates.size), -1.0)
    z = np.full((2, max(n_z, 1)), np.nan)
    with rng.bit_generator.lock:
        err = lib.sinan_draw_tick(
            rng.bit_generator.cffi.bit_generator, 1, rates.size,
            _buf("double", rates), mod, tick, _ckernel.POISSON_LAM_MAX,
            _buf("double", counts), n_z, _buf("double", z),
        )
    return err, counts[1], z[1, :n_z]


def kernel_sample(
    rng, soj, stages_per_type, base, k_per_type, mu_ln, sigma,
    p_drop=None, drop_latency=1e300,
):
    """``sinan_sample_latencies`` on hand-built stage tables.

    ``stages_per_type[r]`` lists type r's stages as lists of columns of
    ``soj`` (shape ``(n_ticks, n)``); ``base`` is per column.
    """
    ffi, lib = KERNEL
    soj = np.ascontiguousarray(soj, dtype=float)
    n_ticks, n = soj.shape
    cols, sizes, col_off, seg_off = [], [], [0], [0]
    for stages in stages_per_type:
        for stage in stages:
            cols.extend(stage)
            sizes.append(len(stage))
        col_off.append(len(cols))
        seg_off.append(len(sizes))
    cols = np.asarray(cols, dtype=np.int32)
    k = np.asarray(k_per_type, dtype=np.int64)
    out = np.full(int(k[k > 0].sum()), np.nan)
    ticks = np.empty(max(int(k.max()), 1), dtype=np.uint64)
    p = None if p_drop is None else np.asarray(p_drop, dtype=float)
    with rng.bit_generator.lock:
        err = lib.sinan_sample_latencies(
            rng.bit_generator.cffi.bit_generator, len(stages_per_type),
            _buf("int64_t", k), n_ticks, n, _buf("double", soj),
            _buf("int", np.asarray(col_off, dtype=np.int32)),
            _buf("int", cols),
            _buf("double", np.asarray(base, dtype=float)[cols]),
            _buf("int", np.asarray(seg_off, dtype=np.int32)),
            _buf("int", np.asarray(sizes, dtype=np.int32)),
            mu_ln, sigma, ffi.NULL if p is None else _buf("double", p),
            drop_latency, _buf("uint64_t", ticks), _buf("double", out),
        )
    return err, out


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
        k_rng, g_rng = _pair(11)
        for step in range(20):
            mod = 1.0 + 0.01 * step
            rates = np.asarray(lams) / 0.1 / mod
            err, counts, z = kernel_tick(k_rng, rates, mod, 0.1, n_z)
            assert err == 0
            want = g_rng.poisson((rates * mod) * 0.1)
            want_z = g_rng.normal(0.0, 1.0, size=n_z)
            assert np.array_equal(counts, want)
            assert np.array_equal(z, want_z)
            assert_same_state(k_rng, g_rng)

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
        k_rng, g_rng = _pair(5)
        before = k_rng.bit_generator.state
        err, counts, _ = kernel_tick(k_rng, lams, 1.0, 1.0, 3)
        assert _ckernel.DRAW_ERRORS[err] == message
        assert np.all(counts == -1.0)  # no row written
        with pytest.raises(ValueError, match=message):
            g_rng.poisson(np.asarray(lams))
        assert k_rng.bit_generator.state == before
        assert_same_state(k_rng, g_rng)

    def test_lam_max_is_numpys(self):
        k_rng, g_rng = _pair(2)
        at = _ckernel.POISSON_LAM_MAX
        above = np.nextafter(at, np.inf)
        assert kernel_tick(k_rng, [above], 1.0, 1.0, 0)[0] == 1
        with pytest.raises(ValueError):
            g_rng.poisson(np.asarray([above]))
        err, counts, _ = kernel_tick(k_rng, [at], 1.0, 1.0, 0)
        assert err == 0
        assert np.array_equal(counts, g_rng.poisson(np.asarray([at])))
        assert_same_state(k_rng, g_rng)


@needs_kernel
class TestSamplerDraws:
    @pytest.mark.parametrize("n_ticks", [1, 10, 20])
    @pytest.mark.parametrize("ks", [[3], [7, 11], [1, 0, 5]])
    def test_tick_indices_match_integers(self, n_ticks, ks):
        """With sigma 0 every noise factor is exactly 1.0 (still drawn),
        so a single-tier stage over a sojourn column holding its tick
        index returns the drawn indices themselves.  Odd counts leave
        PCG64 holding a buffered 32-bit half, which the state compares."""
        soj = np.repeat(np.arange(n_ticks, dtype=float)[:, None], 2, axis=1)
        stages = [[[r % 2]] for r in range(len(ks))]
        k_rng, g_rng = _pair(n_ticks)
        for _ in range(5):
            err, out = kernel_sample(
                k_rng, soj, stages, [0.0, 0.0], ks, 0.0, 0.0
            )
            assert err == 0
            pos = 0
            for k in ks:
                if k <= 0:
                    continue
                want = g_rng.integers(0, n_ticks, size=k)
                g_rng.lognormal(0.0, 0.0, size=k)
                assert np.array_equal(out[pos:pos + k], want)
                pos += k
            assert_same_state(k_rng, g_rng)

    @pytest.mark.parametrize("sigma", [0.22, 1.3])
    def test_lognormals_match_generator(self, sigma):
        """One type, two stages of one and three tiers.  Unit sojourns
        over zero base latencies make the first stage's term the noise
        itself."""
        n_ticks, k = 10, 9
        soj = np.ones((n_ticks, 4))
        mu_ln = -0.5 * sigma * sigma
        k_rng, g_rng = _pair(21)
        err, out = kernel_sample(
            k_rng, soj, [[[0], [1, 2, 3]]], np.zeros(4), [k], mu_ln, sigma
        )
        assert err == 0
        g_rng.integers(0, n_ticks, size=k)
        first = g_rng.lognormal(mu_ln, sigma, size=(k, 1))
        second = g_rng.lognormal(mu_ln, sigma, size=(k, 3))
        assert np.array_equal(out, first[:, 0] + second.max(axis=1))
        assert_same_state(k_rng, g_rng)

    def test_drop_uniforms_match_random(self):
        n_ticks, ks, p = 10, [13, 6], [0.4, 0.0]
        soj = np.full((n_ticks, 1), 0.5)
        k_rng, g_rng = _pair(8)
        err, out = kernel_sample(
            k_rng, soj, [[[0]], [[0]]], [0.0], ks, 0.0, 0.0,
            p_drop=p, drop_latency=5.0,
        )
        assert err == 0
        for r, k in enumerate(ks):
            g_rng.integers(0, n_ticks, size=k)
            g_rng.lognormal(0.0, 0.0, size=k)
            if p[r] > 0:
                dropped = g_rng.random(k) < p[r]
            else:
                dropped = np.zeros(k, dtype=bool)
            got = out[sum(ks[:r]):sum(ks[:r]) + k]
            assert np.array_equal(got == 5.0, dropped)
            assert np.all(got[~dropped] == 0.5)
        assert 0 < np.count_nonzero(out == 5.0) < ks[0]
        assert_same_state(k_rng, g_rng)

    @pytest.mark.parametrize("sigma", [-0.1, -0.0])
    def test_negative_sigma_refused_after_first_ticks(self, sigma):
        """Generator.lognormal checks sigma when called, i.e. after the
        first sampled type's tick draw."""
        k_rng, g_rng = _pair(4)
        err, _ = kernel_sample(
            k_rng, np.ones((10, 1)), [[[0]], [[0]]], [0.0], [0, 5], 0.0, sigma
        )
        assert _ckernel.DRAW_ERRORS[err] == "sigma < 0"
        g_rng.integers(0, 10, size=5)
        with pytest.raises(ValueError, match="sigma < 0"):
            g_rng.lognormal(0.0, sigma, size=5)
        assert_same_state(k_rng, g_rng)


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
