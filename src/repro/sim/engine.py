"""Discrete-time queueing engine for the microservice cluster.

The engine advances in fixed ticks (default 100 ms, ten per 1 s decision
interval).  Per tick and per tier it models:

* **CPU-derived capacity**: a tier with allocation ``a`` cores and CPU
  demand ``c`` CPU-seconds per unit of work serves at most ``a / c``
  units per second; a single request runs on at most one core, so its
  service time is ``c / min(a, 1)`` (sub-core limits stretch service).
* **Synchronous-RPC backpressure**: a caller's concurrency slots
  (``conc_per_core * a``) are held for its own service time *plus* the
  sojourn of its slowest callee, so a slow downstream tier throttles the
  upstream tier's effective throughput and inflates *its* queue.  This is
  what makes "tier with the longest queue" a symptom rather than the
  culprit (paper Section 5.3), defeating queue-driven managers.
* **Queue persistence** across intervals: under-allocation builds queues
  that take many intervals to drain, the paper's delayed queueing effect
  (Figure 3).

End-to-end latency is synthesized per interval by sampling request paths:
a request's latency is the sum over its stages of the maximum sampled
tier sojourn within each stage, with lognormal service-time noise.
Requests that hit an overflowing queue are dropped and recorded at a
timeout latency, which is how sustained overload blows up the p99.

The per-tick loop (:meth:`QueueingEngine._run_interval_loop`) is the
model's one Python form.  When the compiled kernel loads
(:mod:`repro.sim._ckernel`), one ``sinan_interval`` call runs the same
interval instead, bit for bit: every :class:`IntervalStats` field, the
engine's state and its generator's state
(``tests/sim/test_fast_sim.py``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.sim import _ckernel
from repro.sim.behaviors import Behavior
from repro.sim.graph import AppGraph
from repro.sim.telemetry import LATENCY_PERCENTILES, IntervalStats

_EPS = 1e-9
#: Upper bound on a single tier's sojourn estimate (seconds); keeps the
#: fluid model finite when a tier is fully stalled.
_MAX_SOJOURN = 30.0

#: Interval p99 buckets (milliseconds) for the metrics pillar.
_P99_MS_BUCKETS: tuple[float, ...] = (
    5.0, 10.0, 25.0, 50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 400.0,
    500.0, 1000.0, 2500.0, 5000.0,
)


@dataclass(frozen=True)
class EngineConfig:
    """Tunable physics of the simulated platform."""

    tick: float = 0.1
    """Tick length in seconds (an interval is 1 s = ``1/tick`` ticks)."""

    service_mult: float = 1.0
    """Multiplier on every tier's CPU demand (platform speed)."""

    base_lat_mult: float = 1.0
    """Multiplier on every tier's non-CPU base latency."""

    noise_sigma: float = 0.22
    """Lognormal sigma for sampled per-request sojourn noise."""

    capacity_jitter: float = 0.05
    """Std-dev of per-tick multiplicative capacity jitter."""

    max_queue: float = 4000.0
    """Per-tier queue cap (requests); overflow is dropped."""

    drop_latency: float = 5.0
    """Latency (seconds) booked for a dropped request (client timeout)."""

    max_latency_samples: int = 480
    """Per-interval cap on synthesized end-to-end latency samples."""

    backpressure: bool = True
    """Disable to ablate the synchronous-RPC backpressure coupling."""

    rate_cv: float = 0.18
    """Std-dev of the slow AR(1) lognormal modulation on offered load
    (real user traffic is burstier than a constant-rate Poisson)."""

    spike_prob: float = 0.03
    """Per-second probability that a short traffic burst begins."""

    spike_mult_range: tuple[float, float] = (1.25, 1.6)
    """Multiplier range for traffic bursts."""

    spike_duration_range: tuple[float, float] = (8.0, 16.0)
    """Burst duration range (seconds).  Bursts rise and fall smoothly
    (sin^2 envelope), so their onset is visible in the traffic counters
    one to two intervals ahead — a *predictable* overload, exactly the
    delayed-queueing dynamics Sinan's violation predictor exploits and
    reactive utilization scaling reacts to only after queues are built."""


def validate_load(
    graph: AppGraph, allocs: np.ndarray, type_rates: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``allocs`` and ``type_rates`` as contiguous float arrays, or
    ``ValueError`` unless every allocation is finite and positive and
    every rate finite and non-negative, each of the graph's shape.

    Both engines check a load with it before any draw, so a refused call
    leaves the generator where it was.  Contiguous: the compiled interval
    reads both through their buffers.
    """
    n = graph.n_tiers
    allocs = np.ascontiguousarray(allocs, dtype=float)
    if allocs.shape != (n,):
        raise ValueError(f"allocs must have shape ({n},)")
    # A NaN or infinite allocation would otherwise run, and the compiled
    # and per-tick recurrences do not agree on non-finite values.
    if not np.isfinite(allocs).all():
        raise ValueError("all CPU allocations must be finite")
    if (allocs <= 0).any():
        raise ValueError("all CPU allocations must be positive")
    type_rates = np.ascontiguousarray(type_rates, dtype=float)
    if type_rates.shape != (graph.n_types,):
        raise ValueError(f"type_rates must have shape ({graph.n_types},)")
    if not np.isfinite(type_rates).all() or (type_rates < 0).any():
        raise ValueError("type_rates must be finite and non-negative")
    return allocs, type_rates


class QueueingEngine:
    """Simulates one application deployment at tick granularity.

    Parameters
    ----------
    graph:
        The application (tiers, edges, request types).
    config:
        Platform physics; see :class:`EngineConfig`.
    seed:
        Seed for the engine's private random generator.
    behaviors:
        Injectable pathologies (see :mod:`repro.sim.behaviors`).
    """

    def __init__(
        self,
        graph: AppGraph,
        config: EngineConfig | None = None,
        seed: int = 0,
        behaviors: tuple[Behavior, ...] = (),
    ) -> None:
        self.graph = graph
        self.config = config or EngineConfig()
        self.behaviors = tuple(behaviors)
        n = graph.n_tiers

        self._cpu_per_req = np.array(
            [t.cpu_per_req for t in graph.tiers]
        ) * self.config.service_mult
        self._base_lat = np.array(
            [t.base_latency for t in graph.tiers]
        ) * self.config.base_lat_mult
        self._conc_per_core = np.array([t.conc_per_core for t in graph.tiers])
        self._soft_thr = np.array(
            [t.soft_throughput * t.replicas for t in graph.tiers]
        )
        self._replicas = np.array([float(t.replicas) for t in graph.tiers])
        self._rss_base = np.array([t.rss_base_mb for t in graph.tiers])
        self._rss_per_q = np.array([t.rss_per_queued_mb for t in graph.tiers])
        self._cache_base = np.array([t.cache_mb for t in graph.tiers])
        self._pkts = np.array([t.pkts_per_req for t in graph.tiers])

        self._levels = self._build_levels()
        self._visit_T = graph.visit_matrix.T.copy()  # (N, R)
        # Tier-index list per request type for drop probability.
        self._type_tiers = [
            np.flatnonzero(graph.visit_matrix[r] > 0) for r in range(graph.n_types)
        ]

        # AR(1) modulation constants (see _rate_modulation): hoisting the
        # sqrt/power out of the per-tick call keeps the same doubles.
        self._mod_sigma = self.config.rate_cv * float(np.sqrt(2 * 0.004))
        self._mod_bias = 0.5 * self.config.rate_cv**2

        self._rng = np.random.default_rng(seed)
        self.time = 0.0
        self.queue = np.zeros(n)
        self._sojourn = self._base_lat.copy()
        self._busy_frac = np.zeros(n)
        self._busy_ewma = np.zeros(n)
        self._demand = np.zeros(n)
        self._log_mod = 0.0
        self._burst_start = -1.0
        self._burst_until = -1.0
        self._burst_mult = 1.0
        self._intervals = 0
        self._fast_plan: _FastPlan | None = None
        self.recorder = None
        """Observability handle; ``None``/no-op means off (see
        :func:`repro.obs.recorder.attach_recorder`)."""

    def __getstate__(self) -> dict:
        """Copies and pickles leave out the interval plan: it is scratch,
        rebuilt on the next interval, and holds the compiled kernel's
        handles, which do not copy."""
        state = self.__dict__.copy()
        state["_fast_plan"] = None
        return state

    def _build_levels(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Group tiers into dependency levels for vectorized sojourn math.

        Level 0 holds leaves (no callees); a tier's level is one more than
        its deepest callee.  Returns, per level > 0, the tier indices, a
        padded child-index matrix, and its validity mask; level 0 entries
        carry empty child structures.
        """
        graph = self.graph
        n = graph.n_tiers
        level = np.zeros(n, dtype=int)
        for idx in graph.reverse_topo_order:
            children = graph.children[idx]
            if children.size:
                level[idx] = 1 + level[children].max()
        levels = []
        for lvl in range(level.max() + 1):
            members = np.flatnonzero(level == lvl)
            if members.size == 0:
                continue
            kmax = max((graph.children[i].size for i in members), default=0)
            child_matrix = np.zeros((members.size, max(kmax, 1)), dtype=int)
            mask = np.zeros((members.size, max(kmax, 1)), dtype=bool)
            for row, idx in enumerate(members):
                children = graph.children[idx]
                child_matrix[row, : children.size] = children
                mask[row, : children.size] = True
            levels.append((members, child_matrix, mask))
        return levels

    def reset(self, seed: int | None = None) -> None:
        """Drain all queues and restart the clock (fresh episode)."""
        self.time = 0.0
        self.queue = np.zeros(self.graph.n_tiers)
        self._sojourn = self._base_lat.copy()
        self._busy_frac = np.zeros(self.graph.n_tiers)
        self._busy_ewma = np.zeros(self.graph.n_tiers)
        self._demand = np.zeros(self.graph.n_tiers)
        self._log_mod = 0.0
        self._burst_start = -1.0
        self._burst_until = -1.0
        self._burst_mult = 1.0
        self._intervals = 0
        if seed is not None:
            self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # Tick physics
    # ------------------------------------------------------------------

    def _rate_modulation(self) -> float:
        """Per-tick multiplicative load modulation: slow AR(1) drift plus
        occasional short bursts."""
        cfg = self.config
        if cfg.rate_cv > 0:
            # Slow mean reversion (~25 s timescale): the load level drifts
            # visibly rather than flickering, so it is observable in the
            # telemetry history rather than pure per-interval noise.
            theta = 0.004
            noise = self._rng.normal(0.0, self._mod_sigma)
            self._log_mod += -theta * self._log_mod + noise
        burst = 1.0
        if cfg.spike_prob > 0:
            if self.time >= self._burst_until:
                if self._rng.random() < cfg.spike_prob * cfg.tick:
                    lo, hi = cfg.spike_mult_range
                    self._burst_mult = self._rng.uniform(lo, hi)
                    dlo, dhi = cfg.spike_duration_range
                    self._burst_start = self.time
                    self._burst_until = self.time + self._rng.uniform(dlo, dhi)
            if self.time < self._burst_until:
                # Smooth sin^2 envelope: ramps up and back down, so the
                # onset shows in traffic counters before the peak hits.
                phase = (self.time - self._burst_start) / (
                    self._burst_until - self._burst_start
                )
                envelope = np.sin(np.pi * phase) ** 2
                burst = 1.0 + (self._burst_mult - 1.0) * envelope
        return float(np.exp(self._log_mod - self._mod_bias) * burst)

    def _behavior_capacity(self, n: int) -> np.ndarray:
        mult = np.ones(n)
        for behavior in self.behaviors:
            factor = behavior.capacity_multiplier(self.time, n)
            if factor is not None:
                mult = mult * factor
        return mult

    def _behavior_replicas(self, n: int) -> np.ndarray:
        """Effective replica fraction per tier (crashed replicas gone).

        Floored away from zero: even a fully crashed tier retains a
        sliver of capacity (the restarting replica), keeping the fluid
        model finite.
        """
        mult = np.ones(n)
        for behavior in self.behaviors:
            factor = behavior.replica_multiplier(self.time, n)
            if factor is not None:
                mult = mult * factor
        return np.clip(mult, 0.02, None)

    def run_interval(
        self, allocs: np.ndarray, type_rates: np.ndarray
    ) -> IntervalStats:
        """Advance one 1 s decision interval under the given allocation.

        With the compiled kernel the interval is one ``sinan_interval``
        call (:meth:`_run_interval_kernel`); without it, the per-tick
        loop (:meth:`_run_interval_loop`) runs it, bit for bit the same.

        Parameters
        ----------
        allocs:
            Per-tier CPU limits (cores), shape ``(n_tiers,)``.
        type_rates:
            Offered load per request type (requests/second), shape
            ``(n_types,)``.

        Returns
        -------
        IntervalStats
            The telemetry a per-node agent plus the API gateway would
            report for this interval.
        """
        allocs, type_rates = validate_load(self.graph, allocs, type_rates)
        n_ticks = max(int(round(1.0 / self.config.tick)), 1)
        plan = self._fast_plan
        if plan is None or plan.n_ticks != n_ticks:
            kern = _ckernel.load_kernel()
            if kern is None:
                return self._run_interval_loop(allocs, type_rates)
            plan = self._fast_plan = _FastPlan(self, n_ticks, kern)
        return self._run_interval_kernel(plan, allocs, type_rates)

    def _finish_interval(
        self,
        allocs: np.ndarray,
        type_counts: np.ndarray,
        arrivals_total: np.ndarray,
        completions_total: np.ndarray,
        drops_total: np.ndarray,
        cpu_used: np.ndarray,
        latency_samples: np.ndarray,
        percentiles: np.ndarray,
    ) -> IntervalStats:
        """Shared interval tail: behavior memory extras, telemetry noise,
        and :class:`IntervalStats` assembly.  The per-tick loop and the
        compiled interval share it, so the trailing RNG draws and
        arithmetic are identical by construction."""
        graph = self.graph
        n = graph.n_tiers

        rss_extra = np.zeros(n)
        cache_extra = np.zeros(n)
        for behavior in self.behaviors:
            extra = behavior.rss_extra_mb(self.time, n)
            if extra is not None:
                rss_extra += extra
            extra = behavior.cache_extra_mb(self.time, n)
            if extra is not None:
                cache_extra += extra

        util = cpu_used / np.maximum(allocs, _EPS)
        util = np.clip(util + self._rng.normal(0.0, 0.005, size=n), 0.0, 1.0)
        rss = self._rss_base + self._rss_per_q * self.queue + rss_extra
        cache = self._cache_base + 0.02 * completions_total + cache_extra

        total_rps = float(type_counts.sum())
        rps_by_type = {
            name: float(count)
            for name, count in zip(graph.type_names, type_counts)
        }
        stats = IntervalStats(
            time=self.time,
            rps=total_rps,
            rps_by_type=rps_by_type,
            cpu_alloc=allocs.copy(),
            cpu_util=util,
            rss_mb=rss,
            cache_mb=cache,
            rx_pps=arrivals_total * self._pkts,
            tx_pps=completions_total * self._pkts,
            queue=self.queue.copy(),
            latency_ms=percentiles,
            drops=float(drops_total.sum()),
            latency_samples_ms=latency_samples * 1000.0,
        )
        self._intervals += 1
        recorder = self.recorder
        if recorder is not None and recorder.enabled:
            self._report_interval(recorder, stats)
        return stats

    # ------------------------------------------------------------------
    # Per-tick interval
    # ------------------------------------------------------------------

    def _run_interval_loop(
        self, allocs: np.ndarray, type_rates: np.ndarray
    ) -> IntervalStats:
        """The interval tick by tick: the path without the compiled
        kernel, and the reference the kernel is pinned to."""
        graph = self.graph
        cfg = self.config
        n = graph.n_tiers

        n_ticks = max(int(round(1.0 / cfg.tick)), 1)
        sojourn_ticks = np.empty((n_ticks, n))
        cpu_used = np.zeros(n)
        arrivals_total = np.zeros(n)
        completions_total = np.zeros(n)
        drops_total = np.zeros(n)
        type_counts = np.zeros(graph.n_types)

        for tick in range(n_ticks):
            counts = self._rng.poisson(type_rates * self._rate_modulation() * cfg.tick)
            type_counts += counts
            arrivals = self._visit_T @ counts
            self._demand = 0.8 * self._demand + 0.2 * (arrivals / cfg.tick)

            cap_mult = self._behavior_capacity(n)
            rep_mult = self._behavior_replicas(n)
            if cfg.capacity_jitter > 0:
                # Service capacity is noisier near the software saturation
                # point (GC pauses, lock convoys, scheduler interference):
                # this is what makes thin-headroom operation increasingly
                # fragile at high absolute load.
                saturation = np.clip(self._demand / (self._soft_thr * rep_mult), 0.0, 1.0)
                sigma = cfg.capacity_jitter * (1.0 + 3.0 * saturation)
                jitter = 1.0 + self._rng.normal(0.0, 1.0, size=n) * sigma
                cap_mult = cap_mult * np.clip(jitter, 0.3, 1.7)

            sojourn, mu = self._compute_sojourn(allocs, cap_mult, rep_mult)
            sojourn_ticks[tick] = sojourn

            capacity = mu * cfg.tick
            backlog = self.queue + arrivals
            completions = np.minimum(backlog, capacity)
            queue = backlog - completions
            drops = np.maximum(queue - cfg.max_queue, 0.0)
            self.queue = queue - drops

            tick_used = np.minimum(completions * self._cpu_per_req, allocs * cfg.tick)
            self._busy_frac = np.clip(tick_used / (allocs * cfg.tick), 0.0, 1.0)
            # Smoothed utilization drives the stochastic-wait and CFS
            # stretch terms: single-tick 0/1 spikes at low request rates
            # should not read as saturation.
            self._busy_ewma = 0.85 * self._busy_ewma + 0.15 * self._busy_frac
            cpu_used += tick_used
            arrivals_total += arrivals
            completions_total += completions
            drops_total += drops
            self.time += cfg.tick

        self._sojourn = sojourn_ticks[-1]
        latency_samples = self._sample_latencies(
            sojourn_ticks, type_counts, arrivals_total, drops_total
        )
        percentiles = np.percentile(latency_samples, LATENCY_PERCENTILES) * 1000.0
        return self._finish_interval(
            allocs, type_counts, arrivals_total, completions_total,
            drops_total, cpu_used, latency_samples, percentiles,
        )

    def _compute_sojourn(
        self, allocs: np.ndarray, cap_mult: np.ndarray, rep_mult: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-tier sojourn W and effective service rate mu for this tick.

        Processes levels bottom-up so each caller sees its callees' fresh
        sojourns (synchronous RPC backpressure).
        """
        cfg = self.config
        # Sub-core CFS quotas stretch service time only to the extent the
        # quota is actually contended: an idle tier at 0.2 cores still
        # serves a lone request at full speed (the burst fits the quota),
        # but near saturation every request waits for quota refresh.
        full_stretch = 1.0 / np.minimum(allocs, 1.0)
        stretch = 1.0 + (full_stretch - 1.0) * self._busy_ewma
        # Software-scalability contention: service time inflates as the
        # per-replica throughput approaches the tier's soft limit (locks,
        # GC, coordination) — no CPU limit increase fixes this.  Crashed
        # replicas shrink the surviving soft limit proportionally.
        saturation = np.clip(self._demand / (self._soft_thr * rep_mult), 0.0, 1.0)
        # Quartic curve: negligible below ~60% of the soft limit, then a
        # sharp contention knee approaching it (up to 12x service time).
        inflation = 1.0 / np.clip(1.0 - saturation**4, 1.0 / 12.0, 1.0)
        service_time = self._cpu_per_req * stretch * inflation
        mu_cpu = allocs / self._cpu_per_req
        sojourn = np.empty_like(allocs)
        mu = np.empty_like(allocs)
        downstream = np.zeros_like(allocs)

        for members, child_matrix, mask in self._levels:
            if cfg.backpressure and mask.any():
                child_w = sojourn[child_matrix]
                child_w = np.where(mask, child_w, 0.0)
                downstream[members] = child_w.max(axis=1)
            hold = service_time[members] + self._base_lat[members] + downstream[members]
            conc = (
                self._conc_per_core[members]
                * allocs[members]
                * self._replicas[members]
                * rep_mult[members]
            )
            mu_conc = conc / np.maximum(hold, _EPS)
            mu_lvl = np.minimum(mu_cpu[members], mu_conc) * cap_mult[members]
            mu_lvl = np.maximum(mu_lvl, _EPS)
            wait = self.queue[members] / mu_lvl
            # Stochastic steady-state queueing (M/M/1-like): even without
            # an explicit backlog, waiting time grows with utilization —
            # the smooth part of the latency knee.
            rho = np.minimum(self._busy_ewma[members], 0.9)
            stoch_wait = service_time[members] * rho / (1.0 - rho)
            sojourn[members] = np.minimum(
                self._base_lat[members] + service_time[members] + wait + stoch_wait,
                _MAX_SOJOURN,
            )
            mu[members] = mu_lvl
        return sojourn, mu

    def _sample_latencies(
        self,
        sojourn_ticks: np.ndarray,
        type_counts: np.ndarray,
        arrivals_total: np.ndarray,
        drops_total: np.ndarray,
    ) -> np.ndarray:
        """Synthesize end-to-end latency samples for this interval."""
        cfg = self.config
        graph = self.graph
        rng = self._rng
        n_ticks = sojourn_ticks.shape[0]

        total = type_counts.sum()
        if total <= 0:
            return np.array([self._base_lat.max()])

        drop_frac = drops_total / np.maximum(arrivals_total, _EPS)
        budget = cfg.max_latency_samples
        weights = type_counts / total
        samples_per_type = np.maximum(
            (weights * budget).astype(int), (type_counts > 0).astype(int) * 3
        )
        # The lognormal noise keeps mean sojourn unchanged: E[LN] = 1.
        sigma = cfg.noise_sigma
        mu_ln = -0.5 * sigma * sigma

        out: list[np.ndarray] = []
        for r, k in enumerate(samples_per_type):
            if k <= 0:
                continue
            ticks = rng.integers(0, n_ticks, size=k)
            latency = np.zeros(k)
            for stage in graph.stage_indices[r]:
                # Single advanced-index gather: same elements as the
                # two-step ``[ticks][:, stage]`` without materializing a
                # (k, n_tiers) intermediate per stage.
                soj = sojourn_ticks[ticks[:, None], stage[None, :]]
                base = self._base_lat[stage]
                noise = rng.lognormal(mu_ln, sigma, size=(k, stage.size))
                sampled = base[None, :] + (soj - base[None, :]) * noise
                latency += sampled.max(axis=1)
            p_drop = 1.0 - np.prod(1.0 - np.clip(drop_frac[self._type_tiers[r]], 0, 1))
            if p_drop > 0:
                dropped = rng.random(k) < p_drop
                latency[dropped] = cfg.drop_latency
            # Clients time out: no observed latency exceeds the drop latency.
            out.append(np.minimum(latency, cfg.drop_latency))
        return np.concatenate(out)

    # ------------------------------------------------------------------
    # Compiled interval
    # ------------------------------------------------------------------

    def _run_interval_kernel(
        self, plan: _FastPlan, allocs: np.ndarray, type_rates: np.ndarray
    ) -> IntervalStats:
        """One ``sinan_interval`` call runs the whole interval, from the
        draws to the latency percentiles (see :mod:`repro.sim._ckernel`);
        Python takes the behaviour rows before it and
        :meth:`_finish_interval` after it.  Behaviour multipliers are
        functions of simulated time only and never touch the engine RNG,
        so every tick's rows are taken before the call, at the clock the
        tick loop reaches."""
        n = self.graph.n_tiers
        tick = self.config.tick
        n_ticks = plan.n_ticks
        has_behaviors = bool(self.behaviors)
        if has_behaviors:
            start = self.time
            for t in range(n_ticks):
                plan.cap_beh_rows[t] = self._behavior_capacity(n)
                plan.rep_rows[t] = self._behavior_replicas(n)
                self.time += tick
            self.time = start
        plan.clock[:] = (
            self.time, self._log_mod, self._burst_start, self._burst_until,
            self._burst_mult,
        )
        state = np.empty((5, n))
        percentiles = np.empty(len(LATENCY_PERCENTILES))
        buf = plan.buffer
        rng = self._rng
        # The bitgen_t is re-read every interval (reset(seed) replaces
        # the generator), and its lock is held for the whole call, as
        # the Generator methods hold it: cffi releases the GIL.
        with rng.bit_generator.lock:
            got = plan.clib.sinan_interval(
                plan.c, rng.bit_generator.cffi.bit_generator,
                buf(allocs), buf(type_rates), has_behaviors,
                buf(self.queue), buf(self._busy_ewma), buf(self._demand),
                buf(state), buf(percentiles),
            )
        (self.time, self._log_mod, self._burst_start, self._burst_until,
         self._burst_mult) = plan.clock.tolist()
        if got > 0 or got == -_ckernel.SAMPLER_REFUSAL:
            (self.queue, self._busy_ewma, self._busy_frac, self._demand,
             self._sojourn) = state
        if got < 0:
            kind, message = _ckernel.DRAW_ERRORS[-got]
            raise kind(message)
        return self._finish_interval(
            allocs, plan.type_counts, plan.arrivals_total,
            plan.completions_out, plan.drops_out, plan.cpu_used_out,
            plan.samples[:got], percentiles,
        )

    def _report_interval(self, recorder, stats: IntervalStats) -> None:
        """Metrics (and sampled per-tier spans) for one interval."""
        index = self._intervals - 1  # 0-based index of the interval above
        recorder.counter("engine_intervals_total")
        recorder.counter("engine_requests_total", stats.rps)
        if stats.drops:
            recorder.counter("engine_drops_total", stats.drops)
        recorder.observe(
            "engine_interval_p99_ms", stats.p99_ms, buckets=_P99_MS_BUCKETS
        )
        for i, name in enumerate(self.graph.tier_names):
            recorder.gauge("engine_queue_depth", float(stats.queue[i]), tier=name)
            recorder.gauge("engine_cpu_util", float(stats.cpu_util[i]), tier=name)
            recorder.gauge(
                "engine_cpu_alloc_cores", float(stats.cpu_alloc[i]), tier=name
            )
        if recorder.sampled(index):
            start = max(stats.time - 1.0, 0.0)
            for i, name in enumerate(self.graph.tier_names):
                recorder.span(
                    name,
                    start,
                    float(self._sojourn[i]),
                    track=f"tier:{name}",
                    cat="tier",
                    args={
                        "interval": index,
                        "queue": float(stats.queue[i]),
                        "util": round(float(stats.cpu_util[i]), 4),
                    },
                )


class _FastPlan:
    """The compiled interval's plan for one engine: ``c`` is the kernel's
    ``sinan_plan``, with sizes, constants and pointers into buffers kept
    here, set once.

    Tiers are permuted so each dependency level occupies one contiguous
    run, children first: the kernel's sweep i = 0..n-1 is then the level
    sweep, over CSR child lists in permuted indices.  The tick rows the
    kernel writes (counts, jitter normals, modulation, arrivals, demand,
    knee, sojourns) and its outputs stay readable here after a call.
    """

    def __init__(self, engine: QueueingEngine, n_ticks: int, kern) -> None:
        cfg = engine.config
        graph = engine.graph
        n, n_types = graph.n_tiers, graph.n_types
        ffi, self.clib = kern
        self.buffer = functools.partial(ffi.from_buffer, "double[]")
        self.n_ticks = n_ticks
        order: list[int] = []
        for members, _, _ in engine._levels:
            order.extend(int(i) for i in members)
        self.perm = np.asarray(order, dtype=np.intp)
        self.inv = np.empty(n, dtype=np.intp)
        self.inv[self.perm] = np.arange(n, dtype=np.intp)

        # CSR child lists in permuted index space: row i (permuted order)
        # holds children at child_idx[child_off[i] : child_off[i + 1]],
        # always at lower indices.
        child_off = np.zeros(n + 1, dtype=np.int32)
        kids: list[int] = []
        row = 0
        for members, child_matrix, mask in engine._levels:
            for j in range(int(members.size)):
                if mask[j].any():
                    kids.extend(
                        int(self.inv[k]) for k in child_matrix[j][mask[j]]
                    )
                row += 1
                child_off[row] = len(kids)
        child_idx = (
            np.asarray(kids, dtype=np.int32)
            if kids
            else np.zeros(1, dtype=np.int32)
        )

        c = self.c = ffi.new("sinan_plan *")
        c.n, c.n_types, c.n_ticks = n, n_types, n_ticks
        c.backpressure = bool(cfg.backpressure)
        c.jitter = cfg.capacity_jitter > 0
        c.n_pct = len(LATENCY_PERCENTILES)
        mult_lo, mult_hi = cfg.spike_mult_range
        dur_lo, dur_hi = cfg.spike_duration_range
        for field, value in (
            ("tick", cfg.tick), ("rate_cv", cfg.rate_cv),
            ("mod_sigma", engine._mod_sigma), ("mod_bias", engine._mod_bias),
            ("spike_prob", cfg.spike_prob), ("mult_lo", mult_lo),
            ("mult_hi", mult_hi), ("dur_lo", dur_lo), ("dur_hi", dur_hi),
            ("capacity_jitter", cfg.capacity_jitter),
            ("max_queue", cfg.max_queue), ("noise_sigma", cfg.noise_sigma),
            ("drop_latency", cfg.drop_latency),
            ("budget", cfg.max_latency_samples),
            ("lam_max", _ckernel.POISSON_LAM_MAX), ("eps", _EPS),
            ("max_sojourn", _MAX_SOJOURN),
        ):
            setattr(c, field, float(value))

        def offsets(sizes):
            return np.concatenate([[0], np.cumsum(sizes)]).astype(np.int32)

        # Each type's stage tiers, concatenated, and its stage sizes.
        stages = graph.stage_indices
        type_cols = [np.concatenate(s).astype(np.intp) for s in stages]
        stage_sizes = [[int(tiers.size) for tiers in s] for s in stages]
        # ``samples`` holds every type's share of the budget, at least 3
        # per type that arrived, and the one sample of an idle interval.
        max_samples = max(int(cfg.max_latency_samples), 0) + 4 * n_types + 1
        (self.cap_beh_rows, self.rep_rows, self.z_rows, self.arrival_rows,
         self.demand_rows, self.infl_rows, self.sojourn_rows) = np.empty(
            (7, n_ticks, n))
        self.counts_rows = np.empty((n_ticks, n_types))
        self.clock = np.empty(5)
        self.mod_rows = np.empty(n_ticks)
        self.type_counts = np.empty(n_types)
        self.k_per_type = np.empty(n_types, dtype=np.int64)
        self.p_drop = np.empty(n_types)
        (self.arrivals_total, self.completions_out, self.drops_out,
         self.cpu_used_out) = np.empty((4, n))
        self.samples = np.empty(max_samples)
        f8 = np.float64
        arrays = {
            # Constants: the percentiles, the engine's per-tier physics,
            # and the permuted layout with its CSR child lists.
            "pct_q": np.asarray(LATENCY_PERCENTILES, dtype=f8),
            "visit_T": engine._visit_T,
            "soft_thr": engine._soft_thr,
            "base_lat": engine._base_lat,
            "conc_per_core": engine._conc_per_core,
            "replicas": engine._replicas,
            "cpu_p": engine._cpu_per_req[self.perm],
            "base_p": engine._base_lat[self.perm],
            "perm": self.perm,
            "child_off": child_off,
            "child_idx": child_idx,
            # The tiers each type visits (its drop probability), and the
            # sampler's stage tables with every type's concatenated: type
            # r's permuted columns and base latencies at [col_off[r],
            # col_off[r + 1]), its stage sizes at [seg_off[r],
            # seg_off[r + 1]).
            "type_tier_off": offsets([t.size for t in engine._type_tiers]),
            "type_tiers": np.concatenate(engine._type_tiers),
            "sample_col_off": offsets([col.size for col in type_cols]),
            "sample_cols": self.inv[np.concatenate(type_cols)],
            "sample_base": engine._base_lat[np.concatenate(type_cols)],
            "sample_seg_off": offsets([len(sizes) for sizes in stage_sizes]),
            "sample_seg_size": np.asarray(
                [size for sizes in stage_sizes for size in sizes]),
            # Inputs the engine writes before a call, the kernel's
            # scratch, and the outputs the engine reads after it.
            "cap_beh_rows": self.cap_beh_rows,
            "rep_rows": self.rep_rows,
            "clock": self.clock,
            "mod_rows": self.mod_rows,
            "counts_rows": self.counts_rows,
            "z_rows": self.z_rows,
            "arrival_rows": self.arrival_rows,
            "demand_rows": self.demand_rows,
            "sat_rows": np.empty((n_ticks, n)),
            "infl_rows": self.infl_rows,
            "infl_p": np.empty((n_ticks, n)),
            "cap_p": np.empty((n_ticks, n)),
            "arr_p": np.empty((n_ticks, n)),
            "conc_p": np.empty((n_ticks, n)),
            "sojourn_rows": self.sojourn_rows,
            "tier_work": np.empty(12 * n),
            "p_drop": self.p_drop,
            "top": np.empty(max_samples),
            "samples": self.samples,
            "type_counts": self.type_counts,
            "arrivals_total": self.arrivals_total,
            "completions_total": self.completions_out,
            "drops_total": self.drops_out,
            "cpu_used": self.cpu_used_out,
            "k_per_type": self.k_per_type,
            "ticks": np.empty(max_samples, dtype=np.uint64),
        }
        dtypes = {"double": f8, "intptr_t": np.intp, "int": np.int32,
                  "int64_t": np.int64, "uint64_t": np.uint64}
        self._kernel_arrays = {}
        for field, array in arrays.items():
            ctype = ffi.typeof(getattr(c, field))
            array = np.ascontiguousarray(array, dtype=dtypes[ctype.item.cname])
            self._kernel_arrays[field] = array
            setattr(c, field, ffi.cast(ctype, array.ctypes.data))


__all__ = ["QueueingEngine", "EngineConfig", "validate_load"]
