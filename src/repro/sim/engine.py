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
"""

from __future__ import annotations

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

    def _validate_interval_args(
        self, allocs: np.ndarray, type_rates: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        graph = self.graph
        n = graph.n_tiers
        allocs = np.asarray(allocs, dtype=float)
        if allocs.shape != (n,):
            raise ValueError(f"allocs must have shape ({n},)")
        if np.any(allocs <= 0):
            raise ValueError("all CPU allocations must be positive")
        type_rates = np.asarray(type_rates, dtype=float)
        if type_rates.shape != (graph.n_types,):
            raise ValueError(f"type_rates must have shape ({graph.n_types},)")
        return allocs, type_rates

    def run_interval(
        self, allocs: np.ndarray, type_rates: np.ndarray
    ) -> IntervalStats:
        """Advance one 1 s decision interval under the given allocation.

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
        allocs, type_rates = self._validate_interval_args(allocs, type_rates)
        return self._run_interval_fast(allocs, type_rates)

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
        and :class:`IntervalStats` assembly.  The per-tick reference loop
        (``tests/oracles/engine.py``) shares it, so the trailing RNG
        draws and arithmetic are identical by construction."""
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
        self._intervals = self.__dict__.get("_intervals", 0) + 1
        recorder = self.__dict__.get("recorder")
        if recorder is not None and recorder.enabled:
            self._report_interval(recorder, stats)
        return stats

    # ------------------------------------------------------------------
    # Fast interval path
    # ------------------------------------------------------------------

    def _run_interval_fast(
        self, allocs: np.ndarray, type_rates: np.ndarray
    ) -> IntervalStats:
        """Batched-tick interval: bitwise-identical to the per-tick
        reference loop kept in ``tests/oracles/engine.py``.

        The interval's full RNG plan (AR(1)/burst modulation, Poisson
        counts, capacity-jitter normals) is drawn in a prepass that
        replicates the reference tick loop's exact consumption order;
        behavior multipliers are hoisted alongside (they are functions of
        simulated time only and never touch the engine RNG).  Everything
        without a tick-to-tick dependency is then computed as
        ``(n_ticks, n)`` arrays, and the sequential recurrences (queue,
        demand and busy EWMAs, the sojourn level sweep) run as a thin
        loop over level-sorted contiguous views with preallocated
        scratch.  The bitwise-equality argument relies only on IEEE-754
        identities (commutativity of +/*, ``x*1.0 == x``, ``x+0.0 == x``
        for the non-negative values here, elementwise ops equal their
        sliced counterparts) plus the engine producing finite values,
        which allocation validation guarantees.
        """
        graph = self.graph
        cfg = self.config
        n = graph.n_tiers
        rng = self._rng
        tick = cfg.tick
        n_ticks = max(int(round(1.0 / tick)), 1)
        plan = getattr(self, "_fast_plan", None)
        if plan is None or plan.n_ticks != n_ticks:
            plan = self._fast_plan = _FastPlan(self, n_ticks)

        # --- prepass: RNG plan + behaviors, reference consumption order.
        visit_T = self._visit_T
        counts_rows = plan.counts_rows
        demand_rows = plan.demand_rows
        arrival_rows = plan.arrival_rows
        draw_jitter = cfg.capacity_jitter > 0
        z_rows = plan.z_rows if draw_jitter else None
        has_behaviors = bool(self.behaviors)
        cap_beh_rows = plan.cap_beh_rows if has_behaviors else None
        rep_rows = plan.rep_rows if has_behaviors else None
        for t in range(n_ticks):
            # The reference tick's own vector Poisson call, verbatim.
            counts_rows[t] = rng.poisson(
                (type_rates * self._rate_modulation()) * tick
            )
            if has_behaviors:
                cap_beh_rows[t] = self._behavior_capacity(n)
                rep_rows[t] = self._behavior_replicas(n)
            if draw_jitter:
                z_rows[t] = rng.normal(0.0, 1.0, size=n)
            self.time += tick
        # Axis-0 add.reduce accumulates row by row, bitwise the same as
        # the reference's per-tick ``+=``.
        type_counts = np.add.reduce(counts_rows, 0)
        for t in range(n_ticks):
            np.matmul(visit_T, counts_rows[t], out=arrival_rows[t])
        arrivals_total = np.add.reduce(arrival_rows, 0)
        # demand = 0.8*demand + 0.2*(arrivals/tick), in place
        # (scalar multiplication commutes bitwise).
        demand = plan.demand_buf
        demand[:] = self._demand
        if plan.clib is not None:
            plan.clib.sinan_demand_ewma(
                n_ticks, n, tick, plan.ptr_arrival_rows,
                plan.ptr_demand_buf, plan.ptr_demand_rows,
            )
        else:
            dtmp = plan.demand_tmp
            for t in range(n_ticks):
                np.multiply(demand, 0.8, out=demand)
                np.divide(arrival_rows[t], tick, out=dtmp)
                np.multiply(dtmp, 0.2, out=dtmp)
                np.add(demand, dtmp, out=demand)
                demand_rows[t] = demand
        self._demand = demand.copy()

        # --- batched (n_ticks, n) precompute of tick-independent terms,
        # through plan scratch with direct ``out=`` ufuncs; np.clip with
        # both bounds is bitwise maximum-then-minimum.  Software
        # contention: service time inflates as demand nears the tier's
        # soft throughput limit (locks, GC; crashed replicas shrink it)
        # along a quartic knee, up to 12x.
        den = self._soft_thr * rep_rows if has_behaviors else self._soft_thr
        sat = plan.sat_rows
        np.divide(demand_rows, den, out=sat)
        np.maximum(sat, 0.0, out=sat)
        np.minimum(sat, 1.0, out=sat)
        infl = plan.infl_rows
        np.power(sat, 4, out=infl)
        np.subtract(1.0, infl, out=infl)
        np.maximum(infl, 1.0 / 12.0, out=infl)
        np.minimum(infl, 1.0, out=infl)
        np.divide(1.0, infl, out=infl)
        if draw_jitter:
            # Capacity is noisier near saturation (GC pauses, lock
            # convoys): sigma = capacity_jitter * (1 + 3*sat), then
            # jc = clip(1 + z*sigma, 0.3, 1.7); sat is dead after this.
            jc = sat
            np.multiply(sat, 3.0, out=jc)
            np.add(jc, 1.0, out=jc)
            np.multiply(jc, cfg.capacity_jitter, out=jc)
            np.multiply(z_rows, jc, out=jc)
            np.add(jc, 1.0, out=jc)
            np.maximum(jc, 0.3, out=jc)
            np.minimum(jc, 1.7, out=jc)
            cap_rows = cap_beh_rows * jc if has_behaviors else jc
        else:
            # Without jitter the reference multiplies by exactly 1.0 when
            # no behavior is installed — an IEEE identity, so skip it.
            cap_rows = cap_beh_rows
        unit_cap = cap_rows is None

        # Gather the permuted per-tick arrays into C-ordered plan buffers:
        # ``rows[:, perm]`` would return a Fortran-ordered array, which the
        # C kernel's row-major pointer walk must not see.
        perm = plan.perm
        infl_p = plan.infl_rows_p
        np.take(infl, perm, 1, infl_p)
        if unit_cap:
            cap_p = None
        else:
            cap_p = plan.cap_rows_p
            np.take(cap_rows, perm, 1, cap_p)
        arr_p = plan.arr_rows_p
        np.take(arrival_rows, perm, 1, arr_p)
        conc_const = (self._conc_per_core * allocs) * self._replicas
        if has_behaviors:
            conc_p = plan.conc_rows_p
            np.take(conc_const * rep_rows, perm, 1, conc_p)
        elif plan.clib is None:
            conc_p = np.broadcast_to(conc_const[perm], (n_ticks, n))
        else:
            conc_p = None  # kernel reads the permuted constant instead

        cpu_p = plan.cpu_p
        base_p = plan.base_p
        allocs_p = plan.allocs_p
        allocs.take(perm, None, allocs_p)
        mu_cpu_p = plan.mu_cpu_p
        np.divide(allocs_p, cpu_p, mu_cpu_p)
        fsm1_p = plan.fsm1_p
        np.minimum(allocs_p, 1.0, out=fsm1_p)
        np.divide(1.0, fsm1_p, fsm1_p)
        np.subtract(fsm1_p, 1.0, fsm1_p)
        alloc_tick_p = plan.alloc_tick_p
        np.multiply(allocs_p, tick, alloc_tick_p)
        backpressure = cfg.backpressure

        queue_p = plan.queue_p
        self.queue.take(perm, None, queue_p)
        be = plan.be
        self._busy_ewma.take(perm, None, be)
        cpu_used_p = plan.cpu_used
        cpu_used_p.fill(0.0)
        comp_total_p = plan.comp_total
        comp_total_p.fill(0.0)
        drops_total_p = plan.drops_total
        drops_total_p.fill(0.0)
        bf = plan.busy_frac
        sojourn_p = plan.sojourn_rows

        if plan.clib is not None:
            self._run_ticks_c(
                plan, n_ticks, unit_cap, conc_const, has_behaviors,
                backpressure,
            )
        else:
            self._run_ticks_numpy(
                plan, n_ticks, infl_p, cap_p, conc_p, unit_cap,
                backpressure, arr_p,
            )

        inv = plan.inv
        self.queue = queue_p.take(inv)
        self._busy_ewma = be.take(inv)
        self._busy_frac = bf.take(inv)
        drops_total = drops_total_p.take(inv)
        if plan.clib is not None:
            # The compiled sampler reads the permuted sojourn rows in
            # place; only the final tick's tier-ordered sojourn is needed
            # afterwards, so the full (n_ticks, n) un-permute is skipped.
            sojourn_ticks = None
            self._sojourn = sojourn_p[-1].take(inv)
        else:
            sojourn_ticks = sojourn_p[:, inv]
            self._sojourn = sojourn_ticks[-1]
        latency_samples = self._sample_latencies_fast(
            sojourn_ticks, type_counts, arrivals_total, drops_total, plan
        )
        percentiles = _fast_percentiles(latency_samples) * 1000.0
        return self._finish_interval(
            allocs, type_counts, arrivals_total, comp_total_p.take(inv),
            drops_total, cpu_used_p.take(inv), latency_samples, percentiles,
        )

    def _run_ticks_c(
        self,
        plan: _FastPlan,
        n_ticks: int,
        unit_cap: bool,
        conc_const: np.ndarray,
        has_behaviors: bool,
        backpressure: bool,
    ) -> None:
        """Run the tick recurrence through the compiled kernel.

        Reads the permuted per-tick inputs straight from the plan's
        persistent buffers (pointers cached at plan build) and mutates
        the same plan state as :meth:`_run_ticks_numpy` (queue, busy
        EWMA/fraction, accumulators, sojourn rows) with bitwise-identical
        values; see :mod:`repro.sim._ckernel` for the equality argument.
        """
        cfg = self.config
        null = plan.ffi.NULL
        if has_behaviors:
            conc_ptr = plan.ptr_conc_p
            conc_const_ptr = null
        else:
            conc_const.take(plan.perm, None, plan.conc_const_p)
            conc_ptr = null
            conc_const_ptr = plan.ptr_conc_const
        plan.clib.sinan_run_ticks(
            n_ticks,
            self.graph.n_tiers,
            plan.ptr_infl_p,
            null if unit_cap else plan.ptr_cap_p,
            conc_ptr,
            conc_const_ptr,
            plan.ptr_arr_p,
            plan.ptr_cpu,
            plan.ptr_base,
            plan.ptr_fsm1,
            plan.ptr_mu_cpu,
            plan.ptr_alloc_tick,
            plan.ptr_child_off,
            plan.ptr_child_idx,
            1 if backpressure else 0,
            cfg.tick,
            cfg.max_queue,
            _EPS,
            _MAX_SOJOURN,
            plan.ptr_queue,
            plan.ptr_be,
            plan.ptr_bf,
            plan.ptr_cpu_used,
            plan.ptr_comp_total,
            plan.ptr_drops,
            plan.ptr_sojourn,
        )

    def _run_ticks_numpy(
        self,
        plan: _FastPlan,
        n_ticks: int,
        infl_p: np.ndarray,
        cap_p: np.ndarray | None,
        conc_p: np.ndarray,
        unit_cap: bool,
        backpressure: bool,
        arr_p: np.ndarray,
    ) -> None:
        """Vectorized tick recurrence (fallback when no C kernel).

        Direct ufunc/method calls (``np.maximum.reduce``,
        ``ndarray.take``) with preallocated outputs throughout: they
        skip numpy's fromnumeric dispatch layer, which dominates
        runtime at a few dozen tiers.
        """
        cfg = self.config
        tick = cfg.tick
        max_queue = cfg.max_queue
        eps = _EPS
        maxr = np.maximum.reduce
        cpu_p = plan.cpu_p
        base_p = plan.base_p
        fsm1_p = plan.fsm1_p
        mu_cpu_p = plan.mu_cpu_p
        alloc_tick_p = plan.alloc_tick_p
        queue_p = plan.queue_p
        be = plan.be
        cpu_used_p = plan.cpu_used
        comp_total_p = plan.comp_total
        drops_total_p = plan.drops_total
        soj = plan.soj
        soj_n = plan.soj_n
        mu = plan.mu
        stretch, st, sb = plan.stretch, plan.st, plan.sb
        rho, stoch, tmp = plan.rho, plan.stoch, plan.tmp
        capb, comp = plan.capacity, plan.completions
        tu, bf = plan.tick_used, plan.busy_frac
        sojourn_p = plan.sojourn_rows

        for t in range(n_ticks):
            infl_t = infl_p[t]
            conc_t = conc_p[t]
            cap_t = None if unit_cap else cap_p[t]
            # Sub-core CFS quotas stretch service only as far as the quota
            # is contended (busy EWMA), and waiting grows M/M/1-like with
            # utilization (rho capped at 0.9):
            # stretch = 1 + (full_stretch-1)*ewma; service = cpu*stretch*infl
            np.multiply(fsm1_p, be, stretch)
            np.add(stretch, 1.0, stretch)
            np.multiply(cpu_p, stretch, st)
            np.multiply(st, infl_t, st)
            np.add(st, base_p, sb)
            np.minimum(be, 0.9, out=rho)
            np.multiply(st, rho, stoch)
            np.subtract(1.0, rho, tmp)
            np.divide(stoch, tmp, stoch)

            for lv in plan.levels:
                if lv[0] == "v":
                    # Vector levels compute directly into their slices of
                    # ``mu`` and ``soj`` (pre-built views): the same
                    # values as staging through scratch, minus the copy.
                    (_, sl, child_idx, cw, vsb, vstoch, vmucpu, vqueue,
                     vmu, vsoj) = lv
                    if child_idx is not None and backpressure:
                        soj.take(child_idx, None, cw)
                        maxr(cw, 1, None, vmu)
                        np.add(vsb, vmu, vmu)
                        np.maximum(vmu, eps, out=vmu)
                    else:
                        np.maximum(vsb, eps, out=vmu)
                    np.divide(conc_t[sl], vmu, vmu)
                    np.minimum(vmucpu, vmu, out=vmu)
                    if cap_t is not None:
                        np.multiply(vmu, cap_t[sl], vmu)
                    np.maximum(vmu, eps, out=vmu)
                    np.divide(vqueue, vmu, vsoj)
                    np.add(vsb, vsoj, vsoj)
                    np.add(vsoj, vstoch, vsoj)
                    np.minimum(vsoj, _MAX_SOJOURN, out=vsoj)
                else:
                    # Single-member level: scalar float64 arithmetic, IEEE-
                    # identical to the size-1 numpy ops of the reference
                    # for the finite, non-NaN values the engine produces.
                    _, p, children = lv
                    d = 0.0
                    if backpressure:
                        for c in children:
                            v = soj[c]
                            if v > d:
                                d = v
                    h = sb[p] + d
                    if not h > eps:
                        h = eps
                    m_l = conc_t[p] / h
                    mc = mu_cpu_p[p]
                    if mc < m_l:
                        m_l = mc
                    if cap_t is not None:
                        m_l = m_l * cap_t[p]
                    if not m_l > eps:
                        m_l = eps
                    mu[p] = m_l
                    x = sb[p] + queue_p[p] / m_l + stoch[p]
                    if x > _MAX_SOJOURN:
                        x = _MAX_SOJOURN
                    soj[p] = x

            np.multiply(mu, tick, capb)
            np.add(queue_p, arr_p[t], tmp)
            np.minimum(tmp, capb, out=comp)
            np.subtract(tmp, comp, queue_p)
            if maxr(queue_p) > max_queue:
                np.subtract(queue_p, max_queue, capb)
                np.maximum(capb, 0.0, out=capb)
                np.add(drops_total_p, capb, drops_total_p)
                np.subtract(queue_p, capb, queue_p)
            np.multiply(comp, cpu_p, tu)
            np.minimum(tu, alloc_tick_p, out=tu)
            np.divide(tu, alloc_tick_p, bf)
            # min(tu, alloc_tick)/alloc_tick lands in [0, 1] exactly (IEEE
            # division is monotone and x/x == 1.0), so the reference's
            # clip of the busy fraction is an identity; skipped.
            np.multiply(be, 0.85, be)
            np.multiply(bf, 0.15, tmp)
            np.add(be, tmp, be)
            np.add(cpu_used_p, tu, cpu_used_p)
            np.add(comp_total_p, comp, comp_total_p)
            sojourn_p[t] = soj_n

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

    # ------------------------------------------------------------------
    # Latency synthesis
    # ------------------------------------------------------------------

    def _sample_latencies_fast(
        self,
        sojourn_ticks: np.ndarray,
        type_counts: np.ndarray,
        arrivals_total: np.ndarray,
        drops_total: np.ndarray,
        plan: _FastPlan,
    ) -> np.ndarray:
        """End-to-end latency samples for this interval, batched per
        request type.

        A request's latency is the sum over its stages of the maximum
        noisy tier sojourn within each stage, at a random tick.  Consumes
        the reference sampler's RNG sequence (per-type tick draws, one
        flat lognormal draw whose stage blocks match the reference's
        successive per-stage draws, the conditional drop coin-flips) and
        computes the same per-stage maxima over the same elements, so the
        samples are bitwise equal to the reference sampler's.  The stage
        pass runs in the compiled kernel when available and otherwise in
        :meth:`_sample_type_numpy`.
        """
        cfg = self.config
        rng = self._rng
        n_ticks = plan.n_ticks

        total = type_counts.sum()
        if total <= 0:
            return np.array([self._base_lat.max()])

        budget = cfg.max_latency_samples
        weights = type_counts / total
        samples_per_type = np.maximum(
            (weights * budget).astype(int), (type_counts > 0).astype(int) * 3
        )
        sigma = cfg.noise_sigma
        mu_ln = -0.5 * sigma * sigma
        drop_latency = cfg.drop_latency
        # With zero drops every per-type p_drop is exactly 0.0 and the
        # reference draws no drop coin-flips, so the whole block can be
        # skipped without touching the bitstream.
        any_drops = bool(np.maximum.reduce(drops_total) > 0.0)
        if any_drops:
            drop_frac = drops_total / np.maximum(arrivals_total, _EPS)

        use_c = plan.clib is not None
        n = self.graph.n_tiers
        out = np.empty(int(samples_per_type.sum()))
        pos = 0
        for r, k in enumerate(samples_per_type):
            if k <= 0:
                continue
            k = int(k)
            ticks = rng.integers(0, n_ticks, size=k)
            cols = plan.type_cols[r]
            # One lognormal draw covers every stage: successive size-m
            # draws and one size-sum draw consume the bitstream element
            # for element identically, so the reference's per-stage
            # (k, s) blocks are contiguous row-major runs of ``flat``.
            flat = rng.lognormal(mu_ln, sigma, size=k * cols.size)
            if use_c:
                # Stage gathers, noise application, and stage maxima in
                # one compiled pass over the permuted sojourn rows,
                # writing straight into the output slice.
                ffi = plan.ffi
                cols_ptr, base_ptr, off_ptr, size_ptr, n_segs = (
                    plan.type_cptrs[r]
                )
                plan.clib.sinan_sample_stages(
                    k, n, n_segs,
                    plan.ptr_sojourn,
                    ffi.cast("long long *", ticks.ctypes.data),
                    cols_ptr, base_ptr,
                    ffi.cast("double *", flat.ctypes.data),
                    off_ptr, size_ptr,
                    ffi.cast("double *", out.ctypes.data + pos * 8),
                )
                latency = out[pos:pos + k]
            else:
                latency = self._sample_type_numpy(
                    sojourn_ticks, ticks, flat, plan, r, k
                )
            if any_drops:
                # multiply.reduce/minimum/maximum are the reference's
                # np.prod/np.clip minus the dispatch wrappers.
                frac = drop_frac[self._type_tiers[r]]
                p_drop = 1.0 - np.multiply.reduce(
                    1.0 - np.minimum(np.maximum(frac, 0), 1)
                )
                if p_drop > 0:
                    dropped = rng.random(k) < p_drop
                    latency[dropped] = drop_latency
            np.minimum(latency, drop_latency, out=out[pos:pos + k])
            pos += k
        return out

    def _sample_type_numpy(
        self,
        sojourn_ticks: np.ndarray,
        ticks: np.ndarray,
        flat: np.ndarray,
        plan: _FastPlan,
        r: int,
        k: int,
    ) -> np.ndarray:
        """Numpy stage pass of the fast sampler (no compiled kernel).

        One advanced-index gather covers all of the type's stage columns;
        the per-stage lognormal blocks are unpacked from ``flat`` and the
        stage maxima reduced in stage order — the same reductions over
        the same elements as the reference's per-stage loop.
        """
        cols = plan.type_cols[r]
        base = plan.type_base[r]
        segs = plan.type_segs[r]
        g = sojourn_ticks[ticks[:, None], cols[None, :]]
        noise = np.empty_like(g)
        off = 0
        for o, s in segs:
            noise[:, o:o + s] = flat[off:off + k * s].reshape(k, s)
            off += k * s
        # base + (soj - base)*noise, elementwise over the concatenated
        # stage columns (addition commutes bitwise).
        np.subtract(g, base, g)
        np.multiply(g, noise, g)
        np.add(g, base, g)
        # Stage maxima in stage order; single-tier stages are their
        # own maximum and skip the reduction entirely.
        o, s = segs[0]
        if s == 1:
            latency = g[:, 0].copy()
        else:
            latency = np.maximum.reduce(g[:, :s], axis=1)
        for o, s in segs[1:]:
            if s == 1:
                np.add(latency, g[:, o], out=latency)
            else:
                np.add(
                    latency,
                    np.maximum.reduce(g[:, o:o + s], axis=1),
                    out=latency,
                )
        return latency


class _FastPlan:
    """Level-sorted tier layout and scratch buffers for the fast path.

    Tiers are permuted so each dependency level occupies one contiguous
    slice (cheap views instead of per-level fancy indexing in the hot
    loop).  Child matrices are rewritten into permuted indices, with
    padding slots pointing at a trailing sentinel element of the sojourn
    buffer that is pinned to 0.0 — reproducing the reference's
    ``np.where(mask, child_w, 0.0)`` without a mask.  Single-member
    levels are lowered to scalar arithmetic.  All interval-shaped
    scratch is allocated once per engine and reused.
    """

    def __init__(self, engine: QueueingEngine, n_ticks: int) -> None:
        n = engine.graph.n_tiers
        self.n_ticks = n_ticks
        order: list[int] = []
        for members, _, _ in engine._levels:
            order.extend(int(i) for i in members)
        self.perm = np.asarray(order, dtype=np.intp)
        self.inv = np.empty(n, dtype=np.intp)
        self.inv[self.perm] = np.arange(n, dtype=np.intp)

        self.cpu_p = engine._cpu_per_req[self.perm]
        self.base_p = engine._base_lat[self.perm]

        self.demand_rows = np.empty((n_ticks, n))
        self.arrival_rows = np.empty((n_ticks, n))
        self.z_rows = np.empty((n_ticks, n))
        self.cap_beh_rows = np.empty((n_ticks, n))
        self.rep_rows = np.empty((n_ticks, n))
        self.sojourn_rows = np.empty((n_ticks, n))
        (self.infl_rows_p, self.cap_rows_p, self.arr_rows_p,
         self.conc_rows_p, self.sat_rows, self.infl_rows) = (
            np.empty((n_ticks, n)) for _ in range(6))
        self.counts_rows = np.empty((n_ticks, engine.graph.n_types))
        self.soj = np.zeros(n + 1)
        self.soj_n = self.soj[:n]
        self.mu = np.empty(n)
        (self.stretch, self.st, self.sb, self.rho, self.stoch, self.tmp,
         self.capacity, self.completions, self.tick_used,
         self.busy_frac) = (np.empty(n) for _ in range(10))
        (self.allocs_p, self.mu_cpu_p, self.fsm1_p, self.alloc_tick_p,
         self.queue_p, self.be, self.cpu_used, self.comp_total,
         self.drops_total, self.conc_const_p, self.demand_buf,
         self.demand_tmp) = (np.empty(n) for _ in range(12))

        self.levels: list[tuple] = []
        start = 0
        for members, child_matrix, mask in engine._levels:
            m = int(members.size)
            if mask.any():
                child_idx = np.where(mask, self.inv[child_matrix], n)
            else:
                child_idx = None
            if m == 1:
                children = ()
                if child_idx is not None:
                    children = tuple(int(c) for c in child_idx[0] if c < n)
                self.levels.append(("s", start, children))
            else:
                sl = slice(start, start + m)
                cw = None if child_idx is None else np.empty(child_idx.shape)
                # Pre-built views into the persistent buffers: the hot
                # loop then never slices per level.
                self.levels.append(
                    ("v", sl, child_idx, cw, self.sb[sl], self.stoch[sl],
                     self.mu_cpu_p[sl], self.queue_p[sl], self.mu[sl],
                     self.soj[sl])
                )
            start += m

        # Per-type sampler plan: each type's stage index arrays are
        # concatenated so one gather (and one flat lognormal draw) covers
        # every stage; ``type_segs`` records each stage's (offset, size)
        # within the concatenation for the per-stage maxima.
        base_lat = engine._base_lat
        self.type_cols: list[np.ndarray] = []
        self.type_base: list[np.ndarray] = []
        self.type_segs: list[list[tuple[int, int]]] = []
        self.type_cols_p: list[np.ndarray] = []
        self.type_seg_off: list[np.ndarray] = []
        self.type_seg_size: list[np.ndarray] = []
        for stages in engine.graph.stage_indices:
            cols = np.concatenate(
                [np.asarray(s, dtype=np.intp) for s in stages]
            )
            segs: list[tuple[int, int]] = []
            off = 0
            for s in stages:
                segs.append((off, int(s.size)))
                off += int(s.size)
            self.type_cols.append(cols)
            self.type_base.append(base_lat[cols])
            self.type_segs.append(segs)
            self.type_cols_p.append(self.inv[cols].astype(np.int64))
            self.type_seg_off.append(
                np.asarray([o for o, _ in segs], dtype=np.int32)
            )
            self.type_seg_size.append(
                np.asarray([s for _, s in segs], dtype=np.int32)
            )

        # CSR child lists in permuted index space for the C kernel: row i
        # (permuted order) holds children at child_idx[child_off[i] :
        # child_off[i + 1]].  Permuted order makes i = 0..n-1 a valid
        # level sweep (children always at lower indices).
        child_off = np.zeros(n + 1, dtype=np.int32)
        kids: list[int] = []
        row = 0
        for members, child_matrix, mask in engine._levels:
            for j in range(int(members.size)):
                if mask[j].any():
                    kids.extend(
                        int(self.inv[c]) for c in child_matrix[j][mask[j]]
                    )
                row += 1
                child_off[row] = len(kids)
        self.child_off = child_off
        self.child_idx = (
            np.asarray(kids, dtype=np.int32)
            if kids
            else np.zeros(1, dtype=np.int32)
        )

        kern = _ckernel.load_kernel()
        if kern is None:
            self.ffi = None
            self.clib = None
        else:
            self.ffi, self.clib = kern

            def dptr(a: np.ndarray):
                return self.ffi.cast("double *", a.ctypes.data)

            self.ptr_cpu = dptr(self.cpu_p)
            self.ptr_base = dptr(self.base_p)
            self.ptr_fsm1 = dptr(self.fsm1_p)
            self.ptr_mu_cpu = dptr(self.mu_cpu_p)
            self.ptr_alloc_tick = dptr(self.alloc_tick_p)
            self.ptr_queue = dptr(self.queue_p)
            self.ptr_be = dptr(self.be)
            self.ptr_bf = dptr(self.busy_frac)
            self.ptr_cpu_used = dptr(self.cpu_used)
            self.ptr_comp_total = dptr(self.comp_total)
            self.ptr_drops = dptr(self.drops_total)
            self.ptr_sojourn = dptr(self.sojourn_rows)
            self.ptr_arrival_rows = dptr(self.arrival_rows)
            self.ptr_demand_buf = dptr(self.demand_buf)
            self.ptr_demand_rows = dptr(self.demand_rows)
            self.ptr_infl_p = dptr(self.infl_rows_p)
            self.ptr_cap_p = dptr(self.cap_rows_p)
            self.ptr_arr_p = dptr(self.arr_rows_p)
            self.ptr_conc_p = dptr(self.conc_rows_p)
            self.ptr_conc_const = dptr(self.conc_const_p)
            self.ptr_child_off = self.ffi.cast(
                "int *", self.child_off.ctypes.data
            )
            self.ptr_child_idx = self.ffi.cast(
                "int *", self.child_idx.ctypes.data
            )
            self.type_cptrs = [
                (
                    self.ffi.cast("long long *", cp.ctypes.data),
                    dptr(b),
                    self.ffi.cast("int *", so.ctypes.data),
                    self.ffi.cast("int *", ss.ctypes.data),
                    len(ss),
                )
                for cp, b, so, ss in zip(
                    self.type_cols_p, self.type_base,
                    self.type_seg_off, self.type_seg_size,
                )
            ]


def _fast_percentiles(values: np.ndarray) -> np.ndarray:
    """``np.percentile(values, LATENCY_PERCENTILES)``, bitwise.

    One explicit sort plus numpy's linear-interpolation formula,
    including its ``gamma >= 0.5`` rewrite (``b - diff*(1-gamma)``) —
    several times faster than ``np.percentile`` at the engine's sample
    sizes because the quantile machinery (axis handling, per-quantile
    partitions) is skipped.
    """
    a = np.sort(values)
    last = a.size - 1
    out = np.empty(len(LATENCY_PERCENTILES))
    for j, q in enumerate(LATENCY_PERCENTILES):
        vi = q / 100 * last
        lo = int(vi)
        hi = lo + 1 if lo < last else last
        t = vi - lo
        x = a[lo]
        diff = a[hi] - x
        r = x + diff * t
        if t >= 0.5:
            r = a[hi] - diff * (1.0 - t)
        out[j] = r
    return out


__all__ = ["QueueingEngine", "EngineConfig"]
