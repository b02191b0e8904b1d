"""Per-request discrete-event simulator (validation substrate).

The main engine (:mod:`repro.sim.engine`) is a fluid queueing model —
fast enough to generate tens of thousands of training intervals on one
core.  This module provides an independent, per-request discrete-event
simulation of the same tier specifications: every request is an object
that traverses its stage DAG, queues FCFS at each tier, and occupies a
server for its sampled service time.

It exists to *validate* the fluid engine: under matched scenarios the
two must agree on the qualitative physics (who violates, how queues
grow, how latency scales with allocation), which
``benchmarks/test_validation_event_engine.py`` checks.  It is 1-2
orders of magnitude slower, so the training pipeline never uses it.

Model per tier:

* ``servers = ceil(alloc)`` FCFS servers, each running at
  ``alloc / ceil(alloc)`` cores (a sub-core limit slows the single
  server; 2.5 cores are three servers at 0.83 speed),
* service time per visit = ``cpu_per_req * work / speed`` with
  lognormal noise, plus the tier's base latency,
* a finite queue; arrivals beyond it are dropped and booked at the
  client-timeout latency.

Stages of a request run sequentially; tiers within a stage in parallel
(the request advances when the slowest parallel visit finishes), the
same composition rule the fluid engine uses.

The simulation is one loop over a ``(when, seq, kind, payload)`` event
heap: arrivals are pre-drawn per request type, each completion frees a
server or starts the tier's next queued visit, and the ``seq`` counter
breaks time ties in push order.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.sim.engine import validate_load
from repro.sim.graph import AppGraph
from repro.sim.telemetry import LATENCY_PERCENTILES


@dataclass(frozen=True)
class EventEngineConfig:
    """Physics knobs; mirrors the fluid engine's defaults."""

    noise_sigma: float = 0.22
    max_queue: int = 4000
    drop_latency: float = 5.0
    service_mult: float = 1.0
    base_lat_mult: float = 1.0


@dataclass
class _Request:
    rtype: int
    arrival: float
    stage: int = 0
    pending: int = 0
    dropped: bool = False


@dataclass
class _Visit:
    request: _Request
    work: float


class _TierServer:
    """One tier's FCFS multi-server station: its allocation, counters,
    object queue and per-visit service sampling."""

    def __init__(self, spec, config: EventEngineConfig) -> None:
        self.spec = spec
        self.config = config
        self.busy = 0
        self.set_alloc(spec.min_cpu)
        self.completed_work = 0.0
        self.queue: deque[_Visit] = deque()

    def set_alloc(self, alloc: float) -> None:
        self.alloc = float(alloc)
        self.servers = max(int(math.ceil(alloc)), 1)
        self.speed = alloc / self.servers

    def service_time(self, work: float, rng: np.random.Generator) -> float:
        cfg = self.config
        mean = self.spec.cpu_per_req * cfg.service_mult * work / self.speed
        sigma = cfg.noise_sigma
        noise = rng.lognormal(-0.5 * sigma * sigma, sigma)
        return mean * noise + self.spec.base_latency * cfg.base_lat_mult


class EventDrivenEngine:
    """Discrete-event simulation of one application deployment.

    Parameters mirror :class:`~repro.sim.engine.QueueingEngine`; the
    entry point is :meth:`run`, which simulates a constant offered load
    for a duration and returns per-interval latency percentiles.
    """

    def __init__(
        self,
        graph: AppGraph,
        config: EventEngineConfig | None = None,
        seed: int = 0,
    ) -> None:
        self.graph = graph
        self.config = config or EventEngineConfig()
        self._rng = np.random.default_rng(seed)
        self.tiers = [_TierServer(spec, self.config) for spec in graph.tiers]
        self._events: list[tuple[float, int, str, object]] = []
        self._seq = 0
        self.time = 0.0
        self.latencies: list[tuple[float, float]] = []
        self.dropped = 0

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------

    def _push(self, when: float, kind: str, payload) -> None:
        self._seq += 1
        heapq.heappush(self._events, (when, self._seq, kind, payload))

    def _start_or_queue(self, tier_idx: int, visit: _Visit) -> None:
        tier = self.tiers[tier_idx]
        if tier.busy < tier.servers:
            tier.busy += 1
            svc = tier.service_time(visit.work, self._rng)
            self._push(self.time + svc, "done", (tier_idx, visit))
        elif len(tier.queue) < self.config.max_queue:
            tier.queue.append(visit)
        else:
            visit.request.dropped = True
            self.dropped += 1
            self._finish(visit.request, timeout=True)

    def _dispatch_stage(self, request: _Request) -> None:
        stages = self.graph.stage_indices[request.rtype]
        if request.stage >= len(stages):
            self._finish(request)
            return
        rtype = self.graph.request_types[request.rtype]
        tier_ids = stages[request.stage]
        request.pending = len(tier_ids)
        for tier_idx in tier_ids:
            work = rtype.work.get(self.graph.tier_names[tier_idx], 1.0)
            self._start_or_queue(tier_idx, _Visit(request, work))

    def _finish(self, request: _Request, timeout: bool = False) -> None:
        if getattr(request, "_finished", False):
            return
        request._finished = True
        latency = (
            self.config.drop_latency if timeout else self.time - request.arrival
        )
        self.latencies.append((self.time, min(latency, self.config.drop_latency)))

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def run(
        self,
        allocs: np.ndarray,
        type_rates: np.ndarray,
        duration: float,
    ) -> dict:
        """Simulate ``duration`` seconds at a constant offered load.

        Returns a summary with the pooled latency percentiles, the
        per-1s-interval p99 series, drop count, and per-tier mean
        utilization.  The load is refused, before any draw, unless every
        allocation is finite and positive, every rate finite and
        non-negative and the duration finite and positive.
        """
        allocs, type_rates = validate_load(self.graph, allocs, type_rates)
        if not (math.isfinite(duration) and duration > 0):
            raise ValueError("duration must be finite and positive")
        for tier, alloc in zip(self.tiers, allocs):
            tier.set_alloc(alloc)
        # Window this run's summary: queues and in-flight requests carry
        # over between runs, but completions and drops booked by earlier
        # runs must not pollute this run's percentiles.
        lat_start = len(self.latencies)
        dropped_start = self.dropped

        # Pre-generate Poisson arrivals per type.
        horizon = self.time + duration
        for rtype in range(self.graph.n_types):
            rate = type_rates[rtype]
            if rate <= 0:
                continue
            t = self.time
            while True:
                t += self._rng.exponential(1.0 / rate)
                if t >= horizon:
                    break
                self._push(t, "arrive", rtype)

        busy_integral = np.zeros(self.graph.n_tiers)
        last_t = self.time
        while self._events and self._events[0][0] < horizon:
            when, _, kind, payload = heapq.heappop(self._events)
            busy_integral += (when - last_t) * np.array(
                [t.busy * t.speed for t in self.tiers]
            )
            last_t = when
            self.time = when
            if kind == "arrive":
                request = _Request(rtype=payload, arrival=when)
                self._dispatch_stage(request)
            else:  # service completion
                tier_idx, visit = payload
                tier = self.tiers[tier_idx]
                tier.completed_work += visit.work
                if tier.queue:
                    nxt = tier.queue.popleft()
                    svc = tier.service_time(nxt.work, self._rng)
                    self._push(when + svc, "done", (tier_idx, nxt))
                else:
                    tier.busy -= 1
                request = visit.request
                if request.dropped:
                    continue
                request.pending -= 1
                if request.pending == 0:
                    request.stage += 1
                    self._dispatch_stage(request)
        # Tail segment: servers busy between the last in-horizon event and
        # the horizon itself still accrue busy time.  Dropping it
        # under-counts utilization for every run whose servers are busy at
        # the boundary (most loaded runs).
        busy_integral += (horizon - last_t) * np.array(
            [t.busy * t.speed for t in self.tiers]
        )
        self.time = horizon

        return self._summary(
            duration, busy_integral, allocs, lat_start, dropped_start
        )

    def _summary(
        self, duration, busy_integral, allocs, lat_start, dropped_start,
    ) -> dict:
        lat = self.latencies[lat_start:]
        if lat:
            times = np.array([t for t, _ in lat])
            values = np.array([v for _, v in lat]) * 1000.0
            percentiles = np.percentile(values, LATENCY_PERCENTILES)
        else:
            times = np.empty(0)
            values = np.empty(0)
            percentiles = np.zeros(len(LATENCY_PERCENTILES))
        start = self.time - duration
        # Completions are appended in event order, so ``times`` is
        # sorted: each 1 s bucket is a contiguous slice found with two
        # binary searches instead of an O(completions) mask per second.
        n_sec = int(duration)
        lows = start + np.arange(n_sec)
        highs = lows + 1.0
        lo = np.searchsorted(times, lows, side="left")
        hi = np.searchsorted(times, highs, side="left")
        p99_series = []
        for second in range(n_sec):
            chunk = values[lo[second]:hi[second]]
            if chunk.size:
                p99_series.append(float(np.percentile(chunk, 99)))
            else:
                # No completions this second: unknown, not "0 ms" — a
                # literal zero would drag any series aggregate toward an
                # impossibly good tail latency.
                p99_series.append(float("nan"))
        utilization = busy_integral / np.maximum(allocs * duration, 1e-9)
        return {
            "latency_ms": percentiles,
            "p99_ms": float(percentiles[LATENCY_PERCENTILES.index(99)]),
            "p99_series_ms": np.array(p99_series),
            "n_requests": len(lat),
            "dropped": self.dropped - dropped_start,
            "cpu_util": np.clip(utilization, 0.0, 1.0),
            "queued": np.array([len(t.queue) for t in self.tiers]),
        }


__all__ = ["EventDrivenEngine", "EventEngineConfig"]
