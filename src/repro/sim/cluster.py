"""Cluster-level simulation: engine + workload + telemetry, per platform.

:class:`ClusterSimulator` is the substrate every resource manager runs
against.  It owns one application deployment (the queueing engine), an
open-loop workload, and a telemetry log, and exposes the paper's control
interface: once per 1 s decision interval the manager reads the latest
telemetry and writes per-tier CPU limits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.behaviors import Behavior
from repro.sim.engine import EngineConfig, QueueingEngine
from repro.sim.faults import FaultInjector
from repro.sim.graph import AppGraph
from repro.sim.telemetry import IntervalStats, TelemetryLog
from repro.workload.generator import Workload


@dataclass(frozen=True)
class PlatformSpec:
    """Deployment platform characteristics.

    The paper deploys on a dedicated local cluster and on ~100 container
    instances on Google Compute Engine; GCE is modelled as somewhat
    slower per request and noticeably noisier (shared-tenancy jitter),
    which is what forces the fine-tuning step of paper Section 5.4.
    """

    name: str
    service_mult: float = 1.0
    base_lat_mult: float = 1.0
    noise_sigma: float = 0.22
    capacity_jitter: float = 0.05
    replica_factor: int = 1
    total_cpu: float = 320.0
    """Cluster-wide CPU capacity (cores); the local testbed in the paper
    has four 80-core servers."""


LOCAL_PLATFORM = PlatformSpec(name="local")
GCE_PLATFORM = PlatformSpec(
    name="gce",
    service_mult=1.18,
    base_lat_mult=1.25,
    noise_sigma=0.33,
    capacity_jitter=0.09,
    replica_factor=3,
    total_cpu=400.0,
)


class ClusterSimulator:
    """One application deployment under open-loop load.

    Parameters
    ----------
    graph:
        The application to deploy.
    workload:
        Offered load over time (see :mod:`repro.workload`).
    platform:
        Platform physics (local cluster vs. GCE).
    seed:
        Random seed for this episode.
    behaviors:
        Optional injected pathologies.
    initial_alloc:
        Starting per-tier CPU limits; defaults to a generous half of each
        tier's ceiling, as an operator would over-provision at deploy time.
    faults:
        Optional :class:`~repro.sim.faults.FaultInjector`; adds the
        profile's physics faults to the engine and splits the telemetry
        into ground truth (:attr:`telemetry`) and the manager's possibly
        corrupted view (:attr:`observed`).
    """

    def __init__(
        self,
        graph: AppGraph,
        workload: Workload,
        platform: PlatformSpec = LOCAL_PLATFORM,
        seed: int = 0,
        behaviors: tuple[Behavior, ...] = (),
        initial_alloc: np.ndarray | None = None,
        engine_config: EngineConfig | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        if workload.graph is not graph and workload.graph.name != graph.name:
            raise ValueError("workload was built for a different application")
        if platform.replica_factor > 1:
            graph = graph.map_tiers(
                lambda t: t.with_replicas(t.replicas * platform.replica_factor)
            )
        if faults is not None and faults.n_tiers != graph.n_tiers:
            raise ValueError(
                f"fault injector was built for {faults.n_tiers} tiers, "
                f"application has {graph.n_tiers}"
            )
        self.graph = graph
        self.platform = platform
        self.faults = faults
        self.workload = (
            workload if workload.graph is graph else workload_rebind(workload, graph)
        )
        config = engine_config or EngineConfig(
            service_mult=platform.service_mult,
            base_lat_mult=platform.base_lat_mult,
            noise_sigma=platform.noise_sigma,
            capacity_jitter=platform.capacity_jitter,
        )
        if faults is not None:
            behaviors = tuple(behaviors) + faults.behaviors()
        self.engine = QueueingEngine(graph, config, seed=seed, behaviors=behaviors)
        self.telemetry = TelemetryLog()
        self.observed = self.telemetry if faults is None else TelemetryLog()
        self._min_alloc = graph.min_alloc()
        self._max_alloc = graph.max_alloc()
        if initial_alloc is None:
            # Operators deploy over-provisioned and let the manager
            # reclaim; starting near the ceiling avoids a cold-start
            # collapse at high load before the manager has reacted.
            initial_alloc = self._max_alloc * 0.6
        self.current_alloc = self.clip_alloc(np.asarray(initial_alloc, dtype=float))
        self._initial_alloc = self.current_alloc.copy()

    # ------------------------------------------------------------------
    # Control interface
    # ------------------------------------------------------------------

    @property
    def time(self) -> float:
        return self.engine.time

    @property
    def tier_names(self) -> list[str]:
        return self.graph.tier_names

    @property
    def n_tiers(self) -> int:
        return self.graph.n_tiers

    @property
    def min_alloc(self) -> np.ndarray:
        return self._min_alloc.copy()

    @property
    def max_alloc(self) -> np.ndarray:
        return self._max_alloc.copy()

    def clip_alloc(self, allocs: np.ndarray) -> np.ndarray:
        """Clamp an allocation vector to per-tier and cluster limits."""
        allocs = np.clip(allocs, self._min_alloc, self._max_alloc)
        total = allocs.sum()
        if total > self.platform.total_cpu:
            # Scale back proportionally above each tier's floor: the
            # cluster cannot hand out more cores than it has.
            slack = allocs - self._min_alloc
            budget = self.platform.total_cpu - self._min_alloc.sum()
            if budget <= 0:
                return self._min_alloc.copy()
            allocs = self._min_alloc + slack * (budget / slack.sum())
        return allocs

    def step(self, allocs: np.ndarray | dict[str, float] | None = None) -> IntervalStats:
        """Advance one 1 s decision interval.

        Parameters
        ----------
        allocs:
            New per-tier CPU limits, as a vector aligned with
            :attr:`tier_names` or a (possibly partial) name->cores dict;
            ``None`` keeps the current allocation.
        """
        if allocs is not None:
            if isinstance(allocs, dict):
                vector = self.current_alloc.copy()
                for name, cores in allocs.items():
                    vector[self.graph.index[name]] = cores
                allocs = vector
            self.current_alloc = self.clip_alloc(np.asarray(allocs, dtype=float))
        rates = self.workload.rates(self.time)
        if self.faults is not None:
            rates = rates * self.faults.load_multiplier(self.time)
        stats = self.engine.run_interval(self.current_alloc, rates)
        self.telemetry.append(stats)
        if self.faults is not None:
            observed = self.faults.observe(stats)
            if observed is not None:
                self.observed.append(observed)
            recorder = self.__dict__.get("recorder")
            if recorder is not None and recorder.enabled:
                recorder.counter("faults_observed_intervals_total")
                if observed is None:
                    recorder.counter("faults_telemetry_blackouts_total")
                elif not (
                    np.all(np.isfinite(np.asarray(observed.latency_ms, dtype=float)))
                    and np.all(np.isfinite(np.asarray(observed.cpu_util, dtype=float)))
                ):
                    recorder.counter("faults_corrupted_intervals_total")
        return stats

    def run(self, duration: int, allocs: np.ndarray | None = None) -> TelemetryLog:
        """Run ``duration`` intervals under a fixed allocation."""
        for _ in range(duration):
            self.step(allocs)
            allocs = None
        return self.telemetry

    def reset(self, seed: int | None = None) -> None:
        """Start a fresh episode (drained queues, empty telemetry, and
        the deploy-time allocation — not whatever the previous episode's
        manager last set)."""
        self.engine.reset(seed)
        self.telemetry = TelemetryLog()
        if self.faults is not None:
            self.faults.reset()
            self.observed = TelemetryLog()
        else:
            self.observed = self.telemetry
        self.current_alloc = self._initial_alloc.copy()


def workload_rebind(workload: Workload, graph: AppGraph) -> Workload:
    """Re-target a workload at an equivalent graph (e.g. after adding
    replicas for a platform), preserving pattern and mix."""
    return Workload(graph, workload.pattern, workload.mix, workload.rps_per_user)


__all__ = [
    "ClusterSimulator",
    "PlatformSpec",
    "LOCAL_PLATFORM",
    "GCE_PLATFORM",
    "workload_rebind",
]
