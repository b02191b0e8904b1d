"""Discrete-time queueing-network simulator of a microservice cluster.

This package replaces the paper's physical substrate (a dedicated Docker
Swarm cluster and a GCE deployment) with a layered queueing simulation
that preserves the phenomena Sinan exploits and that defeat simpler
managers:

* per-tier CPU limits at sub-core granularity (cgroup ``cpu.cfs_quota``),
* queue build-up and drain across 1 s decision intervals (the *delayed
  queueing effect* of the paper's Figure 3),
* synchronous-RPC backpressure, so a slow downstream tier inflates
  upstream queues (the "longest queue is a symptom, not the culprit"
  failure mode that misleads PowerChief),
* cgroup-style telemetry: CPU utilization, resident set size, cache
  memory, and received/transmitted packets per tier, plus end-to-end
  latency percentiles (p95-p99) per interval.

The main entry point is :class:`~repro.sim.cluster.ClusterSimulator`.
"""

from repro._lazy import lazy_exports

#: Exported name -> defining module, imported on first use.
_EXPORTS = {
    "TierKind": "repro.sim.tier",
    "TierSpec": "repro.sim.tier",
    "AppGraph": "repro.sim.graph",
    "RequestType": "repro.sim.graph",
    "IntervalStats": "repro.sim.telemetry",
    "TelemetryLog": "repro.sim.telemetry",
    "LATENCY_PERCENTILES": "repro.sim.telemetry",
    "RESOURCE_CHANNELS": "repro.sim.telemetry",
    "Behavior": "repro.sim.behaviors",
    "CapacityFault": "repro.sim.behaviors",
    "FAULT_PROFILES": "repro.sim.faults",
    "FaultEvent": "repro.sim.faults",
    "FaultInjector": "repro.sim.faults",
    "FaultProfile": "repro.sim.faults",
    "resolve_profile": "repro.sim.faults",
    "QueueingEngine": "repro.sim.engine",
    "ClusterSimulator": "repro.sim.cluster",
    "PlatformSpec": "repro.sim.cluster",
    "LOCAL_PLATFORM": "repro.sim.cluster",
    "GCE_PLATFORM": "repro.sim.cluster",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
