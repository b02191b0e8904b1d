"""Oracle for training-data collection: the per-arm bandit explorer.

:class:`ReferenceBanditExplorer` scores every tier's operations one arm
at a time, keeping each arm's Bernoulli counts in an :class:`_ArmStats`
dict keyed ``(state, tier, bucket)``.  The production
:class:`~repro.core.data_collection.BanditExplorer` scores them in one
array pass over per-state count tables and must match it bitwise: the
same allocations, the same RNG state and the same visited arms with the
same counts (``tests/core/test_data_collection.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.data_collection import (
    _ABS_DELTAS,
    _REL_DELTAS,
    BanditExplorer,
    BanditPolicyFactory,
    CollectionConfig,
)
from repro.sim.cluster import ClusterSimulator


@dataclass
class _ArmStats:
    meets: int = 0
    total: int = 0

    def p(self) -> float:
        return (self.meets + 1.0) / (self.total + 2.0)


class ReferenceBanditExplorer(BanditExplorer):
    """A bandit explorer that runs the per-arm scoring loop."""

    def __init__(self, config: CollectionConfig, seed: int = 0) -> None:
        super().__init__(config, seed)
        self._stats: dict[tuple, _ArmStats] = {}
        self._pending: list[tuple] = []

    def _bucket(self, cores: float) -> int:
        return int(round(cores / self.config.alloc_bucket))

    # -- Eq. 3 information gain ----------------------------------------

    def _info_gain(self, key: tuple) -> float:
        arm = self._stats.get(key, _ArmStats())
        n = arm.total
        p = arm.p()
        p_plus = (arm.meets + 2.0) / (n + 3.0)
        p_minus = (arm.meets + 1.0) / (n + 3.0)
        width = math.sqrt(p * (1.0 - p) / (n + 2.0))
        width_plus = math.sqrt(p_plus * (1.0 - p_plus) / (n + 3.0))
        width_minus = math.sqrt(p_minus * (1.0 - p_minus) / (n + 3.0))
        return width - (p * width_plus + (1.0 - p) * width_minus)

    def _op_coefficient(self, delta: float, lat_ratio: float) -> float:
        """The paper's C_op: rewards meeting QoS and cutting slack."""
        if lat_ratio > 1.0:  # violating: favor upscaling strongly
            if delta > 0:
                return 2.0
            return 0.5 if delta == 0 else 0.0
        if lat_ratio > 0.8:  # near the boundary: prefer to hold/raise
            return 1.2 if delta >= 0 else 0.8
        # comfortably meeting QoS: reward reclaiming overprovisioning
        if delta < 0:
            return 1.4
        return 1.0 if delta == 0 else 0.6

    # -- policy interface ----------------------------------------------

    def decide(self, cluster: ClusterSimulator) -> np.ndarray:
        cfg = self.config
        current = cluster.current_alloc.copy()
        state = self._running_state(cluster)
        log = cluster.telemetry
        lat_ratio = (
            cfg.qos.latency_of(log.latest) / cfg.qos.latency_ms if len(log) else 0.0
        )
        # A non-finite measured latency (idle interval, corrupted
        # telemetry) compares False against every band below, which
        # would read as "comfortably meeting QoS" and reward
        # reclamation.  Unknown is not safe: block reclamation and skip
        # the arm updates for this step (see :meth:`observe`).
        lat_known = math.isfinite(lat_ratio)
        util = log.latest.cpu_util if len(log) else np.zeros_like(current)
        busy = util * current
        min_alloc = cluster.min_alloc
        max_alloc = cluster.max_alloc

        # Hard recovery: above the exploration ceiling, upscale everything
        # so the latency distribution stays near deployment conditions
        # (the paper explores in [0, QoS + alpha] only).  Deep overload
        # (dropped requests / runaway queues) jumps straight to max so
        # the 5 s timeout plateau never dominates the dataset.
        if lat_ratio > 2.0 * (1.0 + cfg.alpha_frac) or (
            len(log) and log.latest.drops > 0
        ):
            return max_alloc.copy()
        if lat_ratio > 1.0 + cfg.alpha_frac:
            return np.minimum(current * 1.5 + 0.5, max_alloc)

        new_alloc = current.copy()
        self._pending = []
        for tier in range(len(current)):
            deltas = set(_ABS_DELTAS) | {current[tier] * r for r in _REL_DELTAS}
            best_delta, best_score = 0.0, -np.inf
            for delta in deltas:
                target = float(np.clip(current[tier] + delta, min_alloc[tier], max_alloc[tier]))
                real_delta = target - current[tier]
                if real_delta < 0:
                    if not lat_known or lat_ratio > 1.0:
                        continue  # no reclamation while violating/blind
                    if busy[tier] / max(target, 1e-9) > cfg.util_cap:
                        continue  # utilization cap
                key = (state, tier, self._bucket(target))
                gain = self._info_gain(key)
                score = self._op_coefficient(real_delta, lat_ratio) * gain
                # Small jitter breaks ties between equally unexplored arms.
                score += self._rng.uniform(0, 1e-6)
                if score > best_score:
                    best_score, best_delta = score, real_delta
            new_alloc[tier] = current[tier] + best_delta
            if lat_known:
                self._pending.append((state, tier, self._bucket(new_alloc[tier])))
        return new_alloc

    def observe(self, met_qos: bool) -> None:
        """Update the Bernoulli estimates with the step's QoS outcome."""
        for key in self._pending:
            arm = self._stats.setdefault(key, _ArmStats())
            arm.total += 1
            if met_qos:
                arm.meets += 1
        self._pending = []

    @property
    def n_arms_visited(self) -> int:
        return len(self._stats)


@dataclass(frozen=True)
class ReferenceBanditPolicyFactory(BanditPolicyFactory):
    """Builds a fresh :class:`ReferenceBanditExplorer` per episode seed."""

    def __call__(self, seed: int) -> ReferenceBanditExplorer:
        return ReferenceBanditExplorer(self.config, seed=seed)
