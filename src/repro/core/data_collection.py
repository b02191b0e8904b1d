"""Training-data collection: exploring the allocation-space boundary.

The accuracy of Sinan's models hinges on the training distribution
(paper Section 4.2 and Figures 9-10).  The paper designs the collection
process as a multi-armed bandit: each tier is an arm, the application's
running state is approximated by the tuple ``(rps, lat_cur, lat_diff)``,
and every step each tier takes the operation that maximizes the expected
reduction of the confidence interval of its Bernoulli
probability-of-meeting-QoS (Eq. 3) — which concentrates samples on the
QoS *boundary*, where the mapping from resources to QoS is
nondeterministic.

Pruning rules (paper): operations come from a predefined set (CPU steps
of 0.2 up to 1.0 core, or 10%/30% of the tier's allocation); a per-tier
utilization cap prevents overly aggressive downsizing; reclamation is
disabled while latency exceeds the expected value; exploration stays in
the ``[0, QoS + alpha]`` latency region with ``alpha = 20%`` of QoS so
slight violations are observed without drifting far from deployment
conditions.

The module also implements the two flawed collection schemes of
Figure 10: collecting while an autoscaler manages the cluster (never
sees violations -> underestimates latency) and random exploration
(rarely near the boundary -> overestimates latency).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from repro.core.features import build_dataset
from repro.core.qos import QoSTarget
from repro.ml.dataset import SinanDataset
from repro.sim.cluster import ClusterSimulator
from repro.sim.telemetry import TelemetryLog

#: Per-tier CPU deltas available to the bandit (paper Section 4.2).
_ABS_DELTAS = (-1.0, -0.6, -0.2, 0.0, 0.2, 0.6, 1.0)
_REL_DELTAS = (-0.3, -0.1, 0.1, 0.3)
_N_OPS = len(_ABS_DELTAS) + len(_REL_DELTAS)


@dataclass(frozen=True)
class CollectionConfig:
    """Knobs of the collection process."""

    qos: QoSTarget
    horizon: int = 3
    n_timesteps: int = 5
    alpha_frac: float = 0.2
    """Exploration band above QoS, as a fraction of the QoS target."""

    util_cap: float = 0.9
    """Per-tier utilization cap enforced when downsizing."""

    alloc_bucket: float = 0.2
    """Bucket width (cores) for the bandit's per-tier resource states."""

    @property
    def explore_ceiling_ms(self) -> float:
        return self.qos.latency_ms * (1.0 + self.alpha_frac)


class CollectPolicy(Protocol):
    """Chooses the next allocation while collecting training data."""

    name: str

    def decide(self, cluster: ClusterSimulator) -> np.ndarray:
        ...


def _ci_shrink(meets: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Eq. 3, elementwise: how much one more sample is expected to
    shrink the confidence interval of each arm's Bernoulli
    probability-of-meeting-QoS, given its (meets, total) counts."""
    p = (meets + 1.0) / (total + 2.0)
    p_plus = (meets + 2.0) / (total + 3.0)
    p_minus = (meets + 1.0) / (total + 3.0)
    width = np.sqrt(p * (1.0 - p) / (total + 2.0))
    width_plus = np.sqrt(p_plus * (1.0 - p_plus) / (total + 3.0))
    width_minus = np.sqrt(p_minus * (1.0 - p_minus) / (total + 3.0))
    return width - (p * width_plus + (1.0 - p) * width_minus)


def _c_op(delta: np.ndarray, lat_ratio: float) -> np.ndarray:
    """The paper's C_op: rewards meeting QoS and cutting slack."""
    if lat_ratio > 1.0:  # violating: favor upscaling strongly
        return np.where(delta > 0, 2.0, np.where(delta == 0, 0.5, 0.0))
    if lat_ratio > 0.8:  # near the boundary: prefer to hold/raise
        return np.where(delta >= 0, 1.2, 0.8)
    # comfortably meeting QoS: reward reclaiming overprovisioning
    return np.where(delta < 0, 1.4, np.where(delta == 0, 1.0, 0.6))


class BanditExplorer:
    """The paper's multi-armed-bandit boundary explorer (Eq. 3).

    An arm is ``(running state, tier, allocation bucket)``.  Its
    ``(meets, total)`` QoS counts live in one ``(n_tiers, n_buckets, 2)``
    table per running state seen, so each decision scores every tier's
    operations in one array pass.
    """

    name = "bandit"

    def __init__(self, config: CollectionConfig, seed: int = 0) -> None:
        self.config = config
        self._rng = np.random.default_rng(seed)
        self._tables: dict[tuple[int, int, int], np.ndarray] = {}
        # The last decision's arms, (state, per-tier bucket), awaiting
        # their QoS outcome in :meth:`observe`.
        self._pending: tuple[tuple[int, int, int], np.ndarray] | None = None

    # -- state discretization ------------------------------------------

    def _running_state(self, cluster: ClusterSimulator) -> tuple[int, int, int]:
        """Discretized (rps, lat_cur, lat_diff) tuple."""
        log = cluster.telemetry
        if len(log) == 0:
            return (0, 0, 0)
        qos = self.config.qos
        latest = log.latest
        rps_bucket = int(math.log2(max(latest.rps, 1.0)))
        lat_ratio = qos.latency_of(latest) / qos.latency_ms
        lat_bucket = int(np.digitize(lat_ratio, [0.25, 0.5, 0.75, 1.0, 1.2]))
        if len(log) >= 2:
            diff = qos.latency_of(log[-1]) - qos.latency_of(log[-2])
            diff_bucket = int(np.sign(diff)) if abs(diff) > 0.05 * qos.latency_ms else 0
        else:
            diff_bucket = 0
        return (rps_bucket, lat_bucket, diff_bucket)

    def _buckets(self, cores: np.ndarray) -> np.ndarray:
        # np.rint rounds half to even, as round() does.
        return np.rint(cores / self.config.alloc_bucket).astype(np.intp)

    def _table(self, state: tuple[int, int, int], n_tiers: int, n_buckets: int) -> np.ndarray:
        """The state's ``(tier, bucket) -> (meets, total)`` counts,
        covering at least ``n_tiers`` x ``n_buckets`` arms."""
        table = self._tables.get(state, np.zeros((0, 0, 2), np.int64))
        grow = (max(n_tiers - table.shape[0], 0), max(n_buckets - table.shape[1], 0))
        if any(grow):  # first visit, or a larger cluster than before
            table = self._tables[state] = np.pad(table, ((0, grow[0]), (0, grow[1]), (0, 0)))
        return table

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

        # Candidate ops per tier, NaN-padded.  Each row keeps the
        # iteration order of the set the ops come from: that order fixes
        # which candidate draws which tie-breaking jitter and which one
        # wins a tie (unexplored arms tie on gain), and the set collapses
        # relative steps that coincide with absolute ones.
        n = len(current)
        rows = [list(set(_ABS_DELTAS) | {c * r for r in _REL_DELTAS}) for c in current.tolist()]
        ops = np.array([row + [np.nan] * (_N_OPS - len(row)) for row in rows])
        pad = np.isnan(ops)
        target = np.clip(current[:, None] + ops, min_alloc[:, None], max_alloc[:, None])
        real_delta = target - current[:, None]
        shrink = real_delta < 0
        if lat_known and lat_ratio <= 1.0:
            # reclaim only within the utilization cap
            skip = shrink & (busy[:, None] / np.maximum(target, 1e-9) > cfg.util_cap)
        else:
            skip = shrink  # no reclamation while violating/blind
        valid = ~(pad | skip)

        # Buckets 0..rint(max / width), plus one for a new allocation
        # (``current + real_delta``) that rounds an ulp above its ceiling.
        n_buckets = int(np.rint(max_alloc.max() / cfg.alloc_bucket)) + 2
        counts = self._table(state, n, n_buckets)[
            np.arange(n)[:, None], self._buckets(np.where(pad, 0.0, target))  # pads: any bucket
        ]
        score = _c_op(real_delta, lat_ratio) * _ci_shrink(counts[..., 0], counts[..., 1])
        # Small jitter breaks ties between equally unexplored arms; one
        # draw per valid candidate, in row-major (tier, op) order.
        score[valid] += self._rng.uniform(0, 1e-6, size=int(np.count_nonzero(valid)))
        score[~valid] = -np.inf
        # First maximum per tier.  Op 0.0 is never skipped (the cluster
        # keeps ``current`` inside its bounds), so every row has one.
        best = real_delta[np.arange(n), np.argmax(score, axis=1)]
        new_alloc = current + best
        self._pending = (state, self._buckets(new_alloc)) if lat_known else None
        return new_alloc

    def observe(self, met_qos: bool) -> None:
        """Update the Bernoulli estimates with the step's QoS outcome."""
        if self._pending is not None:
            state, buckets = self._pending
            self._tables[state][np.arange(len(buckets)), buckets] += (int(met_qos), 1)
        self._pending = None

    @property
    def n_arms_visited(self) -> int:
        return sum(int(np.count_nonzero(t[..., 1])) for t in self._tables.values())


class RandomCollectPolicy:
    """Blind random exploration of the allocation box (Figure 10b).

    Samples allocations uniformly over the feasible space — including
    regions that never occur in operation and contain no points near
    the QoS boundary — so the trained model's picture of the boundary
    is poor and reclamation decisions become unreliable.

    ``hold_prob`` keeps the current allocation for a few intervals at a
    time so consecutive telemetry windows are self-consistent.
    """

    name = "random"

    def __init__(self, seed: int = 0, hold_prob: float = 0.7) -> None:
        self._rng = np.random.default_rng(seed)
        self.hold_prob = hold_prob

    def decide(self, cluster: ClusterSimulator) -> np.ndarray:
        current = cluster.current_alloc
        if self._rng.random() < self.hold_prob:
            return current.copy()
        span = cluster.max_alloc - cluster.min_alloc
        return cluster.min_alloc + self._rng.random(len(current)) * span

    def observe(self, met_qos: bool) -> None:  # stateless
        return


class AutoscaleCollectPolicy:
    """Collect while a utilization autoscaler manages the cluster
    (Figure 10a).

    The autoscaler steers away from violations, so the dataset contains
    almost none and the model underestimates latency near the boundary.
    """

    name = "autoscale"

    def __init__(self, manager) -> None:
        self._manager = manager

    def decide(self, cluster: ClusterSimulator) -> np.ndarray:
        alloc = self._manager.decide(cluster.telemetry)
        if alloc is None:
            return cluster.current_alloc
        return np.clip(alloc, cluster.min_alloc, cluster.max_alloc)

    def observe(self, met_qos: bool) -> None:
        return


@dataclass(frozen=True)
class BanditPolicyFactory:
    """Builds a fresh :class:`BanditExplorer` per episode seed.

    Episodes handed to parallel workers must not share bandit state, so
    the collector takes a picklable factory rather than one policy
    instance; this mirrors the paper's collection across a 4-node
    cluster, where each node explores independently.
    """

    config: CollectionConfig

    def __call__(self, seed: int) -> BanditExplorer:
        return BanditExplorer(self.config, seed=seed)


def _collect_episode(
    cluster_factory: Callable[[float, int], ClusterSimulator],
    policy_factory: Callable[[int], CollectPolicy],
    config: CollectionConfig,
    users: float,
    seconds_per_load: int,
    seed: int,
) -> tuple[SinanDataset, TelemetryLog]:
    """Run one independent collection episode (one load level).

    Module-level and driven purely by its arguments so the parallel
    harness can ship it to worker processes; the serial path runs the
    same function inline, which is what makes ``jobs=1`` and ``jobs=N``
    bit-identical for a given seed.
    """
    policy = policy_factory(seed)
    cluster = cluster_factory(users, seed)
    for _ in range(seconds_per_load):
        alloc = policy.decide(cluster)
        stats = cluster.step(alloc)
        policy.observe(config.qos.latency_of(stats) <= config.qos.latency_ms)
    dataset = build_dataset(
        cluster.telemetry,
        cluster.graph,
        config.qos,
        n_timesteps=config.n_timesteps,
        horizon=config.horizon,
        meta={"policy": policy.name, "users": users},
    )
    return dataset, cluster.telemetry


@dataclass
class CollectionResult:
    dataset: SinanDataset
    logs: list[TelemetryLog] = field(default_factory=list)


class DataCollector:
    """Runs a collection policy over a sweep of load levels.

    Parameters
    ----------
    cluster_factory:
        ``(users, seed) -> ClusterSimulator`` building a fresh episode at
        a given constant load.
    config:
        Collection knobs (QoS, horizon, caps).
    """

    def __init__(
        self,
        cluster_factory: Callable[[float, int], ClusterSimulator],
        config: CollectionConfig,
    ) -> None:
        self.cluster_factory = cluster_factory
        self.config = config

    def collect(
        self,
        policy=None,
        loads: list[float] = (),
        seconds_per_load: int = 120,
        seed: int = 0,
        *,
        policy_factory: Callable[[int], CollectPolicy] | None = None,
        jobs: int | None = None,
        progress=None,
    ) -> CollectionResult:
        """Collect ``seconds_per_load`` intervals at each load level.

        Each load level is a fresh episode (drained queues), mirroring
        the paper's multi-hour collection across request rates; the
        per-episode logs are converted into aligned samples and
        concatenated in load order.

        Exactly one of ``policy`` and ``policy_factory`` must be given:

        * ``policy`` — one shared, stateful policy instance stepped
          through all load levels in order (the legacy serial protocol;
          bandit statistics carry across loads).  Incompatible with
          ``jobs > 1``, since fanned-out episodes cannot share state.
          The first episode that fails raises.
        * ``policy_factory`` — ``seed -> policy``; episode *i* gets an
          independent policy seeded ``seed + i``.  Episodes are then
          fully independent and can run on ``jobs`` worker processes,
          producing a dataset bit-identical to the serial run.
          Episodes that fail are retried once with a bumped seed;
          episodes that fail twice are dropped from the dataset with a
          warning (the run only raises if *every* episode failed).
        """
        from repro.harness.parallel import (  # runtime import: avoids core->harness cycle
            EpisodeTask,
            resolve_jobs,
            run_episodes,
        )

        cfg = self.config
        if (policy is None) == (policy_factory is None):
            raise ValueError("pass exactly one of policy= and policy_factory=")

        if policy is not None:
            # Only an *explicit* jobs request conflicts with a shared
            # policy; an ambient REPRO_JOBS (resolved when jobs=None)
            # must not break the legacy serial protocol.
            if jobs is not None and resolve_jobs(jobs) > 1:
                raise ValueError(
                    "a shared policy instance cannot be fanned out across "
                    "worker processes; pass policy_factory= instead"
                )
            datasets: list[SinanDataset] = []
            logs: list[TelemetryLog] = []
            for i, users in enumerate(loads):
                cluster = self.cluster_factory(users, seed + i)
                for _ in range(seconds_per_load):
                    alloc = policy.decide(cluster)
                    stats = cluster.step(alloc)
                    policy.observe(cfg.qos.latency_of(stats) <= cfg.qos.latency_ms)
                datasets.append(
                    build_dataset(
                        cluster.telemetry,
                        cluster.graph,
                        cfg.qos,
                        n_timesteps=cfg.n_timesteps,
                        horizon=cfg.horizon,
                        meta={"policy": policy.name, "users": users},
                    )
                )
                logs.append(cluster.telemetry)
            return CollectionResult(SinanDataset.concatenate(datasets), logs)

        tasks = [
            EpisodeTask(
                index=i,
                label=f"collect[users={users:g}]",
                fn=_collect_episode,
                kwargs=dict(
                    cluster_factory=self.cluster_factory,
                    policy_factory=policy_factory,
                    config=cfg,
                    users=users,
                    seconds_per_load=seconds_per_load,
                    seed=seed + i,
                ),
            )
            for i, users in enumerate(loads)
        ]
        summary = run_episodes(tasks, jobs=jobs, progress=progress)
        summary.raise_if_no_results()
        pairs = summary.results
        return CollectionResult(
            SinanDataset.concatenate([ds for ds, _ in pairs]),
            [log for _, log in pairs],
        )


__all__ = [
    "CollectionConfig",
    "CollectPolicy",
    "BanditExplorer",
    "BanditPolicyFactory",
    "RandomCollectPolicy",
    "AutoscaleCollectPolicy",
    "DataCollector",
    "CollectionResult",
]
