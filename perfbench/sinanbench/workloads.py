"""The benchmark workloads, driven through repro's public API.

Each workload runs in a fresh process per shard.  ``setup`` does what a
user's process does before its first timed operation (predictor load,
cluster/tenant construction, warm-up decisions); ``run_unit`` is the
fixed work that ``wall_s`` times; ``finish`` runs the output checks and
computes the outcome metrics outside the timed region.

Why these three (see NOTES.md for the layer map, and for why the
Figure 11 sweep over the worker pool was dropped):

* ``train`` is the only workload where the bandit explorer, dataset
  building and the CNN/boosted-trees fits run.
* ``control`` is online inference: one Sinan-managed social_network
  episode under a diurnal load whose trough lets Sinan reclaim CPU and
  whose peak pushes it to the QoS boundary.
* ``multitenant`` is simulator-bound and ML-free: three autoscale-cons
  tenants with staggered, repeating peaks on a 240-core credit-arbitrated
  budget, driving the engine into its overload regime.
"""

from __future__ import annotations

import dataclasses
import pickle
from pathlib import Path

import numpy as np

from repro.core.features import build_dataset
from repro.core.sinan import SinanManager
from repro.harness import pipeline
from repro.harness.experiment import run_episode
from repro.harness.multitenant import default_tenant_specs, run_multitenant_episode
from repro.ml.dataset import SinanDataset
from repro.workload.patterns import DiurnalLoad, TraceLoad

from sinanbench import checks
from sinanbench.tracer import Patcher, capture, time_calls

#: The application every ML workload manages.
APP = "social_network"

#: The served predictor: trained once per source digest by the prepare
#: step, from a fixed training seed, at a budget other than ``small``
#: (at ``small`` Sinan's allocation sits at the platform cap, so its QoS
#: and CPU figures cannot move).
SERVED_BUDGET = "medium"
SERVED_SEED = 0

#: The ``train`` workload's budget: bandit collection, CNN fit, trees
#: fit, no on-policy refinement round.
TRAIN_BUDGET = pipeline.Budget(
    "perfbench-train", collection_loads=3, seconds_per_load=150, epochs=8,
    batch_size=256, refine_rounds=0,
)

#: A fixed held-out dataset every ``train`` model is scored on: bandit
#: collection at a seed no run trains on.  The model's own 10% split
#: holds only ~70 samples, too few for a steady RMSE.
REFERENCE_BUDGET = pipeline.Budget(
    "perfbench-reference", collection_loads=6, seconds_per_load=200, epochs=1,
    batch_size=256, refine_rounds=0,
)
REFERENCE_SEED = 900_001
REFERENCE_FILE = "reference-dataset.pkl"

#: Decisions at the start of every episode left out of the scores (the
#: manager converging from the deploy-time allocation).
WARMUP = 10


def shard_seed(seed: int, shard: int) -> int:
    """The episode seed of one shard of a run (distinct per shard)."""
    return seed * 7919 + shard * 104729 + 17


def served_predictor():
    """The checkout's served predictor, through the path ``repro run``
    uses (a disk-cache hit once the prepare step has trained it)."""
    return pipeline.get_trained_predictor(APP, SERVED_BUDGET, seed=SERVED_SEED)


def build_reference_dataset(cache_dir: Path) -> int:
    """Collect and store the ``train`` scoring set; returns its size."""
    data = pipeline.collect_training_data(
        APP, REFERENCE_BUDGET, seed=REFERENCE_SEED, jobs=1)
    tmp = cache_dir / f"{REFERENCE_FILE}.tmp"
    with open(tmp, "wb") as fh:
        pickle.dump(data, fh, protocol=pickle.HIGHEST_PROTOCOL)
    tmp.replace(cache_dir / REFERENCE_FILE)
    return len(data)


def evaluate(predictor, data: SinanDataset) -> tuple[float, float]:
    """(RMSE ms, violation accuracy) of ``predictor`` on ``data``, the
    RMSE taken below the latency cap the CNN's validation RMSE uses."""
    cap = predictor.config.label_cap_frac * predictor.qos.latency_ms
    capped = data.filter_latency_below(cap)
    rmse = predictor.evaluate(capped)["rmse"] if len(capped) else float("nan")
    return float(rmse), float(predictor.evaluate(data)["bt_accuracy"])


def evaluate_on_trace(predictor, logs) -> tuple[float, float]:
    """:func:`evaluate` on the dataset recorded episodes make."""
    spec = pipeline.app_spec(APP)
    graph = spec.graph_factory()
    cfg = predictor.config
    return evaluate(predictor, SinanDataset.concatenate([
        build_dataset(log, graph, spec.qos, n_timesteps=cfg.n_timesteps,
                      horizon=cfg.horizon)
        for log in logs
    ]))


def sim_counts(rps: np.ndarray, drops: np.ndarray) -> dict[str, float]:
    total = float(np.sum(rps))
    return {"sim.requests": total,
            "sim.drop_frac": float(np.sum(drops)) / total if total else 0.0}


class Workload:
    """One workload.  Subclasses set ``name`` and implement the hooks.

    ``calls`` receives the ``(start, end)`` times of every decision of
    the current unit (the timed call of one decision interval); it is
    cleared when a unit or warm-up episode starts.
    """

    name = ""
    interval_span: str | None = None
    serves = False
    """Whether the workload runs the served predictor (its provenance
    then fills the per-layer model counts)."""

    def __init__(self, seed: int, shard: int, cache_dir: Path) -> None:
        self.seed = seed
        self.shard = shard
        self.cache_dir = cache_dir
        self.episode_seed = shard_seed(seed, shard)
        #: What each run of the fixed work produced, kept for ``finish``.
        self.units: list[tuple] = []
        self.calls: list[tuple[float, float]] = []
        self.probes = Patcher()

    def probe(self) -> None:
        """Install the observation wrappers the end-to-end metrics need.

        Called before ``setup`` and before any tracer, so a tracer wraps
        the probes and restores them when it is uninstalled."""

    def setup(self) -> None:
        raise NotImplementedError

    def run_unit(self) -> None:
        raise NotImplementedError

    def decisions(self) -> list[tuple[float, float]]:
        """The timed decisions of the last unit that ``decide_ms_p50``
        covers."""
        return self.calls[WARMUP:]

    def finish(self) -> dict:
        """Outcome metrics, checks, attempted/failed and record fields."""
        raise NotImplementedError

    def counts(self) -> dict[str, float]:
        """Per-layer counts of the traced units (trace runs only)."""
        return {}

    def close(self) -> None:
        self.probes.restore()

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# -- train ------------------------------------------------------------------


class Train(Workload):
    """The training pipeline, cache off, ``jobs=1``: bandit collection,
    then the CNN fit, then the boosted-trees fit."""

    name = "train"
    interval_span = "core.data_collection.bandit_decide"

    def probe(self) -> None:
        self._collected: list = []
        # The decide times and the collection logs are observed, not
        # traced: wrappers whose cost is far below 0.1% of a unit.
        time_calls(self.probes, "repro.core.data_collection:BanditExplorer.decide",
                   self.calls)
        capture(self.probes, "repro.core.data_collection:DataCollector.collect",
                self._collected)

    def setup(self) -> None:
        # Warm-up: one tiny pipeline run initializes BLAS, the simulator
        # kernel and the model code paths before the first timed unit.
        warm = dataclasses.replace(
            TRAIN_BUDGET, name="perfbench-warmup", collection_loads=2,
            seconds_per_load=30, epochs=1,
        )
        pipeline.get_trained_predictor(APP, warm, seed=self.episode_seed + 1,
                                       use_cache=False, jobs=1)

    def run_unit(self) -> None:
        self.calls.clear()
        self._collected.clear()
        predictor = pipeline.get_trained_predictor(
            APP, TRAIN_BUDGET, seed=self.episode_seed, use_cache=False, jobs=1,
        )
        logs = [log for _, _, result in self._collected for log in result.logs]
        self.units.append((predictor, logs))

    def decisions(self) -> list[tuple[float, float]]:
        return list(self.calls)

    def finish(self) -> dict:
        predictor, logs = self.units[0]
        report = predictor.report
        qos = pipeline.app_spec(APP).qos
        scores = [exploration_scores(log, qos) for log in logs]
        with open(self.cache_dir / REFERENCE_FILE, "rb") as fh:
            reference = pickle.load(fh)
        rmse, accuracy = evaluate(predictor, reference)
        outcome = {
            "qos_attainment": float(np.mean([q for q, _ in scores])),
            "mean_cpu_cores": float(np.mean([c for _, c in scores])),
            "rmse_val_ms": rmse,
            "bt_accuracy_val": accuracy,
        }
        expected = TRAIN_BUDGET.collection_loads * (
            TRAIN_BUDGET.seconds_per_load - predictor.config.n_timesteps)
        failures = checks.check_train(report.n_train + report.n_val, expected, outcome)
        for later in self.units[1:]:
            failures += checks.check_same(
                "rerun", _report_fields(report), _report_fields(later[0].report))
        return {
            "outcome": outcome,
            "attempted": len(self.units),
            "failed": len(failures),
            "failures": failures,
            "record": {"budget": dataclasses.asdict(TRAIN_BUDGET),
                       "pickle_mb": pickle_mb(predictor),
                       "own_split_rmse_val_ms": report.rmse_val,
                       "own_split_bt_accuracy_val": report.bt_accuracy_val},
        }

    def counts(self) -> dict[str, float]:
        predictor, logs = self.units[-1]
        rps = np.concatenate([log.rps_series() for log in logs])
        drops = np.concatenate([[s.drops for s in log] for log in logs])
        return {
            **sim_counts(rps, drops),
            "core.features.samples": float(predictor.report.n_train
                                           + predictor.report.n_val),
            "core.predictor.pickle_mb": pickle_mb(predictor),
            "ml.cnn.epochs": float(predictor.report.cnn_fit.epochs_run),
            "ml.boosted_trees.n_trees": float(predictor.report.bt_trees),
        }


def exploration_scores(log, qos) -> tuple[float, float]:
    """(share of intervals meeting QoS, mean total CPU) of one bandit
    collection episode, past the first ``WARMUP`` intervals.  These
    describe what the explorer did, not a quality of the trained model."""
    p99 = np.array([qos.latency_of(s) for s in log])[WARMUP:]
    return float(np.mean(p99 <= qos.latency_ms)), float(log.total_cpu_series()[WARMUP:].mean())


def _report_fields(report) -> dict:
    return {"rmse_val": report.rmse_val, "bt_accuracy_val": report.bt_accuracy_val,
            "bt_trees": report.bt_trees, "epochs": report.cnn_fit.epochs_run,
            "n_train": report.n_train, "n_val": report.n_val}


def pickle_mb(predictor) -> float:
    """Size of the predictor's pickle in MB (10^6 bytes)."""
    return len(pickle.dumps(predictor, protocol=pickle.HIGHEST_PROTOCOL)) / 1e6


# -- control ------------------------------------------------------------------

#: Diurnal load of the ``control`` episode: 60 to 380 users over a 300 s
#: day, the upper end of the served predictor's 50-480 user range.
CONTROL_LOAD = DiurnalLoad(base=220.0, amplitude=160.0, period=300.0)
CONTROL_INTERVALS = 600


class Control(Workload):
    """One Sinan-managed episode through ``run_episode`` (the loop
    ``repro run`` uses), with every ``decide()`` call timed."""

    name = "control"
    interval_span = "core.scheduler.decide"
    serves = True

    def probe(self) -> None:
        self._decided: list = []
        time_calls(self.probes, "repro.core.sinan:SinanManager.decide", self.calls)
        capture(self.probes, "repro.core.sinan:SinanManager.decide", self._decided)

    def setup(self) -> None:
        self.predictor = served_predictor()
        self.spec = pipeline.app_spec(APP)
        self.graph = self.spec.graph_factory()
        # Warm-up decisions on a separate seed: BLAS, the encoder and the
        # simulator kernel finish their lazy set-up here.
        self._episode(self.episode_seed + 1, 3 * WARMUP)

    def _episode(self, seed: int, intervals: int):
        self.calls.clear()
        self._decided.clear()
        manager = SinanManager(self.predictor, self.spec.qos, self.graph)
        cluster = pipeline.make_cluster(
            self.graph, CONTROL_LOAD.users(0.0), seed=seed, pattern=CONTROL_LOAD)
        result = run_episode(manager, cluster, intervals, self.spec.qos, WARMUP)
        allocs = [np.array(alloc, dtype=float)
                  for _, _, alloc in self._decided if alloc is not None]
        return manager, result, allocs

    def run_unit(self) -> None:
        self.units.append(self._episode(self.episode_seed, CONTROL_INTERVALS))

    def finish(self) -> dict:
        manager, result, allocs = self.units[0]
        rmse, acc = evaluate_on_trace(self.predictor, [result.telemetry])
        outcome = {"qos_attainment": result.qos_fraction,
                   "mean_cpu_cores": result.mean_total_cpu,
                   "rmse_val_ms": rmse, "bt_accuracy_val": acc}
        failures = checks.check_control(
            np.array(allocs), self.graph.min_alloc(), self.graph.max_alloc(),
            len(result.telemetry), CONTROL_INTERVALS, outcome)
        for later in self.units[1:]:
            failures += checks.check_same(
                "rerun", result.telemetry.alloc_matrix(),
                later[1].telemetry.alloc_matrix())
        decisions = len(self.units) * (CONTROL_INTERVALS - WARMUP)
        predictor_failures = sum(u[0].predictor_failures for u in self.units)
        return {
            "outcome": outcome,
            "attempted": decisions,
            "failed": predictor_failures + len(failures),
            "failures": failures,
            "record": {},
        }

    def counts(self) -> dict[str, float]:
        manager, result, _ = self.units[-1]
        log = result.telemetry
        decisions = len(manager.prediction_trace)
        return {
            **sim_counts(log.rps_series(), np.array([s.drops for s in log])),
            "core.scheduler.fallback_frac": manager.fallbacks / max(decisions, 1),
            "core.scheduler.mispredictions": float(manager.mispredictions),
        }


# -- multitenant ----------------------------------------------------------------

#: Shared budget, tenant manager, and the period after which the stock
#: staggered step loads repeat (their last step ends at 130 s).
MT_BUDGET_CPU = 240.0
MT_MANAGER = "autoscale-cons"
MT_PERIOD = 150
MT_INTERVALS = 1200
_ARBITRATE = "repro.tenancy.arbiter:CreditArbiter.arbitrate"


def multitenant_specs() -> list:
    """The default tenants, each replaying its step load every
    ``MT_PERIOD`` seconds for the whole episode."""
    return [dataclasses.replace(s, pattern=TraceLoad(
                [s.pattern.users(t % MT_PERIOD) for t in range(MT_INTERVALS)]))
            for s in default_tenant_specs(manager=MT_MANAGER)]


class MultiTenant(Workload):
    """``run_multitenant_episode`` over the three default tenant apps."""

    name = "multitenant"
    interval_span = "tenancy.simulator.step"

    def probe(self) -> None:
        # No tenant runs a learned model, and each autoscale decide() is
        # 40-65 us, too short to time steadily; a decision here is one
        # lockstep interval: every tenant's proposal, the arbitration and
        # the tenants' simulator steps.
        self._arbitrations: list = []
        time_calls(self.probes, "repro.tenancy.simulator:MultiTenantSimulator.step",
                   self.calls)
        capture(self.probes, _ARBITRATE, self._arbitrations)

    def setup(self) -> None:
        self.specs = multitenant_specs()
        run_multitenant_episode(self.specs, MT_BUDGET_CPU, 3 * WARMUP,
                                seed=self.episode_seed + 1)

    def run_unit(self) -> None:
        self.calls.clear()
        self._arbitrations.clear()
        result = run_multitenant_episode(
            self.specs, MT_BUDGET_CPU, MT_INTERVALS, seed=self.episode_seed)
        grants = [({name: g.grant for name, g in decision.grants.items()},
                   {r.tenant: r.floor for r in args[1]})
                  for args, _, decision in self._arbitrations]
        self.units.append((result, grants))

    def finish(self) -> dict:
        result, grants = self.units[0]
        outcome = {"qos_attainment": result.aggregate_qos_fraction,
                   "mean_cpu_cores": result.mean_cluster_cpu}
        applied = np.sum([t.telemetry.total_cpu_series() for t in result.tenants], axis=0)
        failures = checks.check_grants(MT_BUDGET_CPU, grants, applied)
        for later in self.units[1:]:
            failures += checks.check_same("rerun", _mt_fields(result),
                                          _mt_fields(later[0]))
        # Model quality on this workload: the served predictor scored on
        # the social_network tenant's trace (read after peak RSS).
        social = next(t for t in result.tenants if t.app == APP)
        outcome["rmse_val_ms"], outcome["bt_accuracy_val"] = evaluate_on_trace(
            served_predictor(), [social.telemetry])
        return {
            "outcome": outcome,
            "attempted": len(self.units),
            "failed": len(failures),
            "failures": failures,
            "record": {"budget_cpu": MT_BUDGET_CPU, "manager": MT_MANAGER,
                       "contended_frac": result.contended_fraction},
        }

    def counts(self) -> dict[str, float]:
        result, _ = self.units[-1]
        logs = [t.telemetry for t in result.tenants]
        scored = result.duration - result.warmup
        return {
            **sim_counts(np.concatenate([log.rps_series() for log in logs]),
                         np.array([s.drops for log in logs for s in log])),
            "tenancy.arbiter.contended_frac": result.contended_fraction,
            "tenancy.arbiter.knapsack_frac": result.mode_counts.get("knapsack", 0) / scored,
        }


def _mt_fields(result) -> dict:
    return {t.tenant: t.telemetry.alloc_matrix() for t in result.tenants}


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Train, Control, MultiTenant)
}

__all__ = [
    "APP",
    "SERVED_BUDGET",
    "SERVED_SEED",
    "WORKLOADS",
    "Workload",
    "build_reference_dataset",
    "multitenant_specs",
    "pickle_mb",
    "shard_seed",
]
