"""Sinan's core: the paper's primary contribution.

* :mod:`repro.core.qos` — QoS targets and violation labelling,
* :mod:`repro.core.features` — the CNN input encoding (resource-history
  tensor, latency history, candidate allocation) and dataset building,
* :mod:`repro.core.actions` — the pruned action space of Table 1,
* :mod:`repro.core.data_collection` — the multi-armed-bandit exploration
  of the allocation space (Section 4.2) plus the autoscale/random
  collection baselines of Figure 10,
* :mod:`repro.core.predictor` — the hybrid CNN + Boosted-Trees model,
* :mod:`repro.core.scheduler` — the online scheduler (Section 4.3),
* :mod:`repro.core.sinan` — the complete manager tying it together,
* :mod:`repro.core.retrain` — incremental/transfer retraining (S. 5.4),
* :mod:`repro.core.interpret` — LIME-style explainability (S. 5.6).
"""

from repro._lazy import lazy_exports

#: Exported name -> defining module, imported on first use.
_EXPORTS = {
    "QoSTarget": "repro.core.qos",
    "WindowEncoder": "repro.core.features",
    "build_dataset": "repro.core.features",
    "ActionSpace": "repro.core.actions",
    "Action": "repro.core.actions",
    "ActionKind": "repro.core.actions",
    "HybridPredictor": "repro.core.predictor",
    "PredictorConfig": "repro.core.predictor",
    "OnlineScheduler": "repro.core.scheduler",
    "SchedulerConfig": "repro.core.scheduler",
    "Manager": "repro.core.manager",
    "StaticManager": "repro.core.manager",
    "SinanManager": "repro.core.sinan",
    "BanditExplorer": "repro.core.data_collection",
    "BanditPolicyFactory": "repro.core.data_collection",
    "AutoscaleCollectPolicy": "repro.core.data_collection",
    "RandomCollectPolicy": "repro.core.data_collection",
    "DataCollector": "repro.core.data_collection",
    "CollectionConfig": "repro.core.data_collection",
    "fine_tune_predictor": "repro.core.retrain",
    "RetrainReport": "repro.core.retrain",
    "LimeExplainer": "repro.core.interpret",
    "TierAttribution": "repro.core.interpret",
    "MemoryProvisioner": "repro.core.auxiliary",
    "BandwidthProvisioner": "repro.core.auxiliary",
    "CentralScheduler": "repro.core.deployment",
    "NodeAgent": "repro.core.deployment",
    "NodePlacement": "repro.core.deployment",
    "PredictionService": "repro.core.deployment",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
