"""From-scratch numpy ML substrate.

The paper implements its models in MXNet (CNN) and XGBoost (Boosted
Trees); neither is available here, so this package provides equivalent
implementations built on numpy only:

* :mod:`repro.ml.layers` / :mod:`repro.ml.network` — dense, convolution,
  LSTM building blocks with manual backprop, plus a ``Sequential``
  composition and training loop,
* :mod:`repro.ml.losses` — squared loss and the paper's latency-scaling
  function (Eq. 2) that biases learning toward the QoS-relevant range,
* :mod:`repro.ml.cnn` — the short-term latency predictor (paper Fig. 5),
* :mod:`repro.ml.mlp`, :mod:`repro.ml.lstm` — the Table 2 comparison
  models,
* :mod:`repro.ml.multitask` — the rejected joint model of Figure 4,
* :mod:`repro.ml.boosted_trees` — the long-term violation predictor,
  a gradient-boosted-trees classifier with Newton leaf weights,
* :mod:`repro.ml.dataset`, :mod:`repro.ml.metrics` — containers and
  evaluation metrics.
"""

from repro._lazy import lazy_exports

#: Exported name -> defining module, imported on first use.
_EXPORTS = {
    "SinanDataset": "repro.ml.dataset",
    "TrainValSplit": "repro.ml.dataset",
    "LatencyScaler": "repro.ml.losses",
    "MSELoss": "repro.ml.losses",
    "ScaledMSELoss": "repro.ml.losses",
    "rmse": "repro.ml.metrics",
    "error_rate": "repro.ml.metrics",
    "accuracy": "repro.ml.metrics",
    "false_positive_rate": "repro.ml.metrics",
    "false_negative_rate": "repro.ml.metrics",
    "LatencyCNN": "repro.ml.cnn",
    "CNNConfig": "repro.ml.cnn",
    "LatencyMLP": "repro.ml.mlp",
    "LatencyLSTM": "repro.ml.lstm",
    "MultiTaskNN": "repro.ml.multitask",
    "BoostedTrees": "repro.ml.boosted_trees",
    "BoostedTreesConfig": "repro.ml.boosted_trees",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
