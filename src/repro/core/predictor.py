"""The hybrid model: CNN short-term latency predictor + Boosted-Trees
long-term violation predictor (paper Figure 5).

The CNN predicts the next interval's tail latencies (p95-p99) from the
resource/latency history and a candidate allocation; the Boosted Trees
reuse the CNN's compact latent variable ``L_f`` (plus the candidate
allocation) to classify whether that allocation leads to a QoS violation
within the next ``k`` intervals.  Keeping the two tasks in separate
models avoids the semantic-gap overprediction of the joint multi-task
network (Figure 4) and lets each model be regularized for its own
objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.features import WindowEncoder
from repro.core.qos import QoSTarget
from repro.sim.telemetry import CPU_ALLOC_CHANNEL, CPU_UTIL_CHANNEL
from repro.ml.boosted_trees import BoostedTrees, BoostedTreesConfig
from repro.ml.cnn import CNNConfig, LatencyCNN
from repro.ml.dataset import FeatureNormalizer, SinanDataset, TrainValSplit
from repro.ml.losses import LatencyScaler, ScaledMSELoss
from repro.ml.metrics import (
    false_negative_rate,
    false_positive_rate,
    rmse,
)
from repro.ml.network import FitResult
from repro.sim.graph import AppGraph
from repro.sim.telemetry import TelemetryLog


@dataclass(frozen=True)
class PredictorConfig:
    """Hyper-parameters of the hybrid model."""

    n_timesteps: int = 5
    horizon: int = 3
    epochs: int = 40
    batch_size: int = 512
    lr: float = 0.003
    weight_decay: float = 1e-5
    patience: int = 8
    scaler_alpha: float | None = None
    """Eq. 2 alpha; ``None`` derives it from QoS (ceiling at 2x QoS)."""

    label_cap_frac: float = 2.4
    """CNN regression trains only on samples whose next-interval p99 is
    below ``label_cap_frac * QoS`` — the exploration region of the data
    collector.  Timeout-plateau samples (dropped requests) stay in the
    Boosted-Trees training set as violation labels but would only teach
    the regressor to predict the client timeout constant."""

    cnn: CNNConfig = field(default_factory=CNNConfig)
    trees: BoostedTreesConfig = field(default_factory=BoostedTreesConfig)


@dataclass
class TrainingReport:
    """Everything the paper reports about model quality (Tables 2-3)."""

    cnn_fit: FitResult
    rmse_train: float
    rmse_val: float
    bt_accuracy_train: float
    bt_accuracy_val: float
    bt_trees: int
    bt_false_pos_val: float
    bt_false_neg_val: float
    p_up: float
    p_down: float
    n_train: int
    n_val: int


class HybridPredictor:
    """CNN + Boosted Trees with a shared feature pipeline."""

    def __init__(
        self,
        graph: AppGraph,
        qos: QoSTarget,
        config: PredictorConfig | None = None,
        seed: int = 0,
    ) -> None:
        self.graph = graph
        self.qos = qos
        self.config = config or PredictorConfig()
        self.seed = seed
        self.encoder = WindowEncoder(graph, self.config.n_timesteps)
        self.normalizer = FeatureNormalizer(qos.latency_ms)
        alpha = (
            self.config.scaler_alpha
            if self.config.scaler_alpha is not None
            else 1.0 / qos.latency_ms
        )
        self.scaler = LatencyScaler(t=qos.latency_ms, alpha=alpha)
        self.cnn = LatencyCNN(
            n_tiers=graph.n_tiers,
            n_timesteps=self.config.n_timesteps,
            n_channels=self.encoder.n_channels,
            n_percentiles=len(qos_percentiles()),
            config=self.config.cnn,
            seed=seed,
            # The candidate allocation is delta-encoded next to its
            # absolute value: [candidate, candidate - current], which
            # makes the network's sensitivity to the *change* explicit.
            n_rc_features=2 * graph.n_tiers,
        )
        self.trees = BoostedTrees(self.config.trees, seed=seed)
        self.report: TrainingReport | None = None

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def train(
        self,
        dataset: SinanDataset,
        train_frac: float = 0.9,
        seed: int | None = None,
    ) -> TrainingReport:
        """Train CNN then Boosted Trees (paper: in that order), 9:1 split."""
        rng = np.random.default_rng(self.seed if seed is None else seed)
        split = dataset.split(train_frac, rng)
        return self._train_on_split(split, lr=self.config.lr, epochs=self.config.epochs)

    def _model_inputs(
        self, x_rh: np.ndarray, x_lh: np.ndarray, x_rc: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Normalized CNN inputs from raw feature arrays.

        The candidate-allocation branch receives both the absolute
        candidate and its delta from the currently applied allocation
        (read off the resource-history tensor's alloc channel).
        """
        rh, lh, rc = self.normalizer.transform(x_rh, x_lh, x_rc)
        current = x_rh[:, CPU_ALLOC_CHANNEL, :, -1]
        delta = (x_rc - current) / self.normalizer.rc_scale
        return rh, lh, np.concatenate([rc, delta], axis=1)

    def _bt_features(
        self,
        latent: np.ndarray,
        x_rh: np.ndarray,
        x_lh: np.ndarray,
        x_rc: np.ndarray,
    ) -> np.ndarray:
        """Violation-predictor input: the CNN latent plus the candidate
        allocation, current utilization, and current latency level."""
        rc = x_rc / self.normalizer.rc_scale
        current = x_rh[:, CPU_ALLOC_CHANNEL, :, -1]
        delta = (x_rc - current) / self.normalizer.rc_scale
        util = x_rh[:, CPU_UTIL_CHANNEL, :, -1]
        lat = x_lh[:, -1, :] / self.qos.latency_ms
        b = len(latent)
        if len(util) != b:
            # Shared history (predict_candidates): one history row
            # serves the whole candidate batch; broadcasting is a
            # zero-copy view and the per-row values are bitwise those of
            # an explicit tile.
            util = np.broadcast_to(util, (b, util.shape[1]))
            lat = np.broadcast_to(lat, (b, lat.shape[1]))
        return np.concatenate([latent, rc, delta, util, lat], axis=1)

    def _train_on_split(
        self, split: TrainValSplit, lr: float, epochs: int
    ) -> TrainingReport:
        cfg = self.config
        if not self.normalizer.fitted:
            self.normalizer.fit(split.train)
        train, val = split.train, split.val
        train_in = self._model_inputs(train.X_RH, train.X_LH, train.X_RC)
        val_in = self._model_inputs(val.X_RH, val.X_LH, val.X_RC)

        # CNN regression: only the exploration region (see label_cap_frac).
        cap = cfg.label_cap_frac * self.qos.latency_ms
        reg_train = train.filter_latency_below(cap)
        reg_val = val.filter_latency_below(cap)
        if len(reg_train) == 0 or len(reg_val) == 0:
            raise ValueError(
                "no training samples below the latency cap; collect data "
                "closer to the QoS boundary"
            )
        fit = self.cnn.fit(
            self._model_inputs(reg_train.X_RH, reg_train.X_LH, reg_train.X_RC),
            reg_train.y_lat,
            self._model_inputs(reg_val.X_RH, reg_val.X_LH, reg_val.X_RC),
            reg_val.y_lat,
            loss=ScaledMSELoss(self.scaler),
            epochs=epochs,
            batch_size=cfg.batch_size,
            lr=lr,
            weight_decay=cfg.weight_decay,
            patience=cfg.patience,
            seed=self.seed,
        )

        latent_train = self.cnn.latent(train_in)
        latent_val = self.cnn.latent(val_in)
        bt_train = self._bt_features(latent_train, train.X_RH, train.X_LH, train.X_RC)
        bt_val = self._bt_features(latent_val, val.X_RH, val.X_LH, val.X_RC)
        self.trees.fit(bt_train, train.y_viol, bt_val, val.y_viol)

        val_prob = self.trees.predict_proba(bt_val)
        p_up, p_down = self._calibrate_thresholds(val_prob, val.y_viol)
        pred_val = (val_prob >= 0.5).astype(float)
        # The observability score buckets are derived from rmse_val; a
        # new report (train / fine_tune / promotion) invalidates them.
        self.__dict__.pop("_lat_buckets", None)
        self.report = TrainingReport(
            cnn_fit=fit,
            rmse_train=fit.train_rmse_final,
            rmse_val=fit.val_rmse_final,
            bt_accuracy_train=self.trees.train_accuracy,
            bt_accuracy_val=self.trees.val_accuracy,
            bt_trees=self.trees.n_trees_used,
            bt_false_pos_val=false_positive_rate(pred_val, val.y_viol),
            bt_false_neg_val=false_negative_rate(pred_val, val.y_viol),
            p_up=p_up,
            p_down=p_down,
            n_train=len(split.train),
            n_val=len(split.val),
        )
        return self.report

    @staticmethod
    def _calibrate_thresholds(
        val_prob: np.ndarray, val_labels: np.ndarray, max_fn: float = 0.01
    ) -> tuple[float, float]:
        """Pick (p_up, p_down) from validation probabilities.

        ``p_up`` is set so that classifying "violation" at that threshold
        misses at most ``max_fn`` of validation violations (paper: false
        negatives no greater than 1%); ``p_down`` is lower, favoring
        stable allocations.
        """
        viol_probs = val_prob[val_labels > 0.5]
        if len(viol_probs) == 0:
            p_up = 0.5
        else:
            p_up = float(np.quantile(viol_probs, max_fn))
            p_up = float(np.clip(p_up, 0.02, 0.9))
        p_down = max(p_up / 4.0, 0.005)
        return p_up, p_down

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def predict_raw(
        self, x_rh: np.ndarray, x_lh: np.ndarray, x_rc: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Latency (B, M) in ms and violation probability (B,) for raw
        (unnormalized) feature batches."""
        inputs = self._model_inputs(x_rh, x_lh, x_rc)
        latency, latent = self.cnn.predict_with_latent(inputs)
        prob = self.trees.predict_proba(
            self._bt_features(latent, x_rh, x_lh, x_rc)
        )
        return latency, prob

    def predict_candidates(
        self, log: TelemetryLog, candidates: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Score candidate allocations against the live telemetry window.

        The telemetry window is encoded once (zero-copy, incrementally
        cached) and the conv trunk runs a single time per decision
        instead of once per candidate.  The results are bitwise those of
        scoring every candidate with its own copy of the history (the
        reference path in ``tests/oracles/decision.py``).
        """
        x_rh, x_lh, x_rc = self.encoder.encode_candidates_shared(
            log, candidates
        )
        rh, lh, rc = self._model_inputs(x_rh, x_lh, x_rc)
        latency, latent = self.cnn.predict_candidates((rh, lh, rc))
        prob = self.trees.predict_proba(
            self._bt_features(latent, x_rh, x_lh, x_rc)
        )
        recorder = self.__dict__.get("recorder")
        if recorder is not None and recorder.enabled:
            self._report_scores(recorder, latency, prob)
        return latency, prob

    def _report_scores(self, recorder, latency, prob) -> None:
        """Record one scored candidate batch (metrics pillar only)."""
        recorder.counter("predictor_batches_total")
        recorder.counter("predictor_candidates_total", float(latency.shape[0]))
        # The QoS metric is the highest reported percentile (p99).
        recorder.observe_many(
            "predictor_p99_ms", latency[:, -1], buckets=self._score_buckets()
        )
        recorder.observe_many(
            "predictor_violation_prob",
            prob,
            buckets=(0.005, 0.01, 0.02, 0.05, 0.08, 0.1, 0.2, 0.5, 0.9),
        )

    def _score_buckets(self) -> tuple[float, ...]:
        """Latency buckets scaled to this model's validation error."""
        buckets = self.__dict__.get("_lat_buckets")
        if buckets is None:
            base = max(float(self.rmse_val), 1.0)
            buckets = self._lat_buckets = tuple(
                round(base * f, 3)
                for f in (1.0, 2.5, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0)
            )
        return buckets

    def evaluate(self, dataset: SinanDataset) -> dict[str, float]:
        """RMSE / classification quality on an arbitrary dataset."""
        latency, prob = self.predict_raw(dataset.X_RH, dataset.X_LH, dataset.X_RC)
        pred_labels = (prob >= 0.5).astype(float)
        return {
            "rmse": rmse(latency, dataset.y_lat),
            "bt_accuracy": float(np.mean(pred_labels == dataset.y_viol)),
            "bt_false_neg": false_negative_rate(pred_labels, dataset.y_viol),
            "bt_false_pos": false_positive_rate(pred_labels, dataset.y_viol),
        }

    # ------------------------------------------------------------------

    @property
    def rmse_val(self) -> float:
        """Validation RMSE; the scheduler's latency filter uses
        ``QoS - rmse_val`` as its acceptance bound."""
        if self.report is None:
            raise RuntimeError("predictor is not trained")
        return self.report.rmse_val

    @property
    def thresholds(self) -> tuple[float, float]:
        """(p_down, p_up) calibrated on validation data."""
        if self.report is None:
            raise RuntimeError("predictor is not trained")
        return self.report.p_down, self.report.p_up

    #: On-disk serialization format.  Version 2 wraps the pickle in a
    #: tagged envelope and carries predictors whose boosted trees are
    #: compiled to arrays; bump when the stored state changes shape.
    SAVE_FORMAT = 2

    def __getstate__(self) -> dict:
        # Observability state is per-episode, not part of the model:
        # serialized predictors start detached (same shape as format-2
        # checkpoints written before instrumentation existed).
        state = dict(self.__dict__)
        state.pop("recorder", None)
        state.pop("_lat_buckets", None)
        return state

    def save(self, path) -> None:
        """Serialize the trained predictor (weights, trees, normalizer).

        The pickle is wrapped in a ``{"format", "kind", "predictor"}``
        envelope so :meth:`load` can give a precise error when handed a
        file written by an incompatible version instead of failing
        deep inside an attribute access later."""
        import pickle

        payload = {
            "format": self.SAVE_FORMAT,
            "kind": "repro.HybridPredictor",
            "predictor": self,
        }
        with open(path, "wb") as fh:
            pickle.dump(payload, fh)

    @staticmethod
    def load(path) -> "HybridPredictor":
        """Load a predictor previously stored with :meth:`save`.

        Raises ``ValueError`` for a version-tagged file with the wrong
        format number (or a pre-versioning raw pickle) and ``TypeError``
        for files that are not predictor checkpoints at all."""
        import pickle

        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        if isinstance(payload, HybridPredictor):
            raise ValueError(
                f"{path!r} is a pre-versioning predictor checkpoint "
                f"(format 1); re-train and re-save with this version "
                f"(format {HybridPredictor.SAVE_FORMAT})"
            )
        if not isinstance(payload, dict) or payload.get("kind") != "repro.HybridPredictor":
            raise TypeError(f"{path!r} does not contain a HybridPredictor")
        fmt = payload.get("format")
        if fmt != HybridPredictor.SAVE_FORMAT:
            raise ValueError(
                f"{path!r} uses predictor save format {fmt}, but this "
                f"version reads format {HybridPredictor.SAVE_FORMAT}; "
                f"re-train and re-save the predictor"
            )
        predictor = payload["predictor"]
        if not isinstance(predictor, HybridPredictor):
            raise TypeError(f"{path!r} does not contain a HybridPredictor")
        return predictor

    def fine_tune(
        self,
        dataset: SinanDataset,
        lr_scale: float = 0.01,
        epochs: int | None = None,
        train_frac: float = 0.9,
        seed: int | None = None,
    ) -> TrainingReport:
        """Incremental retraining on newly collected data (Section 5.4).

        Keeps the learnt weights and the original feature normalization,
        lowering the learning rate (the paper uses lambda/100 = 1e-5) so
        SGD stays in a nearby region of the original solution.  Also
        refits the Boosted Trees on the new latents.
        """
        rng = np.random.default_rng(self.seed if seed is None else seed)
        split = dataset.split(train_frac, rng)
        return self._train_on_split(
            split,
            lr=self.config.lr * lr_scale,
            epochs=epochs if epochs is not None else max(self.config.epochs // 2, 5),
        )


def qos_percentiles() -> tuple[int, ...]:
    """The latency percentiles the models predict (p95-p99)."""
    from repro.sim.telemetry import LATENCY_PERCENTILES

    return LATENCY_PERCENTILES


__all__ = ["HybridPredictor", "PredictorConfig", "TrainingReport"]
