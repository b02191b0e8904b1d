"""Fixtures shared by the observability benchmark and tests.

:func:`make_synthetic_predictor` builds a production-sized predictor
(full ``CNNConfig``, hundreds of trees) with fabricated weights, so
inference-path checks run in seconds instead of waiting for a trained
model; :func:`resolve_output` anchors benchmark result files to the
repository root.  Timing of the real workflows lives in
``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.predictor import HybridPredictor, PredictorConfig, TrainingReport
from repro.harness.pipeline import app_spec
from repro.ml.boosted_trees import _compile_trees, _Node
from repro.ml.dataset import SinanDataset
from repro.ml.network import FitResult


def repo_root() -> Path:
    """Repository root, for anchoring relative benchmark outputs.

    Resolved from this file's location (``src/repro/harness`` is three
    levels below the checkout root, marked by ``pyproject.toml``) so
    benchmarks write ``BENCH_*.json`` to the same place no matter the
    caller's working directory.  Falls back to the CWD for installed,
    non-checkout layouts.
    """
    root = Path(__file__).resolve().parents[3]
    if (root / "pyproject.toml").exists():
        return root
    return Path.cwd()


def resolve_output(output: str | Path) -> Path:
    """Absolute path for a benchmark result file: absolute paths are
    taken as-is, relative ones anchor to :func:`repo_root`."""
    path = Path(output)
    return path if path.is_absolute() else repo_root() / path


@dataclass(frozen=True)
class BenchConfig:
    """Shape of a synthetic predictor and of the episode that uses it."""

    app: str = "social_network"
    n_timesteps: int = 5
    seed: int = 0
    n_trees: int = 300
    tree_depth: int = 6
    decision_intervals: int = 25


def _grow_tree(rng: np.random.Generator, n_features: int, depth: int) -> _Node:
    """A random decision tree over standard-normal features."""
    if depth == 0:
        return _Node(value=float(rng.normal(0.0, 0.05)))
    return _Node(
        feature=int(rng.integers(n_features)),
        threshold=float(rng.normal(0.0, 0.7)),
        left=_grow_tree(rng, n_features, depth - 1),
        right=_grow_tree(rng, n_features, depth - 1),
    )


def make_synthetic_predictor(config: BenchConfig) -> HybridPredictor:
    """A production-sized predictor with fabricated weights.

    Fitting 300+ trees takes minutes; growing random ones takes
    milliseconds and exercises exactly the same inference code.  The
    normalizer is fitted on a small random dataset and the training
    report is stubbed so the scheduler's ``thresholds``/``rmse_val``
    accessors work.
    """
    spec = app_spec(config.app)
    graph = spec.graph_factory()
    rng = np.random.default_rng(config.seed)
    predictor = HybridPredictor(
        graph,
        spec.qos,
        PredictorConfig(n_timesteps=config.n_timesteps),
        seed=config.seed,
    )

    n, f, t = graph.n_tiers, predictor.encoder.n_channels, config.n_timesteps
    m = predictor.cnn.n_percentiles
    calib = SinanDataset(
        X_RH=np.abs(rng.normal(2.0, 1.0, (64, f, n, t))),
        X_LH=np.abs(rng.normal(spec.qos.latency_ms / 2, 20.0, (64, t, m))),
        X_RC=np.abs(rng.normal(2.0, 0.5, (64, n))),
        y_lat=np.abs(rng.normal(spec.qos.latency_ms / 2, 20.0, (64, m))),
        y_viol=rng.integers(0, 2, 64).astype(float),
        meta={},
    )
    predictor.normalizer.fit(calib)

    n_bt_features = predictor.cnn.config.latent_dim + 3 * n + m
    predictor.trees.trees = [
        _grow_tree(rng, n_bt_features, config.tree_depth)
        for _ in range(config.n_trees)
    ]
    predictor.trees.base_margin = -1.0
    predictor.trees._compiled = _compile_trees(predictor.trees.trees)

    predictor.report = TrainingReport(
        cnn_fit=FitResult(),
        rmse_train=8.0,
        rmse_val=10.0,
        bt_accuracy_train=0.95,
        bt_accuracy_val=0.93,
        bt_trees=config.n_trees,
        bt_false_pos_val=0.05,
        bt_false_neg_val=0.01,
        p_up=0.08,
        p_down=0.02,
        n_train=1000,
        n_val=100,
    )
    return predictor
