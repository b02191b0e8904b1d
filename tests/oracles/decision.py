"""Oracle for the decision path: the pre-optimization scoring pipeline.

The reference path materializes B copies of the history window
(:func:`encode_candidates`), runs the full CNN batch, and walks every
boosted tree recursively (:func:`predict_margin_reference`, over
``_Node`` trees rebuilt from the compiled arrays).  The production path
— shared-history encoding, shared-trunk CNN and the flat tree descent —
must match it bitwise (``tests/core/test_fast_path.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.features import WindowEncoder, sanitize_window
from repro.core.predictor import HybridPredictor
from repro.ml.boosted_trees import BoostedTrees, _CompiledEnsemble, _Node
from repro.sim.telemetry import TelemetryLog


def encode_candidates(
    encoder: WindowEncoder, log: TelemetryLog, candidates: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Encode a batch of candidate allocations sharing one history.

    ``candidates`` has shape ``(B, N)``; the history tensors are
    broadcast, so one CNN forward evaluates every allocation the
    scheduler is considering.
    """
    window = sanitize_window(log.window(encoder.n_timesteps))
    x_rh = np.stack([s.resource_matrix() for s in window], axis=2)
    x_lh = np.stack([s.latency_ms for s in window], axis=0)
    b = len(candidates)
    return (
        np.broadcast_to(x_rh, (b, *x_rh.shape)).copy(),
        np.broadcast_to(x_lh, (b, *x_lh.shape)).copy(),
        np.asarray(candidates, dtype=float),
    )


def rebuild_trees(compiled: _CompiledEnsemble | None) -> list[_Node]:
    """The recursive ``_Node`` trees a compiled ensemble was made from.

    A node whose children both point at itself is a leaf."""
    if compiled is None:
        return []

    def node(i: int) -> _Node:
        left, right = (int(c) for c in compiled.children[i])
        if left == i and right == i:
            return _Node(value=float(compiled.value[i]))
        return _Node(
            feature=int(compiled.feature[i]),
            threshold=float(compiled.threshold[i]),
            left=node(left),
            right=node(right),
        )

    return [node(int(root)) for root in compiled.roots]


def predict_margin_reference(trees: BoostedTrees, X: np.ndarray) -> np.ndarray:
    """The slow path: per-tree recursive walks (equivalence oracle)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    margin = np.full(len(X), trees.base_margin)
    for tree in rebuild_trees(trees._compiled):
        margin += trees._predict_tree(tree, X)
    return margin


def predict_proba_reference(trees: BoostedTrees, X: np.ndarray) -> np.ndarray:
    """p_V via the recursive per-tree walk (equivalence oracle), through
    the logistic as one expression."""
    margin = predict_margin_reference(trees, X)
    return 1.0 / (1.0 + np.exp(-np.clip(margin, -60.0, 60.0)))


def predict_candidates_reference(
    predictor: HybridPredictor, log: TelemetryLog, candidates: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The pre-optimization scoring path, kept as equivalence oracle:
    materializes B copies of the history window and runs the full
    CNN batch plus the recursive tree walk."""
    x_rh, x_lh, x_rc = encode_candidates(predictor.encoder, log, candidates)
    inputs = predictor._model_inputs(x_rh, x_lh, x_rc)
    latency, latent = predictor.cnn.predict_with_latent(inputs)
    prob = predict_proba_reference(
        predictor.trees, predictor._bt_features(latent, x_rh, x_lh, inputs[2])
    )
    return latency, prob


class ReferencePredictor(HybridPredictor):
    """A predictor whose candidate scoring is the reference path."""

    def predict_candidates(
        self, log: TelemetryLog, candidates: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        return predict_candidates_reference(self, log, candidates)


def use_reference_predictor(predictor: HybridPredictor) -> HybridPredictor:
    """Switch ``predictor`` in place to the reference scoring path."""
    predictor.__class__ = ReferencePredictor
    return predictor
