"""Boosted-trees classifier tests."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.harness.bench import _grow_tree
from repro.ml.boosted_trees import (
    BoostedTrees,
    BoostedTreesConfig,
    _compile_trees,
    _Node,
)
from tests.ml.test_layers import assert_same_bytes
from tests.oracles.decision import predict_margin_reference
from tests.oracles.training import ReferenceBoostedTrees, assert_same_structure


def blobs(n=1000, seed=0):
    """Nonlinearly separable binary problem."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 6))
    y = ((X[:, 0] + 0.5 * X[:, 1] ** 2 - 0.3 * X[:, 2]) > 0.4).astype(float)
    return X, y


class TestTraining:
    def test_learns_nonlinear_boundary(self):
        X, y = blobs(1500)
        bt = BoostedTrees(BoostedTreesConfig(n_trees=150), seed=0)
        bt.fit(X[:1200], y[:1200], X[1200:], y[1200:])
        assert bt.val_accuracy > 0.9
        assert bt.train_accuracy >= bt.val_accuracy - 0.05

    def test_early_stopping_limits_trees(self):
        X, y = blobs(800)
        config = BoostedTreesConfig(n_trees=400, early_stopping_rounds=10)
        bt = BoostedTrees(config, seed=0).fit(X[:600], y[:600], X[600:], y[600:])
        assert 0 < bt.n_trees_used <= 400

    def test_degenerate_single_class(self):
        X = np.random.default_rng(0).normal(size=(50, 3))
        y = np.zeros(50)
        bt = BoostedTrees(seed=0).fit(X, y)
        assert bt.n_trees_used == 0
        assert np.all(bt.predict_proba(X) < 0.5)
        assert bt.train_accuracy == 1.0

    def test_input_validation(self):
        bt = BoostedTrees()
        with pytest.raises(ValueError):
            bt.fit(np.ones((3, 2)), np.ones(4))
        with pytest.raises(ValueError):
            bt.fit(np.ones(3), np.ones(3))

    def test_fit_without_validation_set(self):
        X, y = blobs(300)
        bt = BoostedTrees(BoostedTreesConfig(n_trees=20), seed=0).fit(X, y)
        assert bt.n_trees_used == 20
        assert np.isnan(bt.val_accuracy)

    def test_min_child_weight_regularizes(self):
        X, y = blobs(400)
        loose = BoostedTrees(BoostedTreesConfig(n_trees=50, min_child_weight=0.001), seed=0)
        tight = BoostedTrees(BoostedTreesConfig(n_trees=50, min_child_weight=20.0), seed=0)
        loose.fit(X, y)
        tight.fit(X, y)
        assert loose.train_accuracy >= tight.train_accuracy


class TestInference:
    def test_probabilities_in_unit_interval(self):
        X, y = blobs(500)
        bt = BoostedTrees(BoostedTreesConfig(n_trees=40), seed=1).fit(X, y)
        probs = bt.predict_proba(X)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_predict_threshold(self):
        X, y = blobs(500)
        bt = BoostedTrees(BoostedTreesConfig(n_trees=40), seed=1).fit(X, y)
        strict = bt.predict(X, threshold=0.9).sum()
        loose = bt.predict(X, threshold=0.1).sum()
        assert loose >= strict

    def test_single_row_input(self):
        X, y = blobs(300)
        bt = BoostedTrees(BoostedTreesConfig(n_trees=20), seed=0).fit(X, y)
        out = bt.predict_proba(X[0])
        assert out.shape == (1,)

    def test_margin_is_logit_of_proba(self):
        X, y = blobs(300)
        bt = BoostedTrees(BoostedTreesConfig(n_trees=20), seed=0).fit(X, y)
        margin = bt.predict_margin(X[:10])
        prob = bt.predict_proba(X[:10])
        np.testing.assert_allclose(prob, 1 / (1 + np.exp(-margin)))

    def test_compiled_matches_recursive_reference(self):
        """Vectorized array traversal == per-tree recursion, bitwise."""
        X, y = blobs(800)
        bt = BoostedTrees(BoostedTreesConfig(n_trees=60), seed=0).fit(
            X[:600], y[:600], X[600:], y[600:]
        )
        queries = np.concatenate([X[:100], X[:3] * 100.0])
        assert np.array_equal(
            bt.predict_margin(queries), predict_margin_reference(bt, queries)
        )

    def test_compiled_matches_reference_with_nan_features(self):
        """NaN comparisons are False on both paths (NaN routes right)."""
        X, y = blobs(500)
        bt = BoostedTrees(BoostedTreesConfig(n_trees=30), seed=2).fit(X, y)
        queries = X[:50].copy()
        queries[::7, 2] = np.nan
        queries[3] = np.nan
        assert np.array_equal(
            bt.predict_margin(queries), predict_margin_reference(bt, queries)
        )

    def test_compiled_survives_pickle(self):
        import pickle

        X, y = blobs(400)
        bt = BoostedTrees(BoostedTreesConfig(n_trees=25), seed=3).fit(X, y)
        clone = pickle.loads(pickle.dumps(bt))
        assert np.array_equal(clone.predict_proba(X[:20]), bt.predict_proba(X[:20]))

    def test_compile_matches_recursive_walks(self):
        """The flat descent over compiled random trees of mixed depth
        (leaves above ``max_depth`` self-loop) sums exactly the
        recursive walks of the original nodes, NaN queries included."""
        assert_random_trees_match_walks()

    def test_fitted_model_holds_compiled_arrays_only(self):
        """Growth state and ``_Node`` trees stay inside ``fit``."""
        X, y = blobs(300)
        bt = BoostedTrees(BoostedTreesConfig(n_trees=10), seed=0).fit(X, y)
        assert set(vars(bt)) == {
            "config", "_rng", "base_margin", "_compiled",
            "train_accuracy", "val_accuracy",
        }
        assert bt.n_trees_used == len(bt._compiled.roots) == 10

    def test_vectorized_binize_matches_searchsorted(self):
        """The one-pass binning equals per-feature searchsorted, NaN
        rows included (NaN lands in the overflow bin)."""
        rng = np.random.default_rng(5)
        X = rng.normal(size=(300, 7))
        X[::11, 3] = np.nan
        bt = BoostedTrees(BoostedTreesConfig(n_bins=16), seed=0)
        bt._bin_edges = bt._make_bins(np.nan_to_num(X))
        edges = bt._bin_edges
        binned = bt._binize(X)
        for f, cuts in enumerate(edges):
            want = np.searchsorted(cuts, X[:, f], side="right")
            nan = np.isnan(X[:, f])
            want[nan] = len(cuts)
            np.testing.assert_array_equal(binned[:, f], want)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_property_calibrated_direction(self, seed):
        """Higher signal feature should not reduce violation probability
        on a monotone problem."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(300, 2))
        y = (X[:, 0] > 0).astype(float)
        bt = BoostedTrees(BoostedTreesConfig(n_trees=20), seed=0).fit(X, y)
        low = bt.predict_proba(np.array([[-2.0, 0.0]]))[0]
        high = bt.predict_proba(np.array([[2.0, 0.0]]))[0]
        assert high >= low


def assert_random_trees_match_walks():
    """Compiled random trees of depths 0 to 6 against the recursive
    walks of their ``_Node`` originals."""
    rng = np.random.default_rng(11)
    trees = [_grow_tree(rng, 5, depth) for depth in (0, 3, 1, 6, 2, 6, 4)]
    bt = BoostedTrees(seed=0)
    bt.base_margin = -0.3
    bt._compiled = _compile_trees(trees)
    assert bt._compiled.max_depth == 6
    assert bt.n_trees_used == len(trees)
    queries = rng.normal(0.0, 1.0, size=(200, 5))
    queries[::9, 1] = np.nan
    queries[4] = np.nan
    want = np.full(len(queries), bt.base_margin)
    for tree in trees:
        want += bt._predict_tree(tree, queries)
    assert np.array_equal(bt.predict_margin(queries), want)


def hand_tree(threshold=0.0):
    """Splits on feature 0 at ``threshold``; the left child splits on
    feature 5 at 0.5."""
    return _Node(
        feature=0,
        threshold=threshold,
        left=_Node(
            feature=5, threshold=0.5, left=_Node(value=1.0), right=_Node(value=2.0)
        ),
        right=_Node(value=0.5),
    )


def ensemble(trees, base_margin=-0.3):
    bt = BoostedTrees(seed=0)
    bt.base_margin = base_margin
    bt._compiled = _compile_trees(trees)
    return bt


def assert_margins_match_walks(bt, X):
    """``predict_margin`` on ``X`` equals the recursive walks byte for
    byte (the walks see ``X`` as a float64 array)."""
    want = predict_margin_reference(bt, np.asarray(X, dtype=float))
    assert_same_bytes(bt.predict_margin(X), want)


class TestDescentBackends:
    """The kernel's descent and the numpy descent (one ``backend`` each)
    against the recursive walks: byte for byte, on every input the
    decision path can hand them."""

    @pytest.fixture(scope="class")
    def fitted(self):
        X, y = blobs(600)
        bt = BoostedTrees(BoostedTreesConfig(n_trees=30), seed=4).fit(X, y)
        return bt, X[:64]

    def test_random_trees_match_recursive_walks(self, backend):
        assert_random_trees_match_walks()

    def test_fitted_ensemble_matches_walks(self, backend, fitted):
        bt, X = fitted
        assert_margins_match_walks(bt, np.concatenate([X, X[:3] * 100.0]))

    def test_missing_feature_columns_raise(self, backend):
        """Row 0 reaches the split on feature 5, which a 5-column X does
        not have: an error, not the next row's first value."""
        bt = ensemble([hand_tree()], base_margin=0.0)
        X = np.array([[-1.0, 0, 0, 0, 0], [9.0, 0, 0, 0, 0]])
        with pytest.raises(ValueError, match="split on column 5"):
            bt.predict_margin(X)
        with pytest.raises(ValueError, match="split on column 5"):
            bt.predict_margin(X[:1])
        wide = np.hstack([X, np.full((2, 1), 0.7)])
        assert_same_bytes(bt.predict_margin(wide), np.array([2.0, 0.5]))

    def test_leaf_only_ensemble_needs_no_columns(self, backend):
        bt = ensemble([_Node(value=0.25), _Node(value=-1.5)])
        assert bt._compiled.max_depth == 0
        assert_margins_match_walks(bt, np.empty((3, 0)))
        assert_margins_match_walks(bt, np.ones((2, 4)))

    def test_special_values(self, backend, fitted):
        """NaN goes right, ±inf like any number, -0.0 like 0.0."""
        bt, X = fitted
        X = X.copy()
        X[::5, 0] = np.nan
        X[1::5, 1] = np.inf
        X[2::5, 2] = -np.inf
        X[3::5] = -0.0
        X[4] = np.nan
        assert_margins_match_walks(bt, X)
        signed_zeros = ensemble([hand_tree(0.0), hand_tree(-0.0)])
        assert_margins_match_walks(
            signed_zeros, [[-0.0] * 6, [0.0] * 6, [np.nan] * 6]
        )

    def test_value_equal_to_threshold_goes_left(self, backend, fitted):
        bt, X = fitted
        c = bt._compiled
        split = np.flatnonzero(c.children[:, 0] != np.arange(len(c.children)))
        X = np.repeat(X[:1], len(split), axis=0)
        X[np.arange(len(split)), c.feature[split]] = c.threshold[split]
        assert_margins_match_walks(bt, X)
        got = ensemble([hand_tree(2.0)]).predict_margin([[2.0, 0, 0, 0, 0, 0.5]])
        assert_same_bytes(got, np.array([-0.3 + 1.0]))

    @pytest.mark.parametrize("n", [0, 1, 15, 16, 17])
    def test_row_counts(self, backend, fitted, n):
        bt, X = fitted
        assert_margins_match_walks(bt, X[:n])

    def test_single_row_as_vector(self, backend, fitted):
        bt, X = fitted
        assert_same_bytes(bt.predict_margin(X[7]), bt.predict_margin(X[7:8]))

    def test_depth_zero_tree_among_deeper_ones(self, backend):
        rng = np.random.default_rng(3)
        trees = [_Node(value=0.125)] + [_grow_tree(rng, 6, d) for d in (2, 0, 4)]
        bt = ensemble(trees)
        assert_margins_match_walks(bt, rng.normal(size=(40, 6)))

    @pytest.mark.parametrize(
        "layout",
        [
            np.asfortranarray,
            lambda X: np.repeat(X, 2, axis=1)[:, ::2],
            lambda X: X[::3],
            lambda X: np.round(X * 3).astype(np.int64),
        ],
        ids=["fortran", "column-slice", "row-slice", "integer"],
    )
    def test_input_layouts(self, backend, fitted, layout):
        bt, X = fitted
        assert_margins_match_walks(bt, layout(X))


def _fit_pair(config, X, y, X_val=None, y_val=None, seed=0):
    """The same fit twice: histogram grower vs reference grower.

    The production fit must not warn for any valid config; the oracle
    divides 0/0 in empty bins when ``reg_lambda == 0`` (and masks the
    result), so its warnings are silenced.
    """
    fast = BoostedTrees(config, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fast.fit(X, y, X_val, y_val)
    ref = ReferenceBoostedTrees(config, seed=seed)
    with np.errstate(divide="ignore", invalid="ignore"):
        ref.fit(X, y, X_val, y_val)
    return fast, ref


class TestHistogramGrower:
    """The level-wise histogram grower is a drop-in for the reference."""

    def test_matches_reference_with_validation(self):
        X, y = blobs(900, seed=4)
        fast, ref = _fit_pair(
            BoostedTreesConfig(n_trees=40), X[:700], y[:700], X[700:], y[700:]
        )
        assert_same_structure(fast, ref)
        assert np.array_equal(fast.predict_margin(X), ref.predict_margin(X))

    def test_matches_reference_without_validation(self):
        X, y = blobs(500, seed=5)
        fast, ref = _fit_pair(BoostedTreesConfig(n_trees=30), X, y)
        assert_same_structure(fast, ref)
        assert np.array_equal(fast.predict_margin(X), ref.predict_margin(X))

    @pytest.mark.parametrize(
        "config",
        [
            BoostedTreesConfig(n_trees=15, min_child_weight=5.0),
            BoostedTreesConfig(n_trees=15, gamma=0.5),
            BoostedTreesConfig(n_trees=15, max_depth=1),
            BoostedTreesConfig(n_trees=15, n_bins=8),
            BoostedTreesConfig(n_trees=15, reg_lambda=0.0),
            BoostedTreesConfig(n_trees=15, min_child_weight=0.01),
        ],
        ids=["mcw", "gamma", "stumps", "coarse-bins", "no-lambda", "tiny-mcw"],
    )
    def test_matches_reference_across_configs(self, config):
        X, y = blobs(400, seed=6)
        fast, ref = _fit_pair(config, X, y)
        assert_same_structure(fast, ref)

    def test_matches_reference_with_duplicate_columns(self):
        """Duplicated features force exact cross-feature gain ties; the
        tie-break must still follow the reference (first feature wins)."""
        X, y = blobs(400, seed=7)
        X = np.hstack([X, X[:, :3]])
        fast, ref = _fit_pair(BoostedTreesConfig(n_trees=20), X, y)
        assert_same_structure(fast, ref)

    def test_matches_reference_with_discrete_features(self):
        """Few distinct values: most bins empty, ties everywhere."""
        rng = np.random.default_rng(8)
        X = rng.integers(0, 4, size=(300, 5)).astype(float)
        y = ((X[:, 0] + X[:, 1] >= 4) ^ (rng.random(300) < 0.1)).astype(float)
        fast, ref = _fit_pair(BoostedTreesConfig(n_trees=25), X, y)
        assert_same_structure(fast, ref)

    def test_degenerate_regularization_rejected(self):
        """λ=0 with mcw=0 leaves empty-bin gains at 0/0: no grower can
        rank splits, so the config is refused at construction."""
        with pytest.raises(ValueError, match="min_child_weight and reg_lambda"):
            BoostedTreesConfig(n_trees=5, reg_lambda=0.0, min_child_weight=0.0)
        with pytest.raises(ValueError, match="reg_lambda=-1.0"):
            BoostedTreesConfig(reg_lambda=-1.0, min_child_weight=-2.0)

    def test_binize_chunked_matches_unchunked(self):
        """Row-chunked binning is exact under ragged per-feature bin
        counts (constant and low-cardinality columns dedupe edges)."""
        rng = np.random.default_rng(10)
        X = np.column_stack([
            rng.normal(size=200),
            np.full(200, 3.14),
            rng.integers(0, 3, 200).astype(float),
            rng.exponential(size=200),
        ])
        bt = BoostedTrees(BoostedTreesConfig(n_bins=16))
        bt._bin_edges = bt._make_bins(X)
        whole = bt._binize(X)
        assert whole.dtype == np.int32
        for chunk in (1, 7, 200, 1000):
            chunked = bt._binize(X, chunk_rows=chunk)
            assert chunked.dtype == np.int32
            assert np.array_equal(chunked, whole)
