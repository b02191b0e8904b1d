"""Boosted-trees classifier tests."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.boosted_trees import BoostedTrees, BoostedTreesConfig
from tests.oracles.decision import predict_margin_reference
from tests.oracles.training import ReferenceBoostedTrees


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

    def test_compiled_lazily_rebuilt(self):
        """Ensembles without a compiled form (e.g. old pickles) compile
        on first predict instead of falling back to recursion forever."""
        X, y = blobs(400)
        bt = BoostedTrees(BoostedTreesConfig(n_trees=25), seed=4).fit(X, y)
        want = bt.predict_margin(X[:10])
        bt._compiled = None
        assert np.array_equal(bt.predict_margin(X[:10]), want)
        assert bt._compiled is not None

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


def _assert_same_structure(fast, ref):
    """Split-for-split equality: features and thresholds exact, leaf
    weights to 1e-10 (the histogram grower's oracle contract)."""
    assert len(fast.trees) == len(ref.trees)

    def walk(a, b):
        assert (a is None) == (b is None)
        if a is None:
            return
        assert a.feature == b.feature
        if a.is_leaf:
            assert a.value == pytest.approx(b.value, abs=1e-10)
        else:
            assert a.threshold == b.threshold
        walk(a.left, b.left)
        walk(a.right, b.right)

    for ta, tb in zip(fast.trees, ref.trees):
        walk(ta, tb)


class TestHistogramGrower:
    """The level-wise histogram grower is a drop-in for the reference."""

    def test_matches_reference_with_validation(self):
        X, y = blobs(900, seed=4)
        fast, ref = _fit_pair(
            BoostedTreesConfig(n_trees=40), X[:700], y[:700], X[700:], y[700:]
        )
        _assert_same_structure(fast, ref)
        assert np.array_equal(fast.predict_margin(X), ref.predict_margin(X))

    def test_matches_reference_without_validation(self):
        X, y = blobs(500, seed=5)
        fast, ref = _fit_pair(BoostedTreesConfig(n_trees=30), X, y)
        _assert_same_structure(fast, ref)
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
        _assert_same_structure(fast, ref)

    def test_matches_reference_with_duplicate_columns(self):
        """Duplicated features force exact cross-feature gain ties; the
        tie-break must still follow the reference (first feature wins)."""
        X, y = blobs(400, seed=7)
        X = np.hstack([X, X[:, :3]])
        fast, ref = _fit_pair(BoostedTreesConfig(n_trees=20), X, y)
        _assert_same_structure(fast, ref)

    def test_matches_reference_with_discrete_features(self):
        """Few distinct values: most bins empty, ties everywhere."""
        rng = np.random.default_rng(8)
        X = rng.integers(0, 4, size=(300, 5)).astype(float)
        y = ((X[:, 0] + X[:, 1] >= 4) ^ (rng.random(300) < 0.1)).astype(float)
        fast, ref = _fit_pair(BoostedTreesConfig(n_trees=25), X, y)
        _assert_same_structure(fast, ref)

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
