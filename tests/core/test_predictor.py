"""Hybrid predictor end-to-end tests on the tiny application."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from repro.core.data_collection import (
    BanditExplorer,
    CollectionConfig,
    DataCollector,
)
from repro.core.predictor import HybridPredictor, PredictorConfig
from repro.core.qos import QoSTarget
from repro.ml.boosted_trees import _Node
from repro.ml.cnn import CNNConfig
from repro.sim import _ckernel
from tests.conftest import make_tiny_cluster, make_tiny_graph

QOS = QoSTarget(200.0)
FAST = PredictorConfig(
    epochs=20,
    batch_size=64,
    cnn=CNNConfig(conv_channels=(4,), rh_embed=16, lh_embed=8, rc_embed=8, latent_dim=16),
)


@pytest.fixture(scope="module")
def tiny_dataset():
    config = CollectionConfig(qos=QOS)
    collector = DataCollector(
        lambda users, seed: make_tiny_cluster(users, seed), config
    )
    result = collector.collect(
        BanditExplorer(config, seed=0), loads=[60, 160, 280], seconds_per_load=80
    )
    return result.dataset


@pytest.fixture(scope="module")
def trained(tiny_dataset):
    predictor = HybridPredictor(make_tiny_graph(), QOS, FAST, seed=0)
    predictor.train(tiny_dataset)
    return predictor


@pytest.fixture(scope="module")
def log():
    """A short telemetry history of the tiny application."""
    cluster = make_tiny_cluster(users=150, seed=9)
    rng = np.random.default_rng(3)
    for _ in range(12):
        jitter = rng.uniform(-0.2, 0.2, cluster.n_tiers)
        cluster.step(cluster.clip_alloc(cluster.current_alloc + jitter))
    return cluster.telemetry


class TestTraining:
    def test_report_populated(self, trained):
        report = trained.report
        assert report.rmse_val > 0
        assert 0.5 <= report.bt_accuracy_val <= 1.0
        assert 0 < report.p_up <= 0.9
        assert report.p_down < report.p_up
        assert report.n_train > report.n_val

    def test_untrained_predictor_guards(self, tiny_dataset):
        predictor = HybridPredictor(make_tiny_graph(), QOS, FAST, seed=0)
        with pytest.raises(RuntimeError):
            _ = predictor.rmse_val
        with pytest.raises(RuntimeError):
            _ = predictor.thresholds
        with pytest.raises(ValueError, match="trained"):
            from repro.core.retrain import fine_tune_predictor

            fine_tune_predictor(predictor, tiny_dataset, [10])

    def test_label_cap_requires_boundary_samples(self, tiny_dataset):
        predictor = HybridPredictor(
            make_tiny_graph(),
            QoSTarget(1e-3),  # absurd QoS: every sample above the cap
            FAST,
            seed=0,
        )
        with pytest.raises(ValueError, match="latency cap"):
            predictor.train(tiny_dataset)


class TestInference:
    def test_predict_raw_shapes(self, trained, tiny_dataset):
        lat, prob = trained.predict_raw(
            tiny_dataset.X_RH[:10], tiny_dataset.X_LH[:10], tiny_dataset.X_RC[:10]
        )
        assert lat.shape == (10, 5)
        assert prob.shape == (10,)
        assert np.all((prob >= 0) & (prob <= 1))

    def test_predict_candidates_from_live_log(self, trained):
        cluster = make_tiny_cluster(users=100, seed=9)
        cluster.run(8)
        candidates = np.stack(
            [cluster.current_alloc, cluster.current_alloc * 1.5]
        )
        lat, prob = trained.predict_candidates(cluster.telemetry, candidates)
        assert lat.shape == (2, 5)
        assert prob.shape == (2,)

    def test_predictions_track_reality_roughly(self, trained, tiny_dataset):
        """Predictions correlate with measured latency (sanity, not a
        strict accuracy bar)."""
        lat, _ = trained.predict_raw(
            tiny_dataset.X_RH, tiny_dataset.X_LH, tiny_dataset.X_RC
        )
        keep = tiny_dataset.y_lat[:, -1] < 480.0
        if keep.sum() > 20:
            corr = np.corrcoef(lat[keep, -1], tiny_dataset.y_lat[keep, -1])[0, 1]
            assert corr > 0.2

    def test_evaluate_keys(self, trained, tiny_dataset):
        metrics = trained.evaluate(tiny_dataset)
        assert set(metrics) == {"rmse", "bt_accuracy", "bt_false_neg", "bt_false_pos"}

    def test_threshold_calibration_props(self):
        probs = np.linspace(0, 1, 100)
        labels = (probs > 0.5).astype(float)
        p_up, p_down = HybridPredictor._calibrate_thresholds(probs, labels)
        assert 0.02 <= p_up <= 0.9
        assert p_down < p_up

    def test_threshold_calibration_no_violations(self):
        p_up, p_down = HybridPredictor._calibrate_thresholds(
            np.zeros(10), np.zeros(10)
        )
        assert p_up == 0.5


#: Training-only state a served predictor must not carry: backward
#: caches, gradient buffers, the CNN's last latent and the trees' bins.
TRAINING_STATE = {"_cols", "_x", "_mask", "dW", "db", "_latent", "_bin_edges"}


def _object_graph(root):
    """(objects, attribute names) reachable from ``root`` through
    instance attributes and containers."""
    seen, objects, names = set(), [], set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
            obj, (type, str, bytes, int, float, np.ndarray, np.generic)
        ):
            continue
        seen.add(id(obj))
        objects.append(obj)
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            names.update(vars(obj))
            stack.extend(vars(obj).values())
    return objects, names


def _tree_arrays(predictor):
    """The compiled ensemble's arrays, by name."""
    compiled = vars(predictor.trees._compiled)
    return {k: v for k, v in compiled.items() if isinstance(v, np.ndarray)}


def _report_fields(report):
    """A training report without its wall-clock epoch times."""
    fields = dataclasses.asdict(report)
    del fields["cnn_fit"]["epoch_time_s"]
    return fields


class TestSerialization:
    """Stored and copied predictors.  A served model is parameters,
    normalizer/encoder state and the compiled trees, and it scores and
    fine-tunes bitwise like the original."""

    def test_save_load_roundtrip(self, trained, tiny_dataset, tmp_path):
        path = tmp_path / "predictor.pkl"
        trained.save(path)
        loaded = HybridPredictor.load(path)
        lat_a, prob_a = trained.predict_raw(
            tiny_dataset.X_RH[:5], tiny_dataset.X_LH[:5], tiny_dataset.X_RC[:5]
        )
        lat_b, prob_b = loaded.predict_raw(
            tiny_dataset.X_RH[:5], tiny_dataset.X_LH[:5], tiny_dataset.X_RC[:5]
        )
        np.testing.assert_allclose(lat_a, lat_b)
        np.testing.assert_allclose(prob_a, prob_b)

    def test_load_rejects_foreign_pickle(self, tmp_path):
        import pickle

        path = tmp_path / "junk.pkl"
        with open(path, "wb") as fh:
            pickle.dump({"not": "a predictor"}, fh)
        with pytest.raises(TypeError):
            HybridPredictor.load(path)

    def test_load_rejects_pre_versioning_pickle(self, trained, tmp_path):
        """A raw (format-1) predictor pickle gets a clear version error."""
        import pickle

        path = tmp_path / "old.pkl"
        with open(path, "wb") as fh:
            pickle.dump(trained, fh)
        with pytest.raises(ValueError, match="format"):
            HybridPredictor.load(path)

    def test_fast_path_trained_model_roundtrips(self, tiny_dataset, tmp_path):
        """A model trained on the production paths (histogram trees,
        im2col CNN) saves and loads like any other: tree margins bitwise
        equal pre/post, CNN predictions equal."""
        predictor = HybridPredictor(make_tiny_graph(), QOS, FAST, seed=0)
        predictor.train(tiny_dataset)
        x_rh = tiny_dataset.X_RH[:8]
        x_lh = tiny_dataset.X_LH[:8]
        x_rc = tiny_dataset.X_RC[:8]
        inputs = predictor._model_inputs(x_rh, x_lh, x_rc)
        _, latent = predictor.cnn.predict_with_latent(inputs)
        bt_X = predictor._bt_features(latent, x_rh, x_lh, inputs[2])
        margin_before = predictor.trees.predict_margin(bt_X)

        path = tmp_path / "fast-trained.pkl"
        predictor.save(path)
        loaded = HybridPredictor.load(path)

        assert np.array_equal(loaded.trees.predict_margin(bt_X), margin_before)
        lat_a, prob_a = predictor.predict_raw(x_rh, x_lh, x_rc)
        lat_b, prob_b = loaded.predict_raw(x_rh, x_lh, x_rc)
        assert np.array_equal(lat_a, lat_b)
        assert np.array_equal(prob_a, prob_b)

    def test_training_gives_the_same_pickle_on_both_backends(self, tiny_dataset):
        """A whole ``train`` with the compiled tree grower and with the
        numpy one stores the same model byte for byte (the report's
        wall-clock epoch times blanked)."""
        if _ckernel.load_kernel() is None:
            pytest.skip("no compiled kernel")

        def trained_pickle():
            predictor = HybridPredictor(make_tiny_graph(), QOS, FAST, seed=0)
            predictor.train(tiny_dataset)
            predictor.report.cnn_fit.epoch_time_s = []
            return pickle.dumps(predictor)

        on_kernel = trained_pickle()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_ckernel, "load_kernel", lambda: None)
            on_numpy = trained_pickle()
        assert on_kernel == on_numpy

    def test_load_rejects_format_mismatch(self, trained, tmp_path):
        import pickle

        path = tmp_path / "future.pkl"
        with open(path, "wb") as fh:
            pickle.dump(
                {
                    "format": HybridPredictor.SAVE_FORMAT + 1,
                    "kind": "repro.HybridPredictor",
                    "predictor": trained,
                },
                fh,
            )
        with pytest.raises(ValueError, match="format"):
            HybridPredictor.load(path)

    def test_unpickled_graph_holds_no_training_state(self, trained):
        objects, names = _object_graph(pickle.loads(pickle.dumps(trained)))
        assert not names & TRAINING_STATE
        assert not [o for o in objects if isinstance(o, _Node)]

    def test_pickle_is_parameters_plus_trees(self, trained, tmp_path):
        tree_bytes = sum(a.nbytes for a in _tree_arrays(trained).values())
        param_bytes = sum(p.nbytes for p in trained.cnn.params())
        path = tmp_path / "served.pkl"
        trained.save(path)
        assert path.stat().st_size <= param_bytes + tree_bytes + 64 * 1024

    def test_roundtrip_and_deepcopy_score_bitwise(self, trained, log, tmp_path):
        base = np.asarray(log.latest.cpu_alloc, dtype=float)
        rng = np.random.default_rng(4)
        cands = np.clip(base + rng.uniform(-1.0, 1.0, (24, len(base))), 0.2, 8.0)
        want = trained.predict_candidates(log, cands)
        path = tmp_path / "served.pkl"
        trained.save(path)
        for clone in (HybridPredictor.load(path), copy.deepcopy(trained)):
            got = clone.predict_candidates(log, cands)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    def test_fine_tune_of_copies_matches_original(self, tiny_dataset, tmp_path):
        """``RetrainWorker`` fine-tunes a deep copy of the incumbent: a
        copy's fresh gradient buffers must train exactly like the
        original's stale ones."""
        original = HybridPredictor(make_tiny_graph(), QOS, FAST, seed=0)
        original.train(tiny_dataset)
        path = tmp_path / "incumbent.pkl"
        original.save(path)
        copies = [copy.deepcopy(original), HybridPredictor.load(path)]
        want = original.fine_tune(tiny_dataset, epochs=2)
        for clone in copies:
            got = clone.fine_tune(tiny_dataset, epochs=2)
            np.testing.assert_equal(_report_fields(got), _report_fields(want))
            for a, b in zip(clone.cnn.params(), original.cnn.params()):
                assert np.array_equal(a, b)
            np.testing.assert_equal(_tree_arrays(clone), _tree_arrays(original))

    def test_load_rejects_format_2(self, trained, tmp_path):
        path = tmp_path / "v2.pkl"
        with open(path, "wb") as fh:
            pickle.dump(
                {"format": 2, "kind": "repro.HybridPredictor", "predictor": trained},
                fh,
            )
        with pytest.raises(
            ValueError, match=f"format 2.*format {HybridPredictor.SAVE_FORMAT}"
        ):
            HybridPredictor.load(path)

    def test_load_rejects_format_3(self, trained, tmp_path):
        """Format 3 pickled the application graph with a networkx
        ``DiGraph``; such a file is refused, not half-loaded."""
        path = tmp_path / "v3.pkl"
        with open(path, "wb") as fh:
            pickle.dump(
                {"format": 3, "kind": "repro.HybridPredictor", "predictor": trained},
                fh,
            )
        with pytest.raises(ValueError, match="format 3.*re-train"):
            HybridPredictor.load(path)

    def test_pickle_holds_no_graph_library(self, trained, tmp_path):
        """The application graph is stored as tiers, call-edge tuples and
        index arrays: no networkx class and no ``digraph`` attribute, so
        a served model loads where networkx is not installed."""
        path = tmp_path / "served.pkl"
        trained.save(path)
        for blob in (pickle.dumps(trained), path.read_bytes()):
            assert b"networkx" not in blob
            assert b"digraph" not in blob
        graph = HybridPredictor.load(path).graph
        assert graph.edges == trained.graph.edges
        assert np.array_equal(graph.reverse_topo_order, trained.graph.reverse_topo_order)
        assert [c.tolist() for c in graph.children] == [
            c.tolist() for c in trained.graph.children
        ]


class TestScalerAlpha:
    def test_explicit_alpha_is_honored(self):
        cfg = PredictorConfig(scaler_alpha=0.002)
        predictor = HybridPredictor(make_tiny_graph(), QOS, cfg, seed=0)
        assert predictor.scaler.alpha == 0.002

    def test_none_alpha_derived_from_qos(self):
        predictor = HybridPredictor(make_tiny_graph(), QOS, seed=0)
        assert predictor.scaler.alpha == pytest.approx(1.0 / QOS.latency_ms)

    def test_zero_alpha_is_not_treated_as_unset(self):
        """Falsy-zero regression: an explicit ``scaler_alpha=0.0`` used
        to silently fall back to the QoS-derived value; it must instead
        hit the scaler's own positivity check."""
        with pytest.raises(ValueError, match="alpha"):
            HybridPredictor(
                make_tiny_graph(), QOS, PredictorConfig(scaler_alpha=0.0), seed=0
            )


class TestScoreBuckets:
    def test_retrain_invalidates_cached_buckets(self, trained, tiny_dataset):
        """``_lat_buckets`` derives from ``rmse_val``; installing a new
        TrainingReport (fine-tune / promotion) must drop the cache so the
        observability histograms track the new model's error scale."""
        import copy

        tuned = copy.deepcopy(trained)
        before = tuned._score_buckets()
        assert tuned.__dict__.get("_lat_buckets") == before  # cached
        tuned.fine_tune(tiny_dataset, epochs=1)
        assert "_lat_buckets" not in tuned.__dict__
        after = tuned._score_buckets()
        assert after[0] == pytest.approx(
            round(max(float(tuned.rmse_val), 1.0), 3)
        )


class TestFineTune:
    def test_fine_tune_updates_report(self, trained, tiny_dataset):
        import copy

        tuned = copy.deepcopy(trained)
        before = [p.copy() for p in tuned.cnn.params()]
        tuned.fine_tune(tiny_dataset, lr_scale=0.01, epochs=2)
        assert tuned.report is not None
        moved = any(
            not np.allclose(b, p) for b, p in zip(before, tuned.cnn.params())
        )
        assert moved

    def test_fine_tune_keeps_normalizer(self, trained, tiny_dataset):
        import copy

        tuned = copy.deepcopy(trained)
        scale_before = tuned.normalizer.rc_scale
        tuned.fine_tune(tiny_dataset, epochs=1)
        assert tuned.normalizer.rc_scale == scale_before
