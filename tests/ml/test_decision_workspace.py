"""The decision path's workspace: scratch buffers reused across decisions.

:meth:`LatencyCNN.predict_candidates` and
:meth:`HybridPredictor.predict_candidates` write their candidate-batch
temporaries into grow-only buffers they own
(:class:`repro.ml.layers.Workspace`) instead of fresh arrays.  Pinned
here: a warm call gives the bits of a cold one and of the materialized
batch, whatever batch came before; what a call returns is the caller's;
the buffers are never pickled or shared by copies; the in-place ReLU is
``np.where``'s; an empty batch is refused; and a warm decision stays
within a transient-memory budget (the stand-in for the page faults the
workspace removes, which depend on the host's allocator).
"""

import copy
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.harness.bench import BenchConfig, make_synthetic_predictor
from repro.harness.pipeline import make_cluster
from repro.ml.cnn import LatencyCNN
from repro.ml.layers import ReLU

#: Candidate batches one model scores in sequence: small after large and
#: large after small, around the served trunk block (27 rows at 27-28
#: tiers) and past the largest batch seen before (320 after 294).
SEQUENCE = [294, 1, 27, 236, 2, 320, 13, 44, 294]


def make_cnn(n_tiers: int) -> LatencyCNN:
    """The default architecture with nonzero biases."""
    rng = np.random.default_rng(n_tiers)
    model = LatencyCNN(n_tiers, seed=n_tiers, n_rc_features=2 * n_tiers)
    for param in model.params():
        if param.ndim == 1:  # biases start at zero
            param[...] = rng.normal(0.0, 0.1, param.shape)
    return model


def cnn_inputs(n_tiers: int, batch: int, rng: np.random.Generator):
    return (
        rng.normal(size=(1, 6, n_tiers, 5)),
        rng.normal(size=(1, 5, 5)),
        rng.normal(size=(batch, 2 * n_tiers)),
    )


def make_predictor(app: str):
    """A production-sized predictor and a live log of its application."""
    predictor = make_synthetic_predictor(BenchConfig(app=app))
    cluster = make_cluster(predictor.graph, users=250, seed=3)
    for _ in range(8):
        cluster.step(cluster.current_alloc)
    return predictor, cluster.telemetry


def candidates(log, batch: int, rng: np.random.Generator) -> np.ndarray:
    base = np.asarray(log.latest.cpu_alloc, dtype=float)
    return np.clip(base + rng.uniform(-1.0, 1.0, (batch, len(base))), 0.2, 8.0)


def assert_same_bytes(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def workspace_buffers(owner) -> dict[str, np.ndarray]:
    return owner.__dict__["_workspace"]._buffers


class TestReuse:
    """A warm workspace gives every batch the bits a cold one gives."""

    @pytest.mark.parametrize("n_tiers", [4, 17, 28])
    def test_cnn_matches_fresh_copy(self, n_tiers):
        """Each call equals a fresh deep copy's first call: stale rows
        or a wrongly sized view of a grown buffer would show here.
        Holds on one BLAS thread as well as two."""
        rng = np.random.default_rng(n_tiers)
        model = make_cnn(n_tiers)
        for batch in SEQUENCE:
            inputs = cnn_inputs(n_tiers, batch, rng)
            want = copy.deepcopy(model).predict_candidates(inputs)
            assert_same_bytes(model.predict_candidates(inputs), want)

    @pytest.mark.parametrize("n_tiers", [4, 17, 28])
    def test_cnn_matches_materialized_batch(self, n_tiers):
        """Each call equals ``predict_with_latent`` on B copies of the
        history (on two BLAS threads: see the Conv2D docstring)."""
        rng = np.random.default_rng(100 + n_tiers)
        model = make_cnn(n_tiers)
        for batch in SEQUENCE:
            x_rh, x_lh, x_rc = cnn_inputs(n_tiers, batch, rng)
            want = model.predict_with_latent(
                (np.repeat(x_rh, batch, axis=0), np.repeat(x_lh, batch, axis=0), x_rc)
            )
            assert_same_bytes(model.predict_candidates((x_rh, x_lh, x_rc)), want)

    @pytest.mark.parametrize("app", ["hotel_reservation", "social_network"])
    def test_predictor_matches_fresh_copy(self, app):
        rng = np.random.default_rng(7)
        predictor, log = make_predictor(app)
        for batch in SEQUENCE:
            cands = candidates(log, batch, rng)
            want = copy.deepcopy(predictor).predict_candidates(log, cands)
            assert_same_bytes(predictor.predict_candidates(log, cands), want)

    @pytest.mark.parametrize("app", ["hotel_reservation", "social_network"])
    def test_predictor_matches_materialized_batch(self, app):
        """Each call equals ``predict_raw`` (the unbuffered features, the
        full CNN batch) on B copies of the encoded history."""
        rng = np.random.default_rng(8)
        predictor, log = make_predictor(app)
        for batch in SEQUENCE:
            cands = candidates(log, batch, rng)
            x_rh, x_lh, x_rc = predictor.encoder.encode_candidates_shared(log, cands)
            want = predictor.predict_raw(
                np.repeat(x_rh, batch, axis=0), np.repeat(x_lh, batch, axis=0), x_rc
            )
            assert_same_bytes(predictor.predict_candidates(log, cands), want)


class TestOwnership:
    """What a call returns is the caller's: the next call leaves it."""

    def test_cnn_outputs_survive_the_next_call(self):
        rng = np.random.default_rng(1)
        model = make_cnn(28)
        first = model.predict_candidates(cnn_inputs(28, 294, rng))
        kept = [a.tobytes() for a in first]
        model.predict_candidates(cnn_inputs(28, 294, rng))
        assert [a.tobytes() for a in first] == kept

    def test_predictor_outputs_survive_the_next_call(self):
        rng = np.random.default_rng(2)
        predictor, log = make_predictor("social_network")
        first = predictor.predict_candidates(log, candidates(log, 294, rng))
        kept = [a.tobytes() for a in first]
        predictor.predict_candidates(log, candidates(log, 294, rng))
        assert [a.tobytes() for a in first] == kept


class TestNeverPickled:
    def test_cnn_pickle_unchanged_by_decisions(self):
        rng = np.random.default_rng(3)
        model = make_cnn(28)
        before = pickle.dumps(model)
        for batch in (294, 27, 320):
            model.predict_candidates(cnn_inputs(28, batch, rng))
        assert pickle.dumps(model) == before

    def test_predictor_pickle_unchanged_by_decisions(self):
        rng = np.random.default_rng(4)
        predictor, log = make_predictor("social_network")
        before = pickle.dumps(predictor)
        for batch in (294, 27, 320):
            predictor.predict_candidates(log, candidates(log, batch, rng))
        assert pickle.dumps(predictor) == before

    def test_copies_share_no_buffer(self):
        rng = np.random.default_rng(5)
        predictor, log = make_predictor("social_network")
        cands = candidates(log, 294, rng)
        predictor.predict_candidates(log, cands)
        clone = copy.deepcopy(predictor)
        assert "_workspace" not in clone.__dict__
        assert "_workspace" not in clone.cnn.__dict__
        clone.predict_candidates(log, cands)
        predictor.predict_candidates(log, cands)
        for mine, theirs in ((predictor, clone), (predictor.cnn, clone.cnn)):
            ours, copied = workspace_buffers(mine), workspace_buffers(theirs)
            assert ours.keys() == copied.keys() and ours
            for name, buf in ours.items():
                assert not np.shares_memory(buf, copied[name]), name


class TestBufferedReLU:
    VALUES = [
        np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
        2.2250738585072014e-308, -2.2250738585072014e-308, 1.5, -1.5,
    ]

    def test_matches_where(self):
        """NaN and -0.0 become +0.0, as ``np.where`` makes them; the
        subnormals and infinities keep their sign rule."""
        x = np.array(self.VALUES).reshape(3, 4)
        want = np.where(x > 0, x, 0.0)
        got = ReLU().forward(x, inplace=True)
        assert got is x
        assert got.tobytes() == want.tobytes()


class TestEmptyBatch:
    def test_cnn_refuses_before_touching_a_buffer(self):
        model = make_cnn(4)
        x_rh, x_lh, _ = cnn_inputs(4, 1, np.random.default_rng(6))
        with pytest.raises(ValueError, match="no candidate"):
            model.predict_candidates((x_rh, x_lh, np.empty((0, 8))))
        assert "_workspace" not in model.__dict__

    def test_predictor_refuses_before_touching_a_buffer(self):
        predictor, log = make_predictor("hotel_reservation")
        with pytest.raises(ValueError, match="no candidate"):
            predictor.predict_candidates(log, np.empty((0, predictor.graph.n_tiers)))
        assert "_workspace" not in predictor.__dict__
        assert "_workspace" not in predictor.cnn.__dict__


#: Traced bytes a warm 294-candidate decision at 28 tiers may allocate
#: above what it started with, returned arrays included.  Without the
#: workspace the call peaks at about 700 KiB; with it at about 200 KiB.
TRANSIENT_BUDGET = 256 * 1024


def test_warm_decision_stays_within_transient_budget():
    rng = np.random.default_rng(9)
    predictor, log = make_predictor("social_network")
    cands = candidates(log, 294, rng)
    for _ in range(2):
        predictor.predict_candidates(log, cands)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        predictor.predict_candidates(log, cands)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < TRANSIENT_BUDGET, (peak - start) / 1024
