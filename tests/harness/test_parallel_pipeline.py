"""Pipeline-level fan-out: parallel collection/training/sweeps produce
exactly the serial results (same seeds, independent episodes)."""

import dataclasses

import numpy as np

from repro.apps import hotel_reservation
from repro.baselines.autoscale import AutoScale
from repro.core.qos import QoSTarget
from repro.harness import pipeline as pl
from repro.harness.experiment import sweep_loads
from repro.harness.pipeline import Budget, collect_training_data
from tests.conftest import make_tiny_cluster, make_tiny_graph


def test_collect_training_data_parallel_identical(monkeypatch):
    """The acceptance criterion: ``jobs=4`` collection is numerically
    identical to the serial run for the same seed."""
    graph = hotel_reservation()
    serial = collect_training_data(graph, "small", seed=5, jobs=1)
    fanned = collect_training_data(graph, "small", seed=5, jobs=4)
    for name in ("X_RH", "X_LH", "X_RC", "y_lat", "y_viol"):
        np.testing.assert_array_equal(getattr(serial, name), getattr(fanned, name))


def _assert_trained_identical_across_jobs(tmp_path, monkeypatch,
                                          refine_rounds):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    tiny = Budget("tiny", collection_loads=2, seconds_per_load=20, epochs=2,
                  batch_size=32, refine_rounds=refine_rounds)
    pl._memory_cache.clear()
    serial = pl.get_trained_predictor("hotel_reservation", tiny, seed=2,
                                      use_cache=False)
    fanned = pl.get_trained_predictor("hotel_reservation", tiny, seed=2,
                                      use_cache=False, jobs=2)
    pl._memory_cache.clear()
    for a, b in zip(serial.cnn.params(), fanned.cnn.params()):
        np.testing.assert_array_equal(a, b)


def test_trained_predictor_identical_across_jobs(tmp_path, monkeypatch):
    """End to end: fanned-out collection (including the on-policy
    refinement round) trains the same model as the serial pipeline."""
    _assert_trained_identical_across_jobs(tmp_path, monkeypatch, 1)


def test_trained_predictor_identical_across_jobs_two_refine_rounds(
        tmp_path, monkeypatch):
    """The second refinement round collects under the predictor the
    first round retrained in place: its pooled episodes must see the
    retrained weights, as the serial ones do."""
    _assert_trained_identical_across_jobs(tmp_path, monkeypatch, 2)


def _tiny_autoscale():
    graph = make_tiny_graph()
    return AutoScale.opt(graph.min_alloc(), graph.max_alloc())


def test_sweep_loads_parallel_matches_serial():
    qos = QoSTarget(200.0)
    kwargs = dict(
        manager_factory=_tiny_autoscale,
        cluster_factory=make_tiny_cluster,
        loads=[50, 100, 150],
        duration=20,
        qos=qos,
        seed=3,
        warmup=5,
    )
    serial = sweep_loads(**kwargs)
    fanned = sweep_loads(**kwargs, jobs=2)
    assert [r.users for r in fanned] == [50, 100, 150]
    for a, b in zip(serial, fanned):
        assert a.mean_total_cpu == b.mean_total_cpu
        assert a.max_total_cpu == b.max_total_cpu
        assert a.qos_fraction == b.qos_fraction
        assert len(a.telemetry) == len(b.telemetry)
        for x, y in zip(a.telemetry, b.telemetry):
            for field in dataclasses.fields(x):
                np.testing.assert_array_equal(
                    getattr(x, field.name), getattr(y, field.name)
                )
