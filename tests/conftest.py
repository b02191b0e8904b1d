"""Shared fixtures for the test suite.

Most tests run on a tiny 4-tier application (fast); a handful of
integration tests use the real Social Network / Hotel Reservation
topologies.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim import _ckernel
from repro.sim.engine import QueueingEngine, validate_load
from repro.sim.graph import AppGraph, RequestType
from repro.sim.tier import TierKind, TierSpec
from repro.workload.generator import RequestMix, Workload
from repro.workload.patterns import ConstantLoad
from repro.sim.cluster import ClusterSimulator


def make_tiny_graph() -> AppGraph:
    """A 4-tier chain with a fan-out: front -> logic -> (cache, db)."""
    tiers = [
        TierSpec("front", kind=TierKind.FRONTEND, max_cpu=8.0),
        TierSpec("logic", kind=TierKind.LOGIC, max_cpu=8.0),
        TierSpec("cache", kind=TierKind.CACHE, max_cpu=4.0),
        TierSpec("db", kind=TierKind.DB, max_cpu=4.0),
    ]
    edges = [("front", "logic"), ("logic", "cache"), ("logic", "db")]
    rtypes = [
        RequestType(
            name="Read",
            stages=(("front",), ("logic",), ("cache", "db")),
            work={"db": 0.3},
        ),
        RequestType(
            name="Write",
            stages=(("front",), ("logic",), ("db",)),
        ),
    ]
    return AppGraph("tiny", tiers, edges, rtypes)


@pytest.fixture
def tiny_graph() -> AppGraph:
    return make_tiny_graph()


@pytest.fixture
def tiny_mix() -> RequestMix:
    return RequestMix.from_ratios({"Read": 9, "Write": 1})


def make_tiny_cluster(users: float = 100, seed: int = 0) -> ClusterSimulator:
    graph = make_tiny_graph()
    mix = RequestMix.from_ratios({"Read": 9, "Write": 1})
    workload = Workload(graph, ConstantLoad(users), mix)
    return ClusterSimulator(graph, workload, seed=seed)


@pytest.fixture
def tiny_cluster() -> ClusterSimulator:
    return make_tiny_cluster()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(params=["kernel", "numpy"])
def backend(request, monkeypatch):
    """Run a test once on the compiled kernel (skipped when none loads)
    and once on the Python code that runs without it: the simulator's
    per-tick loop, the trees' numpy descent and recursive grower, the
    Action-list candidate generator and the padded conv folds.  The
    ``numpy`` id names that code."""
    if request.param == "numpy":
        monkeypatch.setattr(_ckernel, "load_kernel", lambda: None)
    elif _ckernel.load_kernel() is None:
        pytest.skip("no compiled kernel")
    return request.param


class PerTickEngine(QueueingEngine):
    """A fluid engine that runs every interval on its per-tick loop, the
    path ``run_interval`` takes when no compiled kernel loads; the
    equivalence suites compare the kernel against it."""

    def run_interval(self, allocs, type_rates):
        allocs, type_rates = validate_load(self.graph, allocs, type_rates)
        return self._run_interval_loop(allocs, type_rates)


def per_tick(engine: QueueingEngine) -> QueueingEngine:
    """Switch ``engine`` in place to :class:`PerTickEngine`."""
    engine.__class__ = PerTickEngine
    return engine
