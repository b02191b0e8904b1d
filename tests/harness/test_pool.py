"""Warm worker-pool tests: reuse, model delivery, concurrency, crash
recovery, scheduling."""

import os
import threading

import pytest

from repro.harness.parallel import EpisodeTask, run_episodes
from repro.harness.pool import (
    WorkerPool,
    _expected_cost,
    _schedule,
    close_shared_pool,
    shared_pool,
)

_PARENT_PID = os.getpid()


# Worker functions must be module-level so worker processes can pickle
# them by reference.

def _identify(seed: int, predictor=None) -> tuple:
    """Echo back what the worker actually received for ``predictor``."""
    payload = None if predictor is None else predictor.tag
    return (seed, payload, os.getpid())


def _square(seed: int) -> int:
    return seed * seed


def _square_costed(seed: int, seconds: int, users: float) -> int:
    return seed * seed


def _crash_in_worker(seed: int) -> int:
    """Hard-kill the hosting process — but only if it's a pool worker."""
    if seed == 1 and os.getpid() != _PARENT_PID:
        os._exit(17)
    return seed * 10


def _unpicklable_result(seed: int):
    return lambda: seed  # a closure cannot cross the result queue


def _tasks(fn, n=4, **extra):
    return [
        EpisodeTask(index=i, label=f"ep{i}", fn=fn,
                    kwargs={"seed": i, **extra})
        for i in range(n)
    ]


class _Model:
    """A stand-in predictor, weakref-able as a ``HybridPredictor`` is: a
    dict is not, so it would not show a model memoized by identity."""

    def __init__(self, tag: str) -> None:
        self.tag = tag


class TestModelKwargs:
    def test_worker_receives_the_tasks_predictor(self):
        with WorkerPool(jobs=2) as pool:
            outcomes, _ = pool.run(_tasks(_identify, predictor=_Model("v1")))
        assert [o.result[:2] for o in outcomes] == [
            (i, "v1") for i in range(4)
        ]

    def test_second_run_sees_a_new_model_object(self):
        # Continuous-learning promotion: a new predictor object between
        # two runs on one warm pool reaches the workers.
        with WorkerPool(jobs=1) as pool:
            pool.run(_tasks(_identify, n=2, predictor=_Model("v1")))
            outcomes, _ = pool.run(
                _tasks(_identify, n=2, predictor=_Model("v2"))
            )
        assert [o.result[1] for o in outcomes] == ["v2", "v2"]

    def test_in_place_change_reaches_workers(self):
        # On-policy refinement retrains the same predictor object between
        # rounds: the second run on the warm pool must carry its new
        # state, not the first run's.
        model = _Model("v1")
        with WorkerPool(jobs=2) as pool:
            first, _ = pool.run(_tasks(_identify, predictor=model))
            model.tag = "v2"
            second, _ = pool.run(_tasks(_identify, predictor=model))
        assert [o.result[1] for o in first] == ["v1"] * 4
        assert [o.result[1] for o in second] == ["v2"] * 4


class TestWarmReuse:
    def test_two_sweeps_on_warm_pool_match_serial(self):
        model = _Model("v1")
        first = _tasks(_identify, n=3, predictor=model)
        second = _tasks(_identify, n=3, predictor=model)

        serial_results = [
            [r[:2] for r in run_episodes(tasks, jobs=1).results]
            for tasks in (first, second)
        ]

        with WorkerPool(jobs=2) as warm:
            out1, stats1 = warm.run(first)
            out2, stats2 = warm.run(second)
        assert [o.result[:2] for o in out1] == serial_results[0]
        assert [o.result[:2] for o in out2] == serial_results[1]
        assert not stats1.reused and stats2.reused

    def test_run_episodes_reports_pool_reuse(self):
        with WorkerPool(jobs=2) as pool:
            run_episodes(_tasks(_square), jobs=2, pool=pool)
            summary = run_episodes(_tasks(_square), jobs=2, pool=pool)
        assert summary.pool_reused
        assert summary.results == [i * i for i in range(4)]

    def test_shared_pool_is_reused_and_replaced_when_grown(self):
        close_shared_pool()
        try:
            pool = shared_pool(2)
            assert shared_pool(1) is pool  # smaller request: same pool
            bigger = shared_pool(3)
            assert bigger is not pool and pool.closed
        finally:
            close_shared_pool()


class TestCleanup:
    def test_closed_pool_rejects_work(self):
        pool = WorkerPool(jobs=1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.run(_tasks(_square, n=1))


class TestConcurrentRuns:
    def test_threads_released_together_share_one_executor(self):
        # The continuous-learning retrain worker may fan out from a
        # thread while the main thread sweeps: concurrent runs on a
        # fresh pool must build one executor between them, not one each
        # (an orphaned executor's workers outlive close()).
        n_threads = 4
        for _ in range(10):
            barrier = threading.Barrier(n_threads)
            results = [None] * n_threads
            with WorkerPool(jobs=2) as pool:

                def sweep(slot, pool=pool, barrier=barrier, results=results):
                    barrier.wait(timeout=30)
                    outcomes, _ = pool.run(_tasks(_square))
                    results[slot] = [o.result for o in outcomes]

                threads = [
                    threading.Thread(target=sweep, args=(slot,))
                    for slot in range(n_threads)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert pool.worker_spinups == 1
            assert results == [[0, 1, 4, 9]] * n_threads


class TestCrashRecovery:
    def test_worker_crash_recovered_inline(self):
        with WorkerPool(jobs=2) as pool:
            outcomes, stats = pool.run(_tasks(_crash_in_worker))
        assert [o.result for o in outcomes] == [0, 10, 20, 30]
        assert stats.recovered_inline >= 1
        crashed = outcomes[1]
        # The lost dispatch counts as an attempt with measured time, so
        # harness_episode_seconds is not polluted with zeros.
        assert crashed.attempts == 2
        assert crashed.seconds > 0.0
        assert any("pool-level failure" in w for w in crashed.warnings)

    def test_pool_survives_crash_for_next_run(self):
        with WorkerPool(jobs=2) as pool:
            pool.run(_tasks(_crash_in_worker))
            outcomes, _ = pool.run(_tasks(_square))
        assert [o.result for o in outcomes] == [0, 1, 4, 9]

    def test_unpicklable_result_recovered_inline(self):
        with WorkerPool(jobs=2) as pool:
            outcomes, stats = pool.run(_tasks(_unpicklable_result, n=2))
        assert stats.recovered_inline == 2
        assert all(o.ok and callable(o.result) for o in outcomes)
        assert all(o.attempts == 2 and o.seconds > 0.0 for o in outcomes)


class TestScheduling:
    def test_longest_expected_first(self):
        tasks = [
            EpisodeTask(index=i, label=f"s{i}", fn=_square,
                        kwargs={"seed": i, "seconds": s, "users": u})
            for i, (s, u) in enumerate([(10, 100), (10, 300), (5, 300)])
        ]
        # costs: 1000, 3000, 1500 -> heaviest first
        assert _schedule(tasks) == [1, 2, 0]

    def test_unknown_costs_keep_submission_order(self):
        tasks = _tasks(_square, n=3)
        assert _schedule(tasks) == [0, 1, 2]
        assert _expected_cost(tasks[0]) is None

    def test_reordering_never_reorders_results(self):
        tasks = [
            EpisodeTask(index=i, label=f"s{i}", fn=_square_costed,
                        kwargs={"seed": i, "seconds": 10 - i, "users": 1.0})
            for i in range(5)
        ]
        with WorkerPool(jobs=2) as pool:
            outcomes, _ = pool.run(tasks)
        assert [o.index for o in outcomes] == list(range(5))
        assert [o.result for o in outcomes] == [i * i for i in range(5)]
