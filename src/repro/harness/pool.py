"""Persistent warm worker pool for episode fan-out.

Every :func:`~repro.harness.parallel.run_episodes` call that fans out
runs here.  All five call sites (``sweep_loads``-style sweeps,
collection, on-policy refinement, resilience grids, and the CLI sweep)
share one pool:

* :class:`WorkerPool` — a lazily created pool of worker processes that
  survives across calls.  :func:`shared_pool` keeps one process-wide
  instance warm; ``run_episodes`` reuses it by default, so successive
  sweeps skip the spin-up.
* **Per-task payloads** — a task's kwargs, predictor included, travel
  as the executor pickles them, so every task sees its model as it is
  when the run is submitted: a new object, or one retrained in place
  between two runs on the warm pool.
* **Longest-expected-first scheduling** — tasks are submitted in
  descending expected-cost order (decision intervals x load when the
  kwargs carry them, submission order otherwise) to cut tail idle on
  skewed sweeps; submission is chunked so at most a couple of payloads
  per worker are in flight.  Outcomes still come back in task order,
  and ordering never changes results — episodes are independent and
  individually seeded.
* **Inline recovery** — a task lost to a worker crash (or an
  unpicklable payload/result) is re-run inline in the parent with
  measured timing and a consistent attempt count, and a broken executor
  is replaced on the next run.

Results are bit-identical to ``jobs=1``: a worker unpickles the same
kwargs and runs the same ``_run_task`` the serial path runs.
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.harness.parallel import (
    EpisodeOutcome,
    EpisodeTask,
    _emit_warnings,
    _mp_context,
    _record_outcome,
    _run_task,
    resolve_jobs,
)

logger = logging.getLogger(__name__)

# -- scheduling --------------------------------------------------------

_COST_INTERVAL_KEYS = ("duration", "seconds", "seconds_per_load", "intervals")
_COST_LOAD_KEYS = ("users", "load")


def _expected_cost(task: EpisodeTask) -> float | None:
    """Heuristic episode cost: decision intervals x load, when known."""
    def first_number(keys):
        for key in keys:
            value = task.kwargs.get(key)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return float(value)
        return None

    intervals = first_number(_COST_INTERVAL_KEYS)
    if intervals is None:
        return None
    load = first_number(_COST_LOAD_KEYS)
    return intervals * (load if load and load > 0 else 1.0)


def _schedule(tasks: list[EpisodeTask]) -> list[int]:
    """Submission order: longest expected episode first.

    Starting the heaviest episodes first minimizes the tail where the
    last worker grinds through a long episode alone.  Falls back to
    submission order (stable sort; unknown costs keep their relative
    order after the known ones).  Safe to reorder freely: episodes are
    independent and individually seeded, and outcomes are re-sorted
    into task order.
    """
    costs = [_expected_cost(task) for task in tasks]
    if all(cost is None for cost in costs):
        return list(range(len(tasks)))
    return sorted(
        range(len(tasks)), key=lambda i: (-(costs[i] or 0.0), i)
    )


# -- the pool ----------------------------------------------------------


@dataclass
class PoolRunStats:
    """Per-run pool accounting, surfaced on the ``RunSummary``."""

    reused: bool = False
    recovered_inline: int = 0


class WorkerPool:
    """A reusable process pool for independent episode tasks.

    Context-managed (``with WorkerPool(...) as pool``) or long-lived
    via :func:`shared_pool`.  Thread-safe for concurrent ``run`` calls
    (the continuous-learning retrain worker may fan out from a thread
    while the main thread sweeps): creating, replacing and closing the
    executor happen under one lock, so concurrent runs share one set of
    workers.

    Parameters
    ----------
    jobs:
        Worker count (``resolve_jobs`` semantics: ``0`` = one per CPU,
        ``None`` = ``REPRO_JOBS`` else 1).
    """

    def __init__(self, jobs: int | None = None, mp_context=None) -> None:
        self.n_jobs = max(1, resolve_jobs(jobs))
        self._mp_context = mp_context or _mp_context()
        self._executor: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()
        self._broken = False
        self._closed = False
        self.runs = 0
        """Completed :meth:`run` calls (the pool-reuse counter)."""
        self.worker_spinups = 0
        """Times a fresh executor was created (1 = never recycled)."""

    # -- lifecycle -----------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def _ensure_executor(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                raise RuntimeError("WorkerPool is closed")
            if self._broken and self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None
                self._broken = False
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.n_jobs, mp_context=self._mp_context
                )
                self.worker_spinups += 1
            return self._executor

    def close(self) -> None:
        """Shut the workers down; later ``run`` calls raise."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._executor is not None:
                self._executor.shutdown(wait=True, cancel_futures=True)
                self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution -----------------------------------------------------

    def run(
        self,
        tasks: list[EpisodeTask],
        n_jobs: int | None = None,
        retries: int = 1,
        progress=None,
        recorder=None,
    ) -> tuple[list[EpisodeOutcome], PoolRunStats]:
        """Run tasks on the pool; outcomes return in task-index order.

        ``n_jobs`` caps this run's concurrency below the pool size
        (a warm pool sized for a big sweep can serve a small one
        without recreating workers).  A pool-level dispatch failure —
        worker crash, unpicklable payload or result — is retried inline
        in the parent with the task's own kwargs: infra failures are not
        simulation crashes, so the seed is *not* bumped and a recovered
        result is the canonical one.
        """
        stats = PoolRunStats(reused=self.runs > 0 and self._executor is not None)
        if not tasks:
            return [], stats
        limit = max(1, min(n_jobs or self.n_jobs, self.n_jobs))
        record = recorder is not None and recorder.enabled
        executor = self._ensure_executor()
        order = _schedule(tasks)
        # Chunked submission: a small buffer of queued futures keeps the
        # feeder busy without flooding the call queue with payloads; when
        # the pool is larger than this run's concurrency cap, in-flight
        # futures are clamped to the cap so extra workers stay idle.
        inflight_limit = (
            limit + min(limit, 2) if self.n_jobs <= limit else limit
        )
        pending: dict = {}
        outcomes: list[EpisodeOutcome] = []
        next_pos = 0
        done_count = 0
        total = len(tasks)

        def submit_ready() -> None:
            nonlocal next_pos
            while next_pos < total and len(pending) < inflight_limit:
                idx = order[next_pos]
                next_pos += 1
                if self._broken:
                    outcomes.append(self._recover_inline(
                        tasks[idx], "pool broken", 0.0, retries, stats
                    ))
                    finish(outcomes[-1])
                    continue
                future = executor.submit(_run_task, tasks[idx], retries)
                pending[future] = (idx, time.perf_counter())

        def finish(outcome: EpisodeOutcome) -> None:
            nonlocal done_count
            done_count += 1
            _emit_warnings(outcome)
            if record:
                _record_outcome(recorder, outcome)
            if progress is not None:
                progress(outcome, done_count, total)

        submit_ready()
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                idx, submitted = pending.pop(future)
                try:
                    outcome = future.result()
                except BrokenProcessPool as exc:
                    self._broken = True
                    outcome = self._recover_inline(
                        tasks[idx], f"{type(exc).__name__}: {exc}",
                        time.perf_counter() - submitted, retries, stats,
                    )
                except Exception as exc:  # unpicklable payload/result, ...
                    outcome = self._recover_inline(
                        tasks[idx], f"{type(exc).__name__}: {exc}",
                        time.perf_counter() - submitted, retries, stats,
                    )
                outcomes.append(outcome)
                finish(outcome)
            submit_ready()

        outcomes.sort(key=lambda o: o.index)
        with self._lock:
            self.runs += 1
        if record:
            self._record_pool_metrics(recorder, stats)
        return outcomes, stats

    def _recover_inline(
        self,
        task: EpisodeTask,
        error: str,
        pool_seconds: float,
        retries: int,
        stats: PoolRunStats,
    ) -> EpisodeOutcome:
        """Re-run a task whose pool dispatch failed, inline in the parent.

        The failed dispatch counts as one attempt and its measured
        wall-clock is folded into the outcome, so pool-level failures
        land in ``harness_episode_seconds`` with real durations and an
        ``attempts`` count consistent with worker-side failures.
        """
        logger.warning(
            "episode %s lost to a pool-level failure (%s); re-running "
            "inline", task.label, error,
        )
        stats.recovered_inline += 1
        outcome = _run_task(task, retries=retries)
        outcome.attempts += 1
        outcome.seconds += pool_seconds
        outcome.warnings.insert(
            0, f"pool-level failure ({error}); re-ran inline"
        )
        return outcome

    def _record_pool_metrics(self, recorder, stats: PoolRunStats) -> None:
        recorder.gauge("harness_pool_workers", float(self.n_jobs))
        recorder.counter("harness_pool_runs_total")
        if stats.reused:
            recorder.counter("harness_pool_reuse_total")
        if stats.recovered_inline:
            recorder.counter(
                "harness_pool_recoveries_total", float(stats.recovered_inline)
            )


# -- the process-wide shared pool --------------------------------------

_shared: WorkerPool | None = None
_shared_lock = threading.Lock()


def shared_pool(jobs: int | None = None) -> WorkerPool:
    """The process-wide warm pool, (re)created on demand.

    Reused as long as the existing pool is open and at least as large
    as the request (``run`` caps per-call concurrency, so a larger pool
    can serve a smaller request exactly); a bigger request replaces it.
    At interpreter exit ``concurrent.futures``' own exit hook joins its
    workers.
    """
    global _shared
    n_jobs = max(1, resolve_jobs(jobs if jobs is not None else 0))
    with _shared_lock:
        if (
            _shared is not None
            and not _shared.closed
            and _shared.n_jobs >= n_jobs
        ):
            return _shared
        if _shared is not None:
            _shared.close()
        _shared = WorkerPool(jobs=n_jobs)
        return _shared


def close_shared_pool() -> None:
    """Tear down the shared warm pool's workers."""
    global _shared
    with _shared_lock:
        if _shared is not None:
            _shared.close()
            _shared = None


__all__ = [
    "PoolRunStats",
    "WorkerPool",
    "shared_pool",
    "close_shared_pool",
]
