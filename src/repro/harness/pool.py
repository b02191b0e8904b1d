"""Persistent warm worker pool with one-time model broadcast.

Fan-out used to be the last cold path of the harness: every
:func:`~repro.harness.parallel.run_episodes` call built a fresh
``ProcessPoolExecutor`` and pickled the full hybrid predictor (CNN
weights plus the compiled boosted trees — 0.86 MB for the served
``social_network`` model at the ``medium`` budget) into *every* task payload,
so a 64-episode sweep paid 64 model serializations plus a pool spin-up
per call site.  This module gives all five call sites
(``pipeline.sweep_loads``-style sweeps, collection, on-policy
refinement, resilience grids, and the CLI sweep) one shared
serialize-once/execute-many substrate — the same shape parameter-server
and inference-serving stacks use for weight broadcast:

* :class:`WorkerPool` — a lazily created pool of worker processes that
  survives across calls.  :func:`shared_pool` keeps one process-wide
  instance warm; ``run_episodes`` reuses it by default, so successive
  sweeps skip the spin-up and the workers keep their deserialized
  models.
* **One-time model broadcast** — a predictor appearing in task kwargs
  is pickled once, published to ``multiprocessing.shared_memory`` keyed
  by a content fingerprint (sha256 of the pickle), and replaced in the
  submitted payload by a slim :class:`ModelRef`.  Each worker keeps a
  small fingerprint-keyed cache of deserialized predictors, so N tasks
  x heavy pickle becomes 1 publish + at most 1 deserialize per worker.
  A promoted challenger (``adopt_predictor``) pickles to different
  bytes, so its fingerprint changes and caches invalidate naturally.
* **Longest-expected-first scheduling** — tasks are submitted in
  descending expected-cost order (decision intervals x load when the
  kwargs carry them, submission order otherwise) to cut tail idle on
  skewed sweeps; submission is chunked so at most a couple of payloads
  per worker are in flight.  Outcomes still come back in task order,
  and ordering never changes results — episodes are independent and
  individually seeded.
* **Guaranteed cleanup** — the parent owns every shared-memory segment
  and unlinks them on :meth:`WorkerPool.close`, via a ``weakref``
  finalizer (which also runs at interpreter exit), and when a broken
  pool is replaced.  Workers only ever attach and read, so a worker
  crash cannot leak ``/dev/shm`` segments; a task lost to a crash (or
  an unpicklable payload/result) is recovered by re-running it inline
  in the parent with measured timing and a consistent attempt count.

Results are bit-identical to ``jobs=1``: broadcast only moves the
*same* pickle bytes through shared memory instead of the task queue,
and the worker deserializes them exactly as it would a per-task
payload.
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
import pickle
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from multiprocessing import shared_memory

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

#: Deserialized models kept per worker process, keyed by fingerprint.
#: Small on purpose: a run touches one or two predictors (incumbent and
#: a promoted challenger), and each can be several hundred MB-seconds
#: of deserialization work worth keeping.
MODEL_CACHE_LIMIT = 4


@dataclass(frozen=True)
class ModelRef:
    """Slim stand-in for a broadcast model in a task payload.

    Carries everything a worker needs to resolve the real object: the
    content fingerprint (cache key), the shared-memory segment name,
    and the payload length (segments may be page-rounded).
    """

    fingerprint: str
    shm_name: str
    n_bytes: int


# -- worker side -------------------------------------------------------

_model_cache: OrderedDict[str, object] = OrderedDict()


def _resolve_ref(ref: ModelRef) -> tuple[object, bool]:
    """Fetch a broadcast model in a worker: cache hit or attach+load.

    Attach-and-load happens at most once per (worker, fingerprint); the
    segment is closed immediately after the bytes are copied out, and
    never unlinked — the parent owns the segment's lifetime.
    """
    cached = _model_cache.get(ref.fingerprint)
    if cached is not None:
        _model_cache.move_to_end(ref.fingerprint)
        return cached, True
    shm = shared_memory.SharedMemory(name=ref.shm_name)
    try:
        obj = pickle.loads(bytes(shm.buf[: ref.n_bytes]))
    finally:
        shm.close()
    _model_cache[ref.fingerprint] = obj
    while len(_model_cache) > MODEL_CACHE_LIMIT:
        _model_cache.popitem(last=False)
    return obj, False


def _run_pool_task(task: EpisodeTask, retries: int) -> EpisodeOutcome:
    """Worker entry point: resolve :class:`ModelRef` kwargs, then run.

    Module-level so the pool can pickle it by reference; wraps the same
    ``_run_task`` the serial path uses, so results are bit-identical.
    """
    resolved: dict[str, object] = {}
    hits = misses = 0
    for key, value in task.kwargs.items():
        if isinstance(value, ModelRef):
            obj, hit = _resolve_ref(value)
            resolved[key] = obj
            hits += int(hit)
            misses += int(not hit)
    if resolved:
        task = replace(task, kwargs={**task.kwargs, **resolved})
    outcome = _run_task(task, retries=retries)
    outcome.model_cache_hits = hits
    outcome.model_cache_misses = misses
    return outcome


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


# -- parent side -------------------------------------------------------


@dataclass
class PoolRunStats:
    """Per-run pool accounting, surfaced on the ``RunSummary``."""

    reused: bool = False
    broadcast_bytes: int = 0
    broadcast_publishes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    recovered_inline: int = 0


def _cleanup_store(store: dict) -> None:
    """Unlink every owned shared-memory segment (idempotent).

    Used by :meth:`WorkerPool.close`, by the pool's ``weakref``
    finalizer (GC'd pools), and — because finalizers run at interpreter
    shutdown — as the atexit guarantee that no ``/dev/shm`` segment
    outlives the process on a normal exit.
    """
    while store:
        _, (shm, _) = store.popitem()
        with contextlib.suppress(Exception):
            shm.close()
        with contextlib.suppress(Exception):
            shm.unlink()


class WorkerPool:
    """A reusable process pool with shared-memory model broadcast.

    Context-managed (``with WorkerPool(...) as pool``) or long-lived
    via :func:`shared_pool`.  Thread-safe for concurrent ``run`` calls
    (the continuous-learning retrain worker may fan out from a thread
    while the main thread sweeps).

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
        self._store: dict[str, tuple[shared_memory.SharedMemory, int]] = {}
        self._fingerprints: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._lock = threading.Lock()
        self._broken = False
        self._closed = False
        self.runs = 0
        """Completed :meth:`run` calls (the pool-reuse counter)."""
        self.worker_spinups = 0
        """Times a fresh executor was created (1 = never recycled)."""
        self._finalizer = weakref.finalize(self, _cleanup_store, self._store)

    # -- lifecycle -----------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def _ensure_executor(self) -> ProcessPoolExecutor:
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
        """Shut workers down and unlink every shared-memory segment."""
        if self._closed:
            return
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        _cleanup_store(self._store)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- broadcast -----------------------------------------------------

    def broadcast(self, obj) -> tuple[ModelRef, int]:
        """Publish ``obj`` to shared memory (once per content).

        Returns the :class:`ModelRef` and the number of *newly*
        published bytes (0 when the fingerprint was already live).  The
        fingerprint is the sha256 of the pickle, so a model mutated or
        replaced between calls republishes under a new key and worker
        caches miss exactly when they must.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("WorkerPool is closed")
            payload: bytes | None = None
            try:
                fingerprint = self._fingerprints.get(obj)
            except TypeError:  # unhashable / non-weakrefable object
                fingerprint = None
            if fingerprint is None or fingerprint not in self._store:
                payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
                fingerprint = hashlib.sha256(payload).hexdigest()
                with contextlib.suppress(TypeError):
                    self._fingerprints[obj] = fingerprint
            entry = self._store.get(fingerprint)
            if entry is not None:
                shm, n_bytes = entry
                return ModelRef(fingerprint, shm.name, n_bytes), 0
            shm = shared_memory.SharedMemory(
                create=True, size=max(len(payload), 1)
            )
            shm.buf[: len(payload)] = payload
            self._store[fingerprint] = (shm, len(payload))
            logger.info(
                "broadcast %s: %.1f MB -> %s",
                type(obj).__name__, len(payload) / 1e6, shm.name,
            )
            return ModelRef(fingerprint, shm.name, len(payload)), len(payload)

    def _slim_task(
        self, task: EpisodeTask, stats: PoolRunStats
    ) -> EpisodeTask:
        """Replace broadcastable kwargs with :class:`ModelRef` stubs."""
        slim: dict[str, object] = {}
        for key, value in task.kwargs.items():
            if _broadcastable(key, value):
                ref, new_bytes = self.broadcast(value)
                slim[key] = ref
                stats.broadcast_bytes += new_bytes
                stats.broadcast_publishes += int(new_bytes > 0)
        if not slim:
            return task
        return replace(task, kwargs={**task.kwargs, **slim})

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
        in the parent with the original (un-slimmed) kwargs: infra
        failures are not simulation crashes, so the seed is *not*
        bumped and a recovered result is the canonical one.
        """
        stats = PoolRunStats(reused=self.runs > 0 and self._executor is not None)
        if not tasks:
            return [], stats
        limit = max(1, min(n_jobs or self.n_jobs, self.n_jobs))
        record = recorder is not None and recorder.enabled
        executor = self._ensure_executor()
        prepared = [self._slim_task(task, stats) for task in tasks]
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
                future = executor.submit(_run_pool_task, prepared[idx], retries)
                pending[future] = (idx, time.perf_counter())

        def finish(outcome: EpisodeOutcome) -> None:
            nonlocal done_count
            done_count += 1
            _emit_warnings(outcome)
            stats.cache_hits += outcome.model_cache_hits
            stats.cache_misses += outcome.model_cache_misses
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
        if stats.broadcast_publishes:
            recorder.counter(
                "harness_broadcast_publishes_total",
                float(stats.broadcast_publishes),
            )
            recorder.counter(
                "harness_broadcast_bytes_total", float(stats.broadcast_bytes)
            )
        if stats.cache_hits:
            recorder.counter(
                "harness_model_cache_hits_total", float(stats.cache_hits)
            )
        if stats.cache_misses:
            recorder.counter(
                "harness_model_cache_misses_total", float(stats.cache_misses)
            )
        if stats.recovered_inline:
            recorder.counter(
                "harness_pool_recoveries_total", float(stats.recovered_inline)
            )


def _broadcastable(key: str, value) -> bool:
    """Whether a task kwarg should travel via shared-memory broadcast.

    Anything bound to the conventional ``predictor=`` kwarg plus any
    :class:`~repro.core.predictor.HybridPredictor` under another name.
    ``None`` predictors (non-sinan managers) stay inline.
    """
    if value is None or isinstance(value, ModelRef):
        return False
    if key == "predictor":
        return True
    from repro.core.predictor import HybridPredictor

    return isinstance(value, HybridPredictor)


# -- the process-wide shared pool --------------------------------------

_shared: WorkerPool | None = None
_shared_lock = threading.Lock()


def shared_pool(jobs: int | None = None) -> WorkerPool:
    """The process-wide warm pool, (re)created on demand.

    Reused as long as the existing pool is open and at least as large
    as the request (``run`` caps per-call concurrency, so a larger pool
    can serve a smaller request exactly); a bigger request replaces it.
    Closed automatically at interpreter exit via the pool's finalizer.
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
    """Tear down the shared warm pool (workers + shared memory)."""
    global _shared
    with _shared_lock:
        if _shared is not None:
            _shared.close()
            _shared = None


__all__ = [
    "MODEL_CACHE_LIMIT",
    "ModelRef",
    "PoolRunStats",
    "WorkerPool",
    "shared_pool",
    "close_shared_pool",
]
