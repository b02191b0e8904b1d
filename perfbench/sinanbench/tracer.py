"""In-memory span tracer that instruments repro's layers from outside.

The tracer never edits the package: it replaces each layer function, at
the name its callers look it up by, with a wrapper that records a span
(name, start, end, parent, and the unit/interval the span belongs to)
in a list kept in memory.  ``uninstall`` puts every original back, so
one process can alternate traced and untraced work to measure the
tracing overhead.

A target that no longer exists (a later change renamed or deleted it)
is reported as missing instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import re
import time
from dataclasses import dataclass
from typing import Any, Callable

#: Root spans the benchmark opens itself; their self time is the part of
#: the traced wall time no layer span covers.
ROOT_SPANS = ("bench.setup", "bench.unit")

_METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def validate_metric_name(name: str) -> str:
    """Return ``name`` if it is a legal metric name, else raise ValueError.

    Names are made of letters, digits, ``_``, ``.`` and ``-``, start with
    a letter or digit and are at most 64 characters long.
    """
    if not isinstance(name, str) or not _METRIC_NAME.fullmatch(name):
        raise ValueError(f"illegal metric name {name!r}")
    return name


@dataclass(frozen=True)
class SpanTarget:
    """One layer span and the attribute paths it wraps.

    Each target is ``"module:Owner.attr"`` or ``"module:function"``.
    Several targets may share a span when callers reach the same layer
    through different names (a function imported by name into another
    module is a second name).  ``count`` maps a call's result to a number
    added to the span's item count.
    """

    span: str
    targets: tuple[str, ...]
    count: Callable[[Any], float] | None = None


#: The layer boundaries, grouped by the package module they belong to.
SPANS: tuple[SpanTarget, ...] = (
    # repro.sim
    SpanTarget("sim.engine.run_interval",
               ("repro.sim.engine:QueueingEngine.run_interval",)),
    SpanTarget("sim.cluster.step", ("repro.sim.cluster:ClusterSimulator.step",)),
    # repro.core
    SpanTarget("core.scheduler.decide", ("repro.core.scheduler:OnlineScheduler.decide",)),
    SpanTarget("core.actions.candidates",
               ("repro.core.actions:ActionSpace.candidates_fast",
                "repro.core.actions:ActionSpace.candidates"),
               count=len),
    SpanTarget("core.predictor.predict_candidates",
               ("repro.core.predictor:HybridPredictor.predict_candidates",)),
    SpanTarget("core.features.encode",
               ("repro.core.features:WindowEncoder.encode_candidates_shared",)),
    SpanTarget("core.data_collection.collect",
               ("repro.core.data_collection:DataCollector.collect",)),
    SpanTarget("core.data_collection.bandit_decide",
               ("repro.core.data_collection:BanditExplorer.decide",)),
    SpanTarget("core.features.build_dataset",
               ("repro.core.data_collection:build_dataset",
                "repro.core.features:build_dataset")),
    SpanTarget("core.predictor.train", ("repro.core.predictor:HybridPredictor.train",)),
    # repro.ml
    SpanTarget("ml.cnn.predict", ("repro.ml.cnn:LatencyCNN.predict_candidates",)),
    SpanTarget("ml.boosted_trees.predict",
               ("repro.ml.boosted_trees:BoostedTrees.predict_proba",)),
    SpanTarget("ml.cnn.fit", ("repro.ml.cnn:LatencyCNN.fit",)),
    SpanTarget("ml.cnn.latent", ("repro.ml.cnn:LatencyCNN.latent",)),
    SpanTarget("ml.boosted_trees.fit", ("repro.ml.boosted_trees:BoostedTrees.fit",)),
    # repro.tenancy and repro.baselines
    SpanTarget("tenancy.simulator.step",
               ("repro.tenancy.simulator:MultiTenantSimulator.step",)),
    SpanTarget("tenancy.tenant.request", ("repro.tenancy.tenant:Tenant.request",)),
    SpanTarget("tenancy.tenant.apply", ("repro.tenancy.tenant:Tenant.apply",)),
    SpanTarget("tenancy.arbiter.arbitrate",
               ("repro.tenancy.arbiter:CreditArbiter.arbitrate",)),
    SpanTarget("baselines.autoscale.decide", ("repro.baselines.autoscale:AutoScale.decide",)),
    # repro.harness
    SpanTarget("harness.pipeline.get_trained_predictor",
               ("repro.harness.pipeline:get_trained_predictor",)),
    SpanTarget("harness.parallel.run_episodes",
               ("repro.harness.parallel:run_episodes",
                "repro.harness.pipeline:run_episodes",
                "repro.harness.experiment:run_episodes",
                "repro.harness.multitenant:run_episodes")),
)


def _resolve(target: str) -> tuple[Any, str, Any]:
    """``(owner, attr, raw)`` for a ``module:Qual.name`` path.

    ``raw`` is the attribute as found by the lookup callers make (which
    may live on a base class), not a bound method.  Raises LookupError
    when any part of the path is gone.
    """
    module_name, _, qual = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(target) from exc
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(target)
    try:
        raw = inspect.getattr_static(owner, attr)
    except AttributeError as exc:
        raise LookupError(target) from exc
    if not callable(raw):
        raise LookupError(target)
    return owner, attr, raw


class Patcher:
    """Replace attributes with wrappers and restore them afterwards."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any, bool]] = []

    def wrap(self, target: str, make: Callable[[Callable], Callable]) -> None:
        """Wrap ``target`` with ``make(original)``; LookupError if gone."""
        owner, attr, raw = _resolve(target)
        own = attr in vars(owner)
        self._saved.append((owner, attr, vars(owner)[attr] if own else None, own))
        setattr(owner, attr, make(raw))

    def restore(self) -> None:
        """Undo every wrap, most recent first."""
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


@dataclass
class Span:
    """One recorded call.  Times are seconds on the tracer's clock."""

    name: str
    start: float
    end: float
    parent: int
    unit: int
    interval: int


class Tracer:
    """Records spans at every :data:`SPANS` boundary while installed.

    ``interval_span`` names the span whose every call starts a new
    decision interval; each span records the index of the unit (one
    root ``bench.unit`` span) and of the interval it ran in.  The tracer
    assumes the traced code runs on one thread.
    """

    def __init__(
        self,
        targets: tuple[SpanTarget, ...] = SPANS,
        interval_span: str | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.targets = targets
        self.interval_span = interval_span
        self.clock = clock
        self.spans: list[Span] = []
        self.items: dict[str, float] = {}
        self.missing: list[str] = []
        self.unit = -1
        self.interval = -1
        self._stack: list[int] = []
        self._patcher = Patcher()

    # -- recording -------------------------------------------------------

    def enter(self, name: str) -> int:
        """Open a span; returns its index for :meth:`exit`."""
        if name == "bench.unit" and not self._stack:
            self.unit += 1
            self.interval = -1
        if name == self.interval_span:
            self.interval += 1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            Span(name, self.clock(), float("nan"), parent, self.unit, self.interval)
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        """Close the innermost open span, opened as ``index``."""
        self.spans[index].end = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """Open a span the benchmark itself owns (see :data:`ROOT_SPANS`)."""
        index = self.enter(name)
        try:
            yield
        finally:
            self.exit(index)

    def _wrapper(self, target: SpanTarget) -> Callable[[Callable], Callable]:
        tracer = self
        name = target.span
        count = target.count

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                index = tracer.enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.exit(index)
                if count is not None:
                    tracer.items[name] = tracer.items.get(name, 0.0) + float(count(result))
                return result

            return traced

        return make

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        """Wrap every live target; spans with no live target are missing."""
        missing = []
        for target in self.targets:
            found = False
            for path in target.targets:
                try:
                    self._patcher.wrap(path, self._wrapper(target))
                    found = True
                except LookupError:
                    continue
            if not found:
                missing.append(target.span)
        self.missing = missing

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        self._patcher.restore()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus the children's durations."""
        selfs = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                selfs[s.parent] -= s.end - s.start
        return selfs

    def layer_table(self) -> dict[str, tuple[int, float]]:
        """``{span: (calls, self seconds)}`` over every recorded span."""
        table: dict[str, tuple[int, float]] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            calls, total = table.get(span.name, (0, 0.0))
            table[span.name] = (calls + 1, total + self_s)
        return table

    def wall_s(self) -> float:
        """Summed duration of the root spans (the traced wall time)."""
        return sum(s.end - s.start for s in self.spans if s.parent < 0)

    def chrome_trace(self) -> dict:
        """The spans in Chrome trace-event format (complete events, us)."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = []
        for i, s in enumerate(self.spans):
            events.append({
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": i, "parent": s.parent, "unit": s.unit,
                         "interval": s.interval},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def capture(patcher: Patcher, target: str, sink: list) -> None:
    """Wrap ``target`` so every call appends ``(args, kwargs, result)`` to
    ``sink``: a probe that observes a layer's output without tracing it."""

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append((args, kwargs, result))
            return result

        return captured

    patcher.wrap(target, make)


def time_calls(patcher: Patcher, target: str, sink: list) -> None:
    """Wrap ``target`` so every call appends its ``(start, end)``
    ``perf_counter`` times to ``sink``."""

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                sink.append((start, time.perf_counter()))

        return timed

    patcher.wrap(target, make)


__all__ = [
    "ROOT_SPANS",
    "SPANS",
    "Patcher",
    "Span",
    "SpanTarget",
    "Tracer",
    "capture",
    "time_calls",
    "validate_metric_name",
]
