"""Application graph: tiers, RPC edges, and per-request-type paths.

A request type (e.g. ``ComposePost``) traverses the graph as a sequence
of *stages*; tiers within one stage are invoked in parallel (fan-out) and
consecutive stages are sequential, so the end-to-end latency of a request
is the sum over stages of the maximum tier sojourn within each stage.
This mirrors how the paper's applications compose synchronous RPCs
(Thrift / gRPC) with parallel fan-out to caches and databases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sim.tier import TierSpec


@dataclass(frozen=True)
class RequestType:
    """One end-to-end request class of an application.

    Parameters
    ----------
    name:
        Request type name, e.g. ``"ComposePost"``.
    stages:
        Sequential stages; each stage is a list of tier names invoked in
        parallel.  A tier may appear in multiple stages (revisits).
    work:
        Optional per-tier work multiplier (units of work per request);
        tiers not listed default to 1.0 per appearance in ``stages``.
    """

    name: str
    stages: tuple[tuple[str, ...], ...]
    work: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError(f"request type {self.name}: needs at least one stage")
        for stage in self.stages:
            if not stage:
                raise ValueError(f"request type {self.name}: empty stage")

    @property
    def tiers(self) -> tuple[str, ...]:
        """All tier names visited, in stage order, without duplicates."""
        seen: dict[str, None] = {}
        for stage in self.stages:
            for name in stage:
                seen.setdefault(name)
        return tuple(seen)

    def visits(self, tier: str) -> float:
        """Units of work this request places on ``tier`` end to end."""
        appearances = sum(stage.count(tier) for stage in self.stages)
        return appearances * self.work.get(tier, 1.0)


class AppGraph:
    """A microservice application: tiers, call edges, and request types.

    Parameters
    ----------
    name:
        Application name (``"social_network"`` / ``"hotel_reservation"``).
    tiers:
        Tier specifications; order defines the row order of the "image"
        input to the CNN (paper Section 3.1 places consecutive tiers in
        adjacent rows, which the convolution kernels exploit).
    edges:
        Synchronous RPC edges ``(caller, callee)``.  Used for the
        backpressure model: a caller's concurrency slots are held while
        its callees work.
    request_types:
        End-to-end request classes with their stage paths.
    """

    def __init__(
        self,
        name: str,
        tiers: list[TierSpec],
        edges: list[tuple[str, str]],
        request_types: list[RequestType],
    ) -> None:
        if not tiers:
            raise ValueError("application needs at least one tier")
        names = [t.name for t in tiers]
        if len(set(names)) != len(names):
            raise ValueError("duplicate tier names")
        self.name = name
        self.tiers = list(tiers)
        self.tier_names = names
        self.index = {n: i for i, n in enumerate(names)}
        self.request_types = list(request_types)
        self.type_names = [r.name for r in request_types]
        if len(set(self.type_names)) != len(self.type_names):
            raise ValueError("duplicate request type names")

        for caller, callee in edges:
            for endpoint in (caller, callee):
                if endpoint not in self.index:
                    raise ValueError(f"edge endpoint {endpoint!r} is not a tier")
        for rtype in request_types:
            for tier in rtype.tiers:
                if tier not in self.index:
                    raise ValueError(
                        f"request type {rtype.name} visits unknown tier {tier!r}"
                    )

        # Callees per caller in first-insertion order; a repeated edge
        # keeps its first place.  ``edges`` lists the unique edges with
        # callers in tier order.
        callees: dict[str, dict[str, None]] = {n: {} for n in names}
        for caller, callee in edges:
            callees[caller].setdefault(callee)
        self.edges = tuple((n, c) for n in names for c in callees[n])

        # Children lists (callees) per tier index, and a reverse topological
        # order so the engine can compute downstream sojourns before the
        # tiers that wait on them.  The order is Kahn's, one generation at
        # a time from the zero-in-degree tiers in tier order; a tier on a
        # cycle (or a self-loop) never reaches in-degree zero.
        self.children: list[np.ndarray] = [
            np.array([self.index[c] for c in callees[n]], dtype=int) for n in names
        ]
        in_degree = dict.fromkeys(names, 0)
        for _, callee in self.edges:
            in_degree[callee] += 1
        generation = [n for n in names if in_degree[n] == 0]
        topo: list[str] = []
        while generation:
            topo.extend(generation)
            later = []
            for caller in generation:
                for callee in callees[caller]:
                    in_degree[callee] -= 1
                    if in_degree[callee] == 0:
                        later.append(callee)
            generation = later
        if len(topo) != len(names):
            raise ValueError("RPC call graph must be acyclic")
        self.reverse_topo_order = np.array(
            [self.index[n] for n in reversed(topo)], dtype=int
        )

        # Work matrix V[r, t]: units of work request type r places on tier t.
        self.visit_matrix = np.zeros((len(request_types), len(tiers)))
        for r, rtype in enumerate(request_types):
            for tier in rtype.tiers:
                self.visit_matrix[r, self.index[tier]] = rtype.visits(tier)

        # Stage structure as index arrays for fast latency sampling.
        self.stage_indices: list[list[np.ndarray]] = [
            [np.array([self.index[t] for t in stage], dtype=int) for stage in r.stages]
            for r in request_types
        ]

    @property
    def n_tiers(self) -> int:
        return len(self.tiers)

    @property
    def n_types(self) -> int:
        return len(self.request_types)

    def min_alloc(self) -> np.ndarray:
        """Per-tier minimum CPU allocation vector."""
        return np.array([t.min_cpu for t in self.tiers])

    def max_alloc(self) -> np.ndarray:
        """Per-tier maximum CPU allocation vector (across replicas)."""
        return np.array([t.total_max_cpu for t in self.tiers])

    def request_type(self, name: str) -> RequestType:
        for rtype in self.request_types:
            if rtype.name == name:
                return rtype
        raise KeyError(name)

    def with_tiers(self, tiers: list[TierSpec]) -> "AppGraph":
        """Rebuild the graph with substituted tier specs (same topology)."""
        if [t.name for t in tiers] != self.tier_names:
            raise ValueError("substituted tiers must keep names and order")
        return AppGraph(
            self.name,
            tiers,
            list(self.edges),
            self.request_types,
        )

    def map_tiers(self, fn) -> "AppGraph":
        """Apply ``fn(TierSpec) -> TierSpec`` to every tier."""
        return self.with_tiers([fn(t) for t in self.tiers])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AppGraph({self.name!r}, tiers={self.n_tiers}, "
            f"types={self.type_names})"
        )


__all__ = ["AppGraph", "RequestType"]
