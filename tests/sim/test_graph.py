"""Unit tests for the application graph."""

import numpy as np
import pytest

from repro.apps import hotel_reservation, media_service, social_network
from repro.sim.graph import AppGraph, RequestType
from repro.sim.tier import TierKind, TierSpec

#: ``children``, ``reverse_topo_order`` and the call edges (as tier
#: indices) of each application, as networkx 3's ``DiGraph`` built them.
APP_TOPOLOGY = {
    "social_network": (
        [[1, 19, 16, 9], [2, 5, 6, 9, 12, 13, 21, 23], [], [], [10, 11], [7, 3, 4], [8],
         [], [], [10, 11], [], [], [], [14, 15], [], [], [17, 18, 13], [], [], [20, 13],
         [], [22], [20, 25], [24], [17, 18], [26, 27], [], []],
        [27, 26, 18, 17, 25, 20, 11, 10, 15, 14, 24, 22, 8, 4, 3, 7, 13, 23, 21, 12, 9,
         6, 5, 2, 16, 19, 1, 0],
        [(0, 1), (0, 19), (0, 16), (0, 9), (1, 2), (1, 5), (1, 6), (1, 9), (1, 12),
         (1, 13), (1, 21), (1, 23), (4, 10), (4, 11), (5, 7), (5, 3), (5, 4), (6, 8),
         (9, 10), (9, 11), (13, 14), (13, 15), (16, 17), (16, 18), (16, 13), (19, 20),
         (19, 13), (21, 22), (22, 20), (22, 25), (23, 24), (24, 17), (24, 18), (25, 26),
         (25, 27)],
    ),
    "hotel_reservation": (
        [[1, 5, 6, 7, 4], [2, 3], [12], [10, 11], [8, 9], [13], [14, 15, 7], [16], [],
         [], [], [], [], [], [], [], []],
        [16, 11, 10, 12, 9, 8, 7, 15, 14, 13, 3, 2, 4, 6, 5, 1, 0],
        [(0, 1), (0, 5), (0, 6), (0, 7), (0, 4), (1, 2), (1, 3), (2, 12), (3, 10),
         (3, 11), (4, 8), (4, 9), (5, 13), (6, 14), (6, 15), (6, 7), (7, 16)],
    ),
    "media_service": (
        [[1, 10, 8], [2, 3, 4, 5, 6, 7, 8, 9], [], [], [17], [14, 15], [16], [18, 19],
         [20, 21, 7], [22, 23, 7], [11, 9, 12, 13], [24], [25], [26], [], [], [], [],
         [], [], [], [], [], [], [], [], []],
        [19, 18, 26, 25, 7, 23, 22, 24, 21, 20, 16, 15, 14, 17, 13, 12, 9, 11, 8, 6, 5,
         4, 3, 2, 10, 1, 0],
        [(0, 1), (0, 10), (0, 8), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7),
         (1, 8), (1, 9), (4, 17), (5, 14), (5, 15), (6, 16), (7, 18), (7, 19), (8, 20),
         (8, 21), (8, 7), (9, 22), (9, 23), (9, 7), (10, 11), (10, 9), (10, 12),
         (10, 13), (11, 24), (12, 25), (13, 26)],
    ),
}


def two_tiers():
    return [TierSpec("a", kind=TierKind.FRONTEND), TierSpec("b", kind=TierKind.DB)]


class TestRequestType:
    def test_requires_stages(self):
        with pytest.raises(ValueError, match="at least one stage"):
            RequestType("r", stages=())

    def test_rejects_empty_stage(self):
        with pytest.raises(ValueError, match="empty stage"):
            RequestType("r", stages=((),))

    def test_tiers_deduplicated_in_order(self):
        r = RequestType("r", stages=(("a",), ("b", "a"), ("c",)))
        assert r.tiers == ("a", "b", "c")

    def test_visits_counts_appearances_times_work(self):
        r = RequestType("r", stages=(("a",), ("a", "b")), work={"a": 2.0})
        assert r.visits("a") == pytest.approx(4.0)
        assert r.visits("b") == pytest.approx(1.0)
        assert r.visits("missing") == pytest.approx(0.0)


class TestAppGraphValidation:
    def test_rejects_duplicate_tier_names(self):
        tiers = [TierSpec("a"), TierSpec("a")]
        with pytest.raises(ValueError, match="duplicate"):
            AppGraph("app", tiers, [], [RequestType("r", (("a",),))])

    def test_rejects_unknown_edge_endpoint(self):
        with pytest.raises(ValueError, match="not a tier"):
            AppGraph("app", two_tiers(), [("a", "zz")], [RequestType("r", (("a",),))])

    def test_rejects_unknown_request_tier(self):
        with pytest.raises(ValueError, match="unknown tier"):
            AppGraph("app", two_tiers(), [], [RequestType("r", (("zz",),))])

    def test_rejects_cyclic_call_graph(self):
        with pytest.raises(ValueError, match="acyclic"):
            AppGraph(
                "app",
                two_tiers(),
                [("a", "b"), ("b", "a")],
                [RequestType("r", (("a",),))],
            )

    def test_rejects_empty_tiers(self):
        with pytest.raises(ValueError, match="at least one tier"):
            AppGraph("app", [], [], [])

    def test_rejects_duplicate_request_types(self):
        reqs = [RequestType("r", (("a",),)), RequestType("r", (("b",),))]
        with pytest.raises(ValueError, match="duplicate request type"):
            AppGraph("app", two_tiers(), [], reqs)


class TestAppGraphStructure:
    def test_visit_matrix(self, tiny_graph):
        read = tiny_graph.type_names.index("Read")
        db = tiny_graph.index["db"]
        logic = tiny_graph.index["logic"]
        assert tiny_graph.visit_matrix[read, db] == pytest.approx(0.3)
        assert tiny_graph.visit_matrix[read, logic] == pytest.approx(1.0)

    def test_reverse_topo_children_first(self, tiny_graph):
        order = list(tiny_graph.reverse_topo_order)
        for idx in range(tiny_graph.n_tiers):
            for child in tiny_graph.children[idx]:
                assert order.index(int(child)) < order.index(idx)

    def test_alloc_bounds_vectors(self, tiny_graph):
        assert tiny_graph.min_alloc().shape == (4,)
        assert np.all(tiny_graph.min_alloc() <= tiny_graph.max_alloc())

    def test_request_type_lookup(self, tiny_graph):
        assert tiny_graph.request_type("Read").name == "Read"
        with pytest.raises(KeyError):
            tiny_graph.request_type("nope")

    def test_map_tiers_keeps_topology(self, tiny_graph):
        scaled = tiny_graph.map_tiers(lambda t: t.scaled(cpu_scale=2.0))
        assert scaled.tier_names == tiny_graph.tier_names
        assert scaled.tiers[0].cpu_per_req == pytest.approx(
            2.0 * tiny_graph.tiers[0].cpu_per_req
        )
        assert scaled.edges == tiny_graph.edges

    def test_with_tiers_rejects_reordered_names(self, tiny_graph):
        reordered = list(reversed(tiny_graph.tiers))
        with pytest.raises(ValueError, match="names and order"):
            tiny_graph.with_tiers(reordered)

    def test_stage_indices_align_with_stages(self, tiny_graph):
        read = tiny_graph.type_names.index("Read")
        stages = tiny_graph.stage_indices[read]
        assert [list(s) for s in stages] == [
            [tiny_graph.index["front"]],
            [tiny_graph.index["logic"]],
            [tiny_graph.index["cache"], tiny_graph.index["db"]],
        ]


class TestTopology:
    """Call edges, ``children`` and ``reverse_topo_order`` without a graph
    library: the three applications keep the arrays networkx gave them,
    and random DAGs keep the order rules those arrays follow."""

    @pytest.mark.parametrize(
        "factory", [social_network, hotel_reservation, media_service],
        ids=lambda f: f.__name__,
    )
    def test_apps_match_recorded_networkx_topology(self, factory):
        graph = factory()
        children, reverse_topo, edges = APP_TOPOLOGY[factory.__name__]
        assert [c.tolist() for c in graph.children] == children
        assert all(c.dtype == np.dtype(int) for c in graph.children)
        assert graph.reverse_topo_order.tolist() == reverse_topo
        assert graph.reverse_topo_order.dtype == np.dtype(int)
        assert [(graph.index[a], graph.index[b]) for a, b in graph.edges] == edges

    @staticmethod
    def _random_dag(rng):
        """Tiers in a random order, edges drawn along a hidden ranking
        (so the graph is acyclic), in random order, some repeated."""
        n = int(rng.integers(1, 31))
        names = [f"t{i}" for i in rng.permutation(n)]
        rank = rng.permutation(n)
        edges = []
        for _ in range(int(rng.integers(0, 3 * n + 1)) if n > 1 else 0):
            a, b = sorted(rng.choice(n, 2, replace=False))
            edges.append((names[rank[a]], names[rank[b]]))
        for _ in range(int(rng.integers(0, 4)) if edges else 0):
            edges.append(edges[int(rng.integers(len(edges)))])
        order = rng.permutation(len(edges))
        return names, [edges[i] for i in order]

    def test_random_dags_keep_order_rules(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            names, edges = self._random_dag(rng)
            graph = AppGraph(
                "dag", [TierSpec(n) for n in names], edges,
                [RequestType("r", ((names[0],),))],
            )
            # Duplicates collapse; each caller's callees keep the order of
            # their first appearance; callers come in tier order.
            first_seen = list(dict.fromkeys(edges))
            want_children = [
                [graph.index[c] for a, c in first_seen if a == n] for n in names
            ]
            assert [c.tolist() for c in graph.children] == want_children
            assert graph.edges == tuple(
                (n, names[c]) for n, cs in zip(names, want_children) for c in cs
            )
            assert len(graph.edges) == len(set(edges))
            # Every tier once, and callees before their callers.
            order = graph.reverse_topo_order.tolist()
            assert sorted(order) == list(range(len(names)))
            position = {tier: k for k, tier in enumerate(order)}
            for caller, callee in graph.edges:
                assert position[graph.index[callee]] < position[graph.index[caller]]

    @pytest.mark.parametrize("edges", [
        [("a", "a")],
        [("a", "b"), ("b", "c"), ("c", "a")],
    ], ids=["self-loop", "3-cycle"])
    def test_rejects_cycles(self, edges):
        tiers = [TierSpec(n) for n in "abc"]
        with pytest.raises(ValueError, match="acyclic"):
            AppGraph("app", tiers, edges, [RequestType("r", (("a",),))])

    def test_with_tiers_passes_edges_on_in_order(self):
        graph = social_network()
        again = graph.with_tiers(list(graph.tiers))
        assert again.edges == graph.edges
        assert [c.tolist() for c in again.children] == [
            c.tolist() for c in graph.children
        ]
