"""Tests for the core graph type, chordality machinery, and clique extraction."""
from __future__ import annotations

import itertools
import json
import random

import pytest
from hypothesis import given

from leafpower import (
    Graph,
    components,
    dumps,
    graph_from_json_obj,
    graph_to_dot,
    graph_to_json_obj,
    induced_subgraph,
    is_chordal,
    is_cluster_graph,
    is_separator,
    maximal_cliques,
    normalize_edge,
)
from leafpower.graphs import _max_cardinality_search

from conftest import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_ball_model,
    random_graphs,
)


# ---------------------------------------------------------------------------
# Independent oracles (straightforward brute force, no shared code paths)
# ---------------------------------------------------------------------------

def oracle_has_induced_long_cycle(g: Graph) -> bool:
    """True when some vertex subset of size >= 4 induces a chordless cycle.

    A subset induces a cycle exactly when the induced subgraph is connected
    and every vertex of it has induced degree two.
    """
    for size in range(4, g.n + 1):
        for subset in itertools.combinations(g.vertices, size):
            chosen = set(subset)
            degrees = {
                v: sum(1 for w in g.neighbors(v) if w in chosen) for v in subset
            }
            if any(d != 2 for d in degrees.values()):
                continue
            seen = {subset[0]}
            frontier = [subset[0]]
            while frontier:
                v = frontier.pop()
                for w in g.neighbors(v):
                    if w in chosen and w not in seen:
                        seen.add(w)
                        frontier.append(w)
            if len(seen) == size:
                return True
    return False


def assert_perfect_elimination_ordering(g: Graph) -> None:
    """The search calls ``g`` chordal, and its reverse visit order lists every vertex
    once, each vertex's later neighbours forming a clique."""
    visit_order, _, chordal = _max_cardinality_search(g)
    assert chordal
    order = visit_order[::-1]
    assert sorted(order) == sorted(g.vertices)
    position = {v: i for i, v in enumerate(order)}
    for i, v in enumerate(order):
        later = [w for w in g.neighbors(v) if position[w] > i]
        for u, w in itertools.combinations(later, 2):
            assert g.adjacent(u, w)


def oracle_maximal_cliques(g: Graph) -> set[frozenset[str]]:
    """Bron-Kerbosch with pivoting; works on any graph."""
    found: set[frozenset[str]] = set()

    def expand(r: set[str], p: set[str], x: set[str]) -> None:
        if not p and not x:
            found.add(frozenset(r))
            return
        pivot = max(p | x, key=lambda u: sum(1 for w in p if g.adjacent(u, w)))
        for v in sorted(p - set(g.neighbors(pivot))):
            nv = set(g.neighbors(v))
            expand(r | {v}, p & nv, x & nv)
            p.remove(v)
            x.add(v)

    expand(set(), set(g.vertices), set())
    return found


def oracle_is_separator(g: Graph, subset: frozenset[str]) -> bool:
    """True when removing ``subset`` disconnects two vertices it left behind."""
    remaining = [v for v in g.vertices if v not in subset]
    if not remaining:
        return False

    def reachable(start: str) -> set[str]:
        seen = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in g.neighbors(v):
                if w not in subset and w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return seen

    before = {v: reachable_all(g, v) for v in remaining}
    for u, v in itertools.combinations(remaining, 2):
        if v in before[u] and v not in reachable(u):
            return True
    return False


def reachable_all(g: Graph, start: str) -> set[str]:
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for w in g.neighbors(v):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

class TestGraphBuild:
    def test_vertex_order_kept_and_edges_canonical(self):
        g = Graph.build(["b", "a", "c"], [("c", "a")])
        assert g.vertices == ("b", "a", "c")
        assert g.edges == (("a", "c"),)

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(ValueError, match="duplicate vertex"):
            Graph.build(["a", "a"], [])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError, match="outside the vertex set"):
            Graph.build(["a", "b"], [("a", "z")])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.build(["a"], [("a", "a")])

    def test_mirrored_edge_deduplicated(self):
        g = Graph.build(["a", "b"], [("a", "b"), ("b", "a")])
        assert g.edges == (("a", "b"),)

    def test_normalize_edge_orders_endpoints(self):
        assert normalize_edge("z", "a") == ("a", "z")
        with pytest.raises(ValueError, match="self-loop"):
            normalize_edge("a", "a")

    def test_adjacency_and_degree(self):
        g = path_graph(["a", "b", "c"])
        assert g.adjacent("a", "b")
        assert g.adjacent("b", "a")
        assert not g.adjacent("a", "c")
        assert not g.adjacent("a", "a")
        assert not g.adjacent("a", "z") and not g.adjacent("z", "a")
        assert g.neighbors("b") == frozenset({"a", "c"})
        assert g.degree("a") == 1
        assert g.n == 3


class TestComponents:
    def test_two_components(self):
        g = Graph.build(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        assert components(g) == [frozenset({"a", "b"}), frozenset({"c", "d"})]


# ---------------------------------------------------------------------------
# Chordality: oracle agreement over the whole atlas corpus
# ---------------------------------------------------------------------------

class TestChordality:
    def test_agrees_with_induced_cycle_oracle_on_all_atlas_graphs(
        self, atlas_graphs
    ):
        for g in atlas_graphs:
            assert is_chordal(g) == (not oracle_has_induced_long_cycle(g)), (
                f"disagreement on {g.vertices} / {g.edges}"
            )

    def test_four_cycle_not_chordal(self):
        assert not is_chordal(cycle_graph(["a", "b", "c", "d"]))

    def test_complete_graphs_chordal(self):
        for n in range(1, 6):
            assert is_chordal(complete_graph([f"v{i}" for i in range(n)]))

    def test_peo_of_chordal_graph_is_valid_ordering(self, atlas_graphs):
        for g in atlas_graphs:
            if is_chordal(g):
                assert_perfect_elimination_ordering(g)

    def test_peo_none_for_non_chordal(self):
        assert not _max_cardinality_search(cycle_graph(["a", "b", "c", "d"]))[2]


# ---------------------------------------------------------------------------
# Maximal cliques: Bron-Kerbosch oracle agreement
# ---------------------------------------------------------------------------

class TestMaximalCliques:
    def test_agrees_with_bron_kerbosch_on_chordal_atlas_graphs(self, atlas_graphs):
        for g in atlas_graphs:
            if not is_chordal(g):
                continue
            ours = set(maximal_cliques(g))
            assert ours == oracle_maximal_cliques(g)

    def test_at_most_n_maximal_cliques(self, atlas_graphs):
        for g in atlas_graphs:
            if is_chordal(g):
                assert len(maximal_cliques(g)) <= g.n

    def test_no_clique_contains_another(self, atlas_graphs):
        for g in atlas_graphs:
            if not is_chordal(g):
                continue
            cliques = maximal_cliques(g)
            for a, b in itertools.permutations(cliques, 2):
                assert not a < b

    def test_rejects_non_chordal_graph(self):
        with pytest.raises(ValueError, match="requires chordal graph"):
            maximal_cliques(cycle_graph(["a", "b", "c", "d"]))

    def test_path_cliques_are_edges(self):
        g = path_graph(["a", "b", "c"])
        assert set(maximal_cliques(g)) == {
            frozenset({"a", "b"}),
            frozenset({"b", "c"}),
        }

    def test_complete_graph_single_clique(self):
        g = complete_graph(["a", "b", "c", "d"])
        assert maximal_cliques(g) == [frozenset("abcd")]

    def test_agrees_with_bron_kerbosch_beyond_the_atlas(self):
        # Ball models on hosts of up to 15 nodes give chordal graphs of up
        # to 16 vertices, past the 7-vertex atlas.
        rng = random.Random(16)
        for _ in range(200):
            g, _ = random_ball_model(rng, max_host=15, max_vertices=16)
            assert_perfect_elimination_ordering(g)
            assert set(maximal_cliques(g)) == oracle_maximal_cliques(g)


# ---------------------------------------------------------------------------
# Separators
# ---------------------------------------------------------------------------

class TestSeparator:
    def test_middle_of_path_separates(self):
        g = path_graph(["a", "b", "c"])
        assert is_separator(g, frozenset({"b"}))
        assert not is_separator(g, frozenset({"a"}))

    def test_complete_graph_has_no_separator(self):
        g = complete_graph(["a", "b", "c", "d"])
        for size in range(1, 4):
            for subset in itertools.combinations(g.vertices, size):
                assert not is_separator(g, frozenset(subset))

    @given(random_graphs(max_nodes=6))
    def test_agrees_with_pairwise_connectivity_oracle(self, g: Graph):
        for size in range(0, g.n + 1):
            for subset in itertools.combinations(g.vertices, size):
                s = frozenset(subset)
                assert is_separator(g, s) == oracle_is_separator(g, s)


# ---------------------------------------------------------------------------
# Cluster graphs and induced subgraphs
# ---------------------------------------------------------------------------

class TestClusterGraph:
    def test_disjoint_cliques_are_cluster(self):
        g = Graph.build(
            ["a", "b", "c", "d", "e"],
            [("a", "b"), ("c", "d"), ("c", "e"), ("d", "e")],
        )
        assert is_cluster_graph(g)

    def test_path_on_three_is_not_cluster(self):
        assert not is_cluster_graph(path_graph(["a", "b", "c"]))

    def test_cluster_iff_every_component_complete(self, small_atlas_graphs):
        for g in small_atlas_graphs:
            expected = all(
                g.adjacent(u, v)
                for comp in components(g)
                for u, v in itertools.combinations(sorted(comp), 2)
            )
            assert is_cluster_graph(g) == expected


class TestInducedSubgraph:
    def test_keeps_internal_edges_only(self):
        g = cycle_graph(["a", "b", "c", "d"])
        h = induced_subgraph(g, ["a", "b", "c"])
        assert h.vertices == ("a", "b", "c")
        assert h.edges == (("a", "b"), ("b", "c"))

    def test_unknown_vertex_rejected(self):
        g = path_graph(["a", "b"])
        with pytest.raises(ValueError, match="not in the graph"):
            induced_subgraph(g, ["a", "z"])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

class TestGraphSerialization:
    def test_json_round_trip(self):
        g = cycle_graph(["a", "b", "c", "d"])
        assert graph_from_json_obj(json.loads(dumps(graph_to_json_obj(g)))) == g

    def test_json_is_byte_stable(self):
        g = cycle_graph(["a", "b", "c", "d"])
        text = dumps(graph_to_json_obj(g))
        assert text == dumps(graph_to_json_obj(graph_from_json_obj(json.loads(text))))

    def test_json_shape(self):
        g = path_graph(["a", "b"])
        payload = json.loads(dumps(graph_to_json_obj(g)))
        assert payload == {"vertices": ["a", "b"], "edges": [["a", "b"]]}

    @given(random_graphs(max_nodes=6))
    def test_json_round_trip_random(self, g: Graph):
        assert graph_from_json_obj(json.loads(dumps(graph_to_json_obj(g)))) == g

    def test_dot_mentions_every_vertex_and_edge(self):
        g = path_graph(["a", "b", "c"])
        dot = graph_to_dot(g)
        assert dot.startswith("graph")
        for v in g.vertices:
            assert f'"{v}"' in dot
        assert '"a" -- "b"' in dot
