"""Tests for the immutable tree type and its path/median/corridor helpers."""
from __future__ import annotations

import json

import networkx as nx
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from leafpower import (
    Tree,
    ball,
    connecting_path,
    connector,
    distance,
    distances_from,
    dumps,
    median,
    tree_from_json_obj,
    tree_path,
    tree_to_dot,
    tree_to_json_obj,
)
from leafpower.trees import is_connected_subset

from conftest import path_tree, random_trees, star_tree


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

class TestTreeBuild:
    def test_single_node(self):
        t = Tree.build(["a"], [])
        assert t.nodes == ("a",)
        assert t.leaves() == ("a",)

    def test_edge_count_enforced(self):
        with pytest.raises(ValueError, match="needs 1 edges, got 0"):
            Tree.build(["a", "b"], [])
        with pytest.raises(ValueError, match="needs 2 edges, got 3"):
            Tree.build(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])

    def test_connectivity_enforced(self):
        with pytest.raises(ValueError, match="connect all nodes"):
            Tree.build(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "a")])

    def test_leaves_are_degree_at_most_one(self):
        t = star_tree("c", ["x", "y", "z"])
        assert t.leaves() == ("x", "y", "z")
        t2 = path_tree(["a", "b", "c"])
        assert t2.leaves() == ("a", "c")


# ---------------------------------------------------------------------------
# Paths and distances
# ---------------------------------------------------------------------------

class TestPaths:
    def test_path_on_a_path_tree(self):
        t = path_tree(["a", "b", "c", "d"])
        assert tree_path(t, "a", "d") == ("a", "b", "c", "d")
        assert tree_path(t, "d", "a") == ("d", "c", "b", "a")
        assert tree_path(t, "b", "b") == ("b",)

    def test_unknown_endpoint_rejected(self):
        t = path_tree(["a", "b"])
        with pytest.raises(ValueError, match="path endpoints must be tree nodes"):
            tree_path(t, "a", "z")

    def test_distance_matches_path_length(self):
        t = star_tree("c", ["x", "y", "z"])
        assert distance(t, "x", "y") == 2
        assert distance(t, "x", "c") == 1
        assert distance(t, "x", "x") == 0

    @given(random_trees(max_nodes=9), st.data())
    def test_distance_equals_path_edges_everywhere(self, t: Tree, data):
        u = data.draw(st.sampled_from(t.nodes))
        v = data.draw(st.sampled_from(t.nodes))
        path = tree_path(t, u, v)
        assert path[0] == u and path[-1] == v
        assert distance(t, u, v) == len(path) - 1
        for x, y in zip(path, path[1:]):
            assert (min(x, y), max(x, y)) in {
                (min(a, b), max(a, b)) for a, b in t.edges
            }

    @given(random_trees(max_nodes=9))
    def test_distances_from_agrees_with_pairwise_distance(self, t: Tree):
        for source in t.nodes:
            table = distances_from(t, source)
            assert set(table) == set(t.nodes)
            for target in t.nodes:
                assert table[target] == distance(t, source, target)

    def test_ball_radii(self):
        t = path_tree(["a", "b", "c", "d"])
        assert ball(t, "b", 0) == frozenset({"b"})
        assert ball(t, "b", 1) == frozenset({"a", "b", "c"})
        assert ball(t, "b", 5) == frozenset(t.nodes)


# ---------------------------------------------------------------------------
# Medians
# ---------------------------------------------------------------------------

class TestMedian:
    def test_median_on_path(self):
        t = path_tree(["a", "b", "c", "d", "e"])
        assert median(t, "a", "e", "c") == "c"
        assert median(t, "a", "b", "e") == "b"
        assert median(t, "a", "a", "e") == "a"

    def test_median_of_star_leaves_is_center(self):
        t = star_tree("c", ["x", "y", "z"])
        assert median(t, "x", "y", "z") == "c"

    @given(random_trees(max_nodes=9), st.data())
    def test_median_is_permutation_invariant(self, t: Tree, data):
        picks = [data.draw(st.sampled_from(t.nodes)) for _ in range(3)]
        u, v, w = picks
        m = median(t, u, v, w)
        assert m == median(t, v, w, u) == median(t, w, u, v)
        assert m == median(t, u, w, v)

    @given(random_trees(max_nodes=9), st.data())
    def test_median_lies_on_all_three_pairwise_paths(self, t: Tree, data):
        u = data.draw(st.sampled_from(t.nodes))
        v = data.draw(st.sampled_from(t.nodes))
        w = data.draw(st.sampled_from(t.nodes))
        m = median(t, u, v, w)
        assert m in tree_path(t, u, v)
        assert m in tree_path(t, v, w)
        assert m in tree_path(t, u, w)


# ---------------------------------------------------------------------------
# Connectors (nearest branching node seen from a leaf)
# ---------------------------------------------------------------------------

class TestConnector:
    def test_star_connector_is_center(self):
        t = star_tree("c", ["x", "y", "z"])
        assert connector(t, "x") == "c"

    def test_spider_connector_skips_subdivisions(self):
        t = Tree.build(
            ["c", "m", "x", "y", "z"],
            [("c", "m"), ("m", "x"), ("c", "y"), ("c", "z")],
        )
        assert connector(t, "x") == "c"

    def test_path_has_no_connector(self):
        t = path_tree(["a", "b", "c"])
        with pytest.raises(ValueError, match="no connector: tree is a path"):
            connector(t, "a")

    def test_non_leaf_rejected(self):
        t = star_tree("c", ["x", "y", "z"])
        with pytest.raises(ValueError, match="not a leaf"):
            connector(t, "c")

    @given(random_trees(min_nodes=4, max_nodes=9), st.data())
    def test_connector_is_first_branching_node_on_some_path(self, t: Tree, data):
        branching = [v for v in t.nodes if t.degree(v) >= 3]
        leaves = t.leaves()
        if not branching:
            leaf = data.draw(st.sampled_from(leaves))
            with pytest.raises(ValueError):
                connector(t, leaf)
            return
        leaf = data.draw(st.sampled_from(leaves))
        c = connector(t, leaf)
        assert t.degree(c) >= 3
        walk = tree_path(t, leaf, c)
        for inner in walk[1:-1]:
            assert t.degree(inner) == 2


# ---------------------------------------------------------------------------
# Corridors between disjoint subtrees
# ---------------------------------------------------------------------------

class TestConnectingPath:
    def test_corridor_between_singletons(self):
        t = path_tree(["a", "b", "c", "d"])
        assert connecting_path(t, frozenset({"a"}), frozenset({"d"})) == (
            "a",
            "b",
            "c",
            "d",
        )

    def test_corridor_touches_each_side_once(self):
        t = path_tree(["a", "b", "c", "d", "e"])
        got = connecting_path(t, frozenset({"a", "b"}), frozenset({"d", "e"}))
        assert got == ("b", "c", "d")

    def test_adjacent_subtrees_meet_in_two_nodes(self):
        t = path_tree(["a", "b", "c"])
        assert connecting_path(t, frozenset({"a"}), frozenset({"b", "c"})) == (
            "a",
            "b",
        )

    def test_overlapping_subtrees_rejected(self):
        t = path_tree(["a", "b", "c"])
        with pytest.raises(ValueError, match="subtrees not disjoint"):
            connecting_path(t, frozenset({"a", "b"}), frozenset({"b"}))

    def test_empty_or_disconnected_argument_rejected(self):
        t = path_tree(["a", "b", "c", "d", "e"])
        with pytest.raises(ValueError, match="nonempty subtrees"):
            connecting_path(t, frozenset({"a"}), frozenset())
        with pytest.raises(ValueError, match="nonempty subtrees"):
            connecting_path(t, frozenset({"a"}), frozenset({"c", "e"}))

    @given(random_trees(min_nodes=2, max_nodes=9), st.data())
    def test_corridor_endpoints_inside_and_interior_outside(self, t: Tree, data):
        a = data.draw(st.sampled_from(t.nodes))
        b = data.draw(st.sampled_from([v for v in t.nodes if v != a]))
        path = connecting_path(t, frozenset({a}), frozenset({b}))
        assert path[0] == a and path[-1] == b
        for inner in path[1:-1]:
            assert inner not in {a, b}


class TestConnectedSubset:
    def test_examples(self):
        t = path_tree(["a", "b", "c"])
        assert is_connected_subset(t, frozenset({"a", "b"}))
        assert not is_connected_subset(t, frozenset({"a", "c"}))
        assert is_connected_subset(t, frozenset({"b"}))
        assert not is_connected_subset(t, frozenset())


# ---------------------------------------------------------------------------
# The parent-map climbs against networkx as an independent oracle
# ---------------------------------------------------------------------------

def _nx_tree(t: Tree) -> nx.Graph:
    g = nx.Graph(list(t.edges))
    g.add_nodes_from(t.nodes)
    return g


def _grow(data, t: Tree, start: str, allowed: set[str]) -> frozenset[str]:
    """A connected node set inside ``allowed``, grown from ``start`` by random neighbours."""
    part = {start}
    for _ in range(data.draw(st.integers(1, 4))):
        frontier = sorted(({y for x in part for y in t.neighbors(x)} & allowed) - part)
        if not frontier:
            break
        part.add(data.draw(st.sampled_from(frontier)))
    return frozenset(part)


class TestClimbsAgainstNetworkx:
    @given(random_trees(max_nodes=10), st.data())
    def test_is_connected_subset_agrees_with_induced_subgraph(self, t: Tree, data):
        subset = data.draw(st.sets(st.sampled_from(t.nodes)))
        expected = bool(subset) and nx.is_connected(_nx_tree(t).subgraph(subset))
        assert is_connected_subset(t, subset) == expected

    @given(random_trees(min_nodes=4, max_nodes=10), st.data())
    def test_connecting_path_is_the_shortest_path_between_subtrees(self, t: Tree, data):
        a = _grow(data, t, data.draw(st.sampled_from(t.nodes)), set(t.nodes))
        rest = {v for v in t.nodes if v not in a}
        assume(rest)
        b = _grow(data, t, data.draw(st.sampled_from(sorted(rest))), rest)
        assume(len(a) > 1 and len(b) > 1)
        dist, paths = nx.multi_source_dijkstra(_nx_tree(t), a)
        nearest = min(b, key=dist.__getitem__)
        assert connecting_path(t, a, b) == tuple(paths[nearest])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

class TestTreeSerialization:
    @given(random_trees(max_nodes=9))
    def test_json_round_trip(self, t: Tree):
        assert tree_from_json_obj(json.loads(dumps(tree_to_json_obj(t)))) == t

    def test_json_shape(self):
        t = path_tree(["a", "b"])
        payload = json.loads(dumps(tree_to_json_obj(t)))
        assert payload == {"nodes": ["a", "b"], "edges": [["a", "b"]]}

    def test_dot_contains_nodes_and_edges(self):
        t = star_tree("c", ["x", "y"])
        dot = tree_to_dot(t)
        assert dot.startswith("graph")
        assert '"c" -- "x"' in dot
