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
    pairwise_distances,
    tree_from_json_obj,
    tree_path,
    tree_to_dot,
    tree_to_json_obj,
)
from leafpower.cli import main
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

    @given(random_trees(max_nodes=12))
    def test_neighbors_ascend_as_networkx_sorts_them(self, t: Tree):
        g = _nx_tree(t)
        for v in t.nodes:
            assert t.neighbors(v) == tuple(sorted(g.adj[v]))


#: (nodes, edges, the message Tree.build refuses them with).  Where two rules
#: are broken, the message is the one checked first.
BAD_TREES = [
    (["a", 1], [], "node 1 is not a string"),
    (["a", "b", "a"], [("a", "b")], "duplicate node 'a'"),
    (["a", "b", "a"], [("a", "c")], "duplicate node 'a'"),
    (["a", "b"], [("a", "c")], "edge ('a', 'c') has an endpoint outside the node set"),
    (["a", "b"], [("a", "a")], "self-loop at 'a'"),
    ([], [], "a tree needs at least one node"),
    ([], [("a", "b")], "a tree needs at least one node"),
    (["a", "b", "c"], [("a", "b")], "a tree on 3 nodes needs 2 edges, got 1"),
    (["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "a")], "edges do not connect all nodes"),
]


class TestTreeParserMessages:
    @pytest.mark.parametrize("nodes, edges, message", BAD_TREES)
    def test_build_refuses_with_the_message(self, nodes, edges, message):
        with pytest.raises(ValueError) as caught:
            Tree.build(nodes, edges)
        assert str(caught.value) == message

    @pytest.mark.parametrize("nodes, edges, message", BAD_TREES)
    def test_convert_prints_the_message(self, capsys, tmp_path, nodes, edges, message):
        if not all(isinstance(v, str) for v in nodes):
            # The JSON reader stops a non-string before the tree is built.
            message = "tree.nodes[1] must be a string, got an integer"
        path = tmp_path / "root.json"
        tree = {"nodes": nodes, "edges": [list(e) for e in edges]}
        path.write_text(json.dumps({"tree": tree, "k": 2, "placement": {}}))
        assert main(["convert", "--from", "leafroot", "--input", str(path)]) == 2
        assert capsys.readouterr() == ("", f"cannot load leaf root: {message}\n")


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
# The all-pairs sweep and the bounded search against networkx
# ---------------------------------------------------------------------------

def _check_pairwise(t: Tree, listed: list[str]) -> None:
    """``pairwise_distances`` on ``listed`` equals networkx's distances among them."""
    oracle = dict(nx.all_pairs_shortest_path_length(_nx_tree(t)))
    table = pairwise_distances(t, listed)
    assert set(table) == set(listed)
    for a in listed:
        assert table[a] == {b: oracle[a][b] for b in listed}


class TestDistanceSweepAgainstNetworkx:
    @given(random_trees(max_nodes=12), st.data())
    def test_pairwise_distances_on_random_subsets(self, t: Tree, data):
        _check_pairwise(t, data.draw(st.lists(st.sampled_from(t.nodes), max_size=14)))

    @given(random_trees(max_nodes=12), st.data())
    def test_pairwise_distances_with_the_search_root(self, t: Tree, data):
        others = data.draw(st.lists(st.sampled_from(t.nodes), max_size=5))
        _check_pairwise(t, [*others, t.nodes[0]])

    @given(random_trees(min_nodes=3, max_nodes=12))
    def test_pairwise_distances_among_internal_nodes(self, t: Tree):
        _check_pairwise(t, [v for v in t.nodes if t.degree(v) > 1])

    @given(random_trees(max_nodes=12), st.data())
    def test_pairwise_distances_of_a_single_node(self, t: Tree, data):
        v = data.draw(st.sampled_from(t.nodes))
        assert pairwise_distances(t, [v]) == {v: {v: 0}}

    @given(random_trees(max_nodes=12))
    def test_pairwise_distances_among_every_node(self, t: Tree):
        _check_pairwise(t, list(reversed(t.nodes)))

    @given(random_trees(min_nodes=2, max_nodes=12), st.data())
    def test_a_node_listed_twice_counts_once(self, t: Tree, data):
        u, v = data.draw(st.lists(st.sampled_from(t.nodes), min_size=2, max_size=2, unique=True))
        assert pairwise_distances(t, [u, v, u]) == pairwise_distances(t, [u, v])
        _check_pairwise(t, [u, v, u, v])

    def test_unknown_node_rejected_as_by_distances_from(self):
        t = path_tree(["a", "b"])
        assert pairwise_distances(t, []) == {}
        with pytest.raises(ValueError, match="node 'z' is not in the tree"):
            pairwise_distances(t, ["a", "z"])
        with pytest.raises(ValueError, match="node 'z' is not in the tree"):
            distances_from(t, "z")

    @given(random_trees(max_nodes=12), st.data())
    def test_limited_search_is_the_full_map_cut_at_the_limit(self, t: Tree, data):
        start = data.draw(st.sampled_from(t.nodes))
        full = distances_from(t, start)
        assert full == nx.single_source_shortest_path_length(_nx_tree(t), start)
        for limit in range(nx.diameter(_nx_tree(t)) + 2):
            assert distances_from(t, start, limit) == {v: d for v, d in full.items() if d <= limit}

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError, match="limit must be nonnegative"):
            distances_from(path_tree(["a", "b"]), "a", -1)

    @given(random_trees(max_nodes=12), st.data())
    def test_ball_is_the_full_search_cut_at_the_radius(self, t: Tree, data):
        center = data.draw(st.sampled_from(t.nodes))
        radius = data.draw(st.integers(0, len(t.nodes)))
        full = nx.single_source_shortest_path_length(_nx_tree(t), center)
        assert ball(t, center, radius) == frozenset(v for v, d in full.items() if d <= radius)


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
