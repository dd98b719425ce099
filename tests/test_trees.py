"""Tests for the immutable tree type and its path, distance and corridor helpers."""
from __future__ import annotations

import gc
import json
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import assume, find, given
from hypothesis import strategies as st

from leafpower import (
    Graph,
    Tree,
    ball,
    connecting_path,
    distance,
    distances_from,
    dumps,
    pairwise_distances,
    tree_from_json_obj,
    tree_path,
    tree_to_json_obj,
)
from leafpower.cli import main
from leafpower.trees import is_connected_subset

from conftest import path_tree, random_trees, scrambled_trees, star_tree


def any_trees(min_nodes: int = 1, max_nodes: int = 12):
    """Trees listed in attachment order up to ``max_nodes``, or scrambled ones up to 30 nodes.

    A scrambled tree's node order, name order and parent/child order disagree,
    so a helper that mixes up a node's position with its name, or a normalized
    edge with a parent/child pair, fails on it.
    """
    return st.one_of(random_trees(min_nodes, max_nodes), scrambled_trees(min_nodes, 30))


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

class TestTreeBuild:
    def test_single_node(self):
        t = Tree.build(["a"], [])
        assert t.nodes == ("a",)
        assert t.leaves() == ("a",)

    def test_membership_is_by_node(self):
        t = path_tree(["a", "b", "c"])
        assert "b" in t
        assert "z" not in t
        assert ("a", "b") not in t

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

    def test_the_constructor_needs_build(self):
        """A tree is only made by ``Tree.build``, which checks it; the bare constructor is refused."""
        with pytest.raises(TypeError):
            Tree(("a", "b"), ())


class Name(str):
    """A node name that is not exactly a ``str``, so the parser checks it item by item."""


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
    (["a", "b", "c"], [("a", "b"), ("b", "a"), ("b", "c")], "edge ('a', 'b') is listed twice"),
    (["a", "b", "c"], [("a", "b"), ("a", "b"), ("b", "c")], "edge ('a', 'b') is listed twice"),
    (["a", "b", "c", "d"], [("a", "b"), ("b", "a"), ("b", "c")], "edge ('a', 'b') is listed twice"),
    (["a", "b", "c"], [("b", "c"), ("a", "b"), ("c", "b"), ("b", "a")], "edge ('b', 'c') is listed twice"),
    (["a", "b", "c"], [("a", "b"), ("b", "a"), ("c", "c")], "self-loop at 'c'"),
    ([Name("a"), 1], [], "node 1 is not a string"),
    ([Name("a"), Name("b"), Name("a")], [("a", "b")], "duplicate node 'a'"),
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


#: (nodes, edges) of a lone node, a path and a star, with names out of order.
SHAPES = [
    (["a"], []),
    (["c", "a", "d", "b"], [("a", "c"), ("b", "d"), ("a", "b")]),
    (["x", "hub", "z", "y"], [("hub", "x"), ("y", "hub"), ("hub", "z")]),
]


def _named(nodes: list[str], edges: list[tuple[str, str]]) -> tuple[list[Name], list[tuple[Name, Name]]]:
    return [Name(v) for v in nodes], [(Name(u), Name(v)) for u, v in edges]


class TestNamesCheckedItemByItem:
    @pytest.mark.parametrize("nodes, edges", SHAPES)
    def test_tree_is_the_same_as_with_plain_names(self, nodes, edges):
        plain, named = Tree.build(nodes, edges), Tree.build(*_named(nodes, edges))
        assert type(named.nodes[0]) is Name
        assert named.nodes == plain.nodes and named.edges == plain.edges
        assert named._index == plain._index == {v: i for i, v in enumerate(nodes)}
        assert named.leaves() == plain.leaves()
        for u in nodes:
            for v in nodes:
                assert tree_path(named, u, v) == tree_path(plain, u, v)
        assert pairwise_distances(named, nodes) == pairwise_distances(plain, nodes)

    @pytest.mark.parametrize("nodes, edges", SHAPES)
    def test_graph_is_the_same_as_with_plain_names(self, nodes, edges):
        named = Graph.build(*_named(nodes, edges))
        plain = Graph.build(nodes, edges)
        assert named.vertices == plain.vertices and named.edges == plain.edges


def duplicate_node(nodes: list, edges: list) -> None:
    nodes[50_000] = nodes[17]


def unknown_endpoint(nodes: list, edges: list) -> None:
    edges[70_000] = ("n70000", "zz")


def self_loop(nodes: list, edges: list) -> None:
    edges[70_000] = ("n70000", "n70000")


def repeated_edge(nodes: list, edges: list) -> None:
    edges[70_000] = edges[12][::-1]


def one_edge_short(nodes: list, edges: list) -> None:
    del edges[-1]


def cycle_and_detached_node(nodes: list, edges: list) -> None:
    edges[-1] = (nodes[0], nodes[-2])


def detached_first_node(nodes: list, edges: list) -> None:
    edges[0] = (nodes[1], nodes[-1])


def first_node_off_the_cycle(nodes: list, edges: list) -> None:
    edges[-1] = (nodes[40_000], nodes[-2])


#: (damage to an 80 000-node path, the message it is refused with).
LONG_PATH_DAMAGE = [
    (duplicate_node, "duplicate node 'n00017'"),
    (unknown_endpoint, "edge ('n70000', 'zz') has an endpoint outside the node set"),
    (self_loop, "self-loop at 'n70000'"),
    (repeated_edge, "edge ('n00012', 'n00013') is listed twice"),
    (one_edge_short, "a tree on 80000 nodes needs 79999 edges, got 79998"),
    (cycle_and_detached_node, "edges do not connect all nodes"),
    (detached_first_node, "edges do not connect all nodes"),
    (first_node_off_the_cycle, "edges do not connect all nodes"),
]


def damaged_long_path(damage) -> tuple[list[str], list[tuple[str, str]]]:
    nodes = [f"n{i:05d}" for i in range(80_000)]
    edges = list(zip(nodes, nodes[1:]))
    damage(nodes, edges)
    return nodes, edges


class TestLongTreeMessages:
    @pytest.mark.parametrize("damage, message", LONG_PATH_DAMAGE)
    def test_build_names_the_fault(self, damage, message):
        with pytest.raises(ValueError) as caught:
            Tree.build(*damaged_long_path(damage))
        assert str(caught.value) == message

    @pytest.mark.parametrize("damage, message", LONG_PATH_DAMAGE)
    def test_convert_prints_the_message(self, capsys, tmp_path, damage, message):
        nodes, edges = damaged_long_path(damage)
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

    @given(any_trees(max_nodes=9), st.data())
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

    @given(any_trees(max_nodes=9))
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

    @given(any_trees(min_nodes=2, max_nodes=9), st.data())
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
    adj = _nx_tree(t).adj
    part = {start}
    for _ in range(data.draw(st.integers(1, 4))):
        frontier = sorted(({y for x in part for y in adj[x]} & allowed) - part)
        if not frontier:
            break
        part.add(data.draw(st.sampled_from(frontier)))
    return frozenset(part)


class TestClimbsAgainstNetworkx:
    @given(any_trees(), st.data())
    def test_tree_path_is_the_networkx_path(self, t: Tree, data):
        u = data.draw(st.sampled_from(t.nodes))
        v = data.draw(st.sampled_from(t.nodes))
        assert tree_path(t, u, v) == tuple(nx.shortest_path(_nx_tree(t), u, v))

    @given(any_trees())
    def test_degrees_and_leaves_in_node_order(self, t: Tree):
        g = _nx_tree(t)
        assert [t.degree(v) for v in t.nodes] == [g.degree(v) for v in t.nodes]
        assert t.leaves() == tuple(v for v in t.nodes if g.degree(v) <= 1)
        assert all(v in t for v in t.nodes)

    @given(any_trees(max_nodes=10), st.data())
    def test_is_connected_subset_agrees_with_induced_subgraph(self, t: Tree, data):
        subset = data.draw(st.sets(st.sampled_from(t.nodes)))
        expected = bool(subset) and nx.is_connected(_nx_tree(t).subgraph(subset))
        assert is_connected_subset(t, subset) == expected

    @given(any_trees(min_nodes=4, max_nodes=10), st.data())
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
    @given(any_trees(max_nodes=12), st.data())
    def test_pairwise_distances_on_random_subsets(self, t: Tree, data):
        _check_pairwise(t, data.draw(st.lists(st.sampled_from(t.nodes), max_size=14)))

    @given(any_trees(max_nodes=12), st.data())
    def test_pairwise_distances_with_the_search_root(self, t: Tree, data):
        others = data.draw(st.lists(st.sampled_from(t.nodes), max_size=5))
        _check_pairwise(t, [*others, t.nodes[0]])

    @given(any_trees(min_nodes=3, max_nodes=12))
    def test_pairwise_distances_among_internal_nodes(self, t: Tree):
        _check_pairwise(t, [v for v in t.nodes if t.degree(v) > 1])

    @given(any_trees(max_nodes=12), st.data())
    def test_pairwise_distances_of_a_single_node(self, t: Tree, data):
        v = data.draw(st.sampled_from(t.nodes))
        assert pairwise_distances(t, [v]) == {v: {v: 0}}

    @given(any_trees(max_nodes=12))
    def test_pairwise_distances_among_every_node(self, t: Tree):
        _check_pairwise(t, list(reversed(t.nodes)))

    @given(any_trees(min_nodes=2, max_nodes=12), st.data())
    def test_a_node_listed_twice_counts_once(self, t: Tree, data):
        u, v = data.draw(st.lists(st.sampled_from(t.nodes), min_size=2, max_size=2, unique=True))
        assert pairwise_distances(t, [u, v, u]) == pairwise_distances(t, [u, v])
        _check_pairwise(t, [u, v, u, v])

    @given(any_trees(max_nodes=12), st.data())
    def test_weighted_pairwise_distances_match_networkx(self, t: Tree, data):
        lengths = {
            e: Fraction(data.draw(st.integers(1, 30)), data.draw(st.integers(1, 7)))
            for e in t.edges
        }
        listed = data.draw(st.lists(st.sampled_from(t.nodes), max_size=14))
        listed += listed[:2]  # nodes listed twice
        g = _nx_tree(t)
        nx.set_edge_attributes(g, lengths, "length")
        table = pairwise_distances(t, listed, lengths)
        assert set(table) == set(listed)
        for a in listed:
            oracle = nx.shortest_path_length(g, source=a, weight="length")
            assert table[a] == {b: oracle[b] for b in listed}

    def test_weighted_pairwise_distances_on_one_node(self):
        assert pairwise_distances(Tree.build(["x"], []), ["x", "x"], {}) == {"x": {"x": 0}}

    def test_unknown_node_rejected_as_by_distances_from(self):
        t = path_tree(["a", "b"])
        assert pairwise_distances(t, []) == {}
        with pytest.raises(ValueError, match="node 'z' is not in the tree"):
            pairwise_distances(t, ["a", "z"])
        with pytest.raises(ValueError, match="node 'z' is not in the tree"):
            distances_from(t, "z")

    @given(any_trees(max_nodes=12), st.data())
    def test_limited_search_is_the_full_map_cut_at_the_limit(self, t: Tree, data):
        start = data.draw(st.sampled_from(t.nodes))
        full = distances_from(t, start)
        assert full == nx.single_source_shortest_path_length(_nx_tree(t), start)
        for limit in range(nx.diameter(_nx_tree(t)) + 2):
            assert distances_from(t, start, limit) == {v: d for v, d in full.items() if d <= limit}

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError, match="limit must be nonnegative"):
            distances_from(path_tree(["a", "b"]), "a", -1)

    @given(any_trees(max_nodes=12), st.data())
    def test_ball_is_the_full_search_cut_at_the_radius(self, t: Tree, data):
        center = data.draw(st.sampled_from(t.nodes))
        radius = data.draw(st.integers(0, len(t.nodes)))
        full = nx.single_source_shortest_path_length(_nx_tree(t), center)
        assert ball(t, center, radius) == frozenset(v for v, d in full.items() if d <= radius)


# ---------------------------------------------------------------------------
# The scrambled strategy and the flat storage
# ---------------------------------------------------------------------------

def _child_listed_first(t: Tree) -> bool:
    depth = distances_from(t, t.nodes[0])
    return any(depth[u] > depth[v] for u, v in t.edges)


@pytest.mark.parametrize(
    "condition",
    [
        lambda t: t.degree(t.nodes[0]) > 1,
        lambda t: t.n > 1 and t.degree(t.nodes[0]) == 1,
        lambda t: list(t.nodes) != sorted(t.nodes),
        _child_listed_first,
    ],
    ids=["first node internal", "first node a leaf", "nodes out of name order", "child listed first"],
)
def test_scrambled_trees_reach(condition):
    assert condition(find(scrambled_trees(), condition))


def _long_path() -> Tree:
    return path_tree([f"n{i:05d}" for i in range(80_000)])


def _large_star() -> Tree:
    return star_tree("hub", [f"leaf{i:05d}" for i in range(20_000)])


@pytest.mark.parametrize("make", [_long_path, _large_star])
def test_a_tree_caches_only_flat_untracked_containers(make):
    """Whatever a tree keeps is a flat list or dict of strings and ints, however many nodes it has."""
    t = make()
    a, b, c = t.nodes[1], t.nodes[len(t.nodes) // 2], t.nodes[-1]
    assert a in t and t.degree(b) > 0 and t.leaves()
    assert distance(t, a, c) == len(tree_path(t, a, c)) - 1
    assert distances_from(t, b)[c] == distance(t, b, c)
    assert ball(t, c, 2) == frozenset(distances_from(t, c, 2))
    assert pairwise_distances(t, [a, c], dict.fromkeys(t.edges, 1)) == pairwise_distances(t, [a, c])
    assert is_connected_subset(t, [a, t.nodes[0]]) and connecting_path(t, [a], [c])
    cached = {name: value for name, value in vars(t).items() if name not in ("nodes", "edges")}
    assert set(cached) == {"_index", "_degree", "_parent", "_order", "_depth", "_children"}
    for name, value in cached.items():
        assert type(value) in (list, tuple, dict), name
        items = [*value, *value.values()] if isinstance(value, dict) else value
        assert not any(map(gc.is_tracked, items)), name


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

class TestTreeSerialization:
    @given(any_trees(max_nodes=9))
    def test_json_round_trip(self, t: Tree):
        assert tree_from_json_obj(json.loads(dumps(tree_to_json_obj(t)))) == t

    def test_json_shape(self):
        t = path_tree(["a", "b"])
        payload = json.loads(dumps(tree_to_json_obj(t)))
        assert payload == {"nodes": ["a", "b"], "edges": [["a", "b"]]}
