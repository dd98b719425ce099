"""Tests for tree enumeration, canonical forms, and leaf orbits."""
from __future__ import annotations

import itertools

import networkx as nx
import pytest
from hypothesis import example, given

from leafpower import (
    Tree,
    distance,
    leaf_orbit_representatives,
    leaf_orbits,
    nonisomorphic_trees,
    topology_trees,
    trees_with_leaf_count,
)
from leafpower import enumtrees, pairwise_distances

from conftest import path_tree, random_trees, scrambled_trees, star_tree


@pytest.fixture
def built_trees(monkeypatch) -> list[Tree]:
    """Every Tree built while the test runs, in order."""
    built = []
    build = Tree.build

    def counting(nodes, edges):
        built.append(build(nodes, edges))
        return built[-1]

    monkeypatch.setattr(Tree, "build", staticmethod(counting))
    return built


@pytest.fixture
def generated_orders(monkeypatch) -> list[int]:
    """Every order passed to the free-tree generator while the test runs, in order."""
    orders = []
    generate = enumtrees._free_trees

    def recording(order):
        orders.append(order)
        return generate(order)

    monkeypatch.setattr(enumtrees, "_free_trees", recording)
    return orders


def networkx_named_trees(order: int) -> list[Tree]:
    """networkx's free trees of ``order`` nodes as enumtrees named them: node ``i`` is ``n{i}``."""
    graphs = nx.nonisomorphic_trees(order) if order > 2 else [nx.path_graph(order)]
    return [
        Tree.build([f"n{x}" for x in sorted(g)], [(f"n{x}", f"n{y}") for x, y in g.edges()])
        for g in graphs
    ]


def rooted_canonical_form(t: Tree, root: str) -> tuple:
    """A nested-tuple canonical form of ``t`` rooted at ``root``, unmemoized.

    Two rootings yield equal forms exactly when some automorphism of the tree
    maps one root to the other.  The package makes each directed edge's form
    once, on node positions; this copy, recomputed for every rooting and
    reading the neighbours from networkx, is the tests' oracle.
    """
    g = nx.Graph(t.edges)
    g.add_nodes_from(t.nodes)

    def canon(v: str, parent: str | None) -> tuple:
        return tuple(sorted(canon(w, v) for w in g.adj[v] if w != parent))

    return canon(root, None)


def per_leaf_orbits(t: Tree) -> list[tuple[str, ...]]:
    """Leaf orbits grouped by the oracle canonical form of each leaf's rooting."""
    groups: dict[tuple, list[str]] = {}
    for leaf in t.leaves():
        groups.setdefault(rooted_canonical_form(t, leaf), []).append(leaf)
    return sorted(tuple(sorted(g)) for g in groups.values())


def oracle_automorphism_exists(t: Tree, u: str, v: str) -> bool:
    """Brute force over all node permutations: is there an automorphism u -> v?

    Only used on tiny trees; completely independent of the canonical-form
    machinery under test.
    """
    edge_set = {frozenset(e) for e in t.edges}
    for perm in itertools.permutations(t.nodes):
        mapping = dict(zip(t.nodes, perm))
        if mapping[u] != v:
            continue
        if {frozenset({mapping[a], mapping[b]}) for a, b in t.edges} == edge_set:
            return True
    return False


class TestNonisomorphicTrees:
    def test_counts_match_the_classical_sequence(self):
        # Unlabeled trees on 1..7 nodes: 1, 1, 1, 2, 3, 6, 11.
        assert [len(list(nonisomorphic_trees(n))) for n in range(1, 8)] == [
            1, 1, 1, 2, 3, 6, 11,
        ]

    def test_count_on_ten_nodes(self):
        assert len(list(nonisomorphic_trees(10))) == 106

    def test_counts_match_oeis_a000055_up_to_fourteen_nodes(self):
        assert [sum(1 for _ in enumtrees._free_trees(n)) for n in range(1, 15)] == [
            1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159,
        ]

    @pytest.mark.parametrize("order", range(1, 15))
    def test_same_trees_names_and_order_as_networkx(self, order):
        got = [(t.nodes, t.edges) for t in nonisomorphic_trees(order)]
        assert got == [(t.nodes, t.edges) for t in networkx_named_trees(order)]

    def test_parent_is_the_nearest_earlier_node_one_level_up(self):
        for order in range(1, 10):
            for parent in enumtrees._free_trees(order):
                assert parent[0] == -1
                depth = [0] * order
                for i in range(1, order):
                    assert 0 <= parent[i] < i
                    depth[i] = depth[parent[i]] + 1
                    earlier = [j for j in range(i) if depth[j] == depth[i] - 1]
                    assert parent[i] == earlier[-1]

    def test_order_zero_is_refused(self):
        with pytest.raises(ValueError, match="order must be at least 1"):
            list(nonisomorphic_trees(0))

    def test_yields_valid_trees_of_requested_order(self):
        for n in range(1, 8):
            for t in nonisomorphic_trees(n):
                assert isinstance(t, Tree)
                assert len(t.nodes) == n

    def test_pairwise_nonisomorphic_on_six_nodes(self):
        trees = list(nonisomorphic_trees(6))
        forms = {
            min(rooted_canonical_form(t, r) for r in t.nodes) for t in trees
        }
        assert len(forms) == len(trees)


class TestTreesWithLeafCount:
    def test_two_leaves_gives_all_paths(self):
        got = [len(t.nodes) for t in trees_with_leaf_count(2, 5)]
        assert got == [2, 3, 4, 5]

    def test_one_leaf_is_single_node_only(self):
        got = [t.nodes for t in trees_with_leaf_count(1, 4)]
        assert got == [("n0",)]

    def test_orders_never_decrease_and_leaf_counts_exact(self):
        previous = 0
        for t in trees_with_leaf_count(3, 7):
            assert len(t.nodes) >= previous
            previous = len(t.nodes)
            assert len(t.leaves()) == 3

    def test_four_leaves_all_shapes_distinct(self):
        trees = list(trees_with_leaf_count(4, 7))
        assert all(len(t.leaves()) == 4 for t in trees)
        forms = {
            min(rooted_canonical_form(t, r) for r in t.nodes) for t in trees
        }
        assert len(forms) == len(trees)

    @pytest.mark.parametrize("num_leaves", range(1, 7))
    def test_same_trees_as_filtering_every_built_tree(self, num_leaves):
        built = [
            t
            for order in range(1, 10)
            for t in nonisomorphic_trees(order)
            if len(t.leaves()) == num_leaves
        ]
        got = list(trees_with_leaf_count(num_leaves, 9))
        assert [(t.nodes, t.edges) for t in got] == [(t.nodes, t.edges) for t in built]

    def test_builds_only_the_trees_it_yields(self, built_trees):
        yielded = list(trees_with_leaf_count(5, 9))
        assert len(yielded) == 23
        assert built_trees == yielded

    @pytest.mark.parametrize(
        "num_leaves, max_nodes, orders",
        [
            (1, 5, [1]),
            (1, 0, []),
            (2, 5, [2, 3, 4, 5]),
            (3, 6, [4, 5, 6]),
            (4, 7, [5, 6, 7]),
            (5, 5, []),
        ],
    )
    def test_generates_only_orders_that_can_hold_the_leaves(
        self, generated_orders, num_leaves, max_nodes, orders
    ):
        list(trees_with_leaf_count(num_leaves, max_nodes))
        assert generated_orders == orders


class TestTopologyTrees:
    @pytest.mark.parametrize("num_leaves, max_internal, count", [(5, 3, 3), (6, 4, 7)])
    def test_builds_only_the_trees_it_yields(self, built_trees, num_leaves, max_internal, count):
        yielded = list(topology_trees(num_leaves, max_internal))
        assert len(yielded) == count
        assert built_trees == yielded

    def test_one_leaf_topology_is_single_node(self):
        assert [t.nodes for t in topology_trees(1, 5)] == [("n0",)]

    def test_two_leaf_topology_is_single_edge(self):
        assert [t.nodes for t in topology_trees(2, 5)] == [("n0", "n1")]

    def test_three_leaves_only_the_star(self):
        # With every internal node of degree >= 3, three leaves force exactly
        # one internal node: the claw.
        trees = list(topology_trees(3, 3))
        assert len(trees) == 1
        assert sorted(len(t.nodes) for t in trees) == [4]

    def test_four_leaves_star_and_double_star(self):
        trees = list(topology_trees(4, 3))
        assert sorted(len(t.nodes) for t in trees) == [5, 6]
        for t in trees:
            assert len(t.leaves()) == 4
            for node in t.nodes:
                if node not in t.leaves():
                    assert t.degree(node) >= 3


    @pytest.mark.parametrize("max_internal", range(6))
    @pytest.mark.parametrize("num_leaves", range(1, 7))
    def test_same_trees_as_the_uncapped_filter(self, num_leaves, max_internal):
        uncapped = [
            t
            for t in trees_with_leaf_count(num_leaves, num_leaves + max_internal)
            if all(t.degree(v) != 2 for v in t.nodes)
        ]
        capped = list(topology_trees(num_leaves, max_internal))
        assert [(t.nodes, t.edges) for t in capped] == [(t.nodes, t.edges) for t in uncapped]

    def test_no_order_beyond_two_internal_nodes_is_built_for_four_leaves(self, monkeypatch):
        generate = enumtrees._free_trees

        def bounded(order):
            if order > 6:
                raise AssertionError(f"generated trees of order {order}")
            return generate(order)

        monkeypatch.setattr(enumtrees, "_free_trees", bounded)
        trees = list(topology_trees(4, 50))
        assert [(t.nodes, t.edges) for t in trees] == [
            (t.nodes, t.edges) for t in topology_trees(4, 2)
        ]


class TestRootedCanonicalForm:
    """The tests' oracle form, on which the orbit tests rest."""

    def test_distinguishes_root_position_on_a_path(self):
        t = path_tree(["a", "b", "c"])
        assert rooted_canonical_form(t, "a") != rooted_canonical_form(t, "b")

    def test_equal_for_symmetric_roots(self):
        t = path_tree(["a", "b", "c"])
        assert rooted_canonical_form(t, "a") == rooted_canonical_form(t, "c")

    def test_invariant_under_relabeling(self):
        t = star_tree("c", ["x", "y", "z"])
        s = star_tree("q", ["m", "n", "o"])
        assert rooted_canonical_form(t, "x") == rooted_canonical_form(s, "m")


class TestLeafOrbits:
    def test_star_leaves_form_one_orbit(self):
        t = star_tree("c", ["x", "y", "z"])
        assert leaf_orbits(t) == [("x", "y", "z")]

    def test_path_ends_form_one_orbit(self):
        t = path_tree(["a", "b", "c", "d"])
        assert leaf_orbits(t) == [("a", "d")]
        # Deeper than the recursion limit: forms nested as deep as the tree overflowed it.
        deep = path_tree([f"p{i}" for i in range(5000)])
        assert leaf_orbits(deep) == [("p0", "p4999")]

    def test_spider_with_one_long_leg_splits_orbits(self):
        t = Tree.build(
            ["c", "m", "x", "y", "z"],
            [("c", "m"), ("m", "x"), ("c", "y"), ("c", "z")],
        )
        assert leaf_orbits(t) == [("x",), ("y", "z")]
        assert leaf_orbit_representatives(t) == ["x", "y"]
        # Legs of 1 500, 1 500 and 700 nodes from the centre c, tips x1500, y1500 and z700.
        legs = {"x": 1500, "y": 1500, "z": 700}
        nodes = ["c", *(f"{leg}{i}" for leg, length in legs.items() for i in range(1, length + 1))]
        edges = [
            (f"{leg}{i - 1}" if i > 1 else "c", f"{leg}{i}")
            for leg, length in legs.items()
            for i in range(1, length + 1)
        ]
        deep = Tree.build(nodes, edges)
        assert leaf_orbits(deep) == [("x1500", "y1500"), ("z700",)]
        assert leaf_orbit_representatives(deep) == ["x1500", "z700"]

    @given(scrambled_trees())
    @example(None)  # stands for every free tree of orders 1 to 11
    def test_same_orbits_as_one_canonical_form_per_leaf(self, scrambled: Tree | None):
        # A scrambled tree's parent lists are rooted at a random node, often a leaf.
        if scrambled is None:
            trees = [t for order in range(1, 12) for t in nonisomorphic_trees(order)]
        else:
            trees = [scrambled]
        for t in trees:
            assert leaf_orbits(t) == per_leaf_orbits(t), (t.nodes, t.edges)

    def test_orbits_partition_the_leaves(self):
        for t in nonisomorphic_trees(7):
            seen = [leaf for orbit in leaf_orbits(t) for leaf in orbit]
            assert sorted(seen) == sorted(t.leaves())

    def test_orbits_agree_with_automorphism_oracle_on_tiny_trees(self):
        for order in range(2, 7):
            for t in nonisomorphic_trees(order):
                orbit_of = {}
                for idx, orbit in enumerate(leaf_orbits(t)):
                    for leaf in orbit:
                        orbit_of[leaf] = idx
                for u, v in itertools.combinations(t.leaves(), 2):
                    same = orbit_of[u] == orbit_of[v]
                    assert same == oracle_automorphism_exists(t, u, v), (
                        t.edges, u, v,
                    )

    @given(random_trees(min_nodes=2, max_nodes=8))
    def test_leaves_in_one_orbit_have_matching_distance_profiles(self, t: Tree):
        for orbit in leaf_orbits(t):
            profiles = {
                tuple(sorted(distance(t, leaf, other) for other in t.leaves()))
                for leaf in orbit
            }
            assert len(profiles) == 1


class TestHostTables:
    @pytest.mark.parametrize("order", range(1, 15))
    def test_tables_match_the_tree_built_from_the_parent_array(self, order):
        for parent in enumtrees._free_trees(order):
            tree = enumtrees._tree(parent)
            dist, firsts = enumtrees._host_tables(parent)
            names = tree.leaves()
            pair = pairwise_distances(tree, names)
            assert dist == tuple(tuple(pair[a][b] for b in names) for a in names)
            # The lowest-positioned leaf of each orbit.  leaf_orbit_representatives
            # takes the smallest name, the same leaf until "n10" sorts before "n2".
            lowest = sorted(min(map(names.index, orbit)) for orbit in leaf_orbits(tree))
            assert firsts == tuple(lowest)
            if order <= 10:
                assert [names[i] for i in firsts] == leaf_orbit_representatives(tree)

    @pytest.mark.parametrize(
        "parent, centres_swap, firsts",
        [
            ([-1, 0], True, [0]),
            ([-1, 0, 1, 0], True, [0]),
            ([-1, 0, 1, 2, 0, 4], True, [0]),
            # The fork n2-n1-n0-{n3, n4}: bicentral, its centres n0 and n1 kept apart.
            ([-1, 0, 1, 0, 0], False, [0, 1]),
        ],
        ids=["P2", "P4", "P6", "fork"],
    )
    def test_bicentral_trees_against_the_automorphism_oracle(self, parent, centres_swap, firsts):
        assert parent in enumtrees._free_trees(len(parent))
        tree = enumtrees._tree(parent)
        assert oracle_automorphism_exists(tree, "n0", "n1") == centres_swap
        _, got = enumtrees._host_tables(parent)
        names = tree.leaves()
        # A leaf is its orbit's first unless an automorphism maps an earlier leaf onto it.
        expected = [
            i for i, leaf in enumerate(names)
            if not any(oracle_automorphism_exists(tree, earlier, leaf) for earlier in names[:i])
        ]
        assert list(got) == expected == firsts


def test_host_tables_call_leaf_orbits_once_and_pairwise_distances_once(monkeypatch):
    calls = []

    def spy(name, real):
        def recording(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(enumtrees, name, recording)

    spy("leaf_orbits", enumtrees.leaf_orbits)
    spy("pairwise_distances", enumtrees.pairwise_distances)
    # The fork n2-n1-n0-{n3, n4}, whose two leaves n3 and n4 share an orbit.
    dist, firsts = enumtrees._host_tables([-1, 0, 1, 0, 0])
    assert sorted(calls) == ["leaf_orbits", "pairwise_distances"]
    assert (dist, firsts) == (((0, 3, 3), (3, 0, 2), (3, 2, 0)), (0, 1))
