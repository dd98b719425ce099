"""Tests for k-leaf roots, their conversions, and the brute-force rank search."""
from __future__ import annotations

import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from leafpower import (
    Graph,
    LeafRoot,
    RSModel,
    Tree,
    brute_force_leaf_rank,
    build_exponential_rs_model,
    build_rn,
    distance,
    distances_from,
    dumps,
    expand_rs,
    graph_to_dot,
    is_chordal,
    is_cluster_graph,
    leaf_power_graph,
    leafroot_from_json_obj,
    leafroot_to_dot,
    leafroot_to_json_obj,
    leafroot_to_rs,
    pairwise_distances,
    rs_model_to_dot,
    rs_to_leafroot,
    subtree_model_to_dot,
    tree_path,
    trees_with_leaf_count,
    verify_leaf_root,
    rs_model_violations,
    subtree_model_violations,
)

from leafpower import enumtrees, roots

from conftest import (
    atlas,
    complete_graph,
    cycle_graph,
    path_graph,
    path_tree,
    random_tree_rng,
    star_tree,
)


def caterpillar_host() -> Tree:
    """Spine u-v-w with one pendant leaf per spine node."""
    return Tree.build(
        ["u", "v", "w", "lu", "lv", "lw"],
        [("u", "v"), ("v", "w"), ("u", "lu"), ("v", "lv"), ("w", "lw")],
    )


# ---------------------------------------------------------------------------
# Construction and verification
# ---------------------------------------------------------------------------

class TestLeafRootBuild:
    def test_nonpositive_k_rejected(self):
        t = star_tree("c", ["x", "y"])
        with pytest.raises(ValueError, match="k must be a positive integer"):
            LeafRoot.build(t, 0, {"a": "x", "b": "y"})

    def test_boolean_k_rejected(self):
        t = star_tree("c", ["x", "y"])
        with pytest.raises(ValueError, match="k must be a positive integer"):
            LeafRoot.build(t, True, {"a": "x", "b": "y"})

    def test_non_injective_placement_rejected(self):
        t = star_tree("c", ["x", "y"])
        with pytest.raises(ValueError, match="placement must be injective"):
            LeafRoot.build(t, 1, {"a": "x", "b": "x"})

    def test_placement_must_cover_all_leaves(self):
        t = star_tree("c", ["x", "y", "z"])
        with pytest.raises(
            ValueError, match="cover exactly the leaves of the host"
        ):
            LeafRoot.build(t, 1, {"a": "x", "b": "y"})

    def test_placement_onto_internal_node_rejected(self):
        t = path_tree(["x", "y", "z"])
        with pytest.raises(
            ValueError, match="cover exactly the leaves of the host"
        ):
            LeafRoot.build(t, 2, {"a": "x", "b": "y", "c": "z"})


class TestVerifyLeafRoot:
    def test_path_as_three_leaf_power(self):
        root = LeafRoot.build(
            caterpillar_host(), 3, {"a": "lu", "b": "lv", "c": "lw"}
        )
        p3 = path_graph(["a", "b", "c"])
        assert leaf_power_graph(root) == p3
        assert verify_leaf_root(p3, root)

    def test_same_root_fails_for_larger_k(self):
        # With k = 4 the distance-4 pair lu, lw becomes adjacent, so the graph
        # would gain the edge ac.
        root = LeafRoot.build(
            caterpillar_host(), 4, {"a": "lu", "b": "lv", "c": "lw"}
        )
        p3 = path_graph(["a", "b", "c"])
        assert not verify_leaf_root(p3, root)
        assert leaf_power_graph(root) == complete_graph(["a", "b", "c"])

    def test_star_gives_complete_graph(self):
        t = star_tree("c", ["x", "y", "z"])
        root = LeafRoot.build(t, 2, {"a": "x", "b": "y", "d": "z"})
        assert leaf_power_graph(root) == complete_graph(["a", "b", "d"])

    def test_wrong_vertex_set_rejected(self):
        root = LeafRoot.build(
            caterpillar_host(), 3, {"a": "lu", "b": "lv", "c": "lw"}
        )
        with pytest.raises(ValueError, match="domain must equal the vertex set"):
            verify_leaf_root(Graph.build(["a", "b"], []), root)

    def test_single_vertex_root(self):
        t = Tree.build(["x"], [])
        root = LeafRoot.build(t, 1, {"a": "x"})
        assert verify_leaf_root(Graph.build(["a"], []), root)


# ---------------------------------------------------------------------------
# Conversions between roots and ball models
# ---------------------------------------------------------------------------

def unit_root(root: LeafRoot) -> LeafRoot:
    """The root as the unit-edge writer emits it, read back."""
    return leafroot_from_json_obj(json.loads(dumps(leafroot_to_json_obj(root))))


def per_leaf_bfs_graph(root: LeafRoot) -> Graph:
    """The leaf-power graph by one breadth-first search per vertex's leaf."""
    vertices = sorted(root.placement)
    edges = []
    for i, u in enumerate(vertices):
        dist = distances_from(root.host, root.placement[u])
        for v in vertices[i + 1 :]:
            if dist[root.placement[v]] <= root.k:
                edges.append((u, v))
    return Graph.build(vertices, edges)


class TestLeafPowerGraphAgainstPerLeafSearch:
    def test_random_leaf_roots(self):
        rng = random.Random(113)
        for _ in range(200):
            host = random_tree_rng(rng, 1, 25)
            leaves = list(host.leaves())
            rng.shuffle(leaves)
            root = LeafRoot.build(
                host, rng.randint(1, 8), {f"g{i}": leaf for i, leaf in enumerate(leaves)}
            )
            assert leaf_power_graph(root) == per_leaf_bfs_graph(root)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_roots_of_the_built_in_models(self, n):
        r = build_rn(n)
        root = unit_root(rs_to_leafroot(build_exponential_rs_model(r)))
        assert leaf_power_graph(root) == per_leaf_bfs_graph(root) == r.graph


class TestLeafRootToBallModel:
    def test_radii_all_equal_k_and_model_verifies(self):
        root = LeafRoot.build(
            caterpillar_host(), 3, {"a": "lu", "b": "lv", "c": "lw"}
        )
        m = leafroot_to_rs(root)
        assert set(m.radii.values()) == {3}
        assert rs_model_violations(m) == []
        assert subtree_model_violations(expand_rs(m)) == []

    def test_subdivision_doubles_leaf_distances(self):
        root = LeafRoot.build(
            caterpillar_host(), 3, {"a": "lu", "b": "lv", "c": "lw"}
        )
        m = leafroot_to_rs(root)
        assert distance(m.host, m.centers["a"], m.centers["b"]) == 2 * 3
        assert distance(m.host, m.centers["a"], m.centers["c"]) == 2 * 4

    def test_broken_construction_is_caught_by_the_recheck(self, monkeypatch):
        # Handed a graph without edges, the subdivided host's balls still meet.
        root = LeafRoot.build(
            caterpillar_host(), 3, {"a": "lu", "b": "lv", "c": "lw"}
        )
        monkeypatch.setattr(
            roots, "leaf_power_graph", lambda r: Graph.build(sorted(r.placement), [])
        )
        with pytest.raises(RuntimeError, match="construction invalid"):
            leafroot_to_rs(root)

    def test_subdivision_names_avoid_host_names(self):
        host = Tree.build(
            ["i", "la", "lb", "i~la"], [("i", "la"), ("i", "lb"), ("i", "i~la")]
        )
        root = LeafRoot.build(host, 2, {"a": "la", "b": "lb", "c": "i~la"})
        m = leafroot_to_rs(root)
        assert m.host.nodes == ("i", "la", "lb", "i~la", "i~i~la", "_i~la", "i~lb")
        assert m.host.edges == (
            ("_i~la", "i"), ("_i~la", "la"), ("i", "i~i~la"),
            ("i", "i~lb"), ("i~i~la", "i~la"), ("i~lb", "lb"),
        )
        assert m.centers == {"a": "la", "b": "lb", "c": "i~la"}


class TestBallModelToLeafRoot:
    def test_round_trip_through_ball_model(self):
        root = LeafRoot.build(
            caterpillar_host(), 3, {"a": "lu", "b": "lv", "c": "lw"}
        )
        p3 = path_graph(["a", "b", "c"])
        m = leafroot_to_rs(root)
        back = rs_to_leafroot(m)
        assert back.k == 2 * 3 + 2
        assert verify_leaf_root(p3, back)

    def test_single_host_node_model(self):
        # All three balls sit on one node: the result is a star of new leaves.
        t = Tree.build(["x"], [])
        g = complete_graph(["a", "b", "c"])
        from leafpower import RSModel

        m = RSModel.build(
            t, g, {"a": "x", "b": "x", "c": "x"}, {"a": 0, "b": 0, "c": 0}
        )
        back = rs_to_leafroot(m)
        assert back.k == 2
        assert verify_leaf_root(g, back)
        assert len(back.host.nodes) == 4

    def test_lone_vertex_keeps_only_its_leaf(self):
        t = path_tree(["leaf.a", "x", "y"])
        m = RSModel.build(t, Graph.build(["a"], []), {"a": "x"}, {"a": 2})
        back = rs_to_leafroot(m)
        assert back.host.nodes == ("_leaf.a",)
        assert back.k == 6
        assert back.placement == {"a": "_leaf.a"}

    def test_stem_and_leaf_names_avoid_host_names(self):
        t = path_tree(["x", "stem.a.1", "leaf.a"])
        g = Graph.build(["a", "b"], [("a", "b")])
        m = RSModel.build(t, g, {"a": "x", "b": "leaf.a"}, {"a": 0, "b": 2})
        back = unit_root(rs_to_leafroot(m))
        assert back.host.nodes == (
            "_leaf.a", "_stem.a.1", "leaf.a", "leaf.b", "stem.a.1", "stem.a.2", "x",
        )
        assert back.host.edges == (
            ("_leaf.a", "stem.a.2"), ("_stem.a.1", "stem.a.2"), ("_stem.a.1", "x"),
            ("leaf.a", "leaf.b"), ("leaf.a", "stem.a.1"), ("stem.a.1", "x"),
        )
        assert back.placement == {"a": "_leaf.a", "b": "leaf.b"}
        assert back.k == 6

    def test_broken_construction_is_caught_by_the_recheck(self, monkeypatch):
        # The root is fine; the recheck is made to see a graph without edges.
        m = leafroot_to_rs(LeafRoot.build(caterpillar_host(), 3, {"a": "lu", "b": "lv", "c": "lw"}))
        monkeypatch.setattr(
            roots, "leaf_power_graph", lambda r: Graph.build(sorted(r.placement), [])
        )
        with pytest.raises(RuntimeError, match="construction invalid"):
            rs_to_leafroot(m)

    def test_empty_model_rejected(self):
        from leafpower import RSModel

        t = Tree.build(["x"], [])
        g = Graph.build([], [])
        m = RSModel.build(t, g, {}, {})
        with pytest.raises(ValueError, match="no vertices"):
            rs_to_leafroot(m)

    def test_hundred_random_round_trips(self):
        rng = random.Random(97)
        done = 0
        while done < 100:
            host = random_tree_rng(rng, 2, 12)
            leaves = host.leaves()
            if len(leaves) > 8:
                continue
            k = rng.randint(1, 6)
            names = [f"g{i}" for i in range(len(leaves))]
            root = LeafRoot.build(host, k, dict(zip(names, leaves)))
            graph = leaf_power_graph(root)
            m = leafroot_to_rs(root)
            assert m.graph == graph
            assert max(m.radii.values()) == k
            assert rs_model_violations(m) == []
            back = rs_to_leafroot(m)
            assert back.k == 2 * k + 2
            assert verify_leaf_root(graph, back)
            done += 1


# ---------------------------------------------------------------------------
# Stems: rs_to_leafroot's one-edge stems, expanded by the unit-edge writers
# ---------------------------------------------------------------------------

def grown_unit_root(model: RSModel) -> LeafRoot:
    """The unit-edge root rs_to_leafroot built before its stems had lengths.

    Each stem is a path of fresh unit-edge nodes, named ``_``-prefixed against
    every node of the model's host and every name grown before it.
    """

    def grow(start, bases, taken, nodes, edges):
        for base in bases:
            name = base
            while name in taken:
                name = "_" + name
            taken.add(name)
            nodes.append(name)
            edges.append((start, name))
            start = name
        return start

    vertices = model.graph.vertices
    k = max(model.radii[v] for v in vertices)
    taken = set(model.host.nodes)
    first = model.centers[vertices[0]]
    core = set().union(*(tree_path(model.host, first, model.centers[v]) for v in vertices))
    nodes = list(core)
    edges = [(x, y) for x, y in model.host.edges if x in core and y in core]
    placement = {}
    for v in vertices:
        stems = [f"stem.{v}.{j}" for j in range(1, k + 1 - model.radii[v])]
        placement[v] = grow(model.centers[v], [*stems, f"leaf.{v}"], taken, nodes, edges)
    if len(vertices) == 1:
        nodes, edges = list(placement.values()), []
    return LeafRoot.build(Tree.build(sorted(nodes), edges), 2 * k + 2, placement)


def assert_expands_as_grown(model: RSModel) -> None:
    """rs_to_leafroot's root is written byte for byte as the grown root, and reads back."""
    root = rs_to_leafroot(model)
    grown = grown_unit_root(model)
    text = dumps(leafroot_to_json_obj(root))
    assert text == dumps(leafroot_to_json_obj(grown))
    assert leafroot_to_dot(root) == leafroot_to_dot(grown)
    back = leafroot_from_json_obj(json.loads(text))
    assert back == grown
    assert verify_leaf_root(model.graph, back)


#: Host names that clash with the stem and leaf names of vertices a, b and c.
CLASHING_NAMES = [
    "x", "y", "z", "leaf.a", "_leaf.a", "leaf.b", "stem.a.1", "_stem.a.1", "stem.a.2",
    "stem.b.1", "stem.c.3",
]


@st.composite
def stem_models(draw) -> RSModel:
    """A ball model whose host is a subdivided leaf root on clashing names, radii redrawn.

    Every host leaf is a center, so the whole host is the core.
    """
    names = draw(st.permutations(CLASHING_NAMES))[: draw(st.integers(1, len(CLASHING_NAMES)))]
    parents = [names[draw(st.integers(0, i - 1))] for i in range(1, len(names))]
    host = Tree.build(names, list(zip(parents, names[1:])))
    leaves = draw(st.permutations(host.leaves()))
    vertices = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k"][: len(leaves)]
    k = draw(st.integers(1, 4))
    model = leafroot_to_rs(LeafRoot.build(host, k, dict(zip(vertices, leaves))))
    radii = {v: draw(st.integers(0, k)) for v in vertices}
    dist = pairwise_distances(model.host, model.centers.values())
    edges = [
        (u, v)
        for u, v in itertools.combinations(vertices, 2)
        if dist[model.centers[u]][model.centers[v]] <= radii[u] + radii[v]
    ]
    return RSModel.build(model.host, Graph.build(vertices, edges), model.centers, radii)


class TestStemExpansion:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_built_in_models_expand_as_grown(self, n):
        model = build_exponential_rs_model(build_rn(n))
        root = rs_to_leafroot(model)
        assert set(root.lengths.values()) > {1}
        assert_expands_as_grown(model)

    @given(stem_models())
    def test_small_models_expand_as_grown(self, model):
        assert_expands_as_grown(model)

    @pytest.mark.parametrize(
        "names",
        [
            ["x", "stem.a.1", "leaf.a"],
            ["x", "stem.a.1", "_stem.a.1"],
            ["stem.b.1", "stem.a.2", "leaf.b"],
            ["leaf.a", "_leaf.a", "stem.a.1"],
        ],
    )
    def test_core_names_like_stems_and_leaves(self, names):
        # a is centered at one end with radius 0, b at the other with radius 2.
        g = Graph.build(["a", "b"], [("a", "b")])
        centers = {"a": names[0], "b": names[-1]}
        model = RSModel.build(path_tree(names), g, centers, {"a": 0, "b": 2})
        assert sorted(rs_to_leafroot(model).lengths.values()) == [1, 1, 1, 3]
        assert_expands_as_grown(model)

    def test_root_has_one_edge_per_stem(self):
        t = path_tree(["x", "y"])
        g = Graph.build(["a", "b"], [("a", "b")])
        root = rs_to_leafroot(RSModel.build(t, g, {"a": "x", "b": "y"}, {"a": 0, "b": 3}))
        assert root.host.nodes == ("leaf.a", "leaf.b", "x", "y")
        assert root.lengths == {("leaf.a", "x"): 4, ("leaf.b", "y"): 1, ("x", "y"): 1}
        assert root.k == 8
        nodes = leafroot_to_json_obj(root)["tree"]["nodes"]
        assert nodes == ["leaf.a", "leaf.b", "stem.a.1", "stem.a.2", "stem.a.3", "x", "y"]

    def test_an_off_core_stem_name_is_no_longer_avoided(self):
        # The one case where the expansion and the grown root differ: stem.a.1
        # is a host node off the core x - y, so it never reaches the root, and
        # the stem node takes the plain name the grown root avoided.
        t = path_tree(["stem.a.1", "x", "y"])
        g = Graph.build(["a", "b"], [("a", "b")])
        model = RSModel.build(t, g, {"a": "x", "b": "y"}, {"a": 0, "b": 1})
        expanded = leafroot_to_json_obj(rs_to_leafroot(model))["tree"]
        grown = leafroot_to_json_obj(grown_unit_root(model))["tree"]
        assert expanded["nodes"] == ["leaf.a", "leaf.b", "stem.a.1", "x", "y"]
        assert grown["nodes"] == ["_stem.a.1", "leaf.a", "leaf.b", "x", "y"]
        assert expanded["edges"] == [
            ["leaf.a", "stem.a.1"], ["leaf.b", "y"], ["stem.a.1", "x"], ["x", "y"],
        ]

    def test_expansion_refuses_repeated_names(self, monkeypatch):
        # With the prefixing switched off, the stem node takes the core's name.
        t = path_tree(["x", "stem.a.1", "y"])
        g = Graph.build(["a", "b"], [("a", "b")])
        root = rs_to_leafroot(RSModel.build(t, g, {"a": "x", "b": "y"}, {"a": 0, "b": 2}))
        monkeypatch.setattr(roots, "_fresh_name", lambda base, taken: base)
        for write in (leafroot_to_json_obj, leafroot_to_dot, leafroot_to_rs):
            with pytest.raises(RuntimeError, match="invalid: 7 nodes with 6 distinct names"):
                write(root)

    def test_weighted_root_is_rechecked(self, monkeypatch):
        # The root is fine; the recheck is made to see a graph without edges.
        t = path_tree(["x", "y"])
        g = Graph.build(["a", "b"], [("a", "b")])
        model = RSModel.build(t, g, {"a": "x", "b": "y"}, {"a": 0, "b": 3})
        seen = []

        def no_edges(root):
            seen.append(root.lengths)
            return Graph.build(sorted(root.placement), [])

        monkeypatch.setattr(roots, "leaf_power_graph", no_edges)
        with pytest.raises(RuntimeError, match="construction invalid"):
            rs_to_leafroot(model)
        assert seen == [{("leaf.a", "x"): 4, ("leaf.b", "y"): 1, ("x", "y"): 1}]

    def test_stem_root_converts_back_to_a_ball_model(self):
        model = build_exponential_rs_model(build_rn(4))
        root = rs_to_leafroot(model)
        back = leafroot_to_rs(root)
        assert back == leafroot_to_rs(grown_unit_root(model))
        assert rs_model_violations(back) == []


# ---------------------------------------------------------------------------
# Brute-force leaf rank
# ---------------------------------------------------------------------------

class TestBruteForceLeafRank:
    def test_spot_values(self):
        assert brute_force_leaf_rank(Graph.build(["a"], []), 4) == 1
        assert brute_force_leaf_rank(path_graph(["a", "b"]), 4) == 1
        assert brute_force_leaf_rank(Graph.build(["a", "b"], []), 6) == 1
        assert brute_force_leaf_rank(complete_graph(["a", "b", "c"]), 6) == 2
        assert brute_force_leaf_rank(path_graph(["a", "b", "c"]), 8) == 3

    def test_two_disjoint_edges(self):
        g = Graph.build(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        assert brute_force_leaf_rank(g, 8) == 2

    def test_unknown_when_budget_too_small(self):
        p3 = path_graph(["a", "b", "c"])
        assert brute_force_leaf_rank(p3, 3) is None

    def test_cap_hides_larger_answers(self):
        p3 = path_graph(["a", "b", "c"])
        assert brute_force_leaf_rank(p3, 8, max_k=2) is None
        assert brute_force_leaf_rank(p3, 8, max_k=3) == 3

    def test_answer_is_minimal(self):
        # Re-running with the cap one below the reported rank finds nothing.
        for g in (
            path_graph(["a", "b", "c"]),
            complete_graph(["a", "b", "c"]),
            Graph.build(["a", "b", "c", "d"], [("a", "b"), ("c", "d")]),
        ):
            k = brute_force_leaf_rank(g, 8)
            assert k is not None
            assert brute_force_leaf_rank(g, 8, max_k=k - 1) is None

    def test_rank_at_most_two_means_cluster_graph(self, small_atlas_graphs):
        for g in small_atlas_graphs:
            rank = brute_force_leaf_rank(g, 10, max_k=2)
            assert (rank is not None) == is_cluster_graph(g), (
                g.vertices, g.edges,
            )

    def test_reported_rank_is_witnessed_by_some_root(self):
        # Any graph claiming rank k admits a verifying k-leaf root; spot-check
        # by rebuilding one with the search's own parameters.
        g = path_graph(["a", "b", "c"])
        assert brute_force_leaf_rank(g, 8) == 3
        root = LeafRoot.build(
            caterpillar_host(), 3, {"a": "lu", "b": "lv", "c": "lw"}
        )
        assert verify_leaf_root(g, root)

    def test_non_chordal_graph_is_unknown_without_a_host(self, monkeypatch):
        def no_hosts(num_leaves, order):
            raise AssertionError("a host was requested")

        monkeypatch.setattr(roots, "_hosts", no_hosts)
        c4 = cycle_graph(["a", "b", "c", "d"])
        assert brute_force_leaf_rank(c4, 10) is None

    def test_the_answer_is_rechecked_on_its_own_root(self, monkeypatch):
        checked = []
        verify = roots.verify_leaf_root

        def spy(graph, root):
            checked.append(root)
            return verify(graph, root)

        monkeypatch.setattr(roots, "verify_leaf_root", spy)
        p3 = path_graph(["a", "b", "c"])
        assert brute_force_leaf_rank(p3, 8) == 3
        [root] = checked
        assert root.k == 3 and root.host.n <= 8
        assert leaf_power_graph(root) == p3

    def test_a_wrong_placement_is_caught_by_the_recheck(self, monkeypatch):
        # A kernel that claims k = 1 on every host is refused before returning.
        monkeypatch.setattr(
            roots, "_best_k_on_host", lambda adjacent, after, tables, limit: (1, tables[0])
        )
        with pytest.raises(RuntimeError, match="construction invalid"):
            brute_force_leaf_rank(path_graph(["a", "b", "c"]), 8)

    def test_answers_on_the_atlas_within_ten_nodes(self, atlas_graphs):
        # The first pass builds the host memo, the second reads it.
        graphs = [g for g in atlas_graphs if g.n <= 6]
        expected = [
            None if ch == "." else int(ch) for ch in "".join(ATLAS_RANKS_WITHIN_TEN_NODES)
        ]
        assert len(expected) == 208 and expected.count(None) == 143
        enumtrees._hosts.cache_clear()
        for _ in range(2):
            got = [brute_force_leaf_rank(g, 10) for g in graphs]
            assert got == expected
            counts: dict[int, Counter] = {}
            for g, rank in zip(graphs, got):
                counts.setdefault(g.n, Counter())[rank] += 1
            assert counts == ATLAS_RANK_COUNTS

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 207), st.integers(6, 10), st.sampled_from([None, 1, 2, 3])
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_answers_do_not_depend_on_earlier_calls(self, calls):
        # The calls run in turn on one memo, then each alone on an empty one.
        graphs = atlas()
        assert all(graphs[i].n <= 6 for i, _, _ in calls)
        enumtrees._hosts.cache_clear()
        got = [brute_force_leaf_rank(graphs[i], m, k) for i, m, k in calls]
        for (i, m, k), answer in zip(calls, got):
            enumtrees._hosts.cache_clear()
            assert answer == brute_force_leaf_rank(graphs[i], m, k), (i, m, k)


#: ``brute_force_leaf_rank(g, 10)`` on the 208 atlas graphs with 1 to 6
#: vertices, in atlas order, one string per vertex count; "." is None.  These
#: are the answers of the search before the chordality gate and the index
#: tables, which tried every host.
ATLAS_RANKS_WITHIN_TEN_NODES = (
    "1",
    "11",
    "1232",
    "12322333.32",
    "12.22..33.333233.3..2.33..334.3.32",
    "1.2.2...2.....2..................2...................2.........23....."
    ".......3..3........3.......3.........3....3..........2.33.3.........3.."
    ".3....33...3.32",
)

#: The same answers counted per vertex count, rank -> graphs, 65 ranked in all.
#: This is the ``leafrank`` benchmark workload: ``leafrank --max-nodes 10`` on
#: every atlas graph with 1 to 6 vertices.
ATLAS_RANK_COUNTS = {
    1: {1: 1},
    2: {1: 2},
    3: {1: 1, 2: 2, 3: 1},
    4: {1: 1, 2: 4, 3: 5, None: 1},
    5: {1: 1, 2: 6, 3: 14, 4: 1, None: 12},
    6: {1: 1, 2: 9, 3: 16, None: 130},
}


def unpruned_workable_ks(graph: Graph, max_nodes: int) -> set[int]:
    """Every k in 1..max_nodes for which some host and placement form a k-leaf root.

    Tries every host from ``trees_with_leaf_count``, every permutation of its
    leaves and every k, with no chordality gate, no orbit reduction and no
    pruning.
    """
    vertices = graph.vertices
    pairs = list(itertools.combinations(range(len(vertices)), 2))
    adjacent = [graph.adjacent(vertices[i], vertices[j]) for i, j in pairs]
    ks = set()
    for host in trees_with_leaf_count(len(vertices), max_nodes):
        dist = {leaf: distances_from(host, leaf) for leaf in host.leaves()}
        for placed in itertools.permutations(host.leaves()):
            d = [dist[placed[i]][placed[j]] for i, j in pairs]
            for k in range(1, max_nodes + 1):
                if all((x <= k) == a for x, a in zip(d, adjacent)):
                    ks.add(k)
    return ks


def assert_agrees_with_unpruned_search(graph: Graph, max_nodes: int) -> None:
    """``brute_force_leaf_rank`` gives the unpruned search's smallest k, under each cap."""
    ks = unpruned_workable_ks(graph, max_nodes)
    for max_k in (None, 1, 2, 3):
        within = [k for k in ks if max_k is None or k <= max_k]
        expected = min(within) if within else None
        assert brute_force_leaf_rank(graph, max_nodes, max_k) == expected, (graph.edges, max_k)


class TestBruteForceAgainstUnprunedSearch:
    def test_atlas_graphs_up_to_five_vertices(self, small_atlas_graphs):
        for g in small_atlas_graphs:
            assert_agrees_with_unpruned_search(g, 8)

    def test_chordal_six_vertex_graphs(self, atlas_graphs):
        graphs = [g for g in atlas_graphs if g.n == 6 and is_chordal(g)]
        assert len(graphs) == 94
        for g in graphs:
            assert_agrees_with_unpruned_search(g, 8)

    def test_non_chordal_six_vertex_graphs(self, atlas_graphs):
        graphs = [g for g in atlas_graphs if g.n == 6 and not is_chordal(g)]
        assert len(graphs) == 62  # the other 8 of the 70 non-chordal ones have 4 or 5 vertices
        for g in graphs:
            assert unpruned_workable_ks(g, 7) == set()
            assert brute_force_leaf_rank(g, 7) is None


def adjacency_table(graph: Graph) -> list[list[bool]]:
    return [[graph.adjacent(u, v) for v in graph.vertices] for u in graph.vertices]


class TestTwinOrder:
    """The search places each twin class, vertex 0 left out, on increasing leaves."""

    def test_vertex_zero_in_a_false_twin_class(self):
        # K1,4: a is vertex 0, so only b, c and d are kept in order.
        star = Graph.build(["a", "b", "c", "d", "z"], [(x, "z") for x in "abcd"])
        assert roots._twin_predecessors(adjacency_table(star)) == [-1, -1, 1, 2, -1]
        assert brute_force_leaf_rank(star, 10) == 3
        assert brute_force_leaf_rank(star, 9) is None
        assert_agrees_with_unpruned_search(star, 10)

    def test_a_true_twin_class_of_three(self):
        # b, c and d are a triangle, each joined to e; a hangs from e.
        g = Graph.build(
            list("abcde"),
            [("b", "c"), ("b", "d"), ("c", "d"), ("a", "e"), ("b", "e"), ("c", "e"), ("d", "e")],
        )
        assert roots._twin_predecessors(adjacency_table(g)) == [-1, -1, 1, 2, -1]
        assert brute_force_leaf_rank(g, 8) == 3
        assert_agrees_with_unpruned_search(g, 8)

    def test_true_and_false_twin_classes_together(self):
        # Hub a; b, c adjacent true twins; d, e nonadjacent false twins.
        g = Graph.build(list("abcde"), [("a", "b"), ("a", "c"), ("b", "c"), ("a", "d"), ("a", "e")])
        assert roots._twin_predecessors(adjacency_table(g)) == [-1, -1, 1, -1, 3]
        assert brute_force_leaf_rank(g, 9) == 3
        assert_agrees_with_unpruned_search(g, 9)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

class TestLeafRootSerialization:
    def test_json_round_trip(self):
        root = LeafRoot.build(
            caterpillar_host(), 3, {"a": "lu", "b": "lv", "c": "lw"}
        )
        assert leafroot_from_json_obj(json.loads(dumps(leafroot_to_json_obj(root)))) == root

    def test_json_shape(self):
        t = star_tree("c", ["x", "y"])
        root = LeafRoot.build(t, 2, {"a": "x", "b": "y"})
        payload = json.loads(dumps(leafroot_to_json_obj(root)))
        assert set(payload) == {"tree", "k", "placement"}
        assert payload["k"] == 2
        assert payload["placement"] == {"a": "x", "b": "y"}

    def test_dot_marks_placed_leaves(self):
        t = star_tree("c", ["x", "y"])
        root = LeafRoot.build(t, 2, {"a": "x", "b": "y"})
        dot = leafroot_to_dot(root)
        assert "k = 2" in dot
        assert "shape=box" in dot

    def test_dot_escapes_quotes_in_names(self):
        root = LeafRoot.build(star_tree('x"y', ["p", "q"]), 2, {'v"1': "p", "w": "q"})
        model = leafroot_to_rs(root)
        dots = [
            graph_to_dot(model.graph),
            leafroot_to_dot(root),
            rs_model_to_dot(model),
            subtree_model_to_dot(expand_rs(model)),
        ]
        for dot in dots:
            for line in dot.splitlines():
                assert line.replace('\\"', "").count('"') % 2 == 0, line
        assert '  "v\\"1" -- "w";' in dots[0]
        assert '  "x\\"y";' in dots[1]
        assert '  "p" [label="p (v\\"1)", shape=box];' in dots[1]
        assert '  "p" [label="p: v\\"1 r=2", shape=box];' in dots[2]

    def test_dot_refuses_names_ending_in_a_backslash(self):
        root = LeafRoot.build(star_tree("x\\", ["p", "q"]), 2, {"v\\": "p", "w": "q"})
        model = leafroot_to_rs(root)
        writers = [
            lambda: graph_to_dot(model.graph),
            lambda: leafroot_to_dot(root),
            lambda: rs_model_to_dot(model),
            lambda: subtree_model_to_dot(expand_rs(model)),
        ]
        for write in writers:
            with pytest.raises(ValueError, match="backslash"):
                write()
