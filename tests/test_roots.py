"""Tests for k-leaf roots, their conversions, and the brute-force rank search."""
from __future__ import annotations

import itertools
import json
import random

import pytest

from leafpower import (
    Graph,
    LeafRoot,
    RSModel,
    Tree,
    brute_force_leaf_rank,
    distance,
    dumps,
    expand_rs,
    graph_to_dot,
    is_cluster_graph,
    leaf_power_graph,
    leafroot_from_json_obj,
    leafroot_to_dot,
    leafroot_to_json_obj,
    leafroot_to_rs,
    rs_model_to_dot,
    rs_to_leafroot,
    subtree_model_to_dot,
    tree_to_dot,
    verify_leaf_root,
    verify_rs_model,
    verify_subtree_model,
)

from leafpower import roots

from conftest import (
    complete_graph,
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

class TestLeafRootToBallModel:
    def test_radii_all_equal_k_and_model_verifies(self):
        root = LeafRoot.build(
            caterpillar_host(), 3, {"a": "lu", "b": "lv", "c": "lw"}
        )
        m = leafroot_to_rs(root)
        assert set(m.radii.values()) == {3}
        assert verify_rs_model(m)
        assert verify_subtree_model(expand_rs(m))

    def test_subdivision_doubles_leaf_distances(self):
        root = LeafRoot.build(
            caterpillar_host(), 3, {"a": "lu", "b": "lv", "c": "lw"}
        )
        m = leafroot_to_rs(root)
        assert distance(m.host, m.centers["a"], m.centers["b"]) == 2 * 3
        assert distance(m.host, m.centers["a"], m.centers["c"]) == 2 * 4

    def test_mismatched_graph_rejected(self):
        root = LeafRoot.build(
            caterpillar_host(), 3, {"a": "lu", "b": "lv", "c": "lw"}
        )
        with pytest.raises(ValueError, match="does not verify"):
            leafroot_to_rs(root, Graph.build(["a", "b", "c"], []))

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
        back = rs_to_leafroot(m)
        assert back.host.nodes == (
            "_leaf.a", "_stem.a.1", "leaf.a", "leaf.b", "stem.a.1", "stem.a.2", "x",
        )
        assert back.host.edges == (
            ("_leaf.a", "stem.a.2"), ("_stem.a.1", "stem.a.2"), ("_stem.a.1", "x"),
            ("leaf.a", "leaf.b"), ("leaf.a", "stem.a.1"), ("stem.a.1", "x"),
        )
        assert back.placement == {"a": "_leaf.a", "b": "leaf.b"}
        assert back.k == 6

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
            m = leafroot_to_rs(root, graph)
            assert max(m.radii.values()) == k
            assert verify_rs_model(m)
            back = rs_to_leafroot(m)
            assert back.k == 2 * k + 2
            assert verify_leaf_root(graph, back)
            done += 1


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
            tree_to_dot(root.host),
            leafroot_to_dot(root),
            rs_model_to_dot(model),
            subtree_model_to_dot(expand_rs(model)),
        ]
        for dot in dots:
            for line in dot.splitlines():
                assert line.replace('\\"', "").count('"') % 2 == 0, line
        assert '  "v\\"1" -- "w";' in dots[0]
        assert '  "x\\"y";' in dots[1]
        assert '  "p" [label="p (v\\"1)", shape=box];' in dots[2]
        assert '  "p" [label="p: v\\"1 r=2", shape=box];' in dots[3]

    def test_dot_refuses_names_ending_in_a_backslash(self):
        root = LeafRoot.build(star_tree("x\\", ["p", "q"]), 2, {"v\\": "p", "w": "q"})
        model = leafroot_to_rs(root)
        writers = [
            lambda: graph_to_dot(model.graph),
            lambda: tree_to_dot(root.host),
            lambda: leafroot_to_dot(root),
            lambda: rs_model_to_dot(model),
            lambda: subtree_model_to_dot(expand_rs(model)),
        ]
        for write in writers:
            with pytest.raises(ValueError, match="backslash"):
                write()
