"""Tests for subtree intersection models, ball models, and clique-tree models."""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from leafpower import (
    Graph,
    RSModel,
    SubtreeModel,
    Tree,
    ball,
    check_path_cover,
    clique_subtree,
    clique_tree_model,
    cover,
    build_exponential_rs_model,
    build_rn,
    distance,
    distances_from,
    dumps,
    expand_rs,
    is_chordal,
    maximal_cliques,
    rs_model_from_json_obj,
    rs_model_to_dot,
    rs_model_to_json_obj,
    rs_model_violations,
    subtree_model_to_dot,
    subtree_model_violations,
)
from leafpower import models as models_module
from leafpower.cli import main

from conftest import (
    path_graph,
    path_tree,
    random_ball_model,
    random_tree_rng,
    random_trees,
    star_tree,
)


def graph_path(g: Graph, start: str, goal: str) -> tuple[str, ...]:
    """Shortest path between two vertices of a connected graph, by BFS."""
    previous = {start: start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for w in sorted(g.neighbors(v)):
                if w not in previous:
                    previous[w] = v
                    nxt.append(w)
        frontier = nxt
    path = [goal]
    while path[-1] != start:
        path.append(previous[path[-1]])
    return tuple(reversed(path))


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

class TestSubtreeModelBuild:
    def test_missing_vertex_rejected(self):
        t = path_tree(["x", "y"])
        g = path_graph(["u", "v"])
        with pytest.raises(ValueError, match="no assigned node set"):
            SubtreeModel.build(t, g, {"u": frozenset({"x"})})

    def test_unknown_host_node_rejected(self):
        t = path_tree(["x", "y"])
        g = path_graph(["u", "v"])
        with pytest.raises(ValueError, match="not in the host tree"):
            SubtreeModel.build(
                t, g, {"u": frozenset({"x"}), "v": frozenset({"q"})}
            )

    def test_empty_node_set_is_constructible_but_invalid(self):
        t = path_tree(["x", "y"])
        g = path_graph(["u", "v"])
        m = SubtreeModel.build(t, g, {"u": frozenset({"x"}), "v": frozenset()})
        assert subtree_model_violations(m) != []
        assert "vertex 'v' has an empty node set" in subtree_model_violations(m)


class TestRSModelBuild:
    def test_negative_radius_rejected(self):
        t = path_tree(["x", "y"])
        g = path_graph(["u", "v"])
        with pytest.raises(ValueError, match="nonnegative integer"):
            RSModel.build(t, g, {"u": "x", "v": "y"}, {"u": -1, "v": 0})

    def test_boolean_radius_rejected(self):
        t = path_tree(["x", "y"])
        g = path_graph(["u", "v"])
        with pytest.raises(ValueError, match="nonnegative integer"):
            RSModel.build(t, g, {"u": "x", "v": "y"}, {"u": True, "v": 0})

    def test_unknown_center_rejected(self):
        t = path_tree(["x", "y"])
        g = path_graph(["u", "v"])
        with pytest.raises(ValueError):
            RSModel.build(t, g, {"u": "q", "v": "y"}, {"u": 0, "v": 0})


# ---------------------------------------------------------------------------
# Verification of explicit subtree models
# ---------------------------------------------------------------------------

class TestVerifySubtreeModel:
    def test_single_vertex_single_node_model(self):
        t = Tree.build(["x"], [])
        g = Graph.build(["u"], [])
        m = SubtreeModel.build(t, g, {"u": frozenset({"x"})})
        assert subtree_model_violations(m) == []
        assert subtree_model_violations(m) == []

    def test_adjacent_vertices_with_disjoint_subtrees_fail(self):
        t = path_tree(["x", "y"])
        g = path_graph(["u", "v"])
        m = SubtreeModel.build(t, g, {"u": frozenset({"x"}), "v": frozenset({"y"})})
        assert subtree_model_violations(m) == [
            "subtrees of adjacent 'u' and 'v' are disjoint"
        ]

    def test_non_adjacent_vertices_with_meeting_subtrees_fail(self):
        t = path_tree(["x", "y"])
        g = Graph.build(["u", "v"], [])
        m = SubtreeModel.build(
            t, g, {"u": frozenset({"x", "y"}), "v": frozenset({"y"})}
        )
        assert subtree_model_violations(m) == [
            "subtrees of non-adjacent 'u' and 'v' intersect"
        ]

    def test_disconnected_node_set_fails(self):
        t = path_tree(["x", "y", "z"])
        g = Graph.build(["u", "v"], [])
        m = SubtreeModel.build(
            t, g, {"u": frozenset({"x", "z"}), "v": frozenset({"y"})}
        )
        assert "nodes of vertex 'u' do not induce a subtree" in (
            subtree_model_violations(m)
        )

    def test_random_ball_models_verify_by_construction(self):
        rng = random.Random(7)
        for _ in range(50):
            _, model = random_ball_model(rng)
            assert subtree_model_violations(model) == []

    def test_intersection_graphs_of_subtrees_are_chordal(self):
        rng = random.Random(11)
        for _ in range(50):
            graph, _ = random_ball_model(rng)
            assert is_chordal(graph)


class TestCover:
    def test_cover_collects_vertices_touching_a_node(self):
        t = path_tree(["x", "y"])
        g = path_graph(["u", "v"])
        m = SubtreeModel.build(
            t, g, {"u": frozenset({"x", "y"}), "v": frozenset({"y"})}
        )
        assert cover(m, "x") == frozenset({"u"})
        assert cover(m, "y") == frozenset({"u", "v"})

    def test_uncovered_node_has_empty_cover(self):
        t = path_tree(["x", "y"])
        g = Graph.build(["u"], [])
        m = SubtreeModel.build(t, g, {"u": frozenset({"x"})})
        assert cover(m, "y") == frozenset()


# ---------------------------------------------------------------------------
# Clique subtrees and the Helly property
# ---------------------------------------------------------------------------

class TestCliqueSubtree:
    def test_triangle_meets_in_shared_node(self):
        t = path_tree(["x", "y"])
        g = Graph.build(["u", "v", "w"], [("u", "v"), ("v", "w"), ("u", "w")])
        m = SubtreeModel.build(
            t,
            g,
            {
                "u": frozenset({"x", "y"}),
                "v": frozenset({"x"}),
                "w": frozenset({"x", "y"}),
            },
        )
        assert clique_subtree(m, ["w", "u", "v"]) == frozenset({"x"})

    def test_triangle_members_accepted_in_any_order(self):
        t = path_tree(["x", "y"])
        g = Graph.build(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        m = SubtreeModel.build(
            t, g, {"a": frozenset({"x"}), "b": frozenset({"x", "y"}), "c": frozenset({"x"})}
        )
        for order in itertools.permutations("abc"):
            assert clique_subtree(m, order) == frozenset({"x"})
        assert clique_subtree(m, frozenset("abc")) == frozenset({"x"})

    def test_single_vertex_is_its_own_subtree(self):
        t = path_tree(["x", "y"])
        g = Graph.build(["u"], [])
        m = SubtreeModel.build(t, g, {"u": frozenset({"x", "y"})})
        assert clique_subtree(m, {"u"}) == frozenset({"x", "y"})

    def test_non_adjacent_members_rejected(self):
        # Helly speaks only of pairwise-meeting subtrees: P3's ends share no node.
        t = path_tree(["x", "y", "z"])
        g = path_graph(["a", "b", "c"])
        m = SubtreeModel.build(
            t, g, {"a": frozenset({"x"}), "b": frozenset({"x", "y", "z"}), "c": frozenset({"z"})}
        )
        with pytest.raises(ValueError, match="^clique members 'a' and 'c' are not adjacent$"):
            clique_subtree(m, ["c", "b", "a"])

    def test_unknown_member_rejected(self):
        t = path_tree(["x", "y"])
        g = Graph.build(["u"], [])
        m = SubtreeModel.build(t, g, {"u": frozenset({"x"})})
        with pytest.raises(ValueError, match="^clique member 'z' is not a graph vertex$"):
            clique_subtree(m, ["u", "z"])

    def test_empty_clique_rejected(self):
        t = path_tree(["x", "y"])
        g = Graph.build(["u"], [])
        m = SubtreeModel.build(t, g, {"u": frozenset({"x"})})
        with pytest.raises(ValueError, match="clique is empty"):
            clique_subtree(m, frozenset())

    def test_helly_violation_detected_on_damaged_model(self):
        # Three pairwise-meeting paths with no common node cannot happen in a
        # tree, so a damaged assignment that claims it must be diagnosed.
        t = star_tree("c", ["x", "y", "z"])
        g = Graph.build(["u", "v", "w"], [("u", "v"), ("v", "w"), ("u", "w")])
        m = SubtreeModel.build(
            t,
            g,
            {
                "u": frozenset({"x"}),
                "v": frozenset({"x", "c", "y"}),
                "w": frozenset({"y"}),
            },
        )
        with pytest.raises(ValueError, match="Helly violation: model invalid"):
            clique_subtree(m, ["u", "w"])

    def test_maximal_clique_subtrees_nonempty_on_random_chordal_models(self):
        rng = random.Random(23)
        for _ in range(50):
            graph, model = random_ball_model(rng)
            for clique in maximal_cliques(graph):
                assert clique_subtree(model, clique)


# ---------------------------------------------------------------------------
# Ball models and the dual verification route
# ---------------------------------------------------------------------------

class TestBallModels:
    def test_expand_rs_produces_balls(self):
        t = path_tree(["x", "y", "z"])
        g = Graph.build(["u"], [])
        m = RSModel.build(t, g, {"u": "y"}, {"u": 1})
        expanded = expand_rs(m)
        assert expanded.assignment["u"] == frozenset({"x", "y", "z"})
        assert expanded.host == t and expanded.graph == g

    @given(random_trees(max_nodes=8), st.data())
    def test_balls_meet_iff_centers_close(self, t: Tree, data):
        u = data.draw(st.sampled_from(t.nodes))
        v = data.draw(st.sampled_from(t.nodes))
        ru = data.draw(st.integers(0, 4))
        rv = data.draw(st.integers(0, 4))
        meets = bool(ball(t, u, ru) & ball(t, v, rv))
        assert meets == (distance(t, u, v) <= ru + rv)

    @given(random_trees(min_nodes=2, max_nodes=7), st.data())
    def test_rs_verification_agrees_with_expanded_route(self, t: Tree, data):
        k = data.draw(st.integers(1, 5))
        vertices = [f"u{i}" for i in range(k)]
        centers = {v: data.draw(st.sampled_from(t.nodes)) for v in vertices}
        radii = {v: data.draw(st.integers(0, 3)) for v in vertices}
        pairs = list(itertools.combinations(vertices, 2))
        edges = [p for p in pairs if data.draw(st.booleans())]
        g = Graph.build(vertices, edges)
        m = RSModel.build(t, g, centers, radii)
        assert (rs_model_violations(m) == []) == (subtree_model_violations(expand_rs(m)) == [])
        assert rs_model_violations(m) == expanded_route_violations(m)

    def test_rs_violation_messages_name_the_pair(self):
        t = path_tree(["x", "y", "z"])
        g = path_graph(["u", "v"])
        m = RSModel.build(t, g, {"u": "x", "v": "z"}, {"u": 0, "v": 0})
        assert rs_model_violations(m) == [
            "balls of adjacent 'u' and 'v' are disjoint"
        ]


def expanded_route_violations(model: RSModel) -> list[str]:
    """The set route's problems with the expanded balls, worded as the ball route words them.

    The ball route must give exactly these problems, in this order.
    """
    return [
        problem.replace("subtrees of", "balls of")
        for problem in subtree_model_violations(expand_rs(model))
    ]


def per_center_bfs_violations(model: RSModel) -> list[str]:
    """The ball-model mismatches by one breadth-first search per vertex's center."""
    problems = []
    for i, u in enumerate(model.graph.vertices):
        dist = distances_from(model.host, model.centers[u])
        for v in model.graph.vertices[i + 1 :]:
            meets = dist[model.centers[v]] <= model.radii[u] + model.radii[v]
            if meets and not model.graph.adjacent(u, v):
                problems.append(f"balls of non-adjacent {u!r} and {v!r} intersect")
            elif not meets and model.graph.adjacent(u, v):
                problems.append(f"balls of adjacent {u!r} and {v!r} are disjoint")
    return problems


def nudge_one_radius(rng: random.Random, model: RSModel) -> RSModel:
    """The model with one radius raised or lowered by one (never below zero)."""
    radii = dict(model.radii)
    v = rng.choice(model.graph.vertices)
    radii[v] = radii[v] + 1 if radii[v] == 0 or rng.random() < 0.5 else radii[v] - 1
    return RSModel.build(model.host, model.graph, model.centers, radii)


class TestViolationsAgainstPerCenterSearch:
    def test_random_ball_models_with_one_radius_nudged(self):
        rng = random.Random(59)
        failing = 0
        for _ in range(300):
            host = random_tree_rng(rng, 1, 12)
            vertices = [f"u{i}" for i in range(rng.randint(2, 9))]
            # A few centers for many vertices, so that centers are shared.
            pool = [rng.choice(host.nodes) for _ in range(3)]
            centers = {v: rng.choice(pool) for v in vertices}
            centers[vertices[1]] = centers[vertices[0]]
            radii = {v: rng.randint(0, 3) for v in vertices}
            edges = [
                (u, v)
                for u, v in itertools.combinations(vertices, 2)
                if distance(host, centers[u], centers[v]) <= radii[u] + radii[v]
            ]
            m = nudge_one_radius(rng, RSModel.build(host, Graph.build(vertices, edges), centers, radii))
            assert rs_model_violations(m) == per_center_bfs_violations(m) == expanded_route_violations(m)
            failing += bool(rs_model_violations(m))
        assert failing > 50

    @pytest.mark.parametrize("n", range(3, 7))
    def test_built_in_models_with_one_radius_nudged(self, n):
        model = build_exponential_rs_model(build_rn(n))
        assert model.centers["a1"] == model.centers["b1"]
        assert rs_model_violations(model) == per_center_bfs_violations(model) == []
        assert expanded_route_violations(model) == []
        rng = random.Random(n)
        for _ in range(10):
            m = nudge_one_radius(rng, model)
            assert rs_model_violations(m) == per_center_bfs_violations(m) == expanded_route_violations(m)


class TestCommandsRefuseBallModels:
    @pytest.mark.parametrize("n", range(3, 6))
    def test_commands_refuse_with_the_first_problem(self, tmp_path, n):
        model = build_exponential_rs_model(build_rn(n))
        path = tmp_path / "model.json"
        rng = random.Random(n)
        refused = 0
        for _ in range(6):
            m = nudge_one_radius(rng, model)
            problems = expanded_route_violations(m)
            path.write_text(dumps(rs_model_to_json_obj(m)))
            for argv, prefix in (
                (["convert", "--from", "rs", "--input", str(path)], "model does not verify: "),
                (["audit", "--model", str(path)], "not a model of R_n: "),
            ):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                if problems:
                    assert (code, out.getvalue(), err.getvalue()) == (1, "", f"{prefix}{problems[0]}\n")
                else:
                    assert err.getvalue() == ""
            refused += bool(problems)
        assert refused > 0


# ---------------------------------------------------------------------------
# Corridor coverage along graph paths
# ---------------------------------------------------------------------------

class TestCheckPathCover:
    def test_true_on_verifying_models(self):
        rng = random.Random(41)
        done = 0
        while done < 40:
            graph, model = random_ball_model(rng, max_host=6, max_vertices=6)
            pairs = [
                (u, v)
                for u, v in itertools.combinations(graph.vertices, 2)
                if graph_reachable(graph, u, v)
            ]
            if not pairs:
                continue
            u, v = rng.choice(pairs)
            path = graph_path(graph, u, v)
            x_u = rng.choice(sorted(model.assignment[u]))
            x_v = rng.choice(sorted(model.assignment[v]))
            assert check_path_cover(model, path, x_u, x_v)
            done += 1

    def test_false_after_forging_an_edge(self):
        # u and v live on opposite ends of the host; gluing in the edge uv
        # leaves the corridor's middle node covered by nobody on the "path".
        t = path_tree(["x1", "x2", "x3"])
        honest = Graph.build(["u", "v"], [])
        assignment = {"u": frozenset({"x1"}), "v": frozenset({"x3"})}
        assert subtree_model_violations(SubtreeModel.build(t, honest, assignment)) == []
        forged = Graph.build(["u", "v"], [("u", "v")])
        m = SubtreeModel.build(t, forged, assignment)
        assert not check_path_cover(m, ("u", "v"), "x1", "x3")

    def test_still_true_after_deleting_an_edge(self):
        # Deleting a graph edge never breaks coverage for paths that remain:
        # the assignment still chains along any surviving path.
        r3_like = Graph.build(
            ["u", "v", "w"], [("u", "v"), ("v", "w"), ("u", "w")]
        )
        t = path_tree(["x1", "x2", "x3"])
        assignment = {
            "u": frozenset({"x1", "x2"}),
            "v": frozenset({"x2"}),
            "w": frozenset({"x2", "x3"}),
        }
        assert subtree_model_violations(
            SubtreeModel.build(t, r3_like, assignment)
        ) == []
        cut = Graph.build(["u", "v", "w"], [("u", "v"), ("v", "w")])
        m = SubtreeModel.build(t, cut, assignment)
        assert check_path_cover(m, ("u", "v", "w"), "x1", "x3")

    def test_non_path_rejected(self):
        t = path_tree(["x1", "x2"])
        g = Graph.build(["u", "v"], [])
        m = SubtreeModel.build(
            t, g, {"u": frozenset({"x1"}), "v": frozenset({"x2"})}
        )
        with pytest.raises(ValueError, match="are not adjacent"):
            check_path_cover(m, ("u", "v"), "x1", "x2")

    def test_endpoint_outside_subtree_rejected(self):
        t = path_tree(["x1", "x2"])
        g = path_graph(["u", "v"])
        m = SubtreeModel.build(
            t, g, {"u": frozenset({"x1"}), "v": frozenset({"x2"})}
        )
        with pytest.raises(ValueError, match="not in the subtree of the first"):
            check_path_cover(m, ("u", "v"), "x2", "x2")


def graph_reachable(g: Graph, u: str, v: str) -> bool:
    seen = {u}
    frontier = [u]
    while frontier:
        x = frontier.pop()
        for y in g.neighbors(x):
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return v in seen


# ---------------------------------------------------------------------------
# Clique-tree models for chordal graphs
# ---------------------------------------------------------------------------

class TestCliqueTreeModel:
    def test_verifies_on_every_chordal_atlas_graph(self, atlas_graphs):
        for g in atlas_graphs:
            if not is_chordal(g):
                continue
            m = clique_tree_model(g)
            assert subtree_model_violations(m) == [], (g.vertices, g.edges)
            assert len(m.host.nodes) == len(maximal_cliques(g))

    def test_every_maximal_clique_gets_a_host_node(self, atlas_graphs):
        for g in atlas_graphs:
            if not is_chordal(g):
                continue
            m = clique_tree_model(g)
            clique_sets = set(maximal_cliques(g))
            host_covers = {cover(m, node) for node in m.host.nodes}
            assert clique_sets == host_covers

    def test_single_vertex(self):
        g = Graph.build(["a"], [])
        m = clique_tree_model(g)
        assert subtree_model_violations(m) == []
        assert len(m.host.nodes) == 1

    def test_disconnected_graph(self):
        g = Graph.build(
            ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "c")]
        )
        m = clique_tree_model(g)
        assert subtree_model_violations(m) == []
        assert len(m.host.nodes) == 2

    def test_verifies_on_random_chordal_graphs_beyond_the_atlas(self):
        rng = random.Random(16)
        for _ in range(200):
            g, _ = random_ball_model(rng, max_host=15, max_vertices=16)
            m = clique_tree_model(g)
            assert subtree_model_violations(m) == []
            cliques = set(maximal_cliques(g))
            assert {cover(m, node) for node in m.host.nodes} == cliques
            assert len(m.host.nodes) == len(cliques)

    def test_components_are_bridged_by_disjoint_cliques(self):
        # Four components, listed interleaved: a triangle, a path, an edge
        # and an isolated vertex.  Three bridge edges join their clique trees.
        g = Graph.build(
            ["a", "d", "h", "b", "e", "g", "c", "f", "i"],
            [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("h", "i")],
        )
        m = clique_tree_model(g)
        assert subtree_model_violations(m) == []
        assert {cover(m, node) for node in m.host.nodes} == {
            frozenset("abc"), frozenset("de"), frozenset("ef"), frozenset("hi"),
            frozenset("g"),
        }
        bridges = [(x, y) for x, y in m.host.edges if not cover(m, x) & cover(m, y)]
        assert len(bridges) == 3

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="no vertices"):
            clique_tree_model(Graph.build([], []))

    def test_non_chordal_rejected(self):
        c4 = Graph.build(
            ["a", "b", "c", "d"],
            [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")],
        )
        with pytest.raises(ValueError, match="requires chordal graph"):
            clique_tree_model(c4)

    def test_invalid_construction_is_caught_by_the_recheck(self, monkeypatch):
        # With a maximal clique dropped, vertex c lies in no host node.
        clique_tree = models_module._clique_tree
        monkeypatch.setattr(models_module, "_clique_tree", lambda g: (clique_tree(g)[0][:1], []))
        p3 = Graph.build(["a", "b", "c"], [("a", "b"), ("b", "c")])
        with pytest.raises(RuntimeError, match="construction invalid: vertex 'c'"):
            clique_tree_model(p3)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

class TestModelSerialization:
    def test_rs_model_json_round_trip(self):
        t = path_tree(["x", "y", "z"])
        g = path_graph(["u", "v"])
        m = RSModel.build(t, g, {"u": "x", "v": "z"}, {"u": 1, "v": 1})
        assert rs_model_from_json_obj(json.loads(dumps(rs_model_to_json_obj(m)))) == m

    def test_rs_model_json_shape(self):
        t = path_tree(["x", "y"])
        g = Graph.build(["u"], [])
        m = RSModel.build(t, g, {"u": "x"}, {"u": 1})
        payload = json.loads(dumps(rs_model_to_json_obj(m)))
        assert set(payload) == {"host", "graph", "centers", "radii"}
        assert payload["radii"] == {"u": 1}

    def test_dot_outputs_mention_hosts(self):
        t = path_tree(["x", "y"])
        g = Graph.build(["u"], [])
        sm = SubtreeModel.build(t, g, {"u": frozenset({"x", "y"})})
        rm = RSModel.build(t, g, {"u": "x"}, {"u": 1})
        assert '"x" -- "y"' in subtree_model_to_dot(sm)
        assert "r=1" in rs_model_to_dot(rm)
