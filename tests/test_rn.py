"""Tests for the R_n graph family and its two tree models."""
from __future__ import annotations

import dataclasses
import itertools

import pytest

from leafpower import (
    MAX_EXPONENTIAL_N,
    RDP_ROOT,
    build_exponential_rs_model,
    build_rdp_model,
    build_rn,
    cover,
    distance,
    expand_rs,
    induced_subgraph,
    is_chordal,
    is_rooted_directed_path_model,
    is_separator,
    maximal_cliques,
    rs_model_violations,
    subtree_model_violations,
)
from leafpower import rn
from leafpower.rn import rn_shape


SWEEP = range(3, 9)


# Literal defining cliques of R_3, spelled out independently of the builder.
R3_CLIQUES = [
    {"a1", "b1", "c1", "d1"},
    {"a2", "b2", "c2", "d2"},
    {"a3", "b3", "c3", "d3"},
    {"a1", "a2", "a3", "b1", "b2", "c1"},
    {"a2", "a3", "b2", "b3", "c2"},
]

R4_PRIME_CLIQUES = [
    {"a1", "a2", "a3", "a4", "b1", "b2", "c1"},
    {"a2", "a3", "a4", "b2", "b3", "c2"},
    {"a3", "a4", "b3", "b4", "c3"},
]


def pairwise_union_edge_count(cliques: list[set[str]]) -> int:
    edges = set()
    for clique in cliques:
        for u, v in itertools.combinations(sorted(clique), 2):
            edges.add((min(u, v), max(u, v)))
    return len(edges)


# ---------------------------------------------------------------------------
# The graphs themselves
# ---------------------------------------------------------------------------

class TestBuildRn:
    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="n ≥ 3|n >= 3"):
            build_rn(2)

    def test_r3_has_exactly_the_defining_cliques(self):
        r = build_rn(3)
        assert set(maximal_cliques(r.graph)) == {
            frozenset(c) for c in R3_CLIQUES
        }

    def test_r3_edge_count_matches_independent_union(self):
        r = build_rn(3)
        assert len(r.graph.edges) == pairwise_union_edge_count(R3_CLIQUES)
        assert len(r.graph.edges) == 33

    def test_size_without_building(self):
        # The audit refuses a model of the wrong size by these, before build_rn.
        for n in range(3, 41):
            r = build_rn(n)
            assert rn_shape(n) == (frozenset(r.graph.vertices), len(r.graph.edges))

    def test_r4_prime_cliques(self):
        r = build_rn(4)
        got = {r.prime_clique(i) for i in range(1, 4)}
        assert got == {frozenset(c) for c in R4_PRIME_CLIQUES}

    def test_vertex_count_and_names(self):
        for n in SWEEP:
            r = build_rn(n)
            assert r.graph.n == 4 * n
            assert set(r.graph.vertices) == {
                f"{letter}{i}"
                for letter in "abcd"
                for i in range(1, n + 1)
            }

    def test_chordal_with_two_n_minus_one_maximal_cliques(self):
        for n in range(3, 17):
            r = build_rn(n)
            assert is_chordal(r.graph)
            cliques = set(maximal_cliques(r.graph))
            assert len(cliques) == 2 * n - 1
            assert cliques == {
                frozenset(s) for s in r.expected_clique_sets()
            }

    def test_plain_cliques_never_separate(self):
        for n in SWEEP:
            r = build_rn(n)
            for i in range(1, n + 1):
                assert not is_separator(r.graph, r.clique(i))

    def test_prime_cliques_always_separate(self):
        for n in SWEEP:
            r = build_rn(n)
            for i in range(1, n):
                assert is_separator(r.graph, r.prime_clique(i))

    def test_b_vertices_induce_a_path(self):
        for n in SWEEP:
            r = build_rn(n)
            bs = [r.b[i] for i in range(1, n + 1)]
            sub = induced_subgraph(r.graph, bs)
            assert set(sub.edges) == {
                (min(x, y), max(x, y)) for x, y in zip(bs, bs[1:])
            }

    def test_clique_accessor_ranges(self):
        r = build_rn(3)
        with pytest.raises(ValueError, match="out of range"):
            r.clique(4)
        with pytest.raises(ValueError, match="out of range"):
            r.prime_clique(3)
        with pytest.raises(ValueError, match="out of range"):
            r.clique(0)

    def test_defining_cliques_are_made_once(self, monkeypatch):
        calls = []
        make = rn._defining_cliques

        def counting(*args):
            calls.append(args[0])
            return make(*args)

        monkeypatch.setattr(rn, "_defining_cliques", counting)
        r = build_rn(5)
        cliques = [r.clique(i) for i in range(1, 6)] + [r.prime_clique(i) for i in range(1, 5)]
        assert set(cliques) == r.expected_clique_sets()
        assert calls == [5]

    def test_the_stored_cliques_are_left_out_of_equality_and_repr(self):
        r = build_rn(3)
        assert r == build_rn(3) == dataclasses.replace(r, _cliques=())
        assert r != build_rn(4)
        assert repr(r) == (
            f"RnGraph(n=3, graph={r.graph!r}, a={r.a!r}, b={r.b!r}, c={r.c!r}, d={r.d!r})"
        )


# ---------------------------------------------------------------------------
# The rooted-path subtree model
# ---------------------------------------------------------------------------

class TestRdpModel:
    def test_verifies_for_the_sweep(self):
        for n in SWEEP:
            r = build_rn(n)
            m = build_rdp_model(r)
            assert subtree_model_violations(m) == []

    def test_is_rooted_directed_path_model(self):
        for n in SWEEP:
            r = build_rn(n)
            m = build_rdp_model(r)
            assert is_rooted_directed_path_model(m, RDP_ROOT)

    def test_r3_assignment_literal(self):
        m = build_rdp_model(build_rn(3))
        a = {v: set(s) for v, s in m.assignment.items()}
        assert a["a1"] == {"x1", "y1"}
        assert a["a2"] == {"x1", "x2", "y2"}
        assert a["a3"] == {"x1", "x2", "x3", "y3"}
        assert a["b1"] == {"x1", "y1"}
        assert a["b2"] == {"x1", "x2", "y2"}
        assert a["b3"] == {"x2", "x3", "y3"}
        assert a["c2"] == {"x2", "y2"}
        assert a["d3"] == {"y3"}

    def test_covers_recover_the_defining_cliques(self):
        for n in (3, 4, 5):
            r = build_rn(n)
            m = build_rdp_model(r)
            for i in range(1, n + 1):
                assert cover(m, f"y{i}") == r.clique(i)
            for i in range(1, n):
                assert cover(m, f"x{i}") == r.prime_clique(i)

    def test_host_is_a_caterpillar_with_unit_legs(self):
        for n in (3, 6):
            m = build_rdp_model(build_rn(n))
            spine = [f"x{i}" for i in range(1, n + 1)]
            for x, y in zip(spine, spine[1:]):
                assert distance(m.host, x, y) == 1
            for i in range(1, n + 1):
                assert distance(m.host, f"x{i}", f"y{i}") == 1

    def test_every_subtree_is_a_path_away_from_the_root(self):
        m = build_rdp_model(build_rn(4))
        depth = {
            node: distance(m.host, RDP_ROOT, node) for node in m.host.nodes
        }
        for v, nodes in m.assignment.items():
            depths = sorted(depth[x] for x in nodes)
            assert len(set(depths)) == len(depths), v
            assert depths == list(range(depths[0], depths[-1] + 1)), v


class TestRootedDirectedPathPredicate:
    def test_rejects_subtree_spanning_equal_depths(self):
        from leafpower import Graph, SubtreeModel, Tree

        host = Tree.build(
            ["c", "l1", "l2"], [("c", "l1"), ("c", "l2")]
        )
        g = Graph.build(["u"], [])
        m = SubtreeModel.build(
            host, g, {"u": frozenset({"l1", "c", "l2"})}
        )
        assert not is_rooted_directed_path_model(m, "c")
        assert is_rooted_directed_path_model(m, "l1")


# ---------------------------------------------------------------------------
# The exponential-radius ball model
# ---------------------------------------------------------------------------

class TestExponentialModel:
    def test_range_enforced(self):
        with pytest.raises(ValueError, match="3 ≤ n ≤ 16|3 <= n <= 16"):
            build_exponential_rs_model(build_rn(MAX_EXPONENTIAL_N + 1))

    def test_verifies_directly_and_after_expansion(self):
        for n in SWEEP:
            r = build_rn(n)
            m = build_exponential_rs_model(r)
            assert rs_model_violations(m) == []
            assert subtree_model_violations(expand_rs(m)) == []

    def test_max_radius_is_two_to_the_n_minus_one(self):
        for n in SWEEP:
            m = build_exponential_rs_model(build_rn(n))
            assert max(m.radii.values()) == 2**n - 1

    def test_host_size_grows_like_two_to_the_n(self):
        for n in SWEEP:
            m = build_exponential_rs_model(build_rn(n))
            assert len(m.host.nodes) <= 4 * 2**n

    def test_host_is_spine_with_pendant_paths(self):
        # Every node is a spine node s* or a pendant-path node h*_*; each
        # pendant path hangs off a single spine node.
        m = build_exponential_rs_model(build_rn(4))
        spine = [x for x in m.host.nodes if x.startswith("s")]
        for node in m.host.nodes:
            assert node.startswith("s") or node.startswith("h")
        for x, y in zip(spine, spine[1:]):
            assert distance(m.host, x, y) == 1

    def test_d_vertices_are_radius_zero_tips(self):
        for n in (3, 5):
            r = build_rn(n)
            m = build_exponential_rs_model(r)
            for i in range(1, n + 1):
                assert m.radii[r.d[i]] == 0
                assert m.host.degree(m.centers[r.d[i]]) == 1

    def test_frozen_layout_for_n3(self):
        r = build_rn(3)
        m = build_exponential_rs_model(r)
        assert len(m.host.nodes) == 21
        assert m.centers["d1"] == "h1_2"
        assert m.centers["d3"] == "h3_8"
        assert distance(m.host, m.centers["d1"], m.centers["d3"]) == 16
