"""Tests for leaf roots with exact lengths and the exact LP leaf-power certificate."""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from leafpower import (
    Graph,
    LeafRoot,
    Tree,
    build_feasibility_system,
    certify_leaf_power,
    dumps,
    leaf_power_graph,
    leafroot_from_json_obj,
    leafroot_to_dot,
    leafroot_to_json_obj,
    leafroot_to_rs,
    normalize_edge,
    pairwise_distances,
    scale_to_integer_leafroot,
    solve_feasibility,
    system_to_lp_text,
    topology_trees,
    tree_path,
    verify_leaf_root,
    weighted_leafroot_from_json_obj,
    weighted_leafroot_to_json_obj,
    witness_margin,
)
import leafpower.certify as certify_module
import leafpower.exactlp as exactlp_module
from leafpower.certify import FeasibilityResult

from conftest import complete_graph, cycle_graph, path_graph, random_trees

from test_exactlp import fm_feasible


STAR_HOST = Tree.build(
    ["i", "la", "lb", "lc"], [("i", "la"), ("i", "lb"), ("i", "lc")]
)
P3 = path_graph(["a", "b", "c"])
P3_PLACEMENT = {"a": "la", "b": "lb", "c": "lc"}
LEAVES = ("la", "lb", "lc", "ld")

DEMO_WEIGHTS = {
    ("i", "la"): Fraction(3, 5),
    ("i", "lb"): Fraction(2, 5),
    ("i", "lc"): Fraction(3, 5),
}



def witness_satisfies_system(
    system: certify_module.FeasibilitySystem, weights: dict, delta: Fraction
) -> bool:
    """Exact substitution of a candidate point into every row."""
    x = [Fraction(weights[e]) for e in system.edge_vars] + [Fraction(delta)]
    for _, coeffs, sense, rhs in system.rows:
        value = sum((c * v for c, v in zip(coeffs, x)), Fraction(0))
        if sense == exactlp_module.LE and value > rhs:
            return False
        if sense == exactlp_module.GE and value < rhs:
            return False
        if sense == exactlp_module.EQ and value != rhs:
            return False
    return True


def path_sum_distance(root: LeafRoot, x: str, y: str) -> Fraction:
    """The distance by climbing one host path and summing its lengths."""
    path = tree_path(root.host, x, y)
    return sum((root.lengths[normalize_edge(p, q)] for p, q in zip(path, path[1:])), Fraction(0))


def path_sum_verify(graph: Graph, root: LeafRoot) -> bool:
    """The threshold-1 check by one path sum per pair: adjacent exactly when at most 1."""
    where = root.placement
    return all(
        graph.adjacent(u, v) == (path_sum_distance(root, where[u], where[v]) <= 1)
        for u, v in itertools.combinations(graph.vertices, 2)
    )


# ---------------------------------------------------------------------------
# Leaf roots with exact lengths
# ---------------------------------------------------------------------------

class TestWeightedLeafRoot:
    def test_edge_keys_are_normalized(self):
        w = LeafRoot.build(
            STAR_HOST, 1, P3_PLACEMENT,
            {("la", "i"): Fraction(1), ("i", "lb"): Fraction(1),
             ("i", "lc"): Fraction(1)},
        )
        assert sorted(w.lengths) == [("i", "la"), ("i", "lb"), ("i", "lc")]

    def test_weights_must_cover_host_edges(self):
        with pytest.raises(ValueError, match="cover exactly the host edges"):
            LeafRoot.build(STAR_HOST, 1, P3_PLACEMENT, {("i", "la"): Fraction(1)})

    @pytest.mark.parametrize("first, second", [("i", "la"), ("la", "i")])
    def test_edge_listed_twice_is_refused(self, first, second):
        # Both keys normalize to one edge; keeping the last weight would hide the first.
        weights = {(first, second): Fraction(1), (second, first): Fraction(1, 3),
                   ("i", "lb"): Fraction(1), ("i", "lc"): Fraction(1)}
        with pytest.raises(ValueError, match=r"^edge \('i', 'la'\) is listed twice$"):
            LeafRoot.build(STAR_HOST, 1, P3_PLACEMENT, weights)

    def test_weights_must_be_positive(self):
        weights = dict(DEMO_WEIGHTS)
        weights[("i", "la")] = Fraction(0)
        with pytest.raises(ValueError, match="must be positive"):
            LeafRoot.build(STAR_HOST, 1, P3_PLACEMENT, weights)

    def test_placement_must_biject_onto_leaves(self):
        with pytest.raises(ValueError, match="placement must be injective"):
            LeafRoot.build(STAR_HOST, 1, {"a": "la", "b": "lb", "c": "la"}, DEMO_WEIGHTS)

    @pytest.mark.parametrize("value", [0.1, True, "1/3", Decimal("0.1"), None])
    def test_weights_must_be_exact_numbers(self, value):
        weights = {**DEMO_WEIGHTS, ("i", "lb"): value}
        with pytest.raises(
            ValueError, match=r"^weight of edge \('i', 'lb'\): .* is not an int or a Fraction$"
        ):
            LeafRoot.build(STAR_HOST, 1, P3_PLACEMENT, weights)

    def test_unit_root_has_no_lengths(self):
        assert LeafRoot.build(STAR_HOST, 2, P3_PLACEMENT).lengths is None

    def test_weighted_distance_sums_path_weights(self):
        w = LeafRoot.build(STAR_HOST, 1, P3_PLACEMENT, DEMO_WEIGHTS)
        dist = pairwise_distances(w.host, ("la", "lb", "lc", "i"), w.lengths)
        assert dist["la"]["lb"] == Fraction(1)
        assert dist["la"]["lc"] == Fraction(6, 5)
        assert dist["i"]["i"] == Fraction(0)

    def test_verify_respects_unit_threshold(self):
        good = LeafRoot.build(STAR_HOST, 1, P3_PLACEMENT, DEMO_WEIGHTS)
        assert verify_leaf_root(P3, good)
        # Shrinking every length pulls the separated pair inside the
        # threshold, so verification must fail.
        shrunk = LeafRoot.build(
            STAR_HOST, 1, P3_PLACEMENT, {e: Fraction(1, 4) for e in DEMO_WEIGHTS}
        )
        assert not verify_leaf_root(P3, shrunk)

    def test_verify_reads_lengths_against_k(self):
        # Doubling every length and the threshold keeps the graph.
        doubled = LeafRoot.build(
            STAR_HOST, 2, P3_PLACEMENT, {e: 2 * w for e, w in DEMO_WEIGHTS.items()}
        )
        assert verify_leaf_root(P3, doubled)
        assert leaf_power_graph(doubled) == P3

    def test_verify_agrees_with_path_sums_on_random_roots(self):
        # Weights from a few fractions that sum to exactly 1 in many ways, so
        # many pairs sit on the threshold; every graph one pair away from the
        # represented one must be refused by both checks.
        rng = random.Random(1313)
        weights_from = [Fraction(p, q) for p, q in ((1, 4), (1, 3), (1, 2), (2, 3), (3, 4))]
        at_one = 0
        for _ in range(60):
            host = rng.choice(list(topology_trees(rng.randint(2, 6), 3)))
            weights = {e: rng.choice(weights_from) for e in host.edges}
            names = [f"g{i}" for i in range(len(host.leaves()))]
            root = LeafRoot.build(host, 1, dict(zip(names, host.leaves())), weights)
            pairs = list(itertools.combinations(names, 2))
            where = root.placement
            dist = {(u, v): path_sum_distance(root, where[u], where[v]) for u, v in pairs}
            table = pairwise_distances(root.host, where.values(), root.lengths)
            assert dist == {(u, v): table[where[u]][where[v]] for u, v in pairs}
            at_one += sum(d == 1 for d in dist.values())
            edges = {p for p, d in dist.items() if d <= 1}
            graph = Graph.build(names, edges)
            assert verify_leaf_root(graph, root) and path_sum_verify(graph, root)
            for flipped in pairs:
                other = Graph.build(names, edges ^ {flipped})
                assert not verify_leaf_root(other, root)
                assert not path_sum_verify(other, root)
        assert at_one > 20


# ---------------------------------------------------------------------------
# Feasibility systems
# ---------------------------------------------------------------------------

class TestFeasibilitySystem:
    def test_variables_are_edge_weights_plus_margin(self):
        system = build_feasibility_system(P3, STAR_HOST, P3_PLACEMENT)
        assert system.variable_names == (
            "w_i_la", "w_i_lb", "w_i_lc", "delta",
        )

    def test_row_kinds(self):
        system = build_feasibility_system(P3, STAR_HOST, P3_PLACEMENT)
        names = [row[0] for row in system.rows]
        assert names == [
            "adj_a_b", "sep_a_c", "adj_b_c",
            "pos_i_la", "pos_i_lb", "pos_i_lc", "cap_delta",
        ]

    def test_row_names_are_distinct_when_vertex_names_hold_underscores(self):
        graph = path_graph(["a", "a_b", "b_c", "c"])
        host = Tree.build(
            ["i", "j", "la", "lb", "lc", "ld"],
            [("i", "j"), ("i", "la"), ("i", "lb"), ("j", "lc"), ("j", "ld")],
        )
        placement = {"a": "la", "a_b": "lb", "b_c": "lc", "c": "ld"}
        names = [row[0] for row in build_feasibility_system(graph, host, placement).rows]
        assert len(set(names)) == len(names)

    def test_names_fall_back_to_positions_when_a_name_is_not_plain(self):
        # Vertex "x y" would put a space in a row name, and the host edges
        # (a, b_c) and (a_b, c) would both have the weight w_a_b_c.
        graph = path_graph(["x y", "z", "u", "v"])
        host = Tree.build(
            ["a", "a_b", "b_c", "c", "x1", "x2"],
            [("a", "b_c"), ("a", "x1"), ("a", "a_b"), ("a_b", "c"), ("a_b", "x2")],
        )
        placement = {"x y": "b_c", "z": "x1", "u": "c", "v": "x2"}
        system = build_feasibility_system(graph, host, placement)
        assert [row[0] for row in system.rows] == [
            "adj_0_1", "sep_0_2", "sep_0_3", "adj_1_2", "sep_1_3", "adj_2_3",
            "pos_0", "pos_1", "pos_2", "pos_3", "pos_4", "cap_delta",
        ]
        assert system.variable_names == ("w_0", "w_1", "w_2", "w_3", "w_4", "delta")
        plain = build_feasibility_system(path_graph(["x", "z", "u", "v"]), host, {
            "x": "b_c", "z": "x1", "u": "c", "v": "x2",
        })
        assert [row[0] for row in plain.rows][:6] == [
            "adj_x_z", "sep_x_u", "sep_x_v", "adj_z_u", "sep_z_v", "adj_u_v",
        ]

    def test_rows_are_plain_ints(self):
        # The LP then runs at scale 1: coefficients 0 or +-1, rhs 0 or 1.
        system = build_feasibility_system(P3, STAR_HOST, P3_PLACEMENT)
        for _, coeffs, _, rhs in system.rows:
            assert all(type(c) is int and c in (-1, 0, 1) for c in coeffs)
            assert type(rhs) is int and rhs in (0, 1)

    def test_subdivided_host_rejected(self):
        long_host = Tree.build(
            ["i", "j", "la", "lb", "lc"],
            [("i", "j"), ("i", "la"), ("i", "lb"), ("j", "lc")],
        )
        with pytest.raises(ValueError, match="topology not in canonical form"):
            build_feasibility_system(P3, long_host, P3_PLACEMENT)

    def test_wrong_vertex_domain_rejected(self):
        with pytest.raises(ValueError, match="domain must equal the vertex set"):
            build_feasibility_system(
                Graph.build(["a", "b"], []), STAR_HOST, P3_PLACEMENT
            )

    def test_non_bijective_placement_rejected(self):
        with pytest.raises(ValueError, match="placement must be injective"):
            build_feasibility_system(
                P3, STAR_HOST, {"a": "la", "b": "lb", "c": "la"}
            )


class TestSolveFeasibility:
    def test_path_on_star_has_margin_one_third(self):
        system = build_feasibility_system(P3, STAR_HOST, P3_PLACEMENT)
        result = solve_feasibility(system)
        assert result.feasible
        assert result.delta == Fraction(1, 3)
        assert result.weights == {
            ("i", "la"): Fraction(2, 3),
            ("i", "lb"): Fraction(1, 3),
            ("i", "lc"): Fraction(2, 3),
        }
        assert witness_satisfies_system(system, result.weights, result.delta)

    def test_margin_is_optimal_by_independent_elimination(self):
        system = build_feasibility_system(P3, STAR_HOST, P3_PLACEMENT)
        result = solve_feasibility(system)
        plain_rows = [
            (list(coeffs), sense, rhs) for _, coeffs, sense, rhs in system.rows
        ]
        num_vars = len(system.variable_names)
        delta_row = [Fraction(0)] * num_vars
        delta_row[-1] = Fraction(1)
        reachable = plain_rows + [(delta_row, ">=", result.delta)]
        beyond = plain_rows + [
            (delta_row, ">=", result.delta + Fraction(1, 1000))
        ]
        assert fm_feasible(reachable, num_vars)
        assert not fm_feasible(beyond, num_vars)

    def test_four_cycle_on_star_is_margin_zero(self):
        c4 = cycle_graph(["a", "b", "c", "d"])
        host = Tree.build(
            ["i", "la", "lb", "lc", "ld"],
            [("i", "la"), ("i", "lb"), ("i", "lc"), ("i", "ld")],
        )
        placement = {"a": "la", "b": "lb", "c": "lc", "d": "ld"}
        result = solve_feasibility(build_feasibility_system(c4, host, placement))
        assert not result.feasible
        assert result.delta == 0
        assert result.weights is None

    @pytest.mark.parametrize("graph", [P3, cycle_graph(["a", "b", "c", "d"])])
    def test_corrupted_dual_is_caught_by_the_certificate_check(self, graph, monkeypatch):
        # P3 has margin 1/3 on the star; C4 has margin 0, a negative verdict.
        host = Tree.build(["i", *LEAVES[: graph.n]], [("i", leaf) for leaf in LEAVES[: graph.n]])
        placement = dict(zip(graph.vertices, LEAVES))
        solve = exactlp_module.maximize

        def negated_dual(objective, rows):
            solution = solve(objective, rows)
            return dataclasses.replace(solution, dual=tuple(-y for y in solution.dual))

        monkeypatch.setattr(exactlp_module, "maximize", negated_dual)
        system = build_feasibility_system(graph, host, placement)
        with pytest.raises(RuntimeError, match="certificate invalid: dual of row"):
            solve_feasibility(system)

    def test_suboptimal_demo_witness_still_satisfies(self):
        system = build_feasibility_system(P3, STAR_HOST, P3_PLACEMENT)
        assert witness_satisfies_system(system, DEMO_WEIGHTS, Fraction(1, 5))
        assert not witness_satisfies_system(system, DEMO_WEIGHTS, Fraction(1, 2))


# ---------------------------------------------------------------------------
# The end-to-end certificate
# ---------------------------------------------------------------------------

class TestCertifyLeafPower:
    def test_path_is_certified(self):
        res = certify_leaf_power(P3, 2)
        assert res is not None
        assert res.k == 1
        assert witness_margin(res) == Fraction(1, 3)
        assert verify_leaf_root(P3, res)

    def test_complete_graphs_certified_with_half_weights(self):
        for n in (3, 4, 5):
            g = complete_graph([f"v{i}" for i in range(n)])
            res = certify_leaf_power(g, 1)
            assert res is not None
            assert witness_margin(res) == Fraction(1, 2)
            assert set(res.lengths.values()) == {Fraction(1, 2)}

    def test_single_edge_certified_with_margin_one(self):
        res = certify_leaf_power(path_graph(["a", "b"]), 1)
        assert res is not None
        assert witness_margin(res) == Fraction(1)

    def test_two_isolated_vertices_certified(self):
        res = certify_leaf_power(Graph.build(["a", "b"], []), 1)
        assert res is not None
        assert verify_leaf_root(Graph.build(["a", "b"], []), res)

    def test_cycles_are_never_certified(self):
        assert certify_leaf_power(cycle_graph(["a", "b", "c", "d"]), 3) is None
        assert certify_leaf_power(
            cycle_graph(["a", "b", "c", "d", "e"]), 3
        ) is None

    def test_wrong_lp_point_is_caught_by_the_recheck(self, monkeypatch):
        # Unit weights put every pair of leaves at distance 2, so P3's edges fail.
        def wrong_point(system):
            weights = {e: Fraction(1) for e in system.edge_vars}
            return FeasibilityResult(feasible=True, delta=Fraction(1, 3), weights=weights)

        monkeypatch.setattr(certify_module, "solve_feasibility", wrong_point)
        with pytest.raises(RuntimeError, match="certificate invalid"):
            certify_leaf_power(P3, 2)

    def test_witness_margin_is_the_lp_optimum(self, small_atlas_graphs):
        # The margin is no longer stored: on every certified graph with at
        # most five vertices, the one derived from the lengths must be the
        # optimal delta of the LP that produced them.
        certified = 0
        for g in small_atlas_graphs:
            root = certify_leaf_power(g, 3)
            if root is None:
                continue
            result = solve_feasibility(build_feasibility_system(g, root.host, root.placement))
            assert result.weights == root.lengths
            assert result.delta == witness_margin(root), (g.vertices, g.edges)
            certified += 1
        assert certified == 44

    def test_full_bound_certifies_exactly_the_chordal_graphs(self, small_atlas_graphs):
        """At ``max_internal = max(1, |V| - 2)`` the search covers every
        topology with |V| leaves and no degree-2 node, and every LP verdict
        behind a "no" carries a checked dual or Farkas certificate.  So "no"
        is sound there: no leaf root with exact lengths exists.  On at most
        five vertices the leaf powers are the chordal graphs (the smallest
        chordal graph that is no leaf power is a sun, on six vertices), so the
        44 "yes" answers must be exactly the chordal ones, checked by
        networkx.  Each witness reads back from its JSON with its margin."""
        chordal, certified = set(), set()
        for g in small_atlas_graphs:
            nx_graph = nx.Graph(g.edges)
            nx_graph.add_nodes_from(g.vertices)
            if nx.is_chordal(nx_graph):
                chordal.add(g)
            root = certify_leaf_power(g, max(1, g.n - 2))
            if root is None:
                continue
            certified.add(g)
            back = weighted_leafroot_from_json_obj(
                json.loads(dumps(weighted_leafroot_to_json_obj(root))))
            assert verify_leaf_root(g, back)
            assert witness_margin(back) == witness_margin(root) > 0
        assert len(small_atlas_graphs) == 52
        assert len(chordal) == 44
        assert certified == chordal

    def test_pivot_total_of_the_benchmark_cases(self, monkeypatch):
        # perfbench's certify round: P4, P5 and K4 ("yes") and C4 and C5
        # ("no") at its --max-internal 2, 3, 1, 3 and 3, 217 LPs in all.
        # Every pos row (w - delta >= 0) starts the basis on its slack, and
        # the round takes 2 241 pivots, summed from Solution.pivots; with an
        # artificial column for each of those rows it took 4 925.
        solve = exactlp_module.maximize
        solutions = []

        def recorded(objective, rows):
            solutions.append(solve(objective, rows))
            return solutions[-1]

        monkeypatch.setattr(exactlp_module, "maximize", recorded)
        names = [f"v{i}" for i in range(5)]
        for graph, max_internal, yes in [
            (path_graph(names[:4]), 2, True),
            (path_graph(names), 3, True),
            (complete_graph(names[:4]), 1, True),
            (cycle_graph(names[:4]), 3, False),
            (cycle_graph(names), 3, False),
        ]:
            assert (certify_leaf_power(graph, max_internal) is not None) == yes
        assert len(solutions) == 217
        assert sum(s.pivots for s in solutions) == 2241

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="max_internal must be at least 1"):
            certify_leaf_power(P3, 0)
        with pytest.raises(ValueError, match="at least one vertex"):
            certify_leaf_power(Graph.build([], []), 1)


# ---------------------------------------------------------------------------
# Scaling a root with exact lengths to integer lengths
# ---------------------------------------------------------------------------

class TestScaleToInteger:
    def test_demo_witness_scales_to_k_five(self):
        w = LeafRoot.build(STAR_HOST, 1, P3_PLACEMENT, DEMO_WEIGHTS)
        root = scale_to_integer_leafroot(w)
        assert root.k == 5
        assert root.host == STAR_HOST
        assert root.lengths == {("i", "la"): 3, ("i", "lb"): 2, ("i", "lc"): 3}
        assert {type(x) for x in root.lengths.values()} == {int}
        assert verify_leaf_root(P3, root)
        assert path_sum_distance(root, root.placement["a"], root.placement["b"]) == 5
        assert path_sum_distance(root, root.placement["a"], root.placement["c"]) == 6

    def test_certified_path_scales_to_k_three(self):
        res = certify_leaf_power(P3, 2)
        root = scale_to_integer_leafroot(res)
        assert root.k == 3
        assert verify_leaf_root(P3, root)

    def test_threshold_scales_with_the_lengths(self):
        # Lengths 6/5, 4/5, 6/5 at k = 2: L = 5, so the scaled k is 10.
        w = LeafRoot.build(STAR_HOST, 2, P3_PLACEMENT, {e: 2 * x for e, x in DEMO_WEIGHTS.items()})
        root = scale_to_integer_leafroot(w)
        assert root.k == 10 and root.host == STAR_HOST
        assert root.lengths == {("i", "la"): 6, ("i", "lb"): 4, ("i", "lc"): 6}
        assert verify_leaf_root(P3, root)

    def test_unit_root_comes_back_unchanged(self):
        unit = LeafRoot.build(STAR_HOST, 2, P3_PLACEMENT)
        assert scale_to_integer_leafroot(unit) == unit

    def test_scaled_root_is_rechecked(self, monkeypatch):
        w = LeafRoot.build(STAR_HOST, 1, P3_PLACEMENT, DEMO_WEIGHTS)
        real = certify_module.leaf_power_graph

        def edgeless_when_scaled(root):
            graph = real(root)
            return graph if root.k == 1 else Graph.build(graph.vertices, [])

        monkeypatch.setattr(certify_module, "leaf_power_graph", edgeless_when_scaled)
        with pytest.raises(RuntimeError, match="^construction invalid: "):
            scale_to_integer_leafroot(w)

    def test_subdivision_names_avoid_host_names(self):
        # The inner edge (i, la) scales to length 3.  The writer names its
        # subdivision nodes i~la~1, i~la~2 from i, the first prefixed past the
        # host node of that name.
        host = Tree.build(
            ["i", "la", "lb", "lc", "ld", "i~la~1"],
            [("i", "la"), ("i", "lb"), ("i", "i~la~1"), ("la", "lc"), ("la", "ld")],
        )
        weights = {**dict.fromkeys(host.edges, Fraction(1, 4)), ("i", "la"): Fraction(3, 4)}
        placement = {"a": "lb", "b": "lc", "c": "ld", "d": "i~la~1"}
        w = LeafRoot.build(host, 1, placement, weights)
        root = scale_to_integer_leafroot(w)
        assert root.host == host
        assert root.lengths == {**dict.fromkeys(host.edges, 1), ("i", "la"): 3}
        assert root.placement == placement
        assert root.k == 4
        tree = leafroot_to_json_obj(root)["tree"]
        assert tree["nodes"] == ["_i~la~1", "i", "i~la~1", "i~la~2", "la", "lb", "lc", "ld"]
        assert tree["edges"] == [
            ["_i~la~1", "i"], ["_i~la~1", "i~la~2"], ["i", "i~la~1"], ["i", "lb"],
            ["i~la~2", "la"], ["la", "lc"], ["la", "ld"],
        ]

    def test_random_witnesses_scale_and_verify(self):
        # Witness-first generation: draw a topology and weights whose
        # denominators divide 12, derive the graph from the weighted metric,
        # then scaling must verify against that graph.
        rng = random.Random(2024)
        denominators = (1, 2, 3, 4, 6, 12)
        done = 0
        while done < 20:
            num_leaves = rng.randint(2, 5)
            shapes = list(topology_trees(num_leaves, 3))
            host = rng.choice(shapes)
            leaves = host.leaves()
            weights = {
                e: Fraction(rng.randint(1, 18), rng.choice(denominators))
                for e in host.edges
            }
            names = [f"g{i}" for i in range(len(leaves))]
            placement = dict(zip(names, leaves))
            witness = LeafRoot.build(host, 1, placement, weights)
            pair_dist = {
                (u, v): path_sum_distance(witness, placement[u], placement[v])
                for u, v in itertools.combinations(names, 2)
            }
            graph = Graph.build(names, [p for p, d in pair_dist.items() if d <= 1])
            assert verify_leaf_root(graph, witness)
            root = scale_to_integer_leafroot(witness)
            assert root.k <= 12
            assert verify_leaf_root(graph, root)
            done += 1


# ---------------------------------------------------------------------------
# Text and JSON output
# ---------------------------------------------------------------------------

class TestCertifySerialization:
    def test_lp_text_format(self):
        system = build_feasibility_system(P3, STAR_HOST, P3_PLACEMENT)
        text = system_to_lp_text(system)
        lines = text.splitlines()
        assert lines[0] == "Maximize"
        assert "obj: delta" in text
        assert "Subject To" in text
        assert "adj_a_b" in text and "sep_a_c" in text
        assert lines[-1] == "End"

    def test_weighted_leafroot_json_round_trip(self):
        w = LeafRoot.build(STAR_HOST, 1, P3_PLACEMENT, DEMO_WEIGHTS)
        text = dumps(weighted_leafroot_to_json_obj(w))
        assert weighted_leafroot_from_json_obj(json.loads(text)) == w

    @pytest.mark.parametrize(
        "key, value, field",
        [
            ("margin", {"num": "1", "den": "0"}, "margin"),
            ("margin", {"num": 1, "den": "5"}, "margin.num"),
            ("weights", [{"edge": "ila", "num": "1", "den": "2"}], "weights[0].edge"),
            ("placement", [["a", "la"]], "placement"),
        ],
    )
    def test_malformed_witness_json_names_the_field(self, key, value, field):
        w = LeafRoot.build(STAR_HOST, 1, P3_PLACEMENT, DEMO_WEIGHTS)
        payload = {**weighted_leafroot_to_json_obj(w), key: value}
        with pytest.raises(ValueError, match=re.escape(field)):
            weighted_leafroot_from_json_obj(payload)

    @pytest.mark.parametrize("margin", [5, -1])
    def test_margin_other_than_the_derived_one_is_refused(self, margin):
        payload = weighted_leafroot_to_json_obj(certify_leaf_power(P3, 2))
        assert payload["margin"] == {"num": "1", "den": "3"}
        payload["margin"] = {"num": str(margin), "den": "1"}
        with pytest.raises(ValueError, match=rf"^margin is {margin}, but the weights give 1/3$"):
            weighted_leafroot_from_json_obj(payload)

    def test_margin_is_optional(self):
        w = certify_leaf_power(P3, 2)
        payload = weighted_leafroot_to_json_obj(w)
        del payload["margin"]
        assert weighted_leafroot_from_json_obj(payload) == w

    def test_unit_root_is_written_at_threshold_one(self):
        unit = LeafRoot.build(STAR_HOST, 2, P3_PLACEMENT)
        read = weighted_leafroot_from_json_obj(weighted_leafroot_to_json_obj(unit))
        assert read.k == 1 and set(read.lengths.values()) == {Fraction(1, 2)}
        assert leaf_power_graph(read) == leaf_power_graph(unit)

    def test_edge_listed_twice_in_json_is_refused(self):
        w = LeafRoot.build(STAR_HOST, 1, P3_PLACEMENT, DEMO_WEIGHTS)
        payload = weighted_leafroot_to_json_obj(w)
        payload["weights"].append({"edge": ["i", "la"], "num": "1", "den": "3"})
        with pytest.raises(ValueError, match=r"^edge \('i', 'la'\) is listed twice$"):
            weighted_leafroot_from_json_obj(payload)

    def test_fractions_serialized_as_num_den_strings(self):
        w = LeafRoot.build(STAR_HOST, 1, P3_PLACEMENT, DEMO_WEIGHTS)
        payload = json.loads(dumps(weighted_leafroot_to_json_obj(w)))
        assert payload["margin"] == {"num": "1", "den": "5"}
        weight_entries = {tuple(e["edge"]): e for e in payload["weights"]}
        assert weight_entries[("i", "la")]["num"] == "3"
        assert weight_entries[("i", "la")]["den"] == "5"


@pytest.mark.parametrize("write", [leafroot_to_json_obj, leafroot_to_dot, leafroot_to_rs])
def test_unit_edge_consumers_refuse_a_root_with_lengths(write):
    # Written as a unit-edge root, the certified P3 witness would claim k = 1
    # on unit edges, where every pair is 2 apart: a root of the edgeless graph.
    witness = certify_leaf_power(P3, 2)
    assert {type(w) for w in witness.lengths.values()} == {Fraction}
    with pytest.raises(ValueError, match="scale_to_integer_leafroot"):
        write(witness)
    write(scale_to_integer_leafroot(witness))
    # A whole-valued Fraction is refused too: only int lengths are expanded.
    whole = LeafRoot.build(STAR_HOST, 2, P3_PLACEMENT, dict.fromkeys(STAR_HOST.edges, Fraction(1)))
    with pytest.raises(ValueError, match="scale_to_integer_leafroot"):
        write(whole)
    # An int length above 1 on an inner edge (i, j) is written through i~j~1, as
    # the unit root with that node would be.
    host = Tree.build(
        ["i", "j", "la", "lb", "lc"], [("i", "j"), ("i", "la"), ("i", "lb"), ("j", "lc")]
    )
    inner = {("i", "j"): 2, ("i", "la"): 1, ("i", "lb"): 1, ("j", "lc"): 1}
    unit = Tree.build(
        ["i", "i~j~1", "j", "la", "lb", "lc"],
        [("i", "i~j~1"), ("i~j~1", "j"), ("i", "la"), ("i", "lb"), ("j", "lc")],
    )
    expected = write(LeafRoot.build(unit, 4, P3_PLACEMENT))
    assert write(LeafRoot.build(host, 4, P3_PLACEMENT, inner)) == expected
    write(LeafRoot.build(host, 4, P3_PLACEMENT, {**inner, ("i", "j"): 1, ("j", "lc"): 2}))


@st.composite
def integer_roots(draw) -> LeafRoot:
    """A random host with int lengths 1..4 and a placement on its leaves."""
    host = draw(random_trees(1, 8))
    lengths = {e: draw(st.integers(1, 4)) for e in host.edges}
    leaves = draw(st.permutations(host.leaves()))
    placement = {f"v{i}": leaf for i, leaf in enumerate(leaves)}
    return LeafRoot.build(host, draw(st.integers(1, 12)), placement, lengths)


def dot_nodes_and_edges(text: str) -> tuple[list[str], list[list[str]]]:
    """The node statements and edge statements of a DOT graph, by name, in order."""
    lines = text.splitlines()[2:-1]
    edges = [re.findall(r'"([^"]*)"', line) for line in lines if " -- " in line]
    nodes = [re.match(r'  "([^"]*)"', line)[1] for line in lines if " -- " not in line]
    return nodes, edges


@given(integer_roots())
def test_unit_writers_agree_on_a_root_with_int_lengths(root):
    obj = leafroot_to_json_obj(root)
    back = leafroot_from_json_obj(json.loads(dumps(obj)))
    assert back.lengths is None and back.k == root.k and back.placement == root.placement
    leaves = list(root.placement.values())
    assert pairwise_distances(back.host, leaves) == pairwise_distances(
        root.host, leaves, root.lengths
    )
    assert dot_nodes_and_edges(leafroot_to_dot(root)) == (
        obj["tree"]["nodes"], obj["tree"]["edges"]
    )
    model, read_model = leafroot_to_rs(root), leafroot_to_rs(back)
    assert model.graph == read_model.graph == leaf_power_graph(root)
    assert model.radii == read_model.radii


@st.composite
def fractional_roots(draw) -> LeafRoot:
    """A random host with Fraction lengths in [1/6, 4], denominators up to 6, k 1..3."""
    host = draw(random_trees(1, 8))
    length = st.fractions(Fraction(1, 6), 4, max_denominator=6)
    lengths = {e: draw(length) for e in host.edges}
    placement = {f"v{i}": leaf for i, leaf in enumerate(host.leaves())}
    return LeafRoot.build(host, draw(st.integers(1, 3)), placement, lengths)


@given(fractional_roots())
def test_scaling_multiplies_every_leaf_distance_by_the_denominator(root):
    scaled = scale_to_integer_leafroot(root)
    lcd = math.lcm(*(w.denominator for w in root.lengths.values()))
    assert scaled.host == root.host and scaled.placement == root.placement
    assert scaled.k == root.k * lcd
    assert {type(w) for w in scaled.lengths.values()} <= {int}
    leaves = list(root.placement.values())
    before = pairwise_distances(root.host, leaves, root.lengths)
    after = pairwise_distances(root.host, leaves, scaled.lengths)
    assert after == {a: {b: d * lcd for b, d in row.items()} for a, row in before.items()}
