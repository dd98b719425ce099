"""Tests for weighted leaf roots and the exact LP leaf-power certificate."""
from __future__ import annotations

import dataclasses
import itertools
import json
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from leafpower import (
    Graph,
    Tree,
    WeightedLeafRoot,
    build_feasibility_system,
    certify_leaf_power,
    distance,
    dumps,
    leaf_power_graph,
    scale_to_integer_leafroot,
    solve_feasibility,
    system_to_lp_text,
    topology_trees,
    verify_leaf_root,
    verify_weighted_leafroot,
    weighted_distance,
    weighted_leafroot_from_json_obj,
    weighted_leafroot_to_json_obj,
)
import leafpower.certify as certify_module
import leafpower.exactlp as exactlp_module
from leafpower.certify import FeasibilityResult

from conftest import complete_graph, cycle_graph, path_graph

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


# ---------------------------------------------------------------------------
# Weighted leaf roots
# ---------------------------------------------------------------------------

class TestWeightedLeafRoot:
    def test_edge_keys_are_normalized(self):
        w = WeightedLeafRoot.build(
            STAR_HOST,
            {("la", "i"): Fraction(1), ("i", "lb"): Fraction(1),
             ("i", "lc"): Fraction(1)},
            P3_PLACEMENT,
        )
        assert sorted(w.weights) == [("i", "la"), ("i", "lb"), ("i", "lc")]

    def test_weights_must_cover_host_edges(self):
        with pytest.raises(ValueError, match="cover exactly the host edges"):
            WeightedLeafRoot.build(
                STAR_HOST, {("i", "la"): Fraction(1)}, P3_PLACEMENT
            )

    def test_weights_must_be_positive(self):
        weights = dict(DEMO_WEIGHTS)
        weights[("i", "la")] = Fraction(0)
        with pytest.raises(ValueError, match="must be positive"):
            WeightedLeafRoot.build(STAR_HOST, weights, P3_PLACEMENT)

    def test_placement_must_biject_onto_leaves(self):
        with pytest.raises(ValueError, match="placement must be injective"):
            WeightedLeafRoot.build(
                STAR_HOST, DEMO_WEIGHTS, {"a": "la", "b": "lb", "c": "la"}
            )

    @pytest.mark.parametrize("value", [0.1, True, "1/3", Decimal("0.1"), None])
    def test_weights_must_be_exact_numbers(self, value):
        weights = {**DEMO_WEIGHTS, ("i", "lb"): value}
        with pytest.raises(
            ValueError, match=r"^weight of edge \('i', 'lb'\): .* is not an int or a Fraction$"
        ):
            WeightedLeafRoot.build(STAR_HOST, weights, P3_PLACEMENT)

    @pytest.mark.parametrize("value", [0.1, True, "1/3", Decimal("0.1")])
    def test_margin_must_be_an_exact_number(self, value):
        with pytest.raises(ValueError, match=r"^margin: .* is not an int or a Fraction$"):
            WeightedLeafRoot.build(STAR_HOST, DEMO_WEIGHTS, P3_PLACEMENT, value)

    def test_weighted_distance_sums_path_weights(self):
        w = WeightedLeafRoot.build(
            STAR_HOST, DEMO_WEIGHTS, P3_PLACEMENT, Fraction(1, 5)
        )
        assert weighted_distance(w, "la", "lb") == Fraction(1)
        assert weighted_distance(w, "la", "lc") == Fraction(6, 5)
        assert weighted_distance(w, "i", "i") == Fraction(0)

    def test_verify_respects_unit_threshold(self):
        good = WeightedLeafRoot.build(STAR_HOST, DEMO_WEIGHTS, P3_PLACEMENT)
        assert verify_weighted_leafroot(P3, good)
        # Shrinking every weight pulls the separated pair inside the
        # threshold, so verification must fail.
        shrunk = WeightedLeafRoot.build(
            STAR_HOST,
            {e: Fraction(1, 4) for e in DEMO_WEIGHTS},
            P3_PLACEMENT,
        )
        assert not verify_weighted_leafroot(P3, shrunk)


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
        assert res.margin == Fraction(1, 3)
        assert verify_weighted_leafroot(P3, res)

    def test_complete_graphs_certified_with_half_weights(self):
        for n in (3, 4, 5):
            g = complete_graph([f"v{i}" for i in range(n)])
            res = certify_leaf_power(g, 1)
            assert res is not None
            assert res.margin == Fraction(1, 2)
            assert set(res.weights.values()) == {Fraction(1, 2)}

    def test_single_edge_certified_with_margin_one(self):
        res = certify_leaf_power(path_graph(["a", "b"]), 1)
        assert res is not None
        assert res.margin == Fraction(1)

    def test_two_isolated_vertices_certified(self):
        res = certify_leaf_power(Graph.build(["a", "b"], []), 1)
        assert res is not None
        assert verify_weighted_leafroot(Graph.build(["a", "b"], []), res)

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

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="max_internal must be at least 1"):
            certify_leaf_power(P3, 0)
        with pytest.raises(ValueError, match="at least one vertex"):
            certify_leaf_power(Graph.build([], []), 1)


# ---------------------------------------------------------------------------
# Scaling a strict witness to an integer leaf root
# ---------------------------------------------------------------------------

class TestScaleToInteger:
    def test_demo_witness_scales_to_k_five(self):
        w = WeightedLeafRoot.build(
            STAR_HOST, DEMO_WEIGHTS, P3_PLACEMENT, Fraction(1, 5)
        )
        root = scale_to_integer_leafroot(w)
        assert root.k == 5
        assert verify_leaf_root(P3, root)
        assert distance(root.host, root.placement["a"], root.placement["b"]) == 5
        assert distance(root.host, root.placement["a"], root.placement["c"]) == 6

    def test_certified_path_scales_to_k_three(self):
        res = certify_leaf_power(P3, 2)
        root = scale_to_integer_leafroot(res)
        assert root.k == 3
        assert verify_leaf_root(P3, root)

    def test_margin_free_witness_rejected(self):
        w = WeightedLeafRoot.build(
            STAR_HOST, {e: Fraction(1) for e in DEMO_WEIGHTS}, P3_PLACEMENT
        )
        with pytest.raises(ValueError, match="witness not strictly feasible"):
            scale_to_integer_leafroot(w)

    def test_subdivision_names_avoid_host_names(self):
        host = Tree.build(
            ["i", "la", "lb", "i~la~1"], [("i", "la"), ("i", "lb"), ("i", "i~la~1")]
        )
        weights = {
            ("i", "la"): Fraction(1, 2),
            ("i", "lb"): Fraction(1, 4),
            ("i", "i~la~1"): Fraction(1, 4),
        }
        placement = {"a": "la", "b": "lb", "c": "i~la~1"}
        w = WeightedLeafRoot.build(host, weights, placement, Fraction(1, 4))
        root = scale_to_integer_leafroot(w)
        assert root.host.nodes == ("i", "la", "lb", "i~la~1", "_i~la~1")
        assert root.host.edges == (
            ("_i~la~1", "i"), ("_i~la~1", "la"), ("i", "i~la~1"), ("i", "lb"),
        )
        assert root.placement == placement
        assert root.k == 4

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
            bare = WeightedLeafRoot.build(host, weights, placement)
            pair_dist = {
                (u, v): weighted_distance(bare, placement[u], placement[v])
                for u, v in itertools.combinations(names, 2)
            }
            edges = [p for p, d in pair_dist.items() if d <= 1]
            graph = Graph.build(names, edges)
            separations = [d - 1 for d in pair_dist.values() if d > 1]
            margin = min([Fraction(1), min(weights.values()), *separations])
            witness = WeightedLeafRoot.build(host, weights, placement, margin)
            assert verify_weighted_leafroot(graph, witness)
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
        w = WeightedLeafRoot.build(
            STAR_HOST, DEMO_WEIGHTS, P3_PLACEMENT, Fraction(1, 5)
        )
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
        w = WeightedLeafRoot.build(
            STAR_HOST, DEMO_WEIGHTS, P3_PLACEMENT, Fraction(1, 5)
        )
        payload = {**weighted_leafroot_to_json_obj(w), key: value}
        with pytest.raises(ValueError, match=re.escape(field)):
            weighted_leafroot_from_json_obj(payload)

    def test_fractions_serialized_as_num_den_strings(self):
        w = WeightedLeafRoot.build(
            STAR_HOST, DEMO_WEIGHTS, P3_PLACEMENT, Fraction(1, 5)
        )
        payload = json.loads(dumps(weighted_leafroot_to_json_obj(w)))
        assert payload["margin"] == {"num": "1", "den": "5"}
        weight_entries = {tuple(e["edge"]): e for e in payload["weights"]}
        assert weight_entries[("i", "la")]["num"] == "3"
        assert weight_entries[("i", "la")]["den"] == "5"
