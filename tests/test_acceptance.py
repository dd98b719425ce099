"""Acceptance criteria for the package, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Each test enforces both the behavioral claim and its time budget.
"""
from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from leafpower import (
    Graph,
    LeafRoot,
    brute_force_leaf_rank,
    build_exponential_rs_model,
    build_rdp_model,
    build_rn,
    certify_leaf_power,
    check_path_cover,
    clique_tree_model,
    cover,
    is_chordal,
    is_cluster_graph,
    is_rooted_directed_path_model,
    is_separator,
    leaf_power_graph,
    leafroot_to_rs,
    lower_bound_certificate,
    maximal_cliques,
    pairwise_distances,
    rs_to_leafroot,
    scale_to_integer_leafroot,
    solve_feasibility,
    build_feasibility_system,
    topology_trees,
    verify_leaf_root,
    witness_margin,
    RDP_ROOT,
    rs_model_violations,
    subtree_model_violations,
)

from conftest import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_ball_model,
    random_tree_rng,
)

from test_models import graph_path, graph_reachable


def test_criterion_1_family_structure_n3_to_n10_under_1s(atlas_graphs):
    started = time.monotonic()
    for n in range(3, 11):
        r = build_rn(n)
        assert r.graph.n == 4 * n
        assert is_chordal(r.graph)
        cliques = set(maximal_cliques(r.graph))
        assert len(cliques) == 2 * n - 1
        assert cliques == {frozenset(s) for s in r.expected_clique_sets()}
        for i in range(1, n + 1):
            assert not is_separator(r.graph, r.clique(i))
        for i in range(1, n):
            assert is_separator(r.graph, r.prime_clique(i))
    assert time.monotonic() - started < 1.0


def test_criterion_2_rooted_path_models_n3_to_n10_under_1s():
    started = time.monotonic()
    for n in range(3, 11):
        r = build_rn(n)
        m = build_rdp_model(r)
        assert subtree_model_violations(m) == []
        assert is_rooted_directed_path_model(m, RDP_ROOT)
        for i in range(1, n + 1):
            assert cover(m, f"y{i}") == r.clique(i)
        for i in range(1, n):
            assert cover(m, f"x{i}") == r.prime_clique(i)
    assert time.monotonic() - started < 1.0


def test_criterion_3_hundred_random_root_conversions_under_30s():
    started = time.monotonic()
    rng = random.Random(31337)
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
        model = leafroot_to_rs(root)
        assert model.graph == graph
        assert rs_model_violations(model) == []
        assert max(model.radii.values()) == k
        back = rs_to_leafroot(model)
        assert back.k == 2 * k + 2
        assert verify_leaf_root(graph, back)
        done += 1
    assert time.monotonic() - started < 30.0


def test_criterion_4_lower_bound_audits_n3_to_n8_under_1min():
    started = time.monotonic()
    for n in range(3, 9):
        r = build_rn(n)
        m = build_exponential_rs_model(r)
        report = lower_bound_certificate(r, m)
        assert report.holds, report.failed
        assert report.failed == ()
        assert all(report.checks.values())
        assert report.lower_bound == 2 ** (n - 2)
        assert report.dist_m2_mn == 2 ** (n + 1) - 4
    assert time.monotonic() - started < 60.0


def test_criterion_5_rank_sandwich_with_integer_witness_under_2min():
    started = time.monotonic()
    for n in range(3, 9):
        r = build_rn(n)
        m = build_exponential_rs_model(r)
        report = lower_bound_certificate(r, m)
        assert report.holds
        assert report.lower_bound == 2 ** (n - 2)
        assert report.upper_bound == 2 ** (n + 1)
        assert report.lower_bound <= report.upper_bound
        # The upper half of the sandwich is realized by an explicit integer
        # leaf root obtained from the audited model itself.
        root = rs_to_leafroot(m)
        assert root.k == report.upper_bound
        assert verify_leaf_root(r.graph, root)
    assert time.monotonic() - started < 120.0


def test_criterion_6_brute_force_agrees_with_certificates_under_5min(
    atlas_graphs,
):
    started = time.monotonic()

    # Spot values for the smallest graphs.
    assert brute_force_leaf_rank(Graph.build(["a"], []), 4) == 1
    assert brute_force_leaf_rank(Graph.build(["a", "b"], []), 6) == 1
    assert brute_force_leaf_rank(path_graph(["a", "b"]), 4) == 1
    assert brute_force_leaf_rank(complete_graph(["a", "b", "c"]), 6) == 2
    assert brute_force_leaf_rank(path_graph(["a", "b", "c"]), 8) == 3
    assert brute_force_leaf_rank(
        Graph.build(["a", "b", "c", "d"], [("a", "b"), ("c", "d")]), 8
    ) == 2

    # The exhaustive search and the LP certificate agree on every connected
    # graph with at most four vertices.
    connected_small = [
        g
        for g in atlas_graphs
        if g.n <= 4
        and all(graph_reachable(g, g.vertices[0], v) for v in g.vertices)
    ]
    assert len(connected_small) == 10
    for g in connected_small:
        rank = brute_force_leaf_rank(g, 8)
        witness = certify_leaf_power(g, 2)
        assert (rank is not None) == (witness is not None), (
            g.vertices, g.edges,
        )
        if witness is not None:
            assert verify_leaf_root(g, witness)
            scaled = scale_to_integer_leafroot(witness)
            assert verify_leaf_root(g, scaled)
            assert rank <= scaled.k

    # Rank at most two coincides with being a disjoint union of cliques, over
    # every graph with at most five vertices.
    for g in atlas_graphs:
        if g.n > 5:
            continue
        rank = brute_force_leaf_rank(g, 10, max_k=2)
        assert (rank is not None) == is_cluster_graph(g), (g.vertices, g.edges)

    assert time.monotonic() - started < 300.0


def test_criterion_7_exact_lp_certificates_and_scaling_under_2min():
    started = time.monotonic()

    # Exact margins on the canonical feasible cases.
    p3 = path_graph(["a", "b", "c"])
    witness = certify_leaf_power(p3, 2)
    assert witness is not None and witness_margin(witness) == Fraction(1, 3)
    for n in (2, 3, 4, 5):
        g = complete_graph([f"v{i}" for i in range(n)])
        w = certify_leaf_power(g, 1)
        assert w is not None
        assert witness_margin(w) >= Fraction(1, 2)

    # Short cycles admit no certificate on any topology within the bound:
    # the solver reports margin zero or outright infeasibility every time.
    for cycle in (
        cycle_graph(["a", "b", "c", "d"]),
        cycle_graph(["a", "b", "c", "d", "e"]),
    ):
        assert certify_leaf_power(cycle, 3) is None
        names = list(cycle.vertices)
        for host in topology_trees(len(names), 3):
            leaves = host.leaves()
            for perm in itertools.permutations(leaves):
                placement = dict(zip(names, perm))
                result = solve_feasibility(
                    build_feasibility_system(cycle, host, placement)
                )
                assert not result.feasible

    # Fifty random roots with exact lengths scale to verifying unit-edge roots.
    rng = random.Random(777)
    denominators = (1, 2, 3, 4, 6, 12)
    done = 0
    while done < 50:
        num_leaves = rng.randint(2, 5)
        host = rng.choice(list(topology_trees(num_leaves, 3)))
        leaves = host.leaves()
        weights = {
            e: Fraction(rng.randint(1, 18), rng.choice(denominators))
            for e in host.edges
        }
        names = [f"g{i}" for i in range(len(leaves))]
        placement = dict(zip(names, leaves))
        strict = LeafRoot.build(host, 1, placement, weights)
        dist = pairwise_distances(host, leaves, weights)
        graph = Graph.build(
            names,
            [(u, v) for u, v in itertools.combinations(names, 2)
             if dist[placement[u]][placement[v]] <= 1],
        )
        assert verify_leaf_root(graph, strict)
        scaled = scale_to_integer_leafroot(strict)
        assert scaled.k <= 12
        assert verify_leaf_root(graph, scaled)
        done += 1

    assert time.monotonic() - started < 120.0


def test_criterion_8_path_cover_on_hundred_clique_tree_models_under_30s():
    started = time.monotonic()
    rng = random.Random(60221023)
    done = 0
    while done < 100:
        graph, _ = random_ball_model(rng, max_host=6, max_vertices=8)
        model = clique_tree_model(graph)
        assert subtree_model_violations(model) == []
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
    assert time.monotonic() - started < 30.0
