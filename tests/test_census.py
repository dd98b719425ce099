"""Tests for the chordal-graph generator and the leaf-rank census."""
from __future__ import annotations

import itertools
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from leafpower import (
    Graph,
    brute_force_leaf_rank,
    chordal_graphs,
    graph_from_json_obj,
    is_chordal,
    leaf_rank_census,
)
from leafpower import enumtrees
from leafpower.census import _canonical_form, _graph

from conftest import random_graphs
from test_roots import ATLAS_RANK_COUNTS

#: Chordal graphs on 1..7 vertices up to isomorphism, as counted in networkx's atlas.
CHORDAL_COUNTS = [1, 2, 4, 10, 27, 94, 393]


def masks(graph: Graph, order: list[str]) -> tuple[int, ...]:
    index = {v: i for i, v in enumerate(order)}
    return tuple(sum(1 << index[w] for w in graph.neighbors(v)) for v in order)


def to_nx(graph: Graph) -> nx.Graph:
    g = nx.Graph(list(graph.edges))
    g.add_nodes_from(graph.vertices)
    return g


def test_counts_match_the_atlas():
    levels = list(chordal_graphs(7))
    assert [len(graphs) for graphs in levels] == CHORDAL_COUNTS
    assert [g.vertices for g in levels[3]] == [tuple("0123")] * 10


@pytest.mark.parametrize("n", range(1, 8))
def test_one_chordal_graph_per_class(n):
    # Checked by networkx, not by the canonical form: every graph is chordal and
    # no two are isomorphic, so with the atlas's count there is one per class.
    *_, graphs = chordal_graphs(n)
    assert len(graphs) == CHORDAL_COUNTS[n - 1]
    assert all(is_chordal(g) for g in graphs)
    buckets: dict[tuple, list[nx.Graph]] = {}
    for g in map(to_nx, graphs):
        degrees = sorted((g.degree(v), sorted(g.degree(w) for w in g[v])) for v in g)
        buckets.setdefault(tuple(map(str, degrees)), []).append(g)
    for bucket in buckets.values():
        for a, b in itertools.combinations(bucket, 2):
            assert not nx.is_isomorphic(a, b)


def test_refuses_no_vertices():
    with pytest.raises(ValueError, match="max_vertices must be at least 1"):
        next(chordal_graphs(0))


@given(random_graphs(max_nodes=8), st.randoms(use_true_random=False))
def test_canonical_form_is_a_relabelling_that_ignores_vertex_order(graph, rng):
    order = list(graph.vertices)
    form = _canonical_form(masks(graph, order))
    rng.shuffle(order)
    assert _canonical_form(masks(graph, order)) == form
    assert nx.is_isomorphic(to_nx(_graph(form)), to_nx(graph))


@pytest.mark.parametrize("sizes", [(3, 4), (3, 5), (4, 4), (3, 3, 3)])
@given(st.randoms(use_true_random=False))
def test_canonical_form_of_regular_graphs(sizes, rng):
    # Disjoint cycles: colour refinement splits no vertex, so the form comes
    # from the search alone, and on (3, 4) and (3, 5) its choices are not all
    # equivalent.
    names = [f"{c}.{i}" for c, size in enumerate(sizes) for i in range(size)]
    edges = [
        (f"{c}.{i}", f"{c}.{(i + 1) % size}") for c, size in enumerate(sizes) for i in range(size)
    ]
    graph = Graph.build(names, edges)
    form = _canonical_form(masks(graph, names))
    rng.shuffle(names)
    assert _canonical_form(masks(graph, names)) == form
    assert nx.is_isomorphic(to_nx(_graph(form)), to_nx(graph))


def test_census_within_ten_nodes_matches_the_atlas_ranks():
    rows = leaf_rank_census(6, 10)["census"]
    assert [row["vertices"] for row in rows] == [1, 2, 3, 4, 5, 6]
    for row, count in zip(rows, CHORDAL_COUNTS):
        ranked = {k: c for k, c in ATLAS_RANK_COUNTS[row["vertices"]].items() if k is not None}
        assert row["ranks"] == {str(k): c for k, c in sorted(ranked.items())}
        assert row["graphs"] == count
        assert row["unknown"] == count - sum(ranked.values())
        assert row["largest_rank"] == max(ranked)
        extremal = [graph_from_json_obj(obj) for obj in row["extremal"]]
        assert len(extremal) == ranked[max(ranked)]
        assert all(brute_force_leaf_rank(g, 10) == max(ranked) for g in extremal)


def test_census_within_eleven_nodes_finds_the_bull_the_dart_and_the_gem():
    # ROADMAP item 13: on five vertices the largest rank is 4, reached by the
    # bull, the dart and the gem, and every chordal graph is ranked.
    row = leaf_rank_census(5, 11)["census"][4]
    assert (row["ranks"], row["unknown"], row["largest_rank"]) == (
        {"1": 1, "2": 6, "3": 17, "4": 3},
        0,
        4,
    )
    triangle = [("a", "b"), ("b", "c"), ("a", "c")]
    bull = Graph.build("abcde", triangle + [("b", "d"), ("c", "e")])
    # The dart is a diamond with a pendant on a vertex of degree 3.
    dart = Graph.build("abcde", triangle + [("a", "d"), ("b", "d"), ("a", "e")])
    gem = Graph.build("abcde", [("a", "b"), ("b", "c"), ("c", "d")] + [(v, "e") for v in "abcd"])
    extremal = [to_nx(graph_from_json_obj(obj)) for obj in row["extremal"]]
    for graph in (bull, dart, gem):
        assert sum(nx.is_isomorphic(to_nx(graph), other) for other in extremal) == 1


def test_census_does_not_depend_on_the_host_memo():
    enumtrees._hosts.cache_clear()
    cold = leaf_rank_census(5, 9)
    warm = leaf_rank_census(5, 9, None)
    assert warm == cold
    capped = leaf_rank_census(5, 9, 2)
    for row, full in zip(capped["census"], cold["census"]):
        expected = Counter({k: c for k, c in full["ranks"].items() if int(k) <= 2})
        assert Counter(row["ranks"]) == expected
        assert row["unknown"] == row["graphs"] - sum(expected.values())
