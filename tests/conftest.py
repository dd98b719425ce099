"""Shared fixtures, graph builders, and random generators for the test suite."""
from __future__ import annotations

import collections
import functools
import itertools
import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from leafpower import Graph, SubtreeModel, Tree, ball

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


# ---------------------------------------------------------------------------
# Deterministic small-graph builders
# ---------------------------------------------------------------------------

def complete_graph(labels: list[str]) -> Graph:
    return Graph.build(labels, list(itertools.combinations(labels, 2)))


def path_graph(labels: list[str]) -> Graph:
    return Graph.build(labels, list(zip(labels, labels[1:])))


def cycle_graph(labels: list[str]) -> Graph:
    if len(labels) < 3:
        raise ValueError("cycle needs at least 3 vertices")
    edges = list(zip(labels, labels[1:])) + [(labels[-1], labels[0])]
    return Graph.build(labels, edges)


def path_tree(labels: list[str]) -> Tree:
    return Tree.build(labels, list(zip(labels, labels[1:])))


def star_tree(center: str, leaves: list[str]) -> Tree:
    return Tree.build([center, *leaves], [(center, leaf) for leaf in leaves])


# ---------------------------------------------------------------------------
# Atlas corpus: every graph on at most seven vertices
# ---------------------------------------------------------------------------

def _convert_atlas(g: "nx.Graph") -> Graph:
    names = {node: f"v{node}" for node in g.nodes()}
    return Graph.build(
        sorted(names.values()),
        [(names[u], names[v]) for u, v in g.edges()],
    )


@functools.cache
def atlas() -> tuple[Graph, ...]:
    """All nonempty graphs on at most 7 vertices, as library graphs, in atlas order."""
    return tuple(_convert_atlas(g) for g in nx.graph_atlas_g() if g.number_of_nodes() > 0)


@pytest.fixture(scope="session")
def atlas_graphs() -> list[Graph]:
    """All nonempty graphs on at most 7 vertices, as library graphs."""
    return list(atlas())


@pytest.fixture(scope="session")
def small_atlas_graphs(atlas_graphs: list[Graph]) -> list[Graph]:
    """The atlas graphs on at most 5 vertices."""
    return [g for g in atlas_graphs if g.n <= 5]


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

@st.composite
def random_trees(draw, min_nodes: int = 1, max_nodes: int = 8) -> Tree:
    """Random labeled tree built by attaching each node to an earlier one."""
    n = draw(st.integers(min_nodes, max_nodes))
    nodes = [f"t{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        parent = draw(st.integers(0, i - 1))
        edges.append((nodes[parent], nodes[i]))
    return Tree.build(nodes, edges)


@st.composite
def scrambled_trees(draw, min_nodes: int = 1, max_nodes: int = 30) -> Tree:
    """A random tree whose node order, name order and parent/child order disagree.

    Each node attaches to an earlier one, as in :func:`random_trees`, but the
    names are a shuffle of ``v0 .. v{n-1}`` ("v10" sorts before "v2"), so a
    normalized edge may list the child first.  The node list is shuffled and
    opens with a leaf or an internal node, as drawn, and each edge is listed
    in a random place and orientation.
    """
    n = draw(st.integers(min_nodes, max_nodes))
    names = draw(st.permutations([f"v{i}" for i in range(n)]))
    edges = [(names[draw(st.integers(0, i - 1))], names[i]) for i in range(1, n)]
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in draw(st.permutations(edges))]
    nodes = draw(st.permutations(names))
    degree = collections.Counter(itertools.chain.from_iterable(edges))
    leaf_first = draw(st.booleans())
    first = draw(st.sampled_from([v for v in nodes if (degree[v] <= 1) == leaf_first] or nodes))
    nodes.remove(first)
    return Tree.build([first, *nodes], edges)


@st.composite
def random_graphs(draw, min_nodes: int = 1, max_nodes: int = 7) -> Graph:
    n = draw(st.integers(min_nodes, max_nodes))
    labels = [f"v{i}" for i in range(n)]
    pairs = list(itertools.combinations(labels, 2))
    chosen = [pair for pair in pairs if draw(st.booleans())]
    return Graph.build(labels, chosen)


# ---------------------------------------------------------------------------
# Seeded random generators (plain ``random.Random``, not hypothesis)
# ---------------------------------------------------------------------------

def random_tree_rng(rng: random.Random, min_nodes: int, max_nodes: int,
                    prefix: str = "n") -> Tree:
    n = rng.randint(min_nodes, max_nodes)
    nodes = [f"{prefix}{i}" for i in range(n)]
    edges = [(nodes[rng.randrange(i)], nodes[i]) for i in range(1, n)]
    return Tree.build(nodes, edges)


def random_ball_model(rng: random.Random, max_host: int = 7,
                      max_vertices: int = 8) -> tuple[Graph, SubtreeModel]:
    """A random chordal graph together with a verifying subtree model.

    Each vertex is assigned the ball of a random host node; the graph is the
    intersection graph of those balls, so the model verifies by construction
    and the graph is chordal.
    """
    host = random_tree_rng(rng, 1, max_host)
    k = rng.randint(1, max_vertices)
    vertices = [f"u{i}" for i in range(k)]
    assignment = {
        v: ball(host, rng.choice(host.nodes), rng.randint(0, 2))
        for v in vertices
    }
    edges = [
        (u, v)
        for u, v in itertools.combinations(vertices, 2)
        if assignment[u] & assignment[v]
    ]
    graph = Graph.build(vertices, edges)
    return graph, SubtreeModel.build(host, graph, assignment)
