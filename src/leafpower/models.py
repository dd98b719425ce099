"""Tree representations of graphs by subtrees of a host tree.

Two interchangeable forms are provided:

* :class:`SubtreeModel` assigns every graph vertex an explicit set of host
  nodes.  It represents the graph when each set induces a nonempty subtree and
  two sets intersect exactly when the vertices are adjacent.
* :class:`RSModel` assigns every graph vertex a center node and an integer
  radius; the implied subtree is the ball around the center.  Because balls in
  a tree intersect exactly when the center distance is at most the radius sum,
  every command checks this form by center distances alone.  The set route
  checks explicit subtree models, and on expanded balls it is the tests'
  independent cross-check of the center-distance route.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping

from .graphs import (
    Graph,
    _clique_tree,
    dot_graph,
    dot_quote,
    graph_from_json_obj,
    graph_to_json_obj,
)
from .jsonio import Record, integer_map, string_map
from .trees import (
    Tree,
    ball,
    is_connected_subset,
    pairwise_distances,
    tree_from_json_obj,
    tree_path,
    tree_to_json_obj,
)


@dataclass(frozen=True)
class SubtreeModel:
    """An explicit assignment of host-node sets to graph vertices."""

    host: Tree
    graph: Graph
    assignment: dict[str, frozenset[str]]

    @staticmethod
    def build(host: Tree, graph: Graph, assignment: Mapping[str, Iterable[str]]) -> "SubtreeModel":
        """Validate shapes only; a structurally damaged model is still buildable.

        Whether the assignment actually represents the graph is the job of
        :func:`subtree_model_violations`, so that broken models can be
        constructed, inspected, and reported on.
        """
        assign: dict[str, frozenset[str]] = {}
        for v in graph.vertices:
            if v not in assignment:
                raise ValueError(f"vertex {v!r} has no assigned node set")
            nodes = frozenset(assignment[v])
            for x in nodes:
                if x not in host:
                    raise ValueError(f"assigned node {x!r} of vertex {v!r} is not in the host tree")
            assign[v] = nodes
        extra = set(assignment) - set(graph.vertices)
        if extra:
            raise ValueError(f"assignment mentions non-vertices: {sorted(extra)}")
        return SubtreeModel(host=host, graph=graph, assignment=assign)


@dataclass(frozen=True)
class RSModel:
    """A center-and-radius assignment whose implied subtrees are balls."""

    host: Tree
    graph: Graph
    centers: dict[str, str]
    radii: dict[str, int]

    @staticmethod
    def build(
        host: Tree,
        graph: Graph,
        centers: Mapping[str, str],
        radii: Mapping[str, int],
    ) -> "RSModel":
        cs: dict[str, str] = {}
        rs: dict[str, int] = {}
        for v in graph.vertices:
            if v not in centers or v not in radii:
                raise ValueError(f"vertex {v!r} has no center or no radius")
            if centers[v] not in host:
                raise ValueError(f"center {centers[v]!r} of vertex {v!r} is not in the host tree")
            r = radii[v]
            if isinstance(r, bool) or not isinstance(r, int) or r < 0:
                raise ValueError(f"radius of vertex {v!r} must be a nonnegative integer")
            cs[v] = centers[v]
            rs[v] = r
        extra = (set(centers) | set(radii)) - set(graph.vertices)
        if extra:
            raise ValueError(f"centers/radii mention non-vertices: {sorted(extra)}")
        return RSModel(host=host, graph=graph, centers=cs, radii=rs)


def cover(model: SubtreeModel, node: str) -> frozenset[str]:
    """All graph vertices whose assigned subtree contains the host node."""
    if node not in model.host:
        raise ValueError(f"node {node!r} is not in the host tree")
    return frozenset(v for v, nodes in model.assignment.items() if node in nodes)


def subtree_model_violations(model: SubtreeModel) -> list[str]:
    """Human-readable reasons the assignment fails to represent the graph.

    Empty list means the model is valid: every assigned set induces a nonempty
    subtree, and sets intersect exactly for adjacent vertex pairs.
    """
    problems: list[str] = []
    for v in model.graph.vertices:
        nodes = model.assignment[v]
        if not nodes:
            problems.append(f"vertex {v!r} has an empty node set")
        elif not is_connected_subset(model.host, nodes):
            problems.append(f"nodes of vertex {v!r} do not induce a subtree")
    for i, u in enumerate(model.graph.vertices):
        for v in model.graph.vertices[i + 1 :]:
            meets = bool(model.assignment[u] & model.assignment[v])
            if meets and not model.graph.adjacent(u, v):
                problems.append(f"subtrees of non-adjacent {u!r} and {v!r} intersect")
            elif not meets and model.graph.adjacent(u, v):
                problems.append(f"subtrees of adjacent {u!r} and {v!r} are disjoint")
    return problems


def clique_subtree(model: SubtreeModel, clique: Iterable[str]) -> frozenset[str]:
    """The host nodes shared by every member of the clique.

    In any valid model this is nonempty: subtrees of a tree have the Helly
    property, so pairwise-intersecting subtrees share a common node.  The
    members must therefore be pairwise adjacent, and other sets are refused.
    """
    members = sorted(set(clique))
    for v in members:
        if v not in model.assignment:
            raise ValueError(f"clique member {v!r} is not a graph vertex")
    if not members:
        raise ValueError("clique is empty")
    for u, v in combinations(members, 2):
        if not model.graph.adjacent(u, v):
            raise ValueError(f"clique members {u!r} and {v!r} are not adjacent")
    result = frozenset.intersection(*(model.assignment[v] for v in members))
    if not result:
        raise ValueError("Helly violation: model invalid")
    return result


def expand_rs(model: RSModel) -> SubtreeModel:
    """Materialize each ball into an explicit node set."""
    assignment = {
        v: ball(model.host, model.centers[v], model.radii[v]) for v in model.graph.vertices
    }
    return SubtreeModel(host=model.host, graph=model.graph, assignment=assignment)


def rs_model_violations(model: RSModel) -> list[str]:
    """Adjacency mismatches, found through center distances alone.

    Balls around centers c_u and c_v intersect exactly when
    dist(c_u, c_v) <= r_u + r_v, so no ball is ever materialized here.  This is
    deliberately a different route than expanding and checking set
    intersections, so the two can cross-validate each other.
    """
    problems: list[str] = []
    dist = pairwise_distances(model.host, model.centers.values())
    for i, u in enumerate(model.graph.vertices):
        row = dist[model.centers[u]]
        for v in model.graph.vertices[i + 1 :]:
            d = row[model.centers[v]]
            meets = d <= model.radii[u] + model.radii[v]
            if meets and not model.graph.adjacent(u, v):
                problems.append(f"balls of non-adjacent {u!r} and {v!r} intersect")
            elif not meets and model.graph.adjacent(u, v):
                problems.append(f"balls of adjacent {u!r} and {v!r} are disjoint")
    return problems


def check_path_cover(model: SubtreeModel, path: Iterable[str], x_u: str, x_v: str) -> bool:
    """Whether the subtrees of the vertices on ``path`` cover the host path x_u .. x_v.

    ``path`` must be a path in the graph; x_u must belong to the subtree of its
    first vertex and x_v to the subtree of its last.  In a valid model this
    always holds (consecutive subtrees intersect, so their union along the path
    is connected and contains both endpoints); for damaged models it can fail.
    """
    p = list(path)
    if not p:
        raise ValueError("path must be nonempty")
    if len(set(p)) != len(p):
        raise ValueError("path repeats a vertex")
    for v in p:
        if v not in model.assignment:
            raise ValueError(f"path vertex {v!r} is not a graph vertex")
    for a, b in zip(p, p[1:]):
        if not model.graph.adjacent(a, b):
            raise ValueError(f"path vertices {a!r} and {b!r} are not adjacent")
    if x_u not in model.assignment[p[0]]:
        raise ValueError(f"node {x_u!r} is not in the subtree of the first path vertex")
    if x_v not in model.assignment[p[-1]]:
        raise ValueError(f"node {x_v!r} is not in the subtree of the last path vertex")
    corridor = tree_path(model.host, x_u, x_v)
    vertex_set = set(p)
    for node in corridor:
        if not (cover(model, node) & vertex_set):
            return False
    return True


def clique_tree_model(graph: Graph) -> SubtreeModel:
    """A canonical subtree model of a chordal graph on its maximal cliques.

    One maximum-cardinality search gives the maximal cliques and a clique tree
    on them (Blair and Peyton 1993): every vertex's cliques form a subtree, and
    the components of a disconnected graph are bridged by edges between
    cliques that share no vertex.  Host node ``Ki`` is the i-th clique in the
    order of sorted members.  The model is re-checked with
    :func:`subtree_model_violations`; a failure raises RuntimeError.
    """
    if not graph.vertices:
        raise ValueError("graph has no vertices")
    cliques, tree_edges = _clique_tree(graph)
    by_members = sorted(range(len(cliques)), key=lambda i: sorted(cliques[i]))
    names = {i: f"K{rank}" for rank, i in enumerate(by_members)}
    host = Tree.build(
        [names[i] for i in by_members], [(names[i], names[j]) for i, j in tree_edges]
    )
    assignment = {
        v: frozenset(names[i] for i, ms in enumerate(cliques) if v in ms)
        for v in graph.vertices
    }
    model = SubtreeModel(host=host, graph=graph, assignment=assignment)
    problems = subtree_model_violations(model)
    if problems:
        raise RuntimeError(f"construction invalid: {problems[0]}")
    return model


def subtree_model_to_json_obj(model: SubtreeModel) -> dict:
    return {
        "host": tree_to_json_obj(model.host),
        "graph": graph_to_json_obj(model.graph),
        "assignment": {v: sorted(nodes) for v, nodes in model.assignment.items()},
    }


def rs_model_to_json_obj(model: RSModel) -> dict:
    return {
        "host": tree_to_json_obj(model.host),
        "graph": graph_to_json_obj(model.graph),
        "centers": dict(sorted(model.centers.items())),
        "radii": dict(sorted(model.radii.items())),
    }


def rs_model_from_json_obj(obj: object, field: str = "") -> RSModel:
    """Read a ball model; ValueError names the malformed field under ``field``."""
    rec = Record(obj, field, "host", "graph", "centers", "radii")
    return RSModel.build(
        rec.get("host", tree_from_json_obj),
        rec.get("graph", graph_from_json_obj),
        rec.get("centers", string_map),
        rec.get("radii", integer_map),
    )


def rs_model_to_dot(model: RSModel, *, name: str = "M") -> str:
    centers_at: dict[str, list[str]] = {}
    for v in model.graph.vertices:
        centers_at.setdefault(model.centers[v], []).append(v)
    lines = []
    for node in model.host.nodes:
        if node in centers_at:
            marks = ", ".join(
                f"{v} r={model.radii[v]}" for v in sorted(centers_at[node])
            )
            text = dot_quote(f"{node}: {marks}")
            lines.append(f"  {dot_quote(node)} [label={text}, shape=box];")
        else:
            lines.append(f"  {dot_quote(node)};")
    return dot_graph(name, lines, model.host.edges)


_DOT_PALETTE = (
    "lightblue",
    "lightpink",
    "palegreen",
    "khaki",
    "plum",
    "lightsalmon",
    "lightcyan",
    "wheat",
    "thistle",
    "palegoldenrod",
    "lightsteelblue",
    "mistyrose",
)


def subtree_model_to_dot(model: SubtreeModel, *, name: str = "M") -> str:
    color_of = {
        v: _DOT_PALETTE[i % len(_DOT_PALETTE)]
        for i, v in enumerate(model.graph.vertices)
    }
    lines = ["  node [style=filled];"]
    for node in model.host.nodes:
        covering = sorted(cover(model, node))
        label = ",".join(covering)
        fill = color_of[covering[0]] if covering else "white"
        text = dot_quote(f"{node}: {{{label}}}")
        lines.append(f'  {dot_quote(node)} [label={text}, fillcolor="{fill}"];')
    return dot_graph(name, lines, model.host.edges)
