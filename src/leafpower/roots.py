"""k-leaf roots: verification, conversions to and from ball models, and a
brute-force leaf-rank search for tiny graphs.

A k-leaf root of a graph places every vertex on a distinct leaf of a host tree
so that two vertices are adjacent exactly when their leaves are within
distance k.  The smallest workable k is the graph's leaf rank.
"""

from __future__ import annotations

from dataclasses import dataclass

from .enumtrees import leaf_orbit_representatives, trees_with_leaf_count
from .graphs import Graph, dot_graph, dot_quote
from .jsonio import Record, integer, string_map
from .models import RSModel, rs_model_violations
from .trees import Tree, distances_from, tree_from_json_obj, tree_path, tree_to_json_obj


@dataclass(frozen=True)
class LeafRoot:
    """A host tree, a distance threshold k, and a vertex-to-leaf bijection."""

    host: Tree
    k: int
    placement: dict[str, str]

    @staticmethod
    def build(host: Tree, k: int, placement: dict[str, str]) -> "LeafRoot":
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise ValueError("k must be a positive integer")
        _check_placement(host, placement)
        return LeafRoot(host=host, k=k, placement=dict(placement))


def _check_placement(host: Tree, placement: dict[str, str]) -> None:
    """The placement must map the vertices one-to-one onto the host leaves."""
    image = list(placement.values())
    if len(set(image)) != len(image):
        raise ValueError("placement must be injective")
    if set(image) != set(host.leaves()):
        raise ValueError("placement must cover exactly the leaves of the host")


def _check_domain(graph: Graph, placement: dict[str, str]) -> None:
    if set(placement) != set(graph.vertices):
        raise ValueError("placement domain must equal the vertex set")


def _grow_path(
    start: str, bases: list[str], taken: set[str], nodes: list[str], edges: list[tuple[str, str]]
) -> str:
    """Append a path of fresh nodes from ``start``, one per base name, and return its end.

    Each name is its base with ``_`` prefixed until it is not in ``taken``.
    """
    for base in bases:
        name = base
        while name in taken:
            name = "_" + name
        taken.add(name)
        nodes.append(name)
        edges.append((start, name))
        start = name
    return start


def verify_leaf_root(graph: Graph, root: LeafRoot) -> bool:
    """Whether adjacency in ``graph`` matches leaf distance <= k exactly."""
    _check_domain(graph, root.placement)
    return leaf_power_graph(root).edges == graph.edges


def leaf_power_graph(root: LeafRoot) -> Graph:
    """The graph this leaf root represents: vertices adjacent iff leaves within k."""
    vertices = sorted(root.placement)
    edges = []
    for i, u in enumerate(vertices):
        dist = distances_from(root.host, root.placement[u])
        for v in vertices[i + 1 :]:
            if dist[root.placement[v]] <= root.k:
                edges.append((u, v))
    return Graph.build(vertices, edges)


def leafroot_to_rs(root: LeafRoot, graph: Graph | None = None) -> RSModel:
    """Turn a k-leaf root into a ball model with every radius equal to k.

    Every host edge is subdivided once and each vertex is centered on its own
    leaf.  Two leaves at distance d in the original host end up at distance 2d
    in the subdivided host, so balls of radius k intersect exactly when
    d <= k: the model represents the same graph, with max radius k.  The model
    is re-checked against the graph; a failure raises RuntimeError.
    """
    if graph is None:
        graph = leaf_power_graph(root)
    elif not verify_leaf_root(graph, root):
        raise ValueError("leaf root does not verify against the given graph")

    taken = set(root.host.nodes)
    nodes = list(root.host.nodes)
    edges: list[tuple[str, str]] = []
    for u, v in root.host.edges:
        mid = _grow_path(u, [f"{u}~{v}"], taken, nodes, edges)
        edges.append((mid, v))
    host = Tree.build(nodes, edges)

    centers = {v: root.placement[v] for v in graph.vertices}
    radii = {v: root.k for v in graph.vertices}
    model = RSModel.build(host, graph, centers, radii)
    problems = rs_model_violations(model)
    if problems:
        raise RuntimeError(f"construction invalid: {problems[0]}")
    return model


def rs_to_leafroot(model: RSModel) -> LeafRoot:
    """Turn a verifying ball model with max radius k into a (2k+2)-leaf root.

    The host is cut down to the smallest subtree holding every center (the
    union of the paths from one center to all others), and each vertex gets a
    brand-new leaf fastened to its center by a path of length k+1-r_v.  A lone
    vertex keeps only its leaf.  For placed leaves u, v the distance becomes
    (k+1-r_u) + dist(c_u, c_v) + (k+1-r_v), which is at most 2k+2 exactly when
    the balls intersected.
    """
    vertices = model.graph.vertices
    if not vertices:
        raise ValueError("model has no vertices")
    k = max(model.radii[v] for v in vertices)
    taken = set(model.host.nodes)
    first = model.centers[vertices[0]]
    core = set().union(*(tree_path(model.host, first, model.centers[v]) for v in vertices))
    nodes = list(core)
    edges = [(x, y) for x, y in model.host.edges if x in core and y in core]
    placement: dict[str, str] = {}
    for v in vertices:
        stems = [f"stem.{v}.{j}" for j in range(1, k + 1 - model.radii[v])]
        placement[v] = _grow_path(model.centers[v], [*stems, f"leaf.{v}"], taken, nodes, edges)
    if len(vertices) == 1:
        nodes, edges = list(placement.values()), []
    return LeafRoot.build(Tree.build(sorted(nodes), edges), 2 * k + 2, placement)


def brute_force_leaf_rank(
    graph: Graph, max_nodes: int, max_k: int | None = None
) -> int | None:
    """The smallest k admitting a leaf root on at most ``max_nodes`` tree nodes.

    Exhausts every tree-isomorphism class with exactly |V| leaves and at most
    ``max_nodes`` nodes, and every placement up to leaf symmetry of the first
    vertex.  Returns None when no root exists in that space, which is NOT a
    proof that none exists at all; ``max_k`` optionally restricts the search to
    roots with k <= max_k (useful for questions like "is the rank <= 2?").
    """
    num = len(graph.vertices)
    if num < 1:
        raise ValueError("graph must have at least one vertex")
    if max_nodes < num:
        raise ValueError("max_nodes must be at least the number of vertices")
    if max_k is not None and max_k < 1:
        raise ValueError("max_k must be positive when given")

    # No leaf distance on a tree of at most max_nodes nodes reaches max_nodes.
    limit = max_k if max_k is not None else max_nodes
    best: int | None = None
    for host in trees_with_leaf_count(num, max_nodes):
        leaf_dist = {leaf: distances_from(host, leaf) for leaf in host.leaves()}
        found = _best_k_on_host(graph, host, limit, leaf_dist)
        if found is not None:
            best, limit = found, found - 1
            if best == 1:
                break
    return best


def _best_k_on_host(
    graph: Graph, host: Tree, limit: int, leaf_dist: dict[str, dict[str, int]]
) -> int | None:
    """Minimal workable k <= limit over all placements on this host, else None.

    ``leaf_dist`` maps every leaf of the host to its BFS distance map.
    """
    leaves = list(host.leaves())
    vertices = list(graph.vertices)
    first_choices = leaf_orbit_representatives(host)

    best: int | None = None

    def extend(idx: int, used: dict[str, str], max_adj: int, min_sep: int) -> None:
        nonlocal best
        cap = limit if best is None else min(limit, best - 1)
        if max(max_adj, 1) > cap or max(max_adj, 1) >= min_sep:
            return
        if idx == len(vertices):
            best = max(max_adj, 1)
            return
        v = vertices[idx]
        choices = first_choices if idx == 0 else [x for x in leaves if x not in used.values()]
        for leaf in choices:
            new_adj, new_sep = max_adj, min_sep
            ok = True
            for u, lu in used.items():
                d = leaf_dist[lu][leaf]
                if graph.adjacent(u, v):
                    new_adj = max(new_adj, d)
                else:
                    new_sep = min(new_sep, d)
                if max(new_adj, 1) >= new_sep or max(new_adj, 1) > cap:
                    ok = False
                    break
            if ok:
                used[v] = leaf
                extend(idx + 1, used, new_adj, new_sep)
                del used[v]

    extend(0, {}, 0, len(host.nodes) + 1)
    return best


def leafroot_to_json_obj(root: LeafRoot) -> dict:
    return {
        "tree": tree_to_json_obj(root.host),
        "k": root.k,
        "placement": dict(sorted(root.placement.items())),
    }


def leafroot_from_json_obj(obj: object, field: str = "") -> LeafRoot:
    """Read a leaf root; ValueError names the malformed field under ``field``."""
    rec = Record(obj, field, "tree", "k", "placement")
    return LeafRoot.build(
        rec.get("tree", tree_from_json_obj),
        rec.get("k", integer),
        rec.get("placement", string_map),
    )


def leafroot_to_dot(root: LeafRoot, *, name: str = "R") -> str:
    by_leaf = {leaf: v for v, leaf in root.placement.items()}
    lines = [f'  label="k = {root.k}";']
    for x in root.host.nodes:
        if x in by_leaf:
            text = dot_quote(f"{x} ({by_leaf[x]})")
            lines.append(f"  {dot_quote(x)} [label={text}, shape=box];")
        else:
            lines.append(f"  {dot_quote(x)};")
    return dot_graph(name, lines, root.host.edges)
