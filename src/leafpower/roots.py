"""k-leaf roots: verification, conversions to and from ball models, and a
brute-force leaf-rank search for tiny graphs.

A k-leaf root of a graph places every vertex on a distinct leaf of a host tree
so that two vertices are adjacent exactly when their leaves are within
distance k.  The smallest workable k is the graph's leaf rank.
"""

from __future__ import annotations

from dataclasses import dataclass

from .enumtrees import leaf_orbit_representatives, trees_with_leaf_count
from .graphs import Graph, dot_graph, dot_quote, is_chordal
from .jsonio import Record, integer, string_map
from .models import RSModel, rs_model_violations
from .trees import (
    Tree,
    pairwise_distances,
    tree_from_json_obj,
    tree_path,
    tree_to_json_obj,
)


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
    return _threshold_graph(root.host, root.placement, root.k)


def _threshold_graph(host: Tree, placement: dict[str, str], k: int, lengths=None) -> Graph:
    """Vertices adjacent iff their leaves are within k, by edge count or by ``lengths``."""
    vertices = sorted(placement)
    dist = pairwise_distances(host, placement.values(), lengths)
    edges = []
    for i, u in enumerate(vertices):
        row = dist[placement[u]]
        for v in vertices[i + 1 :]:
            if row[placement[v]] <= k:
                edges.append((u, v))
    return Graph.build(vertices, edges)


def leafroot_to_rs(root: LeafRoot) -> RSModel:
    """Turn a k-leaf root into a ball model with every radius equal to k.

    Every host edge is subdivided once and each vertex is centered on its own
    leaf.  Two leaves at distance d in the original host end up at distance 2d
    in the subdivided host, so balls of radius k intersect exactly when
    d <= k: the model represents the same graph, with max radius k.  The model
    is re-checked against the root's graph; a failure raises RuntimeError.
    """
    graph = leaf_power_graph(root)
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
    the balls intersected.  The root is re-checked against the graph; a failure
    raises RuntimeError.
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
    root = LeafRoot.build(Tree.build(sorted(nodes), edges), 2 * k + 2, placement)
    if not verify_leaf_root(model.graph, root):
        raise RuntimeError("construction invalid: the root does not represent the model's graph")
    return root


def brute_force_leaf_rank(
    graph: Graph, max_nodes: int, max_k: int | None = None
) -> int | None:
    """The smallest k admitting a leaf root on at most ``max_nodes`` tree nodes.

    Exhausts every tree-isomorphism class with exactly |V| leaves and at most
    ``max_nodes`` nodes, and every placement up to leaf symmetry of the first
    vertex.  Returns None when no root exists in that space, which is NOT a
    proof that none exists at all; ``max_k`` optionally restricts the search to
    roots with k <= max_k (useful for questions like "is the rank <= 2?").

    A graph that is not chordal gets None without a search, after the argument
    checks: it has no leaf root at all.  A k-leaf root gives a ball model of the
    graph (``leafroot_to_rs``), balls in a tree are subtrees, and every
    intersection graph of subtrees of a tree is chordal (Gavril 1974).

    Each host is searched on index tables (see ``_best_k_on_host``).  The root
    behind the answer is re-checked with ``verify_leaf_root``; a failure raises
    RuntimeError.
    """
    num = len(graph.vertices)
    if num < 1:
        raise ValueError("graph must have at least one vertex")
    if max_nodes < num:
        raise ValueError("max_nodes must be at least the number of vertices")
    if max_k is not None and max_k < 1:
        raise ValueError("max_k must be positive when given")
    if not is_chordal(graph):
        return None

    vertices = graph.vertices
    adjacent = [[graph.adjacent(u, v) for v in vertices] for u in vertices]
    # No leaf distance on a tree of at most max_nodes nodes reaches max_nodes.
    limit = max_k if max_k is not None else max_nodes
    witness: LeafRoot | None = None
    for host in trees_with_leaf_count(num, max_nodes):
        found = _best_k_on_host(adjacent, host, limit)
        if found is not None:
            k, leaves = found
            witness = LeafRoot.build(host, k, dict(zip(vertices, leaves)))
            limit = k - 1
            if k == 1:
                break
    if witness is None:
        return None
    if not verify_leaf_root(graph, witness):
        raise RuntimeError("construction invalid: the root does not represent the graph")
    return witness.k


def _best_k_on_host(
    adjacent: list[list[bool]], host: Tree, limit: int
) -> tuple[int, list[str]] | None:
    """The smallest workable k <= limit on this host and a placement for it, else None.

    ``adjacent[i][j]`` says whether vertices i and j are adjacent.  The host is
    read once into a leaf-by-leaf distance table; leaves are then indices, with
    a ``used`` flag each.  Vertex i is placed on leaf ``slot[i]``, depth first
    in vertex order, the first vertex on one leaf per automorphism orbit.  A
    partial placement keeps ``adj``, the largest distance between two placed
    adjacent vertices (at least 1), and ``sep``, the smallest between two placed
    nonadjacent ones; it is dropped once adj >= sep or adj > cap, where cap is
    ``limit`` until a placement is complete and one below its k after.
    """
    leaves = host.leaves()
    num = len(leaves)
    pair = pairwise_distances(host, leaves)
    dist = [[pair[a][b] for b in leaves] for a in leaves]
    position = {leaf: i for i, leaf in enumerate(leaves)}
    firsts = [position[leaf] for leaf in leaf_orbit_representatives(host)]
    used = [False] * num
    slot = [0] * num
    best: tuple[int, list[str]] | None = None
    cap = limit

    def extend(idx: int, adj: int, sep: int) -> None:
        # Called only with adj <= cap and adj < sep.
        nonlocal best, cap
        if idx == num:
            best, cap = (adj, [leaves[i] for i in slot]), adj - 1
            return
        row = adjacent[idx]
        for leaf in firsts if idx == 0 else range(num):
            if used[leaf]:
                continue
            to_leaf = dist[leaf]
            new_adj, new_sep = adj, sep
            for u in range(idx):
                d = to_leaf[slot[u]]
                if row[u]:
                    if d > new_adj:
                        if d > cap or d >= new_sep:
                            break
                        new_adj = d
                elif d < new_sep:
                    if d <= new_adj:
                        break
                    new_sep = d
            else:
                used[leaf] = True
                slot[idx] = leaf
                extend(idx + 1, new_adj, new_sep)
                used[leaf] = False
                if adj > cap:
                    return

    extend(0, 1, len(host.nodes) + 1)
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
