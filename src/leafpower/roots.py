"""k-leaf roots: verification, conversions to and from ball models, and a
brute-force leaf-rank search for tiny graphs.

A k-leaf root of a graph places every vertex on a distinct leaf of a host tree
so that two vertices are adjacent exactly when their leaves are within
distance k.  The smallest workable k is the graph's leaf rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .enumtrees import leaf_orbit_representatives, trees_with_leaf_count
from .graphs import Graph
from .jsonio import Record, integer, string_map
from .models import RSModel
from .trees import Tree, distances_from, tree_from_json_obj, tree_to_json_obj


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
        leaves = set(host.leaves())
        image = list(placement.values())
        if len(set(image)) != len(image):
            raise ValueError("placement must be injective")
        if set(image) != leaves:
            raise ValueError("placement must cover exactly the leaves of the host")
        return LeafRoot(host=host, k=k, placement=dict(placement))


def verify_leaf_root(graph: Graph, root: LeafRoot) -> bool:
    """Whether adjacency in ``graph`` matches leaf distance <= k exactly."""
    if set(root.placement) != set(graph.vertices):
        raise ValueError("placement domain must equal the vertex set")
    for i, u in enumerate(graph.vertices):
        dist = distances_from(root.host, root.placement[u])
        for v in graph.vertices[i + 1 :]:
            if (dist[root.placement[v]] <= root.k) != graph.adjacent(u, v):
                return False
    return True


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


def _fresh_name(base: str, taken: set[str]) -> str:
    name = base
    while name in taken:
        name = "_" + name
    return name


def leafroot_to_rs(root: LeafRoot, graph: Graph | None = None) -> RSModel:
    """Turn a k-leaf root into a ball model with every radius equal to k.

    Every host edge is subdivided once and each vertex is centered on its own
    leaf.  Two leaves at distance d in the original host end up at distance 2d
    in the subdivided host, so balls of radius k intersect exactly when
    d <= k: the model represents the same graph, with max radius k.
    """
    if graph is None:
        graph = leaf_power_graph(root)
    elif not verify_leaf_root(graph, root):
        raise ValueError("leaf root does not verify against the given graph")

    taken = set(root.host.nodes)
    nodes = list(root.host.nodes)
    edges: list[tuple[str, str]] = []
    for u, v in root.host.edges:
        mid = _fresh_name(f"{u}~{v}", taken)
        taken.add(mid)
        nodes.append(mid)
        edges.append((u, mid))
        edges.append((mid, v))
    host = Tree.build(nodes, edges)

    centers = {v: root.placement[v] for v in graph.vertices}
    radii = {v: root.k for v in graph.vertices}
    return RSModel.build(host, graph, centers, radii)


def rs_to_leafroot(model: RSModel) -> LeafRoot:
    """Turn a verifying ball model with max radius k into a (2k+2)-leaf root.

    Each vertex gets a brand-new leaf fastened to its center by a path of
    length k+1-r_v; leaves of the host that carry no vertex are then pruned
    away.  For placed leaves u, v the distance becomes
    (k+1-r_u) + dist(c_u, c_v) + (k+1-r_v), which is at most 2k+2 exactly when
    the balls intersected.
    """
    vertices = model.graph.vertices
    if not vertices:
        raise ValueError("model has no vertices")
    k = max(model.radii[v] for v in vertices)

    adjacency: dict[str, set[str]] = {x: set() for x in model.host.nodes}
    for x, y in model.host.edges:
        adjacency[x].add(y)
        adjacency[y].add(x)

    taken = set(adjacency)
    placement: dict[str, str] = {}
    for v in vertices:
        attach = model.centers[v]
        length = k + 1 - model.radii[v]
        prev = attach
        for j in range(1, length):
            stem = _fresh_name(f"stem.{v}.{j}", taken)
            taken.add(stem)
            adjacency[stem] = set()
            adjacency[prev].add(stem)
            adjacency[stem].add(prev)
            prev = stem
        leaf = _fresh_name(f"leaf.{v}", taken)
        taken.add(leaf)
        adjacency[leaf] = set()
        adjacency[prev].add(leaf)
        adjacency[leaf].add(prev)
        placement[v] = leaf

    placed = set(placement.values())
    queue = [x for x in adjacency if len(adjacency[x]) <= 1 and x not in placed]
    while queue:
        x = queue.pop()
        if x not in adjacency or x in placed or len(adjacency[x]) > 1:
            continue
        if len(adjacency) == 1:
            break
        for y in adjacency.pop(x):
            adjacency[y].discard(x)
            if len(adjacency[y]) <= 1 and y not in placed:
                queue.append(y)

    nodes = sorted(adjacency)
    edges = sorted(
        (x, y) for x in adjacency for y in adjacency[x] if x < y
    )
    host = Tree.build(nodes, edges)
    return LeafRoot.build(host, 2 * k + 2, placement)


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

    best: int | None = None
    for host in trees_with_leaf_count(num, max_nodes):
        leaf_dist = {leaf: distances_from(host, leaf) for leaf in host.leaves()}
        limit = max_k if max_k is not None else _max_relevant_k(leaf_dist)
        if best is not None:
            limit = min(limit, best - 1)
        if limit < 1:
            break
        found = _best_k_on_host(graph, host, limit, leaf_dist)
        if found is not None:
            best = found
            if best == 1:
                break
    return best


def _max_relevant_k(leaf_dist: dict[str, dict[str, int]]) -> int:
    """The largest leaf-to-leaf distance (at least 1), from the BFS map of every leaf."""
    return max([1] + [dist[x] for dist in leaf_dist.values() for x in leaf_dist])


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
    lines = [f"graph {name} {{", f'  label="k = {root.k}";']
    for x in root.host.nodes:
        if x in by_leaf:
            lines.append(f'  "{x}" [label="{x} ({by_leaf[x]})", shape=box];')
        else:
            lines.append(f'  "{x}";')
    for u, v in root.host.edges:
        lines.append(f'  "{u}" -- "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
