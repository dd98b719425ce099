"""Immutable free trees with the path / distance / median toolkit.

Tree nodes are strings, as with graphs.  All distances are edge counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .graphs import Edge, _parse_vertices_and_edges, dot_graph, dot_quote
from .jsonio import Record, string_pairs, strings


@dataclass(frozen=True)
class Tree:
    """A finite free (unrooted) tree."""

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]

    @staticmethod
    def build(nodes: Iterable[str], edges: Iterable[tuple[str, str]]) -> "Tree":
        ns = tuple(nodes)
        if not ns:
            raise ValueError("a tree needs at least one node")
        ns, es = _parse_vertices_and_edges(ns, edges, "node")
        if len(es) != len(ns) - 1:
            raise ValueError(f"a tree on {len(ns)} nodes needs {len(ns) - 1} edges, got {len(es)}")
        tree = Tree(nodes=ns, edges=es)
        if len(tree._parent) != len(ns):
            raise ValueError("edges do not connect all nodes")
        return tree

    @cached_property
    def _adjacency(self) -> Mapping[str, tuple[str, ...]]:
        """Neighbours in ascending order: sorted edges list each (y, x) with y < x before (x, z)."""
        adj: dict[str, list[str]] = {v: [] for v in self.nodes}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(nbrs) for v, nbrs in adj.items()}

    @cached_property
    def _parent(self) -> Mapping[str, str | None]:
        """Each reachable node's parent in a breadth-first search from ``nodes[0]``.

        The root maps to None.  Every path question climbs this map, so a tree
        is searched once; ``build`` checks connectivity by its size.
        """
        parent: dict[str, str | None] = {self.nodes[0]: None}
        order = [self.nodes[0]]
        for x in order:
            for y in self._adjacency[x]:
                if y not in parent:
                    parent[y] = x
                    order.append(y)
        return parent

    @property
    def n(self) -> int:
        return len(self.nodes)

    def neighbors(self, v: str) -> tuple[str, ...]:
        return self._adjacency[v]

    def degree(self, v: str) -> int:
        return len(self._adjacency[v])

    def leaves(self) -> tuple[str, ...]:
        """All nodes of degree at most one, in node order (a lone node counts)."""
        return tuple(v for v in self.nodes if len(self._adjacency[v]) <= 1)


def tree_path(tree: Tree, u: str, v: str) -> tuple[str, ...]:
    """The unique path from u to v, inclusive of both endpoints.

    Climbs from u to the root, then from v until that chain is met.
    """
    parent = tree._parent
    if u not in parent or v not in parent:
        raise ValueError("path endpoints must be tree nodes")
    up = [u]
    while (p := parent[up[-1]]) is not None:
        up.append(p)
    position = {x: i for i, x in enumerate(up)}
    down = [v]
    while down[-1] not in position:
        down.append(parent[down[-1]])
    return tuple(up[: position[down[-1]]]) + tuple(reversed(down))


def distance(tree: Tree, u: str, v: str) -> int:
    return len(tree_path(tree, u, v)) - 1


def distances_from(tree: Tree, start: str, limit: int | None = None) -> dict[str, int]:
    """Distances from ``start`` to every node, by breadth-first search.

    With a ``limit`` the search stops there and the map holds only the nodes
    within that distance.
    """
    if start not in tree._adjacency:
        raise ValueError(f"node {start!r} is not in the tree")
    if limit is not None and limit < 0:
        raise ValueError("limit must be nonnegative")
    dist = {start: 0}
    frontier = [start]
    d = 0
    while frontier and d != limit:
        d += 1
        nxt = []
        for x in frontier:
            for y in tree.neighbors(x):
                if y not in dist:
                    dist[y] = d
                    nxt.append(y)
        frontier = nxt
    return dist


def pairwise_distances(tree: Tree, nodes: Iterable[str]) -> dict[str, dict[str, int]]:
    """The distance between every two of ``nodes``, each node at 0 from itself.

    One pass over the parent map gives every depth; a second, leaves first,
    carries each group of listed nodes up to the parent of the node holding
    it.  Where two groups meet, at p, every pair (a, b) across them is
    depth(a) + depth(b) - 2 depth(p) apart.  The cost is
    O(|tree| + |nodes|^2), where one search per node would cost O(|tree|) each.
    """
    parent = tree._parent
    dist = {v: {v: 0} for v in nodes}
    for v in dist:
        if v not in parent:
            raise ValueError(f"node {v!r} is not in the tree")
    depth: dict[str, int] = {}
    for x, p in parent.items():
        depth[x] = 0 if p is None else depth[p] + 1

    def meet(low: list[str], high: list[str], at: str) -> None:
        base = 2 * depth[at]
        for a in low:
            row, da = dist[a], depth[a] - base
            for b in high:
                row[b] = dist[b][a] = da + depth[b]

    groups: dict[str, list[str]] = {}
    for x in reversed(parent):
        group = groups.pop(x, [])
        if x in dist:
            meet([x], group, x)
            group.append(x)
        p = parent[x]
        if not group or p is None:
            continue
        held = groups.setdefault(p, group)
        if held is not group:
            meet(group, held, p)
            held.extend(group)
    return dist


def ball(tree: Tree, center: str, radius: int) -> frozenset[str]:
    """All nodes at distance at most ``radius`` from ``center``."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    return frozenset(distances_from(tree, center, radius))


def median(tree: Tree, u: str, v: str, w: str) -> str:
    """The unique node lying on all three pairwise paths among u, v, w."""
    puv = tree_path(tree, u, v)
    puw = tree_path(tree, u, w)
    m = puv[0]
    for a, b in zip(puv, puw):
        if a != b:
            break
        m = a
    return m


def connector(tree: Tree, leaf: str) -> str:
    """The first node of degree at least three on the walk inward from ``leaf``."""
    if tree.degree(leaf) > 1:
        raise ValueError(f"{leaf!r} is not a leaf")
    prev = None
    cur = leaf
    while tree.degree(cur) < 3:
        nxt = [x for x in tree.neighbors(cur) if x != prev]
        if not nxt:
            raise ValueError("no connector: tree is a path")
        prev, cur = cur, nxt[0]
    return cur


def is_connected_subset(tree: Tree, subset: Iterable[str]) -> bool:
    """Whether ``subset`` induces a (nonempty) subtree.

    Each component of the induced forest has exactly one member whose parent
    lies outside the subset (its node nearest the root), so the subset is
    connected exactly when one member has such a parent.
    """
    sub = frozenset(subset)
    parent = tree._parent
    for v in sub:
        if v not in parent:
            raise ValueError(f"node {v!r} is not in the tree")
    return sum(parent[v] not in sub for v in sub) == 1


def connecting_path(tree: Tree, a: Iterable[str], b: Iterable[str]) -> tuple[str, ...]:
    """The shortest path whose first node is in subtree ``a`` and last in subtree ``b``.

    Both arguments must induce subtrees.  If they intersect the connecting path
    is not well defined and a ValueError is raised.  When they are disjoint the
    result is unique: first node in ``a``, last node in ``b``, interior disjoint
    from both.
    """
    a_set = frozenset(a)
    b_set = frozenset(b)
    if not is_connected_subset(tree, a_set) or not is_connected_subset(tree, b_set):
        raise ValueError("arguments must induce nonempty subtrees")
    if a_set & b_set:
        raise ValueError("subtrees not disjoint")
    path = tree_path(tree, next(iter(a_set)), next(iter(b_set)))
    # The path meets subtree a in a prefix and subtree b in a suffix.
    in_a = sum(x in a_set for x in path)
    in_b = sum(x in b_set for x in path)
    return path[in_a - 1 : len(path) - in_b + 1]


def tree_to_json_obj(tree: Tree) -> dict:
    return {
        "nodes": list(tree.nodes),
        "edges": [[u, v] for u, v in tree.edges],
    }


def tree_from_json_obj(obj: object, field: str = "") -> Tree:
    """Read a tree; ValueError names the malformed field under ``field``."""
    rec = Record(obj, field, "nodes", "edges")
    return Tree.build(rec.get("nodes", strings), rec.get("edges", string_pairs))


def tree_to_dot(tree: Tree, *, name: str = "T") -> str:
    return dot_graph(name, [f"  {dot_quote(v)};" for v in tree.nodes], tree.edges)
