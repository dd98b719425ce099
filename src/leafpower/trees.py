"""Immutable free trees with the path / distance / median toolkit.

Tree nodes are strings, as with graphs.  All distances are edge counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .graphs import Edge, dot_graph, dot_quote, normalize_edge
from .jsonio import Record, string_pairs, strings


@dataclass(frozen=True)
class Tree:
    """A finite free (unrooted) tree."""

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]

    @staticmethod
    def build(nodes: Iterable[str], edges: Iterable[tuple[str, str]]) -> "Tree":
        ns = tuple(nodes)
        seen = set()
        for v in ns:
            if not isinstance(v, str):
                raise ValueError(f"node {v!r} is not a string")
            if v in seen:
                raise ValueError(f"duplicate node {v!r}")
            seen.add(v)
        if not ns:
            raise ValueError("a tree needs at least one node")
        es = set()
        for u, v in edges:
            if u not in seen or v not in seen:
                raise ValueError(f"edge ({u!r}, {v!r}) has an endpoint outside the node set")
            es.add(normalize_edge(u, v))
        if len(es) != len(ns) - 1:
            raise ValueError(f"a tree on {len(ns)} nodes needs {len(ns) - 1} edges, got {len(es)}")
        tree = Tree(nodes=ns, edges=tuple(sorted(es)))
        if len(tree._parent) != len(ns):
            raise ValueError("edges do not connect all nodes")
        return tree

    @cached_property
    def _adjacency(self) -> Mapping[str, tuple[str, ...]]:
        adj: dict[str, list[str]] = {v: [] for v in self.nodes}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}

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


def distances_from(tree: Tree, start: str) -> dict[str, int]:
    """Distances from ``start`` to every node, by breadth-first search."""
    if start not in tree._adjacency:
        raise ValueError(f"node {start!r} is not in the tree")
    dist = {start: 0}
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for x in frontier:
            for y in tree.neighbors(x):
                if y not in dist:
                    dist[y] = d
                    nxt.append(y)
        frontier = nxt
    return dist


def ball(tree: Tree, center: str, radius: int) -> frozenset[str]:
    """All nodes at distance at most ``radius`` from ``center``."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    return frozenset(v for v, d in distances_from(tree, center).items() if d <= radius)


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
