"""Immutable free trees with the path and distance toolkit and their leaf orbits.

Tree nodes are strings, as with graphs.  Distances count edges unless exact lengths are given.

``Tree.build`` is the one way to make a tree: it parses, indexes, roots and
checks it.  Inside, a tree works on node positions, the indices into
``nodes``: one dict maps a name to its position (the shared parser's, so each
name is hashed once), and a few flat lists of positions and counts hold the
rest (each node's parent towards ``nodes[0]``, a parents-first order, the
degrees, and on demand the depths and the children).  There is no container
per node, so a tree of 87 000 nodes is a handful of objects for the cyclic
garbage collector, and every helper converts names only on the way in and out.
Only this module reads that layout; the leaf orbits, too, are found on positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import accumulate, islice, starmap
from typing import Iterable, Mapping

from .graphs import Edge, _parse_vertices_and_edges, normalize_edge
from .jsonio import Record, string_pairs, strings


@dataclass(frozen=True)
class Tree:
    """A finite free (unrooted) tree, made by :meth:`build`."""

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    #: Each node's position in ``nodes``.
    _index: dict[str, int] = field(repr=False, compare=False)
    #: Each node's degree, by position.
    _degree: list[int] = field(repr=False, compare=False)
    #: The position of each node's neighbour towards ``nodes[0]``; -1 for ``nodes[0]``.
    _parent: list[int] = field(repr=False, compare=False)
    #: Positions with every parent before its children, ``nodes[0]`` first.
    _order: list[int] = field(repr=False, compare=False)

    @staticmethod
    def build(nodes: Iterable[str], edges: Iterable[tuple[str, str]]) -> "Tree":
        """Check the tree and root it at ``nodes[0]`` by peeling leaves towards it.

        Each node holds its degree and the XOR of its neighbours' positions.  A
        leaf other than ``nodes[0]`` is peeled: its one neighbour left is that
        XOR, its parent, which loses it and is queued once it is a leaf itself.
        Each node is queued at most once and a cycle's nodes never are, so with
        n - 1 edges the other n - 1 nodes are all peeled exactly when the edges
        make a tree; both counts are checked.  The peeling order, reversed, puts
        every parent before its children.
        """
        ns = tuple(nodes)
        if not ns:
            raise ValueError("a tree needs at least one node")
        listed = list(edges)
        ns, es, index = _parse_vertices_and_edges(ns, listed, "node")
        if len(es) != len(listed):
            once: set[Edge] = set()
            for e in starmap(normalize_edge, listed):
                if e in once:
                    raise ValueError(f"edge {e} is listed twice")
                once.add(e)
        n = len(ns)
        if len(es) != n - 1:
            raise ValueError(f"a tree on {n} nodes needs {n - 1} edges, got {len(es)}")
        degree = [0] * n
        links = [0] * n
        for u, v in es:
            a, b = index[u], index[v]
            degree[a] += 1
            degree[b] += 1
            links[a] ^= b
            links[b] ^= a
        left = degree.copy()
        parent = [-1] * n
        peeled = [x for x in range(1, n) if left[x] == 1]
        for x in peeled:
            p = parent[x] = links[x]
            links[p] ^= x
            left[p] -= 1
            if left[p] == 1 and p:
                peeled.append(p)
        if len(peeled) != n - 1:
            raise ValueError("edges do not connect all nodes")
        peeled.reverse()
        return Tree(ns, es, index, degree, parent, [0, *peeled])

    @cached_property
    def _depth(self) -> list[int]:
        """Each node's distance from ``nodes[0]``, by position."""
        parent = self._parent
        depth = [0] * len(self.nodes)
        for x in islice(self._order, 1, None):
            depth[x] = depth[parent[x]] + 1
        return depth

    @cached_property
    def _children(self) -> list[int]:
        """Each node's children, by position, in one flat list.

        The list opens with n + 1 offsets: the children of x are
        ``children[children[x]:children[x + 1]]``, in parents-first order.
        """
        n, parent = len(self.nodes), self._parent
        counts = [d - 1 for d in self._degree]
        if n:
            counts[0] += 1  # nodes[0] has no parent
        children = list(accumulate(counts, initial=n + 1))
        slot = children[:n]
        children += [0] * (children[-1] - n - 1)
        for x in islice(self._order, 1, None):
            p = parent[x]
            children[slot[p]] = x
            slot[p] += 1
        return children

    @property
    def n(self) -> int:
        return len(self.nodes)

    def __contains__(self, v: object) -> bool:
        return v in self._index

    def degree(self, v: str) -> int:
        return self._degree[self._index[v]]

    def leaves(self) -> tuple[str, ...]:
        """All nodes of degree at most one, in node order (a lone node counts)."""
        return tuple([v for v, d in zip(self.nodes, self._degree) if d <= 1])


def _position(tree: Tree, v: str) -> int:
    x = tree._index.get(v)
    if x is None:
        raise ValueError(f"node {v!r} is not in the tree")
    return x


def tree_path(tree: Tree, u: str, v: str) -> tuple[str, ...]:
    """The unique path from u to v, inclusive of both endpoints.

    Climbs from the deeper end to the other's depth, then from both ends until they meet.
    """
    index = tree._index
    if u not in index or v not in index:
        raise ValueError("path endpoints must be tree nodes")
    parent, depth = tree._parent, tree._depth
    a, b = index[u], index[v]
    up, down = [a], [b]
    while depth[a] > depth[b]:
        a = parent[a]
        up.append(a)
    while depth[b] > depth[a]:
        b = parent[b]
        down.append(b)
    while a != b:
        a, b = parent[a], parent[b]
        up.append(a)
        down.append(b)
    down.pop()
    up += reversed(down)
    return tuple(map(tree.nodes.__getitem__, up))


def distance(tree: Tree, u: str, v: str) -> int:
    return len(tree_path(tree, u, v)) - 1


def distances_from(tree: Tree, start: str, limit: int | None = None) -> dict[str, int]:
    """Distances from ``start`` to every node.

    With a ``limit`` the search stops there and the map holds only the nodes
    within that distance, found level by level: the children of the last
    level's nodes, and one step further up from ``start``.  Without one, a node
    on the path from ``start`` to ``nodes[0]`` is counted along it and any other
    is one further than its parent, in one parents-first pass.
    """
    s = _position(tree, start)
    if limit is not None and limit < 0:
        raise ValueError("limit must be nonnegative")
    parent, names = tree._parent, tree.nodes
    if limit is None:
        dist = [-1] * len(names)
        x, d = s, 0
        while x >= 0:
            dist[x] = d
            x, d = parent[x], d + 1
        for x in tree._order:
            if dist[x] < 0:
                dist[x] = dist[parent[x]] + 1
        return dict(zip(names, dist))
    children = tree._children
    found = {start: 0}
    level: list[int] = []
    up, below = s, -1
    d = 0
    while d != limit and (level or up >= 0):
        d += 1
        nxt: list[int] = []
        for x in level:
            nxt += children[children[x] : children[x + 1]]
        if up >= 0:
            for y in children[children[up] : children[up + 1]]:
                if y != below:
                    nxt.append(y)
            up, below = parent[up], up
            if up >= 0:
                found[names[up]] = d
        for y in nxt:
            found[names[y]] = d
        level = nxt
    return found


def pairwise_distances(
    tree: Tree, nodes: Iterable[str], lengths: Mapping[Edge, int | Fraction] | None = None
) -> dict[str, dict[str, int | Fraction]]:
    """The distance between every two of ``nodes``, each node at 0 from itself.

    With ``lengths``, exact int or Fraction lengths keyed by normalized edge, a
    distance sums the lengths along the path.  Each listed node starts a group;
    one pass over the nodes, children first, carries each group up to the parent
    of the node holding it.  Where two groups meet, at p, every pair (a, b)
    across them is depth(a) + depth(b) - 2 depth(p) apart.  The cost is
    O(|tree| + |nodes|^2), where one search per node would cost O(|tree|) each.
    """
    dist = {v: {v: 0} for v in nodes}
    names, parent = tree.nodes, tree._parent
    rows = {_position(tree, v): row for v, row in dist.items()}
    held: list[list[int] | None] = [None] * len(names)
    for x in rows:
        held[x] = [x]
    depth: list[int | Fraction]
    if lengths is None:
        depth = tree._depth
    else:
        depth = [0] * len(names)
        for x in islice(tree._order, 1, None):
            u, w = names[x], names[parent[x]]
            depth[x] = depth[parent[x]] + lengths[(u, w) if u < w else (w, u)]

    for x in reversed(tree._order):
        group = held[x]
        if group is None or (p := parent[x]) < 0:
            continue
        above = held[p]
        if above is None:
            held[p] = group
            continue
        base = 2 * depth[p]
        for a in group:
            row, name, da = rows[a], names[a], depth[a] - base
            for b in above:
                row[names[b]] = rows[b][name] = da + depth[b]
        above += group
    return dist


def leaf_orbits(tree: Tree) -> list[tuple[str, ...]]:
    """Leaves grouped into automorphism orbits, each orbit sorted, orbits sorted.

    Two leaves share an orbit exactly when the tree rooted at each has the same
    canonical form.  A form is a flat int id: one dict gives each sorted tuple
    of child ids the next free int (Aho, Hopcroft and Ullman 1974), so forms
    are never nested and compare in O(1); a leaf's id is that of ``()``, 0.
    Each edge's two forms are made once, on positions: children first,
    ``down[x]`` is x's subtree; parents first, ``up[x]`` is the rest of the tree
    seen from x.  Each node's neighbour ids are sorted once, and ``up`` of a
    child x is that list without ``down[x]``, made once for all children with
    the same ``down``.  The tree rooted at leaf x is ``down[0]`` if x is
    ``nodes[0]``, else the id of ``(up[x],)``.
    """
    parent, children, order = tree._parent, tree._children, tree._order
    ids: dict[tuple[int, ...], int] = {(): 0}
    down = [0] * len(tree.nodes)
    for x in reversed(order):
        lo, hi = children[x], children[x + 1]
        if lo != hi:
            down[x] = ids.setdefault(tuple(sorted([down[y] for y in children[lo:hi]])), len(ids))
    up = [0] * len(down)
    for p in order:
        lo, hi = children[p], children[p + 1]
        if lo == hi:
            continue
        kids = children[lo:hi]
        near = [down[y] for y in kids]
        if parent[p] >= 0:
            near.append(up[p])
        near.sort()
        made: dict[int, int] = {}
        for x in kids:
            d = down[x]
            u = made.get(d)
            if u is None:
                i = near.index(d)
                u = made[d] = ids.setdefault(tuple(near[:i] + near[i + 1 :]), len(ids))
            up[x] = u
    groups: dict[int, list[str]] = {}
    for x, (name, d) in enumerate(zip(tree.nodes, tree._degree)):
        if d <= 1:
            groups.setdefault(ids.setdefault((up[x],), len(ids)) if x else down[0], []).append(name)
    return sorted(tuple(sorted(orbit)) for orbit in groups.values())


def ball(tree: Tree, center: str, radius: int) -> frozenset[str]:
    """All nodes at distance at most ``radius`` from ``center``."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    return frozenset(distances_from(tree, center, radius))


def is_connected_subset(tree: Tree, subset: Iterable[str]) -> bool:
    """Whether ``subset`` induces a (nonempty) subtree.

    Each component of the induced forest has exactly one member whose parent
    lies outside the subset (its node nearest the root), so the subset is
    connected exactly when one member has such a parent.
    """
    at = {_position(tree, v) for v in frozenset(subset)}
    parent = tree._parent
    return sum(parent[x] not in at for x in at) == 1


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
