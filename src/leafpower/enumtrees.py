"""Enumeration of unlabeled trees and symmetry helpers for search pruning.

One tree per isomorphism class comes from the free-tree algorithm of Wright,
Richmond, Odlyzko and McKay ("Constant time generation of free trees", SIAM
J. Comput. 15, 1986).  It walks level sequences of rooted trees with the
successor step of Beyer and Hedetniemi ("Constant time generation of rooted
trees", SIAM J. Comput. 9, 1980) and keeps one rooting per free tree.  The
sequences, and the trees' node numbering, are those of networkx's
``nonisomorphic_trees``.  Trees are filtered by leaf count or topology shape
on integer degree counts, so the iterators build only the trees they yield
as :class:`~leafpower.trees.Tree`.  A tree's leaf orbits under automorphisms
come from rooted canonical forms, memoized per directed edge.  A leaf-root
search reads a host's leaves, leaf distances and orbit representatives as
integer tables (``_host_tables``) taken from its tree by
:func:`~leafpower.trees.pairwise_distances` and :func:`leaf_orbits`.  They
depend only on the leaf count and the order, so ``_hosts`` builds them once
per process, for the searches of a census or of repeated rounds over graphs
with the same number of vertices; nothing that depends on a graph is kept.
"""

from __future__ import annotations

import functools
from typing import Iterator, Sequence

from .trees import Tree, pairwise_distances

#: A host's ``_host_tables`` frozen: its leaves, leaf-by-leaf distances and first-vertex choices.
HostTables = tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]


def _free_trees(order: int) -> Iterator[list[int]]:
    """One parent array per isomorphism class of trees with ``order`` nodes.

    Node ``i`` is position ``i`` of the tree's level sequence; its parent is
    the nearest earlier node one level up, and the root's parent is -1.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if order == 1:
        yield [-1]
        return
    # The path rooted at its centre is the first sequence; the star is the last.
    levels: list[int] | None = list(range(order // 2 + 1)) + list(range(1, (order + 1) // 2))
    while levels is not None:
        levels = _next_free_tree(levels)
        parent = [-1] * order
        last = [0] * order
        for i in range(1, order):
            level = levels[i]
            parent[i] = last[level - 1]
            last[level] = i
        yield parent
        levels = _next_rooted_tree(levels)


def _next_rooted_tree(levels: list[int], p: int | None = None) -> list[int] | None:
    """The Beyer–Hedetniemi successor of a level sequence, or None after the star.

    ``p`` is the position to advance, by default the last one deeper than level 1.
    """
    if p is None:
        p = len(levels) - 1
        while levels[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    result = list(levels)
    for i in range(p, len(result)):
        result[i] = result[i - p + q]
    return result


def _split(levels: list[int]) -> tuple[list[int], list[int]]:
    """The root's first subtree, and the tree without it, as level sequences."""
    try:
        m = levels.index(1, 2)
    except ValueError:
        m = len(levels)
    return [x - 1 for x in levels[1:m]], [0, *levels[m:]]


def _next_free_tree(levels: list[int]) -> list[int]:
    """``levels`` if it is the canonical rooting of a free tree, else the next one that is.

    A rooting is canonical when the root's first subtree is lower than the
    rest of the tree or, at equal height, no larger, and at equal size not
    lexicographically later.
    """
    left, rest = _split(levels)
    left_height, rest_height = max(left), max(rest)
    if rest_height > left_height or (
        rest_height == left_height
        and (len(left), left) <= (len(rest), rest)
    ):
        return levels
    p = len(left)
    successor = _next_rooted_tree(levels, p)
    if levels[p] > 2:
        height = max(_split(successor)[0])
        successor[-(height + 1):] = range(1, height + 2)
    return successor


def _degrees(parent: list[int]) -> list[int]:
    degree = [1] * len(parent)
    degree[0] = 0
    for i in range(1, len(parent)):
        degree[parent[i]] += 1
    return degree


def _tree(parent: Sequence[int]) -> Tree:
    """The tree of a parent array, its nodes named n0.. by index."""
    names = [f"n{i}" for i in range(len(parent))]
    return Tree.build(names, [(names[p], names[i]) for i, p in enumerate(parent) if i])


def _leaf_count(degree: list[int]) -> int:
    return degree.count(0) + degree.count(1)


def _orders(num_leaves: int, max_order: int) -> range:
    """The orders up to ``max_order`` that a tree with ``num_leaves`` leaves can have."""
    if num_leaves == 1:
        return range(1, min(max_order, 1) + 1)
    # A tree on n >= 3 nodes has at most n - 1 leaves.
    return range(num_leaves if num_leaves == 2 else num_leaves + 1, max_order + 1)


def nonisomorphic_trees(order: int) -> Iterator[Tree]:
    """One tree per isomorphism class with ``order`` nodes, named n0..n{order-1}."""
    for parent in _free_trees(order):
        yield _tree(parent)


def trees_with_leaf_count(num_leaves: int, max_nodes: int) -> Iterator[Tree]:
    """All tree classes with exactly ``num_leaves`` leaves and at most ``max_nodes`` nodes.

    Yielded in order of increasing node count, so a consumer looking for the
    smallest workable host can stop early.  Only the lone node has one leaf.
    Leaves are counted from the degrees of the parent array, so only the trees
    yielded are built.
    """
    for parent in _parents_with_leaf_count(num_leaves, max_nodes):
        yield _tree(parent)


def _parents_with_leaf_count(num_leaves: int, max_nodes: int) -> Iterator[list[int]]:
    """The parent arrays behind :func:`trees_with_leaf_count`, in the same order."""
    if num_leaves < 1:
        raise ValueError("need at least one leaf")
    for order in _orders(num_leaves, max_nodes):
        yield from _parents_of_order(num_leaves, order)


def _parents_of_order(num_leaves: int, order: int) -> Iterator[list[int]]:
    """The parent arrays of :func:`_free_trees` with ``order`` nodes and ``num_leaves`` leaves."""
    for parent in _free_trees(order):
        if _leaf_count(_degrees(parent)) == num_leaves:
            yield parent


@functools.cache
def _hosts(num_leaves: int, order: int) -> tuple[tuple[tuple[int, ...], HostTables], ...]:
    """Each parent array of :func:`_parents_of_order`, in order, with its :func:`_host_tables`.

    Everything is a tuple, so no caller can change what the next one reads;
    each host's tree is dropped once its tables are read.  The hosts and their
    tables depend on nothing but the key, so they are built once per process,
    on first use, and every later search over the same leaf count and order
    reads them.  The package never clears the memo: it holds every (leaf
    count, order) a search has asked for, so it grows with the largest
    ``--max-nodes`` of the process.
    """
    hosts = []
    for parent in _parents_of_order(num_leaves, order):
        leaves, dist, firsts = _host_tables(parent)
        hosts.append((tuple(parent), (tuple(leaves), tuple(map(tuple, dist)), tuple(firsts))))
    return tuple(hosts)


def topology_trees(num_leaves: int, max_internal: int) -> Iterator[Tree]:
    """Tree classes with ``num_leaves`` leaves and no degree-2 nodes.

    Every internal node has degree at least three, so these are exactly the
    shapes that remain after suppressing subdivision nodes.  ``max_internal``
    bounds the number of internal nodes.  They are the parent arrays of
    :func:`_parents_with_leaf_count` without a degree-2 node, in the same
    order, so only the trees yielded are built.

    Counting degrees, ``L + 3I <= 2(L + I - 1)``, so such a tree with L leaves
    has at most ``L - 2`` internal nodes, and larger orders are never generated.
    """
    if max_internal < 0:
        raise ValueError("max_internal must be nonnegative")
    internal = min(max_internal, max(num_leaves - 2, 0))
    for parent in _parents_with_leaf_count(num_leaves, num_leaves + internal):
        if 2 not in _degrees(parent):
            yield _tree(parent)


def _host_tables(parent: list[int]) -> tuple[list[int], list[list[int]], list[int]]:
    """The integer tables a leaf-root search reads from a parent array of :func:`_free_trees`.

    These are the leaf indices, ascending; the leaf-by-leaf distance table,
    indexed by position in that list; and the positions of the first-vertex
    choices, the lowest-indexed leaf of each automorphism orbit, ascending.
    Node ``i`` is ``n{i}`` of :func:`_tree`, and all three are read from that
    tree: one :func:`~leafpower.trees.pairwise_distances` call and one
    :func:`leaf_orbits` call.
    """
    tree = _tree(parent)
    names = tree.leaves()
    pair = pairwise_distances(tree, names)
    position = {name: i for i, name in enumerate(names)}
    firsts = sorted(min(map(position.__getitem__, orbit)) for orbit in leaf_orbits(tree))
    return [int(v[1:]) for v in names], [[pair[a][b] for b in names] for a in names], firsts


def leaf_orbits(tree: Tree) -> list[tuple[str, ...]]:
    """Leaves grouped into automorphism orbits, each orbit sorted, orbits sorted.

    Two leaves share an orbit exactly when the tree rooted at each has the same
    canonical form, the sorted tuple of its children's forms.  Forms are
    memoized per directed edge, so rooting the tree at every leaf computes each
    edge's form once.
    """
    memo: dict[tuple[str, str | None], tuple] = {}

    def form(v: str, parent: str | None) -> tuple:
        key = (v, parent)
        found = memo.get(key)
        if found is None:
            found = memo[key] = tuple(sorted([form(w, v) for w in tree.neighbors(v) if w != parent]))
        return found

    groups: dict[tuple, list[str]] = {}
    for leaf in tree.leaves():
        groups.setdefault(form(leaf, None), []).append(leaf)
    del form  # it refers to itself: a reference cycle that only the collector would free
    return sorted(tuple(sorted(orbit)) for orbit in groups.values())


def leaf_orbit_representatives(tree: Tree) -> list[str]:
    """The smallest-named leaf of each automorphism orbit."""
    return sorted(orbit[0] for orbit in leaf_orbits(tree))
