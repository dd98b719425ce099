"""Enumeration of unlabeled trees and symmetry helpers for search pruning.

The heavy lifting (generating one tree per isomorphism class) is delegated to
networkx; this module wraps the results in :class:`~leafpower.trees.Tree`,
filters by leaf count (before building) or topology shape, and computes leaf
orbits under tree automorphisms via rooted canonical forms.
"""

from __future__ import annotations

from typing import Iterator

import networkx as nx

from .trees import Tree


def _networkx_trees(order: int) -> Iterator[nx.Graph]:
    """One networkx tree per isomorphism class with ``order`` nodes 0..order-1."""
    if order < 1:
        raise ValueError("order must be at least 1")
    if order <= 2:
        yield nx.path_graph(order)
        return
    yield from nx.nonisomorphic_trees(order)


def _named_tree(g: nx.Graph) -> Tree:
    """The networkx tree ``g`` as a Tree, its nodes named n0.. in node order."""
    nodes = sorted(g.nodes())
    rename = {x: f"n{i}" for i, x in enumerate(nodes)}
    return Tree.build(
        [rename[x] for x in nodes],
        [(rename[x], rename[y]) for x, y in g.edges()],
    )


def nonisomorphic_trees(order: int) -> Iterator[Tree]:
    """One tree per isomorphism class with ``order`` nodes, named n0..n{order-1}."""
    for g in _networkx_trees(order):
        yield _named_tree(g)


def trees_with_leaf_count(num_leaves: int, max_nodes: int) -> Iterator[Tree]:
    """All tree classes with exactly ``num_leaves`` leaves and at most ``max_nodes`` nodes.

    Yielded in order of increasing node count, so a consumer looking for the
    smallest workable host can stop early.  Leaves are counted from the
    networkx degrees, so only the trees yielded are built.
    """
    if num_leaves < 1:
        raise ValueError("need at least one leaf")
    for order in range(num_leaves, max_nodes + 1):
        for g in _networkx_trees(order):
            if sum(d <= 1 for _, d in g.degree()) == num_leaves:
                yield _named_tree(g)


def topology_trees(num_leaves: int, max_internal: int) -> Iterator[Tree]:
    """Tree classes with ``num_leaves`` leaves and no degree-2 nodes.

    Every internal node has degree at least three, so these are exactly the
    shapes that remain after suppressing subdivision nodes.  ``max_internal``
    bounds the number of internal nodes.  They are the trees of
    :func:`trees_with_leaf_count` without a degree-2 node, in the same order;
    both filters read the networkx degrees, so only the trees yielded are built.

    Counting degrees, ``L + 3I <= 2(L + I - 1)``, so such a tree with L leaves
    has at most ``L - 2`` internal nodes, and larger orders are never generated.
    """
    if num_leaves < 1:
        raise ValueError("need at least one leaf")
    if max_internal < 0:
        raise ValueError("max_internal must be nonnegative")
    internal = min(max_internal, max(num_leaves - 2, 0))
    for order in range(num_leaves, num_leaves + internal + 1):
        for g in _networkx_trees(order):
            degrees = [d for _, d in g.degree()]
            if sum(d <= 1 for d in degrees) == num_leaves and 2 not in degrees:
                yield _named_tree(g)


def rooted_canonical_form(tree: Tree, root: str) -> tuple:
    """A nested-tuple canonical form of the tree rooted at ``root``.

    Two rootings yield equal forms exactly when some automorphism of the tree
    maps one root to the other.
    """
    if root not in set(tree.nodes):
        raise ValueError(f"root {root!r} is not in the tree")

    def canon(v: str, parent: str | None) -> tuple:
        return tuple(sorted(canon(w, v) for w in tree.neighbors(v) if w != parent))

    return canon(root, None)


def leaf_orbits(tree: Tree) -> list[tuple[str, ...]]:
    """Leaves grouped into automorphism orbits, each orbit sorted, orbits sorted."""
    groups: dict[tuple, list[str]] = {}
    for leaf in tree.leaves():
        groups.setdefault(rooted_canonical_form(tree, leaf), []).append(leaf)
    return sorted(tuple(sorted(g)) for g in groups.values())


def leaf_orbit_representatives(tree: Tree) -> list[str]:
    """The smallest-named leaf of each automorphism orbit."""
    return sorted(orbit[0] for orbit in leaf_orbits(tree))
