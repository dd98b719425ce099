"""The chordal graphs on a few vertices, up to isomorphism, and their leaf ranks.

Every chordal graph has a simplicial vertex (Dirac 1961), whose neighbourhood
is a clique and whose removal leaves a chordal graph.  So joining one new
vertex to each clique (the empty one included) of each chordal graph on n - 1
vertices reaches every chordal graph on n vertices; a canonical form keeps one
graph per isomorphism class.

A graph here is a tuple of adjacency bit masks over vertices 0..n-1.  The
canonical form is the least relabelled mask tuple over the leaves of an
individualization-refinement search: colour refinement splits the vertices by
their neighbour counts in each cell, and the search individualizes each vertex
of the first cell that is not a single vertex, one per twin class.  Swapping two
twins is an automorphism that fixes every vertex individualized so far, so the
twins skipped lead to the same leaves.

:func:`leaf_rank_census` runs :func:`~leafpower.roots.brute_force_leaf_rank`
on every such graph in one process, so its searches over the same number of
vertices read the hosts that ``enumtrees._hosts`` built for the first of them.
"""

from __future__ import annotations

from typing import Iterator

from .graphs import Graph, graph_to_json_obj
from .roots import brute_force_leaf_rank

Masks = tuple[int, ...]


def _refine(adj: Masks, cells: list[list[int]]) -> list[list[int]]:
    """The coarsest equitable refinement of the ordered partition ``cells``.

    A cell splits by each vertex's count of neighbours in every cell, the parts
    ordered by those counts, so the result depends only on the graph and the
    input partition, not on the vertex numbers.
    """
    while True:
        cell_masks = [sum(1 << v for v in cell) for cell in cells]
        refined = []
        for cell in cells:
            keyed: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                key = tuple(bin(adj[v] & mask).count("1") for mask in cell_masks)
                keyed.setdefault(key, []).append(v)
            refined.extend(keyed[key] for key in sorted(keyed))
        if len(refined) == len(cells):
            return cells
        cells = refined


def _twins(adj: Masks, u: int, v: int) -> bool:
    """Whether ``N(u) - {v} = N(v) - {u}``, so that swapping u and v is an automorphism."""
    return adj[u] & ~(1 << v) == adj[v] & ~(1 << u)


def _canonical_form(adj: Masks) -> Masks:
    """The adjacency masks of ``adj`` relabelled to the least leaf of the search."""

    def search(cells: list[list[int]]) -> Masks:
        cells = _refine(adj, cells)
        at = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
        if at is None:
            label = {cell[0]: i for i, cell in enumerate(cells)}
            return tuple(
                sum(1 << label[w] for w in range(len(adj)) if adj[v] >> w & 1)
                for v in (cell[0] for cell in cells)
            )
        tried: list[int] = []
        for v in cells[at]:
            if not any(_twins(adj, u, v) for u in tried):
                tried.append(v)
        return min(
            search(cells[:at] + [[v], [u for u in cells[at] if u != v]] + cells[at + 1:])
            for v in tried
        )

    form = search([list(range(len(adj)))])
    del search  # it refers to itself: a reference cycle that only the collector would free
    return form


def _cliques(adj: Masks, clique: int, candidates: int) -> Iterator[int]:
    """``clique`` and every clique that adds vertices of ``candidates`` to it, as vertex masks.

    Every vertex of ``candidates`` must be adjacent to all of ``clique``; all
    vertices and the empty clique give every clique, the empty one included.
    """
    yield clique
    while candidates:
        v = candidates.bit_length() - 1
        candidates &= ~(1 << v)
        yield from _cliques(adj, clique | 1 << v, candidates & adj[v])


def _graph(adj: Masks) -> Graph:
    """The graph of the masks, its vertices named 0..n-1 by index."""
    names = [str(v) for v in range(len(adj))]
    edges = [(names[u], names[v]) for u in range(len(adj)) for v in range(u) if adj[u] >> v & 1]
    return Graph.build(names, edges)


def chordal_graphs(max_vertices: int) -> Iterator[list[Graph]]:
    """For n = 1..``max_vertices``, one graph per isomorphism class of chordal graphs on n vertices.

    Each graph is the canonical form of its class, with vertices named 0..n-1,
    and each list is in the order of those forms, so it is the same on every run.
    """
    if max_vertices < 1:
        raise ValueError("max_vertices must be at least 1")
    forms: list[Masks] = [()]
    for n in range(max_vertices):
        grown = set()
        for adj in forms:
            for clique in _cliques(adj, 0, (1 << n) - 1):
                joined = tuple(m | (1 << n if clique >> v & 1 else 0) for v, m in enumerate(adj))
                grown.add(_canonical_form(joined + (clique,)))
        forms = sorted(grown)
        yield [_graph(adj) for adj in forms]


def leaf_rank_census(max_vertices: int, max_nodes: int, max_k: int | None = None) -> dict:
    """The brute-force leaf rank of every chordal graph on 1..``max_vertices`` vertices.

    One record per vertex count: the number of chordal graphs, how many have
    each rank, how many are unknown within the bounds, the largest rank found
    and the graphs that have it.  A rank is the smallest k with a k-leaf root
    on at most ``max_nodes`` tree nodes (and k <= ``max_k``, when given), so it
    is proved as an upper bound by a root that ``verify_leaf_root`` re-checked;
    a larger tree might still give a smaller k, and "unknown" proves nothing.
    """
    if max_nodes < max_vertices:
        raise ValueError("max_nodes must be at least max_vertices")
    rows = []
    for n, graphs in enumerate(chordal_graphs(max_vertices), 1):
        ranks = [brute_force_leaf_rank(g, max_nodes, max_k) for g in graphs]
        found = [rank for rank in ranks if rank is not None]
        largest = max(found, default=None)
        extremal = [g for g, rank in zip(graphs, ranks) if rank is not None and rank == largest]
        rows.append(
            {
                "vertices": n,
                "graphs": len(graphs),
                "ranks": {str(k): found.count(k) for k in sorted(set(found))},
                "unknown": len(graphs) - len(found),
                "largest_rank": largest,
                "extremal": [graph_to_json_obj(g) for g in extremal],
            }
        )
    return {"max_nodes": max_nodes, "max_k": max_k, "census": rows}
