"""k-leaf roots: verification, conversions to and from ball models, and a
brute-force leaf-rank search for tiny graphs.

A k-leaf root of a graph places every vertex on a distinct leaf of a host tree
so that two vertices are adjacent exactly when their leaves are within
distance k.  The smallest workable k is the graph's leaf rank.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator

from . import exactlp
from .enumtrees import HostTables, _hosts, _orders, _tree
from .graphs import Edge, Graph, dot_graph, dot_quote, is_chordal, normalize_edge
from .jsonio import Record, integer, string_map
from .models import RSModel, rs_model_violations
from .trees import (
    Tree,
    pairwise_distances,
    tree_from_json_obj,
    tree_path,
)


@dataclass(frozen=True)
class LeafRoot:
    """A host tree, a distance threshold k, and a vertex-to-leaf bijection.

    ``lengths`` is None for unit edges; otherwise it holds an exact positive
    int or Fraction length per host edge, keyed by normalized edge.
    """

    host: Tree
    k: int
    placement: dict[str, str]
    lengths: dict[Edge, int | Fraction] | None = None

    @staticmethod
    def build(host: Tree, k: int, placement: dict[str, str], lengths=None) -> "LeafRoot":
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise ValueError("k must be a positive integer")
        if lengths is not None:
            lengths = _edge_lengths(lengths.items())
            if set(lengths) != set(host.edges):
                raise ValueError("weights must cover exactly the host edges")
            for e, w in lengths.items():
                exactlp._check_number(w, f"weight of edge {e}")
                if w <= 0:
                    raise ValueError(f"weight of edge {e} must be positive")
        _check_placement(host, placement)
        return LeafRoot(host=host, k=k, placement=dict(placement), lengths=lengths)


def _edge_lengths(pairs: Iterable[tuple[Edge, int | Fraction]]) -> dict[Edge, int | Fraction]:
    """Lengths keyed by normalized edge; an edge given twice, in either orientation, is refused."""
    out: dict[Edge, int | Fraction] = {}
    for (u, v), w in pairs:
        if (e := normalize_edge(u, v)) in out:
            raise ValueError(f"edge {e} is listed twice")
        out[e] = w
    return out


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


def _fresh_name(base: str, taken: Container[str]) -> str:
    """``base`` with ``_`` prefixed until it is not in ``taken``."""
    while base in taken:
        base = "_" + base
    return base


def _expand(
    nodes: Iterable[str], paths: Iterable[tuple[str, str, list[str]]]
) -> tuple[list[str], list[Edge]]:
    """The nodes and normalized edges of a tree whose edges become paths.

    Each ``(x, y, bases)`` in ``paths`` is an edge x–y that becomes a path from
    x through one new node per base to y.  Each new name is :func:`_fresh_name`
    of its base against every name before it, ``nodes`` first; the new names
    follow ``nodes`` in path order.  This is where every subdivision node is
    made.  The names must come out distinct; otherwise RuntimeError.
    """
    out = list(nodes)
    taken = set(out)
    edges: list[Edge] = []
    for x, y, bases in paths:
        for base in bases:
            name = _fresh_name(base, taken)
            taken.add(name)
            out.append(name)
            edges.append((x, name) if x < name else (name, x))
            x = name
        edges.append((x, y) if x < y else (y, x))
    if len(taken) != len(out):
        raise RuntimeError(f"expansion invalid: {len(out)} nodes with {len(taken)} distinct names")
    return out, edges


def _unit_expansion(root: LeafRoot) -> tuple[list[str], list[Edge]]:
    """The nodes and edges of the root's host on unit edges, as a unit-edge writer lists them.

    A unit root's host is listed as it is.  Otherwise an edge of integer length
    L becomes a path through L - 1 new nodes (:func:`_expand`).  On a stem, an
    edge that ends at the placed leaf of vertex v, they are ``stem.<v>.1 ..
    stem.<v>.<L-1>`` from its other end outwards; on any other edge (x, y), they
    are ``x~y~1 .. x~y~<L-1>`` from x.  A Fraction length is refused.  The new
    names must be distinct and number exactly the sum of L - 1; the nodes come
    back sorted, and the edges normalized and sorted.  No unit ``Tree`` is built.
    """
    if root.lengths is None:
        return list(root.host.nodes), list(root.host.edges)
    by_leaf = {leaf: v for v, leaf in root.placement.items()}

    def paths() -> Iterator[tuple[str, str, list[str]]]:
        # Made as consumed, so no list of every path outlives the expansion.
        for (x, y), length in root.lengths.items():
            if isinstance(length, Fraction):
                raise ValueError(
                    "root has fractional edge lengths; scale_to_integer_leafroot removes them"
                )
            if y not in by_leaf and x in by_leaf:
                x, y = y, x
            base = f"stem.{by_leaf[y]}." if y in by_leaf else f"{x}~{y}~"
            yield x, y, [f"{base}{j}" for j in range(1, length)]

    nodes, edges = _expand(root.host.nodes, paths())
    added = sum(root.lengths.values()) - len(root.lengths)
    if len(nodes) != root.host.n + added:
        raise RuntimeError(
            f"expansion invalid: {len(nodes)} nodes, where {root.host.n} host nodes"
            f" and {added} subdivision nodes were due"
        )
    nodes.sort()
    edges.sort()
    return nodes, edges


def verify_leaf_root(graph: Graph, root: LeafRoot) -> bool:
    """Whether adjacency in ``graph`` matches leaf distance <= k exactly."""
    _check_domain(graph, root.placement)
    return leaf_power_graph(root).edges == graph.edges


def leaf_power_graph(root: LeafRoot) -> Graph:
    """The graph this leaf root represents: vertices adjacent iff leaves within k."""
    placement, vertices = root.placement, sorted(root.placement)
    dist = pairwise_distances(root.host, placement.values(), root.lengths)
    edges = []
    for i, u in enumerate(vertices):
        row = dist[placement[u]]
        for v in vertices[i + 1 :]:
            if row[placement[v]] <= root.k:
                edges.append((u, v))
    return Graph.build(vertices, edges)


def leafroot_to_rs(root: LeafRoot) -> RSModel:
    """Turn a k-leaf root into a ball model with every radius equal to k.

    A ball model's host has unit edges, so a root with integer lengths is first
    written on unit edges (``_unit_expansion``).  Every unit edge (u, v) then
    gets a midpoint ``u~v`` (:func:`_expand`), and one ``Tree`` is built from
    the two steps' lists.  Each vertex is centered on its own leaf.  Two leaves
    at distance d in the root end up at distance 2d in the subdivided host, so
    balls of radius k intersect exactly when d <= k: the model represents the
    same graph, with max radius k.  The model is re-checked against the root's
    graph; a failure raises RuntimeError.
    """
    graph = leaf_power_graph(root)
    nodes, edges = _unit_expansion(root)
    host = Tree.build(*_expand(nodes, ((u, v, [f"{u}~{v}"]) for u, v in edges)))

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
    union of the paths from one center to all others), on unit edges, and each
    vertex gets a brand-new leaf ``leaf.<v>`` (``_``-prefixed while the model's
    host has that name), fastened to its center by one edge of length
    k+1-r_v.  A lone vertex keeps only its leaf.  For placed leaves u, v the
    distance becomes (k+1-r_u) + dist(c_u, c_v) + (k+1-r_v), which is at most
    2k+2 exactly when the balls intersected.  The root is re-checked against the
    graph; a failure raises RuntimeError.  The unit-edge writers expand each stem.
    """
    vertices = model.graph.vertices
    if not vertices:
        raise ValueError("model has no vertices")
    k = max(model.radii[v] for v in vertices)
    placement = {v: _fresh_name(f"leaf.{v}", model.host) for v in vertices}
    if len(vertices) == 1:
        nodes, lengths = list(placement.values()), {}
    else:
        first = model.centers[vertices[0]]
        core = set().union(*(tree_path(model.host, first, model.centers[v]) for v in vertices))
        nodes = [*core, *placement.values()]
        lengths = {(x, y): 1 for x, y in model.host.edges if x in core and y in core}
        for v in vertices:
            lengths[normalize_edge(model.centers[v], placement[v])] = k + 1 - model.radii[v]
    host = Tree.build(sorted(nodes), list(lengths))
    root = LeafRoot.build(host, 2 * k + 2, placement, lengths)
    if not verify_leaf_root(model.graph, root):
        raise RuntimeError("construction invalid: the root does not represent the model's graph")
    return root


def brute_force_leaf_rank(
    graph: Graph, max_nodes: int, max_k: int | None = None
) -> int | None:
    """The smallest k admitting a leaf root on at most ``max_nodes`` tree nodes.

    Exhausts every tree-isomorphism class with exactly |V| leaves and at most
    ``max_nodes`` nodes, and every placement up to leaf symmetry of the first
    vertex and up to the order of twin vertices.  Returns None when no root
    exists in that space, which is NOT a proof that none exists at all;
    ``max_k`` optionally restricts the search to roots with k <= max_k (useful
    for questions like "is the rank <= 2?").

    A graph that is not chordal gets None without a search, after the argument
    checks: it has no leaf root at all.  A k-leaf root gives a ball model of the
    graph (``leafroot_to_rs``), balls in a tree are subtrees, and every
    intersection graph of subtrees of a tree is chordal (Gavril 1974).

    Each host is searched on the integer tables of its parent array
    (``enumtrees._host_tables``; see ``_best_k_on_host``).  They depend only on
    |V| and the order, so they come from the per-process memo
    ``enumtrees._hosts``, which reads them from each host's ``Tree`` once; the
    graph's tables and the search are made anew on every call.  The root found
    is built on its host again and re-checked with ``verify_leaf_root``; a
    failure raises RuntimeError.
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
    after = _twin_predecessors(adjacent)
    # No leaf distance on a tree of at most max_nodes nodes reaches max_nodes.
    limit = max_k if max_k is not None else max_nodes
    best: tuple[int, tuple[int, ...], list[int]] | None = None
    hosts = chain.from_iterable(_hosts(num, order) for order in _orders(num, max_nodes))
    for parent, tables in hosts:
        found = _best_k_on_host(adjacent, after, tables, limit)
        if found is not None:
            k, leaves = found
            best = k, parent, leaves
            limit = k - 1
            if k == 1:
                break
    if best is None:
        return None
    k, parent, leaves = best
    host = _tree(parent)
    witness = LeafRoot.build(host, k, {v: host.nodes[i] for v, i in zip(vertices, leaves)})
    if not verify_leaf_root(graph, witness):
        raise RuntimeError("construction invalid: the root does not represent the graph")
    return k


def _twin_predecessors(adjacent: list[list[bool]]) -> list[int]:
    """For each vertex, the latest earlier vertex of its twin class other than vertex 0, else -1.

    Vertices i and j are twins when ``N(i) - {j} = N(j) - {i}``: true twins if
    adjacent, with equal closed neighbourhoods, and false twins if not, with
    equal open ones.  This is an equivalence, because no vertex j has a true
    twin i and a false twin k: k is not a neighbour of j, so not of i, while i
    is a neighbour of j, so of k.  Vertex 0 is left out of every class.
    """
    num = len(adjacent)

    def twins(i: int, j: int) -> bool:
        return all(adjacent[i][x] == adjacent[j][x] for x in range(num) if x != i and x != j)

    return [max((j for j in range(1, i) if twins(i, j)), default=-1) for i in range(num)]


def _best_k_on_host(
    adjacent: list[list[bool]],
    after: list[int],
    tables: HostTables,
    limit: int,
) -> tuple[int, list[int]] | None:
    """The smallest workable k <= limit on this host and a placement for it, else None.

    ``adjacent[i][j]`` says whether vertices i and j are adjacent, and
    ``after`` is ``_twin_predecessors(adjacent)``.  ``tables`` are the host's
    leaf indices, leaf-by-leaf distances and first-vertex choices
    (``enumtrees._hosts``).  The search names a leaf by its position in
    the first, with a ``used`` flag each; the placement comes back as leaf indices.  Vertex i
    is placed on leaf ``slot[i]``, depth first in vertex order: the first vertex
    on one leaf per automorphism orbit, and vertex i on a leaf after that of
    ``after[i]`` when that is not -1.  A partial placement keeps ``adj``, the
    largest distance between two placed adjacent vertices (at least 1), and
    ``sep``, the smallest between two placed nonadjacent ones (at most
    limit + 1); it is dropped once adj >= sep or adj > cap, where cap is
    ``limit`` until a placement is complete and one below its k after.

    Neither restriction loses a k.  A tree automorphism maps leaves to leaves
    and keeps their distances, so applied to a k-leaf root's placement it
    gives another k-leaf root, one with vertex 0 on its orbit's
    representative.  Exchanging two twins is a graph automorphism, since each
    sees every other vertex alike, so a placement read through any permutation
    of a twin class is a k-leaf root too.  Vertex 0 is in no class, so such a
    permutation keeps it on its leaf, and the one that sorts each class by leaf
    puts the class on increasing leaves.  Applied in that order, the two steps
    turn any k-leaf root on this host into one that the search visits.
    """
    leaves, dist, firsts = tables
    num = len(leaves)
    used = [False] * num
    slot = [0] * num
    best: tuple[int, list[int]] | None = None
    cap = limit

    def extend(idx: int, adj: int, sep: int) -> None:
        # Called only with adj <= cap and adj < sep.
        nonlocal best, cap
        if idx == num:
            best, cap = (adj, [leaves[i] for i in slot]), adj - 1
            return
        row = adjacent[idx]
        twin = after[idx]
        for leaf in firsts if idx == 0 else range(slot[twin] + 1 if twin >= 0 else 0, num):
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

    extend(0, 1, limit + 1)
    del extend  # it refers to itself: a reference cycle that only the collector would free
    return best


def leafroot_to_json_obj(root: LeafRoot) -> dict:
    """The root on unit edges; integer lengths are expanded (``_unit_expansion``)."""
    nodes, edges = _unit_expansion(root)
    return {
        "tree": {"nodes": nodes, "edges": list(map(list, edges))},
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


def leafroot_to_dot(root: LeafRoot) -> str:
    """The root on unit edges, placed leaves boxed; integer lengths are expanded."""
    nodes, edges = _unit_expansion(root)
    by_leaf = {leaf: v for v, leaf in root.placement.items()}
    lines = [f'  label="k = {root.k}";']
    for x in nodes:
        if x in by_leaf:
            text = dot_quote(f"{x} ({by_leaf[x]})")
            lines.append(f"  {dot_quote(x)} [label={text}, shape=box];")
        else:
            lines.append(f"  {dot_quote(x)};")
    return dot_graph("R", lines, edges)
