"""Immutable finite simple graphs with the chordal-graph toolkit used everywhere else.

Vertices are strings.  Edges are stored as sorted 2-tuples so that a graph has a
single canonical representation and equality / hashing behave structurally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .jsonio import Record, string_pairs, strings

Edge = tuple[str, str]


def normalize_edge(u: str, v: str) -> Edge:
    """Return the canonical (sorted) form of an undirected edge."""
    if u == v:
        raise ValueError(f"self-loop at {u!r}")
    return (u, v) if u < v else (v, u)


def _parse_vertices_and_edges(
    vertices: Iterable[str], edges: Iterable[tuple[str, str]], noun: str
) -> tuple[tuple[str, ...], tuple[Edge, ...], dict[str, int]]:
    """Checked string vertices, their edges sorted, and each vertex's position.

    The messages call a vertex ``noun``.  An edge listed twice, in either
    orientation, is kept once.
    """
    vs = tuple(vertices)
    seen = dict(zip(vs, range(len(vs)))) if set(map(type, vs)) <= {str} else {}
    if len(seen) != len(vs):
        seen.clear()  # name the first vertex that is not a string or repeats one
        for v in vs:
            if not isinstance(v, str):
                raise ValueError(f"{noun} {v!r} is not a string")
            if v in seen:
                raise ValueError(f"duplicate {noun} {v!r}")
            seen[v] = len(seen)
    # A dict keeps the listed order, so the sort is linear on the sorted or
    # nearly sorted edges of the trees the package writes; a set's is not.
    # A listed tuple already in order is kept rather than copied, so a tree read
    # from a file allocates each edge once.
    es: dict[Edge, None] = {}
    for e in edges:
        u, v = e
        if u not in seen or v not in seen:
            raise ValueError(f"edge ({u!r}, {v!r}) has an endpoint outside the {noun} set")
        es[e if type(e) is tuple and u < v else normalize_edge(u, v)] = None
    return vs, tuple(sorted(es)), seen


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph."""

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    @staticmethod
    def build(vertices: Iterable[str], edges: Iterable[tuple[str, str]]) -> "Graph":
        """Validate and canonicalize raw vertex / edge collections."""
        vs, es, _ = _parse_vertices_and_edges(vertices, edges, "vertex")
        return Graph(vs, es)

    @cached_property
    def _adjacency(self) -> Mapping[str, frozenset[str]]:
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return {v: frozenset(nbrs) for v, nbrs in adj.items()}

    @property
    def n(self) -> int:
        return len(self.vertices)

    def adjacent(self, u: str, v: str) -> bool:
        return v in self._adjacency.get(u, ())

    def neighbors(self, v: str) -> frozenset[str]:
        return self._adjacency[v]

    def degree(self, v: str) -> int:
        return len(self._adjacency[v])


def components(graph: Graph) -> list[frozenset[str]]:
    """Connected components of the graph, sorted by smallest member."""
    seen: set[str] = set()
    comps: list[frozenset[str]] = []
    for start in graph.vertices:
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        seen.add(start)
        while frontier:
            x = frontier.pop()
            for y in graph.neighbors(x):
                if y not in seen:
                    seen.add(y)
                    comp.add(y)
                    frontier.append(y)
        comps.append(frozenset(comp))
    return sorted(comps, key=min)


def _max_cardinality_search(graph: Graph) -> tuple[list[str], dict[str, list[str]], bool]:
    """The visit order of a maximum-cardinality search, each vertex's earlier
    neighbours in visit order, and whether the graph is chordal.

    The next vertex is the one with the most visited neighbours, ties going to
    the vertex listed first.  The graph is chordal exactly when the reverse
    visit order is a perfect elimination ordering (Tarjan and Yannakakis 1984),
    that is, when every earlier neighbour of a vertex is adjacent to the last.
    """
    earlier: dict[str, list[str]] = {v: [] for v in graph.vertices}
    unvisited = dict.fromkeys(graph.vertices)
    visit_order: list[str] = []
    while unvisited:
        v = max(unvisited, key=lambda u: len(earlier[u]))
        del unvisited[v]
        visit_order.append(v)
        for w in graph.neighbors(v):
            if w in unvisited:
                earlier[w].append(v)
    chordal = all(w in graph.neighbors(ns[-1]) for ns in earlier.values() for w in ns[:-1])
    return visit_order, earlier, chordal


def is_chordal(graph: Graph) -> bool:
    return _max_cardinality_search(graph)[2]


def _clique_tree(graph: Graph) -> tuple[list[frozenset[str]], list[tuple[int, int]]]:
    """The maximal cliques of a chordal graph and the index pairs of a clique tree on them.

    Read off one maximum-cardinality search (Blair and Peyton 1993, section 4):
    a vertex with no more earlier neighbours than its predecessor starts a new
    clique of those neighbours and itself, which the vertices after it join
    until the next start.  The new clique hangs under the clique in which its
    last earlier neighbour was visited; a vertex with no earlier neighbour
    starts a new component, bridged to the previous clique.
    """
    visit_order, earlier, chordal = _max_cardinality_search(graph)
    if not chordal:
        raise ValueError("requires chordal graph")
    cliques: list[set[str]] = []
    edges: list[tuple[int, int]] = []
    home: dict[str, int] = {}
    previous = 0
    for v in visit_order:
        ns = earlier[v]
        if len(ns) <= previous:
            if cliques:
                edges.append((home[ns[-1]] if ns else len(cliques) - 1, len(cliques)))
            cliques.append(set(ns))
        cliques[-1].add(v)
        home[v] = len(cliques) - 1
        previous = len(ns)
    return [frozenset(c) for c in cliques], edges


def maximal_cliques(graph: Graph) -> list[frozenset[str]]:
    """All maximal cliques of a chordal graph, sorted by size (desc) then members."""
    return sorted(_clique_tree(graph)[0], key=lambda c: (-len(c), sorted(c)))


def is_separator(graph: Graph, cut: Iterable[str]) -> bool:
    """Whether deleting ``cut`` disconnects two vertices that were connected before."""
    cut_set = frozenset(cut)
    for v in cut_set:
        if v not in graph._adjacency:
            raise ValueError(f"cut member {v!r} is not a vertex")
    after = components(induced_subgraph(graph, set(graph.vertices) - cut_set))
    comp_id = {}
    for i, comp in enumerate(after):
        for v in comp:
            comp_id[v] = i
    for before in components(graph):
        ids = {comp_id[v] for v in before if v in comp_id}
        if len(ids) >= 2:
            return True
    return False


def is_cluster_graph(graph: Graph) -> bool:
    """Whether every connected component is a complete graph."""
    for comp in components(graph):
        for u in comp:
            for v in comp:
                if u < v and not graph.adjacent(u, v):
                    return False
    return True


def induced_subgraph(graph: Graph, keep: Iterable[str]) -> Graph:
    keep_set = frozenset(keep)
    for v in keep_set:
        if v not in graph._adjacency:
            raise ValueError(f"vertex {v!r} is not in the graph")
    vs = tuple(v for v in graph.vertices if v in keep_set)
    es = tuple(e for e in graph.edges if e[0] in keep_set and e[1] in keep_set)
    return Graph(vertices=vs, edges=es)


def graph_to_json_obj(graph: Graph) -> dict:
    return {
        "vertices": list(graph.vertices),
        "edges": [[u, v] for u, v in graph.edges],
    }


def graph_from_json_obj(obj: object, field: str = "") -> Graph:
    """Read a graph; ValueError names the malformed field under ``field``."""
    rec = Record(obj, field, "vertices", "edges")
    return Graph.build(rec.get("vertices", strings), rec.get("edges", string_pairs))


def dot_quote(text: str) -> str:
    """``text`` as a quoted DOT string: every name and label goes through here.

    DOT has no escape for a final backslash (``"x\\"`` reads as an escaped
    quote), so such text is refused with ValueError.
    """
    if text.endswith("\\"):
        raise ValueError(f"DOT cannot quote text ending in a backslash: {text!r}")
    return '"' + text.replace('"', '\\"') + '"'


def dot_graph(name: str, statements: Iterable[str], edges: Iterable[Edge]) -> str:
    """An undirected DOT graph: the given statement lines, then one line per edge."""
    lines = [f"graph {name} {{", *statements]
    lines += [f"  {dot_quote(u)} -- {dot_quote(v)};" for u, v in edges]
    return "\n".join(lines) + "\n}\n"


def graph_to_dot(graph: Graph, *, name: str = "G") -> str:
    return dot_graph(name, [f"  {dot_quote(v)};" for v in graph.vertices], graph.edges)
