"""Output checks that share no code with ``leafpower``.

Every function here recomputes the expected answer from the definitions
(the clique family of R_n, tree distances, exact rational path sums,
chordality by networkx) and returns a list of problems; an empty list means
the output is correct.  None of them imports the package under test.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import networkx as nx


def rn_graph(n: int) -> tuple[list[str], set[frozenset[str]]]:
    """R_n from its 2n-1 defining cliques: vertex list and edge set."""
    vertices = [f"{g}{i}" for g in "abcd" for i in range(1, n + 1)]
    cliques = [{f"a{i}", f"b{i}", f"c{i}", f"d{i}"} for i in range(1, n + 1)]
    for i in range(1, n):
        cliques.append({f"a{j}" for j in range(i, n + 1)} | {f"b{i}", f"b{i + 1}", f"c{i}"})
    edges = {frozenset((u, v)) for c in cliques for u in c for v in c if u < v}
    return vertices, edges


def _tree_adjacency(nodes: list, edges: list) -> tuple[dict[str, list[str]], list[str]]:
    """Adjacency lists of a JSON tree, plus the problems that make it no tree."""
    adj: dict[str, list[str]] = {x: [] for x in nodes}
    problems = []
    if len(adj) != len(nodes):
        problems.append("tree repeats a node")
    if len(edges) != len(nodes) - 1:
        problems.append(f"{len(nodes)} nodes need {len(nodes) - 1} edges, got {len(edges)}")
    for u, v in edges:
        if u not in adj or v not in adj or u == v:
            problems.append(f"bad tree edge {u!r}-{v!r}")
            continue
        adj[u].append(v)
        adj[v].append(u)
    if not problems and nodes:
        seen = {nodes[0]}
        stack = [nodes[0]]
        while stack:
            for y in adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != len(nodes):
            problems.append("tree is not connected")
    return adj, problems


def pairwise_distances(
    adj: dict[str, list[str]], terminals: list[str], weight=lambda u, v: 1
) -> dict[tuple[str, str], object]:
    """Distances between all pairs of ``terminals`` in a tree.

    Chains of degree-2 nodes are first contracted into single weighted edges,
    so the cost is one pass over the tree plus a walk per terminal over the
    branch nodes only; the hosts of R_n roots have about 10^5 nodes but only
    O(n) branch nodes.
    """
    keys = {x for x, ys in adj.items() if len(ys) != 2} | set(terminals)
    contracted: dict[str, list[tuple[str, object]]] = {x: [] for x in keys}
    for x in keys:
        for first in adj[x]:
            prev, cur, length = x, first, weight(x, first)
            while cur not in keys:
                nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
                length += weight(cur, nxt)
                prev, cur = cur, nxt
            contracted[x].append((cur, length))
    out = {}
    for s in terminals:
        dist = {s: 0}
        stack = [s]
        while stack:
            x = stack.pop()
            for y, length in contracted[x]:
                if y not in dist:
                    dist[y] = dist[x] + length
                    stack.append(y)
        for t in terminals:
            out[(s, t)] = dist[t]
    return out


def _placement_problems(adj: dict[str, list[str]], placement: dict, vertices: list[str]) -> list[str]:
    problems = []
    if set(placement) != set(vertices):
        problems.append("placement domain is not the vertex set")
    leaves = {x for x, ys in adj.items() if len(ys) <= 1}
    image = list(placement.values())
    if len(set(image)) != len(image) or set(image) != leaves:
        problems.append("placement is not a bijection onto the leaves")
    return problems


# --------------------------------------------------------------------- family


def check_leaf_root(n: int, root: dict) -> list[str]:
    """An emitted root of R_n: k = 2^(n+1), and leaves within k exactly for edges."""
    vertices, edges = rn_graph(n)
    k = 2 ** (n + 1)
    problems = []
    if root.get("k") != k:
        problems.append(f"k is {root.get('k')!r}, expected {k}")
    tree = root.get("tree", {})
    adj, problems_tree = _tree_adjacency(tree.get("nodes", []), tree.get("edges", []))
    problems += problems_tree
    placement = root.get("placement", {})
    problems += _placement_problems(adj, placement, vertices)
    if problems:
        return problems
    dist = pairwise_distances(adj, [placement[v] for v in vertices])
    for i, u in enumerate(vertices):
        for v in vertices[i + 1 :]:
            close = dist[(placement[u], placement[v])] <= root["k"]
            if close != (frozenset((u, v)) in edges):
                problems.append(f"{u}-{v}: leaf distance disagrees with adjacency")
    return problems


def check_audit(n: int, report: dict) -> list[str]:
    """The audit JSON holds, with the sandwich 2^(n-2) <= rank <= 2^(n+1)."""
    problems = []
    if report.get("holds") is not True or report.get("failed") != []:
        problems.append(f"audit does not hold: failed={report.get('failed')!r}")
    if report.get("lower_bound") != 2 ** (n - 2):
        problems.append(f"lower bound {report.get('lower_bound')!r}, expected {2 ** (n - 2)}")
    if report.get("upper_bound") != 2 ** (n + 1):
        problems.append(f"upper bound {report.get('upper_bound')!r}, expected {2 ** (n + 1)}")
    if report.get("n") != n:
        problems.append(f"report is for n={report.get('n')!r}")
    return problems


def damaged_model_breaks(model: dict, vertex: str) -> bool:
    """Whether some ball pair with ``vertex`` misses an edge of R_n (own BFS)."""
    n = len(model["graph"]["vertices"]) // 4
    _, edges = rn_graph(n)
    adj, problems = _tree_adjacency(model["host"]["nodes"], model["host"]["edges"])
    if problems:
        return True
    centers, radii = model["centers"], model["radii"]
    dist = {centers[vertex]: 0}
    frontier = [centers[vertex]]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    for u in centers:
        if u != vertex:
            meets = dist[centers[u]] <= radii[u] + radii[vertex]
            if meets != (frozenset((u, vertex)) in edges):
                return True
    return False


def check_rejection(code: int, message: str, vertex: str) -> list[str]:
    """A damaged model exits 1 with a message naming the damaged vertex."""
    problems = []
    if code != 1:
        problems.append(f"exit code {code}, expected 1")
    if not re.search(rf"\b{re.escape(vertex)}\b", message):
        problems.append(f"message does not name {vertex}: {message.strip()!r}")
    return problems


# -------------------------------------------------------------------- certify


def nx_graph(graph: dict) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(graph["vertices"])
    g.add_edges_from(tuple(e) for e in graph["edges"])
    return g


def check_witness(graph: dict, witness: dict) -> list[str]:
    """A weighted leaf root: margin > 0; exact path sums <= 1 exactly on edges."""
    g = nx_graph(graph)
    margin = witness.get("margin")
    if margin is None or Fraction(int(margin["num"]), int(margin["den"])) <= 0:
        return ["margin is missing or not positive"]
    host = witness.get("host", {})
    adj, problems = _tree_adjacency(host.get("nodes", []), host.get("edges", []))
    weights = {}
    for entry in witness.get("weights", []):
        w = Fraction(int(entry["num"]), int(entry["den"]))
        if w <= 0:
            problems.append(f"edge {entry['edge']} has weight {w}")
        weights[frozenset(entry["edge"])] = w
    if set(weights) != {frozenset(e) for e in host.get("edges", [])}:
        problems.append("weights do not cover exactly the host edges")
    placement = witness.get("placement", {})
    problems += _placement_problems(adj, placement, list(g.nodes))
    if problems:
        return problems
    vertices = list(g.nodes)
    dist = pairwise_distances(
        adj, [placement[v] for v in vertices], lambda u, v: weights[frozenset((u, v))]
    )
    for i, u in enumerate(vertices):
        for v in vertices[i + 1 :]:
            d = dist[(placement[u], placement[v])]
            if g.has_edge(u, v) != (d <= 1):
                problems.append(f"{u}-{v}: weighted distance {d} disagrees with adjacency")
    return problems


def check_certify(graph: dict, expect_yes: bool, code: int, output: str) -> list[str]:
    """A yes carries a valid witness; a no is only right on a non-chordal graph."""
    if code == 0:
        problems = [] if expect_yes else ["certified a graph expected to be no leaf power"]
        if not problems:
            try:
                problems = check_witness(graph, json.loads(output))
            except (ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable witness: {exc!r}"]
        return problems
    if code != 1 or output != "no root within bound\n":
        return [f"exit code {code} with output {output[:60]!r}"]
    if expect_yes:
        return ["no root found for a known leaf power"]
    if nx.is_chordal(nx_graph(graph)):
        return ["'no' for a chordal graph is not backed by non-chordality"]
    return []


# ------------------------------------------------------------------- leafrank


def check_leafrank(graph: dict, code: int, output: str) -> list[str]:
    """Ranks only on chordal graphs; rank <= 2 only on cluster graphs; P3 -> 3, K3 -> 2."""
    text = output.strip()
    if code == 1:
        return [] if text == "unknown" else [f"exit 1 with output {text!r}"]
    if code != 0 or not text.isdigit() or int(text) < 1:
        return [f"exit code {code} with output {text!r}"]
    rank = int(text)
    g = nx_graph(graph)
    problems = []
    if not nx.is_chordal(g):
        problems.append(f"rank {rank} on a non-chordal graph")
    if rank <= 2 and any(
        g.subgraph(c).number_of_edges() != len(c) * (len(c) - 1) // 2
        for c in nx.connected_components(g)
    ):
        problems.append(f"rank {rank} on a graph that is no disjoint union of cliques")
    if rank == 1 and g.number_of_edges() > 0 and g.number_of_nodes() > 2:
        problems.append("rank 1 on a graph with an edge and more than two vertices")
    if g.number_of_nodes() == 3 and g.number_of_edges() in (2, 3):
        expected = {2: 3, 3: 2}[g.number_of_edges()]
        if rank != expected:
            problems.append(f"rank {rank} on a 3-vertex graph with rank {expected}")
    return problems
