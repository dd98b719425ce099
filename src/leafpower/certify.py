"""Weighted leaf roots and the exact-rational feasibility certificate.

For a fixed host topology (internal nodes of degree >= 3) and a fixed
vertex-to-leaf placement, being a weighted leaf root is a linear condition on
the edge weights: adjacent pairs need path weight at most 1, non-adjacent
pairs need strictly more than 1.  Strictness is realized by maximizing a
margin variable delta and accepting only optima with delta > 0; the same delta
also forces every edge weight to be strictly positive.  A feasible rational
witness scales by its least common denominator to an ordinary integer k-leaf
root, so feasibility here certifies being a leaf power.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from . import exactlp
from .enumtrees import leaf_orbit_representatives, topology_trees
from .graphs import Edge, Graph, normalize_edge
from .jsonio import Record, items, string, string_map, string_pair
from .roots import (
    LeafRoot, _check_domain, _check_placement, _grow_path, _threshold_graph, leaf_power_graph
)
from .trees import Tree, pairwise_distances, tree_from_json_obj, tree_path, tree_to_json_obj


@dataclass(frozen=True)
class WeightedLeafRoot:
    """A host tree with positive rational edge weights and a leaf placement."""

    host: Tree
    weights: dict[Edge, Fraction]
    placement: dict[str, str]
    margin: Fraction | None = None

    @staticmethod
    def build(
        host: Tree,
        weights: dict[Edge, Fraction],
        placement: dict[str, str],
        margin: Fraction | None = None,
    ) -> "WeightedLeafRoot":
        normalized = _edge_weights(weights.items())
        if set(normalized) != set(host.edges):
            raise ValueError("weights must cover exactly the host edges")
        for e, w in normalized.items():
            exactlp._check_number(w, f"weight of edge {e}")
            if w <= 0:
                raise ValueError(f"weight of edge {e} must be positive")
        if margin is not None:
            exactlp._check_number(margin, "margin")
        _check_placement(host, placement)
        return WeightedLeafRoot(
            host=host,
            weights={e: Fraction(w) for e, w in normalized.items()},
            placement=dict(placement),
            margin=None if margin is None else Fraction(margin),
        )


def _edge_weights(pairs: Iterable[tuple[tuple[str, str], Fraction]]) -> dict[Edge, Fraction]:
    """Weights keyed by normalized edge; an edge given twice, in either orientation, is refused."""
    out: dict[Edge, Fraction] = {}
    for (u, v), w in pairs:
        if (e := normalize_edge(u, v)) in out:
            raise ValueError(f"edge {e} is listed twice")
        out[e] = w
    return out


def weighted_distance(root: WeightedLeafRoot, x: str, y: str) -> Fraction:
    """Total edge weight along the unique host path from x to y."""
    return Fraction(pairwise_distances(root.host, (x, y), root.weights)[x][y])


def verify_weighted_leafroot(graph: Graph, root: WeightedLeafRoot) -> bool:
    """Adjacent pairs within weighted distance 1, non-adjacent strictly beyond."""
    _check_domain(graph, root.placement)
    return _threshold_graph(root.host, root.placement, 1, root.weights).edges == graph.edges


@dataclass(frozen=True)
class FeasibilitySystem:
    """The linear system for one (graph, host, placement) candidate.

    Variables: one weight per host edge, in edge order, plus the margin delta
    as the final variable.  Rows are (name, coefficients, sense, rhs), all
    plain ints: coefficients are 0 or +-1 and every rhs is 0 or 1.
    """

    edge_vars: tuple[Edge, ...]
    rows: tuple[tuple[str, tuple[int, ...], str, int], ...]

    @property
    def variable_names(self) -> tuple[str, ...]:
        return tuple(f"w_{u}_{v}" for u, v in self.edge_vars) + ("delta",)


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    delta: Fraction | None
    weights: dict[Edge, Fraction] | None


def build_feasibility_system(graph: Graph, host: Tree, placement: dict[str, str]) -> FeasibilitySystem:
    """Rows: per adjacent pair a <=1 row, per non-adjacent pair a >=1+delta row,
    per edge a weight >= delta row, and the cap delta <= 1.

    The cap loses nothing (a margin beyond 1 is never needed to witness
    strictness) and keeps the objective bounded even for edgeless graphs.
    """
    _check_domain(graph, placement)
    _check_placement(host, placement)
    for node in host.nodes:
        if host.degree(node) == 2:
            raise ValueError("topology not in canonical form")

    edge_vars = tuple(host.edges)
    edge_index = {e: i for i, e in enumerate(edge_vars)}
    num_vars = len(edge_vars) + 1
    delta = num_vars - 1

    rows: list[tuple[str, tuple[int, ...], str, int]] = []
    for i, u in enumerate(graph.vertices):
        for v in graph.vertices[i + 1 :]:
            coeffs = [0] * num_vars
            path = tree_path(host, placement[u], placement[v])
            for p, q in zip(path, path[1:]):
                coeffs[edge_index[normalize_edge(p, q)]] = 1
            if graph.adjacent(u, v):
                rows.append((f"adj_{u}_{v}", tuple(coeffs), exactlp.LE, 1))
            else:
                coeffs[delta] = -1
                rows.append((f"sep_{u}_{v}", tuple(coeffs), exactlp.GE, 1))
    for e in edge_vars:
        coeffs = [0] * num_vars
        coeffs[edge_index[e]] = 1
        coeffs[delta] = -1
        rows.append((f"pos_{e[0]}_{e[1]}", tuple(coeffs), exactlp.GE, 0))
    cap = [0] * num_vars
    cap[delta] = 1
    rows.append(("cap_delta", tuple(cap), exactlp.LE, 1))

    return FeasibilitySystem(edge_vars=edge_vars, rows=tuple(rows))


def solve_feasibility(system: FeasibilitySystem) -> FeasibilityResult:
    """Maximize delta exactly; feasible means optimal delta is strictly positive.

    Every verdict is re-checked with ``exactlp.certificate_error``: the dual
    bound behind an optimal delta, or the Farkas combination behind an
    infeasible system.  A certificate that fails raises RuntimeError.
    """
    num_vars = len(system.edge_vars) + 1
    objective = [0] * num_vars
    objective[-1] = 1
    rows = [(coeffs, sense, rhs) for _, coeffs, sense, rhs in system.rows]
    solution = exactlp.maximize(objective, rows)
    if solution.status == exactlp.UNBOUNDED:
        raise RuntimeError("objective unbounded despite the delta cap")
    error = exactlp.certificate_error(objective, rows, solution)
    if error is not None:
        raise RuntimeError(f"certificate invalid: {error}")
    if solution.status == exactlp.INFEASIBLE:
        return FeasibilityResult(feasible=False, delta=None, weights=None)
    delta = solution.x[num_vars - 1]
    if delta <= 0:
        return FeasibilityResult(feasible=False, delta=delta, weights=None)
    weights = {e: solution.x[i] for i, e in enumerate(system.edge_vars)}
    return FeasibilityResult(feasible=True, delta=delta, weights=weights)


def certify_leaf_power(graph: Graph, max_internal: int) -> WeightedLeafRoot | None:
    """Search topologies and placements for a feasible weighted leaf root.

    Every topology with |V| leaves, at most ``max_internal`` internal nodes
    and no degree-2 nodes is tried with every placement (the first vertex only
    on one leaf per symmetry orbit).  Returns the first feasible witness, after
    checking it against the graph by exact path sums; None means no root
    exists WITHIN THIS BOUND, which is not a proof that the graph is no leaf
    power.  A witness that fails the check raises RuntimeError.

    Such a topology has at most |V| - 2 internal nodes, so ``max_internal``
    >= |V| - 2 covers every topology, and None then rules out every weighted
    leaf root.  Every LP behind that verdict carries a dual or Farkas
    certificate, checked by ``solve_feasibility`` before it is believed.
    """
    if max_internal < 1:
        raise ValueError("max_internal must be at least 1")
    vertices = list(graph.vertices)
    if not vertices:
        raise ValueError("graph must have at least one vertex")
    for host in topology_trees(len(vertices), max_internal):
        leaves = list(host.leaves())
        for first in leaf_orbit_representatives(host):
            rest = [x for x in leaves if x != first]
            for perm in itertools.permutations(rest):
                placement = dict(zip(vertices, (first, *perm)))
                system = build_feasibility_system(graph, host, placement)
                result = solve_feasibility(system)
                if result.feasible:
                    witness = WeightedLeafRoot.build(
                        host, result.weights, placement, margin=result.delta
                    )
                    if not verify_weighted_leafroot(graph, witness):
                        raise RuntimeError(
                            "certificate invalid: witness fails the path-sum check"
                        )
                    return witness
    return None


def scale_to_integer_leafroot(root: WeightedLeafRoot) -> LeafRoot:
    """Clear denominators: an exact witness becomes an integer k-leaf root.

    With L the least common denominator, every weight w becomes the integer
    w*L and its edge becomes a path of that many unit edges; k = L.  Adjacent
    pairs then sit at distance <= L; non-adjacent pairs had weighted distance
    at least 1 + margin, so they land at integer distance > L, i.e. >= L+1.
    The scaled root is re-checked against the weighted root's graph; a failure
    raises RuntimeError.
    """
    if root.margin is None or root.margin <= 0:
        raise ValueError("witness not strictly feasible")
    lcd = 1
    for w in root.weights.values():
        lcd = math.lcm(lcd, w.denominator)

    taken = set(root.host.nodes)
    nodes = list(root.host.nodes)
    edges: list[tuple[str, str]] = []
    for u, v in root.host.edges:
        length = int(root.weights[(u, v)] * lcd)
        end = _grow_path(u, [f"{u}~{v}~{j}" for j in range(1, length)], taken, nodes, edges)
        edges.append((end, v))
    scaled = LeafRoot.build(Tree.build(nodes, edges), lcd, dict(root.placement))
    if leaf_power_graph(scaled) != _threshold_graph(root.host, root.placement, 1, root.weights):
        raise RuntimeError("construction invalid: the scaled root represents another graph")
    return scaled


def system_to_lp_text(system: FeasibilitySystem) -> str:
    """CPLEX-style LP text for external cross-checking (coefficients are +-1)."""
    names = system.variable_names

    def render(coeffs: tuple[int, ...]) -> str:
        terms = []
        for c, name in zip(coeffs, names):
            if c == 0:
                continue
            if c == 1:
                terms.append(("+", name))
            elif c == -1:
                terms.append(("-", name))
            else:
                terms.append(("+" if c > 0 else "-", f"{abs(c)} {name}"))
        if not terms:
            return "0"
        first_sign, first_term = terms[0]
        text = first_term if first_sign == "+" else f"- {first_term}"
        for sign, term in terms[1:]:
            text += f" {sign} {term}"
        return text

    lines = ["Maximize", " obj: delta", "Subject To"]
    for name, coeffs, sense, rhs in system.rows:
        op = {exactlp.LE: "<=", exactlp.GE: ">=", exactlp.EQ: "="}[sense]
        lines.append(f" {name}: {render(coeffs)} {op} {rhs}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def _fraction_to_json(value: Fraction) -> dict:
    return {"num": str(value.numerator), "den": str(value.denominator)}


def _fraction_from_json(obj: object, field: str) -> Fraction:
    rec = Record(obj, field, "num", "den")
    num, den = rec.get("num", string), rec.get("den", string)
    try:
        return Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{field} is not a fraction: {num!r}/{den!r}") from None


def _weight_from_json(obj: object, field: str) -> tuple[Edge, Fraction]:
    return Record(obj, field, "edge").get("edge", string_pair), _fraction_from_json(obj, field)


def weighted_leafroot_to_json_obj(root: WeightedLeafRoot) -> dict:
    return {
        "host": tree_to_json_obj(root.host),
        "weights": [
            {"edge": [u, v], **_fraction_to_json(w)}
            for (u, v), w in sorted(root.weights.items())
        ],
        "placement": dict(sorted(root.placement.items())),
        "margin": None if root.margin is None else _fraction_to_json(root.margin),
    }


def weighted_leafroot_from_json_obj(obj: object, field: str = "") -> WeightedLeafRoot:
    """Read a weighted leaf root; ValueError names the malformed field under ``field``."""
    rec = Record(obj, field, "host", "weights", "placement")
    margin = rec.value.get("margin")
    return WeightedLeafRoot.build(
        rec.get("host", tree_from_json_obj),
        _edge_weights(rec.get("weights", lambda value, f: items(value, f, _weight_from_json))),
        rec.get("placement", string_map),
        margin=None if margin is None else rec.get("margin", _fraction_from_json),
    )
