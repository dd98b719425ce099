"""The exact-rational feasibility certificate for leaf powers.

For a fixed host topology (internal nodes of degree >= 3) and a fixed
vertex-to-leaf placement, being a leaf root with threshold 1 is a linear
condition on the edge lengths: adjacent pairs need path length at most 1,
non-adjacent pairs need strictly more than 1.  Strictness is realized by
maximizing a margin variable delta and accepting only optima with delta > 0;
the same delta also forces every edge length to be strictly positive.  A
witness is a ``LeafRoot`` with k = 1 and exact lengths; ``witness_margin``
derives its delta.  It scales by its least common denominator to a k-leaf
root with integer lengths, so feasibility here certifies being a leaf power.
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
    LeafRoot, _check_domain, _check_placement, _edge_lengths, leaf_power_graph, verify_leaf_root,
)
from .trees import Tree, pairwise_distances, tree_from_json_obj, tree_path, tree_to_json_obj


def witness_margin(root: LeafRoot) -> Fraction:
    """The margin delta of ``root``, with every length divided by its k.

    It is the least of the bounds the ``cap``, ``pos`` and ``sep`` rows put on
    delta: 1, each length, and each distance beyond 1, minus 1.  An LP optimum
    meets one of them, so on a certified witness this is the optimal delta.
    """
    leaves = list(root.placement.values())
    dist = pairwise_distances(root.host, leaves, root.lengths)
    pairs = itertools.combinations(leaves, 2)
    gaps = [d - root.k for a, b in pairs if (d := dist[a][b]) > root.k]
    lengths = (root.lengths or dict.fromkeys(root.host.edges, 1)).values()
    return min([Fraction(1), *(Fraction(x) / root.k for x in [*lengths, *gaps])])


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
        return tuple(f"w_{name}" for name in _edge_names(self.edge_vars)) + ("delta",)


def _plain(names: Iterable[str]) -> bool:
    """Whether every name is ASCII letters and digits, at least one.

    Such names joined by ``_`` stay distinct, since none holds a ``_``, and an
    LP-format reader accepts them.
    """
    return all(name.isascii() and name.isalnum() for name in names)


def _edge_names(edges: tuple[Edge, ...]) -> list[str]:
    """``u_v`` for each edge (u, v) when all node names are plain, else each edge's position."""
    if _plain(itertools.chain.from_iterable(edges)):
        return [f"{u}_{v}" for u, v in edges]
    return [str(i) for i in range(len(edges))]


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
    A pair's row is named after its two vertices, ``adj_u_v`` or ``sep_u_v``,
    and an edge's after its two nodes, ``pos_x_y`` (its weight is ``w_x_y``).
    Where some vertex or node name is not :func:`_plain`, the names use
    positions instead: the vertices' in the graph, ``sep_0_3``, and the edges'
    in ``edge_vars``, ``pos_2``.  So every name is distinct and LP-safe.
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

    vertices = graph.vertices
    names = vertices if _plain(vertices) else [str(i) for i in range(len(vertices))]
    rows: list[tuple[str, tuple[int, ...], str, int]] = []
    for i, u in enumerate(vertices):
        for j in range(i + 1, len(vertices)):
            v = vertices[j]
            coeffs = [0] * num_vars
            path = tree_path(host, placement[u], placement[v])
            for p, q in zip(path, path[1:]):
                coeffs[edge_index[normalize_edge(p, q)]] = 1
            if graph.adjacent(u, v):
                rows.append((f"adj_{names[i]}_{names[j]}", tuple(coeffs), exactlp.LE, 1))
            else:
                coeffs[delta] = -1
                rows.append((f"sep_{names[i]}_{names[j]}", tuple(coeffs), exactlp.GE, 1))
    for i, name in enumerate(_edge_names(edge_vars)):
        coeffs = [0] * num_vars
        coeffs[i] = 1
        coeffs[delta] = -1
        rows.append((f"pos_{name}", tuple(coeffs), exactlp.GE, 0))
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


def certify_leaf_power(graph: Graph, max_internal: int) -> LeafRoot | None:
    """Search topologies and placements for a leaf root with threshold 1.

    Every topology with |V| leaves, at most ``max_internal`` internal nodes
    and no degree-2 nodes is tried with every placement (the first vertex only
    on one leaf per symmetry orbit).  Returns the first feasible witness, a
    ``LeafRoot`` with k = 1 and the LP's exact edge lengths, after checking it
    against the graph by exact path sums; None means no root exists WITHIN
    THIS BOUND, which is not a proof that the graph is no leaf power.  A
    witness that fails the check raises RuntimeError.

    Such a topology has at most |V| - 2 internal nodes, so ``max_internal``
    >= |V| - 2 covers every topology, and None then rules out every leaf root
    with exact lengths.  Every LP behind that verdict carries a dual or Farkas
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
                    witness = LeafRoot.build(host, 1, placement, lengths=result.weights)
                    if not verify_leaf_root(graph, witness):
                        raise RuntimeError(
                            "certificate invalid: witness fails the path-sum check"
                        )
                    return witness
    return None


def scale_to_integer_leafroot(root: LeafRoot) -> LeafRoot:
    """Clear denominators: a root with exact lengths gets integer lengths on the same host.

    With L the least common denominator, every length w becomes the integer
    w*L and k becomes L*k, so every leaf distance is multiplied by exactly L.
    Adjacent pairs then sit at distance <= L*k.  Non-adjacent pairs were
    beyond k, so they land beyond L*k, and being integers, at L*k + 1 or more.
    A unit root comes back as it is.  The scaled root is re-checked against the
    given root's graph; a failure raises RuntimeError.  The unit-edge writers
    expand the integer lengths.
    """
    if root.lengths is None:
        return root
    lcd = math.lcm(*(w.denominator for w in root.lengths.values()))
    lengths = {e: int(w * lcd) for e, w in root.lengths.items()}
    scaled = LeafRoot.build(root.host, root.k * lcd, root.placement, lengths)
    if leaf_power_graph(scaled) != leaf_power_graph(root):
        raise RuntimeError("construction invalid: the scaled root represents another graph")
    return scaled


def system_to_lp_text(system: FeasibilitySystem) -> str:
    """CPLEX-style LP text for external cross-checking (coefficients are +-1)."""
    names = system.variable_names

    def render(coeffs: tuple[int, ...]) -> str:
        terms = " ".join(f"{'+' if c > 0 else '-'} {name}" for c, name in zip(coeffs, names) if c)
        return terms.removeprefix("+ ")

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


def weighted_leafroot_to_json_obj(root: LeafRoot) -> dict:
    """The root with every length divided by k, so the threshold is 1, and its margin."""
    lengths = root.lengths or dict.fromkeys(root.host.edges, 1)
    return {
        "host": tree_to_json_obj(root.host),
        "weights": [
            {"edge": [u, v], **_fraction_to_json(Fraction(w) / root.k)}
            for (u, v), w in sorted(lengths.items())
        ],
        "placement": dict(sorted(root.placement.items())),
        "margin": _fraction_to_json(witness_margin(root)),
    }


def weighted_leafroot_from_json_obj(obj: object, field: str = "") -> LeafRoot:
    """Read a root with threshold 1 and, if given, its ``witness_margin``.

    ValueError names the malformed field under ``field``.
    """
    rec = Record(obj, field, "host", "weights", "placement")
    host = rec.get("host", tree_from_json_obj)
    weights = rec.get("weights", lambda value, f: items(value, f, _weight_from_json))
    root = LeafRoot.build(host, 1, rec.get("placement", string_map), _edge_lengths(weights))

    def derived_margin(value: object, f: str) -> None:
        if (margin := _fraction_from_json(value, f)) != (derived := witness_margin(root)):
            raise ValueError(f"{f} is {margin}, but the weights give {derived}")

    if rec.value.get("margin") is not None:
        rec.get("margin", derived_margin)
    return root
