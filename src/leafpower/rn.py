"""The hard graph family R_n, defined through its maximal cliques.

For n >= 3, the graph has the 4n vertices a_1..a_n, b_1..b_n, c_1..c_n,
d_1..d_n and its edge set is the union of the cliques

* ``C_i  = {a_i, b_i, c_i, d_i}``              for 1 <= i <= n, and
* ``C'_i = {a_j : i <= j <= n} + {b_i, b_{i+1}, c_i}``  for 1 <= i <= n-1.

These 2n-1 cliques are exactly the maximal cliques (checked at build time).
The module also constructs two tree representations: a caterpillar model whose
subtrees are paths directed away from a root (a rooted-directed-path witness),
and a ball-based model whose radii grow like 2^n, which is the upper-bound
witness used by the lower-bound auditor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .graphs import Graph, maximal_cliques, normalize_edge
from .models import (
    RSModel,
    SubtreeModel,
    rs_model_violations,
    subtree_model_violations,
)
from .trees import Tree, distances_from, is_connected_subset

#: Largest n for which build_exponential_rs_model will construct a host tree
#: (the host has on the order of 2^n nodes; 2^16 is still desk-feasible).
MAX_EXPONENTIAL_N = 16

#: Root node of the caterpillar model returned by build_rdp_model.
RDP_ROOT = "x1"


@dataclass(frozen=True)
class RnGraph:
    """R_n together with the index maps for its four vertex groups."""

    n: int
    graph: Graph
    a: dict[int, str]
    b: dict[int, str]
    c: dict[int, str]
    d: dict[int, str]

    @cached_property
    def _cliques(self) -> tuple[frozenset[str], ...]:
        """The member sets of C_1..C_n, then of C'_1..C'_{n-1}."""
        return _defining_cliques(self.n, self.a, self.b, self.c, self.d)

    def clique(self, i: int) -> frozenset[str]:
        """The four-vertex clique C_i = {a_i, b_i, c_i, d_i}."""
        if not 1 <= i <= self.n:
            raise ValueError(f"index {i} out of range 1..{self.n}")
        return self._cliques[i - 1]

    def prime_clique(self, i: int) -> frozenset[str]:
        """The clique C'_i = {a_j : i <= j <= n} + {b_i, b_{i+1}, c_i}."""
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"index {i} out of range 1..{self.n - 1}")
        return self._cliques[self.n + i - 1]

    def expected_clique_sets(self) -> set[frozenset[str]]:
        """The member sets of all 2n-1 defining cliques."""
        return set(self._cliques)


def _defining_cliques(
    n: int, a: dict[int, str], b: dict[int, str], c: dict[int, str], d: dict[int, str]
) -> tuple[frozenset[str], ...]:
    """C_1..C_n, then C'_1..C'_{n-1}: the one definition of R_n's cliques."""
    return tuple(frozenset({a[i], b[i], c[i], d[i]}) for i in range(1, n + 1)) + tuple(
        frozenset({a[j] for j in range(i, n + 1)} | {b[i], b[i + 1], c[i]})
        for i in range(1, n)
    )


def rn_shape(n: int) -> tuple[frozenset[str], int]:
    """R_n's vertex names and its number of edges, (3n^2 + 15n - 6) / 2, without building it."""
    return frozenset(f"{g}{i}" for g in "abcd" for i in range(1, n + 1)), (3 * n * n + 15 * n - 6) // 2


def build_rn(n: int) -> RnGraph:
    """Construct R_n and check its clique structure before handing it out."""
    if n < 3:
        raise ValueError("family defined for n ≥ 3")
    a, b, c, d = ({i: f"{group}{i}" for i in range(1, n + 1)} for group in "abcd")
    vertices = [names[i] for names in (a, b, c, d) for i in range(1, n + 1)]

    edges = {
        normalize_edge(u, v)
        for members in _defining_cliques(n, a, b, c, d)
        for u, v in combinations(sorted(members), 2)
    }
    graph = Graph.build(vertices, sorted(edges))
    r = RnGraph(n=n, graph=graph, a=a, b=b, c=c, d=d)

    if set(maximal_cliques(graph)) != r.expected_clique_sets():
        raise RuntimeError(
            "construction invalid: maximal cliques do not match the defining family"
        )
    return r


def build_rdp_model(r: RnGraph) -> SubtreeModel:
    """The caterpillar model: spine x_1..x_n with one extra leaf y_i per x_i.

    Subtrees: a_i covers x_1..x_i plus y_i; b_i covers x_{i-1}, x_i, y_i
    (b_1 starts at x_1); c_i covers x_i and y_i; d_i covers just y_i.  Every
    subtree is a path running away from the root x_1, which is what makes this
    a rooted-directed-path witness.
    """
    n = r.n
    xs = {i: f"x{i}" for i in range(1, n + 1)}
    ys = {i: f"y{i}" for i in range(1, n + 1)}
    nodes = [xs[i] for i in range(1, n + 1)] + [ys[i] for i in range(1, n + 1)]
    edges = [(xs[i], xs[i + 1]) for i in range(1, n)] + [(xs[i], ys[i]) for i in range(1, n + 1)]
    host = Tree.build(nodes, edges)

    assignment: dict[str, frozenset[str]] = {}
    for i in range(1, n + 1):
        assignment[r.a[i]] = frozenset({xs[j] for j in range(1, i + 1)} | {ys[i]})
        first_spine = xs[max(i - 1, 1)]
        assignment[r.b[i]] = frozenset({first_spine, xs[i], ys[i]})
        assignment[r.c[i]] = frozenset({xs[i], ys[i]})
        assignment[r.d[i]] = frozenset({ys[i]})

    model = SubtreeModel.build(host, r.graph, assignment)
    problems = subtree_model_violations(model)
    if problems:
        raise RuntimeError(f"construction invalid: {problems[0]}")
    if not is_rooted_directed_path_model(model, RDP_ROOT):
        raise RuntimeError("construction invalid: a subtree is not a root-directed path")
    return model


def is_rooted_directed_path_model(model: SubtreeModel, root: str) -> bool:
    """Whether every assigned subtree is a path directed away from ``root``.

    A connected node set has one member nearest ``root`` and grows downward
    from it; it is a descending ancestor-to-descendant path exactly when no
    two members sit at the same depth.
    """
    depth = distances_from(model.host, root)
    return all(
        is_connected_subset(model.host, nodes) and len({depth[x] for x in nodes}) == len(nodes)
        for nodes in model.assignment.values()
    )


def _check_exponential_n(n: int) -> None:
    """Refuse an n too large for :func:`build_exponential_rs_model`; R_n need not exist yet."""
    if n > MAX_EXPONENTIAL_N:
        raise ValueError(f"exponential model supported for 3 ≤ n ≤ {MAX_EXPONENTIAL_N}")


def build_exponential_rs_model(r: RnGraph) -> RSModel:
    """A ball model of R_n on a spine-with-pendant-paths host; max radius 2^n - 1.

    The host is caterpillar-like: one central spine with a pendant path per
    index.  The pendant paths must have length > 1 — on a host whose legs are
    single leaves, the ball of the last a-vertex would have to sweep the whole
    spine to reach every c-ball and would unavoidably swallow the interior
    pendant tips, creating adjacencies to foreign d-vertices.  Long legs give
    each ball the slack to reach its own tip exactly.

    Host layout: a spine s_0 .. s_{2^n - 2}; at spine position 2^i - 2 hangs a
    pendant path ("hair") of length 2^i with nodes h{i}_1 .. h{i}_{2^i}.  The
    doubling gaps between consecutive hair positions are what lets every
    required adjacency land exactly on or inside the radius sums; the
    construction is re-checked against the graph before being returned.

    Centers and radii (t_i denotes the hair tip h{i}_{2^i}):

    * d_i at t_i with radius 0;
    * c_i at the hair midpoint h{i}_{2^{i-1}} with radius 2^{i-1} (its ball
      reaches exactly the tip and exactly the spine);
    * b_i (i >= 2) at h{i}_{2^{i-2}} with radius 3 * 2^{i-2}, reaching the tip
      and the previous hair position; b_1 at h1_1 with radius 1;
    * a_i (i >= 2) at h{i}_1 with radius 2^i - 1, reaching the tip and the
      whole spine prefix; a_1 at h1_1 with radius 1.
    """
    n = r.n
    _check_exponential_n(n)

    pos = {i: 2**i - 2 for i in range(1, n + 1)}
    hair_len = {i: 2**i for i in range(1, n + 1)}

    nodes = [f"s{p}" for p in range(pos[n] + 1)]
    edges = [(f"s{p}", f"s{p + 1}") for p in range(pos[n])]
    for i in range(1, n + 1):
        nodes.extend(f"h{i}_{depth}" for depth in range(1, hair_len[i] + 1))
        edges.append((f"s{pos[i]}", f"h{i}_1"))
        edges.extend(
            (f"h{i}_{depth}", f"h{i}_{depth + 1}") for depth in range(1, hair_len[i])
        )
    host = Tree.build(nodes, edges)

    centers: dict[str, str] = {}
    radii: dict[str, int] = {}
    for i in range(1, n + 1):
        centers[r.d[i]] = f"h{i}_{hair_len[i]}"
        radii[r.d[i]] = 0
        centers[r.c[i]] = f"h{i}_{2 ** (i - 1)}"
        radii[r.c[i]] = 2 ** (i - 1)
        if i == 1:
            centers[r.a[1]] = "h1_1"
            radii[r.a[1]] = 1
            centers[r.b[1]] = "h1_1"
            radii[r.b[1]] = 1
        else:
            centers[r.b[i]] = f"h{i}_{2 ** (i - 2)}"
            radii[r.b[i]] = 3 * 2 ** (i - 2)
            centers[r.a[i]] = f"h{i}_1"
            radii[r.a[i]] = 2**i - 1

    model = RSModel.build(host, r.graph, centers, radii)
    problems = rs_model_violations(model)
    if problems:
        raise RuntimeError(f"construction invalid: {problems[0]}")
    return model
