"""Machine-checking the exponential lower bound on ball models of R_n.

Any ball model of R_n pins down canonical *branch points* in its host tree:
m_1 and m_n are the ends of the corridor, the connecting path between the
clique subtrees of C_1 and C_n; s_i is where it branches off into the clique
subtree of C_i, and m_i is the median of m_1, m_n, s_i.  The checks verify, on
a concrete model, the facts that force those points to spread out
exponentially: the cover shape at each m_i, their order along the corridor,
the strictly-growing gaps, and the resulting radius floor of 2^(n-2) for the
last ball — a lower bound on k for ANY k-leaf root of R_n.  The model is
checked by center distances and its balls are materialized once, for the
corridor.  One search from each end of it places every s_i and m_i, and one
pairwise sweep gives the table ``dist`` that the report and every check read.
``check_order(bp, dist)`` and ``check_increasing(bp, dist)`` read nothing else,
with n = len(bp.m); ``check_median_cover(r, model, bp, i, dist)`` also reads
R_n's labels and the balls.

A model that verifies but fails a check is surfaced loudly, never swallowed.
Such a failure does not by itself falsify the bound: a seven-node ball model
of R_3 verifies and still fails ``gap_sum_floor``, whose 2^(n-1) - 1 is
asserted rather than derived from the other checks (ROADMAP item 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .models import RSModel, clique_subtree, cover, expand_rs, rs_model_violations
from .rn import RnGraph
from .trees import connecting_path, distances_from, pairwise_distances


@dataclass(frozen=True)
class BranchPoints:
    """m holds m_1..m_n in order; s maps i -> s_i for 2 <= i <= n-1."""

    m: tuple[str, ...]
    s: dict[int, str]


def branch_points(r: RnGraph, model: RSModel) -> BranchPoints:
    """Extract the branch points of a verifying ball model of R_n.

    A model that does not verify is refused by center distances before the one
    ball expansion, which gives the clique subtrees and the covers.  The corridor
    m_1 .. m_n joins C_1's and C_n's; one search from each end places the rest:

    1. Nearest node.  Clique subtrees are intersections of balls, so subtrees.
       C_1's and C_i's are disjoint, as a_1 and d_i are not adjacent (C_n's and
       C_i's, by d_n and a_i).  Every path from a subtree A to a disjoint
       subtree B enters B at one node, so the node of B nearest any node of A
       is unique: ``connecting_path(A, B)[-1]``.  s_i is found from each end,
       and the two answers must agree; the sort key (distance, name) only
       makes the result deterministic.
    2. Three-point median.  The median of m_1, m_n and s lies on the corridor,
       (d(m_1, s) + d(m_1, m_n) - d(m_n, s)) / 2 steps from m_1.
    """
    if not isinstance(model, RSModel):
        raise TypeError("branch_points requires a ball model (RSModel)")
    # Graph.build keeps the vertices in input order; the edges are sorted.
    if set(model.graph.vertices) != set(r.graph.vertices) or model.graph.edges != r.graph.edges:
        raise ValueError("not a model of R_n: the model's graph differs")
    if problems := rs_model_violations(model):
        raise ValueError(f"not a model of R_n: {problems[0]}")
    exp = expand_rs(model)

    host = model.host
    n = r.n
    subtree = {i: clique_subtree(exp, r.clique(i)) for i in range(1, n + 1)}

    corridor = connecting_path(host, subtree[1], subtree[n])
    m_first, m_last = corridor[0], corridor[-1]
    to_first, to_last = distances_from(host, m_first), distances_from(host, m_last)

    s: dict[int, str] = {}
    ms: list[str] = [m_first]
    for i in range(2, n):
        from_first = min(subtree[i], key=lambda x: (to_first[x], x))
        from_last = min(subtree[i], key=lambda x: (to_last[x], x))
        if from_first != from_last:
            raise ValueError(
                f"branch point s_{i} is ambiguous: {from_first!r} vs {from_last!r}"
            )
        if cover(exp, from_first) != r.clique(i):
            raise ValueError(f"cover of s_{i} is not the clique C_{i}")
        s[i] = from_first
        ms.append(corridor[(to_first[from_first] + to_first[m_last] - to_last[from_first]) // 2])
    ms.append(m_last)
    return BranchPoints(m=tuple(ms), s=s)


def check_median_cover(r: RnGraph, model: RSModel, bp: BranchPoints, i: int, dist: dict) -> bool:
    """Cover at m_i must be {a_i..a_n, b_i} plus a nonempty subset of {c_i, b_{i+1}}.

    The cover is read off the table's row for m_i: v covers m_i when
    dist(c_v, m_i) <= r_v.
    """
    n = r.n
    if not 1 < i < n:
        raise ValueError(f"index {i} must satisfy 1 < i < {n}")
    row = dist[bp.m[i - 1]]
    cov = {v for v, c in model.centers.items() if row[c] <= model.radii[v]}
    base = {r.a[j] for j in range(i, n + 1)} | {r.b[i]}
    return base < cov <= base | {r.c[i], r.b[i + 1]}


def check_order(bp: BranchPoints, dist: dict) -> bool:
    """m_1..m_n lie on the corridor from m_1 to m_n, at strictly increasing positions.

    This is the betweenness order — the m's pairwise distinct, and
    d(m_p, m_q) + d(m_q, m_t) = d(m_p, m_t) for all p < q < t — read along the
    one path: d(m_1, x) + d(x, m_n) = d(m_1, m_n) puts every m on it, d(m_1, m_k)
    strictly increasing in k orders them, and points in order on a path satisfy
    every triple.
    """
    ms = bp.m
    first, last = ms[0], ms[-1]
    if any(dist[first][x] + dist[x][last] != dist[first][last] for x in ms):
        return False
    return all(dist[first][x] < dist[first][y] for x, y in zip(ms, ms[1:]))


def check_increasing(bp: BranchPoints, dist: dict) -> bool:
    """Each gap beats the whole span so far: dist(m_i, m_{i+1}) > dist(m_2, m_i).

    The quantifier 2 < i < n is empty for n = 3, where the check is vacuously
    true and the certificate rests on the remaining checks.
    """
    ms = bp.m
    return all(dist[ms[i - 1]][ms[i]] > dist[ms[1]][ms[i - 1]] for i in range(3, len(ms)))


@dataclass(frozen=True)
class AuditReport:
    """Everything the lower-bound audit measured, plus per-check verdicts."""

    n: int
    branch_m: tuple[str, ...]
    branch_s: dict[int, str]
    m_distances: dict[str, int]
    dist_m2_mn: int
    max_radius: int
    radius_last_a: int
    lower_bound: int
    upper_bound: int
    checks: dict[str, bool]
    failed: tuple[str, ...]
    holds: bool


def lower_bound_certificate(r: RnGraph, model: RSModel) -> AuditReport:
    """Run every check and assemble the sandwich 2^(n-2) <= rank <= 2*r_max + 2.

    The radius floor rests on two facts.  The last a-vertex's ball contains
    both m_2 and m_n, which is measured: so its diameter is at least their
    distance, and a ball of radius rho has diameter at most 2*rho.  That
    distance is at least 2^(n-1) - 1, which ``gap_sum_floor`` asserts but no
    other check derives: increasing gaps from a first gap of one give only
    2^(n-2) - 1 (ROADMAP item 1).  Together they force
    radius(a_n) >= ceil(dist/2) >= 2^(n-2).
    """
    n = r.n
    bp = branch_points(r, model)
    ms = bp.m
    center_last_a, radius_last_a = model.centers[r.a[n]], model.radii[r.a[n]]
    max_radius = max(model.radii[v] for v in model.graph.vertices)
    dist = pairwise_distances(model.host, (*ms, *model.centers.values()))

    m_distances = {
        f"m{p + 1}-m{q + 1}": dist[ms[p]][ms[q]] for p in range(n) for q in range(p + 1, n)
    }
    dist_m2_mn = m_distances[f"m2-m{n}"]

    checks = {
        "median_cover": all(check_median_cover(r, model, bp, i, dist) for i in range(2, n)),
        "order": check_order(bp, dist),
        "increasing_gaps": check_increasing(bp, dist),
        "last_a_contains_m2_mn": all(
            dist[center_last_a][x] <= radius_last_a for x in (ms[1], ms[n - 1])
        ),
        "gap_sum_floor": dist_m2_mn >= 2 ** (n - 1) - 1,
        "radius_covers_diameter": radius_last_a >= (dist_m2_mn + 1) // 2,
        "radius_floor": radius_last_a >= 2 ** (n - 2),
    }
    failed = tuple(sorted(name for name, ok in checks.items() if not ok))
    return AuditReport(
        n=n,
        branch_m=ms,
        branch_s=dict(bp.s),
        m_distances=m_distances,
        dist_m2_mn=dist_m2_mn,
        max_radius=max_radius,
        radius_last_a=radius_last_a,
        lower_bound=2 ** (n - 2),
        upper_bound=2 * max_radius + 2,
        checks=dict(checks),
        failed=failed,
        holds=not failed,
    )


def report_to_json_obj(report: AuditReport) -> dict:
    return {
        "n": report.n,
        "branch_m": list(report.branch_m),
        "branch_s": {str(i): x for i, x in sorted(report.branch_s.items())},
        "m_distances": dict(sorted(report.m_distances.items())),
        "dist_m2_mn": report.dist_m2_mn,
        "max_radius": report.max_radius,
        "radius_last_a": report.radius_last_a,
        "lower_bound": report.lower_bound,
        "upper_bound": report.upper_bound,
        "checks": dict(sorted(report.checks.items())),
        "failed": list(report.failed),
        "holds": report.holds,
    }


def report_to_text(report: AuditReport) -> str:
    lines = [
        f"lower-bound audit for R_{report.n}",
        f"  branch points m: {', '.join(report.branch_m)}",
        "  branch points s: " + ", ".join(f"s_{i}={x}" for i, x in sorted(report.branch_s.items())),
        f"  dist(m_2, m_{report.n}) = {report.dist_m2_mn}",
        f"  max radius = {report.max_radius}; radius of last a-vertex = {report.radius_last_a}",
        "  checks:",
    ]
    for name, ok in sorted(report.checks.items()):
        lines.append(f"    {name}: {'pass' if ok else 'FAIL'}")
    sandwich = f"{report.lower_bound} <= leaf rank of R_{report.n} <= {report.upper_bound}"
    lines += [f"  sandwich: {sandwich}", f"  holds: {report.holds}"]
    return "\n".join(lines) + "\n"

