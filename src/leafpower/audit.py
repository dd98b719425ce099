"""Machine-checking the exponential lower bound on ball models of R_n.

Any ball model of R_n pins down canonical *branch points* in its host tree:
m_1 and m_n are the endpoints of the connecting path between the clique
subtrees of C_1 and C_n, s_i is where that corridor branches off into the
clique subtree of C_i, and m_i is the median of m_1, m_n, s_i.  The checks in
this module verify, on a concrete model, the facts that force those branch
points to spread out exponentially: the cover shape at each m_i, their linear
order along the corridor, the strictly-growing gaps, and the resulting radius
floor of 2^(n-2) for the last ball — which is a lower bound on how small k can
be for ANY k-leaf root of R_n.  The model is checked by center distances, then
its balls are materialized once, to find the branch points; every later check
reads the model through tree distances.

A model that verifies but fails a check is surfaced loudly, never swallowed.
Such a failure does not by itself falsify the bound: a seven-node ball model
of R_3 verifies and still fails ``gap_sum_floor``, whose 2^(n-1) - 1 is
asserted rather than derived from the other checks (ROADMAP item 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .models import RSModel, clique_subtree, cover, expand_rs, rs_model_violations
from .rn import RnGraph
from .trees import connecting_path, distance, distances_from, median, tree_path


@dataclass(frozen=True)
class BranchPoints:
    """m holds m_1..m_n in order; s maps i -> s_i for 2 <= i <= n-1."""

    m: tuple[str, ...]
    s: dict[int, str]


def branch_points(r: RnGraph, model: RSModel) -> BranchPoints:
    """Extract the branch points of a verifying ball model of R_n.

    A model that does not verify is refused by center distances before the one
    ball expansion, which gives the clique subtrees and the covers.  s_i is
    computed twice — once approaching from the clique subtree of C_1 and once
    from that of C_n — and the two answers are required to agree rather than
    assumed to.
    """
    if not isinstance(model, RSModel):
        raise TypeError("branch_points requires a ball model (RSModel)")
    if model.graph != r.graph:
        raise ValueError("not a model of R_n: the model's graph differs")
    if problems := rs_model_violations(model):
        raise ValueError(f"not a model of R_n: {problems[0]}")
    exp = expand_rs(model)

    host = model.host
    n = r.n
    subtree = {i: clique_subtree(exp, r.clique(i)) for i in range(1, n + 1)}

    corridor = connecting_path(host, subtree[1], subtree[n])
    m_first, m_last = corridor[0], corridor[-1]

    s: dict[int, str] = {}
    ms: list[str] = [m_first]
    for i in range(2, n):
        from_first = connecting_path(host, subtree[1], subtree[i])[-1]
        from_last = connecting_path(host, subtree[n], subtree[i])[-1]
        if from_first != from_last:
            raise ValueError(
                f"branch point s_{i} is ambiguous: {from_first!r} vs {from_last!r}"
            )
        expected = set(r.clique(i).members)
        if set(cover(exp, from_first)) != expected:
            raise ValueError(f"cover of s_{i} is not the clique C_{i}")
        s[i] = from_first
        ms.append(median(host, m_first, m_last, from_first))
    ms.append(m_last)
    return BranchPoints(m=tuple(ms), s=s)


def check_median_cover(r: RnGraph, model: RSModel, bp: BranchPoints, i: int) -> bool:
    """Cover at m_i must be {a_i..a_n, b_i} plus a nonempty subset of {c_i, b_{i+1}}.

    The cover is read off one search from m_i: v covers m_i when
    dist(c_v, m_i) <= r_v.
    """
    n = r.n
    if not 1 < i < n:
        raise ValueError(f"index {i} must satisfy 1 < i < {n}")
    dist = distances_from(model.host, bp.m[i - 1])
    cov = {v for v, c in model.centers.items() if dist[c] <= model.radii[v]}
    base = {r.a[j] for j in range(i, n + 1)} | {r.b[i]}
    allowed_extras = {r.c[i], r.b[i + 1]}
    return base < cov and cov <= base | allowed_extras


def check_order(r: RnGraph, model: RSModel, bp: BranchPoints) -> bool:
    """m_1..m_n lie on the corridor from m_1 to m_n, at strictly increasing positions.

    This is the betweenness order — the m's pairwise distinct, and
    d(m_p, m_q) + d(m_q, m_t) = d(m_p, m_t) for all p < q < t — read along
    the one path: the pairs (1, n) put every m on it, the pairs (1, t) make
    the positions monotone, and points in order on a path satisfy every triple.
    """
    ms = bp.m
    position = {x: k for k, x in enumerate(tree_path(model.host, ms[0], ms[-1]))}
    if any(x not in position for x in ms):
        return False
    return all(position[x] < position[y] for x, y in zip(ms, ms[1:]))


def check_increasing(r: RnGraph, model: RSModel, bp: BranchPoints) -> bool:
    """Each gap beats the whole span so far: dist(m_i, m_{i+1}) > dist(m_2, m_i).

    The quantifier 2 < i < n is empty for n = 3, where the check is vacuously
    true and the certificate rests on the remaining checks.
    """
    ms = bp.m
    host = model.host
    return all(
        distance(host, ms[i - 1], ms[i]) > distance(host, ms[1], ms[i - 1])
        for i in range(3, r.n)
    )


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
    host = model.host

    m_distances = {
        f"m{p + 1}-m{q + 1}": distance(host, ms[p], ms[q])
        for p in range(n)
        for q in range(p + 1, n)
    }
    dist_m2_mn = m_distances[f"m2-m{n}"]

    last_a = r.a[n]
    radius_last_a = model.radii[last_a]
    max_radius = max(model.radii[v] for v in model.graph.vertices)
    center_last_a = model.centers[last_a]

    checks = {
        "median_cover": all(check_median_cover(r, model, bp, i) for i in range(2, n)),
        "order": check_order(r, model, bp),
        "increasing_gaps": check_increasing(r, model, bp),
        "last_a_contains_m2_mn": all(
            distance(host, center_last_a, x) <= radius_last_a for x in (ms[1], ms[n - 1])
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
        f"  branch points s: "
        + (
            ", ".join(f"s_{i}={x}" for i, x in sorted(report.branch_s.items()))
            or "(none)"
        ),
        f"  dist(m_2, m_{report.n}) = {report.dist_m2_mn}",
        f"  max radius = {report.max_radius}; radius of last a-vertex = {report.radius_last_a}",
        "  checks:",
    ]
    for name, ok in sorted(report.checks.items()):
        lines.append(f"    {name}: {'pass' if ok else 'FAIL'}")
    lines.append(
        f"  sandwich: {report.lower_bound} <= leaf rank of R_{report.n}"
        f" <= {report.upper_bound}"
    )
    lines.append(f"  holds: {report.holds}")
    return "\n".join(lines) + "\n"

