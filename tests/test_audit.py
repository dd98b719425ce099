"""Tests for branch-point extraction and the lower-bound audit."""
from __future__ import annotations

import json
import random
from itertools import combinations

import pytest

from leafpower import (
    AuditReport,
    BranchPoints,
    Graph,
    RSModel,
    Tree,
    branch_points,
    build_exponential_rs_model,
    build_rdp_model,
    build_rn,
    check_increasing,
    check_median_cover,
    check_order,
    cover,
    distance,
    distances_from,
    dumps,
    expand_rs,
    leafroot_to_rs,
    lower_bound_certificate,
    report_to_json_obj,
    report_to_text,
    rs_model_from_json_obj,
    rs_model_to_json_obj,
    rs_to_leafroot,
    tree_path,
    verify_rs_model,
)

from conftest import random_tree_rng

ALL_CHECKS = {
    "median_cover",
    "order",
    "increasing_gaps",
    "last_a_contains_m2_mn",
    "gap_sum_floor",
    "radius_covers_diameter",
    "radius_floor",
}


def r3_fixture() -> tuple:
    """A seven-node ball model of R_3 that verifies (ROADMAP item 1).

    Every vertex with index i is centred at y<i>, except d2 at z2.
    """
    r = build_rn(3)
    host = Tree.build(
        ["x1", "x2", "x3", "y1", "y2", "y3", "z2"],
        [("x1", "x2"), ("x2", "x3"), ("x1", "y1"), ("x2", "y2"), ("x3", "y3"), ("y2", "z2")],
    )
    radii = {
        "a1": 1, "a2": 2, "a3": 3,
        "b1": 1, "b2": 2, "b3": 2,
        "c1": 1, "c2": 1, "c3": 0,
        "d1": 0, "d2": 0, "d3": 0,
    }
    centers = {v: f"y{v[1:]}" for v in radii}
    centers["d2"] = "z2"
    return r, RSModel.build(host, r.graph, centers, radii)


def audited_models() -> list:
    """The built-in models for n = 3..8, then the R_3 fixture."""
    models = []
    for n in range(3, 9):
        r = build_rn(n)
        models.append((r, build_exponential_rs_model(r)))
    return models + [r3_fixture()]


MODEL_IDS = [f"R{n}" for n in range(3, 9)] + ["fixture"]


def betweenness_order(host: Tree, ms: tuple) -> bool:
    """The order check by its definition: distinct, and every middle m between each outer pair."""
    if len(set(ms)) != len(ms):
        return False
    dist = {x: distances_from(host, x) for x in ms}
    return all(
        dist[ms[p]][ms[q]] + dist[ms[q]][ms[t]] == dist[ms[p]][ms[t]]
        for p, q, t in combinations(range(len(ms)), 3)
    )


def path_position_order(host: Tree, ms: tuple) -> bool:
    """The order check by positions: every m on the path from m_1 to m_n, positions increasing."""
    position = {x: k for k, x in enumerate(tree_path(host, ms[0], ms[-1]))}
    if any(x not in position for x in ms):
        return False
    return all(position[x] < position[y] for x, y in zip(ms, ms[1:]))


# ---------------------------------------------------------------------------
# Branch points
# ---------------------------------------------------------------------------

class TestBranchPoints:
    def test_frozen_locations_for_n3(self):
        r = build_rn(3)
        bp = branch_points(r, build_exponential_rs_model(r))
        assert bp.m == ("h1_2", "s2", "h3_8")
        assert bp.s == {2: "h2_4"}

    def test_frozen_locations_for_n4(self):
        r = build_rn(4)
        bp = branch_points(r, build_exponential_rs_model(r))
        assert bp.m == ("h1_2", "s2", "s6", "h4_16")
        assert bp.s == {2: "h2_4", 3: "h3_8"}

    def test_requires_ball_model(self):
        r = build_rn(3)
        with pytest.raises(TypeError, match="requires a ball model"):
            branch_points(r, build_rdp_model(r))

    def test_rejects_model_of_a_different_graph(self):
        r4, r5 = build_rn(4), build_rn(5)
        m4 = build_exponential_rs_model(r4)
        with pytest.raises(ValueError, match="the model's graph differs"):
            branch_points(r5, m4)

    def test_rejects_damaged_model_with_violation_message(self):
        r = build_rn(4)
        m = build_exponential_rs_model(r)
        damaged = RSModel.build(
            m.host,
            m.graph,
            dict(m.centers),
            {**dict(m.radii.items()), "a4": 1},
        )
        with pytest.raises(ValueError, match="not a model of R_n: "):
            branch_points(r, damaged)


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------

class TestChecks:
    def test_all_pass_on_the_exponential_model(self):
        for n in range(3, 7):
            r = build_rn(n)
            m = build_exponential_rs_model(r)
            bp = branch_points(r, m)
            for i in range(2, n):
                assert check_median_cover(r, m, bp, i)
            assert check_order(r, m, bp)
            assert check_increasing(r, m, bp)

    def test_median_cover_index_range(self):
        r = build_rn(4)
        m = build_exponential_rs_model(r)
        bp = branch_points(r, m)
        with pytest.raises(ValueError, match="must satisfy 1 < i < 4"):
            check_median_cover(r, m, bp, 1)
        with pytest.raises(ValueError, match="must satisfy 1 < i < 4"):
            check_median_cover(r, m, bp, 4)

    def test_median_cover_rejects_forged_point(self):
        r = build_rn(4)
        m = build_exponential_rs_model(r)
        bp = branch_points(r, m)
        forged = BranchPoints(m=(bp.m[0], "s0", bp.m[2], bp.m[3]), s=bp.s)
        assert not check_median_cover(r, m, forged, 2)

    def test_order_rejects_swapped_points(self):
        r = build_rn(4)
        m = build_exponential_rs_model(r)
        bp = branch_points(r, m)
        swapped = BranchPoints(
            m=(bp.m[0], bp.m[2], bp.m[1], bp.m[3]), s=bp.s
        )
        assert not check_order(r, m, swapped)

    def test_order_rejects_duplicate_points(self):
        r = build_rn(4)
        m = build_exponential_rs_model(r)
        bp = branch_points(r, m)
        doubled = BranchPoints(
            m=(bp.m[0], bp.m[1], bp.m[1], bp.m[3]), s=bp.s
        )
        assert not check_order(r, m, doubled)

    def test_increasing_gaps_vacuous_for_n3(self):
        r = build_rn(3)
        m = build_exponential_rs_model(r)
        assert check_increasing(r, m, branch_points(r, m))

    def test_increasing_gaps_rejects_equally_spaced_fakes(self):
        r = build_rn(5)
        m = build_exponential_rs_model(r)
        bp = branch_points(r, m)
        fake = BranchPoints(
            m=(bp.m[0], "s2", "s6", "s10", bp.m[4]), s=bp.s
        )
        assert check_order(r, m, fake)
        assert not check_increasing(r, m, fake)


# ---------------------------------------------------------------------------
# The full certificate
# ---------------------------------------------------------------------------

class TestLowerBoundCertificate:
    def test_holds_across_the_sweep(self):
        for n in range(3, 9):
            r = build_rn(n)
            m = build_exponential_rs_model(r)
            rep = lower_bound_certificate(r, m)
            assert rep.holds
            assert rep.failed == ()
            assert set(rep.checks) == ALL_CHECKS

    def test_frozen_distances_and_bounds(self):
        expected = {
            3: (12, 2, 16),
            4: (28, 4, 32),
            5: (60, 8, 64),
            6: (124, 16, 128),
            7: (252, 32, 256),
            8: (508, 64, 512),
        }
        for n, (dist, lower, upper) in expected.items():
            r = build_rn(n)
            rep = lower_bound_certificate(r, build_exponential_rs_model(r))
            assert rep.dist_m2_mn == dist
            assert rep.lower_bound == lower
            assert rep.upper_bound == upper
            assert rep.max_radius == 2**n - 1

    def test_distance_table_is_symmetric_data(self):
        r = build_rn(4)
        rep = lower_bound_certificate(r, build_exponential_rs_model(r))
        assert rep.m_distances["m2-m4"] == rep.dist_m2_mn
        assert rep.m_distances["m1-m2"] + rep.m_distances["m2-m3"] == (
            rep.m_distances["m1-m3"]
        )

    def test_upper_bound_is_witnessed_by_a_conversion(self):
        # The sandwich is honest: converting the audited model back to an
        # integer leaf root realizes the claimed upper bound.
        r = build_rn(4)
        m = build_exponential_rs_model(r)
        rep = lower_bound_certificate(r, m)
        root = rs_to_leafroot(m)
        assert root.k == rep.upper_bound

    def test_round_tripped_model_still_audits(self):
        for n in (3, 4):
            r = build_rn(n)
            m = build_exponential_rs_model(r)
            rebuilt = leafroot_to_rs(rs_to_leafroot(m))
            assert rebuilt.graph == r.graph
            assert verify_rs_model(rebuilt)
            rep = lower_bound_certificate(r, rebuilt)
            assert rep.holds
            # Subdivision doubles all the distances.
            direct = lower_bound_certificate(r, m)
            assert rep.dist_m2_mn == 2 * direct.dist_m2_mn


# ---------------------------------------------------------------------------
# The R_3 fixture and cross-checks against the definitions
# ---------------------------------------------------------------------------

class TestAgainstDefinitions:
    def test_fixture_verifies_and_fails_only_the_gap_sum_floor(self):
        r, m = r3_fixture()
        assert verify_rs_model(m)
        bp = branch_points(r, m)
        assert bp.m == ("y1", "x2", "y3")
        assert bp.s == {2: "z2"}
        rep = lower_bound_certificate(r, m)
        assert rep.dist_m2_mn == 2
        assert rep.failed == ("gap_sum_floor",)
        assert all(ok for name, ok in rep.checks.items() if name != "gap_sum_floor")

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: gap_sum_floor asks dist(m_2, m_n) >= 2^(n-1) - 1, "
        "one more than verifying models reach",
    )
    def test_fixture_audit_holds(self):
        assert lower_bound_certificate(*r3_fixture()).holds

    @pytest.mark.parametrize("r, m", audited_models(), ids=MODEL_IDS)
    def test_distances_are_bfs_distances(self, r, m):
        rep = lower_bound_certificate(r, m)
        ms = rep.branch_m
        for p, q in combinations(range(r.n), 2):
            assert rep.m_distances[f"m{p + 1}-m{q + 1}"] == distances_from(m.host, ms[p])[ms[q]]

    @pytest.mark.parametrize("r, m", audited_models(), ids=MODEL_IDS)
    def test_median_cover_is_the_expanded_cover(self, r, m):
        bp = branch_points(r, m)
        exp = expand_rs(m)
        for i in range(2, r.n):
            cov = set(cover(exp, bp.m[i - 1]))
            base = {r.a[j] for j in range(i, r.n + 1)} | {r.b[i]}
            expected = base < cov <= base | {r.c[i], r.b[i + 1]}
            assert check_median_cover(r, m, bp, i) == expected

    @pytest.mark.parametrize("r, m", audited_models(), ids=MODEL_IDS)
    def test_order_agrees_with_betweenness(self, r, m):
        bp = branch_points(r, m)
        corridor = tree_path(m.host, bp.m[0], bp.m[-1])
        rng = random.Random(r.n)
        candidates = [bp.m, bp.m[::-1]]
        for k in range(r.n - 1):
            # Neighbours k and k+1 swapped, then m_{k+2} written over m_{k+1}.
            swapped = list(bp.m)
            swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
            candidates += [tuple(swapped), bp.m[:k] + bp.m[k + 1 : k + 2] + bp.m[k + 1 :]]
        for _ in range(20):
            picked = rng.sample(corridor, min(r.n, len(corridor)))
            candidates += [tuple(sorted(picked, key=corridor.index)), tuple(picked)]
            candidates.append(tuple(rng.choice(m.host.nodes) for _ in range(r.n)))
        verdicts = set()
        for ms in candidates:
            fake = BranchPoints(m=ms, s=bp.s)
            verdict = betweenness_order(m.host, ms)
            assert check_order(r, m, fake) == verdict, ms
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_order_agrees_with_path_positions_on_random_trees(self):
        # Sequences drawn from one path of the tree, in order or not, with
        # repeats, and from the whole tree, so some nodes lie off the path.
        rng = random.Random(1409)
        r = build_rn(3)
        verdicts = []
        for _ in range(300):
            host = random_tree_rng(rng, 1, 12)
            model = RSModel.build(host, Graph.build(["v"], []), {"v": host.nodes[0]}, {"v": 0})
            path = tree_path(host, rng.choice(host.nodes), rng.choice(host.nodes))
            size = rng.randint(1, 6)
            picked = rng.sample(path, min(size, len(path)))
            for ms in (
                tuple(sorted(picked, key=path.index)),
                tuple(picked),
                tuple(rng.choices(path, k=size)),
                tuple(rng.choices(host.nodes, k=size)),
            ):
                verdict = path_position_order(host, ms)
                assert check_order(r, model, BranchPoints(m=ms, s={})) == verdict, ms
                verdicts.append(verdict)
        assert 100 < sum(verdicts) < len(verdicts) - 100


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

class TestReportRendering:
    def test_text_report_contains_sandwich_and_checks(self):
        r = build_rn(4)
        rep = lower_bound_certificate(r, build_exponential_rs_model(r))
        text = report_to_text(rep)
        assert "lower-bound audit for R_4" in text
        assert "sandwich: 4 <= leaf rank of R_4 <= 32" in text
        assert "holds: True" in text
        for name in ALL_CHECKS:
            assert f"{name}: pass" in text

    def test_text_report_marks_failures(self):
        rep = AuditReport(
            n=4,
            branch_m=("a", "b", "c", "d"),
            branch_s={2: "x", 3: "y"},
            m_distances={},
            dist_m2_mn=1,
            max_radius=1,
            radius_last_a=1,
            lower_bound=4,
            upper_bound=4,
            checks={"order": False, "median_cover": True},
            failed=("order",),
            holds=False,
        )
        text = report_to_text(rep)
        assert "order: FAIL" in text
        assert "holds: False" in text

    def test_json_report_shape(self):
        r = build_rn(3)
        rep = lower_bound_certificate(r, build_exponential_rs_model(r))
        payload = json.loads(dumps(report_to_json_obj(rep)))
        assert payload["n"] == 3
        assert payload["holds"] is True
        assert payload["branch_s"] == {"2": "h2_4"}
        assert set(payload["checks"]) == ALL_CHECKS

    def test_failed_model_dump_is_valid_model_json(self):
        r = build_rn(3)
        m = build_exponential_rs_model(r)
        payload = json.loads(dumps(rs_model_to_json_obj(m)))
        assert set(payload) == {"host", "graph", "centers", "radii"}
        assert rs_model_from_json_obj(payload) == m
