"""Tests of the benchmark itself: its checkers, its tracer and its failure mode.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import networkx as nx
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import clock  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from leafpower.certify import certify_leaf_power, weighted_leafroot_to_json_obj  # noqa: E402
from leafpower.graphs import graph_from_json_obj  # noqa: E402
from leafpower.rn import build_exponential_rs_model, build_rn  # noqa: E402
from leafpower.roots import leafroot_to_json_obj, rs_to_leafroot  # noqa: E402


def emitted_root(n: int) -> dict:
    return leafroot_to_json_obj(rs_to_leafroot(build_exponential_rs_model(build_rn(n))))


def witness_for(graph: dict, max_internal: int) -> dict:
    return weighted_leafroot_to_json_obj(certify_leaf_power(graph_from_json_obj(graph), max_internal))


def namespaces() -> dict[tuple[str, str], object]:
    """Every attribute of every loaded leafpower module, plus Tree.build."""
    snap = {
        (name, key): value
        for name, module in list(sys.modules.items())
        if name == "leafpower" or name.startswith("leafpower.")
        for key, value in vars(module).items()
    }
    snap[("Tree", "build")] = sys.modules["leafpower.trees"].Tree.__dict__["build"]
    return snap


def changed(before: dict) -> list:
    return [key for key, value in namespaces().items() if before.get(key) is not value]


# -------------------------------------------------------------------- checkers


@pytest.mark.parametrize("n", [3, 4, 5])
def test_leaf_root_check_accepts_emitted_root_and_rejects_k_minus_one(n):
    root = emitted_root(n)
    assert checks.check_leaf_root(n, root) == []
    assert checks.check_leaf_root(n, {**root, "k": root["k"] - 1})


def test_leaf_root_check_rejects_swapped_leaves():
    root = emitted_root(3)
    placement = dict(root["placement"])
    placement["a1"], placement["d3"] = placement["d3"], placement["a1"]
    assert checks.check_leaf_root(3, {**root, "placement": placement})


def test_audit_check_rejects_wrong_bounds():
    good = {"n": 4, "holds": True, "failed": [], "lower_bound": 4, "upper_bound": 32}
    assert checks.check_audit(4, good) == []
    assert checks.check_audit(4, {**good, "upper_bound": 30})
    assert checks.check_audit(4, {**good, "holds": False, "failed": ["order"]})


def test_certify_check_rejects_a_yes_for_c4():
    rng = random.Random(0)
    c4 = workloads.graph_json(rng, nx.cycle_graph(4))
    p4 = {"vertices": c4["vertices"], "edges": [e for e in c4["edges"] if set(e) != {c4["vertices"][0], c4["vertices"][3]}]}
    forged = json.dumps(witness_for(p4, 2))
    assert checks.check_certify(p4, True, 0, forged) == []
    assert checks.check_certify(c4, False, 0, forged)
    assert checks.check_witness(c4, json.loads(forged))
    assert checks.check_certify(c4, False, 1, "no root within bound\n") == []


def test_certify_check_rejects_a_no_for_a_chordal_graph_and_a_bad_margin():
    p4 = workloads.graph_json(random.Random(1), nx.path_graph(4))
    assert checks.check_certify(p4, False, 1, "no root within bound\n")
    witness = witness_for(p4, 2)
    assert checks.check_witness(p4, {**witness, "margin": {"num": "0", "den": "1"}})


def test_leafrank_check_rejects_a_rank_for_a_non_chordal_graph():
    c4 = workloads.graph_json(random.Random(2), nx.cycle_graph(4))
    assert checks.check_leafrank(c4, 0, "4\n")
    assert checks.check_leafrank(c4, 1, "unknown\n") == []


def test_leafrank_check_knows_p3_k3_and_cluster_graphs():
    p3 = workloads.graph_json(random.Random(3), nx.path_graph(3))
    k3 = workloads.graph_json(random.Random(3), nx.complete_graph(3))
    p4 = workloads.graph_json(random.Random(3), nx.path_graph(4))
    assert checks.check_leafrank(p3, 0, "3\n") == []
    assert checks.check_leafrank(p3, 0, "2\n")
    assert checks.check_leafrank(k3, 0, "2\n") == []
    assert checks.check_leafrank(p4, 0, "2\n")


def test_rejection_check_wants_exit_1_and_the_damaged_vertex():
    message = "model does not verify: balls of adjacent 'a1' and 'b1' are disjoint"
    assert checks.check_rejection(1, message, "a1") == []
    assert checks.check_rejection(1, message, "a11")
    assert checks.check_rejection(2, message, "a1")


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_benchmark_model_is_valid_until_damaged(n):
    model = workloads.rs_model_json(n)
    for vertex in model["radii"]:
        assert not checks.damaged_model_breaks(model, vertex)
    for vertex in (f"a{n}", "b1", f"c{n}"):
        damaged = json.loads(json.dumps(model))
        damaged["radii"][vertex] -= 1
        assert checks.damaged_model_breaks(damaged, vertex)


def test_contracted_distances_match_networkx():
    rng = random.Random(4)
    for _ in range(20):
        tree = nx.random_labeled_tree(rng.randrange(2, 40), seed=rng.randrange(10**6))
        nodes = [str(x) for x in tree.nodes]
        adj, problems = checks._tree_adjacency(nodes, [[str(u), str(v)] for u, v in tree.edges])
        assert problems == []
        terminals = rng.sample(nodes, min(5, len(nodes)))
        dist = checks.pairwise_distances(adj, terminals)
        for s in terminals:
            for t in terminals:
                assert dist[(s, t)] == nx.shortest_path_length(tree, int(s), int(t))


# -------------------------------------------------------------------- tracer


@pytest.fixture
def small_certify(tmp_path):
    instances = workloads.build("certify", 7, tmp_path, run.import_program())
    return [inst for inst in instances if inst.label in ("P4", "K4", "C4")]


def test_traced_run_restores_every_wrapped_attribute(small_certify):
    before = namespaces()
    result = run.measure(small_certify, 0, trace=True)
    assert changed(before) == []
    assert result["problems"] == [] and result["failed"] == 0
    assert result["layers"]["exactlp.solves"] == 7 + 1 + 12
    assert result["layers"]["trees.build_nodes"] > 0


def test_untraced_run_installs_no_wrapper(small_certify):
    before = namespaces()
    seen = []
    probe = workloads.Instance(
        "probe", lambda: seen.append(changed(before)) or workloads.Outcome(True, (0,)), lambda out: []
    )
    result = run.measure([probe, *small_certify], 0, trace=False)
    assert seen == [[]]
    assert "layers" not in result and result["problems"] == []


def test_traced_counts_repeat_exactly(small_certify):
    first = run.measure(small_certify, 0, trace=True)["layers"]
    second = run.measure(small_certify, 0, trace=True)["layers"]
    counts = [m for m, (unit, _) in layers.METRICS.items() if unit in ("count", "bytes", "ratio")]
    assert {m: first[m] for m in counts} == {m: second[m] for m in counts}


def test_traced_family_counts_calls_made_through_every_namespace(tmp_path):
    instances = workloads.build("family", 3, tmp_path, run.import_program())
    result = run.measure([inst for inst in instances if inst.label.startswith("R3")], 0, trace=True)
    assert result["problems"] == [] and result["failed"] == 0
    layer = result["layers"]
    # distances_from is reached as models.distances_from, roots.distances_from,
    # audit.distances_from and trees.distances_from (inside ball).
    assert layer["trees.distances_from_calls"] > 12
    assert layer["rn.host_nodes"] == 2**3 - 1 + 2 + 4 + 8
    assert layer["roots.root_nodes"] > 0 and layer["models.ball_nodes"] > 0
    assert layer["audit.certificate_s"] > 0 and layer["exactlp.solves"] == 0


def test_self_times_subtract_children():
    tracer = layers.Tracer()
    tracer.spans = [["outer", 0.0, 10.0, -1], ["inner", 2.0, 5.0, 0], ["inner", 6.0, 7.0, 0]]
    assert tracer.self_times() == {"outer": 6.0, "inner": 4.0}


# --------------------------------------------------------------------- clock


def busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_reference_clock_scales_by_the_sampled_speed(monkeypatch):
    # A calibration loop twice as slow as the reference means a machine at
    # half speed, so the scaled time is half the raw time.
    monkeypatch.setattr(clock, "_calibrate", lambda: busy(2 * clock.REFERENCE_S))
    previous = signal.getsignal(signal.SIGALRM)
    with clock.ReferenceClock() as speed:
        _, raw, scaled = speed.time(lambda: busy(0.3))
        assert len(speed.samples) > 5
    assert signal.getsignal(signal.SIGALRM) is previous
    assert 0.28 < raw < 0.4
    assert scaled == pytest.approx(raw / 2, rel=0.1)


# ------------------------------------------------------------- failure mode


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "family", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
