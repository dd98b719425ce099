"""The three workloads: seeded inputs written to disk, and the instances run on them.

An instance is one unit of user-visible work driven through
``leafpower.cli.main`` with input and output files.  ``run`` is the timed
part; ``check`` judges its outcome with :mod:`checks` and runs untimed.  The
seed changes vertex names, edge order and which radius is damaged.  Only the
last can change the work, and only slightly: a damaged model is rejected after
the same expansion and the same all-pairs check wherever the damage is.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import string
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import networkx as nx

import checks

#: R_3 .. R_11: the emitted root of R_11 has 87 053 nodes; R_12 would take
#: 18 s and 0.5 GB per repetition, mostly in verify_leaf_root.
FAMILY_N = range(3, 12)

#: (name, graph, --max-internal, known verdict).  The no-inputs are cycles,
#: which are not chordal and so have no leaf root at all.
CERTIFY_CASES = (
    ("P4", nx.path_graph(4), 2, True),
    ("P5", nx.path_graph(5), 3, True),
    ("K4", nx.complete_graph(4), 1, True),
    ("C4", nx.cycle_graph(4), 3, False),
    ("C5", nx.cycle_graph(5), 3, False),
)

LEAFRANK_MAX_VERTICES = 6
LEAFRANK_MAX_NODES = 10


@dataclass
class Outcome:
    verdict: bool
    codes: tuple[int, ...]
    message: str = ""


@dataclass
class Instance:
    label: str
    run: Callable[[], Outcome]
    check: Callable[[Outcome], list[str]]
    outputs: list[Path] = field(default_factory=list)


def call_cli(lp: SimpleNamespace, argv: list[str]) -> tuple[int, str]:
    """Run one ``leafpower`` command in-process; return its exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = lp.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, err.getvalue()


def _command(
    lp: SimpleNamespace, label: str, argv: list[str], check: Callable[[Outcome], list[str]], out: Path
) -> Instance:
    """An instance that is one CLI command; its verdict is "exit code 0"."""

    def run() -> Outcome:
        code, message = call_cli(lp, argv)
        return Outcome(code == 0, (code,), message)

    return Instance(label, run, check, [out])


def _random_names(rng: random.Random, count: int) -> list[str]:
    names: list[str] = []
    while len(names) < count:
        name = "".join(rng.choices(string.ascii_lowercase, k=5))
        if name not in names:
            names.append(name)
    return names


def graph_json(rng: random.Random, g: nx.Graph) -> dict:
    """``g`` under fresh random names, vertices kept in ``g``'s order.

    The order is kept because the searches try vertices in file order; the
    edge list is shuffled and each edge flipped at random, which the program
    must not care about.
    """
    names = dict(zip(g.nodes, _random_names(rng, g.number_of_nodes())))
    edges = [[names[u], names[v]] for u, v in g.edges]
    for e in edges:
        rng.shuffle(e)
    rng.shuffle(edges)
    return {"vertices": [names[v] for v in g.nodes], "edges": edges}


def rs_model_json(n: int) -> dict:
    """The exponential-radius ball model of R_n, built from its published layout.

    A spine s_0 .. s_{2^n-2}; at s_{2^i-2} a hair h{i}_1 .. h{i}_{2^i}.
    d_i sits on the hair tip with radius 0, c_i at depth 2^(i-1) with radius
    2^(i-1), b_i at depth 2^(i-2) with radius 3*2^(i-2) and a_i at depth 1
    with radius 2^i - 1 (a_1 and b_1 at h1_1 with radius 1).
    """
    nodes = [f"s{p}" for p in range(2**n - 1)]
    edges = [[f"s{p}", f"s{p + 1}"] for p in range(2**n - 2)]
    centers, radii = {}, {}
    for i in range(1, n + 1):
        hair = [f"h{i}_{depth}" for depth in range(1, 2**i + 1)]
        nodes += hair
        edges.append([f"s{2**i - 2}", hair[0]])
        edges += [[x, y] for x, y in zip(hair, hair[1:])]
        centers[f"d{i}"], radii[f"d{i}"] = hair[-1], 0
        centers[f"c{i}"], radii[f"c{i}"] = hair[2 ** (i - 1) - 1], 2 ** (i - 1)
        if i == 1:
            centers["a1"], radii["a1"] = hair[0], 1
            centers["b1"], radii["b1"] = hair[0], 1
        else:
            centers[f"b{i}"], radii[f"b{i}"] = hair[2 ** (i - 2) - 1], 3 * 2 ** (i - 2)
            centers[f"a{i}"], radii[f"a{i}"] = hair[0], 2**i - 1
    vertices, graph_edges = checks.rn_graph(n)
    return {
        "host": {"nodes": nodes, "edges": edges},
        "graph": {"vertices": vertices, "edges": sorted(sorted(e) for e in graph_edges)},
        "centers": centers,
        "radii": radii,
    }


def _write(path: Path, obj: object) -> Path:
    path.write_text(json.dumps(obj))
    return path


def _family(rng: random.Random, work: Path, lp: SimpleNamespace) -> list[Instance]:
    instances = []
    for n in FAMILY_N:
        model, audit, root = work / f"model{n}.json", work / f"audit{n}.json", work / f"root{n}.json"

        def run(n=n, model=model, audit=audit, root=root) -> Outcome:
            codes = (
                call_cli(lp, ["rs-model", "--n", str(n), "--out", str(model)])[0],
                call_cli(lp, ["audit", "--model", str(model), "--format", "json", "--out", str(audit)])[0],
                call_cli(lp, ["convert", "--from", "rs", "--input", str(model), "--out", str(root)])[0],
            )
            if any(codes):
                return Outcome(False, codes)
            emitted = lp.roots.leafroot_from_json_obj(json.loads(root.read_text()))
            return Outcome(lp.roots.verify_leaf_root(lp.rn.build_rn(n).graph, emitted), codes)

        def check(out: Outcome, n=n, audit=audit, root=root) -> list[str]:
            if out.codes != (0, 0, 0) or not out.verdict:
                return [f"pipeline codes {out.codes}, root verifies: {out.verdict}"]
            return checks.check_audit(n, json.loads(audit.read_text())) + checks.check_leaf_root(
                n, json.loads(root.read_text())
            )

        instances.append(Instance(f"R{n}", run, check, [model, audit, root]))

    for n in FAMILY_N:
        damaged = rs_model_json(n)
        vertex = rng.choice([f"{g}{i}" for g in "abc" for i in range(1, n + 1)])
        damaged["radii"][vertex] = rng.randrange(damaged["radii"][vertex])
        path = _write(work / f"damaged{n}.json", damaged)
        commands = {
            "audit": ["audit", "--model", str(path), "--format", "json", "--out", str(work / f"daudit{n}.json")],
            "convert": ["convert", "--from", "rs", "--input", str(path), "--out", str(work / f"droot{n}.json")],
        }
        for command, argv in commands.items():

            def check(out: Outcome, vertex=vertex, path=path) -> list[str]:
                problems = checks.check_rejection(out.codes[0], out.message, vertex)
                if not checks.damaged_model_breaks(json.loads(path.read_text()), vertex):
                    problems.append(f"damaging {vertex} left the model valid")
                return problems

            label = f"R{n}-{command}-damaged-{vertex}"
            instances.append(_command(lp, label, argv, check, Path(argv[-1])))
    return instances


def _certify(rng: random.Random, work: Path, lp: SimpleNamespace) -> list[Instance]:
    instances = []
    for name, g, max_internal, expect_yes in CERTIFY_CASES:
        graph = graph_json(rng, g)
        path, out = _write(work / f"{name}.json", graph), work / f"{name}.out"
        argv = ["certify", "--graph", str(path), "--max-internal", str(max_internal),
                "--format", "json", "--out", str(out)]

        def check(res: Outcome, graph=graph, expect_yes=expect_yes, out=out) -> list[str]:
            text = out.read_text() if out.exists() else ""
            return checks.check_certify(graph, expect_yes, res.codes[0], text)

        instances.append(_command(lp, name, argv, check, out))
    return instances


def _leafrank(rng: random.Random, work: Path, lp: SimpleNamespace) -> list[Instance]:
    """Every atlas graph with 1 .. LEAFRANK_MAX_VERTICES vertices: 208 graphs."""
    atlas = [g for g in nx.graph_atlas_g() if 1 <= g.number_of_nodes() <= LEAFRANK_MAX_VERTICES]
    instances = []
    for index, g in enumerate(atlas):
        graph = graph_json(rng, g)
        path, out = _write(work / f"g{index}.json", graph), work / f"g{index}.out"
        argv = ["leafrank", "--graph", str(path), "--max-nodes", str(LEAFRANK_MAX_NODES), "--out", str(out)]

        def check(res: Outcome, graph=graph, out=out) -> list[str]:
            text = out.read_text() if out.exists() else ""
            return checks.check_leafrank(graph, res.codes[0], text)

        instances.append(_command(lp, f"atlas{index}", argv, check, out))
    return instances


WORKLOADS = {"family": _family, "certify": _certify, "leafrank": _leafrank}


def build(workload: str, seed: int, work: Path, lp: SimpleNamespace) -> list[Instance]:
    """Write the seeded inputs of ``workload`` under ``work`` and return its instances."""
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), work, lp)
