"""Byte-for-byte pins on what the command-line front end writes.

Each call below runs ``cli.main`` in-process twice: once writing to stdout and
once with ``--out``.  Its digest is the sha256 of the exit code, stdout and
stderr of both runs and of the ``--out`` file (or its absence).
``cli_digests.json`` holds the digests of the program as it stood when they
were recorded, so a change meant to keep the output must leave every one of
them equal.  A change meant to alter some output re-records them with

    PYTHONPATH=src python tests/test_cli_outputs.py

and says which calls changed and why.

Only messages the package writes itself are pinned.  Argparse usage errors,
JSON syntax errors, recursion errors and OS errors are left out: their wording
and the paths they quote vary across Python versions and machines.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from leafpower import (
    RSModel,
    build_exponential_rs_model,
    build_rn,
    graph_to_json_obj,
    leafroot_to_json_obj,
    rs_model_to_json_obj,
    rs_to_leafroot,
)
from leafpower.cli import main

from conftest import complete_graph, cycle_graph, path_graph
from test_audit import r3_fixture
from test_cli import MALFORMED_FIELDS, READERS

DIGESTS = Path(__file__).resolve().parent / "cli_digests.json"

GRAPHS = {
    "P3": path_graph(["a", "b", "c"]),
    "P4": path_graph(["a", "b", "c", "d"]),
    "P5": path_graph(["a", "b", "c", "d", "e"]),
    "K3": complete_graph(["a", "b", "c"]),
    "K4": complete_graph(["a", "b", "c", "d"]),
    "C4": cycle_graph(["a", "b", "c", "d"]),
    "C5": cycle_graph(["a", "b", "c", "d", "e"]),
}

#: The graphs certify runs on, with its --max-internal.
CERTIFY_MAX_INTERNAL = {"P3": 1, "P4": 2, "P5": 3, "K4": 1, "C4": 3, "C5": 3}


def input_documents() -> dict[str, object]:
    """Every input file the calls read, by the name their arguments use."""
    docs: dict[str, object] = {name: graph_to_json_obj(g) for name, g in GRAPHS.items()}
    for n in range(3, 7):
        model = build_exponential_rs_model(build_rn(n))
        docs[f"RS{n}"] = rs_model_to_json_obj(model)
        docs[f"ROOT{n}"] = leafroot_to_json_obj(rs_to_leafroot(model))
    docs["R3_FIXTURE"] = rs_model_to_json_obj(r3_fixture()[1])
    good = build_exponential_rs_model(build_rn(4))
    damaged = RSModel.build(good.host, good.graph, good.centers, {**good.radii, "a4": 1})
    docs["R4_DAMAGED"] = rs_model_to_json_obj(damaged)
    for i, (_, doc, _) in enumerate(MALFORMED_FIELDS):
        docs[f"MALFORMED{i}"] = doc
    return docs


def calls() -> list[str]:
    """The pinned command lines; ``{NAME}`` stands for the path of input NAME."""
    lines = [
        f"{command} --n {n} --format {fmt}"
        for command in ("build-rn", "rdp-model", "rs-model")
        for n in range(3, 7)
        for fmt in ("json", "dot")
    ]
    lines += [f"audit --n {n} --format {fmt}" for n in range(3, 9) for fmt in ("text", "json")]
    lines += [
        f"audit --model {{{name}}} --format {fmt}"
        for name in ("R3_FIXTURE", "R4_DAMAGED")
        for fmt in ("text", "json")
    ]
    lines += [
        f"convert --from {source} --input {{{name}{n}}} --format {fmt}"
        for n in range(3, 7)
        for source, name in (("rs", "RS"), ("leafroot", "ROOT"))
        for fmt in ("json", "dot")
    ]
    lines.append("convert --from rs --input {R4_DAMAGED}")
    lines += [
        f"certify --graph {{{name}}} --max-internal {k} --format {fmt}"
        for name, k in CERTIFY_MAX_INTERNAL.items()
        for fmt in ("json", "text")
    ]
    lines += [
        f"leafrank --graph {{{name}}} --max-nodes 6{cap}"
        for name in ("P3", "K3", "C4")
        for cap in ("", " --max-k 2")
    ]
    lines += [f"report --n-min 3 --n-max 8 --format {fmt}" for fmt in ("text", "json")]
    lines += [
        " ".join(READERS[command][0]) + f" {{MALFORMED{i}}}"
        for i, (command, _, _) in enumerate(MALFORMED_FIELDS)
    ]
    return lines


def run(argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [code, out.getvalue(), err.getvalue()]


def digests(work: Path) -> dict[str, str]:
    """Each call's digest, with its inputs written under ``work``."""
    paths = {}
    for name, doc in input_documents().items():
        paths[name] = str(work / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc))
    target = work / "out"
    result = {}
    for call in calls():
        argv = [token.format(**paths) for token in call.split()]
        plain = run(argv)
        written = run([*argv, "--out", str(target)])
        file_text = target.read_text() if target.exists() else None
        target.unlink(missing_ok=True)
        record = json.dumps([plain, written, file_text])
        result[call] = hashlib.sha256(record.encode()).hexdigest()
    return result


def test_every_call_writes_what_it_wrote_when_recorded(tmp_path):
    expected = json.loads(DIGESTS.read_text())
    actual = digests(tmp_path)
    assert sorted(actual) == sorted(expected)
    assert [call for call in actual if actual[call] != expected[call]] == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        DIGESTS.write_text(json.dumps(digests(Path(work)), indent=2) + "\n")
