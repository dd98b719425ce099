"""Tests for the package's public namespace and its run-time dependencies."""
from __future__ import annotations

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import leafpower

SRC = Path(__file__).resolve().parent.parent / "src"

#: Runs ``leafpower.cli.main`` on its arguments with networkx made unimportable.
WITHOUT_NETWORKX = (
    "import sys; sys.modules['networkx'] = None; "
    "from leafpower.cli import main; sys.exit(main(sys.argv[1:]))"
)


def test_all_names_resolve_and_none_is_a_module():
    assert leafpower.__all__ == sorted(set(leafpower.__all__))
    for name in leafpower.__all__:
        assert not isinstance(getattr(leafpower, name), types.ModuleType), name


def python(tmp_path, *argv: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
    )


def test_importing_the_cli_does_not_import_networkx(tmp_path):
    check = "import sys, leafpower.cli; assert 'networkx' not in sys.modules"
    assert python(tmp_path, "-c", check).returncode == 0


@pytest.fixture
def graph_files(tmp_path):
    graphs = {
        "p3.json": {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]},
        "c4.json": {
            "vertices": ["a", "b", "c", "d"],
            "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]],
        },
    }
    for name, graph in graphs.items():
        (tmp_path / name).write_text(json.dumps(graph))
    return tmp_path


@pytest.mark.parametrize(
    "argv, code, out",
    [
        (["leafrank", "--graph", "p3.json", "--max-nodes", "8"], 0, "3\n"),
        (["leafrank", "--graph", "c4.json", "--max-nodes", "8"], 1, "unknown\n"),
    ],
    ids=["p3", "c4"],
)
def test_leafrank_runs_without_networkx(graph_files, argv, code, out):
    run = python(graph_files, "-c", WITHOUT_NETWORKX, *argv)
    assert (run.returncode, run.stdout, run.stderr) == (code, out, "")


def test_certify_runs_without_networkx(graph_files):
    argv = ["certify", "--graph", "p3.json", "--max-internal", "2", "--format", "text"]
    run = python(graph_files, "-c", WITHOUT_NETWORKX, *argv)
    assert (run.returncode, run.stderr) == (0, "")
    lines = run.stdout.splitlines()
    assert " cap_delta: delta <= 1" in lines
    assert "weight n0 -- n2: 1/3" in lines
