"""Tests for the package's public namespace and its run-time dependencies."""
from __future__ import annotations

import ast
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


#: The public names that no module of the package uses, each with what keeps it.
KEPT = {
    "check_path_cover": "acceptance criterion 8 calls it",
    "is_separator": "acceptance criterion 1 calls it",
    "clique_tree_model": "ROADMAP item 10 gives it a caller",
    "is_cluster_graph": "ROADMAP item 10 gives it a caller",
    "distance": "the tests' reference route for pairwise_distances and distances_from",
    "nonisomorphic_trees": "perfbench's Tracer.install looks it up",
    "trees_with_leaf_count": "perfbench's Tracer.install looks it up, and it feeds hosts "
    "to the unpruned-search oracle in tests/test_roots.py",
    "scale_to_integer_leafroot": "acceptance criterion 7 and CI call it",
    "weighted_leafroot_from_json_obj": "it reads certify's JSON back, and CI's scale_p3 step calls it",
}


def names_used_in_package() -> set[str]:
    """The names each module but ``__init__`` uses outside the def or class that defines them.

    A use is a loaded name, an attribute or an import; text in strings does not count.
    """
    used: set[str] = set()
    for path in (SRC / "leafpower").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
            used |= names
    return used


def test_every_public_name_has_a_use():
    used = names_used_in_package()
    assert [name for name in leafpower.__all__ if name not in used and name not in KEPT] == []
    # A kept name that gains a use, or leaves the API, leaves the table too.
    assert [name for name in KEPT if name in used or name not in leafpower.__all__] == []


def python(tmp_path, *argv: str, **env: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": path, **env},
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


#: The C locale with locale coercion and UTF-8 mode off: a file opened without an
#: encoding is read and written as ASCII.
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


def test_files_are_utf8_in_an_ascii_locale(tmp_path):
    graph = {"vertices": ["é", "b", "c"], "edges": [["é", "b"], ["b", "c"]]}
    (tmp_path / "g.json").write_text(json.dumps(graph, ensure_ascii=False), encoding="utf-8")
    cli = "import sys; from leafpower.cli import main; sys.exit(main(sys.argv[1:]))"
    rank = python(tmp_path, "-c", cli, "leafrank", "--graph", "g.json", "--max-nodes", "8", **ASCII_LOCALE)
    assert (rank.returncode, rank.stdout, rank.stderr) == (0, "3\n", "")
    argv = ["certify", "--graph", "g.json", "--max-internal", "2", "--format", "text", "--out", "o.txt"]
    certified = python(tmp_path, "-c", cli, *argv, **ASCII_LOCALE)
    assert (certified.returncode, certified.stderr) == (0, "")
    assert "place é at n1" in (tmp_path / "o.txt").read_text(encoding="utf-8").splitlines()


def test_certify_runs_without_networkx(graph_files):
    argv = ["certify", "--graph", "p3.json", "--max-internal", "2", "--format", "text"]
    run = python(graph_files, "-c", WITHOUT_NETWORKX, *argv)
    assert (run.returncode, run.stderr) == (0, "")
    lines = run.stdout.splitlines()
    assert " cap_delta: delta <= 1" in lines
    assert "weight n0 -- n2: 1/3" in lines
