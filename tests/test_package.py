"""Tests for the package's public namespace and its run-time dependencies."""
from __future__ import annotations

import ast
import gc
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import leafpower
from leafpower import (
    build_exponential_rs_model,
    build_rn,
    dumps,
    graph_to_json_obj,
    leafroot_to_json_obj,
    rs_model_to_json_obj,
    rs_to_leafroot,
)
from leafpower import cli

from conftest import cycle_graph, path_graph

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


def unread_parameters(source: str) -> list[str]:
    """``"line name(parameter)"`` for each parameter of a def or lambda that its body never reads.

    A read is a loaded name anywhere in the body, nested defs and lambdas included;
    defaults, annotations and decorators are not the body.  A parameter whose name
    starts with ``_`` is exempt.
    """
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "lambda")
        unread += [
            f"{node.lineno} {name}({p.arg})"
            for p in params
            if p and not p.arg.startswith("_") and p.arg not in read
        ]
    return unread


def test_every_parameter_is_read():
    modules = sorted((SRC / "leafpower").rglob("*.py"))
    found = {path.name: unread_parameters(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: unread for name, unread in found.items() if unread} == {}


def test_the_parameter_guard_sees_defs_and_lambdas_and_spares_underscores():
    source = "def f(a, _b, /, c, *d, e, **g):\n    return lambda x, y: a + y + (lambda: e)()\n"
    assert unread_parameters(source) == ["1 f(c)", "1 f(d)", "1 f(g)", "2 lambda(x)"]


#: The private fields of a ``Tree``, its internal layout.
TREE_FIELDS = {"_index", "_degree", "_parent", "_order", "_depth", "_children"}


def private_tree_reads(source: str) -> list[str]:
    """``"line field"`` for each read of a :data:`TREE_FIELDS` attribute in ``source``."""
    return [
        f"{node.lineno} {node.attr}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and node.attr in TREE_FIELDS
    ]


def test_only_trees_reads_the_private_fields_of_a_tree():
    modules = [path for path in (SRC / "leafpower").rglob("*.py") if path.name != "trees.py"]
    found = {path.name: private_tree_reads(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: reads for name, reads in found.items() if reads} == {}


def python(tmp_path, *argv: str, text: bool = True, **env: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=text, cwd=tmp_path, env={**os.environ, "PYTHONPATH": path, **env},
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


#: Runs ``leafpower.cli.main`` on its arguments.
MAIN = "import sys; from leafpower.cli import main; sys.exit(main(sys.argv[1:]))"


def write_p3_with_accent(tmp_path) -> None:
    graph = {"vertices": ["é", "b", "c"], "edges": [["é", "b"], ["b", "c"]]}
    (tmp_path / "g.json").write_text(json.dumps(graph, ensure_ascii=False), encoding="utf-8")


def test_files_are_utf8_in_an_ascii_locale(tmp_path):
    write_p3_with_accent(tmp_path)
    rank = python(tmp_path, "-c", MAIN, "leafrank", "--graph", "g.json", "--max-nodes", "8", **ASCII_LOCALE)
    assert (rank.returncode, rank.stdout, rank.stderr) == (0, "3\n", "")
    argv = ["certify", "--graph", "g.json", "--max-internal", "2", "--format", "text", "--out", "o.txt"]
    certified = python(tmp_path, "-c", MAIN, *argv, **ASCII_LOCALE)
    assert (certified.returncode, certified.stderr) == (0, "")
    assert "place é at n1" in (tmp_path / "o.txt").read_text(encoding="utf-8").splitlines()


def test_stdout_carries_the_utf8_bytes_of_out_in_an_ascii_locale(tmp_path):
    write_p3_with_accent(tmp_path)
    argv = ["-c", MAIN, "certify", "--graph", "g.json", "--max-internal", "1", "--format", "text"]
    printed = python(tmp_path, *argv, text=False, **ASCII_LOCALE)
    written = python(tmp_path, *argv, "--out", "o.txt", text=False, **ASCII_LOCALE)
    assert (printed.returncode, printed.stderr, written.returncode, written.stdout) == (0, b"", 0, b"")
    assert printed.stdout == (tmp_path / "o.txt").read_bytes()
    assert "place é at n1" in printed.stdout.decode("utf-8").splitlines()


def test_stderr_carries_utf8_bytes_in_an_ascii_locale(tmp_path):
    graph = {"vertices": ["é", "é", "b"], "edges": []}
    (tmp_path / "twice.json").write_text(json.dumps(graph, ensure_ascii=False), encoding="utf-8")
    refused = python(tmp_path, "-c", MAIN, "rs-model", "--n", "300", text=False, **ASCII_LOCALE)
    argv = ["leafrank", "--graph", "twice.json", "--max-nodes", "8"]
    twice = python(tmp_path, "-c", MAIN, *argv, text=False, **ASCII_LOCALE)
    assert (refused.returncode, refused.stdout, refused.stderr) == (
        2, b"", "exponential model supported for 3 ≤ n ≤ 16\n".encode("utf-8"),
    )
    assert (twice.returncode, twice.stdout, twice.stderr) == (
        2, b"", "cannot load graph: duplicate vertex 'é'\n".encode("utf-8"),
    )


@pytest.mark.parametrize("out", [None, "keep.txt"], ids=["stdout", "out"])
def test_output_that_is_not_utf8_is_refused_before_anything_is_written(tmp_path, capsys, out):
    # JSON reads "\\ud800" as a lone surrogate, which has no UTF-8 encoding.
    graph = {"vertices": ["\ud800", "b", "c"], "edges": [["\ud800", "b"], ["b", "c"]]}
    (tmp_path / "g.json").write_text(json.dumps(graph), encoding="utf-8")
    (tmp_path / "keep.txt").write_text("keep", encoding="utf-8")
    argv = ["certify", "--graph", str(tmp_path / "g.json"), "--max-internal", "1"]
    code = cli.main([*argv, "--format", "text", *(["--out", str(tmp_path / out)] if out else [])])
    assert (code, *capsys.readouterr()) == (
        2,
        "",
        "cannot write output: 'utf-8' codec can't encode character '\\ud800' in position 145:"
        " surrogates not allowed\n",
    )
    assert (tmp_path / "keep.txt").read_bytes() == b"keep"


def test_certify_runs_without_networkx(graph_files):
    argv = ["certify", "--graph", "p3.json", "--max-internal", "2", "--format", "text"]
    run = python(graph_files, "-c", WITHOUT_NETWORKX, *argv)
    assert (run.returncode, run.stderr) == (0, "")
    lines = run.stdout.splitlines()
    assert " cap_delta: delta <= 1" in lines
    assert "weight n0 -- n2: 1/3" in lines


#: Every subcommand, each output format, ``--out``, a failed verification, a
#: refusal and a malformed input.  A ``{name}`` is the path of a ``documents`` file.
COMMANDS = [
    "build-rn --n 4",
    "build-rn --n 4 --format dot",
    "rdp-model --n 4 --format dot",
    "rs-model --n 5",
    "audit --n 5",
    "audit --model {model} --format json",
    "audit --n 2",
    "leafrank --graph {p5} --max-nodes 9",
    "leafrank --graph {c4} --max-nodes 8 --out {out}",
    "census --max-vertices 5 --max-nodes 9",
    "certify --graph {p5} --max-internal 3",
    "certify --graph {p5} --max-internal 3 --format text",
    "certify --graph {c4} --max-internal 2",
    "convert --from rs --input {model}",
    "convert --from rs --input {model} --format dot",
    "convert --from leafroot --input {root}",
    "convert --from leafroot --input {malformed}",
    "report --n-min 3 --n-max 6",
    "report --n-min 3 --n-max 6 --format json",
]


@pytest.fixture(scope="module")
def documents(tmp_path_factory) -> dict[str, str]:
    model = build_exponential_rs_model(build_rn(4))
    docs = {
        "p5": graph_to_json_obj(path_graph(["a", "b", "c", "d", "e"])),
        "c4": graph_to_json_obj(cycle_graph(["a", "b", "c", "d"])),
        "model": rs_model_to_json_obj(model),
        "root": leafroot_to_json_obj(rs_to_leafroot(model)),
        "malformed": {"tree": {"nodes": ["x"], "edges": 5}, "k": 1, "placement": {}},
    }
    folder = tmp_path_factory.mktemp("documents")
    for name, doc in docs.items():
        (folder / f"{name}.json").write_text(dumps(doc), encoding="utf-8")
    return {name: str(folder / f"{name}.json") for name in [*docs, "out"]}


@pytest.mark.parametrize("command", COMMANDS)
def test_commands_leave_no_cyclic_garbage(documents, command, monkeypatch, capsys):
    """Reference counting frees all a command allocates, so pausing the collector costs nothing.

    ``main`` runs each command with the collector paused; an object in a reference cycle would stay allocated until some later collection.
    argparse's help formatters hold cycles of their own, so the parser is built
    before the count starts.
    """
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    argv = [part.format(**documents) for part in command.split()]
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        cli.main(argv)
        gc.collect()
        garbage = sorted({type(x).__name__ for x in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert garbage == []


class _Boom(Exception):
    pass


def _returns(args):
    return "", 0


def _refuses(args):
    raise ValueError("refused")


def _crashes(args):
    raise _Boom


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    ("command", "outcome"),
    [(_returns, 0), (_refuses, 2), (_crashes, _Boom)],
    ids=["returns", "refuses", "crashes"],
)
def test_main_pauses_the_collector_and_restores_the_state_it_found(
    monkeypatch, capsys, enabled, command, outcome
):
    seen = []

    def report(args):
        seen.append(gc.isenabled())
        return command(args)

    monkeypatch.setattr(cli, "_cmd_report", report)
    argv = ["report", "--n-min", "3", "--n-max", "3"]
    if not enabled:
        gc.disable()
    try:
        if outcome is _Boom:
            with pytest.raises(_Boom):
                cli.main(argv)
        else:
            assert cli.main(argv) == outcome
        assert (seen, gc.isenabled()) == ([False], enabled)
    finally:
        gc.enable()
