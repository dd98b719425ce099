"""End-to-end tests for the command-line interface."""
from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafpower import (
    Graph,
    RSModel,
    Tree,
    brute_force_leaf_rank,
    build_exponential_rs_model,
    build_rn,
    dumps,
    graph_from_json_obj,
    graph_to_json_obj,
    leaf_power_graph,
    leafroot_from_json_obj,
    rs_model_from_json_obj,
    rs_model_to_json_obj,
    rs_model_violations,
    verify_leaf_root,
)
from leafpower import cli
from leafpower.cli import main

from conftest import complete_graph, cycle_graph, path_graph


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def p3_file(tmp_path):
    path = tmp_path / "p3.json"
    path.write_text(dumps(graph_to_json_obj(path_graph(["a", "b", "c"]))))
    return str(path)


@pytest.fixture()
def damaged_model_file(tmp_path):
    """R_3's ball model with the radius of a3 lowered to 1: not a model of R_3."""
    good = build_exponential_rs_model(build_rn(3))
    damaged = RSModel.build(
        good.host, good.graph, dict(good.centers), {**dict(good.radii.items()), "a3": 1}
    )
    path = tmp_path / "damaged.json"
    path.write_text(dumps(rs_model_to_json_obj(damaged)))
    return str(path)


@pytest.fixture()
def c4_file(tmp_path):
    path = tmp_path / "c4.json"
    path.write_text(dumps(graph_to_json_obj(cycle_graph(["a", "b", "c", "d"]))))
    return str(path)


# ---------------------------------------------------------------------------
# Family builders
# ---------------------------------------------------------------------------

class TestBuildCommands:
    def test_build_rn_json_parses_to_the_library_graph(self, capsys):
        code, out, _ = run(capsys, "build-rn", "--n", "3")
        assert code == 0
        assert graph_from_json_obj(json.loads(out)) == build_rn(3).graph

    def test_build_rn_dot(self, capsys):
        code, out, _ = run(capsys, "build-rn", "--n", "3", "--format", "dot")
        assert code == 0
        assert out.startswith("graph")
        assert '"a1"' in out

    def test_build_rn_rejects_small_n(self, capsys):
        code, _, err = run(capsys, "build-rn", "--n", "2")
        assert code == 2
        assert "n" in err

    def test_rdp_model_command(self, capsys):
        code, out, _ = run(capsys, "rdp-model", "--n", "4")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"host", "graph", "assignment"}

    def test_rs_model_command_round_trips(self, capsys):
        code, out, _ = run(capsys, "rs-model", "--n", "3")
        assert code == 0
        model = rs_model_from_json_obj(json.loads(out))
        assert model == build_exponential_rs_model(build_rn(3))

    def test_output_file_option(self, capsys, tmp_path):
        target = tmp_path / "rn.json"
        code, out, _ = run(
            capsys, "build-rn", "--n", "3", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert graph_from_json_obj(json.loads(target.read_text())) == build_rn(3).graph

    def test_outputs_are_byte_stable(self, capsys):
        _, first, _ = run(capsys, "rs-model", "--n", "4")
        _, second, _ = run(capsys, "rs-model", "--n", "4")
        assert first == second

    @pytest.mark.parametrize("command", ["rs-model", "audit"])
    def test_too_large_n_is_refused_before_r_n_is_built(self, capsys, monkeypatch, command):
        def build_rn_unreachable(n):
            raise AssertionError(f"R_{n} was built before the refusal")

        monkeypatch.setattr(cli, "build_rn", build_rn_unreachable)
        code, out, err = run(capsys, command, "--n", "17")
        assert (code, out) == (2, "")
        assert err == "exponential model supported for 3 ≤ n ≤ 16\n"


# ---------------------------------------------------------------------------
# Audit
# ---------------------------------------------------------------------------

class TestAuditCommand:
    def test_audit_by_n_text(self, capsys):
        code, out, _ = run(capsys, "audit", "--n", "5")
        assert code == 0
        assert "lower-bound audit for R_5" in out
        assert "sandwich: 8 <= leaf rank of R_5 <= 64" in out
        assert "holds: True" in out

    def test_audit_by_n_json(self, capsys):
        code, out, _ = run(capsys, "audit", "--n", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["holds"] is True
        assert payload["dist_m2_mn"] == 28

    def test_audit_imported_model(self, capsys, tmp_path):
        model = build_exponential_rs_model(build_rn(3))
        path = tmp_path / "model.json"
        path.write_text(dumps(rs_model_to_json_obj(model)))
        code, out, _ = run(
            capsys, "audit", "--model", str(path), "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["holds"] is True

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_audit_reads_a_model_whatever_its_vertex_order(self, capsys, tmp_path, order, fmt):
        doc = rs_model_to_json_obj(build_exponential_rs_model(build_rn(3)))
        vertices = doc["graph"]["vertices"]
        if order == "reversed":
            reordered = vertices[::-1]
        else:
            reordered = random.Random(3).sample(vertices, len(vertices))
        assert reordered != vertices

        def audit(vs: list[str]) -> tuple[int, str, str]:
            path = tmp_path / "model.json"
            path.write_text(dumps({**doc, "graph": {**doc["graph"], "vertices": vs}}))
            return run(capsys, "audit", "--model", str(path), "--format", fmt)

        canonical = audit(vertices)
        assert canonical[0] == 0
        assert audit(reordered) == canonical

    def test_audit_needs_n_or_model(self, capsys):
        code, _, err = run(capsys, "audit")
        assert code == 2
        assert "needs --n or --model" in err

    def test_audit_n_model_mismatch(self, capsys, tmp_path):
        model = build_exponential_rs_model(build_rn(3))
        path = tmp_path / "model.json"
        path.write_text(dumps(rs_model_to_json_obj(model)))
        code, _, err = run(capsys, "audit", "--n", "4", "--model", str(path))
        assert code == 2
        assert "does not match" in err

    def test_audit_invalid_model_fails_with_code_one(self, capsys, damaged_model_file):
        code, _, err = run(capsys, "audit", "--model", damaged_model_file)
        assert code == 1
        assert "not a model of R_n" in err

    @pytest.mark.parametrize("num", [4, 12, 13])
    def test_audit_refuses_a_model_of_another_graph_whatever_its_size(
        self, capsys, tmp_path, num
    ):
        # Every ball on a one-node host is that node, so the model is of K_num.
        labels = [f"v{i}" for i in range(num)]
        model = RSModel.build(
            Tree.build(["x"], []), complete_graph(labels), dict.fromkeys(labels, "x"),
            dict.fromkeys(labels, 0),
        )
        path = tmp_path / "model.json"
        path.write_text(dumps(rs_model_to_json_obj(model)))
        code, out, err = run(capsys, "audit", "--model", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("not a model of R_n: ")

    def test_audit_refuses_a_model_of_the_wrong_size_before_building_r_n(self, capsys, tmp_path):
        # R_600's 2 400 vertex names on the R_3 model's host and edges, every
        # ball the same node: building R_600 first took seconds and 188 MiB.
        obj = rs_model_to_json_obj(build_exponential_rs_model(build_rn(3)))
        names = [f"{group}{i}" for group in "abcd" for i in range(1, 601)]
        node = obj["host"]["nodes"][0]
        obj["graph"]["vertices"] = names
        obj["centers"], obj["radii"] = dict.fromkeys(names, node), dict.fromkeys(names, 0)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(obj))
        start = time.perf_counter()
        code, out, err = run(capsys, "audit", "--model", str(path))
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (1, "", "not a model of R_n: the model's graph differs\n")

    def test_audit_for_n_below_three_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "audit", "--n", "2")
        assert code == 2
        assert "family defined for n" in err

    def test_audit_malformed_json_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{nope")
        code, _, err = run(capsys, "audit", "--model", str(path))
        assert code == 2
        assert "cannot load model" in err


# ---------------------------------------------------------------------------
# Leaf rank and certify
# ---------------------------------------------------------------------------

class TestLeafrankCommand:
    def test_known_rank(self, capsys, p3_file):
        code, out, _ = run(
            capsys, "leafrank", "--graph", p3_file, "--max-nodes", "8"
        )
        assert code == 0
        assert out.strip() == "3"

    def test_unknown_rank_exits_one(self, capsys, p3_file):
        code, out, _ = run(
            capsys, "leafrank", "--graph", p3_file, "--max-nodes", "8",
            "--max-k", "2",
        )
        assert code == 1
        assert out.strip() == "unknown"

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "leafrank", "--graph", str(tmp_path / "nope.json"),
            "--max-nodes", "6",
        )
        assert code == 2
        assert "cannot load graph" in err

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--max-nodes", "3"], "max_nodes must be at least the number of vertices"),
            (["--max-nodes", "8", "--max-k", "0"], "max_k must be positive when given"),
        ],
    )
    def test_argument_refusals_come_before_the_chordality_gate(
        self, capsys, c4_file, options, message
    ):
        code, out, err = run(capsys, "leafrank", "--graph", c4_file, *options)
        assert code == 2
        assert out == ""
        assert err == message + "\n"

    def test_graph_without_vertices_is_refused(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(dumps(graph_to_json_obj(Graph.build([], []))))
        code, out, err = run(capsys, "leafrank", "--graph", str(path), "--max-nodes", "8")
        assert code == 2
        assert out == ""
        assert err == "graph must have at least one vertex\n"


class TestCensusCommand:
    def test_census_json(self, capsys, tmp_path):
        # The counts of ROADMAP item 13 within ten nodes.
        code, out, err = run(capsys, "census", "--max-vertices", "4", "--max-nodes", "10")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert (doc["max_nodes"], doc["max_k"]) == (10, None)
        rows = doc["census"]
        assert [row["graphs"] for row in rows] == [1, 2, 4, 10]
        assert [row["ranks"] for row in rows][2:] == [
            {"1": 1, "2": 2, "3": 1},
            {"1": 1, "2": 4, "3": 5},
        ]
        assert [row["unknown"] for row in rows] == [0, 0, 0, 0]
        assert [row["largest_rank"] for row in rows] == [1, 1, 3, 3]
        for row in rows:
            for obj in row["extremal"]:
                assert brute_force_leaf_rank(graph_from_json_obj(obj), 10) == row["largest_rank"]
        target = tmp_path / "census.json"
        code, out, _ = run(
            capsys, "census", "--max-vertices", "4", "--max-nodes", "10", "--out", str(target)
        )
        assert (code, out) == (0, "")
        assert json.loads(target.read_text()) == doc

    def test_unknown_graphs_are_counted_not_failed(self, capsys):
        code, out, _ = run(
            capsys, "census", "--max-vertices", "3", "--max-nodes", "6", "--max-k", "1"
        )
        assert code == 0
        last = json.loads(out)["census"][-1]
        assert (last["ranks"], last["unknown"], last["largest_rank"]) == ({"1": 1}, 3, 1)

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--max-vertices", "0", "--max-nodes", "4"], "max_vertices must be at least 1"),
            (["--max-vertices", "5", "--max-nodes", "4"], "max_nodes must be at least max_vertices"),
            (
                ["--max-vertices", "2", "--max-nodes", "4", "--max-k", "0"],
                "max_k must be positive when given",
            ),
        ],
    )
    def test_argument_refusals(self, capsys, options, message):
        assert run(capsys, "census", *options) == (2, "", message + "\n")


class TestCertifyCommand:
    def test_certify_path_graph_json(self, capsys, p3_file):
        code, out, _ = run(
            capsys, "certify", "--graph", p3_file, "--max-internal", "2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["margin"] == {"num": "1", "den": "3"}

    def test_certify_text_includes_lp(self, capsys, p3_file):
        code, out, _ = run(
            capsys, "certify", "--graph", p3_file, "--max-internal", "2",
            "--format", "text",
        )
        assert code == 0
        assert "certified: weighted leaf root found" in out
        assert "margin: 1/3" in out
        assert "Maximize" in out and "Subject To" in out

    def test_uncertifiable_graph_exits_one(self, capsys, c4_file):
        code, out, _ = run(
            capsys, "certify", "--graph", c4_file, "--max-internal", "2"
        )
        assert code == 1
        assert "no root within bound" in out


# ---------------------------------------------------------------------------
# Conversions
# ---------------------------------------------------------------------------

class TestConvertCommand:
    def test_rs_to_leafroot_to_rs_pipeline(self, capsys, tmp_path):
        r = build_rn(3)
        model = build_exponential_rs_model(r)
        model_path = tmp_path / "rs.json"
        model_path.write_text(dumps(rs_model_to_json_obj(model)))

        code, out, _ = run(
            capsys, "convert", "--from", "rs", "--input", str(model_path)
        )
        assert code == 0
        root = leafroot_from_json_obj(json.loads(out))
        assert root.k == 2 * (2**3 - 1) + 2
        assert verify_leaf_root(r.graph, root)

        root_path = tmp_path / "root.json"
        root_path.write_text(out)
        code, out, _ = run(
            capsys, "convert", "--from", "leafroot", "--input", str(root_path)
        )
        assert code == 0
        rebuilt = rs_model_from_json_obj(json.loads(out))
        assert rs_model_violations(rebuilt) == []
        assert rebuilt.graph == r.graph

    def test_leafroot_conversion_matches_library_graph(self, capsys, tmp_path):
        from leafpower import LeafRoot, Tree, leafroot_to_json_obj

        host = Tree.build(
            ["u", "v", "lu", "lv"], [("u", "v"), ("u", "lu"), ("v", "lv")]
        )
        root = LeafRoot.build(host, 3, {"a": "lu", "b": "lv"})
        path = tmp_path / "root.json"
        path.write_text(dumps(leafroot_to_json_obj(root)))
        code, out, _ = run(
            capsys, "convert", "--from", "leafroot", "--input", str(path)
        )
        assert code == 0
        model = rs_model_from_json_obj(json.loads(out))
        assert model.graph == leaf_power_graph(root)

    def test_invalid_rs_model_rejected(self, capsys, tmp_path):
        from leafpower import Tree

        host = Tree.build(["x", "y"], [("x", "y")])
        g = Graph.build(["u", "v"], [("u", "v")])
        bad = RSModel.build(host, g, {"u": "x", "v": "y"}, {"u": 0, "v": 0})
        path = tmp_path / "bad.json"
        path.write_text(dumps(rs_model_to_json_obj(bad)))
        code, _, err = run(
            capsys, "convert", "--from", "rs", "--input", str(path)
        )
        assert code == 1
        assert "model does not verify" in err

    def test_dot_refuses_a_name_ending_in_a_backslash(self, capsys, tmp_path):
        from leafpower import LeafRoot, Tree, leafroot_to_json_obj

        host = Tree.build(["u\\", "lu", "lv"], [("u\\", "lu"), ("u\\", "lv")])
        root = LeafRoot.build(host, 2, {"a": "lu", "b": "lv"})
        path = tmp_path / "root.json"
        path.write_text(dumps(leafroot_to_json_obj(root)))
        target = tmp_path / "out.dot"
        argv = ["convert", "--from", "leafroot", "--input", str(path)]
        code, out, err = run(capsys, *argv, "--format", "dot", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "backslash" in err
        assert not target.exists()
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert '"u\\\\"' in out

    def test_dot_output(self, capsys, tmp_path):
        model = build_exponential_rs_model(build_rn(3))
        path = tmp_path / "rs.json"
        path.write_text(dumps(rs_model_to_json_obj(model)))
        code, out, _ = run(
            capsys, "convert", "--from", "rs", "--input", str(path),
            "--format", "dot",
        )
        assert code == 0
        assert out.startswith("graph")


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

class TestReportCommand:
    def test_table_for_small_range(self, capsys):
        code, out, _ = run(capsys, "report", "--n-min", "3", "--n-max", "5")
        assert code == 0
        assert "2^(3-2)" in out
        assert "2^((12-8)/4)" in out
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) >= 4  # header plus three rows

    def test_range_is_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["report"])

    def test_invalid_range_rejected(self, capsys):
        code, _, err = run(capsys, "report", "--n-min", "5", "--n-max", "3")
        assert code == 2
        assert "3 <= n-min <= n-max <= 16" in err

    def test_range_above_support_rejected(self, capsys):
        code, _, err = run(capsys, "report", "--n-min", "3", "--n-max", "17")
        assert code == 2


class TestOutputPath:
    @pytest.mark.parametrize(
        "argv",
        [
            ["build-rn", "--n", "2"],
            ["report", "--n-min", "5", "--n-max", "3"],
            ["leafrank", "--graph", "no/such/dir/graph.json", "--max-nodes", "6"],
        ],
    )
    def test_refused_command_writes_no_output_file(self, capsys, tmp_path, argv):
        target = tmp_path / "out.txt"
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == 2
        assert out == "" and err
        assert not target.exists()

    @pytest.mark.parametrize("argv", [["audit", "--model"], ["convert", "--from", "rs", "--input"]])
    def test_unverified_model_writes_no_output_file(self, capsys, tmp_path, damaged_model_file, argv):
        target = tmp_path / "out.txt"
        code, out, err = run(capsys, *argv, damaged_model_file, "--out", str(target))
        assert code == 1
        assert out == "" and err
        assert not target.exists()

    def test_unwritable_output_path_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing_dir" / "x.json"
        code, out, err = run(capsys, "build-rn", "--n", "3", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and str(target) in err
        assert not target.exists()

    def test_negative_verdict_is_written_to_the_output_file(self, capsys, tmp_path, c4_file):
        target = tmp_path / "out.txt"
        code, out, _ = run(
            capsys, "certify", "--graph", c4_file, "--max-internal", "2", "--out", str(target)
        )
        assert code == 1
        assert out == ""
        assert target.read_text() == "no root within bound\n"


class TestParserBasics:
    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


# ---------------------------------------------------------------------------
# Malformed input: exit 2 with a one-line message, never a traceback
# ---------------------------------------------------------------------------

P3_DOC = graph_to_json_obj(path_graph(["a", "b", "c"]))
R3_MODEL_DOC = rs_model_to_json_obj(build_exponential_rs_model(build_rn(3)))
LEAFROOT_DOC = {
    "tree": {"nodes": ["c", "x", "y"], "edges": [["c", "x"], ["c", "y"]]},
    "k": 2,
    "placement": {"a": "x", "b": "y"},
}

#: Each command with the option that names its input and a valid document.
READERS = {
    "certify": (["certify", "--max-internal", "1", "--graph"], P3_DOC),
    "leafrank": (["leafrank", "--max-nodes", "5", "--graph"], P3_DOC),
    "convert-rs": (["convert", "--from", "rs", "--input"], R3_MODEL_DOC),
    "convert-leafroot": (["convert", "--from", "leafroot", "--input"], LEAFROOT_DOC),
    "audit": (["audit", "--model"], R3_MODEL_DOC),
}


def run_on_document(path, command: str, doc: object) -> tuple[int, str, str]:
    path.write_text(json.dumps(doc))
    return run_on_document_text(path, command)


def run_on_document_text(path, command: str) -> tuple[int, str, str]:
    """Run ``command`` on the file at ``path`` as it stands."""
    argv, _ = READERS[command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, str(path)])
    return code, out.getvalue(), err.getvalue()


def replaced(doc: dict, key: str, value: object) -> dict:
    return {**doc, key: value}


#: (command, document, the field its one-line refusal names).
MALFORMED_FIELDS = [
    ("certify", replaced(P3_DOC, "edges", 5), "edges"),
    ("certify", replaced(P3_DOC, "edges", [5]), "edges[0]"),
    ("leafrank", replaced(P3_DOC, "edges", 5), "edges"),
    ("leafrank", replaced(P3_DOC, "edges", [5]), "edges[0]"),
    ("audit", replaced(R3_MODEL_DOC, "centers", ["a"]), "centers"),
    ("audit", replaced(R3_MODEL_DOC, "centers", {"a": ["x"]}), "centers['a']"),
    ("certify", {"vertices": "ab", "edges": []}, "vertices"),
    ("certify", {"vertices": ["a", "b"], "edges": ["ab"]}, "edges[0]"),
    ("convert-leafroot", replaced(LEAFROOT_DOC, "k", True), "k"),
    ("convert-leafroot", replaced(LEAFROOT_DOC, "placement", [["a", "x"], ["b", "y"]]), "placement"),
    ("convert-rs", replaced(R3_MODEL_DOC, "graph", {"vertices": [], "edges": 1}), "graph.edges"),
    ("leafrank", ["a", "b"], "the document"),
]


class TestMalformedInput:
    @pytest.mark.parametrize("command, doc, field", MALFORMED_FIELDS)
    def test_exits_two_naming_the_field(self, tmp_path, command, doc, field):
        code, out, err = run_on_document(tmp_path / "input.json", command, doc)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert f"{field} must be" in err

    @pytest.mark.parametrize("command", sorted(READERS))
    def test_deeply_nested_input_is_a_usage_error(self, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = run_on_document_text(path, command)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("cannot load ") and "recursion" in err

    def test_model_without_vertices_is_a_usage_error(self, tmp_path):
        doc = {
            "host": {"nodes": ["x"], "edges": []},
            "graph": {"vertices": [], "edges": []},
            "centers": {},
            "radii": {},
        }
        code, _, err = run_on_document(tmp_path / "input.json", "convert-rs", doc)
        assert code == 2
        assert err == "model has no vertices\n"


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-1, 3)
    | st.sampled_from(["", "a", "b", "c", "x", "y", "ab", "h0"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["a", "b", "x", "vertices", "edges", "nodes", "k", "placement"]),
        inner,
        max_size=4,
    ),
    max_leaves=8,
)


@st.composite
def mutated(draw, doc: object) -> object:
    """``doc`` with one value replaced by random JSON or one key deleted."""
    doc = copy.deepcopy(doc)
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    if parent is None:
        return draw(JSON_VALUES)
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(JSON_VALUES)
    return doc


@st.composite
def command_inputs(draw) -> tuple[str, object]:
    command = draw(st.sampled_from(sorted(READERS)))
    doc = draw(st.one_of(JSON_VALUES, mutated(READERS[command][1])))
    return command, doc


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


@settings(max_examples=500)
@given(command_inputs())
def test_random_and_mutated_json_never_escapes(fuzz_path, case):
    command, doc = case
    code, _, err = run_on_document(fuzz_path, command, doc)
    assert code in (0, 1, 2)
    if code == 2:
        assert len(err.splitlines()) == 1
