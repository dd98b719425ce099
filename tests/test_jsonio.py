"""Tests for the canonical JSON writer and the field readers in ``leafpower.jsonio``."""
from __future__ import annotations

import enum
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from leafpower import (
    build_exponential_rs_model,
    build_rn,
    certify_leaf_power,
    leafroot_from_json_obj,
    leafroot_to_json_obj,
    lower_bound_certificate,
    report_to_json_obj,
    rs_model_from_json_obj,
    rs_model_to_json_obj,
    rs_to_leafroot,
    weighted_leafroot_to_json_obj,
)
from leafpower import jsonio
from leafpower.jsonio import (
    dumps,
    integer,
    integer_map,
    items,
    string,
    string_map,
    string_pair,
    string_pairs,
    strings,
)

from conftest import path_graph


def reference(obj: object) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def outcome(write, obj: object) -> tuple:
    """The text ``write`` gives, or the type and message of what it raises."""
    try:
        return ("text", write(obj))
    except Exception as exc:  # the exception is what is compared
        return (type(exc), str(exc))


# ---------------------------------------------------------------------------
# Writer: dumps is json.dumps(indent=2, sort_keys=True) plus a newline
# ---------------------------------------------------------------------------

TEXT = st.text(
    st.one_of(
        st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", " ", "\ud800", "😀"]),
        st.characters(),
    ),
    max_size=6,
)
PAIRS = st.tuples(TEXT, TEXT) | st.tuples(TEXT, TEXT).map(list)
PLAIN = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-(10**40), 10**40), TEXT)


class Level(enum.IntEnum):
    LOW = 1


class Name(str):
    pass


#: Leaves json writes (floats, int and str subclasses) or refuses (Fraction).
OTHER = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0]),
    st.fractions(),
    st.just(Level.LOW),
    TEXT.map(Name),
)
KEYS = st.one_of(TEXT, st.integers(), st.booleans(), st.none(), st.floats())


def json_values(leaves, keys=TEXT):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(keys, children, max_size=4),
            st.lists(TEXT, max_size=4),
            st.lists(PAIRS, max_size=4),
            st.lists(st.one_of(PAIRS, children), max_size=4),
        ),
        max_leaves=20,
    )


@given(json_values(PLAIN))
def test_dumps_is_json_dumps(obj):
    assert dumps(obj) == reference(obj)


@given(json_values(st.one_of(PLAIN, OTHER), KEYS))
def test_other_values_give_the_json_text_or_error(obj):
    assert outcome(dumps, obj) == outcome(reference, obj)


@pytest.mark.parametrize(
    "obj",
    [[], {}, [[]], [{}], {"": {}}, (), [()], [["a"]], [["a", "b", "c"]], [["a", 1]], [["a", "b"], "c"]],
    ids=repr,
)
def test_empty_and_near_pair_containers(obj):
    assert dumps(obj) == reference(obj)


def test_cycle_and_deep_nesting_raise_what_json_raises():
    cycle: list = []
    cycle.append(cycle)
    deep: object = "x"
    for _ in range(5000):
        deep = [deep]
    for obj in (cycle, {"k": cycle}, deep):
        assert outcome(dumps, obj)[0] in (ValueError, RecursionError)
        assert outcome(dumps, obj) == outcome(reference, obj)


def documents():
    """The package's own documents: R_3..R_9 models, roots and audits, and the P3 witness."""
    for n in range(3, 10):
        r = build_rn(n)
        model = build_exponential_rs_model(r)
        yield f"model{n}", rs_model_to_json_obj(model)
        yield f"root{n}", leafroot_to_json_obj(rs_to_leafroot(model))
        yield f"audit{n}", report_to_json_obj(lower_bound_certificate(r, model))
    yield "p3-witness", weighted_leafroot_to_json_obj(certify_leaf_power(path_graph(["a", "b", "c"]), 2))


def test_documents_are_written_as_json_writes_them_without_json(monkeypatch):
    docs = list(documents())
    expected = [reference(doc) for _, doc in docs]

    def refuse(*args, **kwargs):
        raise AssertionError("dumps handed a package document to json")

    monkeypatch.setattr(jsonio.json, "dumps", refuse)
    for (name, doc), text in zip(docs, expected):
        assert dumps(doc) == text, name


# ---------------------------------------------------------------------------
# Readers: the one-pass check agrees with the per-item loop
# ---------------------------------------------------------------------------

JUNK = st.one_of(PLAIN, st.floats(allow_nan=False), TEXT.map(Name), st.just(Level.LOW))
ITEMS = st.one_of(JUNK, PAIRS, st.lists(JUNK, max_size=3), st.lists(TEXT, min_size=2, max_size=2))


def item_by_item(read):
    """``read`` behind a wrapper, so :func:`items` reads each item in turn."""
    return lambda value, field: read(value, field)


@given(st.one_of(st.lists(ITEMS, max_size=6), st.lists(TEXT), st.lists(PAIRS.map(list)), JUNK))
def test_list_readers_agree_with_the_per_item_loop(value):
    assert outcome(lambda v: strings(v, "f"), value) == outcome(
        lambda v: items(v, "f", item_by_item(string)), value
    )
    assert outcome(lambda v: string_pairs(v, "f"), value) == outcome(
        lambda v: items(v, "f", item_by_item(string_pair)), value
    )
    assert outcome(lambda v: items(v, "f", integer), value) == outcome(
        lambda v: items(v, "f", item_by_item(integer)), value
    )


@given(st.one_of(st.dictionaries(TEXT, JUNK, max_size=6), st.dictionaries(TEXT, TEXT), JUNK))
def test_map_readers_agree_with_the_per_item_loop(value):
    assert outcome(lambda v: string_map(v, "m"), value) == outcome(
        lambda v: jsonio.entries(v, "m", item_by_item(string)), value
    )
    assert outcome(lambda v: integer_map(v, "m"), value) == outcome(
        lambda v: jsonio.entries(v, "m", item_by_item(integer)), value
    )


def test_read_lists_are_fresh_copies():
    nodes, edges = ["a", "b"], [["a", "b"]]
    assert strings(nodes, "n") == nodes and strings(nodes, "n") is not nodes
    assert string_pairs(edges, "e") == [("a", "b")]


# ---------------------------------------------------------------------------
# Readers: the message names the first bad item, however deep in the document
# ---------------------------------------------------------------------------

def long_root(nodes: int = 80_000) -> dict:
    names = [f"n{i}" for i in range(nodes)]
    return {
        "tree": {"nodes": names, "edges": [[u, v] for u, v in zip(names, names[1:])]},
        "k": 2,
        "placement": {"a": "n0", "b": f"n{nodes - 1}"},
    }


def long_model(bad: dict) -> dict:
    centers = {f"v{i}": "x" for i in range(50_000)}
    radii = dict.fromkeys(centers, 0)
    return {
        "host": {"nodes": ["x"], "edges": []},
        "graph": {"vertices": ["a"], "edges": []},
        "centers": {**centers, "a": "x", **bad.get("centers", {})},
        "radii": {**radii, "a": 0, **bad.get("radii", {})},
    }


def set_edge_end(doc: dict) -> None:
    doc["tree"]["edges"][70_000][1] = 7


def lengthen_edge(doc: dict) -> None:
    doc["tree"]["edges"][70_000].append("n0")


def tuple_edge(doc: dict) -> None:
    doc["tree"]["edges"][60_000] = ("n1", "n2")


def null_node(doc: dict) -> None:
    doc["tree"]["nodes"][50_000] = None


@pytest.mark.parametrize(
    "damage, message",
    [
        (set_edge_end, "tree.edges[70000][1] must be a string, got an integer"),
        (lengthen_edge, "tree.edges[70000] must be a pair of strings, got a list"),
        (tuple_edge, "tree.edges[60000] must be a pair of strings, got tuple"),
        (null_node, "tree.nodes[50000] must be a string, got null"),
    ],
    ids=["edge-end", "three-item-edge", "tuple-edge", "node"],
)
def test_bad_item_deep_in_a_long_root_is_named(damage, message):
    doc = long_root()
    damage(doc)
    with pytest.raises(ValueError) as err:
        leafroot_from_json_obj(doc)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"centers": {"a": 3}}, "centers['a'] must be a string, got an integer"),
        ({"radii": {"a": True}}, "radii['a'] must be an integer, got a boolean"),
        ({"radii": {"a": "1"}}, "radii['a'] must be an integer, got a string"),
    ],
    ids=["center", "radius-bool", "radius-string"],
)
def test_bad_entry_in_a_long_model_is_named(bad, message):
    with pytest.raises(ValueError) as err:
        rs_model_from_json_obj(long_model(bad))
    assert str(err.value) == message
