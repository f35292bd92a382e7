import json

import pytest
from hypothesis import given

from leavitt import (
    GraphDocumentError,
    document_from_graph,
    dump_graph_json,
    graph_from_document,
    load_graph,
    parse_graph_json,
)

from .strategies import graphs


def test_round_trip(loop_with_exit):
    doc = document_from_graph(loop_with_exit)
    assert graph_from_document(doc) == loop_with_exit
    assert parse_graph_json(dump_graph_json(loop_with_exit)) == loop_with_exit


@given(graphs())
def test_round_trip_random(g):
    assert parse_graph_json(dump_graph_json(g)) == g


def test_load_graph(tmp_path, loop_with_exit):
    path = tmp_path / "g.json"
    path.write_text(dump_graph_json(loop_with_exit), encoding="utf-8")
    assert load_graph(str(path)) == loop_with_exit


def test_load_graph_missing_file(tmp_path):
    with pytest.raises(GraphDocumentError):
        load_graph(str(tmp_path / "absent.json"))


def test_invalid_json():
    with pytest.raises(GraphDocumentError):
        parse_graph_json("{not json")


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"vertices": "ab", "edges": []},
        {"vertices": ["a"], "edges": [{}]},
        {"vertices": ["a"], "edges": [{"name": "e", "src": "a"}]},
        {"vertices": ["a"], "edges": [{"name": "e", "src": "a", "dst": "a", "extra": 1}]},
        {"vertices": ["a"], "edges": [{"name": "e", "src": "a", "dst": 3}]},
        {"vertices": ["a"], "edges": [], "other": 1},
        {"vertices": ["a", "a"], "edges": []},
        {"vertices": ["a"], "edges": [{"name": "e", "src": "a", "dst": "zz"}]},
        {
            "vertices": ["a"],
            "edges": [
                {"name": "e", "src": "a", "dst": "a"},
                {"name": "e", "src": "a", "dst": "a"},
            ],
        },
    ],
)
def test_bad_documents_rejected(doc):
    with pytest.raises(GraphDocumentError):
        graph_from_document(doc)


def test_dump_is_deterministic(loop_with_exit):
    assert dump_graph_json(loop_with_exit) == dump_graph_json(loop_with_exit)
    parsed = json.loads(dump_graph_json(loop_with_exit))
    assert parsed["vertices"] == ["u", "v"]
    assert parsed["edges"][0] == {"name": "f", "src": "u", "dst": "u"}


# --generators splits on commas, strips each part and drops empty parts, so
# these ids could never be named
@pytest.mark.parametrize("name", ["a,b", ",", " a", "a ", "\ta", "a\n", "a\u2028", ""])
def test_ids_that_generators_cannot_name_are_refused(name):
    with pytest.raises(GraphDocumentError, match="--generators could not name it"):
        graph_from_document({"vertices": ["x", name], "edges": []})


@pytest.mark.parametrize("name", ["a b", "tab\tname", "a\u2028b", "é", "a"])
def test_ids_with_white_space_inside_are_accepted(name):
    graph = graph_from_document({"vertices": [name], "edges": []})
    assert graph.vertices == (name,)
