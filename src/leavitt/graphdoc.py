"""JSON graph documents: the single on-disk graph format.

Schema::

    {"vertices": ["u", "v"],
     "edges": [{"name": "f", "src": "u", "dst": "u"}, ...]}

UTF-8, no BOM.  Duplicate identifiers and unknown endpoints are rejected,
and so is a vertex id that ``--generators`` could not name: one that holds
a comma, starts or ends with white space, or is empty (the list is split
on commas, each part stripped and empty parts dropped).
"""

from __future__ import annotations

import json
from typing import Any

from .errors import GraphDocumentError
from .graphs import Edge, Graph


def graph_from_document(doc: Any) -> Graph:
    if not isinstance(doc, dict):
        raise GraphDocumentError("graph document must be a JSON object")
    extra = set(doc) - {"vertices", "edges"}
    if extra:
        raise GraphDocumentError(f"unexpected keys in graph document: {sorted(extra)}")
    vertices = doc.get("vertices")
    edges = doc.get("edges")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise GraphDocumentError('"vertices" must be a list of strings')
    for v in vertices:
        if not v or "," in v or v != v.strip():
            raise GraphDocumentError(
                f"vertex id {v!r} holds a comma or starts or ends with white space, "
                "or is empty, so --generators could not name it"
            )
    if not isinstance(edges, list):
        raise GraphDocumentError('"edges" must be a list of objects')
    parsed = []
    for i, entry in enumerate(edges):
        if not isinstance(entry, dict) or set(entry) != {"name", "src", "dst"}:
            raise GraphDocumentError(
                f'edge #{i} must be an object with exactly the keys "name", "src", "dst"'
            )
        if not all(isinstance(entry[k], str) for k in ("name", "src", "dst")):
            raise GraphDocumentError(f"edge #{i} has a non-string field")
        parsed.append(Edge(entry["name"], entry["src"], entry["dst"]))
    try:
        return Graph(tuple(vertices), tuple(parsed))
    except ValueError as exc:
        raise GraphDocumentError(str(exc)) from exc


def parse_graph_json(text: str) -> Graph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphDocumentError(f"invalid JSON: {exc}") from exc
    return graph_from_document(doc)


def load_graph(path: str) -> Graph:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise GraphDocumentError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise GraphDocumentError(f"{path} is not UTF-8: {exc}") from exc
    return parse_graph_json(text)


def document_from_graph(graph: Graph) -> dict:
    return {
        "vertices": list(graph.vertices),
        "edges": [{"name": e.name, "src": e.src, "dst": e.dst} for e in graph.edges],
    }


def dump_graph_json(graph: Graph) -> str:
    return json.dumps(document_from_graph(graph), indent=2) + "\n"
