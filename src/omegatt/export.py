"""Export elaborated documents to JSON and Graphviz DOT.

The JSON form round-trips (:func:`document_from_json`).  Each cell is
written by :func:`omegatt.computads.cell_to_json`: as a tree, or above
:data:`omegatt.computads.SHARE_ABOVE` nodes as node tables with
back-references, the leaves of hom cells included.  A cell over a named
block names it in ``over``; any other cell (the result of ``op{…}``,
``susp`` or a template) has ``over`` null and carries the computad the
elaborator put it over in ``ambient``.  The DOT form is a one-way
rendering with one ``digraph`` per computad and dimension: the ``d``-th
layer draws the ``d``-generators as edges between their printed
``(d-1)``-boundary cells.  Bound cells only appear in the JSON form.
"""

from __future__ import annotations

import json
from typing import Mapping

from .computads import (
    Computad,
    cell_from_json,
    cell_to_json,
    computad_from_json,
    computad_to_json,
    var_from_json,
    var_to_json,
)
from .hashcons import walk
from .homcat import homgen_from_json, homgen_to_json
from .surface import ElabCell, ElabDocument, cell_text

# the JSON leaf codec of each kind of bound cell: (encode, decode)
LEAVES = {"cell": (var_to_json, var_from_json), "homcell": (homgen_to_json, homgen_from_json)}


def document_to_json(doc: ElabDocument) -> dict:
    computads = [{"name": name, **computad_to_json(c)} for name, c in doc.computads]
    cells = []
    for name, elab in doc.cells:
        entry = {"name": name, "over": elab.over, "kind": elab.kind}
        if elab.over is None:
            entry["ambient"] = computad_to_json(elab.ambient)
        entry["term"] = cell_to_json(elab.term, LEAVES[elab.kind][0])
        cells.append(entry)
    return {"computads": computads, "cells": cells}


def json_text(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for an object of
    string-keyed dicts, lists and scalars, written by a walk: no Python
    frame per level of nesting, where the encoder takes one."""
    out: list[str] = []

    def step(item):  # a non-empty dict or list, and its depth
        value, depth = item
        keyed = isinstance(value, dict)
        out.append("{" if keyed else "[")
        lead = inner = "\n" + "  " * (depth + 1)
        for key, v in value.items() if keyed else enumerate(value):
            out.append(f"{lead}{json.dumps(key)}: " if keyed else lead)
            lead = "," + inner
            if isinstance(v, (dict, list, tuple)) and v:
                yield v, depth + 1
            else:
                out.append(json.dumps(v))
        out.append("\n" + "  " * depth + ("}" if keyed else "]"))

    if not (isinstance(obj, (dict, list, tuple)) and obj):
        return json.dumps(obj)
    walk(step, None, (obj, 0))
    return "".join(out)


def document_from_json(obj: Mapping) -> ElabDocument:
    doc = ElabDocument()
    for entry in obj.get("computads", []):
        doc.computads.append((entry["name"], computad_from_json(entry)))
    for entry in obj.get("cells", []):
        over = entry.get("over")
        ambient = doc.computad(over) if over is not None else computad_from_json(entry["ambient"])
        term = cell_from_json(entry["term"], ambient.dim_of, LEAVES[entry["kind"]][1])
        doc.cells.append((entry["name"], ElabCell(entry["kind"], ambient, term, over)))
    return doc


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _layer_dot(name: str, c: Computad, d: int) -> str:
    lines = [f"digraph {_quote(f'{name}_dim{d}')} {{"]
    nodes: list[str] = []

    def node(text: str) -> None:
        if text not in nodes:
            nodes.append(text)

    for v in c.generators_at(d - 1):
        node(cell_text(c.var(v)))
    edges = []
    for v in c.generators_at(d):
        sphere = c.sphere_of(v)
        src, tgt = cell_text(sphere.src), cell_text(sphere.tgt)
        node(src)
        node(tgt)
        edges.append(f"  {_quote(src)} -> {_quote(tgt)} [label={_quote(v)}];")
    lines += [f"  {_quote(text)};" for text in nodes]
    lines += edges
    lines.append("}")
    return "\n".join(lines)


def computad_dot(name: str, c: Computad) -> str:
    layers = [_layer_dot(name, c, d) for d in range(1, max(c.bound, 1) + 1)]
    return "\n\n".join(layers)


def document_to_dot(doc: ElabDocument) -> str:
    chunks = [computad_dot(name, c) for name, c in doc.computads]
    return "\n\n".join(chunks) + "\n"
