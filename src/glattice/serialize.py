"""JSON schemas shared across the package and the CLI.

Integers are serialized as decimal strings so that consumers in languages
with fixed-width integers cannot silently truncate them.

Matrix:  {"rows": r, "cols": c, "entries": ["...", ...]}   (row-major)
Vector:  {"dim": n, "entries": ["...", ...]}
Group:   {"dim": n, "generators": [matrix, ...],
          "gram": optional matrix, "label": optional string}

The group schema is the ingestion point for externally exported generator
sets (for example, generator/Gram pairs dumped from a computer algebra
system); ``load_group_file`` reads one from disk.
"""
from __future__ import annotations

import json

from .intmat import IntMatrix, as_vector


def matrix_to_json(m: IntMatrix) -> dict:
    return {"rows": m.rows, "cols": m.cols, "entries": [str(e) for e in m.entries]}


def matrix_from_json(obj: dict) -> IntMatrix:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    entries = tuple(int(e) for e in obj["entries"])
    return IntMatrix(rows, cols, entries)


def vector_to_json(v) -> dict:
    vv = as_vector(v)
    return {"dim": vv.dim, "entries": [str(e) for e in vv.entries]}


def group_to_json(dim: int, generators, gram: IntMatrix | None = None, label: str | None = None) -> dict:
    out = {"dim": dim, "generators": [matrix_to_json(g) for g in generators]}
    if gram is not None:
        out["gram"] = matrix_to_json(gram)
    if label is not None:
        out["label"] = label
    return out


def group_from_json(obj: dict) -> tuple[int, list[IntMatrix], IntMatrix | None, str | None]:
    dim = int(obj["dim"])
    gens = [matrix_from_json(g) for g in obj["generators"]]
    for g in gens:
        if g.rows != dim or g.cols != dim:
            raise ValueError("generator dimension disagrees with group dim")
    gram = matrix_from_json(obj["gram"]) if "gram" in obj and obj["gram"] is not None else None
    label = obj.get("label")
    return dim, gens, gram, label


def _load(path: str, parse, what: str):
    """parse() of the JSON in a file; a malformed file raises ValueError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse(json.load(fh))
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"{path}: not a {what} file ({type(e).__name__}: {e})") from e


def load_group_file(path: str):
    return _load(path, group_from_json, "group")


def load_matrix_file(path: str) -> IntMatrix:
    return _load(path, matrix_from_json, "matrix")
