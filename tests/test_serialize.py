"""JSON schemas: string-encoded integers, group ingestion round-trips."""
import json

import pytest

from glattice.intmat import IntMatrix
from glattice.serialize import (
    group_from_json,
    group_to_json,
    matrix_from_json,
    matrix_to_json,
    vector_to_json,
)


def test_matrix_roundtrip_preserves_big_integers():
    big = 2**100 + 7
    m = IntMatrix.from_rows([(big, -big), (0, 1)])
    obj = matrix_to_json(m)
    assert obj["entries"][0] == str(big)  # strings guard against truncation
    assert matrix_from_json(json.loads(json.dumps(obj))) == m


def test_vector_roundtrip():
    v = (1, -2, 3**40)
    obj = json.loads(json.dumps(vector_to_json(v)))
    assert obj == {"dim": 3, "entries": ["1", "-2", str(3**40)]}


def test_group_roundtrip_with_gram_and_label():
    gens = [IntMatrix.from_rows([(-1, 0), (1, 1)]), IntMatrix.from_rows([(1, 1), (0, -1)])]
    gram = IntMatrix.from_rows([(2, -1), (-1, 2)])
    obj = group_to_json(2, gens, gram=gram, label="weyl a2 (weight basis)")
    dim, back, gram_back, label = group_from_json(json.loads(json.dumps(obj)))
    assert dim == 2 and back == gens and gram_back == gram
    assert label == "weyl a2 (weight basis)"


def test_group_without_optionals():
    obj = group_to_json(1, [IntMatrix.from_rows([(-1,)])])
    dim, gens, gram, label = group_from_json(obj)
    assert dim == 1 and gram is None and label is None


def test_group_generator_dim_checked():
    obj = group_to_json(2, [IntMatrix.from_rows([(-1,)])])
    obj["dim"] = 2
    with pytest.raises(ValueError):
        group_from_json(obj)
