"""Properties of the package source itself."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "glattice"


def test_no_assert_statements_in_the_package():
    """Internal invariants raise explicitly, so they still hold under ``python -O``."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
