"""Properties of the package source itself."""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "glattice"

# Paper-facing routines kept for library users though no program calls them.
PAPER_FACING = {
    "stabilizer_order",
    "table_dimension_maximum",
    "check_numerical_lemma",
    "irreducibility_certificate",
    "is_primitive",
}


def test_no_assert_statements_in_the_package():
    """Internal invariants raise explicitly, so they still hold under ``python -O``."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _public_routines():
    """(path, def node) of every public top-level function and top-level class method."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            defs = node.body if isinstance(node, ast.ClassDef) else [node]
            for d in defs:
                if isinstance(d, ast.FunctionDef) and not d.name.startswith("_"):
                    yield path, d


def test_every_public_routine_has_a_caller():
    """A public routine is named somewhere besides its own def line: elsewhere in
    the package, in the demos, in perfbench or in the acceptance suite.
    Routines only the unit tests call belong in the tests."""
    src_lines = [
        (path, lineno, line)
        for path in sorted(SRC.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
    ]
    outside = "\n".join(
        p.read_text()
        for p in [*sorted((ROOT / "demos").rglob("*.py")), *sorted((ROOT / "perfbench").rglob("*.py")),
                  ROOT / "tests" / "test_acceptance.py"]
    )
    uncalled = []
    for path, node in _public_routines():
        word = re.compile(rf"\b{node.name}\b")
        named = word.search(outside) or any(
            word.search(line) for p, lineno, line in src_lines if (p, lineno) != (path, node.lineno)
        )
        if not named and node.name not in PAPER_FACING:
            uncalled.append(f"{path.name}:{node.lineno} {node.name}")
    assert uncalled == []
