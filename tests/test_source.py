"""Properties of the package source itself."""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "glattice"

# Paper-facing routines kept for library users though no program calls them
# yet; the paper's irreducible tori will call it.
PAPER_FACING = {
    "irreducibility_certificate",
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


def _uncalled_routines():
    """(path, def node) of every public routine named nowhere besides its own def
    line: elsewhere in the package, in the demos, in perfbench or in the
    acceptance suite."""
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
    for path, node in _public_routines():
        word = re.compile(rf"\b{node.name}\b")
        named = word.search(outside) or any(
            word.search(line) for p, lineno, line in src_lines if (p, lineno) != (path, node.lineno)
        )
        if not named:
            yield path, node


def test_every_public_routine_has_a_caller():
    """Routines only the unit tests call belong in the tests."""
    uncalled = [f"{path.name}:{node.lineno} {node.name}" for path, node in _uncalled_routines() if node.name not in PAPER_FACING]
    assert uncalled == []


def test_every_paper_facing_exemption_is_a_routine_with_no_caller():
    """An exemption goes when its routine is deleted or gains a caller."""
    assert PAPER_FACING <= {node.name for _, node in _uncalled_routines()}
