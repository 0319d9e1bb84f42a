"""Properties of the package source itself."""
import ast
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


def test_no_fractions_true_division_or_floats_in_the_package():
    """Every certified path is exact: no ``fractions`` import, no ``/``, no float literal and no ``float``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            if (
                any(m.split(".")[0] == "fractions" for m in modules)
                or isinstance(getattr(node, "op", None), ast.Div)
                or (isinstance(node, ast.Constant) and isinstance(node.value, float))
                or (isinstance(node, ast.Name) and node.id == "float")
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []

def _public_routines():
    """(path, def node) of every public top-level function and method of a public top-level class.

    Methods of private classes are skipped: their callers may be outside the
    package (argparse calls ``_Parser.error``).
    """
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                defs = [] if node.name.startswith("_") else node.body
            else:
                defs = [node]
            for d in defs:
                if isinstance(d, ast.FunctionDef) and not d.name.startswith("_"):
                    yield path, d


def _referenced_names() -> set:
    """Every name the code uses in the package, the demos, perfbench and the acceptance suite.

    A use is a name, an attribute or an imported name in the syntax tree (a
    word in a docstring or a comment is none), or a string in ``cli`` that
    names one of its functions: ``cli.main`` looks each command's handler up
    by that name.
    """
    paths = [*sorted(SRC.rglob("*.py")), *sorted((ROOT / "demos").rglob("*.py")),
             *sorted((ROOT / "perfbench").rglob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name for alias in node.names)
    cli = ast.parse((SRC / "cli.py").read_text())
    handlers = {node.name for node in cli.body if isinstance(node, ast.FunctionDef)}
    names.update(node.value for node in ast.walk(cli) if isinstance(node, ast.Constant) and node.value in handlers)
    return names


def _uncalled_routines():
    """(path, def node) of every public routine that no code outside the unit tests uses."""
    used = _referenced_names()
    for path, node in _public_routines():
        if node.name not in used:
            yield path, node


def test_every_public_routine_has_a_caller():
    """Routines only the unit tests call belong in the tests."""
    uncalled = [f"{path.name}:{node.lineno} {node.name}" for path, node in _uncalled_routines() if node.name not in PAPER_FACING]
    assert uncalled == []


def test_every_paper_facing_exemption_is_a_routine_with_no_caller():
    """An exemption goes when its routine is deleted or gains a caller."""
    assert PAPER_FACING <= {node.name for _, node in _uncalled_routines()}
