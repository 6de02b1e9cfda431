"""Every public name of shiftrank has a reader outside its own definition."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "shiftrank").glob("*.py") if p.name != "__init__.py")
# the package's own modules, the benchmark and the paper's acceptance
# criteria; unit tests and the __init__ exports do not count as readers
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))
READERS = [*MODULES, *PERFBENCH, ROOT / "tests" / "test_acceptance.py"]


def _names_read(tree: ast.AST) -> set[str]:
    """Every name and attribute referenced in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_function_and_class_has_a_reader():
    statements = {}  # top-level statement -> the names it reads
    defined = []
    for path in READERS:
        for stmt in ast.parse(path.read_text()).body:
            statements[stmt] = _names_read(stmt)
            public = isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name[0] != "_"
            if public and path in MODULES:
                defined.append((path.stem, stmt))
    unread = [
        f"{module}.{node.name}"
        for module, node in defined
        if not any(node.name in names for stmt, names in statements.items() if stmt is not node)
    ]
    assert unread == []
