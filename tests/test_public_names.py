"""Every public name of shiftrank has a reader outside its own definition.

The checks match by name alone.  A name counts as read wherever any name or
attribute of that spelling is loaded, so a member that shares its name with
one read elsewhere passes unread: ``CenteredWord.at`` would pass because
``_SegmentBlocks.at`` is called.  A passing check shows that no public name
is certainly unread, not that each has a reader.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "shiftrank").glob("*.py") if p.name != "__init__.py")
# the package's own modules, the benchmark and the paper's acceptance
# criteria; unit tests and the __init__ exports do not count as readers
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))
READERS = [*MODULES, *PERFBENCH, ROOT / "tests" / "test_acceptance.py"]
TREES = {path: ast.parse(path.read_text()) for path in READERS}


def _names_read(tree: ast.AST) -> Counter:
    """How often each name and attribute is loaded in ``tree``."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names[node.attr] += 1
    return names


READ = sum((_names_read(tree) for tree in TREES.values()), Counter())


def _unread(defined: list[tuple[str, str, ast.AST]]) -> list[str]:
    """The labels of the definitions whose name is loaded nowhere outside them."""
    return [label for label, name, node in defined if READ[name] == _names_read(node)[name]]


def test_every_public_function_and_class_has_a_reader():
    defined = [
        (f"{path.stem}.{stmt.name}", stmt.name, stmt)
        for path in MODULES
        for stmt in TREES[path].body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name[0] != "_"
    ]
    assert _unread(defined) == []


def _constant_names(node: ast.stmt) -> list[str]:
    """The plain names a module-level assignment binds."""
    if isinstance(node, ast.Assign):
        return [target.id for target in node.targets if isinstance(target, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def test_every_public_module_constant_has_a_reader():
    defined = [
        (f"{path.stem}.{name}", name, stmt)
        for path in MODULES
        for stmt in TREES[path].body
        for name in _constant_names(stmt)
        if name[0] != "_"
    ]
    assert _unread(defined) == []


def _member_name(node: ast.stmt) -> str | None:
    """The name a class-body statement defines as a method, property or field."""
    if isinstance(node, ast.FunctionDef):
        return node.name
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return node.target.id
    return None


def test_every_member_of_a_public_class_has_a_reader():
    # methods, properties, and dataclass and protocol fields; dunders and
    # private members are read by the language or by their own class
    defined = [
        (f"{path.stem}.{cls.name}.{name}", name, node)
        for path in MODULES
        for cls in TREES[path].body
        if isinstance(cls, ast.ClassDef) and cls.name[0] != "_"
        for node in cls.body
        if (name := _member_name(node)) and name[0] != "_"
    ]
    assert _unread(defined) == []
