"""Every public top-level function and class in ``src/epwcalc``, and every
public method of such a class, is referenced from src outside its own
definition.  A name that only the tests use belongs in the tests, as an
oracle, not in the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "epwcalc"


def _public_definitions(tree):
    """(qualified name, bare name, is a method, node) of each public
    top-level function and class, and of each public method of such a class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, False, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name, True, item


def _references(tree):
    """(name, is an attribute, line) of each name read and each attribute
    accessed; a method is reached only as an attribute, so a local variable
    of the same name does not count for it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, False, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, True, node.lineno


def unreferenced_names(src: Path = SRC) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    references = {module: list(_references(tree)) for module, tree in trees.items()}
    missing = []
    for module, tree in trees.items():
        for qualified, name, method, node in _public_definitions(tree):
            outside = (
                other != module or not node.lineno <= line <= node.end_lineno
                for other, refs in references.items() for ref, attr, line in refs
                if ref == name and (attr or not method))
            if not any(outside):
                missing.append(f"{module}.{qualified}")
    return missing


def test_every_public_name_has_a_caller_in_src():
    assert unreferenced_names() == []


def test_the_scan_reports_what_only_its_own_definition_uses(tmp_path):
    """A recursive function, a class nothing uses and a method whose name is
    only a variable elsewhere are reported; a private helper, a name read by
    another module and a method reached as an attribute are not."""
    (tmp_path / "a.py").write_text(
        "def lonely(n):\n    return lonely(n - 1) if n else 0\n\n\n"
        "def used():\n    return _helper()\n\n\n"
        "def _helper():\n    return 1\n\n\n"
        "class Box:\n    def size(self):\n        return 1\n\n"
        "    def area(self):\n        return 2\n\n\n"
        "class Empty:\n    pass\n")
    (tmp_path / "b.py").write_text(
        "from .a import Box, used\n\nVALUE = used() + Box().area()\n\n\n"
        "def scale(size):\n    return size * VALUE\n")
    assert unreferenced_names(tmp_path) == ["a.lonely", "a.Box.size", "a.Empty", "b.scale"]
