"""Every public top-level function, class and module-level name (a
constant or an alias) in ``src/epwcalc``, and every public method of such a
class, is referenced from src outside its own definition.  A name that only
the tests use belongs in the tests, as an oracle, not in the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "epwcalc"
#: names with no src reader, kept on purpose: ``cli`` binds ``qfield`` with
#: the six other modules so that it waits in ``sys.modules`` as a lazy module
#: (``tests/test_cold_sections.py``), although no row reads it by name
KEPT = {"cli.qfield"}


def _bound_names(target):
    """The names an assignment target binds, through tuple targets."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _bound_names(element)


def _public_definitions(tree):
    """(qualified name, bare name, is a method, node) of each public
    top-level function, class and assigned name, and of each public method
    of such a class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, False, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name, True, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in _bound_names(target):
                    if not name.startswith("_"):
                        yield name, name, False, node


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
    assert sorted(unreferenced_names()) == sorted(KEPT)


def test_the_scan_reports_what_only_its_own_definition_uses(tmp_path):
    """A recursive function, a class nothing uses, a method whose name is
    only a variable elsewhere, and a constant, an alias and a tuple-bound
    name that nothing outside their own assignment reads are reported; a
    private helper or constant, a name read by another module, a method
    reached as an attribute and a constant read by the same module are not."""
    (tmp_path / "a.py").write_text(
        "def lonely(n):\n    return lonely(n - 1) if n else 0\n\n\n"
        "def used():\n    return _helper()\n\n\n"
        "def _helper():\n    return 1\n\n\n"
        "class Box:\n    def size(self):\n        return 1\n\n"
        "    def area(self):\n        return 2\n\n\n"
        "class Empty:\n    pass\n\n\n"
        "LIMIT: int = 3\nAlias = int | str\nPAIR, _rest = 1, 2\n_PRIVATE = 4\n")
    (tmp_path / "b.py").write_text(
        "from .a import LIMIT, Box, used\n\nVALUE = used() + Box().area()\n\n\n"
        "def scale(size):\n    return size * VALUE * LIMIT\n")
    assert unreferenced_names(tmp_path) == ["a.lonely", "a.Box.size", "a.Empty", "a.Alias",
                                            "a.PAIR", "b.scale"]
