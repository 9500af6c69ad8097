"""Every top-level function and class and every method of the package is
used by the package itself or by the benchmark.

A use is an attribute or an identifier string (the benchmark wraps
functions by name) anywhere in ``src/`` or ``bench/`` outside the
definition itself, or a bare name there in the defining module or in a
module that imports the name; a local variable of another module that
shares the name is no use.  A recursive call is no use, and neither is a
name's string in an ``__all__`` list, which only exports it.  Dunder
methods are called by Python and are not checked.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "conquer"
FILES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))

# entry points that only the tests call
TEST_ONLY = {
    "bag.py:Bag.frequency",  # the multiset's frequency function, read by the bag laws
    "relalg.py:Extend",  # acceptance criterion 02's operators
    "relalg.py:Rename",  # acceptance criterion 02's operators
    "relalg.py:DropAttrs",  # acceptance criterion 02's operators
}


def definitions(tree: ast.Module):
    """(qualified name, node) of each top-level function and class and of
    each non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    m.name.startswith("__") and m.name.endswith("__")
                ):
                    yield f"{node.name}.{m.name}", m


def imports(tree: ast.Module) -> set[str]:
    """The names a module imports."""
    return {
        alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
    }


def uses(tree: ast.Module):
    """(name, line, whether it is a bare name) of each name, attribute and
    identifier string outside an ``__all__`` list."""
    exports = {
        id(n)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for n in ast.walk(node.value)
    }
    for node in ast.walk(tree):
        if id(node) in exports:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, True
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value, node.lineno, False


def unused() -> list[str]:
    trees = {path: ast.parse(path.read_text(), str(path)) for path in FILES}
    # name -> (module, line, whether the use counts in that module only)
    used: dict[str, list[tuple[Path, int, bool]]] = {}
    for path, tree in trees.items():
        imported = imports(tree)
        for name, line, bare in uses(tree):
            used.setdefault(name, []).append((path, line, bare and name not in imported))
    out = []
    for path, tree in trees.items():
        if not path.is_relative_to(SRC):
            continue
        for qualified, node in definitions(tree):
            name = qualified.rsplit(".", 1)[-1]
            outside = [
                (p, line) for p, line, local in used.get(name, [])
                if not (p == path and node.lineno <= line <= node.end_lineno) and (p == path or not local)
            ]
            if not outside:
                out.append(f"{path.relative_to(SRC).as_posix()}:{qualified}")
    return sorted(out)


def test_every_definition_is_used():
    assert unused() == sorted(TEST_ONLY)
