"""Every module-level import in the package is used.

Neither pyflakes nor ruff is a dependency, so this reads each module's
syntax tree: a name bound by a top-level ``import`` must be read somewhere
in the module or be listed in ``__all__`` (the package's re-exports).
``__future__`` imports are exempt. Quoted annotations are not read: the
modules import ``annotations`` from ``__future__`` and need none for names
they import.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "artrank"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name a top-level import binds, with the line that binds it."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, plus the names listed in ``__all__``."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            read |= set(ast.literal_eval(node.value))
    return read


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = read_names(tree)
    unused = [
        f"{path.name}:{line} {name}"
        for name, line in imported_names(tree).items()
        if name not in read
    ]
    assert not unused, unused


def test_an_unused_import_is_found():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import math\nimport os.path\nfrom x import a as b, c, D\n"
        "__all__ = ['c']\n"
        "def f(v: D) -> None:\n    return os.sep\n"
    )
    read = read_names(tree)
    assert [name for name in imported_names(tree) if name not in read] == ["math", "b"]
