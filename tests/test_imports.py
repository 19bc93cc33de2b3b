"""Every module-level import in the package is used, and every private
module-level name is read.

Neither pyflakes nor ruff is a dependency, so this reads each module's
syntax tree: a name bound by a top-level ``import`` must be read somewhere
in the module or be listed in ``__all__`` (the package's re-exports).
``__future__`` imports are exempt. Quoted annotations are not read: the
modules import ``annotations`` from ``__future__`` and need none for names
they import. A ``_``-prefixed function, class or constant that a module
defines at top level must be read somewhere in the package, so that no
dead helper outlives its last caller.
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


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each ``_``-prefixed (not dunder) function, class or constant the module
    defines at top level, with the line that defines it."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in bound:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module:line name`` of each private module-level name that no module of
    ``sources`` (module name to source text) reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*map(read_names, trees.values()))
    return [
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in read
    ]


def test_every_private_module_level_name_is_read_in_the_package():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    unread = unread_private_names(sources)
    assert not unread, unread


def test_an_unread_private_name_is_found():
    sources = {
        "a.py": (
            "_USED = 1\n_UNUSED = 2\n_A, _B = 1, 2\n_T: int = 3\n__version__ = '1'\n"
            "def _helper():\n    return _USED + _T\n"
            "def _orphan():\n    pass\n"
            "class _Kept:\n    _attribute = 1\n"
            "class _Dropped:\n    pass\n"
            "def public(_argument):\n    return _helper()\n"
        ),
        "b.py": "from .a import _Kept, _Dropped\nkept = _Kept()\nb = _B\n",
    }
    assert unread_private_names(sources) == [
        "a.py:2 _UNUSED", "a.py:3 _A", "a.py:8 _orphan", "a.py:12 _Dropped"
    ]


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
