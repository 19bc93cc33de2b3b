"""Four layering rules, read from each module's syntax tree.

The output directory has one owner, ``artifacts.ArtifactWriter``: it takes
the lock, drops stale files and hashes every write. Any other module's call
of ``.unlink`` or ``.mkdir`` (on any object), or of ``os.open``,
``os.replace``, ``os.rename`` or ``os.remove``, is refused, so that
publishing logic has one place to go.

Forked children have one owner, ``children.Child``: it forks, pipes back
what a child's work returns or raises, and kills and reaps. Any other
module's call of ``os.fork``, ``os.pipe``, ``os.kill`` or ``os.waitpid``, or
import of ``pickle``, is refused, so that a child's rules are kept in one
place.

``columns`` and ``children`` are leaves: they import nothing from
``artrank``, so every other module may import them without a cycle.

A name that one module imports from another is public in the module that
defines it: no module imports an ``_``-prefixed name from another
``artrank`` module.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "artrank"
OWNER = "artifacts.py"
METHODS = {"unlink", "mkdir"}
OS_FUNCTIONS = {"open", "replace", "rename", "remove"}
PROCESS_OWNER = "children.py"
PROCESS_FUNCTIONS = {"fork", "pipe", "kill", "waitpid"}
LEAVES = ["columns.py", "children.py"]


def os_call(node: ast.AST, names: set[str]) -> bool:
    """Whether ``node`` calls ``os.<name>`` for one of ``names``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in names
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "os"
    )


def file_system_calls(tree: ast.AST) -> list[str]:
    """Each call in ``tree`` that creates, replaces or deletes a file, with its line."""
    found = []
    for node in ast.walk(tree):
        if os_call(node, OS_FUNCTIONS) or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in METHODS
        ):
            found.append(f"{node.lineno}: {ast.unparse(node.func)}")
    return found


def process_calls(tree: ast.AST) -> list[str]:
    """Each call in ``tree`` that forks, pipes, kills or reaps, and each import of
    ``pickle``, with its line."""
    found = []
    for node in ast.walk(tree):
        if os_call(node, PROCESS_FUNCTIONS):
            found.append(f"{node.lineno}: {ast.unparse(node.func)}")
        elif (isinstance(node, ast.Import) and any(a.name == "pickle" for a in node.names)) or (
            isinstance(node, ast.ImportFrom) and node.module == "pickle"
        ):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def package_imports(tree: ast.AST) -> list[ast.ImportFrom | ast.Import]:
    """Each import in ``tree`` of an ``artrank`` module or of names from one."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] if not node.level else ["artrank"]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        if any(module.split(".")[0] == "artrank" for module in modules):
            found.append(node)
    return found


def private_imports(tree: ast.AST) -> list[str]:
    """Each ``_``-prefixed name that ``tree`` imports from an ``artrank`` module, with its line."""
    return [
        f"{node.lineno}: {alias.name}"
        for node in package_imports(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]


def modules_but(owner: str) -> list[Path]:
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != owner)


@pytest.mark.parametrize("path", modules_but(OWNER), ids=lambda path: path.name)
def test_only_the_artifact_writer_touches_the_file_system(path):
    calls = file_system_calls(ast.parse(path.read_text(encoding="utf-8")))
    assert not calls, f"{path.name} {calls}; write and delete files through {OWNER}"


@pytest.mark.parametrize("path", modules_but(PROCESS_OWNER), ids=lambda path: path.name)
def test_only_ingest_forks_pipes_and_reaps(path):
    """The fork rule; its owner is ``PROCESS_OWNER``, which the test name predates."""
    calls = process_calls(ast.parse(path.read_text(encoding="utf-8")))
    assert not calls, f"{path.name} {calls}; fork children through {PROCESS_OWNER}'s Child"


@pytest.mark.parametrize("name", LEAVES)
def test_leaf_modules_import_nothing_from_the_package(name):
    imports = package_imports(ast.parse((PACKAGE / name).read_text(encoding="utf-8")))
    assert not imports, f"{name} imports {[ast.unparse(node) for node in imports]}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_a_private_name(path):
    names = private_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not names, f"{path.name} imports {names}; make a shared name public where it is defined"


def test_a_planted_call_is_found():
    tree = ast.parse(
        "import os\n"
        "(out / 'matches.csv').unlink(missing_ok=True)\n"
        "os.replace(a, b)\n"
        "text.replace('Z', '+00:00')\n"
        "open(path, 'rb')\n"
    )
    assert file_system_calls(tree) == ["2: (out / 'matches.csv').unlink", "3: os.replace"]


def test_a_planted_process_call_is_found():
    tree = ast.parse(
        "import os, pickle\n"
        "from pickle import load\n"
        "os.waitpid(pid, 0)\n"
        "os.kill(pid, 9)\n"
        "child.kill()\n"
        "os.getpid()\n"
    )
    assert process_calls(tree) == [
        "1: import os, pickle",
        "2: from pickle import load",
        "3: os.waitpid",
        "4: os.kill",
    ]


def test_a_planted_package_import_is_found():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from .ingest import EventLog\n"
        "from . import graph\n"
        "import artrank.cli\n"
        "from artrank.columns import DecimalColumn\n"
    )
    assert [node.lineno for node in package_imports(tree)] == [3, 4, 5, 6]


def test_a_planted_private_import_is_found():
    tree = ast.parse(
        "from decimal import _PyHASH_MODULUS\n"
        "from .ingest import EventLog, _Records\n"
        "from . import _private\n"
        "from artrank.children import Child as _Child\n"
        "from artrank.columns import _EXACT\n"
    )
    assert private_imports(tree) == ["2: _Records", "3: _private", "5: _EXACT"]
