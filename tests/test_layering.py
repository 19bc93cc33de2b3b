"""Only ``artifacts.py`` creates, replaces or deletes files and directories.

The output directory has one owner, ``artifacts.ArtifactWriter``: it takes
the lock, drops stale files and hashes every write. This reads each other
module's syntax tree and refuses any call of ``.unlink`` or ``.mkdir`` (on
any object), or of ``os.open``, ``os.replace``, ``os.rename`` or
``os.remove``, so that publishing logic has one place to go.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "artrank"
OWNER = "artifacts.py"
METHODS = {"unlink", "mkdir"}
OS_FUNCTIONS = {"open", "replace", "rename", "remove"}


def file_system_calls(tree: ast.AST) -> list[str]:
    """Each call in ``tree`` that creates, replaces or deletes a file, with its line."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        name, owner = node.func.attr, node.func.value
        if name in METHODS or (
            name in OS_FUNCTIONS and isinstance(owner, ast.Name) and owner.id == "os"
        ):
            found.append(f"{node.lineno}: {ast.unparse(node.func)}")
    return found


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != OWNER),
    ids=lambda path: path.name,
)
def test_only_the_artifact_writer_touches_the_file_system(path):
    calls = file_system_calls(ast.parse(path.read_text(encoding="utf-8")))
    assert not calls, f"{path.name} {calls}; write and delete files through {OWNER}"


def test_a_planted_call_is_found():
    tree = ast.parse(
        "import os\n"
        "(out / 'matches.csv').unlink(missing_ok=True)\n"
        "os.replace(a, b)\n"
        "text.replace('Z', '+00:00')\n"
        "open(path, 'rb')\n"
    )
    assert file_system_calls(tree) == ["2: (out / 'matches.csv').unlink", "3: os.replace"]
