"""``artrank.__all__`` names the package's public surface, and all of it.

A name deleted from a module must leave ``__init__`` and ``__all__`` with
it, and a name re-exported by ``__init__`` must be listed.
"""

import ast
import inspect
from pathlib import Path

import artrank


def test_all_is_sorted_unique_and_resolvable():
    names = artrank.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(artrank, name)] == []


def test_all_lists_every_re_export():
    tree = ast.parse(Path(artrank.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported == set(artrank.__all__)
    public = {
        name
        for name, value in vars(artrank).items()
        if not name.startswith("_") and (inspect.isclass(value) or inspect.isfunction(value))
    }
    assert public <= set(artrank.__all__)
