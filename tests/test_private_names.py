"""Every private module-level function and class of the package is used.

A helper named with a leading underscore is not public API, so once the
last code that called it is gone it is dead code.  The guard parses each
module of ``src/argshift`` and counts, for each private module-level
``def`` or ``class``, the names and attributes that read it anywhere in
the package outside its own definition.  Imports alone do not count: a
name imported and never read is as dead as one never imported.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "argshift"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _reads(tree: ast.AST, skip: ast.AST | None = None) -> list[str]:
    """The names and attribute names read in tree, outside the subtree skip."""
    out, todo = [], [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return out


def unreferenced_private_defs(src: Path = SRC) -> list[str]:
    """`module.name` of every private module-level def or class that
    nothing in src reads outside its own definition."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, DEFS) or not _private(node.name):
                continue
            if not any(node.name in _reads(other, node if other is tree else None)
                       for other in trees.values()):
                dead.append(f"{module}.{node.name}")
    return dead


def test_every_private_def_in_the_package_is_referenced():
    assert unreferenced_private_defs() == []


@pytest.mark.parametrize("body, dead", [
    ("def _helper():\n    return _helper()\n", ["mod._helper"]),
    ("def _helper():\n    pass\n\ndef api():\n    return _helper()\n", []),
    ("class _Box:\n    pass\n\nclass Api:\n    box = _Box\n", []),
    ("class _Box:\n    pass\n", ["mod._Box"]),
    ("def __getattr__(name):\n    pass\n", []),
])
def test_guard_finds_defs_read_only_by_themselves(tmp_path, body, dead):
    (tmp_path / "mod.py").write_text(body, encoding="utf-8")
    (tmp_path / "other.py").write_text("from .mod import *\n", encoding="utf-8")
    assert unreferenced_private_defs(tmp_path) == dead


def test_an_import_alone_is_not_a_reference(tmp_path):
    (tmp_path / "mod.py").write_text("def _helper():\n    pass\n", encoding="utf-8")
    (tmp_path / "other.py").write_text("from .mod import _helper\n", encoding="utf-8")
    assert unreferenced_private_defs(tmp_path) == ["mod._helper"]
    (tmp_path / "other.py").write_text("from . import mod\n\nx = mod._helper\n",
                                       encoding="utf-8")
    assert unreferenced_private_defs(tmp_path) == []
