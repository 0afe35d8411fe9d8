"""Every private module-level function and class of the package is used,
and so is every name a module imports or assigns at module level.

A helper named with a leading underscore is not public API, so once the
last code that called it is gone it is dead code.  The guard parses each
module of ``src/argshift`` and counts, for each private module-level
``def`` or ``class``, the names and attributes that read it anywhere in
the package outside its own definition.  Imports alone do not count: a
name imported and never read is as dead as one never imported.

The same walk finds leftovers of a deleted route: a name a module
imports and never reads, and a module-level alias or constant that
nothing in the package reads outside its own assignment.  The package's
``__init__`` imports only to re-export, so its imports are left out.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "argshift"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _reads(tree: ast.AST) -> list[str]:
    """The names and attribute names read in tree."""
    out, todo = [], [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return out


def _parsed(src: Path) -> tuple[dict[str, ast.Module], dict[str, Counter]]:
    """The tree of every module of src, and the names each one reads."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    return trees, {module: Counter(_reads(tree)) for module, tree in trees.items()}


def unreferenced_private_defs(src: Path = SRC) -> list[str]:
    """`module.name` of every private module-level def or class that
    nothing in src reads outside its own definition."""
    trees, reads = _parsed(src)
    total = sum(reads.values(), Counter())
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, DEFS) and _private(node.name) and \
                    not total[node.name] - _reads(node).count(node.name):
                dead.append(f"{module}.{node.name}")
    return dead


def unread_module_names(src: Path = SRC) -> list[str]:
    """`module.name` of every name a module of src imports and never
    reads, and of every name it assigns at module level that nothing in
    src reads outside that assignment; __init__ is left out."""
    trees, reads = _parsed(src)
    dead = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                dead += [f"{module}.{name}" for name in
                         ((a.asname or a.name.split(".")[0]) for a in node.names)
                         if not reads[module][name]]
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, ast.AnnAssign) else [])
            for name in (t.id for t in targets if isinstance(t, ast.Name)):
                outside = sum(r[name] for r in reads.values()) - _reads(node).count(name)
                if not name.endswith("__") and not outside:
                    dead.append(f"{module}.{name}")
    return dead


def test_every_private_def_in_the_package_is_referenced():
    assert unreferenced_private_defs() == []


def test_every_import_and_module_level_name_in_the_package_is_read():
    assert unread_module_names() == []


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


@pytest.mark.parametrize("body, dead", [
    ("from .exactlin import _solve, rat\n\nprint(rat(1))\n", ["mod._solve"]),
    ("from .exactlin import rat as r\n\nprint(r(1))\n", []),
    ("import os.path\n\ndef f():\n    return os.path.sep\n", []),
    ("import os.path\n", ["mod.os"]),
    ("from __future__ import annotations\n", []),
    ("def f():\n    from .exactlin import rat\n", ["mod.rat"]),
    ("Rows = list[list[int]]\n", ["mod.Rows"]),
    ("Rows = list[list[int]]\n\ndef f(r: Rows):\n    pass\n", []),
    ("Rows: type = list\n", ["mod.Rows"]),
    ("__version__ = '1'\n", []),
])
def test_guard_finds_unread_imports_and_aliases(tmp_path, body, dead):
    (tmp_path / "mod.py").write_text(body, encoding="utf-8")
    (tmp_path / "__init__.py").write_text("from .mod import Rows, rat, f\n",
                                          encoding="utf-8")
    assert unread_module_names(tmp_path) == dead


def test_a_name_another_module_reads_is_read(tmp_path):
    (tmp_path / "mod.py").write_text("Rows = list[list[int]]\n", encoding="utf-8")
    (tmp_path / "other.py").write_text("from .mod import Rows\n\ndef f(r: Rows):\n    pass\n",
                                       encoding="utf-8")
    assert unread_module_names(tmp_path) == []
