"""Every top-level import of a package module, a test module or a script
is used in that module, so code deleted from a module takes its imports
with it.  ``__init__.py`` only re-exports, exactly the names of
``__all__``, and ``__future__`` imports switch compiler features."""

import ast
from pathlib import Path

import pytest

import hopfcyclic

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hopfcyclic"
# package modules by file name, test modules and scripts by their path
MODULES = {p.name: p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
MODULES.update((p.relative_to(ROOT).as_posix(), p)
               for p in [*(ROOT / "tests").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def unused_imports(source: str) -> list:
    """The names bound by top-level imports that no name in the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("module", sorted(MODULES))
def test_module_has_no_unused_top_level_import(module):
    assert unused_imports(MODULES[module].read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom itertools import product, chain as ch\n"
              "def f():\n    return ch(os.path.sep)\n")
    assert unused_imports(source) == ["product"]


def test_the_export_list_is_what_the_package_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [a.asname or a.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for a in node.names]
    assert sorted(hopfcyclic.__all__) == sorted(imported)
    assert len(set(imported)) == len(imported)
    namespace: dict = {}
    exec("from hopfcyclic import *", namespace)
    assert all(namespace[name] is getattr(hopfcyclic, name) for name in hopfcyclic.__all__)
