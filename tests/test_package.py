"""The package's public surface, and no dead or shadowed imports in its
modules."""

import ast
from pathlib import Path

import pytest

import unijoin

MODULES = sorted(Path(unijoin.__file__).parent.glob("*.py"))


def test_all_exports_resolve():
    missing = [name for name in unijoin.__all__ if not hasattr(unijoin, name)]
    assert missing == []


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports (``from __future__`` aside) that it
    never references and does not list in ``__all__``."""
    tree = ast.parse(source)
    imported = []
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used | exported]


def test_unused_import_is_found():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b, c as d\n"
    assert unused_imports(source) == ["os", "b", "d"]
    assert unused_imports(source + "os.sep\n__all__ = ['b']\nd()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# The scopes whose bindings can hide a module-level import.
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
          ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def shadowed_imports(source: str) -> list[str]:
    """``name:line`` for each binding inside a function, lambda or
    comprehension of ``source`` -- a parameter, an assignment, a ``for``
    target or a comprehension variable -- of a name the module imports at
    top level.  Inside that scope the import is out of reach, and a call
    meant for it calls the local value instead."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    found = set()
    for scope in ast.walk(tree):
        if isinstance(scope, SCOPES):
            for node in ast.walk(scope):
                if isinstance(node, ast.arg) and node.arg in imported:
                    found.add((node.lineno, node.arg))
                elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                      and node.id in imported):
                    found.add((node.lineno, node.id))
    return [f"{name}:{line}" for line, name in sorted(found)]


def test_shadowed_import_is_found():
    source = (
        "from operator import sub\nimport os.path\nsub = 1\n"  # a module-level rebinding
        "def f(os, n):\n"
        "    for sub in n:\n"
        "        m = [sub for sub in n]\n"
        "    g = lambda sub: sub\n"
        "    return {k: sub(k, 1) for k in n}\n"
    )
    assert shadowed_imports(source) == ["os:4", "sub:5", "sub:6", "sub:7"]
    assert shadowed_imports("from operator import sub\ndef f(a):\n    return sub(a, 1)\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_shadowed_imports(path):
    assert shadowed_imports(path.read_text(encoding="utf-8")) == []
