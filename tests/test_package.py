"""The package's public surface, and no dead imports in its modules."""

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
