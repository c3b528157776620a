import ast
from pathlib import Path

import pytest

import rfhquad

MODULES = sorted(path for path in Path(rfhquad.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


def _unused_imports(tree) -> list:
    """(line, name) for each name an import binds that no expression reads;
    ``from __future__`` imports bind none."""
    bound = [(node.lineno, (alias.asname or alias.name).split(".")[0])
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__" for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(no, name) for no, name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    """Every name a module imports is read somewhere in it (the package
    re-exports only from __init__.py)."""
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_an_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\nimport math\n"
                     "from os import path, sep as s\nimport a.b\nprint(path, a)\n")
    assert _unused_imports(tree) == [(2, "math"), (3, "s")]
