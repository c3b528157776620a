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


MEMOS = {"cache", "lru_cache"}


def _memoized(tree) -> list:
    """The name of each function a functools.cache or lru_cache decorates,
    and the line of each other use of either."""
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "functools"}
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "functools"
             for alias in node.names if alias.name in MEMOS}

    def is_memo(node):
        return ((isinstance(node, ast.Attribute) and node.attr in MEMOS
                 and isinstance(node.value, ast.Name) and node.value.id in modules)
                or (isinstance(node, ast.Name) and node.id in names))

    found, decorating = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for dec in node.decorator_list:
                if is_memo(dec.func if isinstance(dec, ast.Call) else dec):
                    found.append(node.name)
                    decorating.update(map(id, ast.walk(dec)))
    found += [node.lineno for node in ast.walk(tree)
              if is_memo(node) and id(node) not in decorating]
    return found


def test_only_the_parser_is_memoized():
    """No memo outlives a call but the CLI's parser: a cache keyed on a
    Hamiltonian, or held by a module, would make a replayed workload time
    lookups instead of the computation."""
    found = {path.name: _memoized(ast.parse(path.read_text())) for path in MODULES}
    assert {name: memos for name, memos in found.items() if memos} == {"cli.py": ["_build_parser"]}


def test_a_memo_is_found():
    tree = ast.parse("import functools\nimport functools as ft\nfrom functools import cache as c\n"
                     "@functools.lru_cache(maxsize=4)\ndef f(): pass\n"
                     "class A:\n    @c\n    def g(self): pass\n"
                     "h = ft.cache(len)\n@functools.cached_property\ndef i(): pass\n")
    assert _memoized(tree) == ["f", "g", 9]
