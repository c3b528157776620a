import ast
from pathlib import Path

import pytest

import rfhquad
from rfhquad import selftest

MODULES = sorted(path for path in Path(rfhquad.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")
ROOT = Path(__file__).resolve().parent.parent
TESTS_AND_SCRIPTS = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("scripts/*.py"))


def _unused_imports(tree) -> list:
    """(line, name) for each name an import binds that no expression reads;
    ``from __future__`` imports bind none."""
    bound = [(node.lineno, (alias.asname or alias.name).split(".")[0])
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__" for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(no, name) for no, name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES + TESTS_AND_SCRIPTS, ids=lambda path: (
    path.name if path in MODULES else str(path.relative_to(ROOT))))
def test_no_unused_imports(path):
    """Every name a module, test or script imports is read somewhere in it
    (the package re-exports only from __init__.py)."""
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_an_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\nimport math\n"
                     "from os import path, sep as s\nimport a.b\nprint(path, a)\n")
    assert _unused_imports(tree) == [(2, "math"), (3, "s")]


PIPELINE = ["errors", "symlin", "hormander", "tentacular", "czindex", "oracles", "orbits",
            "rfh", "samples", "selftest", "cli"]


def _out_of_order_imports(sources, order) -> list:
    """(module, line, imported) for each relative import, at any depth, in
    a module of ``sources`` (a map of module name to source) that names a
    module not earlier than its own in ``order``."""
    rank = {name: i for i, name in enumerate(order)}
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = ([node.module.split(".")[0]] if node.module
                         else [alias.name for alias in node.names])
                found += [(module, node.lineno, name) for name in names
                          if rank.get(name, len(order)) >= rank[module]]
    return found


def test_modules_import_in_pipeline_order():
    """The package's modules follow its pipeline: validate, classify, the
    orbit census and its gradings, then the homology, the samplers, the
    self-test and the CLI.  A module imports only from modules before it
    (__init__.py, which re-exports them all, aside)."""
    assert sorted(path.stem for path in MODULES) == sorted(PIPELINE)
    sources = {path.stem: path.read_text() for path in MODULES}
    assert _out_of_order_imports(sources, PIPELINE) == []


def test_an_out_of_order_import_is_found():
    sources = {"a": "from .b import f\nimport os\n",
               "b": "from .a import g\nfrom . import c\nfrom os import path\n",
               "c": "def h():\n    from .c import x\n    from .a.e import y\n"
                    "    from .d import z\n"}
    assert _out_of_order_imports(sources, ["a", "b", "c"]) == [
        ("a", 1, "b"), ("b", 2, "c"), ("c", 2, "c"), ("c", 4, "d")]


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


def _instance_dict_uses(tree) -> list:
    """The line of each ``__dict__`` attribute, read or written, and of
    each call of ``vars``, which reads one."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "__dict__"
                  or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "vars")


def test_no_instance_dict_access():
    """The census records (HalfInt, OrbitFamily, Generator) are slotted,
    each field stored by its slot's own setter, and have no __dict__: no
    module of the package reads or writes one, which on those records
    would raise, and on a new record would bring the per-object dict back."""
    found = {path.name: _instance_dict_uses(ast.parse(path.read_text()))
             for path in sorted(Path(rfhquad.__file__).parent.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_an_instance_dict_use_is_found():
    tree = ast.parse("class A:\n    def __init__(self, x):\n        self.__dict__.update(x=x)\n"
                     "a.__dict__['y'] = 1\nprint(vars(a), type(a).__dict__, d.dict, dict(a))\n")
    assert _instance_dict_uses(tree) == [3, 4, 5, 5]


def _unread_parameters(tree) -> list:
    """(function, parameter) for each parameter of each function or lambda
    that its body never reads; ``self`` and ``cls`` are exempt."""
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                  + [args.vararg, args.kwarg] if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        unread += [(getattr(node, "name", "<lambda>"), p) for p in params
                   if p not in read and p not in ("self", "cls")]
    return unread


def test_every_parameter_is_read():
    """A parameter no body reads does nothing for its caller.  The one
    exemption is the seed every self-test criterion takes, since
    ``run_all`` calls each as ``fn(seed)``."""
    criteria = {fn.__name__ for fn in selftest.CRITERIA.values()}
    found = {path.name: [(fn, p) for fn, p in _unread_parameters(ast.parse(path.read_text()))
                         if not (path.name == "selftest.py" and fn in criteria and p == "seed")]
             for path in MODULES}
    assert {name: unread for name, unread in found.items() if unread} == {}


def test_an_unread_parameter_is_found():
    tree = ast.parse("def f(a, b, *c, d=1, **e):\n    return a + d\n"
                     "class A:\n    def g(self, x):\n        return lambda y, z: y\n"
                     "    @classmethod\n    def h(cls, w):\n        def inner():\n"
                     "            return w\n        return inner\n")
    assert _unread_parameters(tree) == [("f", "b"), ("f", "c"), ("f", "e"), ("g", "x"),
                                        ("<lambda>", "z")]


def _unread_private_names(sources) -> list:
    """(module, line, name) for each private name a module binds at its top
    level (a function, class or assigned name with one leading underscore)
    that no module of ``sources``, a map of module name to source, reads as
    a name or an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = [node.name]
            else:
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target] if isinstance(node, ast.AnnAssign) else [])
                bound = [n.id for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name)]
            unread += [(module, node.lineno, name) for name in bound
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    return unread


def test_every_private_name_is_read():
    """A private module-level name that no module of the package reads is
    dead code, or code kept only for the tests: reads in tests do not count."""
    sources = {path.name: path.read_text()
               for path in sorted(Path(rfhquad.__file__).parent.glob("*.py"))}
    assert _unread_private_names(sources) == []


def test_an_unread_private_name_is_found():
    sources = {"a.py": "_A = 1\n_B, c = 2, 3\n__all__ = []\ndef _f():\n    return _A\n"
                       "class _C:\n    pass\n_d: int = 4\n_g = _h = 5\n",
               "b.py": "from .a import _g\nimport a\nprint(_g, a._d)\n"}
    assert _unread_private_names(sources) == [("a.py", 2, "_B"), ("a.py", 4, "_f"),
                                              ("a.py", 6, "_C"), ("a.py", 9, "_h")]


def _unread_public_names(package, readers) -> list:
    """(module, name) for each name in the ``__all__`` of a module of
    ``package``, a map of module name to source, that nothing reads: not
    its own module as a name, and no other source of ``package`` or of
    ``readers`` by importing it or as an attribute of what it imports.
    A field read off a record (``g.grading``) reads no public name, nor
    does a local name (a parameter ``grading``) outside its module."""

    def root(node):
        while isinstance(node, ast.Attribute):
            node = node.value
        return getattr(node, "id", None)

    trees = {module: ast.parse(source) for module, source in package.items()}
    read = set()
    for tree in [*trees.values(), *map(ast.parse, readers)]:
        imports = [node for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))]
        bound = {(alias.asname or alias.name).split(".")[0] for node in imports
                 for alias in node.names}
        read |= {alias.name for node in imports if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and root(node) in bound}
    unread = []
    for module, tree in trees.items():
        own = {node.id for node in ast.walk(tree)
               if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [(module, name) for node in tree.body if isinstance(node, ast.Assign)
                   and any(getattr(target, "id", None) == "__all__" for target in node.targets)
                   for name in ast.literal_eval(node.value) if name not in own | read]
    return unread


def test_every_public_name_is_read():
    """A public name that only its own tests read is API kept for the
    tests: every name in a module's ``__all__`` is read by the package
    (its re-exports in __init__.py aside), by a script or by the
    benchmark.  Reads in tests do not count."""
    package = {path.name: path.read_text() for path in MODULES}
    readers = [path.read_text() for path in sorted(ROOT.glob("scripts/*.py"))
               + sorted(ROOT.glob("perfbench/*.py"))]
    assert _unread_public_names(package, readers) == []


def test_an_unread_public_name_is_found():
    package = {"a.py": "__all__ = ['f', 'g', 'h', 'C', 'grading']\ndef f(): pass\n"
                       "def g(): pass\ndef h(): pass\nclass C: pass\ndef grading(): pass\n"
                       "f()\n",
               "b.py": "__all__ = ['k', 'm']\nk = m = 1\nfrom .a import h\n"
                       "def e(grading, x):\n    return grading, x.grading, x.m\n"}
    readers = ["import pkg.a as a\nprint(a.g)\n", "from a import C\n"]
    assert _unread_public_names(package, readers) == [("a.py", "grading"), ("b.py", "k"),
                                                      ("b.py", "m")]


def _uncalled_items(tree) -> list:
    """The line of each ``items`` attribute that is read but not called: a
    Spectrum's items, where a dict's are a call."""
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "items"
                  and id(node) not in called)


def test_only_symlin_reads_spectrum_items():
    """Every other module reads a Jordan spectrum through
    ``symlin.hamiltonian_orbits``, so whether an eigenvalue lies on an
    axis is decided by one backward-error test, not once per caller."""
    found = {path.name: _uncalled_items(ast.parse(path.read_text())) for path in MODULES}
    assert {name for name, lines in found.items() if lines} == {"symlin.py"}


def test_an_uncalled_items_attribute_is_found():
    tree = ast.parse("spec.items\nd.items()\nfor it in s.items:\n    f(a.items, b.items())\n")
    assert _uncalled_items(tree) == [1, 3, 4]


def _names_ring(node) -> bool:
    return any(isinstance(sub, ast.Name) and sub.id == "_RING"
               or isinstance(sub, ast.alias) and sub.name == "_RING" for sub in ast.walk(node))


def test_only_symlin_names_the_ring_cap():
    """The ring cap ``_RING`` bounds how far apart spectrum_with_jordan
    joins the scattered eigenvalues of a defective eigenvalue, and that is
    its one use: it is named in symlin alone, read there only by
    ``spectrum_with_jordan``, and no axis decision reads it, as every
    caller asks symlin's one backward-error test."""
    found = {path.name for path in MODULES if _names_ring(ast.parse(path.read_text()))}
    assert found == {"symlin.py"}
    tree = ast.parse(Path(rfhquad.symlin.__file__).read_text())
    readers = {node.name for node in tree.body
               if isinstance(node, ast.FunctionDef | ast.ClassDef) and _names_ring(node)}
    assert readers == {"spectrum_with_jordan"}


JSON_ENCODERS = {"dump", "dumps", "_indented_json"}


def _json_output(tree) -> tuple:
    """(lines, writers): the line of each json.dump or json.dumps call
    given an ``indent``, and the innermost function around each call that
    writes a JSON document to stdout: ``json.dump`` to ``sys.stdout``, or
    ``print`` (to stdout) or ``sys.stdout.write`` of an expression that
    calls json.dump, json.dumps or the CLI's writer."""

    def name(node):
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    def is_stdout(node):
        return (isinstance(node, ast.Attribute) and node.attr == "stdout"
                and name(node.value) == "sys")

    def encodes(node):
        return any(isinstance(sub, ast.Call) and name(sub.func) in JSON_ENCODERS
                   for sub in ast.walk(node))

    owner = {}
    for fn in ast.walk(tree):  # breadth first, so an inner function overwrites its outer one
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((id(node), fn.name) for node in ast.walk(fn))
    lines, writers = [], set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        called = name(node.func)
        keywords = {kw.arg: kw.value for kw in node.keywords}
        if called in ("dump", "dumps") and "indent" in keywords:
            lines.append(node.lineno)
        if called == "print":
            to_stdout = "file" not in keywords or is_stdout(keywords["file"])
        else:
            to_stdout = called == "write" and is_stdout(getattr(node.func, "value", None))
        if (to_stdout and any(map(encodes, node.args))
                or called == "dump" and any(map(is_stdout, node.args[1:2] + [keywords.get("fp")]))):
            writers.add(owner.get(id(node), "<module>"))
    return sorted(lines), sorted(writers)


def test_one_json_writer():
    """Every --json document goes through one writer: no module of the
    package passes ``indent`` to json.dump or json.dumps, and only
    ``cli._write_json`` writes a JSON document to stdout."""
    found = {path.name: _json_output(ast.parse(path.read_text()))
             for path in sorted(Path(rfhquad.__file__).parent.glob("*.py"))}
    assert {name: out for name, out in found.items() if out != ([], [])} == {
        "cli.py": ([], ["_write_json"])}


def test_a_second_json_writer_is_found():
    tree = ast.parse("import json, sys\n"
                     "def _write_json(doc):\n    sys.stdout.write(_indented_json(doc) + '\\n')\n"
                     "def table(doc):\n    print(json.dumps(doc, indent=2))\n"
                     "def dump(doc):\n    json.dump(doc, sys.stdout)\n"
                     "def compact(doc):\n    def inner():\n        sys.stdout.write(json.dumps(doc))\n"
                     "    print('done')\n    print(json.dumps(doc), file=sys.stderr)\n"
                     "s = json.dumps({}, sort_keys=True, indent=4)\n")
    assert _json_output(tree) == ([5, 13], ["_write_json", "dump", "inner", "table"])


FREQUENCY_READERS = {"spectrum_with_jordan", "hamiltonian_orbits", "imaginary_axis_eigenvalues"}


def _frequency_reads(tree) -> list:
    """(line, name) for each place a module may read an eigenvalue
    frequency: an ``.imag`` attribute, an import of czindex or of a name
    from it other than HalfInt, and an import or use of one of
    FREQUENCY_READERS, by name or as an attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in FREQUENCY_READERS | {"imag"}:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in FREQUENCY_READERS:
            found.append((node.lineno, node.id))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            from_czindex = (getattr(node, "module", None) or "").split(".")[-1] == "czindex"
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in FREQUENCY_READERS or alias.name.split(".")[-1] == "czindex"
                      or from_czindex and alias.name != "HalfInt"]
    return sorted(found)


def test_the_oracle_reads_no_frequency():
    """oracle_cz is the frequency-free check of the analytic index: its
    grid rule, scan start, screen and floor read |J S|_2, kappa(V) and
    Re w, never Im w, and it takes nothing from czindex but HalfInt."""
    path = Path(rfhquad.__file__).parent / "oracles.py"
    assert _frequency_reads(ast.parse(path.read_text())) == []


def test_a_frequency_read_is_found():
    tree = ast.parse("from .czindex import HalfInt, crossing_times\nfrom . import czindex\n"
                     "from .symlin import ExpEvaluator, spectrum_with_jordan\n"
                     "import rfhquad.czindex\nw = ev.w.imag + ev.w.real\n"
                     "x = symlin.hamiltonian_orbits(M)\ny = imaginary_axis_eigenvalues(A)\n")
    assert _frequency_reads(tree) == [(1, "crossing_times"), (2, "czindex"),
                                      (3, "spectrum_with_jordan"), (4, "rfhquad.czindex"),
                                      (5, "imag"), (6, "hamiltonian_orbits"),
                                      (7, "imaginary_axis_eigenvalues")]
