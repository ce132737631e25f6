"""Every name a library module imports is used in that module, and every
private name the library defines is used somewhere in the library.

The package's ``__init__.py`` imports names to re-export them, so it is
left out of the import check.  A name counts as used when it appears as
an identifier anywhere in the module outside its import statements;
``from __future__`` imports are compiler switches, not names.

A private name is one that starts with ``_`` but is not a dunder: a
function or class defined at any level, or a name a module assigns at
its top level.  It is dead when no module of ``src/complaff/`` reads it,
as a name or as an attribute.
"""

import ast
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, os.pardir, "src", "complaff")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_a_module_may_not_import_an_unused_name():
    assert unused_imports("import os\nfrom a.b import c as d, e\nprint(e)\n") == [
        (1, "os"), (2, "d")]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def dead_private_names(sources: dict) -> list:
    """(module, line, name) of every private name defined in one of the
    sources (module name -> text) and read in none of them."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.lineno, node.name))
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                read.add(node.attr)
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        defined.append((module, node.lineno, leaf.id))
    return sorted(d for d in defined if _is_private(d[2]) and d[2] not in read)


def test_dead_private_names_are_found():
    sources = {
        "a": "_LIMIT, _UNUSED = 1, 2\ndef _helper():\n    return _LIMIT\n"
             "class _Gone:\n    def _hook(self):\n        pass\n",
        "b": "from a import _helper\nx = _helper()\n_y = None\n"
             "def f(o):\n    o._hook()\n    def _inner():\n        pass\n",
    }
    assert dead_private_names(sources) == [
        ("a", 1, "_UNUSED"), ("a", 4, "_Gone"), ("b", 3, "_y"), ("b", 6, "_inner")]


def test_every_private_name_is_used():
    sources = {}
    for module in os.listdir(SRC):
        if module.endswith(".py"):
            with open(os.path.join(SRC, module), encoding="utf-8") as fh:
                sources[module] = fh.read()
    assert dead_private_names(sources) == []


# The geometry reads a domain through its payload hooks only; the boundary
# modules (cli, config, jsonio) name the concrete domains.
GEOMETRY = ("linalg.py", "projective.py", "chart.py", "reguli.py", "dualspread.py")
DOMAIN_CLASSES = frozenset({"PrimeField", "ExtensionField", "Rationals", "Quaternions"})


def domain_classes_imported(source: str) -> list:
    """The concrete domain classes a module imports from the algebra module."""
    return sorted(alias.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  and (node.module or "").rpartition(".")[2] == "algebra"
                  for alias in node.names if alias.name in DOMAIN_CLASSES)


def test_domain_class_imports_are_found():
    assert domain_classes_imported(
        "from .algebra import Quaternions, Sampled\n"
        "def f():\n    from complaff.algebra import PrimeField\n"
        "from .linalg import Rationals\n") == ["PrimeField", "Quaternions"]


@pytest.mark.parametrize("module", GEOMETRY)
def test_geometry_imports_no_concrete_domain(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert domain_classes_imported(fh.read()) == []
