"""Every name a library module imports is used in that module.

The package's ``__init__.py`` imports names to re-export them, so it is
left out.  A name counts as used when it appears as an identifier
anywhere in the module outside its import statements; ``from
__future__`` imports are compiler switches, not names.
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
