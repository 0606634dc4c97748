"""No dead imports: every name a finslerlab module or a test module imports
is used in it.

No linter runs on this package, and deleting code tends to leave its
imports behind, in the package and in the tests that reached it.  The
package's __init__.py re-exports names, so it is exempt, and so are
`from __future__` imports.
"""

import ast
from pathlib import Path

import pytest

import finslerlab

MODULES = sorted(p for p in Path(finslerlab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source):
    """The names that source imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_every_test_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_dead_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom math import pi, tau\n"
              "from .jets import Jet\n"
              "def f(x: Jet):\n    return np.sin(x) * pi\n")
    assert unused_imports(source) == ["os", "tau"]
