"""No dead imports: every name a finslerlab module or a test module imports
is used in it.  And no finslerlab module imports scipy.linalg: the tensors
are factored with numpy, whose stacked Cholesky and solve run in C where
scipy's batched wrappers loop over the members in Python.

No linter runs on this package, and deleting code tends to leave its
imports behind, in the package and in the tests that reached it.  The
package's __init__.py re-exports names, so it is exempt, and so are
`from __future__` imports; instead the names it imports must be its
__all__, so that a re-export cannot outlive its definition or its listing.
"""

import ast
from pathlib import Path

import pytest

import finslerlab

INIT = Path(finslerlab.__file__)
MODULES = sorted(p for p in INIT.parent.glob("*.py") if p.name != "__init__.py")
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


def exports(source):
    """The names that source imports and the names its __all__ lists, each
    sorted."""
    tree = ast.parse(source)
    imported = [a.asname or a.name for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names]
    listed = [ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)]
    return sorted(imported), sorted(listed[0] if listed else [])


def scipy_linalg_imports(source):
    """The import statements of source that load scipy.linalg, by line."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        if any(name == "scipy.linalg" or name.startswith("scipy.linalg.") for name in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_scipy_linalg(path):
    assert scipy_linalg_imports(path.read_text()) == []


def test_the_check_sees_scipy_linalg():
    source = ("import scipy\nimport scipy.linalg\nfrom scipy import linalg\n"
              "from scipy.linalg import cho_factor\nfrom scipy.special import ndtri\n"
              "import numpy.linalg\n")
    assert scipy_linalg_imports(source) == [2, 3, 4]


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


def test_the_init_imports_are_its_all():
    imported, listed = exports(INIT.read_text())
    assert imported == listed == sorted(finslerlab.__all__)


def test_the_check_sees_a_stale_re_export():
    source = ("from .jets import Jet, lift\nfrom .measures import gone\n\n"
              "__all__ = [\"Jet\", \"lift\", \"listed\"]\n")
    assert exports(source) == (["Jet", "gone", "lift"], ["Jet", "lift", "listed"])
