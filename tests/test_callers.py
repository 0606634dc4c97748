"""No public function without a caller: every public top-level function and
public method of a finslerlab module is referenced from the package outside
its own definition, or is on ALLOWED with the identity or API it serves.

Deleting a caller tends to leave its callee behind, and a function that only
its own tests reach is code no command runs.  The references are read
module by module.  A top-level function is referenced by its name in its own
module, by an import of it (`from .jets import sqrt`), or as an attribute of
a name bound to its module (`jets.sqrt` after `from . import jets`);
`np.sqrt` is no reference to jets.sqrt.  A method is referenced by any
attribute read of its name, except on the names np, math and scipy.
__init__.py is read for no reference: a re-export hands a name to code
outside the package, so it is no caller.
"""

import ast
from collections import Counter
from pathlib import Path

import finslerlab

SOURCES = sorted(Path(finslerlab.__file__).parent.glob("*.py"))

ALLOWED = {
    # identity routes that have no verify row yet
    "landsberg_by_transport": "L as the derivative of C along geodesics, against jb_identity",
    "mean_landsberg_by_transport": "J as the derivative of I along geodesics",
    "mean_landsberg": "J = g^{ij} L(., e_i, e_j), the algebraic side of the J identity",
    "jacobi_oracle": "the Jacobi equation on a geodesic variation, against the Riemann tensor",
    "conjugate_point_bound": "the first conjugate point under Ric >= (n-1) lambda > 0",
    "cartan_norm_along": "the g-norm of C along a unit-speed geodesic",
    "GeodesicPath.el_residual": "the Euler-Lagrange residual of an integrated geodesic",
    "GeodesicPath.F_drift": "the conservation of F along an integrated geodesic",
    "model_volume_prime": "dV/dr of the model space, its sphere area",
    "coarea_consistency": "the coarea identity d mu(B_r)/dr = nu(S_r)",
    "small_ball_probe": "the small-ball expansion of mu(B(x, eps))",
    "indicatrix_gauss_oracle": "the Brioschi Gauss curvature of the indicatrix (n = 3)",
    "indicatrix_sectional": "the intrinsic sectional curvature of the indicatrix",
    "indicatrix_bh_length": "the Busemann-Hausdorff length of the indicatrix (n = 2)",
    "distortion_derivative_check": "d tau(y + t v)/dt = I_y(v)",
    # point API over the batch
    "funk_distance": "the Funk distance of one pair of points, over funk_distance_batch",
    "hilbert_distance": "the Hilbert distance of one pair of points, over hilbert_distance_batch",
}


def public_definitions(tree):
    """(qualified name, node) of each public top-level function and each
    public method of a top-level class."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            out.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            out += [(f"{node.name}.{sub.name}", sub) for sub in node.body
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")]
    return out


LIBRARIES = {"np", "math", "scipy"}


def _module_of(node):
    """The package module that an ImportFrom node reads from, by its last
    dotted part, or None for `from . import ...`."""
    return node.module.rsplit(".", 1)[-1] if node.module else None


def _references(root, module, bound):
    """The reference keys under root, in the source of module, whose names
    bound to package modules are bound: ("name", module, id) per name,
    ("import", source, name) per imported name, ("qual", source, attr) per
    attribute of a bound module name, ("attr", attr) per other attribute
    read that is not on a library name."""
    keys = []
    for n in ast.walk(root):
        if isinstance(n, ast.Name):
            keys.append(("name", module, n.id))
        elif isinstance(n, ast.ImportFrom) and _module_of(n):
            keys += [("import", _module_of(n), a.name) for a in n.names]
        elif isinstance(n, ast.Attribute):
            owner = n.value.id if isinstance(n.value, ast.Name) else None
            if owner in bound:
                keys.append(("qual", bound[owner], n.attr))
            elif owner not in LIBRARIES:
                keys.append(("attr", n.attr))
    return keys


def _bound_modules(tree, modules):
    """Local name -> module for each `from . import m [as name]` (or from
    finslerlab) of a package module."""
    return {a.asname or a.name: a.name for n in ast.walk(tree)
            if isinstance(n, ast.ImportFrom) and _module_of(n) in (None, "finslerlab")
            for a in n.names if a.name in modules}


def uncalled(sources):
    """The qualified names of the public definitions in sources (a dict of
    module file name to source text) that no code outside their own body and
    __init__.py references, in module and definition order."""
    trees = {Path(name).stem: ast.parse(text) for name, text in sources.items()}
    bound = {module: _bound_modules(tree, trees) for module, tree in trees.items()}
    total = Counter(k for module, tree in trees.items() if module != "__init__"
                    for k in _references(tree, module, bound[module]))
    out = []
    for module, tree in trees.items():
        for qualname, node in public_definitions(tree):
            own = Counter(_references(node, module, bound[module]))
            name = node.name
            keys = ([("attr", name)] if "." in qualname else
                    [("name", module, name), ("import", module, name), ("qual", module, name)])
            if not any(total[k] > own[k] for k in keys):
                out.append(qualname)
    return out


def _package():
    return {p.name: p.read_text() for p in SOURCES}


def test_every_public_definition_has_a_caller():
    assert [name for name in uncalled(_package()) if name not in ALLOWED] == []


def test_every_allowed_name_is_a_public_definition_without_a_caller():
    # an entry that gains a caller, or whose definition goes, leaves the list
    assert sorted(uncalled(_package())) == sorted(ALLOWED)


def test_the_check_sees_an_uncalled_function():
    sources = {
        "a.py": ("def used(x):\n    return helper(x)\n\n"
                 "def helper(x):\n    return x\n\n"
                 "def planted(x):\n    return planted(x - 1) if x else 0\n\n"
                 "class Box:\n    def read(self):\n        return self.size()\n\n"
                 "    def size(self):\n        return 1\n\n"
                 "    def _hidden(self):\n        return 2\n"),
        "b.py": "from .a import Box, used\n\nVALUE = used(1)\n",
    }
    # planted reads only itself; Box.read has no reader; _hidden is private
    assert uncalled(sources) == ["planted", "Box.read"]
    # a function or method read only as a numpy attribute has no caller, an
    # attribute of a name bound to its module is one, and any other object's
    # attribute calls a method
    sources["a.py"] += ("\n\ndef exp(x):\n    return x\n\n"
                        "def sqrt(x):\n    return x\n\n"
                        "class Vec:\n    def dot(self):\n        return 0\n\n"
                        "    def norm(self):\n        return 1\n")
    sources["c.py"] = ("import numpy as np\n\nfrom . import a\n\n"
                       "def run(v):\n    return np.exp(a.sqrt(v.norm())) + np.dot(v, v)\n")
    assert uncalled(sources) == ["planted", "Box.read", "exp", "Vec.dot", "run"]
    package = _package()
    package["measures.py"] += "\n\ndef planted_volume(metric):\n    return 0.0\n"
    assert [name for name in uncalled(package) if name not in ALLOWED] == ["planted_volume"]


def test_a_re_export_is_no_caller():
    sources = {
        "__init__.py": "from .a import exported, used\n\n__all__ = [\"exported\", \"used\"]\n",
        "a.py": ("def used(x):\n    return x\n\n"
                 "def exported(x):\n    return x\n"),
        "b.py": "from .a import used\n\nVALUE = used(1)\n",
    }
    assert uncalled(sources) == ["exported"]
    package = _package()
    package["measures.py"] += "\n\ndef planted_volume(metric):\n    return 0.0\n"
    package["__init__.py"] += "\nfrom .measures import planted_volume\n"
    assert [name for name in uncalled(package) if name not in ALLOWED] == ["planted_volume"]
