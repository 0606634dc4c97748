"""No public function without a caller: every public top-level function and
public method of a finslerlab module is referenced from the package outside
its own definition, or is on ALLOWED with the identity or API it serves.

Deleting a caller tends to leave its callee behind, and a function that only
its own tests reach is code no command runs.  A reference is a name or an
attribute read (`f`, `module.f`, `obj.f`) or an import of the name anywhere
in the package, so the re-exports of __init__.py count, and a method counts
as called when any attribute of its name is read.
"""

import ast
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
    # the per-slot reader of a jet
    "Jet.partial": "one mixed partial, which the jet tests check derivative_tensor against",
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


def uncalled(sources):
    """The qualified names of the public definitions in sources (a dict of
    module name to source text) that no code outside their own body reads or
    imports, in module and definition order."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    out = []
    for tree in trees.values():
        for qualname, node in public_definitions(tree):
            own = {id(n) for n in ast.walk(node)}
            name = node.name
            if not any(id(n) not in own
                       and (isinstance(n, ast.Name) and n.id == name
                            or isinstance(n, ast.Attribute) and n.attr == name
                            or isinstance(n, ast.alias) and n.name == name)
                       for other in trees.values() for n in ast.walk(other)):
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
    package = _package()
    package["measures.py"] += "\n\ndef planted_volume(metric):\n    return 0.0\n"
    assert [name for name in uncalled(package) if name not in ALLOWED] == ["planted_volume"]
