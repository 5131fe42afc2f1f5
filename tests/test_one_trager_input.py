"""Trager factorization keeps one job, the modulus of a field over that
field.  numfield.trager_factor has one caller in the package,
_principal_kernels, and no name nf_norm is defined anywhere in it.  The one
norm of a polynomial over a number field that numfield builds is
_cofactor_norm's, which only trager_factor asks for: no other function there
reads the power sums of a polynomial's roots (power_sums), from which such
norms are composed, and only FieldElement.norm, the norm of one element,
takes a resultant.  nf_sqrt reads its polynomial off conjugate_power_sums,
the kernel that prospect and contract share."""

import ast

from test_one_squarefree_proof import SRC, _modules


def _callers(name):
    return {
        f"{module}:{scope}"
        for module, uses in _modules().items()
        for scope, used, called in uses
        if called and used == name
    }


def test_trager_factor_has_one_caller():
    assert _callers("trager_factor") == {"numfield.py:_principal_kernels"}


def test_no_nf_norm_is_defined():
    defined = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.alias):
                defined.add(node.asname or node.name)
    assert "nf_norm" not in defined
    # the detector sees definitions, assignments and imports
    assert {"trager_factor", "PRIMITIVE", "conjugate_power_sums"} <= defined


def test_cofactor_norm_is_the_only_norm_numfield_builds():
    uses = _modules()["numfield.py"]
    builders = {
        scope for scope, used, called in uses if called and used in ("power_sums", "resultant")
    }
    assert builders == {"_cofactor_norm", "FieldElement.norm"}
    tree = ast.parse((SRC / "numfield.py").read_text())
    norms = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and "norm" in node.name
    }
    assert norms == {"_cofactor_norm", "_squarefree_norm", "norm"}
    readers = {scope for scope, used, _ in uses if used in ("_cofactor_norm", "_squarefree_norm")}
    assert readers == {"trager_factor"}
    assert _callers("conjugate_power_sums") == {
        "contract.py:function_value_at_place",
        "numfield.py:nf_sqrt",
        "prospect.py:_eliminated_presentation",
    }
