"""A RatPolynomial is held as int numerators over one denominator, and that
form is chosen once, in the class: callers read ``p.den`` and ``p.nums``.
A FieldElement holds the RatPolynomial of its coordinates, and division over
Q is a pseudo-division of the numerators.  The side conversions that the
Fraction-backed classes needed are gone: outside exactalg ``_numerators``
turns only the Riemann-Roch kernel, which nullspace gives as Fractions, into
ints, and the field division ``_divmod_list`` serves polynomials over a
number field alone."""

import ast
from pathlib import Path

import primpoints

SRC = Path(primpoints.__file__).parent
GONE = {"_monic_from_z", "from_zpoly", "_integral", "_scaled_monic", "_z_pseudo_rem"}
ALLOWED = {
    "_numerators": {"hypcurve.py:riemann_roch_basis"},
    "_divmod_list": {"numfield.py:NfPolynomial.__divmod__"},
}


def _names(path):
    """(every name defined or referenced in path, the pairs (callee,
    Class.function) of each call in it to a callee of ALLOWED)."""
    names, calls = set(), set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                names.add(child.name)
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Name):
                names.add(child.id)
            elif isinstance(child, ast.Attribute):
                names.add(child.attr)
            elif isinstance(child, ast.alias):
                names.add(child.asname or child.name)
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id in ALLOWED
            ):
                calls.add((child.func.id, ".".join(scope)))
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), [])
    return names, calls


def test_one_integer_form_of_a_rational_polynomial():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 9
    callers = {callee: set() for callee in ALLOWED}
    for path in files:
        names, calls = _names(path)
        assert names & GONE == set(), (path.name, names & GONE)
        if path.name == "numfield.py":
            assert "_numerators" not in names
        for callee, scope in calls:
            if path.name != "exactalg.py" or callee == "_divmod_list":
                callers[callee].add(f"{path.name}:{scope}")
    # the detector sees every allowed call, and no other
    assert callers == ALLOWED, callers
