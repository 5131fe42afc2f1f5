"""A RatPolynomial is held as int numerators over one denominator, and that
form is chosen once, in the class: callers read ``p.den`` and ``p.nums``.
The side conversions that the Fraction-backed class needed are gone, and
outside exactalg ``_numerators`` turns only Fraction vectors into ints: the
coordinates of FieldElement products and the Riemann-Roch kernel, which
stay Fractions."""

import ast
from pathlib import Path

import primpoints

SRC = Path(primpoints.__file__).parent
GONE = {"_monic_from_z", "from_zpoly", "_integral", "_scaled_monic"}
ALLOWED = {
    "numfield.py:FieldElement.__mul__",
    "hypcurve.py:riemann_roch_basis",
}


def _names(path):
    """(every name defined or referenced in path, {Class.function: the
    lines that call _numerators})."""
    names, calls = set(), {}

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
                and child.func.id == "_numerators"
            ):
                calls.setdefault(".".join(scope), []).append(child.lineno)
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), [])
    return names, calls


def test_one_integer_form_of_a_rational_polynomial():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 9
    callers = {}
    for path in files:
        names, calls = _names(path)
        assert names & GONE == set(), (path.name, names & GONE)
        if path.name != "exactalg.py":
            callers.update({f"{path.name}:{scope}": lines for scope, lines in calls.items()})
    assert set(callers) - ALLOWED == set(), callers
    # the detector still sees the calls that are allowed
    assert set(callers) == ALLOWED
