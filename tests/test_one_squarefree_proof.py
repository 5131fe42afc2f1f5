"""Squarefreeness over Q has one proof, exactalg.is_squarefree: a good prime
among the first few, read through the cycle-type memo, and otherwise the
PRS gcd.  No other module screens with a prime of its own.  Outside
exactalg, the modular test _p_squarefree_of_degree has one caller,
numfield._gcds_mod_p, which checks that a norm stays squarefree of full
degree at the primes _pull_back reconstructs from, and no module names the
good-prime helpers."""

import ast
from pathlib import Path

import primpoints

SRC = Path(primpoints.__file__).parent
MOD_P_TEST = "_p_squarefree_of_degree"
ALLOWED_CALLERS = {"numfield.py:_gcds_mod_p"}
# _has_good_prime was folded into is_squarefree
GOOD_PRIME_HELPERS = {"_p_readings", "_SQUAREFREE_PRIMES", "_has_good_prime"}


def _uses(path):
    """(scope, name, called) for every name, attribute and imported name of
    path; scope is the enclosing function or method, dotted, or "" at
    module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                found.append((".".join(scope), name, True))
            elif isinstance(child, ast.Name):
                found.append((".".join(scope), child.id, False))
            elif isinstance(child, ast.Attribute):
                found.append((".".join(scope), child.attr, False))
            elif isinstance(child, ast.ImportFrom):
                found.extend((".".join(scope), a.name, False) for a in child.names)
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), [])
    return found


def _modules():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 9
    return {p.name: _uses(p) for p in files}


def test_one_caller_of_the_modular_test_outside_exactalg():
    callers = {
        f"{name}:{scope}"
        for name, uses in _modules().items()
        if name != "exactalg.py"
        for scope, used, called in uses
        if called and used == MOD_P_TEST
    }
    assert callers == ALLOWED_CALLERS


def test_good_prime_helpers_stay_in_exactalg():
    modules = _modules()
    named = {
        f"{name}:{scope or '<module>'}:{used}"
        for name, uses in modules.items()
        if name != "exactalg.py"
        for scope, used, _ in uses
        if used in GOOD_PRIME_HELPERS
    }
    assert named == set()
    # the detector still sees them where they live
    inside = {used for _, used, _ in modules["exactalg.py"]}
    assert {"_p_readings", "_SQUAREFREE_PRIMES"} <= inside

