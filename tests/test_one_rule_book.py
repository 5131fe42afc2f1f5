"""What Frobenius cycle types prove is decided in one module, galois: its
three prime budgets are named nowhere else, its subset-sum kernel is the
only one in the package, no quartic [1, 3] rule survives beside it, and the
cycle-type walk exactalg._cycle_types is read only by the functions that
hand it to the rules, and by rational_roots, which reads one reading."""

import ast

from test_one_squarefree_proof import SRC, _modules

RULE_MODULE = "galois.py"
BUDGETS = {"_MUSSER_PRIMES", "_QUARTIC_PRIMES", "_FROBENIUS_PRIMES"}
WALK_READERS = {
    "exactalg.py:_factor_squarefree_z",
    "exactalg.py:rational_roots",
    "numfield.py:<module>",  # the import
    "numfield.py:_decide_primitivity",
    "numfield.py:_principal_witness",
}


def _trees():
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}


def test_budgets_are_named_only_in_the_rule_module():
    modules = _modules()
    named = {
        f"{name}:{scope or '<module>'}:{used}"
        for name, uses in modules.items()
        if name != RULE_MODULE
        for scope, used, _ in uses
        if used in BUDGETS
    }
    assert named == set()
    # the detector still sees them where they live
    assert BUDGETS <= {used for _, used, _ in modules[RULE_MODULE]}
    defined = {
        target.id
        for stmt in _trees()[RULE_MODULE].body
        if isinstance(stmt, ast.Assign)
        for target in stmt.targets
        if isinstance(target, ast.Name)
    }
    assert BUDGETS <= defined


def _is_subset_sum_step(node):
    """sums |= sums << k, or sums = sums | sums << k: one step of the
    subset-sum mask, shifted by its own value."""
    if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.BitOr):
        target, value = node.target, node.value
    elif isinstance(node, ast.Assign) and len(node.targets) == 1:
        target, value = node.targets[0], node.value
        if not (isinstance(value, ast.BinOp) and isinstance(value.op, ast.BitOr)):
            return False
        value = value.right
    else:
        return False
    return (
        isinstance(target, ast.Name)
        and isinstance(value, ast.BinOp)
        and isinstance(value.op, ast.LShift)
        and isinstance(value.left, ast.Name)
        and value.left.id == target.id
    )


def test_one_subset_sum_kernel():
    found = [
        f"{name}:{scope.name}"
        for name, tree in _trees().items()
        for scope in ast.walk(tree)
        if isinstance(scope, ast.FunctionDef)
        for node in ast.walk(scope)
        if _is_subset_sum_step(node)
    ]
    assert found == [f"{RULE_MODULE}:_subset_sums"]
    # the detector sees both spellings of the step
    for step in ("sums |= sums << k", "sums = sums | sums << k"):
        assert _is_subset_sum_step(ast.parse(step).body[0])


def test_no_quartic_rule_outside_the_rule_module():
    literals = [
        f"{name}:{node.lineno}"
        for name, tree in _trees().items()
        if name != RULE_MODULE
        for node in ast.walk(tree)
        if isinstance(node, (ast.List, ast.Tuple))
        and [getattr(e, "value", None) for e in node.elts] == [1, 3]
    ]
    assert literals == []


def test_cycle_type_walk_has_an_explicit_list_of_readers():
    readers = {
        f"{name}:{scope or '<module>'}"
        for name, uses in _modules().items()
        for scope, used, _ in uses
        if used == "_cycle_types"
    }
    assert readers == WALK_READERS
